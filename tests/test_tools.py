"""Each script in ``tools/`` runs to completion against the package in ``src`` and prints what it promises.

``op_kinds.py`` prints its four cases at the node counts that
``TestTapeSize`` pins, with call counts that repeat exactly, a count of
minor page faults, and peak traced bytes that repeat within 1%, and
``bit_hashes.py`` one sha256 digest for each of
its 37 cases, each under its own name.  Both drive the decoder cache, so a
tool that breaks with it shows here.  A tool whose reader closes early, as
``| head -1`` does, exits 1 without a traceback.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Unbuffered, so each line the tool prints is its own write, as a reader at a terminal sees it.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           PYTHONUNBUFFERED="1")


def run(tmp_path, script, *args) -> str:
    result = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=tmp_path, env=ENV,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


CASE = re.compile(r"^## (.+): (\d+) nodes, (\d+) Python calls, (\d+) C calls, (\d+) minor faults, "
                  r"(\d+) peak traced bytes, wall ", re.M)


def op_kinds(tmp_path) -> list[tuple]:
    """Each case's name, nodes, Python calls, C calls, minor faults and peak traced bytes, from one run of
    ``op_kinds.py``."""
    return [(name, *map(int, counts)) for name, *counts in CASE.findall(run(tmp_path, "op_kinds.py", "--repeats", "1"))]


def test_op_kinds_prints_the_pinned_node_counts_and_repeatable_probes(tmp_path):
    """Two runs of the tool: the pinned nodes, the same call counts, a fault count, and peak traced bytes within 1%."""
    first, second = op_kinds(tmp_path), op_kinds(tmp_path)
    assert [(name, nodes) for name, nodes, *_ in first] == [
        ("cvae train step", 19), ("vae train step", 15), ("one-token generation", 18), ("cached decode step", 10)]
    for (name, nodes, calls, c_calls, faults, peak), again in zip(first, second, strict=True):
        assert again[:4] == (name, nodes, calls, c_calls) and calls > 0 and c_calls > 0, (name, again)
        assert faults >= 0 and again[4] >= 0
        assert abs(again[5] - peak) <= 0.01 * peak, (name, peak, again[5])


def test_bit_hashes_prints_one_digest_per_case(tmp_path):
    lines = run(tmp_path, "bit_hashes.py").splitlines()
    assert len(lines) == 37
    digests, names = zip(*(line.split("  ", 1) for line in lines))
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests)
    assert len(set(names)) == 37 and all(names)


@pytest.mark.parametrize("script, args", [("op_kinds.py", ["--repeats", "1"]), ("bit_hashes.py", [])])
def test_a_reader_that_closes_after_the_first_line_gets_exit_1_and_no_traceback(tmp_path, script, args):
    with subprocess.Popen([sys.executable, str(ROOT / "tools" / script), *args], cwd=tmp_path, env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=600) == 1, err
        finally:
            proc.kill()  # leaving the block closes the pipes and waits
    assert "Traceback" not in err and "Exception ignored" not in err, err
