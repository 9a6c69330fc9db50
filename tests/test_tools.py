"""Each script in ``tools/`` runs to completion against the package in ``src`` and prints what it promises.

``op_kinds.py`` prints its four cases at the node counts that
``TestTapeSize`` pins, and ``bit_hashes.py`` one sha256 digest for each of
its 36 cases, each under its own name.  Both drive the decoder cache, so a
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


def test_op_kinds_prints_the_pinned_node_counts(tmp_path):
    cases = re.findall(r"^## (.+): (\d+) nodes, wall ", run(tmp_path, "op_kinds.py", "--repeats", "1"), re.M)
    assert [(name, int(n)) for name, n in cases] == [
        ("cvae train step", 21), ("vae train step", 16), ("one-token generation", 19), ("cached decode step", 10)]


def test_bit_hashes_prints_one_digest_per_case(tmp_path):
    lines = run(tmp_path, "bit_hashes.py").splitlines()
    assert len(lines) == 36
    digests, names = zip(*(line.split("  ", 1) for line in lines))
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in digests)
    assert len(set(names)) == 36 and all(names)


@pytest.mark.parametrize("script, args", [("op_kinds.py", ["--repeats", "1"]), ("bit_hashes.py", [])])
def test_a_reader_that_closes_after_the_first_line_gets_exit_1_and_no_traceback(tmp_path, script, args):
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / script), *args], cwd=tmp_path, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=600) == 1, err
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Exception ignored" not in err, err
