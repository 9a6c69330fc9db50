"""Tiny-size smoke runs of the benchmark.

    python -m pytest perfbench/test_smoke.py

Each workload runs for a fraction of a second at toy model sizes, and
must emit exactly the metrics BENCHMARK.json names, with their units.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("autograd.nodes_per_op", "autograd.grad_nodes_per_op", "autograd.nodes_per_token",
          "transformer.decoder_rows_per_token")


def _tiny(tmp_path, workload: str, trace: bool, seed: int = 3) -> dict:
    return run.run(workload, seed, 0.2, trace, tmp_path, scale=workloads.TINY)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(tmp_path, workload, trace):
    result = _tiny(tmp_path, workload, trace)["result"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert (tmp_path / ".perfbench_out" / f"result-{workload}-seed3-trace{int(trace)}.json").is_file()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(tmp_path, workload):
    first = _tiny(tmp_path / "a", workload, True)["per_layer"]
    second = _tiny(tmp_path / "b", workload, True)["per_layer"]
    names = [n for n in first if n in COUNTS or n.startswith("autograd.op_count.")]
    assert [first[n]["value"] for n in names] == [second[n]["value"] for n in names]
    assert first["autograd.nodes_per_op"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
