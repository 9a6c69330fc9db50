"""Run one storyvae benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_overfit --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the benchmark imports storyvae from
that checkout's ``src`` and exits with a non-zero code, printing no result, when
there is none.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it repeat every metric with its unit and the details
(sample counts, the tail percentile, failed_share, the environment).
The full result is also written to ``.perfbench_out/``, and a traced
run writes its spans there too.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One BLAS thread, pinned before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("train_overfit", "generate_long", "eval_short")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def find_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "storyvae" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no storyvae source under {src}; run from the root of a checkout")
    return src


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, scale=None) -> dict:
    """Measure one workload and return the full result (the printed line is a subset)."""
    import metrics
    import workloads

    out = root / ".perfbench_out"
    m = workloads.measure(workload, seed, seconds, trace, out / "work" / workload,
                          scale=scale or workloads.FULL)
    e2e = metrics.end_to_end(m)
    info = metrics.details(m)
    failed, attempted = info["failed_share"]["failed"], info["failed_share"]["attempted"]
    chosen, units = (metrics.per_layer(m), metrics.PER_LAYER) if trace else (e2e, metrics.END_TO_END)
    result = {
        "correct": failed == 0 and metrics.finite(chosen),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }
    full = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(root, seed),
        "end_to_end": {k: {"value": v, "unit": metrics.END_TO_END[k]} for k, v in e2e.items()},
        "end_to_end_raw": {k: {"value": v, "unit": metrics.END_TO_END[k]}
                           for k, v in metrics.end_to_end(m, corrected=False).items()},
        "details": info,
        "errors": [e for r in m.rounds for e in r.errors][:10],
        "result": result,
    }
    if trace:
        full["per_layer"] = result["metrics"]
        full["node_kinds_per_op"] = metrics.all_kinds(m)
        spans_path = out / f"spans-{workload}.npz"
        m.tracer.write(spans_path)
        full["spans"] = str(spans_path.relative_to(root))
    path = out / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    full["path"] = str(path.relative_to(root))
    return full


def report(full: dict) -> None:
    result = full["result"]
    print(f"perfbench {full['workload']} seed={full['environment']['seed']} trace={int(full['trace'])} "
          f"seconds={full['seconds']:g}")
    print("environment " + json.dumps(full["environment"], sort_keys=True))
    details = full["details"]
    for name, m in result["metrics"].items():
        extra = details.get(name, {}) if not full["trace"] else {}
        note = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in extra.items())
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    fs = details["failed_share"]
    print(f"  {'failed_share':<40} {fs['value']:>14.6g} share  failed={fs['failed']} attempted={fs['attempted']}")
    slow = details["slowdown"]
    print(f"  {'slowdown':<40} {slow['median']:>14.6g} x      median machine slowdown against nominal; "
          f"times above are divided by it ({slow['samples']} calibration samples)")
    for e in full["errors"]:
        print("  error: " + e.strip().replace("\n", " | "))
    print(f"result written to {full['path']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    os.environ.update(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(find_source(root)))
    import storyvae

    if Path(storyvae.__file__).resolve().parent != (root / "src" / "storyvae").resolve():
        raise SystemExit(f"perfbench: imported storyvae from {storyvae.__file__}, not from {root / 'src'}")
    report(run(args.workload, args.seed, args.seconds, bool(args.trace), root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
