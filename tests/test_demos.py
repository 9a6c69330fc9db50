"""Each demo script runs to completion against the package in ``src``.

Demo 07 is left out: it trains the controllability model for minutes, and
the acceptance suite already trains that config.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", [
    "01_autodiff_basics.py",
    "02_tokenizer.py",
    "03_attention_and_injection.py",
    "04_latent_objective.py",
    "05_sampling.py",
    pytest.param("06_full_pipeline.py", marks=pytest.mark.slow),
])
def test_demo_exits_zero(script, tmp_path):
    # Run from a temporary directory: demo 06 writes latents.tsv to the working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
