"""Smoke tests: each script under scripts/ runs end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modalign

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        (
            "run_synthetic_experiment.py",
            ["--categories", "3", "--dim", "6", "--samples", "4",
             "--descriptions-per-class", "5", "--epochs", "2"],
        ),
        (
            "sweep_center_k.py",
            ["--categories", "3", "--dim", "6", "--descriptions-per-class", "8",
             "--queries-per-class", "3", "--ks", "1,4,12", "--seeds", "1"],
        ),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
