"""Smoke tests: each script under scripts/ and the README's library sketch
run end to end at a tiny size."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modalign
from modalign.synthetic import SyntheticSpec, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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
        ("pipeline_digests.py", ["--workloads", "eval-heavy", "--seeds", "0"]),
        ("stage_rss.py", ["--workloads", "eval-heavy,train-long", "--seed", "0"]),
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
    if script == "pipeline_digests.py":
        lines = proc.stdout.splitlines()
        assert all(re.fullmatch(r"[0-9a-f]{64}  eval-heavy-0/\S+", line) for line in lines)
        assert any(line.endswith("  eval-heavy-0/manifest.json") for line in lines)
        assert any(line.endswith("  eval-heavy-0/bundle/bundle.json") for line in lines)
    if script == "stage_rss.py":
        rows = [line.split("  ") for line in proc.stdout.splitlines()]
        by_workload = {}
        for workload, stage, peak, current, seconds, faults, modules in rows:
            assert float(peak) > 0 and (current == "-" or float(current) > 0)
            assert float(seconds) >= 0 and int(faults) >= 0
            # A stage's first imports, none beside its own parent package;
            # no stage loads numpy.random.
            imported = [] if modules == "-" else modules.split(",")
            assert all(imported) and imported == sorted(imported)
            assert not any(m.rpartition(".")[0] in imported for m in imported)
            assert "numpy.random" not in imported
            by_workload.setdefault(workload, []).append((stage, float(peak)))
        assert list(by_workload) == ["eval-heavy", "train-long"]
        for stages in by_workload.values():
            assert [s for s, _ in stages][:3] == ["validate", "kb-build", "centers"]
            assert stages[-1][0] == "summary"
            peaks = [p for _, p in stages]
            assert peaks == sorted(peaks)  # ru_maxrss never falls within a workload
        # Each workload has its own process: no peak carries over to the next.
        assert by_workload["train-long"][0][1] < by_workload["eval-heavy"][-1][1]


def test_stage_rss_names_a_new_package_without_its_submodules():
    # In a fresh interpreter of its own: loading the script puts perfbench's
    # thread limits into os.environ. json is loaded by then and xml is not.
    code = (
        "import runpy, sys\n"
        f"new_modules = runpy.run_path({str(SCRIPTS / 'stage_rss.py')!r})['new_modules']\n"
        "before = set(sys.modules)\n"
        "print(new_modules(before))\n"
        "import json.tool, xml.dom.minidom\n"
        "print(new_modules(before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["-", "json.tool,xml"]


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    spec = SyntheticSpec(categories=3, samples_per_class=6, dim=8, descriptions_per_class=10)
    generate_synthetic(spec, tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    for report in (namespace["report"], namespace["baseline"]):
        assert report.sample_count == 18
        assert 0.0 <= report.top1_accuracy <= 1.0
