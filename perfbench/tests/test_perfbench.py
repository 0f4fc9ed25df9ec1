"""Tests of the benchmark's own logic: span arithmetic, the output oracle,
per-child resource accounting, workload pins and the no-source refusal.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        ("pipeline.run_pipeline", 0.0, 10.0, -1),
        ("training.train", 1.0, 6.0, 0),
        ("contrastive.info_nce_loss", 2.0, 3.0, 1),
        ("optim.Adam.step", 3.5, 4.0, 1),
        ("evaluation.evaluate_retrieval", 7.0, 9.0, 0),
        ("vectors.top_k", 7.5, 8.5, 4),
        ("vectors.normalize_rows", 7.6, 7.8, 5),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 1.0, 0.8, 0.2])
    shares = tracer.layer_self_times(spans)
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares["vectors"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("a.x", 0.0, 4.0, -1), ("b.y", 1.0, 3.0, 0), ("b.z", 2.0, 3.5, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.5)


def test_total_time_skips_spans_nested_in_the_same_set():
    spans = [
        ("ubem.write_ubem", 0.0, 2.0, -1),
        ("serialize.atomic_write_bytes", 0.5, 1.5, 0),
        ("serialize.atomic_write_text", 3.0, 3.25, -1),
    ]
    names = ("ubem.write_ubem", "serialize.atomic_write_bytes", "serialize.atomic_write_text")
    assert tracer.total_time(spans, names) == pytest.approx(2.25)
    assert tracer.total_time(spans, names[1:]) == pytest.approx(1.25)


def test_tracer_records_parents_and_counters():
    t = tracer.Tracer("r")

    def outer(x):
        return inner(x) + 1

    def inner(x):
        return x * 2

    inner = t.wrap(inner, count=lambda tr, arg, result: tr.counters.__setitem__("x", arg("x")))
    outer = t.wrap(outer)
    assert outer(5) == 11
    spans = tracer.spans_from_dict(t.to_dict())
    assert [(s[0].rsplit(".", 1)[-1], s[3]) for s in spans] == [("outer", -1), ("inner", 0)]
    assert t.counters["x"] == 5
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A pipeline run on a tiny bundle, made in-process."""
    from modalign.pipeline import load_pipeline_config, run_pipeline
    from modalign.synthetic import SyntheticSpec, generate_synthetic

    root = tmp_path_factory.mktemp("tiny")
    bundle = generate_synthetic(
        SyntheticSpec(categories=4, samples_per_class=10, dim=12, descriptions_per_class=15, seed=5),
        root / "bundle",
    )
    run_pipeline(load_pipeline_config(bundle.pipeline_config, root / "out"))
    return bundle.pipeline_config, root / "out"


def test_oracle_accepts_the_pipeline_output(tiny_run):
    assert oracle.check_run(*tiny_run) == []


@pytest.mark.parametrize("path", [
    ("zeroshot_top1", "mod0", "post", "center_max"),
    ("zeroshot_top1", "mod1", "pre", "prompt_mean"),
    ("retrieval_recall", "mod0_to_mod1", "post", "5"),
])
def test_oracle_rejects_a_tampered_summary(tiny_run, tmp_path, path):
    config, out = tiny_run
    tampered = tmp_path / "out"
    shutil.copytree(out, tampered)
    summary_path = tampered / "reports" / "summary.json"
    summary = json.loads(summary_path.read_text())
    node = summary
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = value - 1 / 40 if value >= 0.5 else value + 1 / 40
    summary_path.write_text(json.dumps(summary))
    errors = oracle.check_run(config, tampered)
    assert len(errors) == 1 and path[1] in errors[0]


def test_recall_ties_go_to_the_lower_gallery_row():
    sims = [[0.5, 0.5, 0.5, 0.1]]
    relevant = [[False, True, False, False]]
    import numpy as np

    bounds = oracle.recall_bounds(np.array(sims), np.array(relevant), [1, 2])
    # Row 0 ties the relevant row 1 and precedes it; row 2 ties but follows.
    assert bounds[1][0] == 0 and bounds[2][0] == 1


TOUCH_120MB = "b = bytearray(120_000_000); b[::4096] = b'x' * len(b[::4096])"


@pytest.fixture
def spawner():
    with run.Spawner() as s:
        yield s


def test_peak_rss_is_per_child(spawner, tmp_path):
    big = spawner.run([sys.executable, "-c", TOUCH_120MB], tmp_path / "big.log")
    small = spawner.run([sys.executable, "-c", "pass"], tmp_path / "small.log")
    assert big["rc"] == 0 and small["rc"] == 0
    assert big["peak_rss_mb"] > 120
    assert small["peak_rss_mb"] < 60


def test_peak_rss_excludes_the_benchmark_process(spawner, tmp_path):
    # A child's ru_maxrss includes the peak of the process it was spawned
    # from, so children must come from the small spawner, not from run.py.
    ballast = bytearray(150_000_000)
    ballast[::4096] = b"x" * len(ballast[::4096])
    small = spawner.run([sys.executable, "-c", "pass"], tmp_path / "small.log")
    del ballast
    assert small["rc"] == 0 and small["peak_rss_mb"] < 60


def test_spawner_kills_a_child_past_its_timeout(spawner, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    sample = spawner.run([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path / "log")
    assert sample["rc"] != 0 and sample["wall_s"] < 10


def test_traced_child_reports_every_layer(tiny_run, spawner, tmp_path):
    config, _ = tiny_run
    meta = tmp_path / "meta.json"
    sample = spawner.run(
        run.CHILD + ["traced", str(meta), "t", "--", "pipeline", "run",
                     "--config", str(config), "--out", str(tmp_path / "out")],
        tmp_path / "log",
    )
    assert sample["rc"] == 0, (tmp_path / "log").read_text()
    trace = run.read_meta(meta)["trace"]
    metrics = tracer.layer_metrics(trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    measured_elsewhere = {"cli.import_s", "pipeline.cpu_s", "pipeline.tracing_overhead_s"}
    assert {m["name"] for m in declared} == set(metrics) | measured_elsewhere
    zero = [m for m, v in metrics.items() if not v > 0]
    assert zero == []
    assert metrics["training.steps"] == metrics["contrastive.calls"]
    assert metrics["evaluation.zeroshot_queries"] == 2 * 2 * 2 * 40
    assert sum(tracer.layer_shares(trace).values()) == pytest.approx(1.0, abs=0.02)
    assert oracle.check_run(config, tmp_path / "out") == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_default_seed_bundles_match_their_pins(workload, tmp_path):
    run.make_bundle(workload, run.DEFAULT_SEED, tmp_path / "bundle")
    run.check_pins(workload, tmp_path / "bundle")


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kb-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
