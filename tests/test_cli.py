import io
import json
import os
from collections import Counter
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modalign
from modalign.cli import main
from modalign.evaluation import ScoringMode, evaluate_classification
from modalign.kb import KnowledgeRecord, Source, save_records
from modalign.pipeline import categories_for, load_labels
from modalign.serialize import fixed_json
from modalign.synthetic import SyntheticSpec, generate_synthetic
from modalign.training import default_adapter, load_adapter, save_adapter
from modalign.ubem import (
    HEADER_LIMIT, MAGIC, read_ubem, read_ubem_stream, write_ubem, write_ubem_stream,
)
from modalign.vectors import EmbeddingMatrix


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    spec = SyntheticSpec(
        categories=4, modalities=2, samples_per_class=8, dim=10,
        class_separation=1.0, modality_offset=1.0, noise_sigma=0.3,
        descriptions_per_class=12, seed=3,
    )
    return generate_synthetic(spec, tmp_path_factory.mktemp("cli_bundle"))


@pytest.fixture(scope="module")
def kb_dir(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_kb") / "kb"
    code = main([
        "kb", "build",
        "--records", str(bundle.records),
        "--embeddings", str(bundle.kb_embeddings),
        "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def centers_file(bundle, kb_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_centers") / "centers.cset"
    code = main([
        "centers", "localize",
        "--kb", str(kb_dir),
        "--prompts", str(bundle.prompts),
        "--k", "10",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestKbCommands:
    def test_build_writes_kb_dir(self, kb_dir):
        assert (kb_dir / "records.jsonl").is_file()
        assert (kb_dir / "embeddings.ubem").is_file()

    def test_stats_prints_counts(self, kb_dir, capsys):
        assert main(["kb", "stats", "--kb", str(kb_dir)]) == 0
        out = capsys.readouterr().out
        assert "records: 112" in out  # 4*12 descriptions + 2*4*8 paired
        assert "cat000" in out

    def test_stats_counts_each_categorys_rows_per_source(self, bundle, kb_dir, capsys):
        # The oracle counts the records file's lines, one by one.
        counts = Counter()
        for line in bundle.records.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            counts[record["category"], record["source"]] += 1
        categories = sorted({category for category, _ in counts})
        assert [counts[c, "llm_category"] for c in categories] == [12] * 4
        assert [counts[c, "mllm_data"] for c in categories] == [16] * 4  # 2 modalities x 8
        assert main(["kb", "stats", "--kb", str(kb_dir)]) == 0
        table = capsys.readouterr().out.splitlines()[4:]
        assert table == [f"{'category':<24} {'llm_category':>12} {'mllm_data':>10}"] + [
            f"{c:<24} {counts[c, 'llm_category']:>12} {counts[c, 'mllm_data']:>10}"
            for c in categories
        ]

    def test_build_missing_file_exit_2(self, tmp_path, capsys):
        code = main([
            "kb", "build",
            "--records", str(tmp_path / "none.jsonl"),
            "--embeddings", str(tmp_path / "none.ubem"),
            "--out", str(tmp_path / "kb"),
        ])
        assert code == 2

    def test_build_count_mismatch_exit_2(self, tmp_path):
        records = [KnowledgeRecord("a", "c", "d", Source.LLM_CATEGORY)]
        save_records(tmp_path / "r.jsonl", records)
        write_ubem(tmp_path / "e.ubem", EmbeddingMatrix(np.ones((2, 3), dtype=np.float32)))
        code = main([
            "kb", "build",
            "--records", str(tmp_path / "r.jsonl"),
            "--embeddings", str(tmp_path / "e.ubem"),
            "--out", str(tmp_path / "kb"),
        ])
        assert code == 2


class TestCentersCommands:
    def test_localize_output_loads(self, centers_file):
        from modalign.centers import load_center_set

        centers = load_center_set(centers_file)
        assert len(centers.centers) == 4
        assert centers.k == 10

    def test_sweep_writes_one_file_per_k(self, bundle, kb_dir, tmp_path):
        out = tmp_path / "sweeps"
        code = main([
            "centers", "sweep",
            "--kb", str(kb_dir),
            "--prompts", str(bundle.prompts),
            "--ks", "1,5,10",
            "--out", str(out),
        ])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.cset")) == [
            "centers_k1.cset", "centers_k10.cset", "centers_k5.cset",
        ]


class TestTrainAndGradcheck:
    def test_train_writes_adapter(self, bundle, kb_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text('{"epochs": 3, "batch_size": 8, "seed": 0}')
        out = tmp_path / "mod0.adapter"
        code = main([
            "train",
            "--kb", str(kb_dir),
            "--pairs", str(bundle.pairs["mod0"]),
            "--visual", str(bundle.visual["mod0"]),
            "--modality", "mod0",
            "--config", str(config),
            "--out", str(out),
        ])
        assert code == 0
        assert load_adapter(out).modality == "mod0"

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--dim", "8", "--batch", "4", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_rectangular(self):
        assert main([
            "gradcheck", "--dim", "6", "--dim-out", "9", "--batch", "5", "--seed", "1",
        ]) == 0

    def test_gradcheck_failure_exits_3(self, monkeypatch, capsys):
        from modalign import cli
        from modalign.training import GradCheckReport

        monkeypatch.setattr(
            cli, "gradient_check_arrays", lambda *a, **k: GradCheckReport(0.5, False)
        )
        assert main(["gradcheck", "--dim", "4", "--batch", "2"]) == 3
        assert "FAIL" in capsys.readouterr().out


class TestEvalCommands:
    def test_zeroshot_center_max(self, bundle, centers_file, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "eval", "zeroshot",
            "--centers", str(centers_file),
            "--queries", str(bundle.visual["mod0"]),
            "--labels", str(bundle.labels),
            "--mode", "center_max",
            "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["mode"] == "center_max"
        assert 0.0 <= payload["top1_accuracy"] <= 1.0

    def test_zeroshot_prompt_mean_uses_center_prompts(self, bundle, centers_file, tmp_path):
        report = tmp_path / "report.json"
        code = main([
            "eval", "zeroshot",
            "--centers", str(centers_file),
            "--queries", str(bundle.visual["mod1"]),
            "--labels", str(bundle.labels),
            "--mode", "prompt_mean",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["mode"] == "prompt_mean"

    def test_zeroshot_prompt_mean_uses_prompt_ensemble(self, bundle, centers_file, tmp_path):
        # Three prompt rows per category, interleaved, so grouping by label
        # (not by position) decides each category's block.
        categories = read_ubem(bundle.prompts).labels
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((3 * len(categories), 10)).astype(np.float32)
        labels = categories * 3
        ensemble = tmp_path / "ensemble.ubem"
        write_ubem(ensemble, EmbeddingMatrix(vectors, labels))
        report = tmp_path / "report.json"
        code = main([
            "eval", "zeroshot",
            "--centers", str(centers_file),
            "--queries", str(bundle.visual["mod1"]),
            "--labels", str(bundle.labels),
            "--mode", "prompt_mean",
            "--prompts", str(ensemble),
            "--report", str(report),
        ])
        assert code == 0
        queries = read_ubem(bundle.visual["mod1"])
        truth = categories_for(queries.ids, load_labels(bundle.labels))
        blocks = {c: vectors[[i for i, l in enumerate(labels) if l == c]] for c in categories}
        expected = evaluate_classification(queries, truth, blocks, ScoringMode.PROMPT_MEAN)
        assert report.read_text() == fixed_json(expected.to_report())

    def test_retrieval_with_label_relevance(self, bundle, tmp_path):
        report = tmp_path / "retrieval.json"
        code = main([
            "eval", "retrieval",
            "--queries", str(bundle.visual["mod0"]),
            "--gallery", str(bundle.visual["mod1"]),
            "--labels", str(bundle.labels),
            "--ks", "1,5,10",
            "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert list(payload["recall_at"]) == ["1", "5", "10"]

    def test_retrieval_with_explicit_relevance(self, bundle, tmp_path):
        queries = read_ubem(bundle.visual["mod0"])
        lines = [
            json.dumps({"query_id": qid, "relevant": [qid]})
            for qid in queries.labels
        ]
        relevance = tmp_path / "relevance.jsonl"
        relevance.write_text("\n".join(lines) + "\n")
        report = tmp_path / "retrieval.json"
        code = main([
            "eval", "retrieval",
            "--queries", str(bundle.visual["mod0"]),
            "--gallery", str(bundle.visual["mod0"]),
            "--relevance", str(relevance),
            "--ks", "1",
            "--report", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["recall_at"]["1"] == 1.0

    def test_retrieval_needs_relevance_source(self, bundle, tmp_path):
        code = main([
            "eval", "retrieval",
            "--queries", str(bundle.visual["mod0"]),
            "--gallery", str(bundle.visual["mod1"]),
            "--ks", "1",
            "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2


class TestPipelineAndDiagnostics:
    def test_pipeline_run(self, bundle, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "pipeline", "run",
            "--config", str(bundle.pipeline_config),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "reports/summary.json").is_file()
        assert "modality gap" in capsys.readouterr().out

    def test_diagnostics(self, bundle, tmp_path):
        report = tmp_path / "diag.json"
        code = main([
            "diagnostics",
            "--embeddings", f"mod0={bundle.visual['mod0']}",
            "--embeddings", f"mod1={bundle.visual['mod1']}",
            "--labels", str(bundle.labels),
            "--report", str(report),
        ])
        assert code == 0
        payload = json.loads(report.read_text())
        assert "modality_gap" in payload

    def test_synth_generate(self, tmp_path):
        out = tmp_path / "bundle"
        code = main([
            "synth", "generate", "--out", str(out),
            "--categories", "3", "--modalities", "2", "--samples", "4",
            "--dim", "8", "--descriptions-per-class", "5", "--seed", "1",
        ])
        assert code == 0
        assert (out / "records.jsonl").is_file()
        assert (out / "pipeline_config.json").is_file()


@pytest.mark.parametrize(
    "flag, value, field",
    [("--noise-sigma", "nan", "noise_sigma"), ("--class-separation", "inf", "class_separation"),
     ("--modality-offset", "Infinity", "modality_offset")],
)
def test_synth_generate_non_finite_magnitude_exits_2_naming_the_field(
    tmp_path, capsys, flag, value, field
):
    out = tmp_path / "bundle"
    assert main(["synth", "generate", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {field} must be a finite number >= 0, got {float(value)}\n"
    assert not out.exists()


def test_synth_generate_without_flags_writes_the_default_spec(tmp_path):
    # The flags state no defaults of their own, so SyntheticSpec's hold.
    assert main(["synth", "generate", "--out", str(tmp_path / "cli")]) == 0
    generate_synthetic(SyntheticSpec(), tmp_path / "lib")
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "lib").iterdir())
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def run_cli(*args):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "modalign.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x imports numpy.random with numpy"
)
def test_pipeline_run_never_imports_numpy_random(tmp_path):
    # The bundle is drawn with numpy.random in a process of its own; the
    # pipeline's process must not load it (nor `secrets`, which it brings).
    proc = run_cli(
        "synth", "generate", "--out", tmp_path / "bundle", "--categories", "3",
        "--samples", "4", "--dim", "8", "--descriptions-per-class", "6",
    )
    assert proc.returncode == 0, proc.stderr
    script = (
        "import sys\n"
        "from modalign.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "pipeline", "run",
         "--config", str(tmp_path / "bundle" / "pipeline_config.json"),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "run" / "manifest.json").is_file()


@pytest.mark.parametrize(
    "key, edit",
    [
        ("epoch", lambda c: c["train"].update(epoch=3)),
        ("epochs", lambda c: c["train"].update(epochs="3")),
        ("records", lambda c: c.pop("records")),
        ("pairs", lambda c: c["modalities"]["mod0"].pop("pairs")),
        ("dump_projections", lambda c: c.update(dump_projections=True)),
        ("dump_projection", lambda c: c.update(dump_projection="false")),
        ("k", lambda c: c.update(k=True)),
        ("retrieval_ks", lambda c: c.update(retrieval_ks="15")),
        ("visuals", lambda c: c["modalities"]["mod1"].update(visuals="mod1.ubem")),
        ("modalities", lambda c: c["modalities"].pop("mod1")),
        ("batch_size", lambda c: c["train"].update(batch_size=1)),
    ],
    ids=[
        "unknown-train-key", "string-epochs", "no-records", "modality-without-pairs",
        "unknown-top-level-key", "string-dump-projection", "boolean-k", "string-retrieval-ks",
        "unknown-modality-key", "one-modality", "batch-size-below-range",
    ],
)
def test_bad_pipeline_config_exits_2_naming_file_and_key(bundle, tmp_path, key, edit):
    config = json.loads(bundle.pipeline_config.read_text())
    edit(config)
    path = bundle.root / f"bad_{key}.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr
    assert repr(key) in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("literal", ["Infinity", "1e400"])  # Python's json reads both as inf
def test_non_finite_temperature_exits_2_naming_file_and_key(bundle, tmp_path, literal):
    config = json.loads(bundle.pipeline_config.read_text())
    config["train"]["temperature"] = "TEMPERATURE"
    path = bundle.root / f"temperature_{literal}.json"
    path.write_text(json.dumps(config).replace('"TEMPERATURE"', literal))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr
    assert "'temperature'" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_train_config_with_infinite_temperature_exits_2_naming_file_and_key(
    bundle, kb_dir, tmp_path
):
    config = tmp_path / "train.json"
    config.write_text('{"temperature": Infinity, "epochs": 1}')
    out = tmp_path / "mod0.adapter"
    proc = run_cli(
        "train", "--kb", kb_dir, "--pairs", bundle.pairs["mod0"], "--visual",
        bundle.visual["mod0"], "--modality", "mod0", "--config", config, "--out", out,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(config) in proc.stderr
    assert "'temperature'" in proc.stderr
    assert not out.exists()


def test_header_claiming_rows_of_dim_0_exits_2_naming_the_file(bundle, tmp_path, capsys):
    # 2^40 rows of dim 0 fit in 0 payload bytes; their row ids would not.
    path = tmp_path / "dim0.ubem"
    path.write_bytes(MAGIC + struct.pack("<HHIQ", 1, 0, 0, 1 << 40) + b"\x00")
    code = main([
        "eval", "retrieval", "--queries", str(path), "--gallery", str(bundle.visual["mod1"]),
        "--labels", str(bundle.labels), "--report", str(tmp_path / "report.json"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}: UBEM header claims {1 << 40} rows of dim 0\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "fault",
    ["count", "duplicate", "malformed-last-line", "dim", "zero-last-row", "label-not-utf8"],
)
def test_failed_kb_build_stage_leaves_no_kb_file(bundle, tmp_path, fault):
    # The records stream into the temp file of kb/records.jsonl as they are
    # parsed, and the normalized rows into that of kb/embeddings.ubem as
    # they are checked, so a fault in the last block of rows, or in the
    # label block after them, meets both temp files written. A kb-build
    # stage that fails at any check, the dim check after `build` included,
    # leaves neither kb file, nor a temp file.
    lines = bundle.records.read_text(encoding="utf-8").splitlines(keepends=True)
    embeddings = read_ubem(bundle.kb_embeddings)
    vectors = embeddings.vectors
    if fault == "count":
        lines = lines[:-1]
        problem = f"EMBEDDINGS: {len(lines)} records but {len(lines) + 1} embedding rows"
    elif fault == "duplicate":
        lines[2] = lines[1]
        record_id = json.loads(lines[1])["id"]
        problem = f"RECORDS: line 3: record id {record_id!r} appears more than once"
    elif fault == "malformed-last-line":
        lines[-1] = lines[-1][:-3] + "\n"  # cut inside the closing string
        problem = f"RECORDS: line {len(lines)}: invalid JSON"
    elif fault == "dim":
        vectors = np.hstack([vectors, vectors[:, :1]])
        problem = f"KB dim {vectors.shape[1]} != prompt dim {vectors.shape[1] - 1}"
    elif fault == "zero-last-row":
        vectors[-1] = 0.0
        problem = f"EMBEDDINGS: embedding row {len(vectors) - 1} has norm 0.000e+00"
    else:
        problem = (
            f"EMBEDDINGS: label of row {len(vectors) - 1}: "
            "invalid UTF-8 (byte 0xff at offset 0: invalid start byte)"
        )
    records = tmp_path / "records.jsonl"
    records.write_text("".join(lines), encoding="utf-8")
    matrix = tmp_path / "kb.ubem"
    write_ubem(matrix, EmbeddingMatrix(vectors, embeddings.labels))
    if fault == "label-not-utf8":  # the last label's first byte
        raw = bytearray(matrix.read_bytes())
        raw[-len(embeddings.labels[-1].encode())] = 0xFF
        matrix.write_bytes(bytes(raw))
    config = json.loads(bundle.pipeline_config.read_text())
    config.update(records=str(records), embeddings=str(matrix))
    path = bundle.root / f"kb_fault_{fault}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    proc = run_cli("pipeline", "run", "--config", path, "--out", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    problem = problem.replace("RECORDS", str(records)).replace("EMBEDDINGS", str(matrix))
    assert f"stage 'kb-build': {problem}" in proc.stderr
    assert not (out / "kb" / "records.jsonl").exists()
    assert not (out / "kb" / "embeddings.ubem").exists()
    assert not list(out.glob("kb/.records.jsonl.*"))
    assert not list(out.glob("kb/.embeddings.ubem.*"))
    assert not out.exists()  # nor any directory made for them


@pytest.mark.parametrize(
    "drop, problem",
    [
        ({"cat000"}, "no prompt for categories ['cat000'] that label rows of modality 'mod0'"),
        ({"cat000", "cat001", "cat002", "cat003"}, "prompt matrix has no rows"),
    ],
    ids=["category-without-prompt", "no-prompt-rows"],
)
def test_prompts_not_covering_the_labels_exit_2_before_writing(bundle, tmp_path, drop, problem):
    prompts = read_ubem(bundle.prompts)
    keep = [i for i, label in enumerate(prompts.labels) if label not in drop]
    edited = tmp_path / "prompts.ubem"
    write_ubem(edited, EmbeddingMatrix(prompts.vectors[keep], [prompts.labels[i] for i in keep]))
    config = json.loads(bundle.pipeline_config.read_text())
    config["prompts"] = str(edited)
    path = bundle.root / f"prompts_without_{len(drop)}.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"stage 'validate': {edited}: {problem}" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_diverging_training_exits_2_naming_epoch_and_batch(bundle, tmp_path):
    # A learning rate near the float64 maximum overflows the weights after
    # one SGD step, so a later batch's loss is NaN.
    config = json.loads(bundle.pipeline_config.read_text())
    config["train"].update(learning_rate=1e308, optimizer="sgd", epochs=5)
    path = bundle.root / "diverge.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert re.search(
        r"stage 'train:mod0': training of adapter 'mod0' diverged: "
        r"loss is nan at epoch \d+, batch \d+",
        proc.stderr,
    )
    assert not (tmp_path / "run" / "adapters").exists()


def test_weight_overflow_exits_2_as_divergence(bundle, tmp_path):
    # At this learning rate the weights stay finite after one SGD step but
    # the adapted rows' norms overflow to Inf.
    config = json.loads(bundle.pipeline_config.read_text())
    config["train"].update(learning_rate=1e300, optimizer="sgd", epochs=5)
    path = bundle.root / "overflow.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "diverged" in proc.stderr and "epoch" in proc.stderr


def test_unknown_pair_sample_exits_2_before_any_adapter(bundle, tmp_path):
    # The unknown sample is in the last modality's pairs, so no adapter may
    # be trained and written before the pairs stage refuses it.
    lines = bundle.pairs["mod1"].read_text().splitlines()
    lines[3] = json.dumps(dict(json.loads(lines[3]), sample_id="ghost-sample"))
    pairs = tmp_path / "mod1_pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n")
    config = json.loads(bundle.pipeline_config.read_text())
    config["modalities"]["mod1"]["pairs"] = str(pairs)
    path = bundle.root / "ghost_pairs.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "stage 'pairs': no paired description for sample 'ghost-sample'" in proc.stderr
    assert not (tmp_path / "run" / "adapters").exists()


@pytest.mark.parametrize("value", [3.7, "2", True, None], ids=["float", "string", "true", "null"])
def test_non_integer_visual_row_exits_2_naming_line(bundle, tmp_path, value):
    lines = bundle.pairs["mod0"].read_text().splitlines()
    bad = json.loads(lines[1])
    bad["visual_row"] = value
    lines[1] = json.dumps(bad)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n")
    config = json.loads(bundle.pipeline_config.read_text())
    config["modalities"]["mod0"]["pairs"] = str(pairs)
    path = bundle.root / f"visual_row_{type(value).__name__}.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{pairs}: line 2: 'visual_row' must be an integer, got {value!r}" in proc.stderr


@pytest.mark.parametrize(
    "which, line_number, key, value",
    [("labels", 3, "id", None), ("mod1", 2, "sample_id", 7)],
    ids=["labels-null-id", "mod1-pairs-integer-sample-id"],
)
def test_bad_jsonl_line_in_pipeline_run_names_its_own_file(
    bundle, tmp_path, which, line_number, key, value
):
    source = bundle.labels if which == "labels" else bundle.pairs[which]
    lines = source.read_text().splitlines()
    bad = json.loads(lines[line_number - 1])
    bad[key] = value
    lines[line_number - 1] = json.dumps(bad)
    edited = tmp_path / source.name
    edited.write_text("\n".join(lines) + "\n")
    config = json.loads(bundle.pipeline_config.read_text())
    if which == "labels":
        config["labels"] = str(edited)
    else:
        config["modalities"][which]["pairs"] = str(edited)
    path = bundle.root / f"bad_{which}_line.json"
    path.write_text(json.dumps(config))
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{edited}: line {line_number}: {key!r} must be a string, got {value!r}" in proc.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda lines: lines.append(dict(lines[0], relevant=[lines[1]["query_id"]])),
         "duplicate query_id"),
        (lambda lines: lines[1].update(relevant="abc"), "'relevant' must be a list of strings"),
        (lambda lines: lines[1].update(query_id=None), "'query_id' must be a string"),
        (lambda lines: lines[1].pop("relevant"), "missing key 'relevant'"),
    ],
    ids=["repeated-query-id", "string-relevant", "null-query-id", "no-relevant"],
)
def test_bad_relevance_line_exits_2_naming_file_and_line(bundle, tmp_path, edit, problem):
    ids = read_ubem(bundle.visual["mod0"]).labels
    lines = [{"query_id": qid, "relevant": [qid]} for qid in ids]
    edit(lines)
    relevance = tmp_path / "relevance.jsonl"
    relevance.write_text("".join(json.dumps(line) + "\n" for line in lines))
    line_number = len(ids) + 1 if problem == "duplicate query_id" else 2
    proc = run_cli(
        "eval", "retrieval", "--queries", bundle.visual["mod0"],
        "--gallery", bundle.visual["mod0"], "--relevance", relevance,
        "--ks", "1", "--report", tmp_path / "r.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{relevance}: line {line_number}: {problem}" in proc.stderr
    assert not (tmp_path / "r.json").exists()


def run_train(bundle, kb_dir, config, out):
    return run_cli(
        "train", "--kb", kb_dir, "--pairs", bundle.pairs["mod0"],
        "--visual", bundle.visual["mod0"], "--modality", "mod0",
        "--config", config, "--out", out,
    )


def test_train_key_value_config_exits_2_naming_file(bundle, kb_dir, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 3\nbatch_size = 8\n")
    proc = run_train(bundle, kb_dir, config, tmp_path / "mod0.adapter")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(config) in proc.stderr
    assert not (tmp_path / "mod0.adapter").exists()


def test_train_config_unknown_key_exits_2_naming_file_and_key(bundle, kb_dir, tmp_path):
    config = tmp_path / "train.json"
    config.write_text('{"epochs": 3, "momentum": 0.9}')
    proc = run_train(bundle, kb_dir, config, tmp_path / "mod0.adapter")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(config) in proc.stderr and "'momentum'" in proc.stderr


def test_truncated_pipeline_config_exits_2_naming_file(bundle, tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text(bundle.pipeline_config.read_text()[:40])
    proc = run_cli("pipeline", "run", "--config", path, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr


def test_center_set_whose_first_line_never_ends_exits_2_unread(bundle, tmp_path, capsys):
    path = tmp_path / "endless.cset"
    size = 32 << 20
    path.write_bytes(b"{" + b"x" * (size - 1))
    tracemalloc.start()
    try:
        code = main([
            "eval", "zeroshot", "--centers", str(path), "--queries", str(bundle.visual["mod0"]),
            "--labels", str(bundle.labels), "--report", str(tmp_path / "r.json"),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: center-set header line longer than {HEADER_LIMIT} bytes\n"
    )
    assert peak < size // 3


@pytest.mark.parametrize(
    "key, edit",
    [
        ("k", lambda h: h.pop("k")),
        ("member_rows", lambda h: h["categories"][1].pop("member_rows")),
    ],
    ids=["no-k", "category-without-member-rows"],
)
def test_center_set_header_missing_key_exits_2(bundle, centers_file, tmp_path, key, edit):
    header_line, blobs = centers_file.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header)
    path = tmp_path / "bad.cset"
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    proc = run_cli(
        "eval", "zeroshot", "--centers", path, "--queries", bundle.visual["mod0"],
        "--labels", bundle.labels, "--report", tmp_path / "r.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr
    assert repr(key) in proc.stderr


@pytest.mark.parametrize(
    "key, edit",
    [
        ("category", lambda e: e.update(category=5)),
        ("member_rows", lambda e: e.update(member_rows="abcde")),
        ("member_rows", lambda e: e.update(member_rows=[float(r) for r in e["member_rows"]])),
        ("member_scores", lambda e: e["member_scores"].pop()),
        ("k_requested", lambda e: e.update(k_requested="10")),
    ],
    ids=["integer-category", "string-rows", "float-rows", "short-scores", "string-k-requested"],
)
def test_center_set_bad_category_entry_exits_2(bundle, centers_file, tmp_path, key, edit):
    header_line, blobs = centers_file.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    edit(header["categories"][1])
    path = tmp_path / "bad.cset"
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    proc = run_cli(
        "eval", "zeroshot", "--centers", path, "--queries", bundle.visual["mod0"],
        "--labels", bundle.labels, "--report", tmp_path / "r.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{path}: center-set category 1: {key!r}" in proc.stderr


def _narrowed_prompts(header, blobs):
    """The center-set file's bytes with its prompt blob cut to 3 columns."""
    stream = io.BytesIO(blobs)
    members = read_ubem_stream(stream)
    prompts = read_ubem_stream(stream)
    out = io.BytesIO()
    write_ubem_stream(out, members)
    write_ubem_stream(out, EmbeddingMatrix(prompts.vectors[:, :3], prompts.labels))
    return header, out.getvalue()


@pytest.mark.parametrize(
    "edit, problem",
    [
        (
            lambda h, b: ({**h, "dim": 999}, b),
            "center-set blobs of dim 10 and 10, not the header's dim 999",
        ),
        (
            lambda h, b: ({k: v for k, v in h.items() if k != "dim"}, b),
            "center-set header: missing key 'dim'",
        ),
        (_narrowed_prompts, "center-set blobs of dim 10 and 3, not the header's dim 10"),
    ],
    ids=["header-999", "header-without-dim", "narrow-prompt-blob"],
)
@pytest.mark.parametrize("mode", ["center_max", "prompt_mean"])
def test_center_set_dim_must_match_both_blobs(
    bundle, centers_file, tmp_path, capsys, edit, problem, mode
):
    header_line, blobs = centers_file.read_bytes().split(b"\n", 1)
    header, blobs = edit(json.loads(header_line), blobs)
    path = tmp_path / "bad.cset"
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    report = tmp_path / "r.json"
    code = main([
        "eval", "zeroshot", "--centers", str(path), "--queries", str(bundle.visual["mod0"]),
        "--labels", str(bundle.labels), "--mode", mode, "--report", str(report),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"
    assert not report.exists()


def _train_on_pairs(bundle, kb_dir, tmp_path, capsys, edit):
    """In-process `modalign train` on mod0's pairs file with line 2 edited."""
    lines = bundle.pairs["mod0"].read_text().splitlines()
    pair = json.loads(lines[1])
    edit(pair)
    lines[1] = json.dumps(pair)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n")
    out = tmp_path / "mod0.adapter"
    capsys.readouterr()
    code = main([
        "train", "--kb", str(kb_dir), "--pairs", str(pairs), "--visual",
        str(bundle.visual["mod0"]), "--modality", "mod0", "--out", str(out),
    ])
    assert not out.exists()
    return code, capsys.readouterr().err, pairs, pair["sample_id"]


def test_negative_visual_row_exits_2_naming_file_and_line(bundle, kb_dir, tmp_path, capsys):
    code, err, pairs, _ = _train_on_pairs(
        bundle, kb_dir, tmp_path, capsys, lambda p: p.update(visual_row=-1)
    )
    assert code == 2
    assert err == f"error: {pairs}: line 2: 'visual_row' must be >= 0, got -1\n"


def test_visual_row_past_the_end_exits_2_naming_file_and_sample(bundle, kb_dir, tmp_path, capsys):
    rows = read_ubem(bundle.visual["mod0"]).rows
    code, err, pairs, sample = _train_on_pairs(
        bundle, kb_dir, tmp_path, capsys, lambda p: p.update(visual_row=rows)
    )
    assert code == 2
    assert err == (
        f"error: pair row {rows} of sample {sample!r} in {pairs} "
        f"out of range for {rows} visual rows\n"
    )


def test_unknown_sample_exits_2_naming_file_and_sample(bundle, kb_dir, tmp_path, capsys):
    code, err, pairs, _ = _train_on_pairs(
        bundle, kb_dir, tmp_path, capsys, lambda p: p.update(sample_id="ghost-sample")
    )
    assert code == 2
    assert err == f"error: no paired description for sample 'ghost-sample' in {pairs}\n"


def test_oversized_ubem_header_exits_2(bundle, tmp_path):
    # 2^40 rows x 2^20 dims: the payload size alone must refuse the file.
    path = tmp_path / "huge.ubem"
    path.write_bytes(b"UBEM" + struct.pack("<HHIQ", 1, 0, 1 << 20, 1 << 40) + b"\x00" * 64)
    proc = run_cli(
        "eval", "retrieval", "--queries", path, "--gallery", path,
        "--labels", bundle.labels, "--report", tmp_path / "r.json",
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "truncated UBEM payload" in proc.stderr


def _truncated(source, out):
    """A copy of `source` cut in the middle of its first UBEM payload."""
    raw = source.read_bytes()
    out.write_bytes(raw[: raw.index(b"UBEM") + 40])
    return out


@pytest.mark.parametrize("kind", ["prompts-ubem", "cset-blob"])
def test_truncated_ubem_blob_exits_2_naming_file(bundle, kb_dir, centers_file, tmp_path, kind):
    out = tmp_path / "out"
    if kind == "prompts-ubem":
        path = _truncated(bundle.prompts, tmp_path / "prompts.ubem")
        argv = ["centers", "localize", "--kb", kb_dir, "--prompts", path, "--k", 3, "--out", out]
    else:
        path = _truncated(centers_file, tmp_path / "centers.cset")
        argv = [
            "eval", "zeroshot", "--centers", path, "--queries", bundle.visual["mod0"],
            "--labels", bundle.labels, "--report", out,
        ]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {path}: truncated UBEM payload" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "defect, verb",
    [
        ("unlabeled", "localize"),
        ("unlabeled", "sweep"),
        ("unlabeled", "zeroshot"),
        ("unlabeled", "pipeline"),
        ("duplicate", "localize"),
        ("duplicate", "sweep"),
        ("duplicate", "pipeline"),
        ("nan", "zeroshot-queries"),
        ("nan", "kb-build"),
    ],
)
def test_bad_prompt_or_query_matrix_exits_2_naming_file(
    bundle, kb_dir, centers_file, tmp_path, defect, verb
):
    prompts = read_ubem(bundle.prompts)
    path = tmp_path / "bad.ubem"
    if defect == "nan":
        source = bundle.kb_embeddings if verb == "kb-build" else bundle.visual["mod0"]
        raw = bytearray(source.read_bytes())
        raw[20:24] = struct.pack("<f", float("nan"))  # the first payload float
        path.write_bytes(bytes(raw))
        message = "embedding matrix contains NaN or Inf"
    elif defect == "unlabeled":
        write_ubem(path, EmbeddingMatrix(prompts.vectors))
        message = "prompt matrix must carry category labels"
    else:
        write_ubem(path, EmbeddingMatrix(prompts.vectors, prompts.labels[:1] + prompts.labels[:-1]))
        message = f"duplicate prompt for category {prompts.labels[0]!r}"
    out = tmp_path / "out"
    zeroshot = [
        "eval", "zeroshot", "--centers", centers_file, "--labels", bundle.labels, "--report", out,
    ]
    if verb == "pipeline":
        config = json.loads(bundle.pipeline_config.read_text())
        config["prompts"] = str(path)
        config_path = bundle.root / f"prompts_{defect}.json"
        config_path.write_text(json.dumps(config))
        argv = ["pipeline", "run", "--config", config_path, "--out", out]
    elif verb == "zeroshot":
        argv = zeroshot + [
            "--queries", bundle.visual["mod0"], "--mode", "prompt_mean", "--prompts", path,
        ]
    elif verb == "zeroshot-queries":
        argv = zeroshot + ["--queries", path]
    elif verb == "kb-build":
        argv = ["kb", "build", "--records", bundle.records, "--embeddings", path, "--out", out]
    else:
        argv = ["centers", verb, "--kb", kb_dir, "--prompts", path, "--out", out]
        argv += ["--k", 3] if verb == "localize" else ["--ks", "1,3"]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{path}: {message}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("which", ["records", "labels", "pairs", "relevance", "config"])
def test_invalid_utf8_exits_2_naming_file_and_line(
    bundle, kb_dir, centers_file, tmp_path, which
):
    visual = bundle.visual["mod0"]
    if which == "relevance":
        source = tmp_path / "source.jsonl"
        source.write_text(
            "".join(json.dumps({"query_id": q, "relevant": [q]}) + "\n"
                    for q in read_ubem(visual).labels)
        )
    else:
        source = {
            "records": bundle.records, "labels": bundle.labels,
            "pairs": bundle.pairs["mod0"], "config": bundle.pipeline_config,
        }[which]
    lines = source.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"', b'"\xff', 1)  # inside the line's first string
    path = tmp_path / f"bad_{source.name}"
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "out"
    argv = {
        "records": [
            "kb", "build", "--records", path, "--embeddings", bundle.kb_embeddings, "--out",
        ],
        "labels": [
            "eval", "zeroshot", "--centers", centers_file, "--queries", visual,
            "--labels", path, "--report",
        ],
        "pairs": [
            "train", "--kb", kb_dir, "--pairs", path, "--visual", visual,
            "--modality", "mod0", "--out",
        ],
        "relevance": [
            "eval", "retrieval", "--queries", visual, "--gallery", visual,
            "--relevance", path, "--ks", "1", "--report",
        ],
        "config": ["pipeline", "run", "--config", path, "--out"],
    }[which]
    proc = run_cli(*argv, out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if which == "config":
        assert f"error: {path}: invalid JSON" in proc.stderr
    else:
        assert f"error: {path}: line 2: invalid UTF-8 (byte 0xff" in proc.stderr
    assert not out.exists()


def test_label_that_is_not_utf8_exits_2_naming_file_and_row(bundle, kb_dir, tmp_path):
    prompts = read_ubem(bundle.prompts)
    path = tmp_path / "badlabel.ubem"
    write_ubem(path, EmbeddingMatrix(prompts.vectors, prompts.labels[:-1] + ["\u00ff"]))
    raw = path.read_bytes()
    assert raw.endswith(b"\xc3\xbf")
    path.write_bytes(raw[:-2] + b"\xff\xbf")  # U+00FF's lead byte replaced
    out = tmp_path / "centers.cset"
    proc = run_cli("centers", "localize", "--kb", kb_dir, "--prompts", path, "--k", 3, "--out", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    row = prompts.rows - 1
    assert proc.stderr == (
        f"error: {path}: label of row {row}: "
        "invalid UTF-8 (byte 0xff at offset 0: invalid start byte)\n"
    )
    assert not out.exists()


def test_label_length_past_the_end_exits_2_naming_file_and_row(bundle, kb_dir, tmp_path):
    prompts = read_ubem(bundle.prompts)
    path = tmp_path / "longlabel.ubem"
    write_ubem(path, prompts)
    raw = bytearray(path.read_bytes())
    first_length = 20 + prompts.vectors.nbytes + 1
    raw[first_length : first_length + 4] = struct.pack("<I", 0xFFFFFFF0)
    path.write_bytes(bytes(raw))
    left = len(raw) - first_length - 4
    out = tmp_path / "centers.cset"
    proc = run_cli("centers", "localize", "--kb", kb_dir, "--prompts", path, "--k", 3, "--out", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {path}: label of row 0: length 4294967280 but {left} bytes left\n"
    )
    assert not out.exists()


def test_kb_label_that_is_not_utf8_exits_2_naming_file_and_row(bundle, tmp_path):
    # The knowledge base drops its UBEM's labels, but still checks each one.
    embeddings = read_ubem(bundle.kb_embeddings)
    path = tmp_path / "embeddings.ubem"
    write_ubem(path, EmbeddingMatrix(embeddings.vectors, embeddings.labels[:-1] + ["ÿ"]))
    raw = path.read_bytes()
    path.write_bytes(raw[:-2] + b"\xff\xbf")  # U+00FF's lead byte replaced
    out = tmp_path / "kb"
    proc = run_cli("kb", "build", "--records", bundle.records, "--embeddings", path, "--out", out)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {path}: label of row {embeddings.rows - 1}: "
        "invalid UTF-8 (byte 0xff at offset 0: invalid start byte)\n"
    )
    assert not out.exists()


def test_duplicate_record_id_exits_2_naming_file_and_line(bundle, tmp_path):
    lines = bundle.records.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "records.jsonl"
    # Line 4 becomes a blank line and a copy of line 2: still one record per row.
    path.write_text("".join(lines[:3] + ["\n", lines[1]] + lines[4:]), encoding="utf-8")
    record_id = json.loads(lines[1])["id"]
    out = tmp_path / "kb"
    proc = run_cli(
        "kb", "build", "--records", path, "--embeddings", bundle.kb_embeddings, "--out", out
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {path}: line 5: record id {record_id!r} appears more than once\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("verb", ["zeroshot", "retrieval"])
def test_zero_row_queries_exit_2_naming_the_file(bundle, centers_file, tmp_path, verb):
    queries = tmp_path / "empty.ubem"
    write_ubem(queries, EmbeddingMatrix(np.empty((0, 10), np.float32), []))
    assert read_ubem(queries).rows == 0
    report = tmp_path / "report.json"
    if verb == "zeroshot":
        extra = ["--centers", centers_file, "--mode", "center_max"]
    else:
        extra = ["--gallery", bundle.visual["mod1"]]
    proc = run_cli(
        "eval", verb, "--queries", queries, "--labels", bundle.labels, *extra,
        "--report", report,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {queries}: query matrix has no rows\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "case, problem",
    [
        ("dims", "modality 'mod1' has dim 6, modality 'mod0' has dim 10"),
        ("repeated", "--embeddings names modality 'mod0' more than once"),
        ("zero-row", "modality 'mod1': row 3 has norm 0.000e+00"),
        ("no-rows", "modality 'mod0' has no rows"),
    ],
    ids=["dims", "repeated", "zero-row", "no-rows"],
)
def test_bad_diagnostics_inputs_exit_2_naming_the_modality(bundle, tmp_path, case, problem):
    source = read_ubem(bundle.visual["mod1"])
    vectors, labels = source.vectors.copy(), source.labels
    if case == "dims":
        vectors = vectors[:, :6]
    elif case == "zero-row":
        vectors[3] = 0.0
    elif case == "no-rows":
        vectors, labels = vectors[:0], []
    second = tmp_path / "second.ubem"
    write_ubem(second, EmbeddingMatrix(vectors, labels))
    first = second if case == "no-rows" else bundle.visual["mod0"]
    name = "mod0" if case == "repeated" else "mod1"
    report = tmp_path / "diag.json"
    proc = run_cli(
        "diagnostics", "--embeddings", f"mod0={first}",
        "--embeddings", f"{name}={second}", "--labels", bundle.labels, "--report", report,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {problem}\n"
    assert not report.exists()


def test_localize_template_without_placeholder_exits_2(bundle, kb_dir, tmp_path):
    out = tmp_path / "centers.cset"
    proc = run_cli(
        "centers", "localize", "--kb", kb_dir, "--prompts", bundle.prompts,
        "--template", "no placeholder", "--out", out,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "basic template must contain exactly one '[Category]' placeholder" in proc.stderr
    assert not out.exists()


def test_zeroshot_center_max_rejects_prompts(bundle, centers_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "eval", "zeroshot",
        "--centers", str(centers_file),
        "--queries", str(bundle.visual["mod0"]),
        "--labels", str(bundle.labels),
        "--mode", "center_max",
        "--prompts", str(bundle.prompts),
        "--report", str(report),
    ])
    assert code == 2
    assert "--prompts" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "flag, value", [("--dim", 0), ("--dim-out", 0), ("--dim-out", -3), ("--batch", 1)]
)
def test_gradcheck_rejects_bad_sizes_naming_flag(capsys, flag, value):
    assert main(["gradcheck", flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be >=" in captured.err
    assert "gradcheck" not in captured.out


def test_truncated_adapter_blob_error_names_file(tmp_path):
    # No CLI verb reads an adapter, so the loader's message is checked here.
    source = tmp_path / "valid.adapter"
    save_adapter(source, default_adapter(6, 4, seed=0, modality="mod0"))
    path = _truncated(source, tmp_path / "mod0.adapter")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated UBEM payload"):
        load_adapter(path)


def test_pipeline_run_leaves_numpy_ma_unimported(bundle, tmp_path):
    # Importing numpy.ma adds about 1 MB of peak RSS, ten times the
    # benchmark's bound; nothing `pipeline run` calls may pull it in.
    program = (
        "import sys; from modalign.cli import main; "
        f"code = main(['pipeline', 'run', '--config', {str(bundle.pipeline_config)!r}, "
        f"'--out', {str(tmp_path / 'run')!r}]); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"



class TestExitCodes:
    def test_usage_error_exit_1(self):
        assert main(["kb", "build", "--records"]) == 1

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_no_command_exit_1(self):
        assert main([]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
