import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalign
from modalign.cli import main
from modalign.kb import KnowledgeRecord, Source, save_records
from modalign.synthetic import SyntheticSpec, generate_synthetic
from modalign.training import load_adapter
from modalign.ubem import read_ubem, write_ubem
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
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 3\nbatch_size = 8\nseed = 0\n")
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
    "key, edit",
    [
        ("epoch", lambda c: c["train"].update(epoch=3)),
        ("epochs", lambda c: c["train"].update(epochs="3")),
        ("records", lambda c: c.pop("records")),
        ("pairs", lambda c: c["modalities"]["mod0"].pop("pairs")),
    ],
    ids=["unknown-train-key", "string-epochs", "no-records", "modality-without-pairs"],
)
def test_bad_pipeline_config_exits_2_naming_file_and_key(bundle, tmp_path, key, edit):
    config = json.loads(bundle.pipeline_config.read_text())
    edit(config)
    path = bundle.root / f"bad_{key}.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(modalign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "modalign.cli", "pipeline", "run",
         "--config", str(path), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(path) in proc.stderr
    assert repr(key) in proc.stderr


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
