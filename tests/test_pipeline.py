import json

import numpy as np
import pytest

from modalign.errors import MalformedRecord, StageError
from modalign.pipeline import (
    load_labels,
    load_pairs_file,
    load_pipeline_config,
    pca_2d,
    run_pipeline,
)
from modalign.synthetic import SyntheticSpec, generate_synthetic
from modalign.training import LinearAdapter, load_adapter


SPEC = SyntheticSpec(
    categories=5,
    modalities=2,
    samples_per_class=12,
    dim=16,
    class_separation=1.0,
    modality_offset=1.0,
    noise_sigma=0.2,
    descriptions_per_class=20,
    seed=7,
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    return generate_synthetic(SPEC, root)


@pytest.fixture(scope="module")
def run(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = load_pipeline_config(bundle.pipeline_config, out)
    return run_pipeline(config), out


class TestRunOutputs:
    def test_expected_artifacts_exist(self, run):
        result, out = run
        for name in (
            "manifest.json",
            "centers.cset",
            "kb/records.jsonl",
            "kb/embeddings.ubem",
            "adapters/mod0.adapter",
            "adapters/mod1.adapter",
            "reports/summary.json",
            "reports/diagnostics_pre.json",
            "reports/diagnostics_post.json",
            "reports/zeroshot_mod0_pre_center_max.json",
            "reports/zeroshot_mod1_post_prompt_mean.json",
            "reports/retrieval_mod0_to_mod1_pre.json",
            "reports/retrieval_mod1_to_mod0_post.json",
        ):
            assert (out / name).is_file(), name

    def test_training_improves_cross_modal_cosine(self, run):
        result, _ = run
        alignment = result.summary["alignment"]
        assert (
            alignment["post"]["intra_class_cross_modal_cosine"]
            > alignment["pre"]["intra_class_cross_modal_cosine"]
        )

    def test_adapter_files_load(self, run):
        _, out = run
        adapter = load_adapter(out / "adapters/mod0.adapter")
        assert adapter.modality == "mod0"
        assert (adapter.dim_in, adapter.dim_out) == (SPEC.dim, SPEC.dim)

    def test_manifest_hashes_inputs(self, run, bundle):
        _, out = run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "modalign"
        assert set(manifest["inputs"]) >= {"records", "embeddings", "prompts", "labels"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64
        assert "summary.json" in manifest["reports"]

    def test_reports_are_fixed_point(self, run):
        _, out = run
        text = (out / "reports/diagnostics_pre.json").read_text()
        payload = json.loads(text)
        assert set(payload) == {
            "intra_class_cross_modal_cosine",
            "intra_class_same_modal_cosine",
            "modality_gap",
        }
        for line in text.splitlines():
            if ":" in line and "." in line.split(":")[1]:
                value = line.split(":")[1].strip().rstrip(",")
                assert len(value.split(".")[1]) == 6


class TestDeterminism:
    def test_two_runs_byte_identical(self, bundle, tmp_path):
        config_a = load_pipeline_config(bundle.pipeline_config, tmp_path / "a")
        config_b = load_pipeline_config(bundle.pipeline_config, tmp_path / "b")
        run_pipeline(config_a)
        run_pipeline(config_b)
        report_names = sorted(
            p.relative_to(tmp_path / "a") for p in (tmp_path / "a" / "reports").glob("*.json")
        )
        assert report_names
        for rel in report_names:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in ("adapters/mod0.adapter", "adapters/mod1.adapter", "centers.cset"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestFailFast:
    def test_missing_file_fails_before_output(self, bundle, tmp_path):
        config_path = tmp_path / "broken.json"
        obj = json.loads(bundle.pipeline_config.read_text())
        obj["records"] = "does_not_exist.jsonl"
        config_path.write_text(json.dumps(obj))
        # paths resolve against the config file location
        out = tmp_path / "never_created"
        config = load_pipeline_config(config_path, out)
        # copy resolution base: records now points inside tmp_path
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "validate"
        assert not out.exists()

    def test_stage_annotation_in_message(self, bundle, tmp_path):
        obj = json.loads(bundle.pipeline_config.read_text())
        obj["prompts"] = "missing.ubem"
        config_path = tmp_path / "broken.json"
        config_path.write_text(json.dumps(obj))
        with pytest.raises(StageError, match="stage 'validate'"):
            run_pipeline(load_pipeline_config(config_path, tmp_path / "out"))


class TestProjectionDump:
    def test_projection_files_written(self, bundle, tmp_path):
        obj = json.loads(bundle.pipeline_config.read_text())
        obj["dump_projection"] = True
        config_path = bundle.root / "proj_config.json"
        config_path.write_text(json.dumps(obj))
        out = tmp_path / "run"
        run_pipeline(load_pipeline_config(config_path, out))
        coords = (out / "projections/mod0_pre.csv").read_text().strip().splitlines()
        assert len(coords) == SPEC.categories * SPEC.samples_per_class
        x, y = coords[0].split(",")
        float(x), float(y)  # two numeric columns

    def test_each_adapter_applied_once(self, bundle, tmp_path, monkeypatch):
        obj = json.loads(bundle.pipeline_config.read_text())
        obj["dump_projection"] = True
        config_path = bundle.root / "proj_config.json"
        config_path.write_text(json.dumps(obj))
        applied = []
        original = LinearAdapter.apply

        def counting_apply(self, visual):
            applied.append(self.modality)
            return original(self, visual)

        monkeypatch.setattr(LinearAdapter, "apply", counting_apply)
        run_pipeline(load_pipeline_config(config_path, tmp_path / "run"))
        assert sorted(applied) == ["mod0", "mod1"]

    def test_pca_shape_and_centering(self):
        rng = np.random.default_rng(0)
        coords = pca_2d(rng.standard_normal((40, 7)))
        assert coords.shape == (40, 2)
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-9)


class TestJsonlInputs:
    def test_repeated_label_id_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"id": "a", "category": "x"}\n\n{"id": "a", "category": "y"}\n'
        )
        with pytest.raises(MalformedRecord, match="line 3: duplicate id 'a'"):
            load_labels(path)

    def test_repeated_pair_sample_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            '{"sample_id": "s", "visual_row": 0}\n{"sample_id": "s", "visual_row": 1}\n'
        )
        with pytest.raises(MalformedRecord, match="line 2: duplicate sample_id 's'"):
            load_pairs_file(path)


class TestConfigParsing:
    def test_relative_paths_resolve_against_config(self, bundle, tmp_path):
        config = load_pipeline_config(bundle.pipeline_config, tmp_path / "x")
        assert config.records == bundle.records
        assert config.modalities["mod0"].visual == bundle.visual["mod0"]

    def test_out_dir_required(self, bundle):
        with pytest.raises(ValueError):
            load_pipeline_config(bundle.pipeline_config, None)

    def test_out_dir_from_config_body(self, bundle, tmp_path):
        obj = json.loads(bundle.pipeline_config.read_text())
        obj["out_dir"] = str(tmp_path / "from_config")
        path = tmp_path / "with_out.json"
        path.write_text(json.dumps(obj))
        # paths in obj are relative to the original bundle; rewrite them
        for key in ("records", "embeddings", "prompts", "labels"):
            obj[key] = str(getattr(bundle, key if key != "embeddings" else "kb_embeddings"))
        obj["modalities"] = {
            name: {"visual": str(bundle.visual[name]), "pairs": str(bundle.pairs[name])}
            for name in bundle.modality_names
        }
        path.write_text(json.dumps(obj))
        config = load_pipeline_config(path)
        assert config.out_dir == tmp_path / "from_config"
