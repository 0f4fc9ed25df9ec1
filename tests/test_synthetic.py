import json

import numpy as np
import pytest

from modalign.diagnostics import alignment_diagnostics
from modalign.kb import build
from modalign.pipeline import load_labels, load_pairs_file
from modalign.serialize import sha256_file
from modalign.synthetic import (
    SyntheticSpec,
    class_directions,
    generate_synthetic,
    modality_offsets,
)
from modalign.ubem import read_ubem
from modalign.vectors import EmbeddingMatrix, normalize_rows


def bundle_diagnostics(bundle):
    labels = load_labels(bundle.labels)
    embeddings = {}
    categories = {}
    for name in bundle.modality_names:
        matrix = read_ubem(bundle.visual[name])
        embeddings[name] = EmbeddingMatrix(normalize_rows(matrix), matrix.labels)
        categories[name] = [labels[i] for i in matrix.labels]
    return alignment_diagnostics(embeddings, categories)


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            SyntheticSpec(categories=0)

    def test_magnitudes_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["class_separation", "modality_offset", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_magnitudes_must_be_finite_and_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number >= 0"):
            SyntheticSpec(**{field: value})


class TestBundleContents:
    def test_file_inventory_and_alignment(self, tmp_path):
        spec = SyntheticSpec(
            categories=3, modalities=2, samples_per_class=4, dim=8,
            descriptions_per_class=5, seed=0,
        )
        bundle = generate_synthetic(spec, tmp_path / "b")
        kb = build(bundle.records, bundle.kb_embeddings)
        # KB rows: 3*5 category descriptions + 2*3*4 paired descriptions
        assert kb.size == 15 + 24
        assert len(kb.pair_index) == 24
        assert sorted(kb.category_index) == ["cat000", "cat001", "cat002"]

        prompts = read_ubem(bundle.prompts)
        assert prompts.rows == 3
        assert prompts.labels == ["cat000", "cat001", "cat002"]

        labels = load_labels(bundle.labels)
        for name in bundle.modality_names:
            visual = read_ubem(bundle.visual[name])
            assert visual.rows == 12
            pairs = load_pairs_file(bundle.pairs[name])
            assert len(pairs) == 12
            for sid, row in pairs:
                assert visual.labels[row] == sid
                assert sid in kb.pair_index
                assert sid in labels

    def test_pipeline_config_is_valid_json(self, tmp_path):
        spec = SyntheticSpec(categories=2, samples_per_class=3, descriptions_per_class=4)
        bundle = generate_synthetic(spec, tmp_path / "b")
        config = json.loads(bundle.pipeline_config.read_text())
        assert set(config["modalities"]) == {"mod0", "mod1"}
        assert config["train"]["seed"] == spec.seed


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = SyntheticSpec(categories=3, samples_per_class=4, descriptions_per_class=6, seed=5)
        b1 = generate_synthetic(spec, tmp_path / "one")
        b2 = generate_synthetic(spec, tmp_path / "two")
        for name in ("records", "kb_embeddings", "prompts", "labels"):
            assert getattr(b1, name).read_bytes() == getattr(b2, name).read_bytes()
        for mod in b1.modality_names:
            assert b1.visual[mod].read_bytes() == b2.visual[mod].read_bytes()
            assert b1.pairs[mod].read_bytes() == b2.pairs[mod].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        spec_a = SyntheticSpec(categories=2, seed=1)
        spec_b = SyntheticSpec(categories=2, seed=2)
        b1 = generate_synthetic(spec_a, tmp_path / "one")
        b2 = generate_synthetic(spec_b, tmp_path / "two")
        assert b1.kb_embeddings.read_bytes() != b2.kb_embeddings.read_bytes()

    def test_adding_modality_preserves_earlier_draws(self, tmp_path):
        base = SyntheticSpec(categories=3, modalities=2, samples_per_class=4, seed=9)
        wider = SyntheticSpec(categories=3, modalities=3, samples_per_class=4, seed=9)
        b1 = generate_synthetic(base, tmp_path / "two_mods")
        b2 = generate_synthetic(wider, tmp_path / "three_mods")
        for mod in ("mod0", "mod1"):
            assert b1.visual[mod].read_bytes() == b2.visual[mod].read_bytes()
        assert b1.prompts.read_bytes() == b2.prompts.read_bytes()

    def test_class_directions_scale_with_separation(self):
        spec = SyntheticSpec(class_separation=2.5, seed=3)
        centers = class_directions(spec)
        assert np.allclose(np.linalg.norm(centers, axis=1), 2.5)

    def test_offsets_have_requested_norm(self):
        spec = SyntheticSpec(modalities=3, modality_offset=1.7, seed=4)
        offsets = modality_offsets(spec)
        assert np.allclose(np.linalg.norm(offsets, axis=1), 1.7)

    def test_zero_offset_gives_zero_vectors(self):
        spec = SyntheticSpec(modality_offset=0.0)
        assert not modality_offsets(spec).any()


class TestGapGeometry:
    def test_zero_offset_gap_near_zero(self, tmp_path):
        # with no injected modality bias the gap is pure sampling noise;
        # bounds frozen from measurement over these exact 10 seeds
        gaps = []
        for seed in range(10):
            spec = SyntheticSpec(
                categories=4, modalities=2, samples_per_class=10, dim=12,
                modality_offset=0.0, noise_sigma=0.4, descriptions_per_class=4,
                seed=seed,
            )
            bundle = generate_synthetic(spec, tmp_path / f"b{seed}")
            gaps.append(bundle_diagnostics(bundle).modality_gap)
        gaps = np.asarray(gaps)
        assert np.abs(gaps).max() < 0.05
        assert abs(gaps.mean()) < 0.02

    def test_large_offset_gives_positive_gap(self, tmp_path):
        spec = SyntheticSpec(
            categories=4, modalities=2, samples_per_class=10, dim=12,
            class_separation=0.5, modality_offset=3.0, noise_sigma=0.3,
            descriptions_per_class=4, seed=0,
        )
        bundle = generate_synthetic(spec, tmp_path / "b")
        assert bundle_diagnostics(bundle).modality_gap > 0.1


# Per-file SHA-256 of bundles the benchmark's pins (perfbench/pins.json, seed
# 0 of each workload) do not cover: other seeds, a third modality, zero
# offset and noise, one sample per class. Any change to a draw, its rounding,
# a file name or a line's bytes shows here.
PINNED_BUNDLES = {
    "seed1": (
        dict(categories=3, samples_per_class=4, dim=8, descriptions_per_class=5, seed=1),
        {
            "bundle.json": "7fd3fcce05e6e3bba6bf4a8896ad3a15fdada1fada62f8bfcab5a1b45d22b5a8",
            "kb_embeddings.ubem": "898f3f8f67a8cdaa62925ee6a936474f03508c806a4e3e86faaeb9704d900306",
            "labels.jsonl": "bcfbe13a4492688878b744b5f15f9195f8782ec6ad466e9224d9226754c8e7ff",
            "mod0.ubem": "596144c4c5d3775d0695b44331723e431bab68b052cbb4ce81dec5246382211f",
            "mod0_pairs.jsonl": "a0235822958c11819288740e5b5053ac2761146636ebedee19761523b21c2618",
            "mod1.ubem": "114a9d58d40541c5add82e0b7dab353ea28eb9e64882fc5f5f370cedf0f5023b",
            "mod1_pairs.jsonl": "ec1a5bd77488fbdea7739f4d5a8531ed2554206f852d7f0d5a03c992af8510c1",
            "pipeline_config.json": "46564fe051d650bef464a4a2b35efd9bb2ad85c73a8d38d6dd49dc1fe7878042",
            "prompts.ubem": "5157ccc5f5dd65d13883ff63b86103e29a9156cb836e5339534eff54c527f6ea",
            "records.jsonl": "f1482d0515449a465d82a41b4e941ed71ec042a9cd08d4d76fa8d86017123b91",
        },
    ),
    "seed2": (
        dict(categories=3, samples_per_class=4, dim=8, descriptions_per_class=5, seed=2),
        {
            "bundle.json": "86df57e3ef1178f9d2dd25dc4b551d49f1d0ce2194ce9403a4f8892059c03afb",
            "kb_embeddings.ubem": "6367f3618cb5e1982b10d4f52a808dc129c1560176de10383cb9e5f92c695a05",
            "labels.jsonl": "bcfbe13a4492688878b744b5f15f9195f8782ec6ad466e9224d9226754c8e7ff",
            "mod0.ubem": "662d7441e68e5e4f0275ec82de92eb78363a7c43b1f866585f40e03ee0f57086",
            "mod0_pairs.jsonl": "a0235822958c11819288740e5b5053ac2761146636ebedee19761523b21c2618",
            "mod1.ubem": "5c734f0638bf417be1c9e83319560deb98f72bbddbef75df92200b6484ebe593",
            "mod1_pairs.jsonl": "ec1a5bd77488fbdea7739f4d5a8531ed2554206f852d7f0d5a03c992af8510c1",
            "pipeline_config.json": "9a4a8667022b6f010e7c4e3cfb84d2f8a4f2467109039f7f6f3a33cb65e8cff1",
            "prompts.ubem": "b3d56951c5f7bccc5df21280f2966756775bb9aa75638db123d0cfdacf0a040b",
            "records.jsonl": "f1482d0515449a465d82a41b4e941ed71ec042a9cd08d4d76fa8d86017123b91",
        },
    ),
    "three-modalities-no-offset-no-noise": (
        dict(
            categories=3, modalities=3, samples_per_class=4, dim=8, descriptions_per_class=5,
            modality_offset=0.0, noise_sigma=0.0, seed=1,
        ),
        {
            "bundle.json": "a5917d700f4d164ca8f17ff507a5e8053ddd9c2bc5d69b87b70f188e3ce679fe",
            "kb_embeddings.ubem": "e5dfb0a3b9c960aa283752ef54e385c9dce2ea12e0f1c05f97e2b97c589be76a",
            "labels.jsonl": "fbb5db79ff737a592735a4cffb3339cee8d02ef61f8fcca40db388b269efb61a",
            "mod0.ubem": "29c4772cde97cad74d82182f91c8fc265b969b5826d431558c2a33b451279210",
            "mod0_pairs.jsonl": "a0235822958c11819288740e5b5053ac2761146636ebedee19761523b21c2618",
            "mod1.ubem": "df03156dd548ddd8bd30f27f0d75e65a37994181796bd7e8c6300433fe7b1f03",
            "mod1_pairs.jsonl": "ec1a5bd77488fbdea7739f4d5a8531ed2554206f852d7f0d5a03c992af8510c1",
            "mod2.ubem": "fd14ff55704b35fc78c3f7520b5dbb5328713e89fa619b76e0d1d66b2fdf427b",
            "mod2_pairs.jsonl": "0240f656563a472fdfa03de2ec0686ff68afcc47cd4a5e9744367a9ec197db6e",
            "pipeline_config.json": "736f2fd8e8985227b5a821588401a3e022d920bb5fcf91b1de3bcf4bbe389e9d",
            "prompts.ubem": "5157ccc5f5dd65d13883ff63b86103e29a9156cb836e5339534eff54c527f6ea",
            "records.jsonl": "a435632bd0ca87af12121582e50e9979f7d5939824daff4c27e1e5304a9a8ef6",
        },
    ),
    "one-sample-per-class": (
        dict(categories=4, samples_per_class=1, dim=8, descriptions_per_class=3, seed=2),
        {
            "bundle.json": "bd02f5d4c476c4047c775ac8f527530d3a2563436b7b4e67e97cc34a7e69b73d",
            "kb_embeddings.ubem": "f8424cb6b5f139e122ac0f9932076e2930ec2fcaa6de6f67be7d73748d644b06",
            "labels.jsonl": "f1e5210d667412e3a4b9ffd1e71cee8d0804e836671e51c3f0dd9c93ee2f8a88",
            "mod0.ubem": "e756973f7444347270f5804e9d1010d2adc201f97f6cfce13a9603555a5cb735",
            "mod0_pairs.jsonl": "9a8348b8eb6f62ff37eb7390fafc36244dc74e12df5cc259a110266260b46898",
            "mod1.ubem": "065f53f38b403a561a1b83d7c39600a369562190acd3631c500d159a16fb93ba",
            "mod1_pairs.jsonl": "a5c6e4c1f448e57bcc7c5b35b1ebf1e7c721a8daf3d4a2965d9413b79c7ac5b1",
            "pipeline_config.json": "515acaf5af368b4a166a95f679ecc8cede32de51aa91a20ba98574dcf9a37502",
            "prompts.ubem": "08d4b471cf92fa0e5206eed0d43a5551c5a3b8c5611c32d06f9b0f52f173d978",
            "records.jsonl": "8d4b2cbc617d5c9c0018911c8984066089df8765e02b76b0af7ae2e271a3967c",
        },
    ),
}


@pytest.mark.parametrize("case", PINNED_BUNDLES)
def test_bundle_bytes_match_their_pins(tmp_path, case):
    spec, pinned = PINNED_BUNDLES[case]
    bundle = generate_synthetic(SyntheticSpec(**spec), tmp_path / case)
    actual = {p.name: sha256_file(p) for p in sorted(bundle.root.iterdir())}
    assert actual == pinned
