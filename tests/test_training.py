import numpy as np
import pytest

from modalign.errors import (
    DegenerateBatch,
    DimensionMismatch,
    NonFiniteParameter,
    UnknownSample,
    ZeroVector,
)
from modalign.kb import KnowledgeRecord, Source, from_parts
from modalign.training import (
    LinearAdapter,
    OptimizerKind,
    TrainConfig,
    default_adapter,
    gradient_check_arrays,
    load_adapter,
    load_train_config,
    parse_train_config,
    resolve_pairs,
    save_adapter,
    train,
)
from modalign.vectors import EmbeddingMatrix, normalize_rows


def paired_kb(n, dim, seed=0, categories=2):
    """KB of n per-sample descriptions plus matching raw visual embeddings."""
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((categories, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    records = []
    text_vectors = []
    visual_vectors = []
    for i in range(n):
        c = i % categories
        records.append(
            KnowledgeRecord(f"sample_{i}", f"cat{c}", f"desc {i}", Source.MLLM_DATA)
        )
        text_vectors.append(anchors[c] + 0.2 * rng.standard_normal(dim))
        visual_vectors.append(anchors[c] + 0.2 * rng.standard_normal(dim) + 0.5)
    kb = from_parts(records, np.stack(text_vectors))
    visual = EmbeddingMatrix(np.stack(visual_vectors), [r.id for r in records])
    return kb, visual


def all_pairs(visual):
    """One (sample_id, visual_row) pair per row of a labeled matrix."""
    return [(sample_id, row) for row, sample_id in enumerate(visual.labels)]


class TestApply:
    def test_identity_adapter_preserves_unit_input(self):
        rng = np.random.default_rng(0)
        m = normalize_rows(rng.standard_normal((5, 6)))
        adapter = LinearAdapter(np.eye(6), np.zeros(6))
        out = adapter.apply(m)
        assert np.abs(out.vectors - m).max() < 1e-6

    def test_constant_map(self):
        adapter = LinearAdapter(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]))
        out = adapter.apply(np.random.default_rng(1).standard_normal((4, 3)))
        assert np.allclose(out.vectors, np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_matches_per_row_scalar_computation(self):
        rng = np.random.default_rng(2)
        adapter = LinearAdapter(rng.standard_normal((5, 7)), rng.standard_normal(5))
        batch = rng.standard_normal((10, 7))
        out = adapter.apply(batch)
        for i in range(10):
            mapped = adapter.weight @ batch[i] + adapter.bias
            mapped /= np.linalg.norm(mapped)
            assert np.abs(out.vectors[i] - mapped).max() <= 1e-6

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(3)
        adapter = LinearAdapter(rng.standard_normal((4, 4)), rng.standard_normal(4))
        out = adapter.apply(rng.standard_normal((6, 4)))
        assert np.abs(np.linalg.norm(out.vectors, axis=1) - 1.0).max() < 1e-6

    def test_collapsed_row_rejected(self):
        adapter = LinearAdapter(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ZeroVector):
            adapter.apply(np.ones((1, 2)))

    def test_dim_mismatch(self):
        adapter = LinearAdapter(np.eye(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            adapter.apply(np.ones((2, 4)))

    def test_labels_carried_through(self):
        adapter = LinearAdapter(np.eye(2), np.zeros(2))
        out = adapter.apply(EmbeddingMatrix(np.eye(2), ["p", "q"]))
        assert out.labels == ["p", "q"]


class TestTrain:
    def test_loss_improves_on_clustered_data(self):
        kb, visual = paired_kb(120, 12, seed=4, categories=10)
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(epochs=20, batch_size=16, seed=1)
        _, history = train(vectors, text_rows, kb, config)
        assert len(history) == 20
        assert history[-1] < history[0]

    def test_same_seed_bitwise_identical(self):
        kb, visual = paired_kb(60, 8, seed=5, categories=4)
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(epochs=5, batch_size=8, seed=7)
        a1, h1 = train(vectors, text_rows, kb, config)
        a2, h2 = train(vectors, text_rows, kb, config)
        assert h1 == h2
        assert a1.weight.tobytes() == a2.weight.tobytes()
        assert a1.bias.tobytes() == a2.bias.tobytes()

    def test_identity_init_beats_random_when_aligned(self):
        # visual embeddings equal the text embeddings: identity is optimal
        rng = np.random.default_rng(6)
        records = [
            KnowledgeRecord(f"s{i}", f"c{i % 4}", "d", Source.MLLM_DATA)
            for i in range(32)
        ]
        texts = rng.standard_normal((32, 8))
        kb = from_parts(records, texts)
        visual = EmbeddingMatrix(
            kb.embeddings.vectors.astype(np.float64), [r.id for r in records]
        )
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(epochs=1, batch_size=8, seed=0, learning_rate=1e-9)
        identity = LinearAdapter(np.eye(8), np.zeros(8))
        _, identity_history = train(vectors, text_rows, kb, config, init=identity)
        for seed in range(5):
            adapter_rng = np.random.default_rng(seed)
            random_init = LinearAdapter(
                adapter_rng.standard_normal((8, 8)), adapter_rng.standard_normal(8)
            )
            _, random_history = train(vectors, text_rows, kb, config, init=random_init)
            assert identity_history[0] <= random_history[0]

    def test_init_adapter_not_mutated(self):
        kb, visual = paired_kb(40, 6, seed=8, categories=4)
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        init = default_adapter(6, 6, seed=0)
        before = init.weight.copy()
        train(vectors, text_rows, kb, TrainConfig(epochs=2, batch_size=8, seed=0), init=init)
        assert np.array_equal(init.weight, before)

    def test_inputs_not_mutated(self):
        kb, visual = paired_kb(40, 6, seed=9, categories=4)
        kb_bytes = kb.embeddings.vectors.tobytes()
        visual_bytes = visual.vectors.tobytes()
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        train(vectors, text_rows, kb, TrainConfig(epochs=2, batch_size=8, seed=0))
        assert kb.embeddings.vectors.tobytes() == kb_bytes
        assert visual.vectors.tobytes() == visual_bytes

    def test_degenerate_single_text_row(self):
        records = [KnowledgeRecord("s0", "c", "d", Source.MLLM_DATA)]
        kb = from_parts(records, np.ones((1, 4)))
        visual = np.stack([np.ones(4), np.full(4, 0.5)])
        vectors, text_rows = resolve_pairs([("s0", 0), ("s0", 1)], visual, kb)
        with pytest.raises(DegenerateBatch):
            train(vectors, text_rows, kb, TrainConfig(epochs=1, batch_size=2, seed=0))

    def test_unknown_sample_rejected(self):
        kb, visual = paired_kb(10, 4, seed=10)
        with pytest.raises(UnknownSample):
            resolve_pairs([("ghost", 0)], visual, kb)

    def test_sgd_also_trains(self):
        kb, visual = paired_kb(80, 8, seed=11, categories=8)
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(
            epochs=15, batch_size=16, seed=2, optimizer=OptimizerKind.SGD, learning_rate=0.5
        )
        _, history = train(vectors, text_rows, kb, config)
        assert history[-1] < history[0]

    def test_partial_tail_of_one_dropped(self):
        kb, visual = paired_kb(9, 4, seed=12, categories=3)
        vectors, text_rows = resolve_pairs(all_pairs(visual), visual, kb)
        # batch_size 4 over 9 samples: tail of 1 must be dropped, not crash
        _, history = train(vectors, text_rows, kb, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(history) == 1


class TestGradientCheck:
    def test_random_adapter_passes(self):
        rng = np.random.default_rng(0)
        adapter = LinearAdapter(
            rng.standard_normal((8, 8)) / np.sqrt(8), rng.standard_normal(8) * 0.1
        )
        visual = rng.standard_normal((4, 8))
        texts = normalize_rows(rng.standard_normal((4, 8)))
        report = gradient_check_arrays(adapter, visual, texts, TrainConfig())
        assert report.passed
        assert report.max_rel_error < 1e-3

    def test_nan_weight_raises(self):
        weight = np.eye(4)
        weight[0, 0] = np.nan
        adapter = LinearAdapter(weight, np.zeros(4))
        rng = np.random.default_rng(1)
        texts = normalize_rows(rng.standard_normal((4, 4)))
        with pytest.raises(NonFiniteParameter):
            gradient_check_arrays(adapter, rng.standard_normal((4, 4)), texts, TrainConfig())

    def test_flat_softmax_regime_passes(self):
        # enormous temperature flattens the softmax; gradients are tiny but
        # must still match finite differences
        rng = np.random.default_rng(2)
        adapter = LinearAdapter(rng.standard_normal((6, 6)), rng.standard_normal(6) * 0.1)
        visual = rng.standard_normal((5, 6))
        texts = normalize_rows(rng.standard_normal((5, 6)))
        report = gradient_check_arrays(
            adapter, visual, texts, TrainConfig(temperature=1e6)
        )
        assert report.passed

    def test_symmetric_loss_passes(self):
        rng = np.random.default_rng(3)
        adapter = LinearAdapter(rng.standard_normal((5, 7)), rng.standard_normal(5) * 0.1)
        visual = rng.standard_normal((6, 7))
        texts = normalize_rows(rng.standard_normal((6, 5)))
        report = gradient_check_arrays(
            adapter, visual, texts, TrainConfig(symmetric_loss=True)
        )
        assert report.passed

    def test_kb_level_wrapper(self):
        kb, visual = paired_kb(8, 6, seed=13, categories=4)
        vectors, text_rows = resolve_pairs(all_pairs(visual)[:4], visual, kb)
        texts = normalize_rows(kb.embeddings.vectors[text_rows])
        adapter = default_adapter(6, 6, seed=0)
        report = gradient_check_arrays(adapter, vectors, texts, TrainConfig())
        assert report.passed

    def test_batch_of_one_rejected(self):
        rng = np.random.default_rng(4)
        adapter = default_adapter(4, 4, seed=0)
        with pytest.raises(DegenerateBatch):
            gradient_check_arrays(
                adapter,
                rng.standard_normal((1, 4)),
                normalize_rows(rng.standard_normal((1, 4))),
                TrainConfig(),
            )


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.temperature == 0.07
        assert config.optimizer == OptimizerKind.ADAM
        assert config.symmetric_loss is False

    def test_batch_size_floor(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)

    def test_parse_key_value_file(self):
        text = """
        # training settings
        temperature = 0.05
        learning_rate = 0.2
        batch_size = 8
        epochs = 3
        seed = 42
        optimizer = sgd
        symmetric_loss = true
        """
        config = parse_train_config(text)
        assert config.temperature == 0.05
        assert config.learning_rate == 0.2
        assert config.batch_size == 8
        assert config.epochs == 3
        assert config.seed == 42
        assert config.optimizer == OptimizerKind.SGD
        assert config.symmetric_loss is True

    def test_parse_colon_separator(self):
        config = parse_train_config("epochs: 7")
        assert config.epochs == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config("momentum = 0.9")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 2\nseed = 5\n")
        config = load_train_config(path)
        assert (config.epochs, config.seed) == (2, 5)


class TestAdapterFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        adapter = LinearAdapter(
            rng.standard_normal((6, 4)), rng.standard_normal(6), modality="event"
        )
        path = tmp_path / "event.adapter"
        save_adapter(path, adapter)
        back = load_adapter(path)
        assert back.modality == "event"
        assert (back.dim_in, back.dim_out) == (4, 6)
        assert np.allclose(back.weight, adapter.weight, atol=1e-6)
        assert np.allclose(back.bias, adapter.bias, atol=1e-6)

    def test_save_deterministic(self, tmp_path):
        adapter = default_adapter(4, 4, seed=0, modality="image")
        p1, p2 = tmp_path / "a1", tmp_path / "a2"
        save_adapter(p1, adapter)
        save_adapter(p2, adapter)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nonfinite_rejected_on_save(self, tmp_path):
        adapter = LinearAdapter(np.full((2, 2), np.nan), np.zeros(2))
        with pytest.raises(NonFiniteParameter):
            save_adapter(tmp_path / "bad.adapter", adapter)
