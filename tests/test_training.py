import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modalign
from modalign import training
from modalign.errors import (
    DegenerateBatch,
    DimensionMismatch,
    NonFiniteParameter,
    UnknownSample,
    ZeroVector,
)
from modalign.kb import KnowledgeRecord, Source
from modalign.optim import Adam
from modalign.training import (
    LinearAdapter,
    OptimizerKind,
    TrainConfig,
    default_adapter,
    gradient_check_arrays,
    load_adapter,
    load_train_config,
    resolve_pairs,
    save_adapter,
    train,
    train_config_from_dict,
)
from modalign.vectors import EmbeddingMatrix, normalize_rows

from kbfiles import kb_from_parts, kb_rows


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
    kb = kb_from_parts(records, np.stack(text_vectors))
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

    def test_overflowing_row_named(self):
        adapter = LinearAdapter(np.full((2, 2), 1e300), np.zeros(2))
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteParameter, match="adapted row 1 has norm inf"
        ):
            adapter.apply(np.array([[1e-300, 0.0], [1.0, 1.0]]))

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
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(epochs=20, batch_size=16, seed=1)
        _, history = train(vectors, texts, config)
        assert len(history) == 20
        assert history[-1] < history[0]

    def test_same_seed_bitwise_identical(self):
        kb, visual = paired_kb(60, 8, seed=5, categories=4)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(epochs=5, batch_size=8, seed=7)
        a1, h1 = train(vectors, texts, config)
        a2, h2 = train(vectors, texts, config)
        assert h1 == h2
        assert a1.weight.tobytes() == a2.weight.tobytes()
        assert a1.bias.tobytes() == a2.bias.tobytes()

    def test_inputs_not_mutated(self):
        kb, visual = paired_kb(40, 6, seed=9, categories=4)
        kb_bytes = kb.path.read_bytes()
        visual_bytes = visual.vectors.tobytes()
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        train(vectors, texts, TrainConfig(epochs=2, batch_size=8, seed=0))
        assert kb.path.read_bytes() == kb_bytes
        assert visual.vectors.tobytes() == visual_bytes

    def test_degenerate_single_text_row(self):
        records = [KnowledgeRecord("s0", "c", "d", Source.MLLM_DATA)]
        kb = kb_from_parts(records, np.ones((1, 4)))
        visual = np.stack([np.ones(4), np.full(4, 0.5)])
        vectors, texts = resolve_pairs([("s0", 0), ("s0", 1)], visual, kb)
        with pytest.raises(DegenerateBatch):
            train(vectors, texts, TrainConfig(epochs=1, batch_size=2, seed=0))

    def test_unknown_sample_rejected(self):
        kb, visual = paired_kb(10, 4, seed=10)
        with pytest.raises(UnknownSample):
            resolve_pairs([("ghost", 0)], visual, kb)

    def test_resolved_texts_are_the_normalized_kb_rows(self):
        kb, visual = paired_kb(12, 5, seed=14, categories=3)
        pairs = [("sample_7", 2), ("sample_0", 11), ("sample_3", 3)]
        vectors, texts = resolve_pairs(pairs, visual, kb)
        expected = normalize_rows(kb_rows(kb)[[kb.pair_index[s] for s, _ in pairs]])
        assert texts.dtype == np.float64
        assert texts.tobytes() == expected.tobytes()
        assert vectors.tobytes() == visual.vectors[[2, 11, 3]].astype(np.float64).tobytes()

    def test_row_count_mismatch_rejected(self):
        kb, visual = paired_kb(10, 4, seed=15)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        with pytest.raises(ValueError, match="9 text rows for 10 visual rows"):
            train(vectors, texts[:9], TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_identical_text_rows_rejected(self):
        rng = np.random.default_rng(16)
        texts = np.tile(normalize_rows(rng.standard_normal((1, 4))), (6, 1))
        with pytest.raises(DegenerateBatch, match="identical"):
            train(rng.standard_normal((6, 4)), texts, TrainConfig(epochs=1, batch_size=2, seed=0))

    def test_text_rows_differing_only_in_the_last_row_train(self):
        rng = np.random.default_rng(16)
        texts = np.tile(normalize_rows(rng.standard_normal((1, 4))), (6, 1))
        texts[-1] = normalize_rows(rng.standard_normal((1, 4)))[0]
        _, history = train(
            rng.standard_normal((6, 4)), texts, TrainConfig(epochs=1, batch_size=6, seed=0)
        )
        assert len(history) == 1

    def test_each_step_calls_the_loss_and_the_optimizer_once(self, monkeypatch):
        # The benchmark's tracer counts training steps and loss calls by
        # rebinding these two names, so `train` must call through them.
        calls = {"loss": 0, "step": 0}
        loss, step = training.info_nce_loss, Adam.step

        def counting_loss(*args, **kwargs):
            calls["loss"] += 1
            return loss(*args, **kwargs)

        def counting_step(self, grads):
            calls["step"] += 1
            return step(self, grads)

        monkeypatch.setattr(training, "info_nce_loss", counting_loss)
        monkeypatch.setattr(Adam, "step", counting_step)
        kb, visual = paired_kb(9, 4, seed=12, categories=3)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        train(vectors, texts, TrainConfig(epochs=3, batch_size=4, seed=0))
        # 9 rows in batches of 4: two steps per epoch, the tail of one skipped.
        assert calls == {"loss": 6, "step": 6}

    @pytest.mark.parametrize("config", [{}, {"symmetric_loss": True}], ids=["adam", "symmetric"])
    def test_adapter_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, config):
        # Batches of 64 rows of 96 dims are past OpenBLAS's threading cutoff
        # for every product of the step, so two threads split each of them.
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from modalign.training import TrainConfig, save_adapter, train\n"
            "rng = np.random.default_rng(3)\n"
            "visual = rng.standard_normal((128, 96))\n"
            "texts = rng.standard_normal((128, 96))\n"
            "texts /= np.linalg.norm(texts, axis=1, keepdims=True)\n"
            "config = TrainConfig(epochs=3, batch_size=64, **json.loads(sys.argv[2]))\n"
            "adapter, history = train(visual, texts, config, 'image')\n"
            "save_adapter(sys.argv[1], adapter)\n"
            "print(hashlib.sha256(adapter.weight.tobytes() + adapter.bias.tobytes()).hexdigest())\n"
            "print(history)\n"
        )
        src = str(Path(modalign.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.adapter"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path), json.dumps(config)],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((path.read_bytes(), proc.stdout))
        assert outputs[0] == outputs[1]

    def test_train_mutates_neither_input(self):
        kb, visual = paired_kb(24, 6, seed=17, categories=4)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        vectors_bytes, texts_bytes = vectors.tobytes(), texts.tobytes()
        train(vectors, texts, TrainConfig(epochs=3, batch_size=8, seed=0))
        assert vectors.tobytes() == vectors_bytes
        assert texts.tobytes() == texts_bytes

    def test_sgd_also_trains(self):
        kb, visual = paired_kb(80, 8, seed=11, categories=8)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        config = TrainConfig(
            epochs=15, batch_size=16, seed=2, optimizer=OptimizerKind.SGD, learning_rate=0.5
        )
        _, history = train(vectors, texts, config)
        assert history[-1] < history[0]

    def test_partial_tail_of_one_dropped(self):
        kb, visual = paired_kb(9, 4, seed=12, categories=3)
        vectors, texts = resolve_pairs(all_pairs(visual), visual, kb)
        # batch_size 4 over 9 samples: tail of 1 must be dropped, not crash
        _, history = train(vectors, texts, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(history) == 1


class TestShuffle:
    @staticmethod
    def orders(seed, n, epochs):
        rng = random.Random(seed)
        return [training._epoch_order(rng, n).tolist() for _ in range(epochs)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 37, 128])
    def test_each_epoch_is_a_permutation(self, n):
        for order in self.orders(0, n, 4):
            assert sorted(order) == list(range(n))

    def test_same_seed_same_orders(self):
        assert self.orders(5, 50, 3) == self.orders(5, 50, 3)

    def test_seeds_and_epochs_differ(self):
        by_seed = [self.orders(seed, 50, 3) for seed in range(4)]
        firsts = [orders[0] for orders in by_seed]
        assert len({tuple(o) for o in firsts}) == len(firsts)
        for orders in by_seed:
            assert len({tuple(o) for o in orders}) == len(orders)

    def test_every_position_is_reached(self):
        # 20 draws of 4 rows: each row lands in each position at least once.
        seen = np.zeros((4, 4), dtype=int)
        for order in self.orders(1, 4, 20):
            seen[order, range(4)] += 1
        assert (seen > 0).all()

    def test_batches_of_two_slice_each_epoch_order_and_drop_a_tail_of_one(self, monkeypatch):
        batches = []
        forward_backward = training._forward_backward

        def recording(W, b, visual, texts, *args):
            batches.append(visual[:, 0].astype(int).tolist())
            return forward_backward(W, b, visual, texts, *args)

        monkeypatch.setattr(training, "_forward_backward", recording)
        rng = np.random.default_rng(6)
        visual = rng.standard_normal((5, 3))
        visual[:, 0] = np.arange(5)  # each row names itself
        texts = normalize_rows(rng.standard_normal((5, 3)))
        _, history = train(visual, texts, TrainConfig(epochs=3, batch_size=2, seed=4))
        assert len(history) == 3
        expected = [order[i : i + 2] for order in self.orders(4, 5, 3) for i in (0, 2)]
        assert batches == expected


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
        vectors, texts = resolve_pairs(all_pairs(visual)[:4], visual, kb)
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

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({
            "temperature": 0.05,
            "learning_rate": 0.2,
            "batch_size": 8,
            "epochs": 3,
            "seed": 42,
            "optimizer": "sgd",
            "symmetric_loss": True,
        }))
        config = load_train_config(path)
        assert config.temperature == 0.05
        assert config.learning_rate == 0.2
        assert config.batch_size == 8
        assert config.epochs == 3
        assert config.seed == 42
        assert config.optimizer == OptimizerKind.SGD
        assert config.symmetric_loss is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            train_config_from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("key", ["temperature", "learning_rate"])
    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), 10**400], ids=["inf", "nan", "int-past-float-range"]
    )
    def test_non_finite_rate_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number > 0"):
            train_config_from_dict({key: value})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "train.json"
        path.write_text('{"epochs": 2, "seed": 5}')
        config = load_train_config(path)
        assert (config.epochs, config.seed) == (2, 5)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("epochs = 2\nseed = 5\n", "invalid JSON"),
            ('{"epochs": 2, "momentum": 0.9}', "'momentum'"),
            ('{"epochs": "2"}', "'epochs'"),
            ("[2]", "JSON object"),
            ('{"epochs": "\xff"}', "invalid JSON ('utf-8' codec can't decode byte 0xff"),
        ],
        ids=["key-value-text", "unknown-key", "string-epochs", "list", "not-utf8"],
    )
    def test_file_errors_name_the_file(self, tmp_path, text, named):
        path = tmp_path / "train.json"
        path.write_bytes(text.encode("latin-1"))  # one byte per character: 0xff stays 0xff
        with pytest.raises(ValueError) as e:
            load_train_config(path)
        assert str(e.value).startswith(f"{path}: ") and named in str(e.value)


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

    @pytest.mark.parametrize("key", ["dim_in", "dim_out"])
    def test_header_missing_key_names_file_and_key(self, tmp_path, key):
        path = tmp_path / "a.adapter"
        save_adapter(path, default_adapter(3, 3, seed=0, modality="image"))
        header_line, blobs = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        del header[key]
        path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
        with pytest.raises(ValueError) as e:
            load_adapter(path)
        assert str(path) in str(e.value) and repr(key) in str(e.value)

    @pytest.mark.parametrize(
        "header",
        [b"[1]", b'{"format": "linear-adapter", "version": true, "dim_in": 3, "dim_out": 3}'],
        ids=["list", "boolean-version"],
    )
    def test_header_not_a_version_1_object_names_file(self, tmp_path, header):
        path = tmp_path / "a.adapter"
        save_adapter(path, default_adapter(3, 3, seed=0, modality="image"))
        blobs = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(header + b"\n" + blobs)
        with pytest.raises(ValueError, match="not a version-1 linear-adapter file") as e:
            load_adapter(path)
        assert str(path) in str(e.value)

    def test_nonfinite_rejected_on_save(self, tmp_path):
        adapter = LinearAdapter(np.full((2, 2), np.nan), np.zeros(2))
        with pytest.raises(NonFiniteParameter):
            save_adapter(tmp_path / "bad.adapter", adapter)
