"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from kbfiles import kb_from_parts, write_kb_files
from modalign.centers import localize, sweep_k
from modalign.evaluation import (
    ScoringMode,
    category_scores,
    evaluate_classification,
    evaluate_retrieval,
)
from modalign.contrastive import info_nce_loss
from modalign.kb import (
    KnowledgeRecord,
    Source,
    build,
    write_kb_dir,
)
from modalign.pipeline import load_labels, load_pipeline_config, run_pipeline
from modalign.synthetic import SyntheticSpec, generate_synthetic
from modalign.training import LinearAdapter, TrainConfig, gradient_check_arrays
from modalign.ubem import read_ubem, write_ubem
from modalign.vectors import EmbeddingMatrix, cosine, normalize_rows, top_k


def passed(n, name):
    print(f"\n[acceptance] criterion {n} ({name}): PASS")


def test_c01_gradient_correctness():
    """Analytic adapter gradients match central differences on 100 seeds."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim_in = int(rng.integers(4, 33))
        dim_out = int(rng.integers(4, 33))
        batch = int(rng.integers(2, 17))
        adapter = LinearAdapter(
            rng.standard_normal((dim_out, dim_in)) / np.sqrt(dim_in),
            0.1 * rng.standard_normal(dim_out),
        )
        visual = rng.standard_normal((batch, dim_in))
        texts = normalize_rows(rng.standard_normal((batch, dim_out)))
        report = gradient_check_arrays(adapter, visual, texts, TrainConfig())
        worst = max(worst, report.max_rel_error)
        assert report.passed, f"seed {seed}: max rel error {report.max_rel_error:.3e}"
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    passed(1, f"gradient correctness, worst {worst:.2e}, {elapsed:.1f}s")


def test_c02_loss_identities():
    """Uniform batches give ln B; saturated diagonals drive the loss to 0."""
    for batch in (2, 4, 8, 64):
        a = np.zeros((batch, 4))
        a[:, 0] = 1.0
        z = np.zeros((batch, 4))
        z[:, 1] = 1.0
        loss, _ = info_nce_loss(a, z, temperature=0.07)
        assert abs(loss - math.log(batch)) < 1e-9, f"B={batch}: {loss}"
    saturated = np.array([[1.0, 0.0], [-1.0, 0.0]])
    loss, _ = info_nce_loss(saturated, saturated.copy(), temperature=0.01)
    assert loss < 1e-6
    passed(2, "loss identities")


def test_c03_top_k_oracle_equivalence():
    """Exact agreement with a full-sort oracle over 1,000 keys, ties included."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        keys = rng.standard_normal((1000, 16))
        # plant duplicate rows so score ties actually occur
        for src, dst in ((3, 700), (250, 251), (999, 0)):
            keys[dst] = keys[src]
        query = rng.standard_normal(16)

        scores = [cosine(query, keys[i]) for i in range(1000)]
        oracle = sorted(range(1000), key=lambda i: (-scores[i], i))
        for k in (1, 50, 999, 1000):
            got, _ = top_k(query[None, :], normalize_rows(keys), k)
            assert got[0].tolist() == oracle[:k], f"seed {seed}, k={k}"
    passed(3, "top-k oracle equivalence")


def test_c04_center_prefix_property():
    """Growing k only appends members; earlier selections never reorder."""
    rng = np.random.default_rng(0)
    records, vectors, prompts = [], [], {}
    for c in range(6):
        direction = rng.standard_normal(12)
        direction /= np.linalg.norm(direction)
        prompts[f"cat{c}"] = direction
        for i in range(120):
            records.append(
                KnowledgeRecord(f"cat{c}_{i}", f"cat{c}", "text", Source.LLM_CATEGORY)
            )
            vectors.append(direction + 0.6 * rng.standard_normal(12))
    kb = kb_from_parts(records, np.stack(vectors))

    sweeps = sweep_k(kb, prompts, [10, 25, 50, 100])
    ks = sorted(sweeps)
    for smaller, larger in zip(ks, ks[1:]):
        for category in prompts:
            small_members = sweeps[smaller].centers[category].member_rows
            large_members = sweeps[larger].centers[category].member_rows
            assert large_members[: len(small_members)] == small_members
    # sweeps agree with direct localization at each k
    for k in ks:
        direct = localize(kb, prompts, k)
        for category in prompts:
            assert direct.centers[category].member_rows == sweeps[k].centers[category].member_rows
    passed(4, "center-localization prefix property")


def test_c05_scoring_rule_boundary_divergence():
    """Anchor-max and prompt-mean disagree on a built boundary query; anchor-max is right."""
    def vec(deg):
        return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])

    members = {
        "a": np.stack([vec(0), vec(80)]),
        "b": np.stack([vec(170), vec(190)]),
    }
    centers = members
    query = vec(120)  # a boundary sample of the widely spread class "a"
    true_label = "a"

    names, member_scores = category_scores(query[None, :], centers, ScoringMode.CENTER_MAX)
    _, mean_scores = category_scores(query[None, :], members, ScoringMode.PROMPT_MEAN)
    by_members = names[member_scores[0].argmax()]
    by_means = names[mean_scores[0].argmax()]
    assert by_members != by_means
    assert by_members == true_label
    assert member_scores[0, names.index("a")] == pytest.approx(math.cos(math.radians(40)), abs=1e-12)
    assert mean_scores[0, names.index("b")] == pytest.approx(math.cos(math.radians(60)), abs=1e-12)
    passed(5, "anchor-max vs prompt-mean boundary case")


def test_c06_anchor_size_fifty_beats_one(tmp_path):
    """k=50 anchors classify at least as well as k=1 on 20 noisy classes, 5-seed mean."""
    acc_k1, acc_k50 = [], []
    for seed in range(5):
        spec = SyntheticSpec(
            categories=20, modalities=1, samples_per_class=30, dim=16,
            class_separation=1.0, modality_offset=0.0, noise_sigma=0.4,
            descriptions_per_class=200, seed=seed,
        )
        bundle = generate_synthetic(spec, tmp_path / f"b{seed}")
        kb = build(bundle.records, bundle.kb_embeddings)
        prompts = {
            label: row
            for label, row in zip(*(lambda m: (m.labels, m.vectors))(read_ubem(bundle.prompts)))
        }
        sweeps = sweep_k(kb, prompts, [1, 50], source_filter=Source.LLM_CATEGORY)
        queries = read_ubem(bundle.visual["mod0"])
        labels = load_labels(bundle.labels)
        categories = [labels[i] for i in queries.labels]
        for k, bucket in ((1, acc_k1), (50, acc_k50)):
            report = evaluate_classification(
                queries, categories, sweeps[k].member_blocks(), ScoringMode.CENTER_MAX
            )
            bucket.append(report.top1_accuracy)
    mean_k1 = float(np.mean(acc_k1))
    mean_k50 = float(np.mean(acc_k50))
    assert mean_k50 >= mean_k1, f"k=50 mean {mean_k50:.4f} < k=1 mean {mean_k1:.4f}"
    passed(6, f"anchor size: k50 {mean_k50:.4f} >= k1 {mean_k1:.4f}")


def test_c07_alignment_training_closes_gap(tmp_path):
    """Adapters shrink the modality gap (>=9/10 seeds) and lift cross-modal R@10."""
    gap_improved = 0
    pre_r10, post_r10 = [], []
    for seed in range(10):
        spec = SyntheticSpec(
            categories=12, modalities=2, samples_per_class=15, dim=12,
            class_separation=1.0, modality_offset=3.0, noise_sigma=0.5,
            descriptions_per_class=40, seed=seed,
        )
        bundle = generate_synthetic(spec, tmp_path / f"b{seed}")
        config_obj = json.loads(bundle.pipeline_config.read_text())
        config_obj["train"]["epochs"] = 25
        bundle.pipeline_config.write_text(json.dumps(config_obj))
        config = load_pipeline_config(bundle.pipeline_config, tmp_path / f"run{seed}")
        summary = run_pipeline(config).summary
        alignment = summary["alignment"]
        gap_improved += alignment["post"]["modality_gap"] < alignment["pre"]["modality_gap"]
        recall = summary["retrieval_recall"]["mod0_to_mod1"]
        pre_r10.append(recall["pre"]["10"])
        post_r10.append(recall["post"]["10"])
    mean_pre = float(np.mean(pre_r10))
    mean_post = float(np.mean(post_r10))
    assert gap_improved >= 9, f"gap improved in only {gap_improved}/10 seeds"
    assert mean_post > mean_pre, f"R@10 mean {mean_post:.4f} <= {mean_pre:.4f}"
    passed(7, f"alignment: gap better {gap_improved}/10, R@10 {mean_pre:.3f}->{mean_post:.3f}")


def test_c08_retrieval_metric_oracle():
    """R@{1,5,10,20} equals a full-sort brute-force oracle on 200x500 sets."""
    ks = [1, 5, 10, 20]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((200, 16))
        gallery = rng.standard_normal((500, 16))
        qids = [f"q{i}" for i in range(200)]
        gids = [f"g{j}" for j in range(500)]
        relevance = {
            qid: {f"g{j}" for j in rng.choice(500, size=int(rng.integers(1, 4)), replace=False)}
            for qid in qids
        }
        got = evaluate_retrieval(
            EmbeddingMatrix(queries, qids), EmbeddingMatrix(gallery, gids), relevance, ks
        )
        # independent oracle: full sort per query, set intersection per k
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        gn = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
        hits = {k: 0 for k in ks}
        for i, qid in enumerate(qids):
            scores = [float(np.dot(qn[i], gn[j])) for j in range(500)]
            order = sorted(range(500), key=lambda j: (-scores[j], j))
            ranked = [gids[j] for j in order]
            for k in ks:
                if set(ranked[:k]) & relevance[qid]:
                    hits[k] += 1
        expected = {k: hits[k] / 200 for k in ks}
        assert got.recall_at == expected, f"seed {seed}"
    passed(8, "retrieval metric oracle equivalence")


def test_c09_pipeline_determinism(tmp_path):
    """Same seed, two runs: byte-identical reports and adapter files."""
    spec = SyntheticSpec(
        categories=5, modalities=2, samples_per_class=12, dim=16,
        class_separation=1.0, modality_offset=1.0, noise_sigma=0.2,
        descriptions_per_class=20, seed=7,
    )
    bundle = generate_synthetic(spec, tmp_path / "bundle")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(load_pipeline_config(bundle.pipeline_config, out_a))
    run_pipeline(load_pipeline_config(bundle.pipeline_config, out_b))

    reports = sorted(p.name for p in (out_a / "reports").glob("*.json"))
    assert len(reports) >= 15
    for name in reports:
        assert (out_a / "reports" / name).read_bytes() == (out_b / "reports" / name).read_bytes(), name
    for name in ("adapters/mod0.adapter", "adapters/mod1.adapter"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    passed(9, "pipeline determinism")


def test_c10_format_round_trip(tmp_path):
    """UBEM write->read and KB export->build are bit-lossless."""
    rng = np.random.default_rng(0)
    # UBEM round trip
    matrix = EmbeddingMatrix(
        rng.standard_normal((37, 9)).astype(np.float32),
        [f"row {i} é" for i in range(37)],
    )
    p1, p2 = tmp_path / "m1.ubem", tmp_path / "m2.ubem"
    write_ubem(p1, matrix)
    back = read_ubem(p1)
    assert back.vectors.tobytes() == matrix.vectors.tobytes()
    assert back.labels == matrix.labels
    write_ubem(p2, back)
    assert p1.read_bytes() == p2.read_bytes()

    # KB export -> build -> export round trip
    records = []
    for c in range(3):
        for i in range(10):
            source = Source.LLM_CATEGORY if i % 2 else Source.MLLM_DATA
            records.append(KnowledgeRecord(f"c{c}_{i}", f"cat{c}", f"d{i}", source))
    dir_a, dir_b = tmp_path / "kb_a", tmp_path / "kb_b"
    with write_kb_dir(dir_a) as sink:
        kb = build(*write_kb_files(tmp_path, records, rng.standard_normal((30, 8))), sink)
    with write_kb_dir(dir_b) as sink:
        rebuilt = build(dir_a / "records.jsonl", dir_a / "embeddings.ubem", sink)
    assert (dir_a / "records.jsonl").read_bytes() == (dir_b / "records.jsonl").read_bytes()
    assert (dir_a / "embeddings.ubem").read_bytes() == (dir_b / "embeddings.ubem").read_bytes()
    assert list(rebuilt.ids) == list(kb.ids) == [r.id for r in records]
    passed(10, "format round-trip")
