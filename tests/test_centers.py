import logging
import re

import numpy as np
import pytest

import modalign.centers
from modalign.centers import (
    PromptSet,
    load_center_set,
    localize,
    prompts_from_matrix,
    save_center_set,
    sweep_k,
)
from modalign.errors import DimensionMismatch, MissingCategory
from modalign.kb import KnowledgeRecord, Source, from_parts
from modalign.vectors import EmbeddingMatrix, cosine, top_k


def synthetic_kb(categories, per_category, dim, seed=0, source=Source.LLM_CATEGORY):
    rng = np.random.default_rng(seed)
    records = []
    vectors = []
    anchors = {}
    for c, name in enumerate(categories):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        anchors[name] = direction
        for i in range(per_category):
            records.append(
                KnowledgeRecord(f"{name}_{i}", name, f"text {i}", source)
            )
            vectors.append(direction + 0.5 * rng.standard_normal(dim))
    return from_parts(records, np.stack(vectors)), anchors


class TestPromptSet:
    def test_fill(self):
        assert PromptSet().fill("water snake") == "A photo of a water snake"

    def test_placeholder_required(self):
        with pytest.raises(ValueError):
            PromptSet(basic_template="no placeholder here")

    def test_single_placeholder_only(self):
        with pytest.raises(ValueError):
            PromptSet(basic_template="[Category] and [Category]")


class TestLocalize:
    def test_truncates_to_available(self):
        kb, anchors = synthetic_kb(["lone"], 1, 8)
        centers = localize(kb, {"lone": anchors["lone"]}, k=50)
        assert centers.centers["lone"].size == 1
        assert centers.centers["lone"].k_requested == 50

    def test_small_category_logs_warning(self, caplog):
        kb, anchors = synthetic_kb(["lone"], 3, 8)
        with caplog.at_level(logging.WARNING):
            localize(kb, {"lone": anchors["lone"]}, k=50)
        assert any("3 descriptions" in r.message for r in caplog.records)

    def test_ranks_only_k_rows(self, monkeypatch):
        kb, anchors = synthetic_kb(["a", "b"], 30, 8, seed=3)
        widths = []

        def recording_top_k(queries, keys, k):
            widths.append(k)
            return top_k(queries, keys, k)

        monkeypatch.setattr(modalign.centers, "top_k", recording_top_k)
        centers = localize(kb, anchors, k=5)
        assert widths == [5, 5]
        assert all(c.size == 5 for c in centers.centers.values())

    def test_exact_prompt_copy_is_first_member(self):
        kb, anchors = synthetic_kb(["a", "b"], 30, 8, seed=2)
        # plant an exact copy of the prompt inside category "a"
        row = kb.category_rows("a")[4]
        kb.embeddings.vectors[row] = anchors["a"].astype(np.float32)
        centers = localize(kb, anchors, k=5)
        assert centers.centers["a"].member_rows[0] == row
        assert centers.centers["a"].member_scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_members_match_per_category_sort_oracle(self):
        kb, anchors = synthetic_kb(["a", "b", "c"], 200, 12, seed=7)
        centers = localize(kb, anchors, k=50)
        for name in ("a", "b", "c"):
            rows = kb.category_rows(name)
            scores = {
                r: cosine(anchors[name], kb.embeddings.vectors[r]) for r in rows
            }
            expected = sorted(rows, key=lambda r: (-scores[r], r))[:50]
            assert centers.centers[name].member_rows == expected

    def test_members_carry_center_category(self):
        kb, anchors = synthetic_kb(["a", "b"], 20, 8, seed=4)
        centers = localize(kb, anchors, k=10)
        for name, center in centers.centers.items():
            for row in center.member_rows:
                assert kb.records[row].category == name

    def test_missing_category(self):
        kb, anchors = synthetic_kb(["a"], 10, 8)
        with pytest.raises(MissingCategory, match="ghost"):
            localize(kb, {"ghost": np.ones(8)}, k=5)

    def test_missing_after_source_filter(self):
        kb, anchors = synthetic_kb(["a"], 10, 8, source=Source.LLM_CATEGORY)
        with pytest.raises(MissingCategory):
            localize(kb, anchors, k=5, source_filter=Source.MLLM_DATA)

    def test_dimension_mismatch(self):
        kb, anchors = synthetic_kb(["a"], 10, 8)
        with pytest.raises(DimensionMismatch):
            localize(kb, {"a": np.ones(5)}, k=5)

    def test_member_dominance_exhaustive(self):
        kb, anchors = synthetic_kb(["a", "b"], 40, 6, seed=11)
        centers = localize(kb, anchors, k=10)
        for name, center in centers.centers.items():
            member_set = set(center.member_rows)
            floor = min(center.member_scores)
            for row in kb.category_rows(name):
                if row not in member_set:
                    assert cosine(anchors[name], kb.embeddings.vectors[row]) <= floor

    def test_deterministic(self):
        kb, anchors = synthetic_kb(["a", "b"], 50, 8, seed=13)
        c1 = localize(kb, anchors, k=20)
        c2 = localize(kb, anchors, k=20)
        for name in c1.centers:
            assert c1.centers[name].member_rows == c2.centers[name].member_rows
            assert c1.centers[name].member_scores == c2.centers[name].member_scores


class TestSweepK:
    def test_prefix_property(self):
        kb, anchors = synthetic_kb(["a", "b", "c"], 120, 10, seed=5)
        sweeps = sweep_k(kb, anchors, [10, 50, 100])
        assert sorted(sweeps) == [10, 50, 100]
        for name in anchors:
            m10 = sweeps[10].centers[name].member_rows
            m50 = sweeps[50].centers[name].member_rows
            m100 = sweeps[100].centers[name].member_rows
            assert m50[: len(m10)] == m10
            assert m100[: len(m50)] == m50

    def test_k_one_selects_single_best(self):
        kb, anchors = synthetic_kb(["a", "b"], 30, 8, seed=6)
        sweeps = sweep_k(kb, anchors, [1])
        full = localize(kb, anchors, k=30)
        for name in anchors:
            assert sweeps[1].centers[name].member_rows == full.centers[name].member_rows[:1]

    def test_matches_individual_localize(self):
        kb, anchors = synthetic_kb(["a", "b"], 60, 8, seed=8)
        sweeps = sweep_k(kb, anchors, [5, 25])
        for k in (5, 25):
            direct = localize(kb, anchors, k=k)
            for name in anchors:
                assert sweeps[k].centers[name].member_rows == direct.centers[name].member_rows

    def test_short_category_warns_against_largest_k(self, caplog):
        kb, anchors = synthetic_kb(["big", "lone"], 20, 8, seed=4)
        rows = kb.category_rows("big") + kb.category_rows("lone")[:3]
        kb = from_parts([kb.records[r] for r in rows], kb.embeddings.vectors[rows])
        with caplog.at_level(logging.WARNING):
            sweeps = sweep_k(kb, anchors, [2, 10])
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["category 'lone' has only 3 descriptions for k=10"]
        assert sweeps[10].centers["lone"].size == 3

    def test_empty_k_values_rejected(self):
        kb, anchors = synthetic_kb(["a"], 10, 8)
        with pytest.raises(ValueError):
            sweep_k(kb, anchors, [])

    def test_zero_shot_accuracy_computable_per_entry(self):
        # every sweep entry feeds straight into downstream classification
        from modalign.evaluation import ScoringMode, evaluate_classification
        from modalign.vectors import EmbeddingMatrix

        kb, anchors = synthetic_kb(["a", "b", "c"], 40, 8, seed=21)
        rng = np.random.default_rng(22)
        queries, labels = [], []
        for name, direction in anchors.items():
            for _ in range(10):
                queries.append(direction + 0.5 * rng.standard_normal(8))
                labels.append(name)
        matrix = EmbeddingMatrix(np.stack(queries))
        accuracies = {}
        for k, center_set in sweep_k(kb, anchors, [1, 5, 20]).items():
            report = evaluate_classification(
                matrix, labels, center_set.member_blocks(), ScoringMode.CENTER_MAX
            )
            accuracies[k] = report.top1_accuracy
        assert set(accuracies) == {1, 5, 20}
        assert all(0.0 <= acc <= 1.0 for acc in accuracies.values())


class TestCenterSetFile:
    def test_roundtrip(self, tmp_path):
        kb, anchors = synthetic_kb(["a", "b"], 25, 8, seed=9)
        centers = localize(kb, anchors, k=10)
        path = tmp_path / "centers.cset"
        save_center_set(path, centers)
        back = load_center_set(path)
        assert back.k == centers.k
        assert list(back.centers) == list(centers.centers)
        blocks, back_blocks = centers.member_blocks(), back.member_blocks()
        for name in centers.centers:
            a, b = centers.centers[name], back.centers[name]
            assert a.member_rows == b.member_rows
            assert a.member_scores == pytest.approx(b.member_scores, abs=0)
            assert (
                blocks[name].astype(np.float32).tobytes() == back_blocks[name].tobytes()
            )
        prompts = prompts_from_matrix(centers.prompts)
        back_prompts = prompts_from_matrix(back.prompts)
        for name in prompts:
            assert np.allclose(
                back_prompts[name],
                prompts[name],
                atol=1e-7,
            )

    @pytest.mark.parametrize(
        "rows, labels",
        [([1, 0], ["b", "a"]), ([0], ["a"]), ([0, 0], ["a", "a"]), ([0, 1], None)],
        ids=["reordered", "missing", "duplicate", "unlabeled"],
    )
    def test_prompt_blob_must_match_header_categories(self, tmp_path, rows, labels):
        kb, anchors = synthetic_kb(["a", "b"], 25, 8, seed=9)
        centers = localize(kb, anchors, k=10)
        centers.prompts = EmbeddingMatrix(centers.prompts.vectors[rows], labels)
        path = tmp_path / "centers.cset"
        save_center_set(path, centers)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: center-set prompt blob"):
            load_center_set(path)

    def test_save_is_deterministic(self, tmp_path):
        kb, anchors = synthetic_kb(["a", "b"], 25, 8, seed=10)
        centers = localize(kb, anchors, k=10)
        p1, p2 = tmp_path / "c1.cset", tmp_path / "c2.cset"
        save_center_set(p1, centers)
        save_center_set(p2, centers)
        assert p1.read_bytes() == p2.read_bytes()


class TestPromptsFromMatrix:
    def test_labels_required(self):
        with pytest.raises(ValueError):
            prompts_from_matrix(EmbeddingMatrix(np.ones((2, 3))))

    def test_duplicate_category_rejected(self):
        with pytest.raises(ValueError):
            prompts_from_matrix(EmbeddingMatrix(np.ones((2, 3)), ["cat", "cat"]))

    def test_mapping(self):
        m = EmbeddingMatrix(np.eye(2), ["x", "y"])
        prompts = prompts_from_matrix(m)
        assert np.array_equal(prompts["y"], [0.0, 1.0])
