import math

import numpy as np
import pytest

from modalign.errors import (
    DimensionMismatch,
    EmptyCenterSet,
    MissingRelevance,
    UnknownLabel,
    ZeroVector,
)
from modalign.evaluation import (
    ScoringMode,
    category_relevance,
    category_scores,
    evaluate_classification,
    evaluate_retrieval,
)
from modalign.vectors import BLOCK_ROWS, EmbeddingMatrix, cosine

from test_vectors import exact_unit_vectors


def angle_vec(degrees):
    rad = math.radians(degrees)
    return np.array([math.cos(rad), math.sin(rad)])


def score_one(query, anchors, mode):
    """(predicted category, its score, {category: score}) for one query."""
    names, scores = category_scores(np.asarray(query, dtype=np.float64)[None, :], anchors, mode)
    best = int(scores[0].argmax())
    return names[best], scores[0, best], dict(zip(names, scores[0].tolist()))


def oracle_center_max(query, members):
    """Independent oracle: double loop of scalar cosines, first best name wins."""
    best_cat, best_score = None, -2.0
    for cat in sorted(members):
        score = max(cosine(query, m) for m in members[cat])
        if score > best_score:
            best_cat, best_score = cat, score
    return best_cat, best_score


class TestScoreCenterMax:
    def test_exact_member_match(self):
        rng = np.random.default_rng(0)
        members = rng.standard_normal((5, 8))
        members /= np.linalg.norm(members, axis=1, keepdims=True)
        cs = {"airplane": members, "car": -members}
        predicted, _, per_category = score_one(members[2], cs, ScoringMode.CENTER_MAX)
        assert predicted == "airplane"
        assert per_category["airplane"] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_single_members(self):
        cs = {"one": [[1.0, 0.0]], "two": [[0.0, 1.0]]}
        predicted, _, per_category = score_one([0.0, 1.0], cs, ScoringMode.CENTER_MAX)
        assert predicted == "two"
        assert per_category == pytest.approx({"one": 0.0, "two": 1.0})

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        members = {
            f"cat{c}": rng.standard_normal((10, 6)) for c in range(5)
        }
        cs = members
        queries = rng.standard_normal((100, 6))
        names, scores = category_scores(queries, cs, ScoringMode.CENTER_MAX)
        for query, row in zip(queries, scores):
            best_cat, best_score = oracle_center_max(query, members)
            assert names[row.argmax()] == best_cat
            assert row.max() == pytest.approx(best_score, abs=1e-12)

    def test_tie_breaks_by_ascending_name(self):
        shared = np.array([[1.0, 0.0]])
        cs = {"zebra": shared, "aardvark": shared.copy()}
        predicted, _, _ = score_one([1.0, 0.0], cs, ScoringMode.CENTER_MAX)
        assert predicted == "aardvark"

    def test_empty_center_set(self):
        with pytest.raises(EmptyCenterSet):
            category_scores([[1.0, 0.0]], {}, ScoringMode.CENTER_MAX)

    def test_scale_invariant_prediction(self):
        rng = np.random.default_rng(2)
        cs = {f"c{c}": rng.standard_normal((4, 5)) for c in range(3)}
        query = rng.standard_normal(5)
        base, _, _ = score_one(query, cs, ScoringMode.CENTER_MAX)
        for scale in (1e-3, 7.0, 1e4):
            assert score_one(scale * query, cs, ScoringMode.CENTER_MAX)[0] == base


class TestScorePromptMean:
    def test_mean_of_one_equals_center_max_k1(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        singles = {f"c{i}": vectors[i : i + 1] for i in range(4)}
        cs = singles
        queries = rng.standard_normal((25, 6))
        names_a, a = category_scores(queries, cs, ScoringMode.CENTER_MAX)
        names_b, b = category_scores(queries, singles, ScoringMode.PROMPT_MEAN)
        for row_a, row_b in zip(a, b):
            assert names_a[row_a.argmax()] == names_b[row_b.argmax()]
            assert row_a.max() == pytest.approx(row_b.max(), abs=1e-9)

    def test_antipodal_prompts_collapse(self):
        sets = {"bad": np.array([[1.0, 0.0], [-1.0, 0.0]])}
        with pytest.raises(ZeroVector):
            category_scores([[0.0, 1.0]], sets, ScoringMode.PROMPT_MEAN)

    def test_boundary_case_modes_disagree(self):
        # Hand-built 2-D geometry. Class "a" members sit at 0 and 80 degrees
        # (mean direction 40), class "b" members at 170 and 190 (mean 180).
        # A query at 120 degrees is nearer a's closest member (40 degrees
        # away) than b's (50 away), but nearer b's mean (60) than a's (80).
        members = {
            "a": np.stack([angle_vec(0), angle_vec(80)]),
            "b": np.stack([angle_vec(170), angle_vec(190)]),
        }
        cs = members
        query = angle_vec(120)

        by_members, _, member_scores = score_one(query, cs, ScoringMode.CENTER_MAX)
        by_means, _, mean_scores = score_one(query, members, ScoringMode.PROMPT_MEAN)
        assert by_members == "a"
        assert by_means == "b"
        # frozen expectations from hand trigonometry
        assert member_scores["a"] == pytest.approx(math.cos(math.radians(40)), abs=1e-12)
        assert member_scores["b"] == pytest.approx(math.cos(math.radians(50)), abs=1e-12)
        assert mean_scores["a"] == pytest.approx(math.cos(math.radians(80)), abs=1e-12)
        assert mean_scores["b"] == pytest.approx(math.cos(math.radians(60)), abs=1e-12)


class TestCategoryScores:
    def test_shape_and_ascending_names(self):
        members = {"zebra": [[1.0, 0.0]], "ant": [[0.0, 1.0]], "mole": [[1.0, 1.0]]}
        names, scores = category_scores(
            np.eye(2), members, ScoringMode.CENTER_MAX
        )
        assert names == ["ant", "mole", "zebra"]
        assert scores.shape == (2, 3)

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_category_without_anchor_rows_named(self, mode):
        empty = np.zeros((0, 2))
        anchors = {"full": np.array([[1.0, 0.0]]), "hollow": empty}
        with pytest.raises(EmptyCenterSet, match="'hollow'"):
            category_scores([[1.0, 0.0]], anchors, mode)

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_exact_ties_go_to_ascending_name_on_every_row(self, mode):
        # Exact cosines make ties real: "zebra" duplicates "aardvark", so it
        # must never win, and every row must match the scalar oracle.
        vectors = exact_unit_vectors()
        members = {
            "aardvark": vectors[0:8],
            "mole": vectors[8:16],
            "zebra": vectors[0:8].copy(),
            "yak": vectors[16:24],
        }
        if mode == ScoringMode.PROMPT_MEAN:
            members = {cat: block[:1] for cat, block in members.items()}
        anchors = members
        queries = np.concatenate([vectors, vectors])
        assert len(queries) > BLOCK_ROWS
        names, scores = category_scores(queries, anchors, mode)
        predicted = [names[j] for j in scores.argmax(axis=1)]
        expected = [oracle_center_max(q, members)[0] for q in queries]
        assert predicted == expected
        assert "zebra" not in predicted
        column = {cat: j for j, cat in enumerate(names)}
        ties = scores[:, column["aardvark"]] == scores[:, column["zebra"]]
        assert ties.all()
        report = evaluate_classification(EmbeddingMatrix(queries), expected, anchors, mode)
        assert report.top1_accuracy == 1.0


class TestEvaluateClassification:
    def test_exact_members_all_correct(self):
        rng = np.random.default_rng(4)
        members = {f"c{i}": rng.standard_normal((3, 5)) for i in range(4)}
        cs = members
        queries = np.concatenate([members[f"c{i}"] for i in range(4)])
        labels = [f"c{i}" for i in range(4) for _ in range(3)]
        report = evaluate_classification(
            EmbeddingMatrix(queries), labels, cs, ScoringMode.CENTER_MAX
        )
        assert report.top1_accuracy == 1.0
        assert report.sample_count == 12
        assert all(v == 1.0 for v in report.per_class_accuracy.values())

    def test_adversarial_labels_measure_not_error(self):
        cs = {"x": [[1.0, 0.0]], "y": [[0.0, 1.0]]}
        queries = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        report = evaluate_classification(
            queries, ["y", "x"], cs, ScoringMode.CENTER_MAX
        )
        assert report.top1_accuracy == 0.0

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(5)
        members = {f"c{i}": rng.standard_normal((6, 8)) for i in range(10)}
        cs = members
        queries = rng.standard_normal((80, 8))
        labels = [f"c{rng.integers(10)}" for _ in range(80)]
        report = evaluate_classification(
            EmbeddingMatrix(queries), labels, cs, ScoringMode.CENTER_MAX
        )
        correct = sum(
            oracle_center_max(queries[i], members)[0] == labels[i] for i in range(80)
        )
        assert report.top1_accuracy == correct / 80

    def test_unknown_label_rejected(self):
        cs = {"x": [[1.0, 0.0]]}
        with pytest.raises(UnknownLabel):
            evaluate_classification(
                EmbeddingMatrix(np.eye(2)), ["x", "ghost"], cs, ScoringMode.CENTER_MAX
            )

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_zero_query_rows_rejected(self, mode):
        queries = EmbeddingMatrix(np.empty((0, 2)))
        with pytest.raises(ValueError, match="^query matrix has no rows$"):
            evaluate_classification(queries, [], {"x": [[1.0, 0.0]]}, mode)

    def test_prompt_mean_mode(self):
        prompts = {"x": np.array([[1.0, 0.0]]), "y": np.array([[0.0, 1.0]])}
        queries = EmbeddingMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        report = evaluate_classification(
            queries, ["x", "y"], prompts, ScoringMode.PROMPT_MEAN
        )
        assert report.top1_accuracy == 1.0
        assert report.mode == ScoringMode.PROMPT_MEAN


def brute_force_recall(queries, query_ids, gallery, gallery_ids, relevance, ks):
    """Oracle: full sort per query by (-cosine, gallery index)."""
    hits = {k: 0 for k in ks}
    for i, qid in enumerate(query_ids):
        scores = [cosine(queries[i], gallery[j]) for j in range(len(gallery))]
        order = sorted(range(len(gallery)), key=lambda j: (-scores[j], j))
        ranked_ids = [gallery_ids[j] for j in order]
        for k in ks:
            if set(ranked_ids[:k]) & relevance[qid]:
                hits[k] += 1
    return {k: hits[k] / len(query_ids) for k in ks}


class TestEvaluateRetrieval:
    def test_exact_duplicates_r1(self):
        rng = np.random.default_rng(6)
        gallery = rng.standard_normal((30, 6))
        queries = gallery[:10].copy()
        q = EmbeddingMatrix(queries, [f"q{i}" for i in range(10)])
        g = EmbeddingMatrix(gallery, [f"g{i}" for i in range(30)])
        relevance = {f"q{i}": {f"g{i}"} for i in range(10)}
        report = evaluate_retrieval(q, g, relevance, [1])
        assert report.recall_at[1] == 1.0

    def test_rank_eleven_counts_for_r20_not_r10(self):
        # gallery scores descend with index; the relevant item is at rank 11
        dim = 30
        gallery_rows = []
        for j in range(20):
            v = np.zeros(dim)
            v[0] = 1.0
            v[j + 1] = 0.05 * (j + 1)  # larger tail -> smaller cosine to e_0
            gallery_rows.append(v)
        g = EmbeddingMatrix(np.stack(gallery_rows), [f"g{j}" for j in range(20)])
        q = EmbeddingMatrix(np.eye(dim)[:1], ["q0"])
        relevance = {"q0": {"g10"}}  # 11th by rank
        report = evaluate_retrieval(q, g, relevance, [10, 20])
        assert report.recall_at[10] == 0.0
        assert report.recall_at[20] == 1.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        queries = rng.standard_normal((50, 8))
        gallery = rng.standard_normal((120, 8))
        qids = [f"q{i}" for i in range(50)]
        gids = [f"g{j}" for j in range(120)]
        relevance = {
            qid: {f"g{j}" for j in rng.choice(120, size=3, replace=False)}
            for qid in qids
        }
        ks = [1, 5, 10, 20]
        got = evaluate_retrieval(
            EmbeddingMatrix(queries, qids), EmbeddingMatrix(gallery, gids), relevance, ks
        )
        expected = brute_force_recall(queries, qids, gallery, gids, relevance, ks)
        assert got.recall_at == expected

    def test_monotone_in_k_and_saturates(self):
        rng = np.random.default_rng(8)
        queries = rng.standard_normal((20, 5))
        gallery = rng.standard_normal((40, 5))
        qids = [f"q{i}" for i in range(20)]
        gids = [f"g{j}" for j in range(40)]
        relevance = {qid: {gids[rng.integers(40)]} for qid in qids}
        ks = [1, 5, 10, 20, 40]
        report = evaluate_retrieval(
            EmbeddingMatrix(queries, qids), EmbeddingMatrix(gallery, gids), relevance, ks
        )
        values = [report.recall_at[k] for k in ks]
        assert values == sorted(values)
        assert report.recall_at[40] == 1.0

    def test_missing_relevance(self):
        q = EmbeddingMatrix(np.eye(2), ["q0", "q1"])
        g = EmbeddingMatrix(np.eye(2), ["g0", "g1"])
        with pytest.raises(MissingRelevance):
            evaluate_retrieval(q, g, {"q0": {"g0"}}, [1])

    def test_relevant_ids_must_be_in_gallery(self):
        q = EmbeddingMatrix(np.eye(2)[:1], ["q0"])
        g = EmbeddingMatrix(np.eye(2), ["g0", "g1"])
        with pytest.raises(MissingRelevance):
            evaluate_retrieval(q, g, {"q0": {"elsewhere"}}, [1])

    def test_zero_query_rows_rejected(self):
        q = EmbeddingMatrix(np.empty((0, 2)), [])
        g = EmbeddingMatrix(np.eye(2), ["g0", "g1"])
        with pytest.raises(ValueError, match="^query matrix has no rows$"):
            evaluate_retrieval(q, g, {}, [1])

    def test_dim_mismatch(self):
        q = EmbeddingMatrix(np.eye(3)[:2], ["q0", "q1"])
        g = EmbeddingMatrix(np.eye(2), ["g0", "g1"])
        with pytest.raises(DimensionMismatch, match="queries have dim 3, keys have dim 2"):
            evaluate_retrieval(q, g, {"q0": {"g0"}, "q1": {"g1"}}, [1])

    def test_ks_must_ascend(self):
        q = EmbeddingMatrix(np.eye(2), ["q0", "q1"])
        with pytest.raises(ValueError):
            evaluate_retrieval(q, q, {"q0": {"q0"}, "q1": {"q1"}}, [10, 1])

    def test_exact_ties_go_to_the_lower_gallery_row(self):
        # Each query's relevant item is the second of two identical gallery
        # rows, so it ties at cosine 1 with the lower row and ranks second.
        vectors = exact_unit_vectors()
        gallery = np.concatenate([vectors, vectors])
        queries = vectors[np.arange(2 * BLOCK_ROWS + 3) % len(vectors)]
        qids = [f"q{i}" for i in range(len(queries))]
        gids = [f"g{j}" for j in range(len(gallery))]
        relevance = {
            qid: {gids[i % len(vectors) + len(vectors)]} for i, qid in enumerate(qids)
        }
        ks = [1, 2, 5]
        report = evaluate_retrieval(
            EmbeddingMatrix(queries, qids), EmbeddingMatrix(gallery, gids), relevance, ks
        )
        assert report.recall_at == {1: 0.0, 2: 1.0, 5: 1.0}
        assert report.recall_at == brute_force_recall(
            queries, qids, gallery, gids, relevance, ks
        )

    @pytest.mark.parametrize("labeled", [True, False])
    def test_several_gallery_rows_tie_the_best_relevant_score(self, labeled):
        # The gallery holds every exact unit vector twice, so each query meets
        # itself twice at cosine 1 and eight rows per copy at cosine 0.5; all
        # scores are exact. Two of a query's 0.5 rows are relevant: the 2nd and
        # 4th of the first copy for an even query (rank 3: both copies of
        # itself and the 1st tie come first), the 1st and 6th for an odd one
        # (rank 2). A labeled gallery repeats each id in its second copy, so a
        # relevant id names both copies.
        vectors = exact_unit_vectors()
        n = len(vectors)
        gallery = np.concatenate([vectors, vectors])
        queries = vectors[np.arange(2 * BLOCK_ROWS + 3) % n]
        qids = [f"q{i}" if labeled else str(i) for i in range(len(queries))]
        gids = [f"g{j % n}" if labeled else str(j) for j in range(2 * n)]
        relevance = {}
        for i, (qid, query) in enumerate(zip(qids, queries)):
            ties = np.flatnonzero(vectors @ query == 0.5)
            assert len(ties) == 8
            picks = ties[[1, 3]] if i % 2 == 0 else ties[[0, 5]]
            relevance[qid] = {gids[j] for j in picks}
        ks = [1, 2, 3, 4]
        report = evaluate_retrieval(
            EmbeddingMatrix(queries, qids if labeled else None),
            EmbeddingMatrix(gallery, gids if labeled else None),
            relevance,
            ks,
        )
        odd = len(queries) // 2
        assert report.recall_at == {1: 0.0, 2: 0.0, 3: odd / len(queries), 4: 1.0}
        assert report.recall_at == brute_force_recall(
            queries, qids, gallery, gids, relevance, ks
        )


class TestCategoryRelevance:
    def test_class_level_sets(self):
        relevance = category_relevance(
            ["q0", "q1"], ["cat", "dog"], ["g0", "g1", "g2"], ["dog", "cat", "cat"]
        )
        assert relevance == {"q0": {"g1", "g2"}, "q1": {"g0"}}


class TestReportShapes:
    def test_eval_report_fixed_keys(self):
        cs = {"x": [[1.0, 0.0]]}
        report = evaluate_classification(
            EmbeddingMatrix(np.array([[1.0, 0.0]])), ["x"], cs, ScoringMode.CENTER_MAX
        )
        assert list(report.to_report()) == [
            "mode",
            "sample_count",
            "top1_accuracy",
            "per_class_accuracy",
        ]

    def test_retrieval_report_fixed_keys(self):
        q = EmbeddingMatrix(np.eye(2), ["a", "b"])
        report = evaluate_retrieval(q, q, {"a": {"a"}, "b": {"b"}}, [1, 2])
        shaped = report.to_report()
        assert list(shaped) == ["recall_at"]
        assert list(shaped["recall_at"]) == ["1", "2"]
