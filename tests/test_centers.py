import itertools
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

import modalign.centers
import modalign.kb
import modalign.vectors
from kbfiles import kb_from_parts, kb_rows, whole_matrix_ingest, write_kb_files
from modalign.centers import (
    load_center_set,
    localize,
    prompts_from_matrix,
    save_center_set,
    sweep_k,
)
from modalign.errors import DimensionMismatch, MissingCategory
from modalign.kb import KnowledgeRecord, Source, build, write_kb_dir
from modalign.vectors import (
    NORM_BLOCK_ROWS,
    EmbeddingMatrix,
    cosine,
    normalize_rows,
    row_blocks,
    top_k,
)


def synthetic_parts(categories, per_category, dim, seed=0, source=Source.LLM_CATEGORY):
    """Records and raw vectors of `per_category` descriptions scattered
    around each category's direction, and those directions."""
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
    return records, np.stack(vectors), anchors


def synthetic_kb(categories, per_category, dim, seed=0, source=Source.LLM_CATEGORY):
    records, vectors, anchors = synthetic_parts(categories, per_category, dim, seed, source)
    return kb_from_parts(records, vectors), anchors


def blockwise_ranking(unit, rows, prompt, width):
    """Members and scores of one `top_k` per `row_blocks` block of `rows`
    over the in-memory unit rows `unit`, merged by one stable sort."""
    winners, scores = [], []
    for block in row_blocks(len(rows)):
        keys = rows[block]
        order, block_scores = top_k(prompt[None, :], normalize_rows(unit[keys]), width)
        winners += [keys[i] for i in order[0].tolist()]
        scores.append(block_scores[0])
    scores = np.concatenate(scores)
    keep = np.argsort(-scores, kind="stable")[:width]
    return [winners[i] for i in keep.tolist()], scores[keep].tolist()


class TestPromptSet:
    """A center set's prompt template, which `save_center_set` fills with
    each category to write its `prompt_text`."""

    def saved_header(self, tmp_path, category="a", **template):
        kb, anchors = synthetic_kb([category], 3, 8)
        path = tmp_path / "centers.cset"
        save_center_set(path, localize(kb, anchors, k=2, **template))
        return json.loads(path.read_bytes().split(b"\n", 1)[0])

    def refuses(self, tmp_path, template):
        message = "basic template must contain exactly one '[Category]' placeholder"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.saved_header(tmp_path, prompt_template=template)
        assert not (tmp_path / "centers.cset").exists()

    def test_fill(self, tmp_path):
        header = self.saved_header(tmp_path, "water snake")  # the default template
        assert [c["prompt_text"] for c in header["categories"]] == ["A photo of a water snake"]

    def test_placeholder_required(self, tmp_path):
        self.refuses(tmp_path, "no placeholder here")

    def test_single_placeholder_only(self, tmp_path):
        self.refuses(tmp_path, "[Category] and [Category]")


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
        records, vectors, anchors = synthetic_parts(["a", "b"], 30, 8, seed=2)
        # plant an exact copy of the prompt inside category "a"
        row = 4  # the category's fifth row
        vectors[row] = anchors["a"].astype(np.float32)
        kb = kb_from_parts(records, vectors)
        assert kb.category_rows("a")[4] == row
        centers = localize(kb, anchors, k=5)
        assert centers.centers["a"].member_rows[0] == row
        assert centers.centers["a"].member_scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_members_match_per_category_sort_oracle(self):
        kb, anchors = synthetic_kb(["a", "b", "c"], 200, 12, seed=7)
        centers = localize(kb, anchors, k=50)
        unit = kb_rows(kb)
        for name in ("a", "b", "c"):
            rows = kb.category_rows(name)
            scores = {
                r: cosine(anchors[name], unit[r]) for r in rows
            }
            expected = sorted(rows, key=lambda r: (-scores[r], r))[:50]
            assert centers.centers[name].member_rows == expected

    def test_members_carry_center_category(self):
        kb, anchors = synthetic_kb(["a", "b"], 20, 8, seed=4)
        centers = localize(kb, anchors, k=10)
        for name, center in centers.centers.items():
            for row in center.member_rows:
                assert kb.ids[row].startswith(f"{name}_")  # synthetic_kb's ids name the category

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
        unit = kb_rows(kb)
        for name, center in centers.centers.items():
            member_set = set(center.member_rows)
            floor = min(center.member_scores)
            for row in kb.category_rows(name):
                if row not in member_set:
                    assert cosine(anchors[name], unit[row]) <= floor

    def test_exact_ties_straddling_blocks_equal_one_top_k(self):
        # 42 exact copies of one row near the prompt, placed so the ties
        # straddle both block boundaries (1024 and 2048) of 2600 candidates.
        records, vectors, anchors = synthetic_parts(["a"], 2600, 32, seed=5)
        prompt = anchors["a"]
        copy = prompt + 0.05 * np.random.default_rng(6).standard_normal(32)
        planted = [3, *range(1000, 1030), *range(2040, 2050), 2599]
        vectors[planted] = (copy / np.linalg.norm(copy)).astype(np.float32)
        kb = kb_from_parts(records, vectors)
        rows = kb.category_rows("a")
        assert rows == list(range(2600))
        order, scores = top_k(prompt[None, :], normalize_rows(kb_rows(kb)[rows]), len(rows))
        assert order[0][:42].tolist() == planted  # the copies tie, lowest row first
        assert len(set(scores[0][:42].tolist())) == 1
        for k in (1, 10, 25, 43, 50, 2600):
            center = localize(kb, anchors, k=k).centers["a"]
            assert center.member_rows == [rows[i] for i in order[0][:k].tolist()]
            assert center.member_scores == scores[0][:k].tolist()
        sweep = sweep_k(kb, anchors, [10, 43, 1030, 2600])
        for small, large in itertools.pairwise([10, 43, 1030, 2600]):
            a, b = sweep[small].centers["a"], sweep[large].centers["a"]
            assert b.member_rows[:small] == a.member_rows
            assert b.member_scores[:small] == a.member_scores

    def test_lone_last_row_is_scored_with_its_block(self):
        # A product with one key row sums in a different order from a wide
        # one, so a lone last row would score differently in its own block.
        # Each category's rows are one run of the file, or, interleaved,
        # none of them is next to another of its category.
        for layout in ("runs", "interleaved"):
            names = ["a", "b", "c", "d"] if layout == "runs" else ["a", "b", "c"]
            records, vectors, anchors = synthetic_parts(names, NORM_BLOCK_ROWS + 1, 256, seed=8)
            if layout == "interleaved":
                order = np.arange(len(records)).reshape(len(names), -1).T.reshape(-1)
                records, vectors = [records[i] for i in order], vectors[order]
            kb = kb_from_parts(records, vectors)
            unit = whole_matrix_ingest(vectors)
            centers = localize(kb, anchors, k=NORM_BLOCK_ROWS + 1)
            for name, center in centers.centers.items():
                rows = kb.category_rows(name)
                assert len(rows) == NORM_BLOCK_ROWS + 1
                assert layout == "runs" or {j - i for i, j in zip(rows, rows[1:])} == {3}
                keys = normalize_rows(unit[rows])
                order, scores = top_k(anchors[name][None, :], keys, len(rows))
                assert center.member_rows == [rows[i] for i in order[0].tolist()]
                assert center.member_scores == scores[0].tolist()
                assert (center.member_rows, center.member_scores) == blockwise_ranking(
                    unit, rows, anchors[name], len(rows)
                )

    def test_norms_each_candidate_and_member_row_once(self, tmp_path, monkeypatch):
        # Over an exported knowledge base, the read's ingest check takes each
        # candidate row's norm and `top_k` reuses it; `top_k` is called once
        # per candidate block and norms only its one prompt row.
        records, vectors, anchors = synthetic_parts(
            ["a", "b"], 2 * NORM_BLOCK_ROWS + 1, 16, seed=10
        )
        with write_kb_dir(tmp_path / "kb") as sink:
            kb = build(*write_kb_files(tmp_path, records, vectors), sink)
        normed = {modalign.kb: [], modalign.vectors: []}
        for module, rows in normed.items():
            def counting_row_norms(matrix, rows=rows, original=module.row_norms):
                rows.append(len(matrix))
                return original(matrix)

            monkeypatch.setattr(module, "row_norms", counting_row_norms)
        ranked = []

        def counting_top_k(queries, keys, k):
            ranked.append(len(keys))
            return top_k(queries, keys, k)

        monkeypatch.setattr(modalign.centers, "top_k", counting_top_k)
        centers = localize(kb, anchors, k=50)
        assert ranked == [NORM_BLOCK_ROWS, NORM_BLOCK_ROWS + 1] * 2  # a lone last row joins
        assert sum(normed[modalign.kb]) == kb.size + centers.members.rows
        assert normed[modalign.vectors] == [1] * len(ranked)

    def test_ranks_in_blocks_without_a_full_size_copy(self):
        # One top_k over every candidate makes a float64 copy of them all
        # (2x the float32 candidates) plus scores and sort order; ranking
        # block by block holds a block's worth of those at a time.
        kb, anchors = synthetic_kb(["a"], 8 * NORM_BLOCK_ROWS, 32, seed=9)
        candidate_bytes = kb.size * kb.dim * 4
        tracemalloc.start()
        try:
            localize(kb, anchors, k=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * candidate_bytes

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
        rows = {"big": kb.category_rows("big"), "lone": kb.category_rows("lone")[:3]}
        records = [
            KnowledgeRecord(kb.ids[r], name, "text", Source.LLM_CATEGORY)
            for name, block in rows.items() for r in block
        ]
        kb = kb_from_parts(records, kb_rows(kb)[rows["big"] + rows["lone"]])
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


@pytest.mark.parametrize("source", list(Source))
def test_source_filter_gives_the_members_of_that_sources_rows_alone(source):
    # Filtering the candidates by source must pick the members that a
    # knowledge base of only that source's rows picks. The rows are
    # shuffled, so categories and sources interleave; or they interleave
    # one by one, category after category and source after source; or one
    # category has NORM_BLOCK_ROWS + 1 candidates of each source, so its
    # lone last candidate joins the block before it.
    for layout in ("shuffled", "interleaved", "one-block"):
        rng = np.random.default_rng(12)
        names = ("a",) if layout == "one-block" else ("a", "b", "c")
        per_category = 2 * (NORM_BLOCK_ROWS + 1) if layout == "one-block" else 40
        anchors = {name: rng.standard_normal(8) for name in names}
        records, vectors = [], []
        for i in range(per_category):
            for name, anchor in anchors.items():
                if layout == "shuffled":
                    kind = Source.MLLM_DATA if rng.integers(3) == 0 else Source.LLM_CATEGORY
                else:
                    kind = list(Source)[i % 2]
                records.append(KnowledgeRecord(f"{name}_{i}", name, "text", kind))
                vectors.append(anchor + rng.standard_normal(8))
        order = rng.permutation(len(records)) if layout == "shuffled" else range(len(records))
        records = [records[i] for i in order]
        vectors = np.stack(vectors)[order]
        kb = kb_from_parts(records, vectors)
        keep = [i for i, r in enumerate(records) if r.source == source]
        alone = kb_from_parts([records[i] for i in keep], vectors[keep])
        width = NORM_BLOCK_ROWS + 1 if layout == "one-block" else 10
        filtered = localize(kb, anchors, k=width, source_filter=source)
        direct = localize(alone, anchors, k=width)
        assert filtered.members.labels == direct.members.labels
        unit = whole_matrix_ingest(vectors)
        for name in anchors:
            got, want = filtered.centers[name], direct.centers[name]
            assert [keep.index(r) for r in got.member_rows] == want.member_rows
            assert got.member_scores == pytest.approx(want.member_scores, abs=1e-12)
            assert all(records[r].source == source for r in got.member_rows)
            # Bit for bit the ranking of the filtered rows, block by block, in memory.
            rows = kb.category_rows(name, source)
            assert layout == "shuffled" or rows == keep[names.index(name) :: len(names)]
            assert (got.member_rows, got.member_scores) == blockwise_ranking(
                unit, rows, anchors[name], width
            )
