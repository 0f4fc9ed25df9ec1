import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modalign import vectors
from modalign.errors import DimensionMismatch, EmptyKeys, ZeroVector
from modalign.vectors import (
    BLOCK_ROWS,
    NORM_BLOCK_ROWS,
    EmbeddingMatrix,
    as_vectors,
    cosine,
    normalize,
    normalize_rows,
    row_blocks,
    row_norms,
    score_blocks,
    similarity_matrix,
    top_k,
    unit_similarity,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def nonzero_vectors(min_dim=1, max_dim=16):
    return (
        st.integers(min_value=min_dim, max_value=max_dim)
        .flatmap(lambda d: arrays(np.float64, (d,), elements=finite_floats))
        .filter(lambda v: np.linalg.norm(v) > 1e-6)
    )


class TestNormalize:
    def test_three_four_five_triangle(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_already_unit(self):
        assert np.allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    def test_result_is_unit_norm(self):
        v = normalize([1.0, 2.0, 3.0, 4.0])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_direction_preserved(self):
        v = np.array([2.0, -5.0, 1.0])
        unit = normalize(v)
        scale = np.linalg.norm(v)
        assert np.allclose(unit * scale, v, rtol=1e-12)

    @given(nonzero_vectors())
    def test_idempotent(self, v):
        once = normalize(v)
        twice = normalize(once)
        assert np.abs(twice - once).max() < 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            normalize([np.nan, 1.0])


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five_degrees(self):
        # hand arithmetic: (1*1 + 1*0) / (sqrt(2) * 1) = sqrt(2)/2
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine([0.0, 0.0], [1.0, 0.0])

    @given(nonzero_vectors(min_dim=4, max_dim=4), nonzero_vectors(min_dim=4, max_dim=4))
    def test_symmetry_exact(self, a, b):
        assert cosine(a, b) == cosine(b, a)

    @given(
        nonzero_vectors(min_dim=3, max_dim=3),
        nonzero_vectors(min_dim=3, max_dim=3),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    def test_scale_invariance(self, a, b, c):
        assert abs(cosine(c * a, b) - cosine(a, b)) < 1e-9

    def test_clamped_to_range(self):
        v = np.full(64, 0.125)
        assert -1.0 <= cosine(v, v) <= 1.0
        assert -1.0 <= cosine(v, -v) <= 1.0


class TestSimilarityMatrix:
    def test_self_similarity(self):
        m = np.array([[0.3, 0.4, 0.5]])
        assert similarity_matrix(m, m) == pytest.approx(np.array([[1.0]]), abs=1e-12)

    def test_identity_basis(self):
        basis = np.eye(4)
        assert np.allclose(similarity_matrix(basis, basis), np.eye(4), atol=0)

    def test_matches_scalar_oracle(self):
        # oracle: per-pair scalar cosine in a double loop
        rng = np.random.default_rng(7)
        queries = rng.standard_normal((32, 8))
        keys = rng.standard_normal((64, 8))
        got = similarity_matrix(queries, keys)
        for i in range(32):
            for j in range(64):
                assert abs(got[i, j] - cosine(queries[i], keys[j])) <= 1e-6

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_zero_row_rejected(self):
        keys = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVector):
            similarity_matrix(np.ones((1, 2)), keys)

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_agrees_with_scalar(self, nq, nk, dim, seed):
        rng = np.random.default_rng(seed)
        queries = rng.standard_normal((nq, dim)) + 0.1
        keys = rng.standard_normal((nk, dim)) + 0.1
        got = similarity_matrix(queries, keys)
        for i in range(nq):
            for j in range(nk):
                assert abs(got[i, j] - cosine(queries[i], keys[j])) <= 1e-6


def test_unit_similarity_dim_mismatch_message_matches_similarity_matrix():
    with pytest.raises(DimensionMismatch, match="^queries have dim 3, keys have dim 4$"):
        unit_similarity(np.eye(3), np.ones((2, 4)))


def brute_force_ranking(query, keys):
    """Independent oracle: full scan + stable sort by (-score, index)."""
    scores = [cosine(query, keys[i]) for i in range(len(keys))]
    order = sorted(range(len(keys)), key=lambda i: (-scores[i], i))
    return [(i, scores[i]) for i in order]


def exact_unit_vectors():
    """Unit vectors whose norms and pairwise cosines are exact in float64:
    every sign pattern of (1/2, 1/2, 1/2, 1/2) and every +-e_i."""
    halves = [np.array(signs) / 2 for signs in itertools.product((-1.0, 1.0), repeat=4)]
    axes = [sign * axis for axis in np.eye(4) for sign in (1.0, -1.0)]
    return np.array(halves + axes)


class TestTopK:
    def test_exact_copy_wins(self):
        rng = np.random.default_rng(0)
        keys = rng.standard_normal((20, 6))
        query = keys[13].copy()
        indices, scores = top_k(query[None, :], normalize_rows(keys), 1)
        assert indices.shape == (1, 1)
        assert indices[0, 0] == 13
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_k_at_least_rows_returns_all_sorted(self):
        keys = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        indices, scores = top_k([[1.0, 0.0]], normalize_rows(keys), 10)
        assert indices[0].tolist() == [0, 2, 1]
        assert scores[0].tolist() == sorted(scores[0].tolist(), reverse=True)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        keys = rng.standard_normal((1000, 16))
        query = rng.standard_normal(16)
        expected = brute_force_ranking(query, keys)[:50]
        indices, _ = top_k(query[None, :], normalize_rows(keys), 50)
        assert indices[0].tolist() == [i for i, _ in expected]

    def test_tie_break_ascending_index(self):
        # duplicate rows produce identical scores; earlier row must win
        keys = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        indices, _ = top_k([[1.0, 1.0]], normalize_rows(keys), 3)
        assert indices[0].tolist() == [1, 2, 0]

    def test_empty_keys(self):
        with pytest.raises(EmptyKeys):
            top_k([[1.0, 0.0]], np.zeros((0, 2)), 1)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            top_k([[1.0, 0.0, 0.0]], np.ones((3, 2)), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k([[1.0, 0.0]], np.ones((3, 2)), 0)

    def test_accepts_embedding_matrix(self):
        m = EmbeddingMatrix(np.eye(3), ["a", "b", "c"])
        indices, scores = top_k([[0.0, 1.0, 0.0]], m, 2)
        assert (indices[0, 0], scores[0, 0]) == (1, 1.0)

    def test_batched_equals_each_row_alone_on_exact_ties(self):
        # Exact cosines make every score tie reproducible, so the batched
        # ranking must equal each row ranked alone and the full-sort oracle.
        vectors = exact_unit_vectors()
        rng = np.random.default_rng(11)
        keys = vectors[rng.integers(len(vectors), size=60)]
        queries = vectors[rng.integers(len(vectors), size=3 * BLOCK_ROWS + 5)]
        indices, scores = top_k(queries, keys, 25)
        assert indices.shape == scores.shape == (len(queries), 25)
        for i, query in enumerate(queries):
            alone_indices, alone_scores = top_k(query[None, :], keys, 25)
            assert np.array_equal(indices[i], alone_indices[0])
            assert np.array_equal(scores[i], alone_scores[0])
            expected = brute_force_ranking(query, keys)[:25]
            assert indices[i].tolist() == [j for j, _ in expected]
            assert scores[i].tolist() == [score for _, score in expected]

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_equals_oracle(self, k, rows, seed):
        rng = np.random.default_rng(seed)
        keys = rng.standard_normal((rows, 5))
        query = rng.standard_normal(5)
        expected = brute_force_ranking(query, keys)[: min(k, rows)]
        indices, _ = top_k(query[None, :], normalize_rows(keys), k)
        assert indices[0].tolist() == [i for i, _ in expected]


class TestScoreBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_block_is_bit_identical_to_similarity_matrix(self, dtype):
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((2 * BLOCK_ROWS + 3, 64)).astype(dtype)
        keys = rng.standard_normal((300, 64)).astype(dtype)
        covered = []
        for rows, scores in score_blocks(queries, normalize_rows(keys)):
            assert scores.dtype == np.float64
            assert np.array_equal(scores, similarity_matrix(queries[rows], keys))
            covered += range(len(queries))[rows]
        assert covered == list(range(len(queries)))

    def test_dims_checked_before_any_block(self):
        with pytest.raises(DimensionMismatch):
            next(score_blocks(np.ones((3, 3)), np.ones((4, 2))))

    @pytest.mark.parametrize(
        "keys, row, norm",
        [([[1, 1], [0.5, 0]], 0, "1.414214"), ([[1, 0], [0.5, 0]], 1, "0.5"),
         ([[1, 0], [np.nan, 0]], 1, "nan")],
    )
    def test_raw_end_key_rows_are_refused(self, keys, row, norm):
        # Raw keys would rank by dot product: rows [0, 1] with scores
        # [1.0, 0.5] for the first case, where cosine ranks row 1 first.
        message = f"key row {row} has norm {norm}: keys must be unit rows"
        with pytest.raises(ValueError) as info:
            top_k([[1, 0]], keys, 2)
        assert str(info.value) == message
        with pytest.raises(ValueError):
            next(score_blocks(np.ones((0, 2)), keys))

    def test_end_key_rows_within_the_unit_tolerance_pass(self):
        keys = np.array([[1.0 - 0.9e-6, 0.0], [0.0, 1.0 + 0.9e-6]], dtype=np.float32)
        assert top_k([[0.0, 1.0]], keys, 1)[0].tolist() == [[1]]

    def test_top_k_normalizes_each_query_block_and_not_its_keys(self, monkeypatch):
        # One call per query block: the keys arrive unit, so they are not
        # normalized at all, neither once per call nor once per block.
        calls = []

        def counting(matrix):
            calls.append(as_vectors(matrix).shape[0])
            return normalize_rows(matrix)

        rng = np.random.default_rng(22)
        keys = normalize_rows(rng.standard_normal((50, 8)))
        monkeypatch.setattr(vectors, "normalize_rows", counting)
        top_k(rng.standard_normal((2 * BLOCK_ROWS + 3, 8)), keys, 5)
        assert calls == [BLOCK_ROWS, BLOCK_ROWS, 3]


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2049, 3 * 1024 + 1])
    def test_blocks_cover_every_row_once_with_no_lone_row(self, rows):
        assert NORM_BLOCK_ROWS == 1024
        blocks = list(row_blocks(rows))
        covered = [i for block in blocks for i in range(rows)[block]]
        assert covered == list(range(rows))
        sizes = [len(range(rows)[block]) for block in blocks]
        assert all(size == NORM_BLOCK_ROWS for size in sizes[:-1])
        assert max(sizes) <= NORM_BLOCK_ROWS + 1
        assert rows == 1 or min(sizes) > 1

    def test_no_rows_no_blocks(self):
        assert list(row_blocks(0)) == []


class TestEmbeddingMatrix:
    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.ones((3, 2)), ["only", "two"])

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            EmbeddingMatrix(bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 2 * 7 + 3, 5 * 7 - 1])
    def test_rejects_each_non_finite_value_anywhere(self, dtype, value, position):
        bad = np.linspace(-1.0, 1.0, 5 * 7).astype(dtype).reshape(5, 7)
        bad.flat[position] = value
        with pytest.raises(ValueError, match="embedding matrix contains NaN or Inf"):
            EmbeddingMatrix(bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accepts_zero_rows(self, dtype):
        assert EmbeddingMatrix(np.empty((0, 4), dtype)).rows == 0

    def test_finiteness_check_needs_no_full_size_temporary(self):
        # `np.isfinite(v).all()` would allocate one bool per value: 0.25x a
        # float32 payload.
        payload = np.random.default_rng(0).standard_normal((4096, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            EmbeddingMatrix(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * payload.nbytes

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.ones(4))

    def test_shape_accessors(self):
        m = EmbeddingMatrix(np.ones((5, 3)))
        assert (m.rows, m.dim) == (5, 3)


def _layouts(m):
    """The same values as C-ordered, F-ordered and row-strided arrays."""
    strided = np.empty((2 * m.shape[0], m.shape[1]), m.dtype)
    strided[::2] = m
    return {"C": m, "F": np.asfortranarray(m), "row-strided": strided[::2]}


def _scaled_rows(rows, dtype, seed=0, dim=256):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, dim)) * np.exp(rng.standard_normal((rows, 1)) * 4)
    if rows:  # one row whose squares come within a few powers of ten of overflow
        m[rows // 2] = rng.standard_normal(dim) * (1e150 if dtype == np.float64 else 1e17)
    return m.astype(dtype)


class TestRowNorms:
    # np.linalg.norm sums a C-ordered row pairwise and an F-ordered one
    # column by column, so each layout has its own reference bits; a block of
    # one row from an F-ordered matrix (1025 rows) would be summed pairwise.
    # row_norms always squares and sums in float64, so a float32 input is
    # compared against the norms of its float64 copy (same layout).
    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 3000])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_linalg_norm(self, rows, dtype):
        assert NORM_BLOCK_ROWS == 1024
        for layout, m in _layouts(_scaled_rows(rows, dtype)).items():
            want = np.linalg.norm(m.astype(np.float64), axis=1)
            got = row_norms(m)
            assert got.dtype == np.float64, layout
            assert got.tobytes() == want.tobytes(), layout

    @pytest.mark.parametrize("rows", [1, 1025])
    def test_float64_dtype_on_float32_input(self, rows):
        for layout, m in _layouts(_scaled_rows(rows, np.float32)).items():
            want = np.linalg.norm(m.astype(np.float64), axis=1)
            got = row_norms(m)
            assert got.dtype == np.float64, layout
            assert got.tobytes() == want.tobytes(), layout

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layouts_sum_in_different_orders(self, dtype):
        # Guards the premise above, on the data the tests use: the two
        # layouts give different bits, also for the last of 1025 rows, which
        # row_norms must not sum as a lone row.
        for m in (_scaled_rows(1025, dtype), _scaled_rows(1025, dtype).astype(np.float64)):
            c = np.linalg.norm(m, axis=1)
            f = np.linalg.norm(np.asfortranarray(m), axis=1)
            assert c[-1] != f[-1]


def _whole_matrix_normalize_rows(m):
    """Reference: the whole-matrix formula."""
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1)[:, None]


class TestNormalizeRows:
    @pytest.mark.parametrize("rows", [1, 1025, 3000])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_equal_the_whole_matrix_formula(self, rows, dtype):
        for layout, m in _layouts(_scaled_rows(rows, dtype, seed=3)).items():
            got = normalize_rows(m)
            want = _whole_matrix_normalize_rows(m)
            assert got.dtype == np.float64, layout
            assert got.tobytes() == want.tobytes(), layout

    def test_never_writes_a_float64_input(self):
        m = _scaled_rows(1500, np.float64, seed=4)
        before = m.copy()
        for arg in (m, m[::2], m[10:900], EmbeddingMatrix(m)):
            out = normalize_rows(arg)
            assert not np.shares_memory(out, m)
            assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_needs_only_its_float64_output(self, dtype):
        # The norm block is freed before the output exists; a float64 copy of
        # the input, or a block held beside the output, would add 2 MB or more.
        m = np.random.default_rng(5).standard_normal((8192, 256)).astype(dtype)
        out_bytes = m.size * 8
        tracemalloc.start()
        try:
            out = normalize_rows(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + 1_000_000
        assert out.tobytes() == _whole_matrix_normalize_rows(m).tobytes()
