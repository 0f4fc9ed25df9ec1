"""Dense vector primitives: normalization, cosine similarity, top-k search,
and the one place rows are cut into blocks.

`similarity_matrix` is the one similarity kernel. `score_blocks` runs it over
BLOCK_ROWS-row query blocks against unit keys, which it takes as given and
never normalizes: the caller normalizes them once, or reads them unit, as
`KnowledgeBase.read_unit_rows` does with the norms its ingest check took.
Given `normalize_rows(keys)`, each block is bit-identical to
`similarity_matrix(queries[rows], keys)`. `top_k`, the one ranking kernel,
and retrieval reduce its blocks, and retrieval counts ranks and sorts
nothing. Zero-shot scoring normalizes its queries once and keeps
one whole-matrix `unit_similarity` product per category. All similarity
math runs in float64 whatever the storage dtype, and cosine scores are
clamped to [-1, 1] after the fact, so drift never leaks out-of-range values
downstream.

`row_blocks` cuts NORM_BLOCK_ROWS-row slices for `row_norms`, the knowledge
base's read of its embeddings file and anchor ranking. A lone last row
joins the block before it, so a block holds up to
NORM_BLOCK_ROWS + 1 rows: numpy sums a lone row's squares pairwise whatever
the layout, and the BLAS sums a lone key row in another order.
Row norms come from `row_norms`, which sums squares in float64 and equals
`np.linalg.norm(m.astype(np.float64), axis=1)` bit for bit, but squares one
block at a time into one reused buffer, so a norm never costs a full-size
temporary.

What the kernels guarantee is the documented tie-breaks and byte-identical
output for identical inputs. They do not guarantee bit-identical scores
across batch shapes: a row scored inside a block of queries may differ in
the last bits from the same row scored alone, because the matrix product
may sum in a different order. The same holds for key rows: the BLAS sums a
lone key row in another order, and splits a wide product among its threads
at points that depend on the number of keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyKeys, ZeroVector

# Norms below this are treated as zero vectors.
ZERO_NORM = 1e-12
# Rows within this of unit norm are considered already normalized.
UNIT_TOLERANCE = 1e-6
# Query rows per `score_blocks` block. A small block keeps score and rank
# temporaries small, so ranking adds nothing to peak memory.
BLOCK_ROWS = 16
# Rows per `row_blocks` block (one more for a lone last row): bounds the
# buffers of `row_norms`, KB ingest and anchor ranking whatever the row count.
NORM_BLOCK_ROWS = 1024


@dataclass
class EmbeddingMatrix:
    """A (rows x dim) block of embeddings with optional per-row labels.

    Construction rejects NaN and Inf without a full-size temporary: NaN
    propagates through `min` and `max`, so both are finite exactly when
    every entry is.
    """

    vectors: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self.vectors.shape}")
        v = self.vectors
        if v.size and not (np.isfinite(v.min()) and np.isfinite(v.max())):
            raise ValueError("embedding matrix contains NaN or Inf")
        if self.labels is not None:
            if len(self.labels) != self.vectors.shape[0]:
                raise ValueError(
                    f"{len(self.labels)} labels for {self.vectors.shape[0]} rows"
                )

    @property
    def rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def ids(self) -> list[str]:
        """Per-row ids: the labels, or row numbers as strings when unlabeled."""
        return self.labels or [str(i) for i in range(self.rows)]


def as_vectors(x) -> np.ndarray:
    """Coerce an EmbeddingMatrix or array-like into a 2-D ndarray."""
    if isinstance(x, EmbeddingMatrix):
        return x.vectors
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    return arr


def normalize(vector) -> np.ndarray:
    """Scale a vector to unit L2 norm (float64). Raises ZeroVector if degenerate."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or Inf")
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM:
        raise ZeroVector(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm


def row_blocks(rows: int):
    """Yield slices of NORM_BLOCK_ROWS rows that cover range(rows) in order.

    A lone last row joins the block before it, which then has
    NORM_BLOCK_ROWS + 1 rows; a single row is a block only when it is all
    there is.
    """
    starts = list(range(0, rows, NORM_BLOCK_ROWS))
    if len(starts) > 1 and starts[-1] == rows - 1:
        starts.pop()
    yield from map(slice, starts, starts[1:] + [rows])


def row_norms(matrix) -> np.ndarray:
    """`np.linalg.norm(m.astype(np.float64), axis=1)` bit for bit, squared one
    `row_blocks` block at a time into one reused float64 buffer.

    Each row's norm is its own reduction, so the blocks change no output bit
    as long as every block sums its rows in the order the whole array would:
    the buffer takes the input's memory order (numpy sums along a C-ordered
    row pairwise and down the columns of an F-ordered one), and no block is
    a lone row, which numpy sums pairwise whatever the layout.
    """
    m = as_vectors(matrix)
    out = np.empty(m.shape[0])
    order = "F" if abs(m.strides[0]) < abs(m.strides[1]) else "C"
    buf = np.empty((min(NORM_BLOCK_ROWS + 1, m.shape[0]), m.shape[1]), order=order)
    for rows in row_blocks(m.shape[0]):
        block = m[rows]
        squares = buf[: block.shape[0]]
        if block.dtype != np.float64:
            # Cast, then square in place: the same products, but faster than
            # one multiply that casts its float32 inputs as it goes.
            np.copyto(squares, block)
            block = squares
        np.multiply(block, block, out=squares)
        np.add.reduce(squares, axis=1, out=out[rows])
    return np.sqrt(out, out=out)


def normalize_rows(matrix) -> np.ndarray:
    """Row-wise unit normalization in float64. Raises ZeroVector naming the row.

    Norms are taken from the input in float64 first, so their block buffer
    is freed before the one fresh float64 copy of the input is made; that
    copy is divided in place, and the input is never written.
    """
    m = as_vectors(matrix)
    norms = row_norms(m)
    bad = np.flatnonzero(norms < ZERO_NORM)
    if bad.size:
        raise ZeroVector(f"row {int(bad[0])} has norm {norms[bad[0]]:.3e}")
    out = np.array(m, dtype=np.float64)
    return np.divide(out, norms[:, None], out=out)


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise DimensionMismatch(f"cosine over shapes {av.shape} and {bv.shape}")
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na < ZERO_NORM or nb < ZERO_NORM:
        raise ZeroVector("cosine is undefined for zero vectors")
    return float(np.clip(np.dot(av, bv) / (na * nb), -1.0, 1.0))


def _checked(queries, keys) -> tuple[np.ndarray, np.ndarray]:
    """Queries and keys as arrays, once their dims agree."""
    q = as_vectors(queries)
    k = as_vectors(keys)
    if q.shape[1] != k.shape[1]:
        raise DimensionMismatch(f"queries have dim {q.shape[1]}, keys have dim {k.shape[1]}")
    return q, k


def similarity_matrix(queries, keys) -> np.ndarray:
    """All-pairs cosine similarity, entry (i, j) = cosine(queries[i], keys[j]).

    Computed as one float64 matrix product over row-normalized inputs.
    Identical inputs give byte-identical output; a query row's scores may
    differ in the last bits depending on which other rows share the call.
    """
    q, k = _checked(queries, keys)
    return unit_similarity(normalize_rows(q), k)


def unit_similarity(unit_queries, keys) -> np.ndarray:
    """`similarity_matrix` for queries that are already unit rows, as
    `normalize_rows` returns them: only the keys are normalized, so a caller
    scoring one query matrix against many key sets normalizes it once.
    """
    q, k = _checked(unit_queries, keys)
    return np.clip(q @ normalize_rows(k).T, -1.0, 1.0)


def score_blocks(queries, keys):
    """Yield (rows, scores) for each BLOCK_ROWS-row block of `queries`
    against the unit rows `keys`: given `keys = normalize_rows(raw)`,
    `scores` equals `similarity_matrix(queries[rows], raw)` bit for bit.

    The keys are used as given, never normalized: keys that are not unit
    give scores that are not cosines. The dims are checked once per call,
    and each block of queries is normalized.
    """
    q, k = _checked(queries, keys)
    for start in range(0, q.shape[0], BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, q.shape[0]))
        yield rows, np.clip(normalize_rows(q[rows]) @ k.T, -1.0, 1.0)


def top_k(queries, keys, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k rows of the unit rows `keys` by cosine similarity, for
    every query row. The keys are used as given (see `score_blocks`); the
    queries need not be unit.

    Returns (indices, scores), both of shape (query rows, min(k, key rows)).
    Each row is sorted by score descending with ties broken by ascending key
    row, computed via a stable full sort so the output equals the k best of
    a complete scan even in the presence of duplicate scores.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = as_vectors(queries)
    km = as_vectors(keys)
    if km.shape[0] == 0:
        raise EmptyKeys("cannot select top-k from an empty key set")
    width = min(k, km.shape[0])
    indices = np.empty((q.shape[0], width), dtype=np.intp)
    scores = np.empty((q.shape[0], width))
    for rows, block in score_blocks(q, km):
        # Copy the kept columns out, so no full-width sort row stays alive.
        order = np.argsort(-block, axis=1, kind="stable")[:, :width]
        indices[rows] = order
        scores[rows] = np.take_along_axis(block, order, axis=1)
    return indices, scores
