"""Dense vector primitives: normalization, cosine similarity, top-k search.

All similarity math runs in float64 regardless of storage dtype, so rankings
are reproducible across batch sizes and thread counts. Cosine scores are
clamped to [-1, 1] after the fact; floating-point drift must never leak
out-of-range values into downstream argmax/softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyKeys, ZeroVector

# Norms below this are treated as zero vectors.
ZERO_NORM = 1e-12
# Rows within this of unit norm are considered already normalized.
UNIT_TOLERANCE = 1e-6


@dataclass
class EmbeddingMatrix:
    """A (rows x dim) block of embeddings with optional per-row labels."""

    vectors: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            raise ValueError("embedding matrix contains NaN or Inf")
        if self.labels is not None:
            if len(self.labels) != self.vectors.shape[0]:
                raise ValueError(
                    f"{len(self.labels)} labels for {self.vectors.shape[0]} rows"
                )
            self.labels = [str(l) for l in self.labels]

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

    def row(self, i: int) -> np.ndarray:
        return self.vectors[i]


@dataclass(frozen=True)
class ScoredIndex:
    """A key row index together with its cosine similarity to the query."""

    index: int
    score: float


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


def normalize_rows(matrix) -> np.ndarray:
    """Row-wise unit normalization in float64. Raises ZeroVector naming the row."""
    m = np.asarray(as_vectors(matrix), dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    bad = np.flatnonzero(norms < ZERO_NORM)
    if bad.size:
        raise ZeroVector(f"row {int(bad[0])} has norm {norms[bad[0]]:.3e}")
    return m / norms[:, None]


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


def similarity_matrix(queries, keys) -> np.ndarray:
    """All-pairs cosine similarity, entry (i, j) = cosine(queries[i], keys[j]).

    Computed as one float64 matrix product over row-normalized inputs; a
    single call keeps the summation order fixed, so results do not depend on
    how callers batch their queries.
    """
    q = as_vectors(queries)
    k = as_vectors(keys)
    if q.shape[1] != k.shape[1]:
        raise DimensionMismatch(
            f"queries have dim {q.shape[1]}, keys have dim {k.shape[1]}"
        )
    sims = normalize_rows(q) @ normalize_rows(k).T
    return np.clip(sims, -1.0, 1.0)


def top_k(query, keys, k: int) -> list[ScoredIndex]:
    """Exact top-k rows of `keys` by cosine similarity to `query`.

    Results are sorted by score descending with ties broken by ascending row
    index, computed via a stable full sort so the output equals the k best of
    a complete scan even in the presence of duplicate scores.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    km = as_vectors(keys)
    if km.shape[0] == 0:
        raise EmptyKeys("cannot select top-k from an empty key set")
    qv = normalize(query)
    if qv.shape[0] != km.shape[1]:
        raise DimensionMismatch(
            f"query has dim {qv.shape[0]}, keys have dim {km.shape[1]}"
        )
    scores = np.clip(normalize_rows(km) @ qv, -1.0, 1.0)
    order = np.argsort(-scores, kind="stable")[: min(k, km.shape[0])]
    return [ScoredIndex(int(i), float(scores[i])) for i in order]
