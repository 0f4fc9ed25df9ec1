"""Zero-shot classification and cross-modal retrieval evaluation.

Two scoring rules are provided: max cosine over a category's anchor members
(the anchor-set rule) and cosine against the normalized mean of a category's
prompt embeddings (the classic prompt-ensemble baseline). Both take the
anchors as `{category: rows}` (a CenterSet's `member_blocks()`, or
`group_rows` of a prompt matrix), normalize the queries once, score every
query against every category with one whole-matrix `unit_similarity`
product per category, and break argmax ties by ascending category name so
reports are reproducible.
Retrieval counts each query's rank over the query blocks of
`vectors.score_blocks`, which checks the dims and normalizes the gallery
once, and sorts nothing; it cuts no blocks of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyCenterSet, MissingRelevance, UnknownLabel, ZeroVector
from .vectors import (
    ZERO_NORM,
    EmbeddingMatrix,
    as_vectors,
    normalize,
    normalize_rows,
    score_blocks,
    unit_similarity,
)
from .vectors import top_k  # noqa: F401  (unused here; the benchmark tracer binds it)

# The recall cut-offs of a retrieval evaluation that sets none.
DEFAULT_RETRIEVAL_KS = (1, 5, 10, 20)


class ScoringMode(str, Enum):
    CENTER_MAX = "center_max"
    PROMPT_MEAN = "prompt_mean"


@dataclass
class EvalReport:
    top1_accuracy: float
    per_class_accuracy: dict[str, float]
    sample_count: int
    mode: ScoringMode

    def to_report(self) -> dict:
        return {
            "mode": self.mode.value,
            "sample_count": self.sample_count,
            "top1_accuracy": self.top1_accuracy,
            "per_class_accuracy": dict(sorted(self.per_class_accuracy.items())),
        }


@dataclass
class RetrievalReport:
    recall_at: dict[int, float]

    def to_report(self) -> dict:
        return {"recall_at": {str(k): v for k, v in sorted(self.recall_at.items())}}


def _anchor_blocks(anchors, mode: ScoringMode) -> dict[str, np.ndarray]:
    """Each category's anchor rows, by ascending name; PROMPT_MEAN reduces
    each block to its one normalized mean row."""
    if not anchors:
        raise EmptyCenterSet("anchor set has no categories")
    blocks: dict[str, np.ndarray] = {}
    for cat in sorted(anchors):
        block = as_vectors(anchors[cat])
        if block.shape[0] == 0:
            raise EmptyCenterSet(f"category {cat!r} has no anchor rows")
        if mode == ScoringMode.PROMPT_MEAN:
            mean = normalize_rows(block).mean(axis=0)
            if np.linalg.norm(mean) < ZERO_NORM:
                raise ZeroVector(f"prompt embeddings for {cat!r} average to the zero vector")
            block = normalize(mean)[None, :]
        blocks[cat] = block
    return blocks


def category_scores(queries, anchors, mode: ScoringMode) -> tuple[list[str], np.ndarray]:
    """Every query's score against every category under the chosen rule.

    `anchors` maps each category to its anchor rows. Returns the category
    names in ascending order and a (query rows x categories) score matrix
    whose column j is each query's best cosine against category j's anchor
    rows (CENTER_MAX) or against their normalized mean (PROMPT_MEAN).
    """
    blocks = _anchor_blocks(anchors, mode)
    names = list(blocks)
    unit = normalize_rows(queries)
    scores = np.empty((unit.shape[0], len(names)))
    for j, cat in enumerate(names):
        scores[:, j] = unit_similarity(unit, blocks[cat]).max(axis=1)
    return names, scores


def evaluate_classification(
    queries: EmbeddingMatrix,
    categories: list[str],
    anchors,
    mode: ScoringMode,
) -> EvalReport:
    """Exact-count top-1 accuracy with a per-class breakdown.

    `anchors` maps each category to its anchor rows, as in
    `category_scores`; every query label must be one of its categories.
    A query matrix with no rows raises ValueError.
    """
    if queries.rows == 0:
        raise ValueError("query matrix has no rows")
    if len(categories) != queries.rows:
        raise ValueError(f"{len(categories)} labels for {queries.rows} queries")
    unknown = sorted(set(categories) - set(anchors))
    if unknown:
        raise UnknownLabel(f"queries labeled with absent categories: {unknown}")

    names, scores = category_scores(queries, anchors, mode)
    # argmax keeps the first maximum, so ties go to the ascending name.
    hits = [names[j] == label for j, label in zip(scores.argmax(axis=1).tolist(), categories)]
    class_hits: dict[str, list[bool]] = {}
    for hit, label in zip(hits, categories):
        class_hits.setdefault(label, []).append(hit)
    per_class = {label: sum(h) / len(h) for label, h in sorted(class_hits.items())}
    return EvalReport(sum(hits) / queries.rows, per_class, queries.rows, mode)


def category_relevance(
    query_ids: list[str],
    query_categories: list[str],
    gallery_ids: list[str],
    gallery_categories: list[str],
) -> dict[str, set[str]]:
    """Class-level relevance: each query matches all same-category gallery ids."""
    by_category: dict[str, set[str]] = {}
    for gid, cat in zip(gallery_ids, gallery_categories):
        by_category.setdefault(cat, set()).add(gid)
    return {
        qid: set(by_category.get(cat, set()))
        for qid, cat in zip(query_ids, query_categories)
    }


def evaluate_retrieval(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    relevance: dict[str, set[str]],
    ks: list[int],
) -> RetrievalReport:
    """Recall@k over cosine-ranked galleries.

    A query's rank is the count of gallery rows scoring above its best
    relevant row, plus those tying it at a lower row index: that row's place
    in the stable descending sort. R@k is the share of ranks below k. A
    query matrix with no rows raises ValueError.
    """
    if not ks or sorted(ks) != list(ks) or ks[0] < 1:
        raise ValueError(f"ks must be ascending positive integers, got {ks}")
    if queries.rows == 0:
        raise ValueError("query matrix has no rows")
    columns: dict[str, list[int]] = {}  # a repeated gallery id keeps every column
    for j, gid in enumerate(gallery.ids):
        columns.setdefault(gid, []).append(j)
    query_ids = queries.ids
    ranks = np.empty(queries.rows)
    for rows, scores in score_blocks(queries, gallery):
        block_ids = query_ids[rows]
        relevant = np.zeros((len(block_ids), gallery.rows), dtype=bool)
        for i, qid in enumerate(block_ids):
            wanted = relevance.get(qid)
            hits = [j for gid in wanted or () for j in columns.get(gid, ())]
            if not hits:
                where = "items present in the gallery" if wanted else "gallery items"
                raise MissingRelevance(f"query {qid!r} has no relevant {where}")
            relevant[i, hits] = True
        best = np.where(relevant, scores, -np.inf).max(axis=1, keepdims=True)
        tied = scores == best
        # Ties rank ahead up to the first relevant one. Counts are float64 sums: a
        # bool sum would page in numpy code no other stage runs, raising peak RSS.
        ahead = (scores > best) | (tied & ~np.logical_or.accumulate(tied & relevant, axis=1))
        ranks[rows] = np.where(ahead, 1.0, 0.0).sum(axis=1)
    return RetrievalReport({k: int(np.count_nonzero(ranks < k)) / queries.rows for k in ks})
