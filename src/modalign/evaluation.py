"""Zero-shot classification and cross-modal retrieval evaluation.

Two scoring rules are provided: max cosine over a category's anchor members
(the anchor-set rule) and cosine against the normalized mean of a category's
prompt embeddings (the classic prompt-ensemble baseline). Both score every
query against every category with `similarity_matrix`, and argmax ties break
by ascending category name so reports are reproducible. Retrieval ranks all
queries with one batched `top_k` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .centers import CenterSet
from .errors import (
    DimensionMismatch,
    EmptyCenterSet,
    MissingRelevance,
    UnknownLabel,
    ZeroVector,
)
from .vectors import (
    ZERO_NORM,
    EmbeddingMatrix,
    as_vectors,
    normalize,
    normalize_rows,
    similarity_matrix,
    top_k,
)

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
    """Each category's anchor rows, by ascending name.

    CENTER_MAX uses a CenterSet's members; PROMPT_MEAN reduces each block of
    a {category: prompt matrix} mapping to its one normalized mean row.
    """
    if mode == ScoringMode.CENTER_MAX:
        raw = {cat: c.member_embeddings.vectors for cat, c in anchors.centers.items()}
    else:
        raw = {cat: as_vectors(block) for cat, block in anchors.items()}
    if not raw:
        raise EmptyCenterSet("anchor set has no categories")
    blocks: dict[str, np.ndarray] = {}
    for cat in sorted(raw):
        block = raw[cat]
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

    Returns the category names in ascending order and a (query rows x
    categories) score matrix whose column j is each query's best cosine
    against category j's anchor rows. `anchors` is a CenterSet for
    CENTER_MAX or a {category: prompt matrix} mapping for PROMPT_MEAN.
    """
    blocks = _anchor_blocks(anchors, mode)
    names = list(blocks)
    scores = np.empty((as_vectors(queries).shape[0], len(names)))
    for j, cat in enumerate(names):
        scores[:, j] = similarity_matrix(queries, blocks[cat]).max(axis=1)
    return names, scores


def evaluate_classification(
    queries: EmbeddingMatrix,
    categories: list[str],
    anchors,
    mode: ScoringMode,
) -> EvalReport:
    """Exact-count top-1 accuracy with a per-class breakdown.

    `anchors` is a CenterSet for CENTER_MAX or a {category: prompt matrix}
    mapping for PROMPT_MEAN; every query label must exist in it.
    """
    if len(categories) != queries.rows:
        raise ValueError(f"{len(categories)} labels for {queries.rows} queries")
    known = (
        set(anchors.centers) if isinstance(anchors, CenterSet) else set(anchors)
    )
    unknown = sorted(set(categories) - known)
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

    A query counts toward R@k when any of its relevant gallery ids appears in
    its k best-ranked gallery rows (ties by ascending gallery row index).
    """
    if not ks or sorted(ks) != list(ks) or ks[0] < 1:
        raise ValueError(f"ks must be ascending positive integers, got {ks}")
    if queries.dim != gallery.dim:
        raise DimensionMismatch(
            f"queries have dim {queries.dim}, gallery has dim {gallery.dim}"
        )
    query_ids = queries.ids
    gallery_ids = gallery.ids
    gallery_id_set = set(gallery_ids)
    for qid in query_ids:
        relevant = relevance.get(qid)
        if not relevant:
            raise MissingRelevance(f"query {qid!r} has no relevant gallery items")
        if not (relevant & gallery_id_set):
            raise MissingRelevance(
                f"query {qid!r} has no relevant items present in the gallery"
            )

    ranked, _ = top_k(queries, gallery, ks[-1])
    # Each query's rank of its first relevant row; ks[-1] when none is ranked.
    first_hits = [
        next((r for r, j in enumerate(row.tolist()) if gallery_ids[j] in relevance[qid]), ks[-1])
        for qid, row in zip(query_ids, ranked)
    ]
    return RetrievalReport({k: sum(f < k for f in first_hits) / queries.rows for k in ks})
