"""Zero-shot classification and cross-modal retrieval evaluation.

Two scoring rules are provided: max cosine over a category's anchor members
(the anchor-set rule) and cosine against the normalized mean of a category's
prompt embeddings (the classic prompt-ensemble baseline). Argmax ties break
by ascending category name so reports are reproducible.
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
    top_k,
)


class ScoringMode(str, Enum):
    CENTER_MAX = "center_max"
    PROMPT_MEAN = "prompt_mean"


class Direction(str, Enum):
    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"


@dataclass
class Prediction:
    sample_id: str
    predicted_category: str
    score: float
    per_category_scores: dict[str, float]


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
    direction: Direction
    recall_at: dict[int, float]

    def to_report(self) -> dict:
        return {
            "direction": self.direction.value,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
        }


def _category_member_matrices(centers: CenterSet) -> dict[str, np.ndarray]:
    if not centers.centers:
        raise EmptyCenterSet("anchor set has no categories")
    return {
        cat: normalize_rows(c.member_embeddings.vectors)
        for cat, c in sorted(centers.centers.items())
    }


def _prompt_mean_matrix(prompt_sets: dict) -> dict[str, np.ndarray]:
    """Normalized mean prompt vector per category."""
    if not prompt_sets:
        raise EmptyCenterSet("prompt set has no categories")
    means: dict[str, np.ndarray] = {}
    for cat in sorted(prompt_sets):
        block = np.asarray(as_vectors(prompt_sets[cat]), dtype=np.float64)
        mean = normalize_rows(block).mean(axis=0)
        if np.linalg.norm(mean) < ZERO_NORM:
            raise ZeroVector(f"prompt embeddings for {cat!r} average to the zero vector")
        means[cat] = normalize(mean)
    return means


def _argmax_by_name(scores: dict[str, float]) -> tuple[str, float]:
    # max() keeps the first maximal item, so iterating sorted names breaks
    # ties by ascending category name.
    best = max(sorted(scores), key=lambda cat: scores[cat])
    return best, scores[best]


def score_center_max(query, centers: CenterSet, sample_id: str = "") -> Prediction:
    """Classify a query by its best cosine against each category's members."""
    members = _category_member_matrices(centers)
    q = normalize(query)
    scores: dict[str, float] = {}
    for cat, block in members.items():
        if block.shape[1] != q.shape[0]:
            raise DimensionMismatch(
                f"query dim {q.shape[0]} does not match anchor dim {block.shape[1]}"
            )
        scores[cat] = float(np.clip(block @ q, -1.0, 1.0).max())
    best, best_score = _argmax_by_name(scores)
    return Prediction(sample_id, best, best_score, scores)


def score_prompt_mean(query, prompt_sets: dict, sample_id: str = "") -> Prediction:
    """Classify a query by cosine against each category's mean prompt."""
    means = _prompt_mean_matrix(prompt_sets)
    q = normalize(query)
    scores: dict[str, float] = {}
    for cat, mean in means.items():
        if mean.shape[0] != q.shape[0]:
            raise DimensionMismatch(
                f"query dim {q.shape[0]} does not match prompt dim {mean.shape[0]}"
            )
        scores[cat] = float(np.clip(mean @ q, -1.0, 1.0))
    best, best_score = _argmax_by_name(scores)
    return Prediction(sample_id, best, best_score, scores)


def predict(queries: EmbeddingMatrix, anchors, mode: ScoringMode) -> list[Prediction]:
    """Score every query row under the chosen rule."""
    ids = queries.ids
    if mode == ScoringMode.CENTER_MAX:
        return [
            score_center_max(queries.vectors[i], anchors, ids[i])
            for i in range(queries.rows)
        ]
    return [
        score_prompt_mean(queries.vectors[i], anchors, ids[i])
        for i in range(queries.rows)
    ]


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

    predictions = predict(queries, anchors, mode)
    correct_total = 0
    class_total: dict[str, int] = {}
    class_correct: dict[str, int] = {}
    for prediction, label in zip(predictions, categories):
        class_total[label] = class_total.get(label, 0) + 1
        hit = prediction.predicted_category == label
        correct_total += hit
        class_correct[label] = class_correct.get(label, 0) + hit
    per_class = {
        label: class_correct[label] / class_total[label]
        for label in sorted(class_total)
    }
    return EvalReport(correct_total / queries.rows, per_class, queries.rows, mode)


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
    direction: Direction = Direction.A_TO_B,
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

    k_max = min(ks[-1], gallery.rows)
    hits = {k: 0 for k in ks}
    for i, qid in enumerate(query_ids):
        relevant = relevance[qid]
        ranked = top_k(queries.vectors[i], gallery, k_max)
        first_hit = None
        for rank, scored in enumerate(ranked):
            if gallery_ids[scored.index] in relevant:
                first_hit = rank
                break
        if first_hit is None:
            continue
        for k in ks:
            if first_hit < k:
                hits[k] += 1
    recall = {k: hits[k] / queries.rows for k in ks}
    return RetrievalReport(direction, recall)
