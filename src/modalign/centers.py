"""Class-wise anchor sets built from the most prompt-similar descriptions.

For each category, the candidate pool is the knowledge-base rows labeled with
that category (optionally filtered by source). Candidates are ranked by
cosine similarity to the category's prompt embedding and the top k become
the category's anchor set. `sweep_k` is the one ranking path: it ranks each
category once, to the largest k requested, and slices a prefix per k, which
makes k-sweeps cheap and guarantees that growing k never reorders earlier
members. `localize` is its one-k case.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MissingCategory
from .kb import KnowledgeBase, Source
from .serialize import INTEGER, LIST, STRING, atomic_write_bytes, field_problem, is_int, read_header
from .ubem import read_ubem_file_stream, write_ubem_stream
from .vectors import EmbeddingMatrix, top_k

logger = logging.getLogger(__name__)

DEFAULT_K = 50
DEFAULT_PROMPT_TEMPLATE = "A photo of a [Category]"
_PLACEHOLDER = "[Category]"


@dataclass(frozen=True)
class PromptSet:
    """The basic prompt template, which drives anchor localization."""

    basic_template: str = DEFAULT_PROMPT_TEMPLATE

    def __post_init__(self):
        if self.basic_template.count(_PLACEHOLDER) != 1:
            raise ValueError(
                f"basic template must contain exactly one {_PLACEHOLDER!r} placeholder"
            )

    def fill(self, category: str) -> str:
        return self.basic_template.replace(_PLACEHOLDER, category)


@dataclass
class EmbeddingCenter:
    """One category's anchor set, ordered by similarity to its prompt."""

    category: str
    member_rows: list[int]
    member_scores: list[float]
    member_embeddings: EmbeddingMatrix
    k_requested: int

    @property
    def size(self) -> int:
        return len(self.member_rows)


@dataclass
class CenterSet:
    """Anchor sets for every classification category, plus their prompts."""

    centers: dict[str, EmbeddingCenter]
    prompt_embeddings: dict[str, np.ndarray]
    k: int
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE

    @property
    def dim(self) -> int:
        first = next(iter(self.centers.values()))
        return first.member_embeddings.dim


def prompts_from_matrix(matrix: EmbeddingMatrix) -> dict[str, np.ndarray]:
    """Interpret a labeled matrix as one prompt embedding per category."""
    if matrix.labels is None:
        raise ValueError("prompt matrix must carry category labels")
    prompts: dict[str, np.ndarray] = {}
    for label, row in zip(matrix.labels, matrix.vectors):
        if label in prompts:
            raise ValueError(f"duplicate prompt for category {label!r}")
        prompts[label] = np.asarray(row, dtype=np.float64)
    return prompts


def _rank_category(
    kb: KnowledgeBase,
    category: str,
    prompt: np.ndarray,
    source_filter: Source | None,
    width: int,
) -> tuple[list[int], list[float]]:
    """The `width` candidate rows of a category most similar to its prompt."""
    rows = kb.category_rows(category, source_filter)
    if not rows:
        raise MissingCategory(f"category {category!r} has no candidate descriptions")
    prompt = np.asarray(prompt, dtype=np.float64)
    if prompt.shape[0] != kb.dim:
        raise DimensionMismatch(
            f"prompt for {category!r} has dim {prompt.shape[0]}, knowledge base has {kb.dim}"
        )
    candidates = kb.embeddings.vectors[rows]
    order, scores = top_k(prompt[None, :], candidates, width)
    return [rows[i] for i in order[0].tolist()], scores[0].tolist()


def localize(
    kb: KnowledgeBase,
    prompt_embeddings: dict[str, np.ndarray],
    k: int = DEFAULT_K,
    source_filter: Source | None = None,
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE,
) -> CenterSet:
    """Build one anchor set per category from its top-k prompt-similar rows.

    The one-k case of `sweep_k`: categories with fewer than k candidates keep
    everything they have, and that case is logged as a warning.
    """
    return sweep_k(kb, prompt_embeddings, [k], source_filter, prompt_template)[k]


def sweep_k(
    kb: KnowledgeBase,
    prompt_embeddings: dict[str, np.ndarray],
    k_values: list[int],
    source_filter: Source | None = None,
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE,
) -> dict[int, CenterSet]:
    """One CenterSet per k, sharing a single per-category ranking.

    Each category is ranked once, to the largest k; every k slices that
    ranking, so members at a smaller k are always a prefix of members at a
    larger k. A category with fewer candidates than the largest k is logged
    as a warning and keeps everything it has.
    """
    if not k_values:
        raise ValueError("k_values must be non-empty")
    if any(k < 1 for k in k_values):
        raise ValueError(f"every k must be >= 1, got {k_values}")
    width = max(k_values)
    centers: dict[int, dict[str, EmbeddingCenter]] = {k: {} for k in sorted(set(k_values))}
    prompts: dict[str, np.ndarray] = {}
    for category in sorted(prompt_embeddings):
        rows, scores = _rank_category(
            kb, category, prompt_embeddings[category], source_filter, width
        )
        if len(rows) < width:
            logger.warning(
                "category %r has only %d descriptions for k=%d", category, len(rows), width
            )
        for k, by_category in centers.items():
            members = rows[:k]
            matrix = EmbeddingMatrix(  # fancy indexing copies the rows
                kb.embeddings.vectors[members], [kb.records[r].id for r in members]
            )
            by_category[category] = EmbeddingCenter(category, members, scores[:k], matrix, k)
        prompts[category] = np.asarray(prompt_embeddings[category], dtype=np.float64)
    return {
        k: CenterSet(by_category, dict(prompts), k, prompt_template)
        for k, by_category in centers.items()
    }


def save_center_set(path, center_set: CenterSet) -> None:
    """Write a center-set file: one JSON header line, then two UBEM blobs.

    Blob 1 holds all member embeddings concatenated in category order; blob 2
    holds the per-category prompt embeddings.
    """
    header = {
        "format": "center-set",
        "version": 1,
        "k": center_set.k,
        "dim": center_set.dim,
        "prompt_template": center_set.prompt_template,
        "categories": [
            {
                "category": c.category,
                "prompt_text": PromptSet(basic_template=center_set.prompt_template).fill(
                    c.category
                ),
                "k_requested": c.k_requested,
                "member_rows": c.member_rows,
                "member_scores": c.member_scores,
            }
            for c in center_set.centers.values()
        ],
    }
    member_vectors = np.concatenate(
        [c.member_embeddings.vectors for c in center_set.centers.values()], axis=0
    )
    member_labels: list[str] = []
    for c in center_set.centers.values():
        member_labels.extend(c.member_embeddings.labels or [""] * c.size)
    prompt_labels = list(center_set.centers)
    prompt_vectors = np.stack(
        [center_set.prompt_embeddings[cat] for cat in prompt_labels]
    ).astype(np.float32)

    buf = io.BytesIO()
    buf.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
    buf.write(b"\n")
    write_ubem_stream(buf, EmbeddingMatrix(member_vectors, member_labels))
    write_ubem_stream(buf, EmbeddingMatrix(prompt_vectors, prompt_labels))
    atomic_write_bytes(Path(path), buf.getvalue())


def _is_cosine(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -1 <= value <= 1


_HEADER_FIELDS = {"k": INTEGER, "categories": LIST, "prompt_template": STRING}
# The field table of one center-set category entry.
_ENTRY_FIELDS = {
    "category": STRING,
    "member_rows": (
        lambda v: isinstance(v, list) and all(is_int(r) and r >= 0 for r in v),
        "a list of non-negative integers",
    ),
    "member_scores": (
        lambda v: isinstance(v, list) and all(_is_cosine(x) for x in v),
        "a list of cosines in [-1, 1]",
    ),
    "k_requested": INTEGER,
}


def load_center_set(path) -> CenterSet:
    """Read a center-set file; a malformed header or blob raises ValueError
    naming the file and, for a bad category entry, its index and the key."""
    with open(path, "rb") as f:
        header = read_header(f, path, "center-set")
        members = read_ubem_file_stream(f, path)
        prompt_matrix = read_ubem_file_stream(f, path)

    problem = field_problem(header, _HEADER_FIELDS, ("k", "categories"))
    if problem is not None:
        raise ValueError(f"{path}: center-set header: {problem}")
    template = header.get("prompt_template", DEFAULT_PROMPT_TEMPLATE)
    labels = members.labels or [""] * members.rows
    centers: dict[str, EmbeddingCenter] = {}
    offset = 0
    for i, entry in enumerate(header["categories"]):
        where = f"{path}: center-set category {i}"
        problem = field_problem(entry, _ENTRY_FIELDS, _ENTRY_FIELDS)
        if problem is not None:
            raise ValueError(f"{where}: {problem}")
        category, rows, scores = entry["category"], entry["member_rows"], entry["member_scores"]
        if len(scores) != len(rows):
            raise ValueError(f"{where}: 'member_scores' must hold one score per member row")
        if category in centers:
            raise ValueError(f"{where}: duplicate category {category!r}")
        end = offset + len(rows)
        block = EmbeddingMatrix(members.vectors[offset:end].copy(), labels[offset:end])
        scores = [float(x) for x in scores]
        centers[category] = EmbeddingCenter(category, rows, scores, block, entry["k_requested"])
        offset = end
    if offset != members.rows:
        raise ValueError(f"{path}: center-set member blob does not match header counts")
    return CenterSet(centers, prompts_from_matrix(prompt_matrix), header["k"], template)
