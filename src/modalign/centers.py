"""Class-wise anchor sets built from the most prompt-similar descriptions.

For each category, the candidate pool is the knowledge-base rows labeled with
that category (optionally filtered by source). Candidates are ranked by
cosine similarity to the category's prompt embedding and the top k become
the category's anchor set. Ranking each category once and slicing prefixes
makes k-sweeps cheap and guarantees that growing k never reorders earlier
members.
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
from .serialize import atomic_write_bytes
from .ubem import read_ubem_stream, write_ubem_stream
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

    def categories(self) -> list[str]:
        return list(self.centers)


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
) -> tuple[list[int], list[float]]:
    """Full similarity ranking of a category's candidate rows."""
    rows = kb.category_rows(category, source_filter)
    if not rows:
        raise MissingCategory(f"category {category!r} has no candidate descriptions")
    prompt = np.asarray(prompt, dtype=np.float64)
    if prompt.shape[0] != kb.dim:
        raise DimensionMismatch(
            f"prompt for {category!r} has dim {prompt.shape[0]}, knowledge base has {kb.dim}"
        )
    candidates = kb.embeddings.vectors[rows]
    ranked = top_k(prompt, candidates, len(rows))
    return [rows[s.index] for s in ranked], [s.score for s in ranked]


def _center_from_ranking(
    kb: KnowledgeBase,
    category: str,
    ranked_rows: list[int],
    ranked_scores: list[float],
    k: int,
) -> EmbeddingCenter:
    member_rows = ranked_rows[:k]
    member_scores = ranked_scores[:k]
    members = EmbeddingMatrix(
        kb.embeddings.vectors[member_rows].copy(),
        [kb.records[r].id for r in member_rows],
    )
    return EmbeddingCenter(category, member_rows, member_scores, members, k)


def localize(
    kb: KnowledgeBase,
    prompt_embeddings: dict[str, np.ndarray],
    k: int = DEFAULT_K,
    source_filter: Source | None = None,
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE,
) -> CenterSet:
    """Build one anchor set per category from its top-k prompt-similar rows.

    Categories with fewer than k candidates keep everything they have; that
    case is logged as a warning rather than treated as an error.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    centers: dict[str, EmbeddingCenter] = {}
    prompts: dict[str, np.ndarray] = {}
    for category in sorted(prompt_embeddings):
        ranked_rows, ranked_scores = _rank_category(
            kb, category, prompt_embeddings[category], source_filter
        )
        if len(ranked_rows) < k:
            logger.warning(
                "category %r has only %d descriptions for k=%d",
                category,
                len(ranked_rows),
                k,
            )
        centers[category] = _center_from_ranking(kb, category, ranked_rows, ranked_scores, k)
        prompts[category] = np.asarray(prompt_embeddings[category], dtype=np.float64)
    return CenterSet(centers, prompts, k, prompt_template)


def sweep_k(
    kb: KnowledgeBase,
    prompt_embeddings: dict[str, np.ndarray],
    k_values: list[int],
    source_filter: Source | None = None,
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE,
) -> dict[int, CenterSet]:
    """One CenterSet per k, sharing a single per-category ranking.

    Because every k slices the same ranking, members at a smaller k are
    always a prefix of members at a larger k.
    """
    if not k_values:
        raise ValueError("k_values must be non-empty")
    if any(k < 1 for k in k_values):
        raise ValueError(f"every k must be >= 1, got {k_values}")
    rankings: dict[str, tuple[list[int], list[float]]] = {}
    prompts: dict[str, np.ndarray] = {}
    for category in sorted(prompt_embeddings):
        rankings[category] = _rank_category(
            kb, category, prompt_embeddings[category], source_filter
        )
        prompts[category] = np.asarray(prompt_embeddings[category], dtype=np.float64)

    result: dict[int, CenterSet] = {}
    for k in sorted(set(k_values)):
        centers = {
            category: _center_from_ranking(kb, category, rows, scores, k)
            for category, (rows, scores) in rankings.items()
        }
        result[k] = CenterSet(centers, dict(prompts), k, prompt_template)
    return result


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


def load_center_set(path) -> CenterSet:
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as e:
            raise ValueError(f"bad center-set header: {e.msg}") from e
        if header.get("format") != "center-set" or header.get("version") != 1:
            raise ValueError("not a version-1 center-set file")
        members = read_ubem_stream(f)
        prompt_matrix = read_ubem_stream(f)

    centers: dict[str, EmbeddingCenter] = {}
    offset = 0
    for entry in header["categories"]:
        size = len(entry["member_rows"])
        block = EmbeddingMatrix(
            members.vectors[offset : offset + size].copy(),
            (members.labels or [""] * members.rows)[offset : offset + size],
        )
        centers[entry["category"]] = EmbeddingCenter(
            entry["category"],
            list(entry["member_rows"]),
            [float(s) for s in entry["member_scores"]],
            block,
            int(entry["k_requested"]),
        )
        offset += size
    if offset != members.rows:
        raise ValueError("center-set member blob does not match header counts")
    prompts = prompts_from_matrix(prompt_matrix)
    return CenterSet(centers, prompts, int(header["k"]), header.get("prompt_template", DEFAULT_PROMPT_TEMPLATE))
