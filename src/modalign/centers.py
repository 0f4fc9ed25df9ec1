"""Class-wise anchor sets built from the most prompt-similar descriptions.

For each category, the candidate pool is the knowledge-base rows labeled with
that category (optionally filtered by source). Candidates are ranked by
cosine similarity to the category's prompt embedding and the top k become
the category's anchor set. `sweep_k` is the one ranking path: it ranks each
category once, to the largest k requested, and slices a prefix per k, which
makes k-sweeps cheap and guarantees that growing k never reorders earlier
members. `localize` is its one-k case. A CenterSet holds its file's two
blobs; `member_blocks()` and `group_rows(prompts)` give the `{category:
rows}` anchors of the anchor-max and prompt-mean scoring rules.

A category's candidates are read and scored one `vectors.row_blocks` block
at a time (NORM_BLOCK_ROWS rows; a lone last row joins the block before it)
and the blocks' winners merged. `KnowledgeBase.read_rows` reads the unit
rows of each block from the knowledge base's file, and those of the members
once per k, so ranking holds one block's float32 rows and float64 copy at a
time, never the payload or a copy of every candidate. The merge is exact:
members and tie-break are those of one `top_k` over every candidate given
the same scores. A score is computed within its block, so, as `vectors`
says of query blocks, it can differ in the last bits from the score one
call over all candidates gives where the BLAS splits the two products
differently.
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
from .serialize import INTEGER, LIST, STRING, atomic_write_bytes, field_problem, is_int
from .ubem import read_container, write_ubem_stream
from .vectors import EmbeddingMatrix, row_blocks, top_k

logger = logging.getLogger(__name__)

DEFAULT_K = 50
DEFAULT_PROMPT_TEMPLATE = "A photo of a [Category]"
_PLACEHOLDER = "[Category]"


@dataclass
class EmbeddingCenter:
    """One category's anchor set, ordered by similarity to its prompt."""

    member_rows: list[int]
    member_scores: list[float]
    k_requested: int

    @property
    def size(self) -> int:
        return len(self.member_rows)


@dataclass
class CenterSet:
    """Anchor sets for every category, held as the file holds them: `members`
    concatenates the categories' member rows in `centers` order (labeled with
    record ids), and `prompts` has one row per category (labeled with its name)."""

    centers: dict[str, EmbeddingCenter]
    members: EmbeddingMatrix
    prompts: EmbeddingMatrix
    k: int
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE

    def member_blocks(self) -> dict[str, np.ndarray]:
        """Each category's member rows, as views of `members`."""
        blocks: dict[str, np.ndarray] = {}
        offset = 0
        for category, center in self.centers.items():
            blocks[category] = self.members.vectors[offset : offset + center.size]
            offset += center.size
        return blocks


def group_rows(matrix: EmbeddingMatrix, path=None) -> dict[str, np.ndarray]:
    """A labeled prompt matrix's rows grouped by label, in order of first
    appearance. An unlabeled matrix raises ValueError, naming `path` if given."""
    where = f"{path}: " if path else ""
    if matrix.labels is None:
        raise ValueError(f"{where}prompt matrix must carry category labels")
    grouped: dict[str, list[int]] = {}
    for i, label in enumerate(matrix.labels):
        grouped.setdefault(label, []).append(i)
    return {label: matrix.vectors[rows] for label, rows in grouped.items()}


def prompts_from_matrix(matrix: EmbeddingMatrix, path=None) -> dict[str, np.ndarray]:
    """Interpret a labeled matrix as one prompt embedding per category; a
    missing or repeated label raises ValueError, naming `path` if given."""
    where = f"{path}: " if path else ""
    prompts: dict[str, np.ndarray] = {}
    for label, rows in group_rows(matrix, path).items():
        if rows.shape[0] != 1:
            raise ValueError(f"{where}duplicate prompt for category {label!r}")
        prompts[label] = rows[0].astype(np.float64)
    return prompts


def _rank_category(
    kb: KnowledgeBase,
    category: str,
    prompt: np.ndarray,
    source_filter: Source | None,
    width: int,
) -> tuple[list[int], list[float]]:
    """The `width` candidate rows of a category most similar to its prompt,
    with their scores, best first and ties to the lower row.

    Each `row_blocks` block of candidates is read (`KnowledgeBase.read_rows`)
    and ranked by its own `top_k` call. A row in the overall top `width` is in its block's top
    `width`, so one stable sort of the blocks' winners, concatenated in row
    order, gives the same rows, order and tie-break as ranking all of them.
    """
    rows = kb.category_rows(category, source_filter)
    if not rows:
        raise MissingCategory(f"category {category!r} has no candidate descriptions")
    prompt = np.asarray(prompt, dtype=np.float64)
    if prompt.shape[0] != kb.dim:
        raise DimensionMismatch(
            f"prompt for {category!r} has dim {prompt.shape[0]}, knowledge base has {kb.dim}"
        )
    winners, winner_scores = [], []
    for block_rows in row_blocks(len(rows)):
        block = rows[block_rows]
        order, scores = top_k(prompt[None, :], kb.read_rows(block), width)
        winners += [block[i] for i in order[0].tolist()]
        winner_scores.append(scores[0])
    scores = np.concatenate(winner_scores)
    keep = np.argsort(-scores, kind="stable")[:width]
    return [winners[i] for i in keep.tolist()], scores[keep].tolist()


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
    rankings: dict[str, tuple[list[int], list[float]]] = {}
    for category, prompt in sorted(prompt_embeddings.items()):
        rows, scores = _rank_category(kb, category, prompt, source_filter, width)
        if len(rows) < width:
            logger.warning(
                "category %r has only %d descriptions for k=%d", category, len(rows), width
            )
        rankings[category] = rows, scores
    prompts = EmbeddingMatrix(
        np.array([prompt_embeddings[c] for c in rankings], dtype=np.float64), list(rankings)
    )
    sweeps: dict[int, CenterSet] = {}
    for k in sorted(set(k_values)):
        centers = {c: EmbeddingCenter(r[:k], s[:k], k) for c, (r, s) in rankings.items()}
        member_rows = [r for center in centers.values() for r in center.member_rows]
        members = EmbeddingMatrix(  # one read of every category's members
            kb.read_rows(member_rows), [kb.ids[r] for r in member_rows]
        )
        sweeps[k] = CenterSet(centers, members, prompts, k, prompt_template)
    return sweeps


def save_center_set(path, center_set: CenterSet) -> None:
    """Write a center-set file: one JSON header line, then the set's
    `members` and `prompts` as two UBEM blobs.

    Each category's `prompt_text` is the set's prompt template with the
    category in place of its one `[Category]` placeholder; a template with
    none or several raises ValueError before anything is written.
    """
    template = center_set.prompt_template
    if template.count(_PLACEHOLDER) != 1:
        raise ValueError(f"basic template must contain exactly one {_PLACEHOLDER!r} placeholder")
    header = {
        "format": "center-set",
        "version": 1,
        "k": center_set.k,
        "dim": center_set.members.dim,
        "prompt_template": template,
        "categories": [
            {
                "category": category,
                "prompt_text": template.replace(_PLACEHOLDER, category),
                "k_requested": c.k_requested,
                "member_rows": c.member_rows,
                "member_scores": c.member_scores,
            }
            for category, c in center_set.centers.items()
        ],
    }
    buf = io.BytesIO()
    buf.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
    buf.write(b"\n")
    write_ubem_stream(buf, center_set.members)
    write_ubem_stream(buf, center_set.prompts)
    atomic_write_bytes(Path(path), buf.getvalue())


def _is_cosine(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -1 <= value <= 1


_HEADER_FIELDS = {"k": INTEGER, "dim": INTEGER, "categories": LIST, "prompt_template": STRING}
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
    """Read a center-set file; a malformed header or blob, or blobs whose
    dim is not the header's, raises ValueError naming the file and, for a
    bad category entry, its index and the key."""
    header, (members, prompts) = read_container(path, "center-set", 2)
    problem = field_problem(header, _HEADER_FIELDS, ("k", "categories", "dim"))
    if problem is not None:
        raise ValueError(f"{path}: center-set header: {problem}")
    template = header.get("prompt_template", DEFAULT_PROMPT_TEMPLATE)
    centers: dict[str, EmbeddingCenter] = {}
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
        scores = [float(x) for x in scores]
        centers[category] = EmbeddingCenter(rows, scores, entry["k_requested"])
    if sum(c.size for c in centers.values()) != members.rows:
        raise ValueError(f"{path}: center-set member blob does not match header counts")
    if prompts.labels != list(centers):
        raise ValueError(f"{path}: center-set prompt blob labels must be the header's categories")
    if not members.dim == prompts.dim == header["dim"]:
        raise ValueError(
            f"{path}: center-set blobs of dim {members.dim} and {prompts.dim}, "
            f"not the header's dim {header['dim']}"
        )
    return CenterSet(centers, members, prompts, header["k"], template)
