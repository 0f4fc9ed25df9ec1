"""Description knowledge base: records, their text embeddings, and indexes.

A knowledge base pairs a JSONL table of generated descriptions (id, category,
description, source) with a UBEM matrix of their text embeddings, row for
row. The two source kinds are kept distinguishable so ablations over
category-level vs. sample-level descriptions are a filter, not a rebuild.
Embeddings are unit-normalized once at ingest; rows already within tolerance
of unit norm are stored byte-for-byte untouched, which keeps export -> build
round trips lossless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    CountMismatch,
    DuplicateId,
    MalformedRecord,
    UnknownSample,
    ZeroVector,
)
from .serialize import atomic_write_text, read_jsonl
from .ubem import read_ubem, write_ubem
from .vectors import UNIT_TOLERANCE, ZERO_NORM, EmbeddingMatrix

RECORDS_FILENAME = "records.jsonl"
EMBEDDINGS_FILENAME = "embeddings.ubem"


class Source(str, Enum):
    """Which generator family produced a description."""

    LLM_CATEGORY = "llm_category"  # category-level descriptions
    MLLM_DATA = "mllm_data"  # per-sample descriptions paired with data


@dataclass(frozen=True)
class KnowledgeRecord:
    """One description row. For MLLM_DATA rows, `id` is the paired sample id."""

    id: str
    category: str
    description: str
    source: Source
    generator: str = ""


@dataclass
class KnowledgeBase:
    """Immutable store of records with aligned unit-norm text embeddings."""

    records: list[KnowledgeRecord]
    embeddings: EmbeddingMatrix
    category_index: dict[str, list[int]] = field(default_factory=dict)
    pair_index: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return self.embeddings.dim

    def category_rows(
        self, category: str, source_filter: Source | None = None
    ) -> list[int]:
        """All row indices carrying `category`, ascending; [] if unknown."""
        rows = self.category_index.get(category, [])
        if source_filter is None:
            return list(rows)
        return [r for r in rows if self.records[r].source == source_filter]

    def paired_text_embedding(self, sample_id: str) -> np.ndarray:
        """The unit-norm description embedding paired with a data sample."""
        row = self.pair_index.get(sample_id)
        if row is None:
            raise UnknownSample(f"no paired description for sample {sample_id!r}")
        return self.embeddings.vectors[row]

    def categories(self) -> list[str]:
        return sorted(self.category_index)

    def export(self, records_path, embeddings_path) -> None:
        """Write the records JSONL and the (normalized) embeddings UBEM."""
        save_records(records_path, self.records)
        write_ubem(
            embeddings_path,
            EmbeddingMatrix(self.embeddings.vectors, [r.id for r in self.records]),
        )


def _parse_record(line_number: int, obj) -> KnowledgeRecord:
    if not isinstance(obj, dict):
        raise MalformedRecord(line_number, "record is not a JSON object")
    for key in ("id", "category", "description", "source"):
        if key not in obj:
            raise MalformedRecord(line_number, f"missing field {key!r}")
        if not isinstance(obj[key], str):
            raise MalformedRecord(line_number, f"field {key!r} is not a string")
    if not obj["category"]:
        raise MalformedRecord(line_number, "category is empty")
    try:
        source = Source(obj["source"])
    except ValueError:
        raise MalformedRecord(
            line_number,
            f"source must be one of {[s.value for s in Source]}, got {obj['source']!r}",
        ) from None
    generator = obj.get("generator", "")
    if not isinstance(generator, str):
        raise MalformedRecord(line_number, "field 'generator' is not a string")
    return KnowledgeRecord(obj["id"], obj["category"], obj["description"], source, generator)


def load_records(path) -> list[KnowledgeRecord]:
    """Parse a records JSONL file; blank lines are skipped."""
    return [_parse_record(line_number, obj) for line_number, obj in read_jsonl(path)]


def save_records(path, records: list[KnowledgeRecord]) -> None:
    lines = []
    for r in records:
        obj = {
            "id": r.id,
            "category": r.category,
            "description": r.description,
            "source": r.source.value,
        }
        if r.generator:
            obj["generator"] = r.generator
        lines.append(json.dumps(obj, ensure_ascii=False))
    atomic_write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


def _ingest_rows(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize rows, keeping already-unit rows bit-identical.

    Rows whose norm is within UNIT_TOLERANCE of 1 pass through untouched so a
    normalize-store-reload cycle is idempotent at the byte level.
    """
    x = np.ascontiguousarray(vectors, dtype=np.float32)
    norms = np.linalg.norm(x.astype(np.float64), axis=1)
    zero = np.flatnonzero(norms < ZERO_NORM)
    if zero.size:
        raise ZeroVector(f"embedding row {int(zero[0])} has norm {norms[zero[0]]:.3e}")
    needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
    if needs.any():
        x = x.copy()
        x[needs] = (x[needs].astype(np.float64) / norms[needs, None]).astype(np.float32)
    return x


def from_parts(records: list[KnowledgeRecord], embeddings) -> KnowledgeBase:
    """Assemble and validate a knowledge base from in-memory pieces."""
    vectors = embeddings.vectors if isinstance(embeddings, EmbeddingMatrix) else np.asarray(embeddings)
    if len(records) != vectors.shape[0]:
        raise CountMismatch(
            f"{len(records)} records but {vectors.shape[0]} embedding rows"
        )
    seen: set[str] = set()
    for r in records:
        if r.id in seen:
            raise DuplicateId(f"record id {r.id!r} appears more than once")
        seen.add(r.id)

    matrix = EmbeddingMatrix(_ingest_rows(vectors), [r.id for r in records])
    category_index: dict[str, list[int]] = {}
    pair_index: dict[str, int] = {}
    for row, r in enumerate(records):
        category_index.setdefault(r.category, []).append(row)
        if r.source == Source.MLLM_DATA:
            pair_index[r.id] = row
    return KnowledgeBase(list(records), matrix, category_index, pair_index)


def build(records_path, embeddings_path) -> KnowledgeBase:
    """Load, validate, and index a knowledge base from its two files."""
    records = load_records(records_path)
    return from_parts(records, read_ubem(embeddings_path))


def load_kb_dir(kb_dir) -> KnowledgeBase:
    kb_dir = Path(kb_dir)
    return build(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)


def write_kb_dir(kb: KnowledgeBase, kb_dir) -> None:
    kb_dir = Path(kb_dir)
    kb_dir.mkdir(parents=True, exist_ok=True)
    kb.export(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)
