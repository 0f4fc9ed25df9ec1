"""Description knowledge base: records, their text embeddings, and indexes.

A knowledge base pairs a JSONL table of generated descriptions (id, category,
description, source) with a UBEM matrix of their text embeddings, row for
row. The two source kinds are kept distinguishable so ablations over
category-level vs. sample-level descriptions are a filter, not a rebuild.
Embeddings are unit-normalized once at ingest; rows already within tolerance
of unit norm are stored byte-for-byte untouched, which keeps export -> build
round trips lossless.

Ingest memory: `build` normalizes the float32 payload it has just read in
place, so it holds no second copy. `from_parts` never writes the caller's
array and makes at most one normalized float32 copy. Either way, norms and
scaling run in float64 through one block buffer of INGEST_BLOCK_ROWS rows
allocated once per call, so no full-matrix float64 array exists. Export
writes the stored matrix as it is and encodes each record field with the C
JSON string encoder; its bytes equal `json.dumps(record, ensure_ascii=False)`
line by line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CountMismatch,
    DuplicateId,
    MalformedRecord,
    ZeroVector,
)
from .serialize import atomic_write_text, read_jsonl
from .ubem import read_ubem, write_ubem
from .vectors import UNIT_TOLERANCE, ZERO_NORM, EmbeddingMatrix, as_vectors

RECORDS_FILENAME = "records.jsonl"
EMBEDDINGS_FILENAME = "embeddings.ubem"
# Rows per float64 norm pass in `_ingest_rows`: a fixed block bounds the
# float64 buffers whatever the knowledge-base size.
INGEST_BLOCK_ROWS = 1024


class Source(str, Enum):
    """Which generator family produced a description."""

    LLM_CATEGORY = "llm_category"  # category-level descriptions
    MLLM_DATA = "mllm_data"  # per-sample descriptions paired with data


_SOURCES = {s.value: s for s in Source}


class KnowledgeRecord(NamedTuple):
    """One description row, an immutable NamedTuple (a knowledge base holds
    one per description, so it is kept as cheap as a tuple). For MLLM_DATA
    rows, `id` is the paired sample id."""

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

    def categories(self) -> list[str]:
        return sorted(self.category_index)

    def export(self, records_path, embeddings_path) -> None:
        """Write the records JSONL and the (normalized) embeddings UBEM.

        The embeddings are written as they are: `from_parts` labels their rows
        with the record ids.
        """
        save_records(records_path, self.records)
        write_ubem(embeddings_path, self.embeddings)


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
    source = _SOURCES.get(obj["source"])
    if source is None:
        raise MalformedRecord(
            line_number, f"source must be one of {list(_SOURCES)}, got {obj['source']!r}"
        )
    generator = obj.get("generator", "")
    if not isinstance(generator, str):
        raise MalformedRecord(line_number, "field 'generator' is not a string")
    return KnowledgeRecord(
        obj["id"], sys.intern(obj["category"]), obj["description"], source, sys.intern(generator)
    )


def load_records(path) -> list[KnowledgeRecord]:
    """Parse a records JSONL file; blank lines are skipped."""
    try:
        return [_parse_record(line_number, obj) for line_number, obj in read_jsonl(path)]
    except MalformedRecord as e:  # _parse_record is not given the file
        raise MalformedRecord(e.line_number, e.problem, path) from e


def save_records(path, records: list[KnowledgeRecord]) -> None:
    """Write one JSON object per record, byte-identical to
    `json.dumps(obj, ensure_ascii=False)` over the fixed key order."""
    enc = encode_basestring
    lines = []
    for r in records:
        generator = f', "generator": {enc(r.generator)}' if r.generator else ""
        lines.append(
            f'{{"id": {enc(r.id)}, "category": {enc(r.category)}, '
            f'"description": {enc(r.description)}, "source": {enc(r.source.value)}'
            f"{generator}}}\n"
        )
    atomic_write_text(Path(path), "".join(lines))


def _ingest_rows(vectors: np.ndarray, owned: bool = False) -> np.ndarray:
    """Unit-normalize rows, keeping already-unit rows bit-identical.

    Rows whose norm is within UNIT_TOLERANCE of 1 pass through untouched so a
    normalize-store-reload cycle is idempotent at the byte level. Norms are
    taken in float64, INGEST_BLOCK_ROWS rows at a time, with the operations of
    `np.linalg.norm` into a buffer allocated once per call; each row's norm is
    its own reduction, so the blocks change no output bit. An `owned` float32
    array is normalized in place. Otherwise the caller's array is never
    written: the first row that needs scaling makes the one float32 output
    copy.
    """
    x = np.ascontiguousarray(vectors, dtype=np.float32)
    out = x if owned or not np.may_share_memory(x, vectors) else None
    block_rows = min(INGEST_BLOCK_ROWS, x.shape[0])
    wide, norm_buf = np.empty((block_rows, x.shape[1])), np.empty(block_rows)
    for start in range(0, x.shape[0], INGEST_BLOCK_ROWS):
        block = x[start : start + INGEST_BLOCK_ROWS]
        n = block.shape[0]
        rows, norms = wide[:n], norm_buf[:n]
        np.copyto(rows, block)
        np.add.reduce(np.multiply(rows, rows, out=rows), axis=1, out=norms)
        np.sqrt(norms, out=norms)
        zero = np.flatnonzero(norms < ZERO_NORM)
        if zero.size:
            row = int(zero[0])
            raise ZeroVector(f"embedding row {start + row} has norm {norms[row]:.3e}")
        needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
        if needs.any():
            if out is None:
                out = x.copy()
            np.copyto(rows, block)
            np.divide(rows, norms[:, None], out=rows)
            np.copyto(out[start : start + n], rows, where=needs[:, None])
    return x if out is None else out


def _assemble(records: list[KnowledgeRecord], vectors: np.ndarray, owned: bool) -> KnowledgeBase:
    if len(records) != vectors.shape[0]:
        raise CountMismatch(
            f"{len(records)} records but {vectors.shape[0]} embedding rows"
        )
    seen: set[str] = set()
    for r in records:
        if r.id in seen:
            raise DuplicateId(f"record id {r.id!r} appears more than once")
        seen.add(r.id)

    matrix = EmbeddingMatrix(_ingest_rows(vectors, owned), [r.id for r in records])
    category_index: dict[str, list[int]] = {}
    pair_index: dict[str, int] = {}
    mllm_data = Source.MLLM_DATA  # one enum attribute lookup, not one per row
    for row, r in enumerate(records):
        category_index.setdefault(r.category, []).append(row)
        if r.source == mllm_data:
            pair_index[r.id] = row
    return KnowledgeBase(list(records), matrix, category_index, pair_index)


def from_parts(records: list[KnowledgeRecord], embeddings) -> KnowledgeBase:
    """Assemble and validate a knowledge base from in-memory pieces.

    `embeddings` is never written; the knowledge base gets at most one
    normalized copy of it.
    """
    return _assemble(records, as_vectors(embeddings), owned=False)


def build(records_path, embeddings_path) -> KnowledgeBase:
    """Load, validate, and index a knowledge base from its two files.

    The payload just read belongs to no one else, so it is normalized in place.
    """
    records = load_records(records_path)
    return _assemble(records, read_ubem(embeddings_path).vectors, owned=True)


def load_kb_dir(kb_dir) -> KnowledgeBase:
    kb_dir = Path(kb_dir)
    return build(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)


def write_kb_dir(kb: KnowledgeBase, kb_dir) -> None:
    kb_dir = Path(kb_dir)
    kb_dir.mkdir(parents=True, exist_ok=True)
    kb.export(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)
