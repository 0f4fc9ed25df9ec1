"""Description knowledge base: records, their text embeddings, and indexes.

A knowledge base pairs a JSONL table of generated descriptions (id, category,
description, source) with a UBEM matrix of their text embeddings, row for
row. The two source kinds are kept distinguishable so ablations over
category-level vs. sample-level descriptions are a filter, not a rebuild.
Embeddings are unit-normalized once at ingest; rows already within tolerance
of unit norm are stored byte-for-byte untouched, which keeps export -> build
round trips lossless.

Ingest memory: ingest has one path, and a built knowledge base holds its
payload and records and nothing else. It takes ownership of one float32
`EmbeddingMatrix` and normalizes its rows in place: `build` hands over the
matrix `read_ubem` returns, whose reader already checked it for NaN and Inf
and dropped each UBEM label once it was checked, and `from_parts` makes
exactly one float32 copy of the caller's array, which it never writes. The
matrix stays unlabeled: a row's id is its record's, and only `write_kb_dir`
lists the ids, to label the UBEM it writes. Norms come from
`vectors.row_norms`; one masked `np.divide` scales the rows that need it in
float64 and rounds them back in place, so no full-matrix float64 array
exists. The set of ids that checks them for duplicates is freed before
ingest, and `category_index` maps each category to one ascending intp
array, not to a list of Python ints.

Export memory: both files are streamed into their atomic temp files. The
records go out line by line through a text wrapper whose own buffer batches
the UTF-8 encoding, each field encoded with the C JSON string encoder, so
each line's bytes equal `json.dumps(record, ensure_ascii=False)`; the
embeddings go out as the stored float32 buffer itself. No whole-file copy of
either exists.
"""

from __future__ import annotations

import io
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
# `atomic_write_text` is unused here; the benchmark tracer binds the name.
from .serialize import atomic_write_text, atomic_writer, read_jsonl  # noqa: F401
from .ubem import read_ubem, write_ubem
from .vectors import UNIT_TOLERANCE, ZERO_NORM, EmbeddingMatrix, as_vectors, row_norms

RECORDS_FILENAME = "records.jsonl"
EMBEDDINGS_FILENAME = "embeddings.ubem"


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
    category_index: dict[str, np.ndarray] = field(default_factory=dict)
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
        """All row indices carrying `category`, ascending, as Python ints;
        [] if unknown."""
        rows = self.category_index.get(category)
        if rows is None:
            return []
        if source_filter is None:
            return rows.tolist()
        return [r for r in rows.tolist() if self.records[r].source == source_filter]

    def categories(self) -> list[str]:
        return sorted(self.category_index)


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


def _record_line(r: KnowledgeRecord) -> str:
    enc = encode_basestring
    generator = f', "generator": {enc(r.generator)}' if r.generator else ""
    return (
        f'{{"id": {enc(r.id)}, "category": {enc(r.category)}, '
        f'"description": {enc(r.description)}, "source": {enc(r.source.value)}'
        f"{generator}}}\n"
    )


def save_records(path, records: list[KnowledgeRecord]) -> None:
    """Write one JSON object per record, byte-identical to
    `json.dumps(obj, ensure_ascii=False)` over the fixed key order, streamed
    line by line into the atomic temp file."""
    with atomic_writer(path) as raw, io.TextIOWrapper(raw, "utf-8", newline="") as f:
        f.writelines(map(_record_line, records))


def _ingest_rows(x: np.ndarray) -> None:
    """Unit-normalize the rows of a float32 array in place, leaving
    already-unit rows bit-identical.

    Rows whose norm is within UNIT_TOLERANCE of 1 are not touched, so a
    normalize-store-reload cycle is idempotent at the byte level. Norms are
    `row_norms` in float64; the rows that need scaling are divided in
    float64 and rounded back into the array by one masked `np.divide`.
    """
    norms = row_norms(x)
    zero = np.flatnonzero(norms < ZERO_NORM)
    if zero.size:
        row = int(zero[0])
        raise ZeroVector(f"embedding row {row} has norm {norms[row]:.3e}")
    needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
    if needs.any():
        np.divide(x, norms[:, None], out=x, where=needs[:, None], casting="same_kind")


def _check_ids_unique(records: list[KnowledgeRecord]) -> None:
    """Raise DuplicateId on the first repeated record id; the set of ids seen
    is freed on return."""
    seen: set[str] = set()
    for r in records:
        if r.id in seen:
            raise DuplicateId(f"record id {r.id!r} appears more than once")
        seen.add(r.id)


def _category_index(records: list[KnowledgeRecord]) -> dict[str, np.ndarray]:
    """Each category's rows as one ascending intp array.

    A stable sort of the rows by category code groups each category's rows
    in ascending order; the groups are cut where the sorted code rises.
    The codes are float64, so the sort is the one `top_k` already runs.
    """
    codes = {c: float(i) for i, c in enumerate(dict.fromkeys(r.category for r in records))}
    keys = np.fromiter((codes[r.category] for r in records), np.float64, len(records))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # The cuts are shifted in Python: an intp `+ 1` would page in numpy code
    # that no other stage runs, which raises every workload's peak RSS.
    rises = np.flatnonzero(keys[1:] > keys[:-1]).tolist()
    cuts = [0, *(i + 1 for i in rises), len(records)]
    return {c: order[a:b] for c, a, b in zip(codes, cuts, cuts[1:])}


def _assemble(records: list[KnowledgeRecord], matrix: EmbeddingMatrix) -> KnowledgeBase:
    """Index `records` over `matrix`, which the knowledge base takes over:
    its rows are normalized in place and stay unlabeled."""
    if len(records) != matrix.rows:
        raise CountMismatch(f"{len(records)} records but {matrix.rows} embedding rows")
    _check_ids_unique(records)
    _ingest_rows(matrix.vectors)
    mllm_data = Source.MLLM_DATA  # one enum attribute lookup, not one per row
    pair_index = {r.id: row for row, r in enumerate(records) if r.source == mllm_data}
    return KnowledgeBase(list(records), matrix, _category_index(records), pair_index)


def from_parts(records: list[KnowledgeRecord], embeddings) -> KnowledgeBase:
    """Assemble and validate a knowledge base from in-memory pieces.

    The knowledge base gets exactly one float32 copy of `embeddings`, which
    is never written.
    """
    vectors = np.array(as_vectors(embeddings), np.float32, order="C")
    return _assemble(records, EmbeddingMatrix(vectors))


def build(records_path, embeddings_path) -> KnowledgeBase:
    """Load, validate, and index a knowledge base from its two files.

    The matrix `read_ubem` returns belongs to no one else, so the knowledge
    base takes it over as read; its finiteness was checked by the reader.
    """
    records = load_records(records_path)
    try:
        return _assemble(records, read_ubem(embeddings_path, keep_labels=False))
    except DuplicateId as e:  # name the repeating line, reading the file again only now
        first: dict[str, int] = {}
        for line_number, obj in read_jsonl(records_path):
            if first.setdefault(obj["id"], line_number) < line_number:
                raise DuplicateId(f"{records_path}: line {line_number}: {e}") from None
        raise


def load_kb_dir(kb_dir) -> KnowledgeBase:
    kb_dir = Path(kb_dir)
    return build(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)


def write_kb_dir(kb: KnowledgeBase, kb_dir) -> None:
    """Write the records JSONL and the normalized embeddings UBEM, whose rows
    are labeled with the record ids."""
    kb_dir = Path(kb_dir)
    kb_dir.mkdir(parents=True, exist_ok=True)
    save_records(kb_dir / RECORDS_FILENAME, kb.records)
    ids = [r.id for r in kb.records]
    write_ubem(kb_dir / EMBEDDINGS_FILENAME, EmbeddingMatrix(kb.embeddings.vectors, ids))
