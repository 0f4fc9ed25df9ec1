"""Description knowledge base: record columns, their text embeddings, and indexes.

A knowledge base pairs a JSONL table of generated descriptions (id, category,
description, source, optional generator) with a UBEM matrix of their text
embeddings, row for row. The two source kinds are kept distinguishable so
ablations over category-level vs. sample-level descriptions are a filter, not
a rebuild. Embeddings are unit-normalized once at ingest; rows already within
tolerance of unit norm are stored byte-for-byte untouched, which keeps
export -> build round trips lossless.

Ingest memory: the records file is parsed once, in one pass, and a built
knowledge base keeps of it only what the flow reads: the ids, once, as the
labels of its embedding matrix; each row's source as one uint8 code;
`category_index`, which maps each category to one ascending intp array of its
rows and is cut from a per-row category code; and `pair_index`. No
description or generator string outlives the parse, and the set of ids that
checks them for duplicates is freed before the embeddings are read. Ingest
has one path: it takes ownership of one float32 `EmbeddingMatrix` and
normalizes its rows in place. `build` hands over the matrix `read_ubem`
returns, whose reader already checked it for NaN and Inf and dropped each
UBEM label once it was checked, and `from_parts` makes exactly one float32
copy of the caller's array, which it never writes. Norms come from
`vectors.row_norms`; one masked `np.divide` scales the rows that need it in
float64 and rounds them back in place, so no full-matrix float64 array
exists.

Export memory: neither file is ever held whole. `load_records` writes each
record's canonical line into a text stream as soon as it has read the line;
`records_writer` yields the one for a knowledge-base directory, a text
wrapper whose own buffer batches the UTF-8 encoding into the atomic temp file
of `records.jsonl`, which is committed only when its block ends cleanly.
Each field is encoded with the C JSON string encoder, so each line's bytes
equal `json.dumps(record, ensure_ascii=False)`. `write_kb_dir` writes the
embeddings as the stored float32 buffer itself, labeled with the ids the
matrix already carries.

Fault order: `build` names the first fault it meets, in this order. The
records file is checked line by line, so its first malformed line or
repeated id, whichever comes first in the file, is named with its line;
then the embeddings file is read and checked; then the record count is
compared with the row count; then the rows' norms are checked.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import starmap
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple, TextIO

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


# A row's source code is its source's position in `Source`. Source is a str
# enum, so a source's JSON value finds the same code as its member.
_SOURCE_CODE = {s: code for code, s in enumerate(Source)}


class KnowledgeRecord(NamedTuple):
    """One description row in memory: what `save_records` writes and
    `from_parts` takes. For MLLM_DATA rows, `id` is the paired sample id."""

    id: str
    category: str
    description: str
    source: Source
    generator: str = ""


class RecordColumns(NamedTuple):
    """What a knowledge base keeps of its records, row for row."""

    ids: list[str]
    categories: dict[str, float]  # each category's code, in order of first appearance
    category_codes: array  # "d": each row's category code
    sources: array  # "B": each row's source code


@dataclass
class KnowledgeBase:
    """Unit-norm text embeddings, row for row with the records they came
    from, and what the flow reads of those records.

    `embeddings` is labeled with the record ids, the knowledge base's one
    list of them; `sources` holds each row's source code (its source's
    position in `Source`) as a uint8 array.
    """

    embeddings: EmbeddingMatrix
    sources: np.ndarray
    category_index: dict[str, np.ndarray] = field(default_factory=dict)
    pair_index: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.embeddings.rows

    @property
    def dim(self) -> int:
        return self.embeddings.dim

    @property
    def ids(self) -> list[str]:
        return self.embeddings.labels

    def category_rows(
        self, category: str, source_filter: Source | None = None
    ) -> list[int]:
        """All row indices carrying `category`, and `source_filter` when one
        is given, ascending, as Python ints; [] if unknown."""
        rows = self.category_index.get(category)
        if rows is None:
            return []
        if source_filter is not None:
            rows = rows[self.sources[rows] == _SOURCE_CODE[source_filter]]
        return rows.tolist()

    def categories(self) -> list[str]:
        return sorted(self.category_index)


def _record_problem(obj) -> str:
    """How a parsed records line that `_parse` refused breaks the table:
    the first check it fails, in the order the fields are listed."""
    if type(obj) is not dict:
        return "record is not a JSON object"
    for key in ("id", "category", "description", "source"):
        if key not in obj:
            return f"missing field {key!r}"
        if type(obj[key]) is not str:
            return f"field {key!r} is not a string"
    if not obj["category"]:
        return "category is empty"
    if obj["source"] not in _SOURCE_CODE:
        return f"source must be one of {[s.value for s in Source]}, got {obj['source']!r}"
    return "field 'generator' is not a string"  # the one check left


def _record_line(
    rid: str, category: str, description: str, source: str, generator: str = ""
) -> str:
    """A record's canonical line: `json.dumps(obj, ensure_ascii=False)` of its
    fields in this order, with `generator` left out when it is empty."""
    enc = encode_basestring
    tail = f', "generator": {enc(generator)}}}\n' if generator else "}\n"
    return (
        f'{{"id": {enc(rid)}, "category": {enc(category)}, '
        f'"description": {enc(description)}, "source": {enc(source)}{tail}'
    )


def _parse(
    numbered: Iterable[tuple[int, object]], path=None, sink: TextIO | None = None
) -> RecordColumns:
    """The columns of numbered records, each a parsed JSON value, in one pass.

    Each record's canonical line goes to the text stream `sink`, when one is
    given, as soon as it is checked. The first value that breaks the table
    raises MalformedRecord, and the first repeated id DuplicateId, each
    naming its line, and `path` when one is given.
    """
    write = None if sink is None else sink.write
    ids: list[str] = []
    seen: set[str] = set()
    categories: dict[str, float] = {}
    category_codes = array("d")
    sources = array("B")
    for line_number, obj in numbered:
        # JSON decodes objects and strings to exact dicts and strs.
        if type(obj) is dict:
            rid, category, description, source, generator = (
                obj.get("id"), obj.get("category"), obj.get("description"),
                obj.get("source"), obj.get("generator", ""),
            )
            if (
                type(rid) is type(category) is type(description) is type(source) is str
                and category
                and source in _SOURCE_CODE
                and type(generator) is str
            ):
                if write is not None:
                    write(_record_line(rid, category, description, source, generator))
                if rid in seen:
                    problem = f"line {line_number}: record id {rid!r} appears more than once"
                    raise DuplicateId(problem if path is None else f"{path}: {problem}")
                seen.add(rid)
                ids.append(rid)
                code = categories.get(category)
                if code is None:
                    code = categories[category] = float(len(categories))
                category_codes.append(code)
                sources.append(_SOURCE_CODE[source])
                continue
        raise MalformedRecord(line_number, _record_problem(obj), path)
    return RecordColumns(ids, categories, category_codes, sources)


def load_records(path, sink: TextIO | None = None) -> RecordColumns:
    """Parse a records JSONL file in one pass (`_parse`); blank lines are
    skipped, and the first malformed line or repeated id raises, naming the
    file and the line."""
    return _parse(read_jsonl(path), path, sink)


@contextmanager
def _text_writer(path) -> Iterator[TextIO]:
    """A UTF-8 text stream into `path`'s atomic temp file (`atomic_writer`)."""
    with atomic_writer(path) as raw, io.TextIOWrapper(raw, "utf-8", newline="") as f:
        yield f


def records_writer(kb_dir) -> AbstractContextManager[TextIO]:
    """Yield the text stream that `build` writes `kb_dir`'s records file into.

    The file replaces `<kb_dir>/records.jsonl` only when the block ends
    cleanly: a build, or any check after it in the block, that raises
    leaves neither the file, nor its temp file, nor a directory made for it.
    """
    return _text_writer(Path(kb_dir) / RECORDS_FILENAME)


def save_records(path, records: Iterable[KnowledgeRecord]) -> None:
    """Write each in-memory record's canonical line, streamed line by line
    into the atomic temp file."""
    with _text_writer(path) as f:
        f.writelines(starmap(_record_line, records))


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


def _category_index(columns: RecordColumns) -> dict[str, np.ndarray]:
    """Each category's rows as one ascending intp array.

    A stable sort of the rows by category code groups each category's rows
    in ascending order; the groups are cut where the sorted code rises.
    The codes are float64, so the sort is the one `top_k` already runs.
    """
    keys = np.frombuffer(columns.category_codes, np.float64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # The cuts are shifted in Python: an intp `+ 1` would page in numpy code
    # that no other stage runs, which raises every workload's peak RSS.
    rises = np.flatnonzero(keys[1:] > keys[:-1]).tolist()
    cuts = [0, *(i + 1 for i in rises), len(keys)]
    return {c: order[a:b] for c, a, b in zip(columns.categories, cuts, cuts[1:])}


def _assemble(columns: RecordColumns, matrix: EmbeddingMatrix) -> KnowledgeBase:
    """Index `columns` over `matrix`, which the knowledge base takes over:
    its rows are normalized in place and labeled with the record ids."""
    ids = columns.ids
    if len(ids) != matrix.rows:
        raise CountMismatch(f"{len(ids)} records but {matrix.rows} embedding rows")
    _ingest_rows(matrix.vectors)
    matrix.labels = ids  # set in place: a new matrix would scan the payload for NaN again
    mllm_data = _SOURCE_CODE[Source.MLLM_DATA]
    pair_index = {
        rid: row for row, (rid, code) in enumerate(zip(ids, columns.sources)) if code == mllm_data
    }
    sources = np.frombuffer(columns.sources, np.uint8)
    return KnowledgeBase(matrix, sources, _category_index(columns), pair_index)


def from_parts(records: list[KnowledgeRecord], embeddings) -> KnowledgeBase:
    """Assemble and validate a knowledge base from in-memory pieces.

    The records are checked as the lines of a records file are, numbered
    from 1. The knowledge base gets exactly one float32 copy of
    `embeddings`, which is never written.
    """
    vectors = np.array(as_vectors(embeddings), np.float32, order="C")
    objects = ({**r._asdict(), "source": r.source.value} for r in records)
    columns = _parse(enumerate(objects, start=1))
    return _assemble(columns, EmbeddingMatrix(vectors))


def build(records_path, embeddings_path, sink: TextIO | None = None) -> KnowledgeBase:
    """Load, validate, and index a knowledge base from its two files,
    writing each record's canonical line to `sink` when one is given (see
    `records_writer`). The module docstring gives the order of the checks.

    The matrix `read_ubem` returns belongs to no one else, so the knowledge
    base takes it over as read; its finiteness was checked by the reader.
    """
    columns = load_records(records_path, sink)
    return _assemble(columns, read_ubem(embeddings_path, keep_labels=False))


def load_kb_dir(kb_dir) -> KnowledgeBase:
    kb_dir = Path(kb_dir)
    return build(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)


def write_kb_dir(kb: KnowledgeBase, kb_dir) -> None:
    """Write `kb_dir`'s normalized embeddings UBEM, its rows labeled with
    the record ids. The records file is written as the records are parsed
    (`records_writer`), or from in-memory records by `save_records`."""
    write_ubem(Path(kb_dir) / EMBEDDINGS_FILENAME, kb.embeddings)
