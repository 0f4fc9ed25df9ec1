"""Description knowledge base: record columns, their text embeddings, and indexes.

A knowledge base pairs a JSONL table of generated descriptions (id, category,
description, source, optional generator) with a UBEM matrix of their text
embeddings, row for row. The two source kinds are kept distinguishable so
ablations over category-level vs. sample-level descriptions are a filter, not
a rebuild. Embeddings are unit-normalized at ingest; rows already within
tolerance of unit norm are stored byte-for-byte untouched, which keeps
export -> build round trips lossless.

Ingest memory: the records file is parsed once, in one pass, into only what
the flow reads (`RecordColumns`): the ids, as one `ubem.LabelBlock`, the
bytes of the exported UBEM's label block plus one uint64 end offset per
row; each row's source as one uint8 code; `category_index`, which maps each
category to one ascending intp array of its rows; and `pair_index`. Both
indexes grow as the lines are read, each line checked by the one schema
check `_record_problem`. No description or generator string outlives the
parse, and no id is held as a str, except an MLLM_DATA row's as its
`pair_index` key. Repeated ids are found without a set of them: each id's
hash goes, rounded to a float64, into one array that is freed with the
parse, and one stable argsort of it puts equal hashes side by side; only
ids that share a hash are decoded and compared. A float64 stable argsort
and `==` are numpy routines that ranking and retrieval run anyway. The
knowledge base never holds its float payload either, only the path of a
UBEM file of its rows. `build` reads the embeddings file once, one
`vectors.row_blocks` block at a time through one reused float32 buffer, and
checks and normalizes each block in place with the ingest rule
(`_ingest_rows`). When it exports, it writes each normalized block straight
into the atomic temp file of `embeddings.ubem`, and the knowledge base it
returns reads that file back. One private reader serves both readers of
the rows after build: it reads only the rows it is asked for, one `readinto`
per run of consecutive rows, and runs the ingest rule on them again, so a
file changed after build raises rather than scores NaN. On rows that are
already unit, as an exported file's are, the rule computes their norms,
divides nothing and hands the norms back. `read_rows` returns the float32
rows; `read_unit_rows` divides one float64 copy of them by those norms,
which is `normalize_rows` of the float32 rows bit for bit with one norm
pass instead of two. Norms come from `vectors.row_norms`;
one `np.divide` scales the rows that need it in float64 and rounds them
back in place, so no float64 block outlives it. It is masked only when some
rows of the block are already unit: a divide without a mask costs about
half as much.

Export memory: neither file is ever held whole. `write_kb_dir` yields the
atomic temp files of a knowledge-base directory, and `build` writes into
them as it reads: each record's canonical line as soon as it has read the
line, through a text wrapper whose own buffer batches the UTF-8 encoding,
and each block of normalized rows as soon as it is checked, then the ids'
label block, whose bytes the parse already encoded. Both files are
committed only when the block ends cleanly. Each field is encoded with the
C JSON string encoder, so each line's bytes equal `json.dumps(record,
ensure_ascii=False)`.

Fault order: `build` names the first fault it meets, in this order. The
records file's lines are checked as they are read, and its repeated ids
when the parse ends or stops at a malformed line, so its first malformed
line or repeated id, whichever comes first in the file, is named with its
line (a string field holding a lone surrogate, which has no UTF-8 form, is
malformed); then the embeddings file's header and the payload size it
claims; then the record count is compared with the header's row count;
then the payload's rows are checked in row order, and the first that is
not finite or has a zero norm is named with the file and its row; then the
label block's labels are checked, and dropped.
"""

from __future__ import annotations

import io
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice, starmap
from json.encoder import encode_basestring
from pathlib import Path
from typing import BinaryIO, NamedTuple, TextIO

import numpy as np

from .errors import (
    CountMismatch,
    DuplicateId,
    MalformedRecord,
    ZeroVector,
)
# `atomic_write_text`, `read_ubem` and `write_ubem` are unused here; the
# benchmark tracer binds the names.
from .serialize import atomic_write_text, atomic_writer, read_jsonl  # noqa: F401
from .ubem import (  # noqa: F401
    LabelBlock,
    naming,
    read_header,
    read_label_block,
    read_payload,
    read_ubem,
    write_header,
    write_label_block,
    write_ubem,
)
from .vectors import NORM_BLOCK_ROWS, UNIT_TOLERANCE, ZERO_NORM, row_blocks, row_norms

RECORDS_FILENAME = "records.jsonl"
EMBEDDINGS_FILENAME = "embeddings.ubem"


class Source(str, Enum):
    """Which generator family produced a description."""

    LLM_CATEGORY = "llm_category"  # category-level descriptions
    MLLM_DATA = "mllm_data"  # per-sample descriptions paired with data


# A row's source code is its source's position in `Source`. Source is a str
# enum, so a source's JSON value finds the same code as its member.
_SOURCE_CODE = {s: code for code, s in enumerate(Source)}
_INTP = np.dtype(np.intp).char  # the `array` typecode of numpy's intp
# What `load_records` keys each id by to find repeats. A str's hash is salted
# per process, so two ids that share one are compared before either is named.
_id_hash = hash


class KnowledgeRecord(NamedTuple):
    """One description row in memory, as `save_records` writes it. For
    MLLM_DATA rows, `id` is the paired sample id."""

    id: str
    category: str
    description: str
    source: Source
    generator: str = ""


class RecordColumns(NamedTuple):
    """What a knowledge base keeps of its records: the `KnowledgeBase`
    fields that `load_records` builds, in their order there."""

    ids: LabelBlock  # the record ids, as the exported UBEM's label block
    sources: np.ndarray  # uint8: each row's source code
    category_index: dict[str, np.ndarray]  # ascending intp rows, by first appearance
    pair_index: dict[str, int]  # each MLLM_DATA record's id -> its row


class KbSink(NamedTuple):
    """The open temp files of a knowledge-base directory (`write_kb_dir`)."""

    records: TextIO
    embeddings: BinaryIO
    embeddings_path: Path  # where `embeddings` is committed


@dataclass
class KnowledgeBase:
    """What the flow reads of a knowledge base's records, and the path of
    the UBEM file of its rows.

    `ids` holds the record ids as one UBEM label block; `ids[row]` decodes
    one. `sources` holds each row's source code (its source's position in
    `Source`) as a uint8 array. The rows are read from `path` by `read_rows`
    and `read_unit_rows`, and never held.
    """

    path: Path
    dim: int
    ids: LabelBlock
    sources: np.ndarray
    category_index: dict[str, np.ndarray]
    pair_index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.ids)

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

    def read_rows(self, rows: list[int]) -> np.ndarray:
        """The unit rows `rows` of the knowledge base, in that order, as one
        float32 array.

        Each run of consecutive rows is read from `path` by one `readinto`
        straight into its place in the result, and the ingest rule runs on
        the result, so a row that is not finite or has a zero norm raises,
        naming the file and the row. A file whose header no longer gives
        the knowledge base's shape raises ValueError naming it.
        """
        return self._read(rows)[0]

    def read_unit_rows(self, rows: list[int]) -> np.ndarray:
        """`normalize_rows(read_rows(rows))`, byte for byte, with one norm
        pass: one float64 copy of the rows, divided in place by the norms
        the ingest rule took of them. Only where the rule rescaled some
        rows, as it does for a file `build` did not write, are the norms of
        the rescaled rows taken again. Raises as `read_rows` does.
        """
        x, norms = self._read(rows)
        if norms is None:
            norms = row_norms(x)
        out = np.array(x, dtype=np.float64)
        return np.divide(out, norms[:, None], out=out)

    def _read(self, rows: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
        """The float32 rows of `read_rows`, and their norms as `_ingest_rows`
        hands them back: None where it rescaled some of them."""
        out = np.empty((len(rows), self.dim), "<f4")
        with open(self.path, "rb") as f, naming(self.path):
            shape = read_header(f)
            if shape != (self.dim, self.size):
                raise ValueError(
                    f"holds {shape[1]} rows of dim {shape[0]}, "
                    f"not the knowledge base's {self.size} rows of dim {self.dim}"
                )
            start, width, n = f.tell(), 4 * self.dim, len(rows)
            cuts = [0] if n else []  # where each run of consecutive rows starts
            if n and rows != list(range(rows[0], rows[0] + n)):  # not one run
                cuts += [i for i, (a, b) in enumerate(zip(rows, rows[1:]), 1) if b != a + 1]
            for a, b in zip(cuts, cuts[1:] + [n]):
                f.seek(start + rows[a] * width)
                read_payload(f, out[a:b])
        return out, _ingest_rows(out, self.path, rows)


def _record_problem(obj) -> str | None:
    """How a parsed records line breaks the table: the first check it fails,
    in the order the fields are listed, or None for a good record."""
    # JSON decodes objects and strings to exact dicts and strs.
    if type(obj) is not dict:
        return "record is not a JSON object"
    for key in ("id", "category", "description", "source"):
        if type(obj.get(key)) is not str:
            return f"field {key!r} is not a string" if key in obj else f"missing field {key!r}"
    if not obj["category"]:
        return "category is empty"
    if obj["source"] not in _SOURCE_CODE:
        return f"source must be one of {[s.value for s in Source]}, got {obj['source']!r}"
    generator = obj.get("generator", "")
    if type(generator) is not str:
        return "field 'generator' is not a string"
    # A lone surrogate, which only a JSON escape can make, has no UTF-8 form.
    # An ASCII field holds none, so most lines encode nothing here.
    if (
        obj["id"].isascii()
        and obj["category"].isascii()
        and obj["description"].isascii()
        and generator.isascii()
    ):
        return None
    for key in ("id", "category", "description", "generator"):
        try:
            obj.get(key, "").encode("utf-8")
        except UnicodeEncodeError as e:
            char = f"U+{ord(e.object[e.start]):04X}"
            return f"field {key!r} holds a lone surrogate ({char} at index {e.start})"
    return None


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


def _check_repeats(path, ids: LabelBlock, hashes: array) -> None:
    """Raise DuplicateId naming the line of the first row of `path` whose id
    an earlier row holds.

    One stable argsort of the ids' hashes, as float64, puts the rows of
    each hash side by side in row order. Only rows that share a hash are
    decoded and compared, so two ids whose hashes collide are no repeat.
    Only for a repeat is the file read again, up to its row, to count its
    lines, blank ones included.
    """
    keys = np.frombuffer(hashes, np.float64)
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    first, group, last = len(ids), set(), -2
    # Each i here is a tie: rows order[i] and order[i + 1] share a hash.
    for i in np.flatnonzero(ranked[1:] == ranked[:-1]).tolist():
        if i != last + 1:  # order[i] is the first row of its hash
            group = {ids[int(order[i])]}
        last = i
        row = int(order[i + 1])
        rid = ids[row]
        if rid not in group:
            group.add(rid)
        elif row < first:
            first = row
    if first < len(ids):
        line_number = next(islice(read_jsonl(path), first, None))[0]
        raise DuplicateId(
            f"{path}: line {line_number}: record id {ids[first]!r} appears more than once"
        ) from None


def load_records(path, sink: TextIO | None = None) -> RecordColumns:
    """The columns of a records JSONL file, and its indexes, parsed in one pass.

    Each row is appended to its category's rows, and an MLLM_DATA row to
    `pair_index`, as it is read. Each record's canonical line goes to the
    text stream `sink`, when one is given, as soon as it is checked. Blank
    lines are skipped. The first line that breaks the table raises
    MalformedRecord, and the first repeated id DuplicateId, each naming the
    file and the line; a repeated id before that line is named instead.

    Each id is encoded onto one `LabelBlock` and its hash appended to one
    float64 array. Repeats are looked for once, when the parse ends or
    meets a malformed line, by `_check_repeats`, so no set of ids is held.
    """
    write = None if sink is None else sink.write
    ids = LabelBlock()
    hashes = array("d")
    sources = array("B")
    category_rows: dict[str, array] = defaultdict(partial(array, _INTP))
    pair_index: dict[str, int] = {}
    mllm_data = _SOURCE_CODE[Source.MLLM_DATA]
    add_id, add_hash, id_hash = ids.append, hashes.append, _id_hash
    try:
        for line_number, obj in read_jsonl(path):
            problem = _record_problem(obj)
            if problem is not None:
                raise MalformedRecord(line_number, problem, path)
            rid, category, source = obj["id"], obj["category"], obj["source"]
            if write is not None:
                generator = obj.get("generator", "")
                write(_record_line(rid, category, obj["description"], source, generator))
            row = len(sources)
            add_id(rid)
            add_hash(id_hash(rid))
            code = _SOURCE_CODE[source]
            sources.append(code)
            category_rows[category].append(row)
            if code == mllm_data:
                pair_index[rid] = row
    except MalformedRecord:
        _check_repeats(path, ids, hashes)
        raise
    _check_repeats(path, ids, hashes)
    return RecordColumns(
        ids,
        np.frombuffer(sources, np.uint8),
        {category: np.frombuffer(rows, np.intp) for category, rows in category_rows.items()},
        pair_index,
    )


@contextmanager
def _text_writer(path) -> Iterator[TextIO]:
    """A UTF-8 text stream into `path`'s atomic temp file (`atomic_writer`)."""
    with atomic_writer(path) as raw, io.TextIOWrapper(raw, "utf-8", newline="") as f:
        yield f


def save_records(path, records: Iterable[KnowledgeRecord]) -> None:
    """Write each in-memory record's canonical line, streamed line by line
    into the atomic temp file."""
    with _text_writer(path) as f:
        f.writelines(starmap(_record_line, records))


def _ingest_rows(x: np.ndarray, path, rows) -> np.ndarray | None:
    """Check the float32 rows `x`, read from rows `rows` of the file `path`,
    and unit-normalize them in place, leaving already-unit rows bit-identical.
    Returns the rows' norms when no row was rescaled, for a reader to reuse,
    and None when some were.

    The first row that is not finite or has a norm below ZERO_NORM raises,
    naming `path` and its row. Rows whose norm is within UNIT_TOLERANCE of 1
    are not touched, so a normalize-store-reload cycle is idempotent at the
    byte level. Norms are `row_norms` in float64, where a float32 row's sum
    of squares is finite exactly when the row is; the rows that need scaling
    are divided in float64 and rounded back into the array by one
    `np.divide`, masked only when some rows need no scaling. The checks on
    a clean block run only numpy routines that an ingest of the whole
    payload ran.
    """
    if not len(x):
        return np.empty(0)
    # NaN propagates through `min` and `max`, so both are finite exactly when
    # every entry is.
    if np.isfinite(x.min()) and np.isfinite(x.max()):
        norms = row_norms(x)
        bad = np.flatnonzero(norms < ZERO_NORM)
    else:
        with np.errstate(invalid="ignore"):  # a signaling NaN is named, not warned of
            norms = row_norms(x)
        bad = np.flatnonzero(~((norms >= ZERO_NORM) & (norms < np.inf)))
    if bad.size:
        i = int(bad[0])
        if norms[i] < np.inf:
            raise ZeroVector(f"{path}: embedding row {rows[i]} has norm {norms[i]:.3e}")
        raise ValueError(f"{path}: embedding matrix contains NaN or Inf in row {rows[i]}")
    needs = np.abs(norms - 1.0) > UNIT_TOLERANCE
    if not needs.any():
        return norms
    # `where=True`, numpy's default, is no mask: half the masked divide's cost.
    mask = True if needs.all() else needs[:, None]
    np.divide(x, norms[:, None], out=x, where=mask, casting="same_kind")
    return None


def build(records_path, embeddings_path, sink: KbSink | None = None) -> KnowledgeBase:
    """Load, validate, and index a knowledge base from its two files,
    writing both into `sink` when one is given (see `write_kb_dir`). The
    module docstring gives the order of the checks.

    The embeddings are read once, one `row_blocks` block at a time into one
    reused buffer, checked and normalized. The knowledge base reads its
    rows back from the file `sink` commits, or else from `embeddings_path`.
    """
    columns = load_records(records_path, None if sink is None else sink.records)
    ids = columns.ids
    with open(embeddings_path, "rb") as f:
        with naming(embeddings_path):
            dim, rows = read_header(f)
        if len(ids) != rows:
            raise CountMismatch(f"{embeddings_path}: {len(ids)} records but {rows} embedding rows")
        if sink is not None:
            write_header(sink.embeddings, dim, rows)
        buf = np.empty((min(NORM_BLOCK_ROWS + 1, rows), dim), "<f4")
        for block in row_blocks(rows):
            chunk = buf[: block.stop - block.start]
            with naming(embeddings_path):
                read_payload(f, chunk)
            _ingest_rows(chunk, embeddings_path, range(block.start, block.stop))
            if sink is not None:
                sink.embeddings.write(chunk)
        with naming(embeddings_path):
            for _ in read_label_block(f, rows) or ():
                pass  # each label is checked; the record ids label the rows
    if sink is not None:
        write_label_block(sink.embeddings, ids)  # the ids' bytes, as parsed
    return KnowledgeBase(
        Path(embeddings_path) if sink is None else sink.embeddings_path, dim, *columns
    )


def load_kb_dir(kb_dir) -> KnowledgeBase:
    """The knowledge base of a directory `write_kb_dir` wrote, reading its
    rows from that directory's own embeddings file."""
    kb_dir = Path(kb_dir)
    return build(kb_dir / RECORDS_FILENAME, kb_dir / EMBEDDINGS_FILENAME)


@contextmanager
def write_kb_dir(kb_dir) -> Iterator[KbSink]:
    """Yield the temp files that `build` writes `kb_dir`'s two files into.

    The files replace `<kb_dir>/records.jsonl` and `<kb_dir>/embeddings.ubem`
    only when the block ends cleanly: a build, or any check after it in the
    block, that raises leaves neither file, nor a temp file, nor a directory
    made for them. A knowledge base built into the block reads its rows
    from the committed `embeddings.ubem`, so only after the block.
    """
    kb_dir = Path(kb_dir)
    embeddings = kb_dir / EMBEDDINGS_FILENAME
    with _text_writer(kb_dir / RECORDS_FILENAME) as records, atomic_writer(embeddings) as f:
        yield KbSink(records, f, embeddings)
