"""Reader/writer for the UBEM binary embedding-matrix format.

Layout (all integers little-endian):

    magic   4 bytes  b"UBEM"
    version u16      currently 1
    flags   u16      reserved, written as 0
    dim     u32
    rows    u64
    data    rows*dim float32, row-major
    labels  u8 present flag; if 1, `rows` strings, each a u32 byte length
            followed by UTF-8 bytes

Payload floats round-trip bit-identically: the reader hands back the stored
float32 bytes and the writer emits float32 verbatim. One header reader,
`read_header`, serves every reader of the format: it checks the header's
payload size against the bytes left in the stream, and refuses a header that
claims rows of dim 0, so no size in a corrupt file can ask for more memory,
or more row ids, than the file holds. `read_payload` fills a caller's
float32 array with `readinto`; a stream that delivers fewer bytes raises
ValueError, so no uninitialised memory escapes. `read_label_block` reads the
flag and yields each label once it is checked against the bytes left and
decoded, so a caller that only checks the labels holds none of them.
`read_ubem_stream` is these three in turn, and the knowledge base reads its
payload through the same three, one block of rows at a time. `read_ubem`
reads a UBEM file, and `read_container` a `.cset` or `.adapter` file: one
JSON header line, then UBEM blobs. Both name the file in every ValueError,
so the framing of every binary input is read in this module; the header line
of a container is written by `write_container_header`. The writer
passes a float32 C-ordered array's own buffer to the stream (no `tobytes`
copy) and writes the label block in one call. `LabelBlock` is the one
label encoder: it holds a label block as the bytes the file stores, plus
one uint64 end offset per label, and `write_label_block` writes its bytes
as they are. The knowledge base keeps its record ids in one, so its
labels are encoded once, as they are parsed, and never held as strs.
`write_ubem` streams the header, payload and label block straight into the
atomic temp file, so writing a matrix to disk holds no copy of its payload.

A container's header line may take at most `HEADER_LIMIT` bytes, 4 MiB,
newline included. An adapter header holds its modality and two dims. A
center-set header spends at most 48 bytes of JSON on each member row (a KB
row index of up to 20 digits, a float score of up to 24 characters and two
", " separators), so the limit holds 65,536 member rows (3 MiB) with 1 MiB
to spare for the category names, prompt texts and template. `read_container`
reads at most one byte past the limit, so a file whose first line never
ends is refused without being read whole, and `write_container_header`
refuses a longer line, so no container is written that cannot be read.
"""

from __future__ import annotations

import io
import json
import struct
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

import numpy as np

# `atomic_write_bytes` is unused here; the benchmark tracer binds the name.
from .serialize import _bad_utf8, atomic_write_bytes, atomic_writer, is_int  # noqa: F401
from .vectors import EmbeddingMatrix

MAGIC = b"UBEM"
VERSION = 1

HEADER_LIMIT = 1 << 22  # the longest container header line, newline included
_HEADER = struct.Struct("<HHIQ")  # version, flags, dim, rows
_U32 = struct.Struct("<I")


def write_header(stream, dim: int, rows: int) -> None:
    """Write the magic and header of a `rows` x `dim` matrix."""
    stream.write(MAGIC)
    stream.write(_HEADER.pack(VERSION, 0, dim, rows))


class LabelBlock:
    """A label block held as the file stores it: `data` is its flag, then
    each label's u32 length and UTF-8 bytes, and `ends` holds where each
    label's bytes end in `data`. `append` is the format's one label
    encoder; `block[i]` decodes label i, so no label is held as a str."""

    __slots__ = ("data", "ends")

    def __init__(self, labels: Iterable[str] = ()):
        self.data = bytearray(b"\x01")
        self.ends = array("Q")
        for label in labels:
            self.append(label)

    def append(self, label: str) -> None:
        """Encode `label` onto the block; a lone surrogate raises
        UnicodeEncodeError and leaves the block as it was."""
        raw = label.encode("utf-8")
        data = self.data
        data += _U32.pack(len(raw))
        data += raw
        self.ends.append(len(data))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int) -> str:
        i = range(len(self.ends))[i]  # an int in range, or IndexError
        start = self.ends[i - 1] if i else 1
        return self.data[start + _U32.size : self.ends[i]].decode("utf-8")


def write_label_block(stream, labels: LabelBlock | list[str] | None) -> None:
    """Write the label block that follows a payload, in one call: a label
    block's bytes as they are, or the block that `LabelBlock` encodes of
    a list of labels."""
    if labels is None:
        stream.write(b"\x00")
        return
    if not isinstance(labels, LabelBlock):
        labels = LabelBlock(labels)
    stream.write(labels.data)


def write_ubem_stream(stream, matrix: EmbeddingMatrix) -> None:
    """Serialize one matrix into an open binary stream."""
    write_header(stream, matrix.dim, matrix.rows)
    stream.write(np.ascontiguousarray(matrix.vectors, dtype="<f4"))
    write_label_block(stream, matrix.labels)


def _bytes_left(stream) -> int:
    here = stream.tell()
    left = stream.seek(0, io.SEEK_END) - here
    stream.seek(here)
    return left


def read_header(stream) -> tuple[int, int]:
    """Read a matrix's magic and header, and return its (dim, rows).

    Every size the header claims is checked before anything is read or
    allocated: the payload must fit in the bytes left in the stream, and a
    header that claims rows of dim 0 is refused. Zero rows of any dim are
    a valid matrix.
    """
    magic = stream.read(4)
    if magic != MAGIC:
        raise ValueError(f"not a UBEM payload (magic {magic!r})")
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated UBEM header")
    version, _flags, dim, rows = _HEADER.unpack(header)
    if version != VERSION:
        raise ValueError(f"unsupported UBEM version {version}")
    if dim == 0 and rows:
        raise ValueError(f"UBEM header claims {rows} rows of dim 0")
    want = rows * dim * 4
    left = _bytes_left(stream)
    if left < want:
        raise ValueError(f"truncated UBEM payload: {left} of {want} bytes")
    return dim, rows


def read_payload(stream, out: np.ndarray) -> None:
    """Fill the C-ordered float32 array `out` with the stream's next bytes."""
    view = memoryview(out.reshape(-1).view(np.uint8))
    want = len(view)
    got = 0
    while got < want:
        n = stream.readinto(view[got:])
        if not n:
            raise ValueError(f"truncated UBEM payload: {got} of {want} bytes")
        got += n


def read_label_block(stream, rows: int) -> Iterator[str] | None:
    """Read the flag of the label block that follows a payload of `rows`
    rows: None when the matrix has no labels, else an iterator that reads,
    checks and yields each label in turn."""
    flag = stream.read(1)
    if flag == b"\x01":
        return _labels(stream, rows)
    if flag not in (b"", b"\x00"):
        raise ValueError(f"bad UBEM label flag {flag!r}")
    return None


def _labels(stream, rows: int) -> Iterator[str]:
    # Each length is checked against the bytes left before it is read, so a
    # corrupt one cannot ask the stream for up to 4 GiB.
    left = _bytes_left(stream)
    for row in range(rows):
        raw_len = stream.read(_U32.size)
        if len(raw_len) != _U32.size:
            raise ValueError("truncated UBEM label block")
        (n,) = _U32.unpack(raw_len)
        left -= _U32.size
        if n > left:
            raise ValueError(f"label of row {row}: length {n} but {left} bytes left")
        left -= n
        raw = stream.read(n)
        if len(raw) != n:
            raise ValueError("truncated UBEM label string")
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(f"label of row {row}: {_bad_utf8(e)}") from None


def read_ubem_stream(stream) -> EmbeddingMatrix:
    """Parse one matrix from an open binary stream, consuming exactly its bytes."""
    dim, rows = read_header(stream)
    vectors = np.empty((rows, dim), dtype="<f4")
    read_payload(stream, vectors)
    labels = read_label_block(stream, rows)
    return EmbeddingMatrix(vectors, None if labels is None else list(labels))


def write_ubem(path, matrix: EmbeddingMatrix) -> None:
    with atomic_writer(path) as f:
        write_ubem_stream(f, matrix)


@contextmanager
def naming(path) -> Iterator[None]:
    """Re-raise a ValueError of the block as one that names `path`."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def read_ubem(path) -> EmbeddingMatrix:
    """The matrix of a UBEM file; a ValueError names the file."""
    with open(path, "rb") as f, naming(path):
        return read_ubem_stream(f)


def write_container_header(stream, kind: str, header: dict) -> None:
    """Write the header line of a `kind` container file: `header` after the
    `format` and `version` keys that `read_container` checks, as one UTF-8
    JSON line. The caller writes the UBEM blobs after it. A line longer
    than `HEADER_LIMIT` raises ValueError before anything is written, so no
    file is written that `read_container` would refuse."""
    line = json.dumps({"format": kind, "version": 1, **header}, ensure_ascii=False)
    line = line.encode("utf-8") + b"\n"
    if len(line) > HEADER_LIMIT:
        raise ValueError(f"{kind} header line of {len(line)} bytes is longer than {HEADER_LIMIT}")
    stream.write(line)


def read_container(path, kind: str, blobs: int) -> tuple[dict, list[EmbeddingMatrix]]:
    """The JSON header and the `blobs` UBEM matrices of a `kind` container
    file (a `.cset` or `.adapter` file): one header line, then the blobs.

    The header must be a JSON object whose `format` is `kind` and whose
    `version` is the integer 1, on a line of at most `HEADER_LIMIT` bytes.
    Any fault of the header line or a blob raises ValueError naming the
    file; the header's other keys are the caller's to check.
    """
    with open(path, "rb") as f, naming(path):
        line = f.readline(HEADER_LIMIT + 1)
        if len(line) > HEADER_LIMIT:
            raise ValueError(f"{kind} header line longer than {HEADER_LIMIT} bytes")
        try:
            header = json.loads(line)
        except (ValueError, RecursionError) as e:  # invalid JSON or UTF-8, or nested too deeply
            raise ValueError(f"bad {kind} header: {e}") from e
        version = header.get("version") if isinstance(header, dict) else None
        if not (is_int(version) and version == 1 and header.get("format") == kind):
            raise ValueError(f"not a version-1 {kind} file")
        return header, [read_ubem_stream(f) for _ in range(blobs)]
