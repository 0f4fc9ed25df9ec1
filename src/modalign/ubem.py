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
float32 bytes and the writer emits float32 verbatim. The reader checks the
header's payload size, and then each label's length, against the bytes left
in the stream, so no size in a corrupt file can ask for more memory than the
file holds. It reads the payload with `readinto` straight into one
preallocated float32 array; a stream that delivers fewer bytes raises
ValueError, so no uninitialised memory escapes. Each label is checked to be
UTF-8 even when the caller asks for none back (`keep_labels=False`, which
the knowledge base uses): the decoded string is then dropped at once. The
writer passes a float32 C-ordered array's own buffer to the stream (no
`tobytes` copy) and writes the label block, grown in one bytearray, in one
call. `write_ubem` streams the header, payload and label block straight
into the atomic temp file, so writing a matrix to disk holds no copy of its
payload.
"""

from __future__ import annotations

import io
import struct

import numpy as np

# `atomic_write_bytes` is unused here; the benchmark tracer binds the name.
from .serialize import _bad_utf8, atomic_write_bytes, atomic_writer  # noqa: F401
from .vectors import EmbeddingMatrix

MAGIC = b"UBEM"
VERSION = 1

_HEADER = struct.Struct("<HHIQ")  # version, flags, dim, rows
_U32 = struct.Struct("<I")


def write_ubem_stream(stream, matrix: EmbeddingMatrix) -> None:
    """Serialize one matrix into an open binary stream."""
    data = np.ascontiguousarray(matrix.vectors, dtype="<f4")
    stream.write(MAGIC)
    stream.write(_HEADER.pack(VERSION, 0, matrix.dim, matrix.rows))
    stream.write(data)
    if matrix.labels is None:
        stream.write(b"\x00")
    else:
        block = bytearray(b"\x01")  # no per-label objects outlive their row
        for label in matrix.labels:
            raw = label.encode("utf-8")
            block += _U32.pack(len(raw))
            block += raw
        stream.write(block)


def read_ubem_stream(stream, keep_labels: bool = True) -> EmbeddingMatrix:
    """Parse one matrix from an open binary stream, consuming exactly its bytes.

    With `keep_labels=False` every label is still read and checked, then
    dropped, and the matrix comes back unlabeled.
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
    # Check every size the file claims against the stream before reading it,
    # so a corrupt header or label length cannot ask for a huge allocation.
    want = rows * dim * 4
    here = stream.tell()
    left = stream.seek(0, io.SEEK_END) - here
    stream.seek(here)
    if left < want:
        raise ValueError(f"truncated UBEM payload: {left} of {want} bytes")
    vectors = np.empty((rows, dim), dtype="<f4")
    view = memoryview(vectors.reshape(-1).view(np.uint8))
    got = 0
    while got < want:
        n = stream.readinto(view[got:])
        if not n:
            raise ValueError(f"truncated UBEM payload: {got} of {want} bytes")
        got += n

    labels: list[str] | None = None
    flag = stream.read(1)
    if flag == b"\x01":
        labels = [] if keep_labels else None
        left -= want + 1
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
                label = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"label of row {row}: {_bad_utf8(e)}") from None
            if labels is not None:
                labels.append(label)
    elif flag not in (b"", b"\x00"):
        raise ValueError(f"bad UBEM label flag {flag!r}")
    return EmbeddingMatrix(vectors, labels)


def write_ubem(path, matrix: EmbeddingMatrix) -> None:
    with atomic_writer(path) as f:
        write_ubem_stream(f, matrix)


def read_ubem_file_stream(stream, path, keep_labels: bool = True) -> EmbeddingMatrix:
    """`read_ubem_stream` on an open file; a ValueError names the file."""
    try:
        return read_ubem_stream(stream, keep_labels)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def read_ubem(path, keep_labels: bool = True) -> EmbeddingMatrix:
    with open(path, "rb") as f:
        return read_ubem_file_stream(f, path, keep_labels)
