import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign import ubem
from modalign.errors import ModalignError
from modalign.ubem import (
    MAGIC,
    naming,
    read_header,
    read_label_block,
    read_payload,
    read_ubem,
    read_container,
    read_ubem_stream,
    write_container_header,
    write_ubem,
    write_ubem_stream,
)
from modalign.vectors import EmbeddingMatrix


def roundtrip_bytes(matrix):
    buf = io.BytesIO()
    write_ubem_stream(buf, matrix)
    return buf.getvalue()


def test_roundtrip_basic(tmp_path):
    m = EmbeddingMatrix(np.arange(12, dtype=np.float32).reshape(3, 4), ["a", "b", "c"])
    path = tmp_path / "m.ubem"
    write_ubem(path, m)
    back = read_ubem(path)
    assert back.vectors.tobytes() == m.vectors.tobytes()
    assert back.labels == ["a", "b", "c"]


def test_roundtrip_without_labels(tmp_path):
    m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "m.ubem"
    write_ubem(path, m)
    assert read_ubem(path).labels is None


def test_header_layout():
    m = EmbeddingMatrix(np.zeros((2, 3), dtype=np.float32))
    raw = roundtrip_bytes(m)
    assert raw[:4] == MAGIC
    assert raw[4:6] == (1).to_bytes(2, "little")  # version
    assert raw[6:8] == (0).to_bytes(2, "little")  # flags
    assert raw[8:12] == (3).to_bytes(4, "little")  # dim
    assert raw[12:20] == (2).to_bytes(8, "little")  # rows
    assert raw[20 : 20 + 24] == m.vectors.astype("<f4").tobytes()
    assert raw[44:45] == b"\x00"  # no-labels flag
    assert len(raw) == 45


def test_bad_magic_rejected():
    with pytest.raises(ValueError):
        read_ubem_stream(io.BytesIO(b"NOPE" + b"\x00" * 40))


def test_truncated_payload_rejected():
    m = EmbeddingMatrix(np.ones((4, 4), dtype=np.float32))
    raw = roundtrip_bytes(m)
    with pytest.raises(ValueError):
        read_ubem_stream(io.BytesIO(raw[:30]))


class _ShortStream(io.BytesIO):
    """Reports its full length to seek() but delivers only `limit` bytes."""

    def __init__(self, raw, limit):
        super().__init__(raw)
        self.limit = limit

    def _room(self, size):
        room = max(0, self.limit - self.tell())
        return room if size is None or size < 0 else min(size, room)

    def read(self, size=-1):
        return super().read(self._room(size))

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        return super().readinto(view[: self._room(len(view))])


def test_stream_delivering_short_payload_rejected():
    m = EmbeddingMatrix(np.ones((4, 4), dtype=np.float32))
    raw = roundtrip_bytes(m)
    with pytest.raises(ValueError, match="truncated UBEM payload: 30 of 64 bytes"):
        read_ubem_stream(_ShortStream(raw, 20 + 30))


@pytest.mark.parametrize(
    "matrix, label_block",
    [
        (EmbeddingMatrix(np.zeros((0, 3), dtype=np.float32)), b"\x00"),
        (EmbeddingMatrix(np.zeros((0, 3), dtype=np.float32), []), b"\x01"),
        (EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3)), b"\x00"),
        (
            EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3), ["", "é"]),
            b"\x01" + struct.pack("<I", 0) + struct.pack("<I", 2) + "é".encode(),
        ),
    ],
    ids=["zero-rows", "zero-rows-empty-labels", "label-free", "labels"],
)
def test_layout_pinned_and_roundtrips(matrix, label_block):
    raw = roundtrip_bytes(matrix)
    header = MAGIC + struct.pack("<HHIQ", 1, 0, matrix.dim, matrix.rows)
    assert raw == header + matrix.vectors.astype("<f4").tobytes() + label_block
    # Followed by a second blob, the reader must stop at the first one's end.
    stream = io.BytesIO(raw + raw)
    for _ in range(2):
        back = read_ubem_stream(stream)
        assert back.vectors.shape == matrix.vectors.shape
        assert back.vectors.tobytes() == matrix.vectors.tobytes()
        assert back.labels == matrix.labels
    assert stream.tell() == 2 * len(raw)


def _header_then(version, dim, rows, tail):
    return MAGIC + struct.pack("<HHIQ", version, 0, dim, rows) + tail


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.binary(max_size=80),
        st.builds(
            _header_then,
            st.sampled_from([1, 1, 1, 0, 2]),
            st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)),
            st.one_of(st.integers(0, 4), st.integers(0, 2**64 - 1)),
            st.binary(max_size=80),
        ),
    )
)
def test_arbitrary_bytes_yield_a_matrix_or_a_value_error(raw):
    try:
        matrix = read_ubem_stream(io.BytesIO(raw))
    except (ValueError, ModalignError):
        return
    assert isinstance(matrix, EmbeddingMatrix)


class _RecordingStream(io.BytesIO):
    """A stream that remembers the largest read it was asked for."""

    largest_read = 0

    def read(self, size=-1):
        self.largest_read = max(self.largest_read, size)
        return super().read(size)


def test_oversized_header_rejected_before_reading():
    # 2^40 rows x 2^20 dims claims 4 EiB of payload; the reader must refuse
    # from the header alone, without asking the stream for those bytes.
    header = MAGIC + struct.pack("<HHIQ", 1, 0, 1 << 20, 1 << 40)
    stream = _RecordingStream(header + b"\x00" * 64)
    with pytest.raises(ValueError, match="truncated UBEM payload"):
        read_ubem_stream(stream)
    assert stream.largest_read <= 16


def test_label_length_checked_against_the_bytes_left():
    # A corrupt label length must be refused from the lengths alone: the
    # reader must not ask the stream for 4 GiB to find out it is short.
    raw = bytearray(roundtrip_bytes(EmbeddingMatrix(np.ones((2, 3), np.float32), ["a", "bc"])))
    first_length = 20 + 2 * 3 * 4 + 1
    raw[first_length : first_length + 4] = struct.pack("<I", 0xFFFFFFF0)
    stream = _RecordingStream(bytes(raw))
    with pytest.raises(ValueError) as info:
        read_ubem_stream(stream)
    assert str(info.value) == "label of row 0: length 4294967280 but 7 bytes left"
    assert stream.largest_read <= len(raw)


def test_later_label_length_counts_the_labels_before_it(tmp_path):
    raw = bytearray(roundtrip_bytes(EmbeddingMatrix(np.ones((2, 3), np.float32), ["a", "bc"])))
    second_length = 20 + 2 * 3 * 4 + 1 + 4 + 1
    raw[second_length : second_length + 4] = struct.pack("<I", 3)  # 2 bytes are left
    path = tmp_path / "long.ubem"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as info:
        read_ubem(path)
    assert str(info.value) == f"{path}: label of row 1: length 3 but 2 bytes left"
    raw[second_length : second_length + 4] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    assert read_ubem(path).labels == ["a", "bc"]


def test_labels_dropped_on_request():
    # The pieces `read_ubem_stream` is made of, as a reader that holds one
    # block of rows at a time, and checks each label and drops it, uses them.
    m = EmbeddingMatrix(np.arange(15, dtype=np.float32).reshape(5, 3), ["x", "é", "", "y", "z"])
    stream = io.BytesIO(roundtrip_bytes(m) + b"next")
    assert read_header(stream) == (3, 5)
    block = np.empty((2, 3), dtype="<f4")
    for start in (0, 2):
        read_payload(stream, block)
        assert block.tobytes() == m.vectors[start : start + 2].tobytes()
    read_payload(stream, block[:1])
    assert block[:1].tobytes() == m.vectors[4:].tobytes()
    labels = read_label_block(stream, 5)
    assert next(labels) == "x"
    assert list(labels) == m.labels[1:]
    assert stream.read() == b"next"
    assert read_label_block(io.BytesIO(b"\x00"), 5) is None
    assert read_label_block(io.BytesIO(b""), 5) is None


def test_dropped_label_that_is_not_utf8_still_names_its_row(tmp_path):
    path = tmp_path / "bad.ubem"
    raw = roundtrip_bytes(EmbeddingMatrix(np.ones((3, 2), dtype=np.float32), ["a", "b", "c"]))
    path.write_bytes(raw[:-6] + b"\xff" + raw[-5:])  # the second label's one byte
    with open(path, "rb") as f, pytest.raises(ValueError) as info, naming(path):
        f.seek(20 + 3 * 2 * 4)
        for _ in read_label_block(f, 3):
            pass  # each label is checked and dropped
    assert str(info.value) == (
        f"{path}: label of row 1: invalid UTF-8 (byte 0xff at offset 0: invalid start byte)"
    )


def test_header_claiming_rows_of_dim_0_rejected(tmp_path):
    # 21 bytes that claim 2^40 rows: a payload of 0 bytes fits, and a
    # (2^40, 0) array costs nothing, but its 2^40 row ids would not.
    path = tmp_path / "dim0.ubem"
    path.write_bytes(MAGIC + struct.pack("<HHIQ", 1, 0, 0, 1 << 40) + b"\x00")
    with pytest.raises(ValueError) as info:
        read_ubem(path)
    assert str(info.value) == f"{path}: UBEM header claims {1 << 40} rows of dim 0"
    # Zero rows are a valid matrix whatever the dim, dim 0 included.
    for dim in (0, 3):
        empty = read_ubem_stream(io.BytesIO(MAGIC + struct.pack("<HHIQ", 1, 0, dim, 0) + b"\x00"))
        assert empty.vectors.shape == (0, dim) and empty.labels is None


def test_unsupported_version_rejected():
    m = EmbeddingMatrix(np.ones((1, 1), dtype=np.float32))
    raw = bytearray(roundtrip_bytes(m))
    raw[4] = 9
    with pytest.raises(ValueError):
        read_ubem_stream(io.BytesIO(bytes(raw)))


def test_two_blobs_in_one_stream():
    a = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32), ["x", "y"])
    b = EmbeddingMatrix(np.zeros((1, 5), dtype=np.float32))
    buf = io.BytesIO()
    write_ubem_stream(buf, a)
    write_ubem_stream(buf, b)
    buf.seek(0)
    first = read_ubem_stream(buf)
    second = read_ubem_stream(buf)
    assert first.labels == ["x", "y"]
    assert second.vectors.shape == (1, 5)


def test_label_that_is_not_utf8_names_its_row(tmp_path):
    path = tmp_path / "bad.ubem"
    raw = roundtrip_bytes(EmbeddingMatrix(np.ones((3, 2), dtype=np.float32), ["a", "b", "c"]))
    path.write_bytes(raw[:-1] + b"\xff")  # the last label's one byte
    with pytest.raises(ValueError) as info:
        read_ubem(path)
    assert str(info.value) == (
        f"{path}: label of row 2: invalid UTF-8 (byte 0xff at offset 0: invalid start byte)"
    )


def test_unicode_labels(tmp_path):
    m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32), ["naïve", "猫の写真"])
    path = tmp_path / "m.ubem"
    write_ubem(path, m)
    assert read_ubem(path).labels == ["naïve", "猫の写真"]


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roundtrip_bit_identical(rows, dim, with_labels, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, dim)).astype(np.float32)
    labels = [f"row-{i}" for i in range(rows)] if with_labels else None
    m = EmbeddingMatrix(data, labels)
    raw = roundtrip_bytes(m)
    back = read_ubem_stream(io.BytesIO(raw))
    assert back.vectors.tobytes() == data.tobytes()
    assert back.labels == labels
    # a second write emits identical bytes
    assert roundtrip_bytes(back) == raw


def test_float64_input_stored_as_float32(tmp_path):
    m = EmbeddingMatrix(np.array([[1.0 / 3.0, 2.0 / 3.0]]))
    path = tmp_path / "m.ubem"
    write_ubem(path, m)
    back = read_ubem(path)
    assert back.vectors.dtype == np.float32
    assert np.allclose(back.vectors, m.vectors, atol=1e-7)


def test_write_ubem_streams_the_payload_without_copying_it(tmp_path):
    # 8 MB of float32 plus labels: a writer that buffers the file, or
    # copies the payload, traces at least the payload's size.
    matrix = EmbeddingMatrix(
        np.random.default_rng(0).standard_normal((8192, 256)).astype(np.float32),
        [f"row{i:05d}" for i in range(8192)],
    )
    tracemalloc.start()
    try:
        write_ubem(tmp_path / "m.ubem", matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    back = read_ubem(tmp_path / "m.ubem")
    assert back.vectors.tobytes() == matrix.vectors.tobytes()
    assert back.labels == matrix.labels


def test_container_header_line_reads_back_with_its_blob(tmp_path):
    buf = io.BytesIO()
    write_container_header(buf, "center-set", {"k": 2, "prompt_template": "a photo of é"})
    header_line = buf.getvalue()
    assert header_line == (
        '{"format": "center-set", "version": 1, "k": 2, "prompt_template": "a photo of é"}\n'
    ).encode("utf-8")
    matrix = EmbeddingMatrix(np.eye(2, dtype=np.float32))
    write_ubem_stream(buf, matrix)
    path = tmp_path / "c.cset"
    path.write_bytes(buf.getvalue())
    header, (blob,) = read_container(path, "center-set", 1)
    assert header["prompt_template"] == "a photo of é"
    assert blob.vectors.tobytes() == matrix.vectors.tobytes()


def test_container_header_line_is_read_up_to_the_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(ubem, "HEADER_LIMIT", 64)
    blob = roundtrip_bytes(EmbeddingMatrix(np.eye(2, dtype=np.float32)))
    fits = b'{"format": "center-set", "version": 1}'.ljust(63) + b"\n"
    path = tmp_path / "c.cset"
    path.write_bytes(fits + blob)
    header, _ = read_container(path, "center-set", 1)
    assert header == {"format": "center-set", "version": 1}
    path.write_bytes(b" " + fits + blob)
    with pytest.raises(ValueError) as excinfo:
        read_container(path, "center-set", 1)
    assert str(excinfo.value) == f"{path}: center-set header line longer than 64 bytes"


def test_container_header_line_past_the_limit_is_not_written(monkeypatch):
    monkeypatch.setattr(ubem, "HEADER_LIMIT", 64)
    buf = io.BytesIO()
    write_container_header(buf, "center-set", {"k": "x" * 16})  # 64 bytes with its newline
    with pytest.raises(ValueError, match="^center-set header line of 65 bytes is longer than 64$"):
        write_container_header(buf, "center-set", {"k": "x" * 17})
    assert len(buf.getvalue()) == 64
