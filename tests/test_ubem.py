import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalign.ubem import MAGIC, read_ubem, read_ubem_stream, write_ubem, write_ubem_stream
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
