import hashlib
import json

import pytest

from modalign.errors import MalformedRecord
from modalign.serialize import (
    INTEGER,
    STRING,
    atomic_writer,
    field_problem,
    fixed_json,
    read_jsonl,
    sha256_file,
    sha256_text,
)


def test_floats_rendered_fixed_point():
    text = fixed_json({"accuracy": 0.8125, "count": 3})
    assert '"accuracy": 0.812500' in text
    assert '"count": 3' in text


def test_key_order_is_insertion_order():
    text = fixed_json({"zebra": 1, "apple": 2})
    assert text.index("zebra") < text.index("apple")


def test_output_is_parseable_json():
    obj = {
        "name": "run",
        "metrics": {"r@1": 0.5, "r@10": 1.0},
        "ks": [1, 10],
        "flag": True,
        "nothing": None,
    }
    parsed = json.loads(fixed_json(obj))
    assert parsed["metrics"]["r@1"] == 0.5
    assert parsed["flag"] is True
    assert parsed["nothing"] is None


def test_nested_lists_and_empties():
    parsed = json.loads(fixed_json({"a": [], "b": {}, "c": [[1, 2], [3]]}))
    assert parsed == {"a": [], "b": {}, "c": [[1, 2], [3]]}


def test_string_escaping():
    parsed = json.loads(fixed_json({"text": 'quote " backslash \\ newline \n'}))
    assert parsed["text"] == 'quote " backslash \\ newline \n'


def test_string_escaping_is_byte_exact():
    controls = "".join(chr(c) for c in range(0x20))
    escaped = (
        "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
        "\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f"
        "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
        "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
    )
    untouched = "\x7f\u2028\U0001f600 plain"  # DEL, LINE SEPARATOR, a non-BMP emoji
    text = fixed_json({'k"\\': '"\\' + controls + untouched})
    assert text == '{\n  "k\\"\\\\": "\\"\\\\' + escaped + untouched + '"\n}\n'
    assert json.loads(text) == {'k"\\': '"\\' + controls + untouched}


def test_bools_not_rendered_as_ints():
    text = fixed_json({"on": True, "off": False})
    assert '"on": true' in text
    assert '"off": false' in text


def test_negative_and_tiny_floats():
    text = fixed_json({"gap": -0.25, "eps": 1e-9})
    assert '"gap": -0.250000' in text
    assert '"eps": 0.000000' in text


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        fixed_json({"bad": object()})


def test_deterministic_bytes():
    obj = {"metrics": {"a": 1 / 3, "b": 2 / 3}}
    assert fixed_json(obj) == fixed_json(obj)


def test_sha256_text_stable():
    assert sha256_text("abc") == sha256_text("abc")
    assert sha256_text("abc") != sha256_text("abd")


def test_sha256_file_spanning_several_buffers(tmp_path):
    # Three full 64 KiB buffers plus a partial tail.
    data = bytes(range(256)) * (3 * 256) + b"tail"
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


TABLE = {"id": STRING, "row": INTEGER}


@pytest.mark.parametrize(
    "obj, closed, problem",
    [
        ({"id": "a", "row": 1, "extra": None}, False, None),
        ({"id": "a", "row": 1, "extra": None}, True, "unknown key 'extra'"),
        ({"row": 1}, False, "missing key 'id'"),
        ({"id": "a", "row": True}, False, "'row' must be an integer, got True"),
        ({"id": None, "row": 1.0}, False, "'id' must be a string, got None"),
        (["id", "row"], False, "must be a JSON object, got ['id', 'row']"),
    ],
    ids=["open", "closed", "missing", "bool-for-int", "first-problem", "not-an-object"],
)
def test_field_problem_names_the_first_bad_key(obj, closed, problem):
    assert field_problem(obj, TABLE, required=("id",), closed=closed) == problem


def test_atomic_writer_replaces_the_file_when_the_block_ends(tmp_path):
    path = tmp_path / "sub" / "out.bin"
    with atomic_writer(path) as f:
        f.write(b"first ")
        f.write(b"second")
        assert not path.exists()
    assert path.read_bytes() == b"first second"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.bin"]


def test_atomic_writer_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_writer(path) as f:
            f.write(b"partial new contents")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize(
    "ends, line_number",
    [([b"\n", b"\n"], 3), ([b"\r\n", b"\r"], 3), ([b"\r", b"\r\r\n"], 4)],
    ids=["lf", "crlf-cr", "cr-cr-crlf"],
)
def test_read_jsonl_names_the_line_of_invalid_utf8(tmp_path, ends, line_number):
    # The line numbers are those of the text-mode read, which ends a line at
    # LF, CR or CRLF; a blank line still counts.
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"a": 1}' + ends[0] + b"{}" + ends[1] + b'{"b": "x\xc3("}\n{}\n')
    with pytest.raises(MalformedRecord) as info:
        list(read_jsonl(path))
    assert info.value.line_number == line_number
    problem = "invalid UTF-8 (byte 0xc3 at offset 8: invalid continuation byte)"
    assert str(info.value) == f"{path}: line {line_number}: {problem}"
