"""Serialization helpers: JSONL and whole-file JSON reading, field-table
checks, diffable report JSON, atomic writes, file hashing.

`read_jsonl` is the one reader of JSONL inputs and `read_json` the one reader
of the JSON config files; both name the file in every fault. The header line
of a binary container file is read by `ubem.read_container`.

Every file is written atomically through `atomic_writer`: the bytes go to a
temporary file beside the target, which replaces the target only when the
write completed. Large outputs (the knowledge base's records and embeddings)
are streamed into that file piece by piece, so no whole-file copy is held in
memory; small ones are written in one call by `atomic_write_bytes` and
`atomic_write_text`."""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

from .errors import MalformedRecord


# One decoder for every JSONL line: `json.loads` minus its per-call argument
# checks. JSON whitespace is space, tab, LF and CR only.
_decode = json.JSONDecoder().raw_decode
_skip_ws = json.decoder.WHITESPACE.match
_JSON_WS = " \t\n\r"
_BOM_MSG = "Unexpected UTF-8 BOM (decode using utf-8-sig)"


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line_number, parsed value) for each non-blank line of a JSONL file.

    Line numbers count from 1 and include blank lines (`line.strip()` is
    empty). Each other line is decoded by one `raw_decode` call from the end
    of its leading JSON whitespace, and only JSON whitespace may follow the
    value, so it yields exactly `json.loads(line)`. A line that is not valid
    JSON, or is nested too deeply to parse, raises MalformedRecord naming it
    with `json.loads`'s own message ("Extra data" for a second value,
    "Unexpected UTF-8 BOM" for a line that starts with U+FEFF). A file that
    is not UTF-8 raises MalformedRecord naming its first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            for line_number, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj, end = _decode(line, _skip_ws(line).end())
                    if line[end:].strip(_JSON_WS):
                        raise json.JSONDecodeError("Extra data", line, _skip_ws(line, end).end())
                except json.JSONDecodeError as e:
                    # U+FEFF is neither JSON whitespace nor the start of a value,
                    # so a line that opens with it always fails to decode.
                    msg = _BOM_MSG if line.startswith("\ufeff") else e.msg
                    raise MalformedRecord(line_number, f"invalid JSON ({msg})", path) from e
                except RecursionError:
                    msg = "nested too deeply"
                    raise MalformedRecord(line_number, f"invalid JSON ({msg})", path) from None
                yield line_number, obj
        except UnicodeDecodeError:
            _raise_bad_utf8_line(path)
            raise


def _raise_bad_utf8_line(path) -> None:
    """Raise MalformedRecord for the first line of `path` that is not UTF-8.

    Latin-1 decodes each byte to one character, so the file splits into the
    lines the UTF-8 read numbered (no UTF-8 sequence holds a CR or LF byte);
    each line's bytes are then decoded on their own.
    """
    with open(path, "r", encoding="latin-1") as f:
        for line_number, line in enumerate(f, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as e:
                raise MalformedRecord(line_number, _bad_utf8(e), path) from None


def _bad_utf8(e: UnicodeDecodeError) -> str:
    """The one message for bytes that are not UTF-8, naming the first bad byte."""
    return f"invalid UTF-8 (byte 0x{e.object[e.start]:02x} at offset {e.start}: {e.reason})"


def read_jsonl_objects(path, fields: dict, unique: str) -> Iterator[tuple[int, dict]]:
    """`read_jsonl`, each line an object holding every key of `fields`.

    A line that breaks the table (see `field_problem`), or repeats an earlier
    line's `unique` value, raises MalformedRecord naming the file and line.
    """
    seen = set()
    for line_number, obj in read_jsonl(path):
        problem = field_problem(obj, fields, fields)
        if problem is None and obj[unique] in seen:
            problem = f"duplicate {unique} {obj[unique]!r}"
        if problem is not None:
            raise MalformedRecord(line_number, problem, path)
        seen.add(obj[unique])
        yield line_number, obj


def is_int(value) -> bool:
    """True for a JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# The field checks most tables share: (check, what passing it means).
STRING = (lambda v: isinstance(v, str), "a string")
INTEGER = (is_int, "an integer")
BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
LIST = (lambda v: isinstance(v, list), "a list")


def field_problem(obj, fields: dict, required=(), closed: bool = False) -> str | None:
    """The first way a parsed JSON value breaks a field table, or None.

    `fields` maps each known key to `(check, expected)`: its value must pass
    `check`, which `expected` describes. Keys in `required` must be present,
    and a `closed` table refuses unknown keys. Nothing is converted.
    """
    if not isinstance(obj, dict):
        return f"must be a JSON object, got {obj!r}"
    for key in required:
        if key not in obj:
            return f"missing key {key!r}"
    for key, value in obj.items():
        if key in fields:
            check, expected = fields[key]
            if not check(value):
                return f"{key!r} must be {expected}, got {value!r}"
        elif closed:
            return f"unknown key {key!r}"
    return None


def read_json(path):
    """The JSON value of a whole file, such as a config. A file that is not
    UTF-8 or not valid JSON, or is nested too deeply to parse, raises
    ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # invalid JSON or UTF-8, or nested too deeply
        raise ValueError(f"{path}: invalid JSON ({e})") from e


def fixed_json(obj, indent: int = 2) -> str:
    """Render JSON with insertion-order keys and 6-decimal fixed-point floats.

    Reports are diffed byte-for-byte across runs, so float rendering must not
    depend on repr shortest-form quirks.
    """
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _render(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closing_pad = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}"{_escape(str(key))}": ')
            _render(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _render(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing_pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(f"{obj:.6f}")
    elif isinstance(obj, str):
        out.append(f'"{_escape(obj)}"')
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# `"`, `\` and the C0 controls, each with its escape; all else passes through.
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    return _NEEDS_ESCAPE.sub(lambda m: _ESCAPES[m.group()], s)


@contextmanager
def atomic_writer(path) -> Iterator[BinaryIO]:
    """Yield a binary temp file in `path`'s directory for the block to write.

    The file replaces `path` when the block ends cleanly. If the block raises,
    the temp file is removed, and so is each directory made for it that is
    still empty, and `path` is left as it was.
    """
    path = Path(path)
    made = []  # the missing directories, deepest first
    parent = path.parent
    while not parent.exists():
        made.append(parent)
        parent = parent.parent
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # something else was written there meanwhile
                break
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write `data` to `path` in one call through `atomic_writer`."""
    with atomic_writer(path) as f:
        f.write(data)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def sha256_file(path) -> str:
    """Hex SHA-256 of a file, read through one reused 64 KiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb") as f:
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
