"""Serialization helpers: JSONL reading, diffable report JSON, atomic writes,
file hashing."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path

from .errors import MalformedRecord


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """Yield (line_number, parsed value) for each non-blank line of a JSONL file.

    Line numbers count from 1 and include blank lines; a line that is not
    valid JSON raises MalformedRecord naming it.
    """
    with open(path, "r", encoding="utf-8") as f:
        for line_number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedRecord(line_number, f"invalid JSON ({e.msg})") from e
            yield line_number, obj


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


def _escape(s: str) -> str:
    result = []
    for ch in s:
        if ch in ('"', "\\"):
            result.append("\\" + ch)
        elif ord(ch) < 0x20:
            result.append(f"\\u{ord(ch):04x}")
        else:
            result.append(ch)
    return "".join(result)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(Path(path), text.encode("utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
