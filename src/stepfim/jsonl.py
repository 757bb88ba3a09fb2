"""JSON reading and writing shared by the pipeline stages.

`read_jsonl` (per line) and `read_json` (a whole file) share one decode step:
UTF-8 text, JSON without `NaN`, `Infinity` or a number past float range
(RFC 8259 has none), a JSON object, and no escape of a lone surrogate.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Any, Iterable, Iterator, TextIO


class JsonlError(ValueError):
    """An input file or one of its lines is not a JSON object of UTF-8 text."""


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite float")
    return value


_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)
_ENCODER = json.JSONEncoder(ensure_ascii=False)
# the escape `_ENCODER` applies to each string, called alone: `_ENCODER.encode` of one string costs more
_ENCODE_STRING = encode_basestring_ascii if _ENCODER.ensure_ascii else encode_basestring

# a \uD800-\uDFFF escape; JSON decodes a lone one, and only a lone one, to a surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _decode(raw: bytes, where: str) -> dict[str, Any] | None:
    """The JSON object `raw` holds, or None when it is blank after `str.strip()`;
    raises JsonlError naming `where`."""
    try:
        text = raw.decode("utf-8").strip()
        if not text:
            return None
        value = _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        raise JsonlError(f"{where}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # also an int past the 4,300-digit conversion limit
        raise JsonlError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise JsonlError(f"{where}: expected a JSON object")
    if _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(_ENCODER.encode(value)):
        raise JsonlError(f"{where}: a lone surrogate escape is not UTF-8 text")
    return value


def read_jsonl(path: str) -> Iterator[dict[str, Any]]:
    """Yield one dict per non-blank line; raises JsonlError naming `path:line`,
    after yielding every line before it."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            row = _decode(raw, f"{path}:{lineno}")
            if row is not None:
                yield row


def read_json(path: str) -> dict[str, Any]:
    """The JSON object a whole file holds; raises JsonlError naming `path`."""
    with open(path, "rb") as handle:
        row = _decode(handle.read(), path)
    if row is None:
        raise JsonlError(f"{path}: expected a JSON object")
    return row


def dumps_line(row: dict[str, Any]) -> str:
    """One record as a single line, non-ASCII kept readable, trailing newline."""
    return _ENCODER.encode(row) + "\n"


def escape(text: str) -> str:
    """`text` as `dumps_line` writes it between a JSON string's quotes."""
    return _ENCODE_STRING(text)[1:-1]


def open_out(path: str) -> TextIO:
    """`path` opened for writing as every output file is: UTF-8 text, LF line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_jsonl(path: str, rows: Iterable[dict[str, Any]]) -> int:
    """Write rows to path, one per line; returns the row count."""
    count = 0
    with open_out(path) as handle:
        for row in rows:
            handle.write(dumps_line(row))
            count += 1
    return count
