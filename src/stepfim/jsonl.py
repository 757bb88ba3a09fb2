"""Line-oriented JSON reading and writing shared by the pipeline stages."""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Iterator


class JsonlError(ValueError):
    """A line in a JSONL file is not a JSON object of UTF-8 text."""


# a \uD800-\uDFFF escape; JSON decodes a lone one, and only a lone one, to a surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(text: str, value: Any) -> bool:
    """Whether `value`, decoded from the JSON `text`, holds a lone surrogate:
    valid JSON, but no text that a UTF-8 file can hold."""
    return (_SURROGATE_ESCAPE.search(text) is not None
            and _SURROGATE.search(json.dumps(value, ensure_ascii=False)) is not None)


def read_jsonl(path: str) -> Iterator[dict[str, Any]]:
    """Yield one dict per non-blank line; raises JsonlError with the line number.

    A line that is not UTF-8, or whose JSON escapes a lone surrogate (valid
    JSON, but no text that a UTF-8 file can hold), is refused; every line
    before it is yielded first.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
            except UnicodeDecodeError as exc:
                raise JsonlError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
            except ValueError as exc:  # also an int past the 4,300-digit conversion limit
                raise JsonlError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise JsonlError(f"{path}:{lineno}: expected a JSON object")
            if has_lone_surrogate(line, row):
                raise JsonlError(f"{path}:{lineno}: a lone surrogate escape is not UTF-8 text")
            yield row


def dumps_line(row: dict[str, Any]) -> str:
    """One record as a single line, non-ASCII kept readable, trailing newline."""
    return json.dumps(row, ensure_ascii=False) + "\n"


def write_jsonl(path: str, rows: Iterable[dict[str, Any]]) -> int:
    """Write rows to path, one per line; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(dumps_line(row))
            count += 1
    return count
