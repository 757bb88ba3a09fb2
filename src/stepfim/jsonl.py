"""Line-oriented JSON reading and writing shared by the pipeline stages."""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator


class JsonlError(ValueError):
    """A line in a JSONL file is not a JSON object."""


def read_jsonl(path: str) -> Iterator[dict[str, Any]]:
    """Yield one dict per non-blank line; raises JsonlError with the line number."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:  # also an int past the 4,300-digit conversion limit
                raise JsonlError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise JsonlError(f"{path}:{lineno}: expected a JSON object")
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
