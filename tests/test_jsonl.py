"""JSONL reading and writing: round trips and malformed-line reporting."""

from __future__ import annotations

import json

import pytest

from stepfim.jsonl import JsonlError, dumps_line, read_jsonl, write_jsonl


def test_write_then_read_round_trip(tmp_path):
    rows = [{"id": "a", "n": 1}, {"id": "b", "steps": ["x", "y"], "nested": {"k": [1, 2]}}]
    path = str(tmp_path / "rows.jsonl")
    write_jsonl(path, rows)
    assert list(read_jsonl(path)) == rows


def test_one_line_per_row_and_no_ascii_escaping(tmp_path):
    path = str(tmp_path / "rows.jsonl")
    write_jsonl(path, [{"q": "What is 7 × 8?"}])
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    assert raw == '{"q": "What is 7 × 8?"}\n'
    assert "\\u" not in raw


def test_dumps_line_matches_file_format(tmp_path):
    row = {"a": 1, "text": "π"}
    path = str(tmp_path / "one.jsonl")
    write_jsonl(path, [row])
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == dumps_line(row)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"b": 2}\n', encoding="utf-8")
    assert list(read_jsonl(str(path))) == [{"a": 1}, {"b": 2}]


def test_bad_json_reports_path_and_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"a": 1}\n{not json}\n', encoding="utf-8")
    with pytest.raises(JsonlError) as exc:
        list(read_jsonl(str(path)))
    assert "bad.jsonl:2" in str(exc.value)


def test_non_object_rows_are_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    with pytest.raises(JsonlError) as exc:
        list(read_jsonl(str(path)))
    assert "1" in str(exc.value)


def test_reading_is_lazy(tmp_path):
    path = tmp_path / "lazy.jsonl"
    path.write_text('{"a": 1}\n{broken\n', encoding="utf-8")
    reader = read_jsonl(str(path))
    assert next(reader) == {"a": 1}
    with pytest.raises(JsonlError):
        next(reader)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        list(read_jsonl(str(tmp_path / "absent.jsonl")))


def test_round_trip_preserves_key_order(tmp_path):
    row = {"z": 1, "a": 2, "m": 3}
    path = str(tmp_path / "order.jsonl")
    write_jsonl(path, [row])
    with open(path, encoding="utf-8") as handle:
        assert list(json.loads(handle.read())) == ["z", "a", "m"]
