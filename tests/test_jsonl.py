"""JSON reading and writing: round trips and malformed-line reporting."""

from __future__ import annotations

import json

import pytest

from stepfim.jsonl import JsonlError, dumps_line, read_json, read_jsonl, write_jsonl


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


@pytest.mark.parametrize("blank", ["\u00a0", "\u2028"], ids=["nbsp", "line-separator"])
def test_a_line_blank_after_str_strip_is_skipped(tmp_path, blank):
    path = tmp_path / "gaps.jsonl"
    path.write_text(f'{{"a": 1}}\n{blank}\n{{"b": 2}}\n', encoding="utf-8")
    assert list(read_jsonl(str(path))) == [{"a": 1}, {"b": 2}]


# JSON that is no input: each is refused by read_json for a file and by read_jsonl for a line
BAD_JSON = [
    pytest.param(b'{"a": "\xff"}', "not UTF-8 text", id="not-utf8"),
    pytest.param(b'{"a": "\\ud800"}', "a lone surrogate escape is not UTF-8 text", id="lone-surrogate"),
    pytest.param(b'{"a": NaN}', "invalid JSON: NaN is not a finite float", id="nan"),
    pytest.param(b'{"a": Infinity}', "invalid JSON: Infinity is not a finite float", id="infinity"),
    pytest.param(b'{"a": -Infinity}', "invalid JSON: -Infinity is not a finite float", id="-infinity"),
    pytest.param(b'{"a": [1e400]}', "invalid JSON: 1e400 is not a finite float", id="1e400"),
    pytest.param(b'{"a": -1e400}', "invalid JSON: -1e400 is not a finite float", id="-1e400"),
    pytest.param(b"[1, 2]", "expected a JSON object", id="array"),
]


def test_read_json_returns_the_object_a_file_holds(tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{\n  "a": 1.5,\n  "b": ["\\ud83d\\ude00", 1e308]\n}\n', encoding="utf-8")
    assert read_json(str(path)) == {"a": 1.5, "b": ["\U0001f600", 1e308]}


@pytest.mark.parametrize("content, needle", BAD_JSON)
def test_read_json_refuses_what_is_no_json_object_of_utf8_text(tmp_path, content, needle):
    path = tmp_path / "bad.json"
    path.write_bytes(content + b"\n")
    with pytest.raises(JsonlError) as exc:
        read_json(str(path))
    assert str(exc.value).startswith(f"{path}: {needle}")


@pytest.mark.parametrize("content, needle", BAD_JSON)
def test_read_jsonl_yields_the_rows_before_a_bad_line(tmp_path, content, needle):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"a": 1.5}\n{"b": 2}\n' + content + b'\n{"c": 3}\n')
    rows = []
    with pytest.raises(JsonlError) as exc:
        rows.extend(read_jsonl(str(path)))
    assert rows == [{"a": 1.5}, {"b": 2}]
    assert str(exc.value).startswith(f"{path}:3: {needle}")


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
