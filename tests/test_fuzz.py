"""JSONL of any shape through the CLI: the exit-code contract holds.

Every line is a valid JSON object, but its keys and values are drawn at
random, biased toward the keys the subcommands read; a text value may
hold a lone surrogate, valid JSON that is no UTF-8 text, and one line may
not be UTF-8 at all or may carry a number RFC 8259 excludes (`NaN`,
`Infinity`, `-Infinity`) or one past float range (`1e400`). A subcommand
must exit 0 (bad records are skipped, rejected or passed through) or 2
(bad data), never raise out of `cli.main` and never print a traceback.
With the oracle, `expand` exits 2 when every gap it tried ended in
`backend_error`: the oracle cannot parse a question it did not generate.

Every record is accounted for: the counts on a subcommand's summary line
add up to the input rows, and `decompose`, `build-fim` and `expand` give
each record without an id the one reason `id is missing`.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepfim import cli

# st.text() draws no surrogate; this alphabet holds every assigned character, and
# surrogates among them: JSON escapes one ("\ud800"), and a lone one is no UTF-8 text
texts = st.text(st.characters(exclude_categories=["Cn"]), max_size=40)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | texts,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
keys = st.sampled_from(["id", "question", "solution", "steps"]) | st.text(max_size=6)
steps = st.lists(texts, max_size=5)
records = st.dictionaries(keys, json_values | steps, max_size=5)
# a line no subcommand may read, and how the error names it
bad_lines = st.sampled_from([
    (b'{"id": "\xff"}', "not UTF-8 text"),
    *((b'{"id": "a", "w": %s}' % token, "invalid JSON")
      for token in (b"NaN", b"Infinity", b"-Infinity", b"1e400")),
])

COMMANDS = {
    "decompose": ["--output", "{out}", "--rejects", "{rej}"],
    "build-fim": ["--output", "{out}", "--seed", "3"],
    "expand": ["--output", "{out}", "--report", "{rej}", "--backend", "oracle",
               "--max-in-flight", "1"],
    "stats": ["--output", "{out}"],
}

# each summary line, and the input rows its counts add up to (build-fim writes 3 samples a record)
SUMMARIES = {
    "decompose": (r"decompose: (\d+) chains written, (\d+) records rejected",
                  lambda kept, rejected: kept + rejected),
    "build-fim": (r"build-fim: (\d+) samples written, (\d+) records skipped",
                  lambda written, skipped: written / 3 + skipped),
    "expand": (r"expand: (\d+) records \(\d+ failed\)", lambda records: records),
    "stats": (r"stats: (\d+) records summarized", lambda records: records),
}


def _id_missing_reports(cmd: str, err: str, rej: str) -> int:
    """How many records the run reported as `id is missing`."""
    if cmd == "build-fim":
        return sum(line.endswith(": id is missing") for line in err.splitlines())
    with open(rej, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    return sum(line.get("error") == "ValueError: id is missing" for line in lines)


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(records, max_size=4), bad_at=st.none() | st.integers(0, 4), bad=bad_lines)
def test_any_json_objects_keep_the_exit_code_contract(tmp_path, capsys, rows, bad_at, bad, cmd):
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("in", "out", "rej")}
    lines = [json.dumps(row, allow_nan=False).encode("ascii") + b"\n" for row in rows]
    bad_line, needle = bad
    if bad_at is not None:
        lines.insert(bad_at, bad_line + b"\n")
    with open(paths["in"], "wb") as handle:
        handle.write(b"".join(lines))
    argv = [cmd, "--input", paths["in"], *(arg.format(**paths) for arg in COMMANDS[cmd])]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 2), err
    if bad_at is not None:
        assert code == 2, err
        before = min(bad_at, len(rows))
        if f"in.jsonl:{before + 1}: {needle}" not in err:
            # the rows before that line are read first: one of them ended the run, so alone they do too
            with open(paths["in"], "wb") as handle:
                handle.write(b"".join(lines[:before]))
            assert cli.main(argv) == 2, err
            capsys.readouterr()

    pattern, rows_counted = SUMMARIES[cmd]
    summary = re.search(pattern, err)
    if code == 0:
        assert summary is not None, err
    if summary is not None:
        assert rows_counted(*map(int, summary.groups())) == len(rows), err
    if cmd != "stats" and summary is not None:
        id_less = sum("id" not in row for row in rows)
        assert _id_missing_reports(cmd, err, paths["rej"]) == id_less, err
