"""JSONL of any shape through the CLI: the exit-code contract holds.

Every line is a valid JSON object, but its keys and values are drawn at
random, biased toward the keys the subcommands read. A subcommand must
exit 0 (bad records are skipped, rejected or passed through) or 2 (bad
data), never raise out of `cli.main` and never print a traceback. With
the oracle, `expand` exits 2 when every gap it tried ended in
`backend_error`: the oracle cannot parse a question it did not generate.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepfim import cli

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
keys = st.sampled_from(["id", "question", "solution", "steps"]) | st.text(max_size=6)
steps = st.lists(st.text(max_size=40), max_size=5)
records = st.dictionaries(keys, json_values | steps, max_size=5)

COMMANDS = {
    "decompose": ["--output", "{out}", "--rejects", "{rej}"],
    "build-fim": ["--output", "{out}", "--seed", "3"],
    "expand": ["--output", "{out}", "--report", "{rej}", "--backend", "oracle",
               "--max-in-flight", "1"],
    "stats": ["--output", "{out}"],
}


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(records, max_size=4))
def test_any_json_objects_keep_the_exit_code_contract(tmp_path, capsys, rows, cmd):
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("in", "out", "rej")}
    with open(paths["in"], "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, allow_nan=False) + "\n")
    argv = [cmd, "--input", paths["in"], *(arg.format(**paths) for arg in COMMANDS[cmd])]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 2), err
