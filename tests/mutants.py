"""Mutation checks: each mutant is a one-place change to `src/stepfim` that named tests must catch.

Run from anywhere, with pytest and the test dependencies installed:

    python tests/mutants.py

First the runner runs every mutant's tests on an unchanged copy of `src/`, which
must pass. Then, for each mutant, it copies `src/` to a temporary directory and
requires the mutant's `old` text to occur exactly once in its file; otherwise
the mutant is *stale*, and must be updated along with the code it mutates. It
writes `new` in place of `old` and runs `python -m pytest -q -x -p
no:cacheprovider <kills>` from the repository root with the copy alone on
PYTHONPATH. The mutant is *killed* when a test fails and has *survived* when
they all pass; any other pytest exit (a test id that does not exist, a
collection error) is an *error*. It prints one line per mutant and exits 0 when
every mutant is killed, 1 otherwise.

Tier-1 does not collect this file, since its name does not match `test_*.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # the mutated file, under src/stepfim
    old: str  # must occur exactly once in that file
    new: str
    kills: tuple[str, ...]  # pytest node ids, relative to the repository root


DECOMPOSE = "tests/test_decompose.py"
CLI = "tests/test_cli.py"

MUTANTS = [
    # normalize_ws takes text with a leading space as normalized
    Mutant("decompose.py", 'if flat[:1] != " " and flat[-1:] != " "', 'if flat[-1:] != " "',
           (f"{DECOMPOSE}::TestNormalizeWs::test_matches_split_and_join",)),
    # ... or text holding a tab
    Mutant("decompose.py", ' and "  " not in flat and flat.isprintable():', ' and "  " not in flat:',
           (f"{DECOMPOSE}::TestNormalizeWs::test_matches_split_and_join",)),
    # \$ and \\ spend one character, so the $ of \$ opens a span
    Mutant("decompose.py", r'pos = start + (2 if kind in ("\\$", "\\\\") else 1)', "pos = start + 1",
           (f"{DECOMPOSE}::TestMathProtection::test_escaped_dollar_is_plain_text",)),
    # two-character tails never match the three-character ones: every abbreviation breaks
    Mutant("decompose.py", "masked[p - 2 : p + 1] in _ABBREVIATION_TAILS",
           "masked[p - 1 : p + 1] in _ABBREVIATION_TAILS",
           (f"{DECOMPOSE}::TestSplitting::test_a_title_abbreviation_inside_a_sentence_does_not_split",)),
    # a sentence end breaks before any non-ASCII character, lower case too
    Mutant("decompose.py",
           r'if not ascii_only and masked[p + 2] >= "\x80" and not masked[p + 2].isupper():',
           "if False:",
           (f"{DECOMPOSE}::TestSplitting::test_what_may_open_a_sentence_step",)),
    # check_chain counts steps from 1
    Mutant("fim.py", '_check_clean(text, f"step {n}")', '_check_clean(text, f"step {n + 1}")',
           ("tests/test_fim.py::TestSerialization::test_check_chain_names_the_first_field_with_a_token",)),
    # build-fim no longer refuses a chain with a special token
    Mutant("fim.py", "    check_chain(question, steps)\n", "",
           (f"{CLI}::TestBuildFim::test_a_special_token_is_named_as_expand_names_it_at_any_seed",)),
    # an http expand stops after 9 failing records in a row
    Mutant("cli.py", "FAILING_RECORDS = 8", "FAILING_RECORDS = 9",
           (f"{CLI}::TestExpand::test_an_endpoint_failing_eight_records_in_a_row_stops_the_run",)),
    # a record that tried no gap ends the run of failing records
    Mutant("cli.py", "if attempted:  # a record that tried no gap changes nothing",
           "if not attempted:\n                        failing = 0\n                    else:",
           (f"{CLI}::TestExpand::test_an_endpoint_failing_eight_records_in_a_row_stops_the_run",)),
    # report keys follow field order, so reordering the fields reorders the report line
    Mutant("expand.py", "    attempted: int = field(init=False)\n    inserted: int = field(init=False)\n",
           "    inserted: int = field(init=False)\n    attempted: int = field(init=False)\n",
           (f"{CLI}::TestExpand::test_report_lines_keep_their_keys_in_order",)),
    # a missing field is named by its bare repr
    Mutant("decompose.py", 'raise ValueError(f"{name} is missing")', "raise ValueError(repr(name))",
           (f"{CLI}::TestStatsAndCompare::test_compare_names_a_missing_summary_field",
            f"{CLI}::test_a_missing_field_is_named_by_each_subcommand_that_reads_it")),
    # another separator in the seeded-draw key changes every gen-synth corpus
    Mutant("fim.py", r'f"{seed}\x1f{name}\x1f{index}"', r'f"{seed}\x1e{name}\x1f{index}"',
           (f"{CLI}::TestGoldenSynth::test_gen_synth_matches_the_checked_in_hashes",)),
    # exit codes, one mutant per rule of the cli module docstring:
    # an unreachable endpoint exits 2, not 3
    Mutant("cli.py", 'except BackendUnreachable as exc:\n        _note(f"error: {exc}")\n        return 3',
           'except BackendUnreachable as exc:\n        _note(f"error: {exc}")\n        return 2',
           (f"{CLI}::TestExpand::test_unreachable_endpoint_exits_three",)),
    # an input file that is not JSON lines of UTF-8 exits 1, as a usage error
    Mutant("cli.py", "except (DataError, JsonlError, EmptyCorpus,", "except (DataError, EmptyCorpus,",
           (f"{CLI}::TestExitCodesAndConfig::test_input_that_is_not_utf8_exits_two",)),
    # an in-process backend that failed every gap exits 3, as if unreachable
    Mutant("cli.py", 'return 3 if bconf.kind == "http" else 2', "return 3",
           (f"{CLI}::TestExpand::test_in_process_backend_failing_every_gap_exits_two",)),
    # Ctrl-C exits 1, not 130
    Mutant("cli.py", "        return 130\n", "        return 1\n",
           (f"{CLI}::TestExpand::test_ctrl_c_on_a_pooled_http_run_ends_the_running_requests",)),
    # a worker thread that cannot start escapes as a traceback, not exit 2
    Mutant("cli.py", 'raise OSError(f"--max-in-flight {econf.max_in_flight}: {exc}") from exc', "raise",
           (f"{CLI}::TestExpand::test_a_worker_thread_that_cannot_start_exits_two",)),
    # a usage error exits 2, argparse's own code
    Mutant("cli.py", 'self.exit(1, f"{self.prog}: error: {message}\\n")',
           'self.exit(2, f"{self.prog}: error: {message}\\n")',
           (f"{CLI}::TestExitCodesAndConfig::test_unknown_flag_exits_one",)),
    # the http backend never gives a connection back to its pool
    Mutant("backends.py", "                self._idle.append(conn)\n", "",
           ("tests/test_backends.py::TestKeepAliveConnections::"
            "test_a_backend_reused_across_pooled_runs_keeps_one_connection_per_slot",)),
]


def _pytest(src: Path, kills: Iterable[str]) -> int:
    """The exit code of the `kills` tests run against the package under `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *kills]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_mutant(mutant: Mutant) -> str:
    """"killed", "survived", "stale" or "error"."""
    with tempfile.TemporaryDirectory(prefix="stepfim-mutant-") as tmp:
        src = _copy_src(tmp)
        target = src / "stepfim" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return {0: "survived", 1: "killed"}.get(_pytest(src, mutant.kills), "error")


def main(mutants: list[Mutant] = MUTANTS) -> int:
    kills = sorted({test for mutant in mutants for test in mutant.kills})
    with tempfile.TemporaryDirectory(prefix="stepfim-mutant-") as tmp:
        code = _pytest(_copy_src(tmp), kills)
    if code != 0:
        print(f"the tests fail on unchanged code (pytest exit {code}): {' '.join(kills)}")
        return 1
    failed = 0
    for mutant in mutants:
        status = run_mutant(mutant)
        failed += status != "killed"
        print(f"{status:8} {mutant.path}: {mutant.old.strip().splitlines()[0]}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
