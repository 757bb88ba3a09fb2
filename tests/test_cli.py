"""End-to-end command-line runs: subcommands, exit codes, config layering."""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from helpers import StubCompletionServer

from stepfim import backends, cli, synth
from stepfim.backends import OracleBackend, ReplayBackend, request_id_for


def run_cli(*args: str, timeout: float = 120):
    return subprocess.run(
        [sys.executable, "-m", "stepfim", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


DATA = Path(__file__).parent / "data"

CHAIN = {"id": "c0", "question": "What is 2 + 3?", "steps": ["Add 2 and 3.", "The answer is 5."]}

# records whose id is missing or whose id or question has the wrong type, and the reason given
BAD_ID_OR_QUESTION = [
    ({"id": "a", "question": 123, "steps": ["One step here.", "Two step here."]},
     "question must be a string, not a int"),
    ({"id": {"a": 1}, "question": "q?", "steps": ["One step here.", "Two step here."]},
     "id must be a string or an int, not a dict"),
    ({"id": True, "question": "q?", "steps": ["One step here.", "Two step here."]},
     "id must be a string or an int, not a bool"),
    ({"id": [1], "question": "q?", "steps": ["One step here.", "Two step here."]},
     "id must be a string or an int, not a list"),
    ({"question": "q?", "steps": ["One step here.", "Two step here."]}, "id is missing"),
]


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    result = run_cli("gen-synth", "--count", "12", "--seed", "99", "--out", str(out))
    assert result.returncode == 0, result.stderr
    return out


@pytest.mark.parametrize("field", ["question", "steps", "solution"])
def test_a_missing_field_is_named_by_each_subcommand_that_reads_it(tmp_path, capsys, field):
    # decompose reads question and solution; build-fim and expand read question and steps;
    # stats reads steps
    row = {"id": "a", "question": "What is the value of (2 + 3) * 4?",
           "solution": "Compute 2 + 3 = 5. The answer is 20.",
           "steps": ["Compute 2 + 3 = 5.", "The answer is 20."]}
    del row[field]
    inp, out, aside = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "aside.jsonl"
    _write_jsonl(inp, [row])
    reason = f"{field} is missing"

    assert cli.main(["decompose", "--input", str(inp), "--output", str(out),
                     "--rejects", str(aside)]) == 0
    rejects = _read_jsonl(aside)
    assert rejects == ([{**row, "error": f"ValueError: {reason}"}] if field != "steps" else [])

    assert cli.main(["build-fim", "--input", str(inp), "--output", str(out), "--seed", "7"]) == 0
    skipped = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
    assert skipped == ([f"build-fim: skipping record 'a': {reason}"] if field != "solution" else [])

    assert cli.main(["expand", "--input", str(inp), "--output", str(out), "--report", str(aside),
                     "--backend", "oracle"]) == 0
    (line,) = _read_jsonl(aside)[1:]
    assert line["error"] == (f"ValueError: {reason}" if field != "solution" else None)

    # stats skips no record, so it exits 2
    assert cli.main(["stats", "--input", str(inp)]) == (2 if field == "steps" else 0)
    if field == "steps":
        assert capsys.readouterr().err.rstrip().endswith(f"error: record 1: {reason}")


class TestGenSynth:
    def test_writes_three_corpus_files(self, synth_dir):
        for name in ("coarse.jsonl", "fine.jsonl", "dropped.jsonl"):
            assert (synth_dir / name).exists()
        assert len(_read_jsonl(synth_dir / "coarse.jsonl")) == 12
        assert len(_read_jsonl(synth_dir / "fine.jsonl")) == 12

    def test_coarse_is_a_subset_of_fine(self, synth_dir):
        coarse = _read_jsonl(synth_dir / "coarse.jsonl")
        fine = _read_jsonl(synth_dir / "fine.jsonl")
        dropped = _read_jsonl(synth_dir / "dropped.jsonl")
        for c, f, d in zip(coarse, fine, dropped):
            assert c["id"] == f["id"] == d["id"]
            kept = [s for i, s in enumerate(f["steps"]) if i not in d["dropped_indices"]]
            assert kept == c["steps"]

    def test_output_is_utf8_without_bom(self, synth_dir):
        raw = (synth_dir / "fine.jsonl").read_bytes()
        assert not raw.startswith(b"\xef\xbb\xbf")
        raw.decode("utf-8")

    def test_same_seed_same_bytes(self, tmp_path, synth_dir):
        other = tmp_path / "again"
        result = run_cli("gen-synth", "--count", "12", "--seed", "99", "--out", str(other))
        assert result.returncode == 0
        for name in ("coarse.jsonl", "fine.jsonl", "dropped.jsonl"):
            assert (other / name).read_bytes() == (synth_dir / name).read_bytes()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python has no int-to-str digit limit")
    def test_values_past_the_int_digit_limit_name_the_settings(self, tmp_path, capsys):
        # 300-digit operands multiplied 16 times outgrow the 4,300-digit default limit
        lo, hi = str(10**299), str(9 * 10**299)
        code = cli.main(["gen-synth", "--count", "1", "--seed", "1", "--ops-min", "16",
                         "--ops-max", "16", "--operators", "*", "--operand-min", lo,
                         "--operand-max", hi, "--out", str(tmp_path / "big")])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "int-to-str digit limit" in err and "ops_max" in err and f"[{lo}, {hi}]" in err

    def test_a_product_spec_past_the_digit_limit_is_refused_before_generating(self, tmp_path, capsys):
        # 90 ** 2201 has 4,302 digits; generating up to it took over a minute of CPU
        started = time.perf_counter()
        code = cli.main(["gen-synth", "--count", "1", "--seed", "1", "--ops-min", "2200",
                         "--ops-max", "2200", "--operators", "*", "--operand-min", "90",
                         "--operand-max", "99", "--out", str(tmp_path / "big")])
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.rstrip().endswith("error: values outgrow the int-to-str digit limit; lower ops_max "
                                     "or the operand range [90, 99]")
        assert elapsed < 5, elapsed
        assert not (tmp_path / "big").exists()

    def test_seed_is_mandatory(self, tmp_path):
        result = run_cli("gen-synth", "--count", "5", "--out", str(tmp_path / "x"))
        assert result.returncode == 1
        assert "--seed" in result.stderr


class TestDecompose:
    def _cot_rows(self):
        return [
            {
                "id": "c0",
                "question": "What is (2 + 3) * 4?",
                "solution": "First, compute 2 + 3 = 5. Then multiply 5 by 4 to get 20. The answer is 20.",
            },
            {
                "id": "c1",
                "question": "What is 10 - 3?",
                "solution": "Subtract 3 from 10 to get 7. The answer is 7.",
            },
        ]

    def test_splits_solutions_into_steps(self, tmp_path):
        inp, out = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl"
        _write_jsonl(inp, self._cot_rows())
        result = run_cli("decompose", "--input", str(inp), "--output", str(out))
        assert result.returncode == 0, result.stderr
        chains = _read_jsonl(out)
        assert [row["id"] for row in chains] == ["c0", "c1"]
        assert len(chains[0]["steps"]) == 3
        assert chains[0]["steps"][0] == "First, compute 2 + 3 = 5."

    def test_rejects_file_catches_bad_records(self, tmp_path):
        rows = self._cot_rows()
        rows.insert(1, {"id": "broken", "question": "q?", "solution": "   "})
        inp, out, rej = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl", tmp_path / "rej.jsonl"
        _write_jsonl(inp, rows)
        result = run_cli(
            "decompose", "--input", str(inp), "--output", str(out), "--rejects", str(rej)
        )
        assert result.returncode == 0
        assert [row["id"] for row in _read_jsonl(out)] == ["c0", "c1"]
        rejects = _read_jsonl(rej)
        assert len(rejects) == 1
        assert rejects[0]["id"] == "broken"
        assert "error" in rejects[0]

    def test_bad_records_do_not_fail_the_run_without_rejects(self, tmp_path):
        inp, out = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl"
        _write_jsonl(inp, [{"id": "broken", "question": "q?"}] + self._cot_rows())
        result = run_cli("decompose", "--input", str(inp), "--output", str(out))
        assert result.returncode == 0
        assert len(_read_jsonl(out)) == 2
        assert "1 records rejected" in result.stderr

    def test_bad_id_or_question_goes_to_rejects(self, tmp_path):
        rows = [
            {**{k: v for k, v in row.items() if k != "steps"}, "solution": " ".join(row["steps"])}
            for row, _ in BAD_ID_OR_QUESTION
        ]
        inp, out, rej = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl", tmp_path / "rej.jsonl"
        _write_jsonl(inp, rows + self._cot_rows())
        result = run_cli(
            "decompose", "--input", str(inp), "--output", str(out), "--rejects", str(rej)
        )
        assert result.returncode == 0, result.stderr
        assert [row["id"] for row in _read_jsonl(out)] == ["c0", "c1"]
        rejects = _read_jsonl(rej)
        assert [{k: v for k, v in r.items() if k != "error"} for r in rejects] == rows
        for line, (_, message) in zip(rejects, BAD_ID_OR_QUESTION, strict=True):
            assert line["error"] == f"ValueError: {message}"
        assert f"2 chains written, {len(rows)} records rejected" in result.stderr


    @pytest.mark.parametrize("row", [{"question": "q?"}, {"question": "q?", "solution": "   "}],
                             ids=["no-solution", "blank-solution"])
    def test_a_record_without_an_id_is_rejected_for_its_id(self, tmp_path, row):
        # the id rule comes first, as in build-fim and expand
        inp, out, rej = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl", tmp_path / "rej.jsonl"
        _write_jsonl(inp, [row])
        result = run_cli(
            "decompose", "--input", str(inp), "--output", str(out), "--rejects", str(rej)
        )
        assert result.returncode == 0, result.stderr
        assert _read_jsonl(rej) == [{**row, "error": "ValueError: id is missing"}]

    def test_negative_min_step_chars_exits_one_and_writes_nothing(self, tmp_path, capsys):
        inp, out = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl"
        _write_jsonl(inp, self._cot_rows())
        code = cli.main(["decompose", "--input", str(inp), "--output", str(out),
                         "--min-step-chars", "-5"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.rstrip().endswith("error: min_step_chars must be >= 0")
        assert not out.exists()

    def test_repeated_ids_are_counted_on_the_summary_line(self, tmp_path, capsys):
        rows = self._cot_rows()
        inp, out = tmp_path / "cot.jsonl", tmp_path / "chains.jsonl"
        _write_jsonl(inp, rows)
        assert cli.main(["decompose", "--input", str(inp), "--output", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "decompose: 2 chains written, 0 records rejected"
        )
        unique = out.read_bytes()

        # "c0" again, 7 and "7" (one id once read), and two records without an id
        extra = [{**rows[0], "id": 7}, {**rows[0], "id": "7"}, rows[0],
                 {"question": "q?", "solution": "No id at all here."},
                 {"question": "q?", "solution": "No id at all here."}]
        _write_jsonl(inp, rows + extra)
        assert cli.main(["decompose", "--input", str(inp), "--output", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "decompose: 5 chains written, 2 records rejected, 2 records repeat an earlier id"
        )
        assert out.read_bytes().startswith(unique)


class TestBuildFim:
    def test_emits_rounds_samples_per_chain(self, synth_dir, tmp_path):
        out = tmp_path / "fim.jsonl"
        result = run_cli(
            "build-fim", "--input", str(synth_dir / "fine.jsonl"),
            "--output", str(out), "--seed", "7",
        )
        assert result.returncode == 0, result.stderr
        samples = _read_jsonl(out)
        assert len(samples) == 12 * 3
        first = samples[0]
        assert first["psm_text"].startswith("<|fim_prefix|>")
        start, end = first["loss_char_start"], first["loss_char_end"]
        assert first["psm_text"][start:end] == first["middle"]

    def test_rounds_flag_changes_sample_count(self, synth_dir, tmp_path):
        out = tmp_path / "fim.jsonl"
        result = run_cli(
            "build-fim", "--input", str(synth_dir / "fine.jsonl"),
            "--output", str(out), "--seed", "7", "--rounds", "1",
        )
        assert result.returncode == 0
        assert len(_read_jsonl(out)) == 12

    def test_seed_is_mandatory(self, synth_dir, tmp_path):
        result = run_cli(
            "build-fim", "--input", str(synth_dir / "fine.jsonl"),
            "--output", str(tmp_path / "fim.jsonl"),
        )
        assert result.returncode == 1
        assert "--seed" in result.stderr

    @pytest.mark.parametrize("steps", ["Hi.", [1, 2]])
    def test_malformed_steps_are_skipped_and_counted(self, tmp_path, steps):
        inp, out = tmp_path / "chains.jsonl", tmp_path / "fim.jsonl"
        _write_jsonl(inp, [{"id": "bad", "question": "q?", "steps": steps}, CHAIN])
        result = run_cli("build-fim", "--input", str(inp), "--output", str(out), "--seed", "7")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "3 samples written, 1 records skipped" in result.stderr
        assert {sample["source_id"] for sample in _read_jsonl(out)} == {"c0"}

    def test_non_string_question_is_skipped_and_counted(self, tmp_path):
        inp, out = tmp_path / "chains.jsonl", tmp_path / "fim.jsonl"
        _write_jsonl(inp, [row for row, _ in BAD_ID_OR_QUESTION] + [CHAIN])
        result = run_cli("build-fim", "--input", str(inp), "--output", str(out), "--seed", "7")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        for _, message in BAD_ID_OR_QUESTION:
            assert message in result.stderr
        assert f"3 samples written, {len(BAD_ID_OR_QUESTION)} records skipped" in result.stderr
        assert {sample["source_id"] for sample in _read_jsonl(out)} == {"c0"}


    @pytest.mark.parametrize("field", ["question", 0, 2, 4])
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_a_special_token_is_named_as_expand_names_it_at_any_seed(self, tmp_path, capsys,
                                                                     field, seed):
        row = {"id": "t", "question": "What is 2 + 3?",
               "steps": ["Add 2 and 3.", "That gives 5.", "Write it down.", "Check it.", "Done."]}
        if field == "question":
            row["question"] += " <|fim_suffix|>"
        else:
            row["steps"][field] += " <|fim_prefix|>"
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        _write_jsonl(inp, [row])
        assert cli.main(["build-fim", "--input", str(inp), "--output", str(out),
                         "--seed", str(seed)]) == 0
        skipped = capsys.readouterr().err.splitlines()[1]
        assert cli.main(["expand", "--input", str(inp), "--output", str(out), "--report",
                         str(report), "--backend", "oracle"]) == 0
        (line,) = _read_jsonl(report)[1:]
        reason = line["error"].removeprefix("SpecialTokenCollision: ")
        assert reason == ("question" if field == "question" else f"step {field}") + \
            " contains a FIM special token"
        assert skipped == f"build-fim: skipping record 't': {reason}"

    def test_repeated_ids_are_counted_on_the_summary_line(self, tmp_path, capsys):
        inp, out = tmp_path / "chains.jsonl", tmp_path / "fim.jsonl"
        argv = ["build-fim", "--input", str(inp), "--output", str(out), "--seed", "7"]
        _write_jsonl(inp, [CHAIN])
        assert cli.main(argv) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "build-fim: 3 samples written, 0 records skipped"
        )
        once = out.read_bytes()

        _write_jsonl(inp, [CHAIN, CHAIN])
        assert cli.main(argv) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "build-fim: 6 samples written, 0 records skipped, 1 records repeat an earlier id"
        )
        # draws are keyed by the id, so the repeat gets the same samples
        assert out.read_bytes() == once * 2


class TestExpand:
    def test_oracle_backend_restores_dropped_steps(self, synth_dir, tmp_path):
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        result = run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
            "--report", str(report), "--backend", "oracle",
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == (synth_dir / "fine.jsonl").read_bytes()

    def test_report_lines_keep_their_keys_in_order(self, synth_dir, tmp_path, capsys):
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        assert cli.main(["expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
                         "--report", str(report), "--backend", "oracle"]) == 0, capsys.readouterr().err
        line = _read_jsonl(report)[1]
        assert list(line) == ["record_id", "iteration", "input_steps", "output_steps", "attempted",
                              "inserted", "invalid", "malformed", "errored", "error", "proposals"]
        assert list(line["proposals"][0]) == ["gap_index", "request_id", "candidate",
                                              "similarity_to_next", "decision", "error"]

    def test_a_fixture_recorded_by_request_id_for_replays_two_rounds(self, synth_dir, tmp_path):
        """The engine's ids, built from one escape a round, are `request_id_for`'s."""
        fixture = {}
        for name in ("coarse", "fine"):  # round 2 sees the chain that round 1 filled in
            for row in _read_jsonl(synth_dir / f"{name}.jsonl"):
                steps = tuple(row["steps"])
                for i in range(1, len(steps)):
                    prefix, suffix = steps[:i], steps[i:]
                    fixture[request_id_for(row["question"], prefix, suffix)] = synth.oracle_fill(
                        row["question"], prefix, suffix)
        _write_jsonl(tmp_path / "fixture.jsonl", [{"request_id": rid, "response": answer}
                                                  for rid, answer in fixture.items()])
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        assert cli.main(["expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
                         "--report", str(report), "--backend", "replay", "--iterations", "2",
                         "--fixture-path", str(tmp_path / "fixture.jsonl")]) == 0
        assert out.read_bytes() == (synth_dir / "fine.jsonl").read_bytes()
        proposals = [p for line in _read_jsonl(report)[1:] for p in line["proposals"]]
        assert len(proposals) == len(fixture)
        assert [p["error"] for p in proposals if p["error"]] == []
        assert {p["request_id"] for p in proposals} == set(fixture)

    def test_repeated_ids_are_counted_on_the_summary_line(self, synth_dir, tmp_path, capsys):
        rows = _read_jsonl(synth_dir / "coarse.jsonl")
        inp, out = tmp_path / "coarse.jsonl", tmp_path / "expanded.jsonl"
        _write_jsonl(inp, rows + rows[:2])
        assert cli.main(["expand", "--input", str(inp), "--output", str(out),
                         "--backend", "oracle"]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith("expand: 14 records (0 failed), ")
        assert summary.endswith(" 1 request in flight at most, 2 records repeat an earlier id")
        fine = (synth_dir / "fine.jsonl").read_bytes()
        assert out.read_bytes() == fine + b"".join(fine.splitlines(keepends=True)[:2])

    def test_report_opens_with_the_run_config(self, synth_dir, tmp_path):
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
            "--report", str(report), "--backend", "oracle",
        )
        lines = _read_jsonl(report)
        assert "config" in lines[0]
        assert lines[0]["config"]["backend"] == "oracle"
        assert len(lines) == 1 + 12
        for row in lines[1:]:
            assert "elapsed_ms" not in row
            assert row["attempted"] == row["inserted"] + row["invalid"] + row["malformed"] + row["errored"]

    def test_rerun_with_same_paths_is_byte_identical(self, synth_dir, tmp_path):
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        args = (
            "expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
            "--report", str(report), "--backend", "oracle",
        )
        assert run_cli(*args).returncode == 0
        first_out, first_report = out.read_bytes(), report.read_bytes()
        assert run_cli(*args).returncode == 0
        assert out.read_bytes() == first_out
        assert report.read_bytes() == first_report

    @pytest.mark.parametrize("steps", ["Hi.", [1, 2]])
    def test_malformed_steps_pass_through_with_an_error(self, tmp_path, steps):
        row = {"id": "bad", "question": "q?", "steps": steps}
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        _write_jsonl(inp, [row])
        result = run_cli(
            "expand", "--input", str(inp), "--output", str(out), "--report", str(report),
            "--backend", "oracle",
        )
        assert result.returncode == 0, result.stderr
        assert _read_jsonl(out) == [row]
        (line,) = _read_jsonl(report)[1:]
        assert line["error"].startswith("ValueError: ")
        assert line["attempted"] == 0

    def test_non_string_question_passes_through_with_an_error(self, tmp_path):
        rows = [row for row, _ in BAD_ID_OR_QUESTION]
        # a question the oracle can answer, so the run's one gap does not error
        good = {"id": "c0", "question": "What is the value of (2 + 3) * 4?",
                "steps": ["Compute 2 + 3 = 5.", "The answer is 20."]}
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        _write_jsonl(inp, rows + [good])
        result = run_cli(
            "expand", "--input", str(inp), "--output", str(out), "--report", str(report),
            "--backend", "oracle",
        )
        assert result.returncode == 0, result.stderr
        assert "1 inserted" in result.stderr
        assert f"{len(rows) + 1} records ({len(rows)} failed)" in result.stderr
        # the oracle never waits, so it fills one gap at a time at the default max_in_flight
        assert result.stderr.rstrip().endswith("s, 1 request in flight at most")
        assert _read_jsonl(out)[:-1] == rows
        *failed, last = _read_jsonl(report)[1:]
        for line, (_, message) in zip(failed, BAD_ID_OR_QUESTION, strict=True):
            assert line["error"] == f"ValueError: {message}"
            assert line["attempted"] == 0 and line["proposals"] == []
        assert [line["record_id"] for line in failed] == ["a", None, None, None, None]
        assert last["error"] is None and last["record_id"] == "c0"

    def test_malformed_line_mid_file_exits_two(self, synth_dir, tmp_path):
        inp = tmp_path / "in.jsonl"
        lines = (synth_dir / "coarse.jsonl").read_text(encoding="utf-8").splitlines()
        inp.write_text("\n".join(lines[:6] + ['{"id": "cut", "steps": ['] + lines[6:]) + "\n",
                       encoding="utf-8")
        result = run_cli(
            "expand", "--input", str(inp), "--output", str(tmp_path / "out.jsonl"),
            "--backend", "oracle",
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "in.jsonl:7" in result.stderr

    @pytest.mark.parametrize("retry_limit, posts", [(None, 3), (0, 1), (4, 5)])
    def test_a_failing_gap_gets_retry_limit_plus_one_posts(self, tmp_path, retry_limit, posts):
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        _write_jsonl(inp, [CHAIN])
        with StubCompletionServer([(503, {"error": "overloaded"})]) as server:
            argv = [
                "expand", "--input", str(inp), "--output", str(out), "--report", str(report),
                "--backend", "http", "--endpoint-url", server.url, "--backoff-ms", "1",
            ]
            if retry_limit is not None:
                argv += ["--retry-limit", str(retry_limit)]
            result = run_cli(*argv)
            # the run's only gap errored: exit 3, with output and report still written
            assert result.returncode == 3, result.stderr
            assert len(server.seen) == posts
            assert "1 errored" in result.stderr
            # http waits on the network, so it keeps max_in_flight workers
            assert "s, 4 requests in flight at most" in result.stderr
            assert result.stderr.rstrip().endswith("error: every gap ended in backend_error (1 attempted)")
        (line,) = _read_jsonl(report)[1:]
        (proposal,) = line["proposals"]
        assert proposal["decision"] == "backend_error"
        assert f"after {posts - 1} retries" in proposal["error"]
        assert _read_jsonl(out) == [CHAIN]

    def test_one_failing_gap_of_two_still_exits_zero(self, tmp_path):
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        chain = {**CHAIN, "steps": ["Add 2 and 3.", "That gives 5.", "The answer is 5."]}
        _write_jsonl(inp, [chain])
        # a 404 is never retried, so exactly one of the two gaps errors
        script = [(404, {"error": "nope"}), (200, {"completion": "Write down both numbers."})]
        with StubCompletionServer(script) as server:
            result = run_cli(
                "expand", "--input", str(inp), "--output", str(out), "--report", str(report),
                "--backend", "http", "--endpoint-url", server.url,
            )
            assert len(server.seen) == 2
        assert result.returncode == 0, result.stderr
        assert "1 errored" in result.stderr and "error:" not in result.stderr
        (line,) = _read_jsonl(report)[1:]
        assert sorted(p["decision"] for p in line["proposals"]) == ["backend_error", "valid"]

    @staticmethod
    def _by_content(body):
        """A 503 for a record whose question says so, whichever request comes first."""
        if "fails" in body["prompt"]:
            return 503, {"error": "overloaded"}
        return 200, {"completion": "Write down both numbers."}

    @staticmethod
    def _record(n, kind):
        steps = ["Add 2 and 3.", "That gives 5.", "The answer is 5."]
        return {"id": f"r{n}", "question": f"Record {n} {kind}?",
                "steps": steps[:1] if kind == "one-step" else steps}

    def test_an_endpoint_failing_eight_records_in_a_row_stops_the_run(self, tmp_path):
        # neither a record with one step nor one with a special token tries a gap,
        # so they do not break the run of failing records: the 8th is record 16
        kinds = (["works"] * 3 + ["fails"] * 3 + ["works"] + ["fails"] * 4
                 + ["one-step", "<|fim_middle|>"] + ["fails"] * 4 + ["works", "fails"] * 12)
        inp = tmp_path / "in.jsonl"
        _write_jsonl(inp, [self._record(n, kind) for n, kind in enumerate(kinds)])
        runs = {}
        for mif in (1, 4):
            out, report = tmp_path / f"out{mif}.jsonl", tmp_path / f"report{mif}.jsonl"
            with StubCompletionServer(self._by_content, keep_alive=True) as server:
                result = run_cli(
                    "expand", "--input", str(inp), "--output", str(out), "--report", str(report),
                    "--backend", "http", "--endpoint-url", server.url, "--max-in-flight", str(mif),
                    "--retry-limit", "0", "--backoff-ms", "0",
                )
                posted = {int(seen["body"]["prompt"].split()[1]) for seen in server.seen}
            assert result.returncode == 3, result.stderr
            assert "Traceback" not in result.stderr
            summary, error = result.stderr.splitlines()[-2:]
            assert summary.startswith("expand: 17 records (1 failed), 8 inserted / 0 invalid / "
                                      "0 malformed / 22 errored")
            assert error == ("error: endpoint failing: 8 records in a row had every gap end "
                             "in backend_error")
            # the records read ahead of the trip are the last ones sent
            assert max(posted) <= 16 + 4 * mif
            runs[mif] = out.read_bytes(), report.read_text(encoding="utf-8").splitlines()[1:]
        assert runs[1] == runs[4]
        assert [row["id"] for row in _read_jsonl(tmp_path / "out1.jsonl")] == [f"r{n}" for n in range(17)]

    def test_fewer_failing_records_in_a_row_exit_zero(self, tmp_path):
        kinds = ["works", "fails", "works"] + ["fails"] * 7 + ["works"]
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        _write_jsonl(inp, [self._record(n, kind) for n, kind in enumerate(kinds)])
        with StubCompletionServer(self._by_content, keep_alive=True) as server:
            result = run_cli("expand", "--input", str(inp), "--output", str(out), "--backend",
                             "http", "--endpoint-url", server.url, "--retry-limit", "0")
        assert result.returncode == 0, result.stderr
        assert "11 records (0 failed), 6 inserted / 0 invalid / 0 malformed / 16 errored" in result.stderr
        assert "error:" not in result.stderr

    def test_workers_keep_one_connection_each(self, tmp_path, capsys):
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        _write_jsonl(inp, [{**CHAIN, "id": f"c{i}"} for i in range(20)])
        script = [(200, {"completion": "Write down both numbers."})]
        with StubCompletionServer(script, keep_alive=True) as server:
            code = cli.main([
                "expand", "--input", str(inp), "--output", str(out), "--backend", "http",
                "--endpoint-url", server.url, "--max-in-flight", "4",
            ])
        assert code == 0, capsys.readouterr().err
        assert len(server.seen) == 20
        assert len({seen["client_address"] for seen in server.seen}) <= 4

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1:{port}/x", "http:///v1/completions"])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config-file"])
    def test_an_endpoint_that_is_not_an_http_url_exits_one(self, tmp_path, url, by_config):
        inp, cfg = tmp_path / "in.jsonl", tmp_path / "run.json"
        _write_jsonl(inp, [CHAIN])
        with StubCompletionServer([(200, {"completion": "x"})]) as server:
            url = url.format(port=urlsplit(server.url).port)
            argv = ["expand", "--input", str(inp), "--output", str(tmp_path / "out.jsonl"),
                    "--backend", "http"]
            if by_config:
                cfg.write_text(json.dumps({"endpoint_url": url}), encoding="utf-8")
                argv += ["--config", str(cfg)]
            else:
                argv += ["--endpoint-url", url]
            result = run_cli(*argv)
            assert server.seen == []
        # rejected before the probe, so the open port is never tried
        assert result.returncode == 1, result.stderr
        assert "requires an http:// or https:// endpoint_url with a host" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unreachable_endpoint_exits_three(self, synth_dir, tmp_path):
        result = run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"),
            "--output", str(tmp_path / "x.jsonl"), "--backend", "http",
            "--endpoint-url", "http://127.0.0.1:1/v1/completions",
        )
        assert result.returncode == 3
        assert "cannot reach" in result.stderr

    def test_ctrl_c_exits_130_without_a_traceback(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        _write_jsonl(inp, [CHAIN])
        # a default SIGINT handler even where the test runner's children ignore SIGINT
        child = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                 "from stepfim.cli import main; sys.exit(main(sys.argv[1:]))")
        with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts and never answers
            listener.settimeout(60)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            proc = subprocess.Popen(
                [sys.executable, "-c", child, "expand", "--input", str(inp),
                 "--output", str(tmp_path / "out.jsonl"), "--backend", "http",
                 "--endpoint-url", url, "--max-in-flight", "1"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            held = []
            try:
                for _ in range(2):  # the probe, then the first fill
                    held.append(listener.accept()[0])
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
                for conn in held:
                    conn.close()
        assert proc.returncode == 130, err
        assert err.rstrip().endswith("error: interrupted")
        assert "Traceback" not in err

    def test_ctrl_c_on_a_pooled_http_run_ends_the_running_requests(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        _write_jsonl(inp, [{**CHAIN, "id": f"c{i}"} for i in range(8)])
        child = ("import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
                 "from stepfim.cli import main; sys.exit(main(sys.argv[1:]))")
        with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts and never answers
            listener.settimeout(60)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            proc = subprocess.Popen(
                [sys.executable, "-c", child, "expand", "--input", str(inp),
                 "--output", str(tmp_path / "out.jsonl"), "--backend", "http",
                 "--endpoint-url", url, "--max-in-flight", "4", "--timeout-ms", "2000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            held, late = [], []
            try:
                for _ in range(5):  # the probe, then one fill per worker
                    held.append(listener.accept()[0])
                proc.send_signal(signal.SIGINT)
                signalled = time.perf_counter()
                _, err = proc.communicate(timeout=60)
                elapsed = time.perf_counter() - signalled
                listener.settimeout(0)
                with contextlib.suppress(BlockingIOError):
                    while True:
                        late.append(listener.accept()[0])
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
                for conn in held + late:
                    conn.close()
        assert proc.returncode == 130, err
        assert err.rstrip().endswith("error: interrupted")
        assert "Traceback" not in err
        assert elapsed < 2, elapsed
        assert late == []

    @pytest.mark.parametrize("kind", ["oracle", "replay"])
    def test_in_process_backend_failing_every_gap_exits_two(self, tmp_path, capsys, kind):
        # the oracle cannot read a question it did not generate; an empty fixture answers nothing
        inp, out, report, fixture = (tmp_path / name for name in ("in.jsonl", "out.jsonl",
                                                                   "report.jsonl", "fix.jsonl"))
        _write_jsonl(inp, [{"id": "a", "question": "Why?", "steps": ["One step here.", "Two step here."]}])
        fixture.write_text("", encoding="utf-8")
        code = cli.main(["expand", "--input", str(inp), "--output", str(out), "--report", str(report),
                         "--backend", kind, "--fixture-path", str(fixture)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.rstrip().endswith("error: every gap ended in backend_error (1 attempted)")
        (line,) = _read_jsonl(report)[1:]
        assert [p["decision"] for p in line["proposals"]] == ["backend_error"]
        assert _read_jsonl(out) == _read_jsonl(inp)

    def test_the_summary_counts_each_decision(self, tmp_path, capsys):
        steps = ["Add 2 and 3.", "That gives 5.", "Double it.", "That gives 10.", "The answer is 10."]
        row = {"id": "m", "question": "What is (2 + 3) * 2?", "steps": steps}
        inp, out, report, fixture = (tmp_path / name for name in ("in.jsonl", "out.jsonl",
                                                                   "report.jsonl", "fix.jsonl"))
        _write_jsonl(inp, [row])
        # gap 1 a fresh step, gap 2 an echo of the next step, gap 3 sentinel noise, gap 4 no entry
        responses = ["Write down both numbers.", steps[2], "<|fim_middle|>"]
        _write_jsonl(fixture, [
            {"request_id": request_id_for(row["question"], steps[:i], steps[i:]), "response": response}
            for i, response in enumerate(responses, start=1)])
        code = cli.main(["expand", "--input", str(inp), "--output", str(out), "--report", str(report),
                         "--backend", "replay", "--fixture-path", str(fixture)])
        summary = capsys.readouterr().err.splitlines()[-1]
        assert code == 0, summary
        assert re.sub(r"\d+\.\d\ds", "N.NNs", summary) == (
            "expand: 1 records (0 failed), 1 inserted / 1 invalid / 1 malformed / 1 errored, "
            "N.NNs, 1 request in flight at most")
        (line,) = _read_jsonl(report)[1:]
        assert [p["decision"] for p in line["proposals"]] == ["valid", "invalid", "malformed",
                                                              "backend_error"]
        assert (line["input_steps"], line["output_steps"]) == (5, 6)
        assert _read_jsonl(out)[0]["steps"] == [steps[0], responses[0], *steps[1:]]

    def test_a_worker_thread_that_cannot_start_exits_two(self, tmp_path, capsys, monkeypatch):
        start = threading.Thread.start

        def refuse_pool_workers(thread):
            if thread.name.startswith("ThreadPoolExecutor-"):
                raise RuntimeError("can't start new thread")
            start(thread)

        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        _write_jsonl(inp, [{**CHAIN, "id": f"c{i}"} for i in range(6)])
        with StubCompletionServer([(200, {"completion": "Write down both numbers."})]) as server:
            monkeypatch.setattr(threading.Thread, "start", refuse_pool_workers)
            code = cli.main(["expand", "--input", str(inp), "--output", str(out), "--report",
                             str(report), "--backend", "http", "--endpoint-url", server.url,
                             "--max-in-flight", "4"])
            monkeypatch.undo()
            assert server.seen == []
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        (error,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert error == "error: --max-in-flight 4: cannot start a worker thread: can't start new thread"
        assert out.read_bytes() == b""
        assert list(_read_jsonl(report)[0]) == ["config"] and len(_read_jsonl(report)) == 1

    # records that a FIM prompt cannot hold, and the error each one's report line gives
    TOKEN_RECORDS = [
        ({"id": "q", "question": "What is <|fim_middle|>?", "steps": ["One step here.", "Two."]},
         "SpecialTokenCollision: question contains a FIM special token"),
        ({"id": "s", "question": "q?", "steps": ["One step here.", "Two <|fim_prefix|> here."]},
         "SpecialTokenCollision: step 1 contains a FIM special token"),
    ]

    def test_special_tokens_in_the_input_fail_their_records_with_no_post(self, tmp_path, capsys):
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        rows = [row for row, _ in self.TOKEN_RECORDS]
        _write_jsonl(inp, rows)
        with StubCompletionServer([(200, {"completion": "Write down both numbers."})]) as server:
            code = cli.main(["expand", "--input", str(inp), "--output", str(out), "--report",
                             str(report), "--backend", "http", "--endpoint-url", server.url])
            assert server.seen == []
        err = capsys.readouterr().err
        # the endpoint was reachable: no gap was tried, so this is no backend failure
        assert code == 0, err
        assert "2 records (2 failed), 0 inserted / 0 invalid / 0 malformed / 0 errored" in err
        assert _read_jsonl(out) == rows
        lines = _read_jsonl(report)[1:]
        assert [line["error"] for line in lines] == [message for _, message in self.TOKEN_RECORDS]
        assert all(line["attempted"] == 0 and line["proposals"] == [] for line in lines)

    def test_special_tokens_fail_only_their_records_with_the_oracle(self, tmp_path, capsys):
        inp, out, report = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "report.jsonl"
        good = {"id": "c0", "question": "What is the value of (2 + 3) * 4?",
                "steps": ["Compute 2 + 3 = 5.", "The answer is 20."]}
        rows = [row for row, _ in self.TOKEN_RECORDS] + [good]
        _write_jsonl(inp, rows)
        code = cli.main(["expand", "--input", str(inp), "--output", str(out), "--report",
                         str(report), "--backend", "oracle"])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "3 records (2 failed), 1 inserted / 0 invalid / 0 malformed / 0 errored" in err
        assert _read_jsonl(out)[:2] == rows[:2]
        *failed, last = _read_jsonl(report)[1:]
        assert [line["error"] for line in failed] == [message for _, message in self.TOKEN_RECORDS]
        assert last["error"] is None and last["inserted"] == 1

    def test_invalid_eta_exits_one(self, synth_dir, tmp_path):
        result = run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"),
            "--output", str(tmp_path / "x.jsonl"), "--backend", "oracle", "--eta", "1.5",
        )
        assert result.returncode == 1
        assert "eta" in result.stderr


class LatencyOracle:
    """The oracle behind a sleep that is longest for the earliest records.

    So gaps finish roughly in reverse input order, and a scheduler that
    handed records back as they completed would reorder the output. Also
    records the most fills ever running at once.
    """

    def __init__(self, questions: list[str]):
        self.delay_s = {q: 0.0005 * (len(questions) - i) for i, q in enumerate(questions)}
        self.oracle = OracleBackend()
        self.lock = threading.Lock()
        self.active = self.peak = 0

    def fill(self, request):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(self.delay_s[request.question])
            return self.oracle.fill(request)
        finally:
            with self.lock:
                self.active -= 1


class TestExpandScheduling:
    def test_output_and_report_do_not_depend_on_max_in_flight(self, tmp_path, monkeypatch):
        synth = tmp_path / "synth"
        assert run_cli("gen-synth", "--count", "40", "--seed", "5", "--out", str(synth),
                       "--ops-min", "3", "--ops-max", "6").returncode == 0
        rows = _read_jsonl(synth / "coarse.jsonl")
        runs = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for mif in (1, 4, 64):
                backend = LatencyOracle([row["question"] for row in rows])
                monkeypatch.setattr(cli, "make_backend", lambda config, backend=backend: backend)
                out, report = tmp_path / f"out{mif}.jsonl", tmp_path / f"report{mif}.jsonl"
                code = cli.main([
                    "expand", "--input", str(synth / "coarse.jsonl"), "--output", str(out),
                    "--report", str(report), "--backend", "oracle", "--iterations", "2",
                    "--max-in-flight", str(mif),
                ])
                assert code == 0
                config, _, body = report.read_bytes().partition(b"\n")
                runs[mif] = out.read_bytes(), body, json.loads(config), backend.peak
        finally:
            sys.setswitchinterval(switch)

        assert runs[1][0] == runs[4][0] == runs[64][0] == (synth / "fine.jsonl").read_bytes()
        assert runs[1][1] == runs[4][1] == runs[64][1]
        for mif, (_, _, config, _) in runs.items():
            assert config["config"]["max_in_flight"] == mif
        report_ids = [json.loads(line)["record_id"] for line in runs[64][1].splitlines()]
        assert report_ids == [row["id"] for row in rows for _ in range(2)]
        # more fills at once than any one chain has gaps: several records overlapped
        most_gaps = max(len(row["steps"]) - 1 for row in _read_jsonl(synth / "fine.jsonl"))
        assert runs[1][3] == 1
        assert runs[4][3] <= 4
        assert most_gaps < runs[64][3] <= 64


class TestInProcessFills:
    @pytest.mark.parametrize("mif", [4, 64])
    def test_oracle_and_replay_fill_on_the_calling_thread(self, tmp_path, monkeypatch, mif):
        out_dir = tmp_path / "synth"
        assert run_cli("gen-synth", "--count", "30", "--seed", "8", "--out", str(out_dir),
                       "--ops-min", "3", "--ops-max", "6").returncode == 0
        calling, threads_before = threading.get_ident(), threading.active_count()
        fill_threads, thread_counts, fixture = set(), [], {}

        def note_fill():
            fill_threads.add(threading.get_ident())
            thread_counts.append(threading.active_count())

        oracle_fill = synth.oracle_fill

        def noting_oracle_fill(question, prefix_steps, suffix_steps):
            note_fill()
            answer = oracle_fill(question, prefix_steps, suffix_steps)
            fixture[request_id_for(question, prefix_steps, suffix_steps)] = answer
            return answer

        class NotingReplay(ReplayBackend):
            def fill(self, request):
                note_fill()
                return super().fill(request)

        monkeypatch.setattr(synth, "oracle_fill", noting_oracle_fill)
        monkeypatch.setattr(backends, "ReplayBackend", NotingReplay)
        fixture_path = tmp_path / "fixture.jsonl"

        def run(kind, n):
            out, report = tmp_path / f"{kind}{n}.jsonl", tmp_path / f"{kind}{n}.report.jsonl"
            argv = ["expand", "--input", str(out_dir / "coarse.jsonl"), "--output", str(out),
                    "--report", str(report), "--backend", kind, "--iterations", "2",
                    "--max-in-flight", str(n)]
            if kind == "replay":
                argv += ["--fixture-path", str(fixture_path)]
            assert cli.main(argv) == 0
            _, _, body = report.read_bytes().partition(b"\n")
            return out.read_bytes(), body

        oracle_serial = run("oracle", 1)
        _write_jsonl(fixture_path, [{"request_id": rid, "response": fixture[rid]}
                                    for rid in sorted(fixture)])
        oracle_wide = run("oracle", mif)
        replay_serial = run("replay", 1)
        replay_wide = run("replay", mif)

        assert oracle_serial[0] == (out_dir / "fine.jsonl").read_bytes()
        assert oracle_wide == oracle_serial == replay_serial == replay_wide
        assert len(thread_counts) == 4 * len(fixture)
        assert fill_threads == {calling}
        assert max(thread_counts) <= threads_before

    def test_the_oracle_parses_each_question_once(self, synth_dir, tmp_path, monkeypatch):
        parses = []
        fine_steps_for_question = synth.fine_steps_for_question

        def counting_fine_steps(question):
            parses.append(question)
            return fine_steps_for_question(question)

        # a question left by an earlier test would count 0
        monkeypatch.setattr(synth, "_last_parse", threading.local())
        monkeypatch.setattr(synth, "fine_steps_for_question", counting_fine_steps)
        out = tmp_path / "out.jsonl"
        assert cli.main(["expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
                         "--backend", "oracle", "--iterations", "3"]) == 0
        assert out.read_bytes() == (synth_dir / "fine.jsonl").read_bytes()
        assert len(parses) == len(set(parses)) == 12

    def test_a_waiting_oracle_parses_once_per_record_under_a_pool(self, tmp_path, monkeypatch):
        # pool workers interleave records; each keeps the last question it parsed
        out_dir = tmp_path / "synth"
        assert run_cli("gen-synth", "--count", "24", "--seed", "5", "--out", str(out_dir),
                       "--ops-min", "3", "--ops-max", "6").returncode == 0
        questions = [row["question"] for row in _read_jsonl(out_dir / "coarse.jsonl")]
        parses = []
        fine_steps_for_question = synth.fine_steps_for_question

        def counting_fine_steps(question):
            parses.append(question)
            return fine_steps_for_question(question)

        monkeypatch.setattr(synth, "_last_parse", threading.local())
        monkeypatch.setattr(synth, "fine_steps_for_question", counting_fine_steps)
        backend = LatencyOracle(questions)
        monkeypatch.setattr(cli, "make_backend", lambda config: backend)
        out = tmp_path / "out.jsonl"
        assert cli.main(["expand", "--input", str(out_dir / "coarse.jsonl"), "--output", str(out),
                         "--backend", "oracle", "--iterations", "2", "--max-in-flight", "4"]) == 0
        assert out.read_bytes() == (out_dir / "fine.jsonl").read_bytes()
        assert backend.peak > 1  # records did overlap
        assert sorted(parses) == sorted(questions)


class TestStatsAndCompare:
    def test_stats_prints_json_to_stdout(self, synth_dir):
        result = run_cli("stats", "--input", str(synth_dir / "fine.jsonl"))
        assert result.returncode == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["samples"] == 12
        assert summary["tokenizer_id"] == "whitespace"
        assert summary["total_tokens"] > 0

    def test_stats_output_flag_writes_a_file(self, synth_dir, tmp_path):
        path = tmp_path / "summary.json"
        result = run_cli("stats", "--input", str(synth_dir / "fine.jsonl"), "--output", str(path))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(path.read_text(encoding="utf-8"))["samples"] == 12

    def test_compare_reports_formatted_growth(self, synth_dir, tmp_path):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        run_cli("stats", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(before))
        run_cli("stats", "--input", str(synth_dir / "fine.jsonl"), "--output", str(after))
        result = run_cli("compare", "--before", str(before), "--after", str(after))
        assert result.returncode == 0, result.stderr
        delta = json.loads(result.stdout)
        assert delta["avg_steps_pct"] > 0
        assert delta["formatted"]["avg_steps"].startswith("+")
        assert delta["formatted"]["samples"] == "+0.00%"

    def test_compare_rejects_a_non_stats_file(self, synth_dir, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}', encoding="utf-8")
        before = tmp_path / "before.json"
        run_cli("stats", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(before))
        result = run_cli("compare", "--before", str(before), "--after", str(bogus))
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "side, field, value, needle",
        [
            pytest.param("after", "samples", 1.5, "samples must be int", id="float-samples"),
            pytest.param("after", "samples", "7", "samples must be int", id="string-samples"),
            pytest.param("after", "samples", True, "samples must be int", id="bool-samples"),
            pytest.param("after", "total_tokens", 7.0, "total_tokens must be int",
                         id="float-total-tokens"),
            pytest.param("after", "avg_tokens", "3.5", "avg_tokens must be int or float",
                         id="string-avg-tokens"),
            pytest.param("after", "avg_steps", False, "avg_steps must be int or float",
                         id="bool-avg-steps"),
            pytest.param("after", "tokenizer_id", 1, "tokenizer_id must be str",
                         id="int-tokenizer-id"),
            pytest.param("after", "tokenizer_id", "chars", "after with 'chars'",
                         id="other-tokenizer"),
            pytest.param("before", "samples", 0, "zero baseline", id="zero-baseline"),
        ],
    )
    def test_compare_rejects_mistyped_or_incomparable_stats(self, tmp_path, side, field, value,
                                                            needle):
        summary = {"samples": 2, "avg_tokens": 3.5, "total_tokens": 7, "avg_steps": 2.0,
                   "tokenizer_id": "whitespace"}
        paths = {name: tmp_path / f"{name}.json" for name in ("before", "after")}
        for name, path in paths.items():
            path.write_text(json.dumps({**summary, field: value} if name == side else summary),
                            encoding="utf-8")
        result = run_cli("compare", "--before", str(paths["before"]), "--after", str(paths["after"]))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        (error,) = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert needle in error

    @pytest.mark.parametrize("tokenizer_id, needle", [
        # json reads the escape, but no UTF-8 output can hold what it decodes to
        pytest.param('"\\udc80"', "a lone surrogate escape is not UTF-8 text", id="lone-surrogate"),
        pytest.param("1" + "0" * 4300, "invalid JSON: Exceeds the limit", id="int-past-digit-limit"),
    ])
    def test_compare_refuses_a_stats_file_before_writing(self, tmp_path, capsys, tokenizer_id, needle):
        summary = tmp_path / "s.json"
        summary.write_text('{"samples": 2, "avg_tokens": 3.5, "total_tokens": 7, "avg_steps": 2.0, '
                           f'"tokenizer_id": {tokenizer_id}}}', encoding="ascii")
        out = tmp_path / "delta.json"
        argv = ["compare", "--before", str(summary), "--after", str(summary), "--output", str(out)]
        assert cli.main(argv) == 2
        assert f"error: {summary}: {needle}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, before, after, needle", [
        pytest.param("avg_tokens", "NaN", "3.5", "{before}: invalid JSON: NaN is not a finite float",
                     id="nan"),
        pytest.param("avg_steps", "2.0", "Infinity", "{after}: invalid JSON: Infinity is not a finite float",
                     id="infinity"),
        pytest.param("avg_steps", "-Infinity", "2.0",
                     "{before}: invalid JSON: -Infinity is not a finite float", id="-infinity"),
        pytest.param("avg_tokens", "3.5", "1e400", "{after}: invalid JSON: 1e400 is not a finite float",
                     id="1e400"),
        pytest.param("avg_tokens", "1" * 401, "3.5",
                     "{before}: not a stats summary: avg_tokens is past float range", id="int-avg-tokens"),
        pytest.param("total_tokens", "7", "1" * 401,
                     "the change in total_tokens is past float range as a percentage",
                     id="int-total-tokens"),
        pytest.param("avg_tokens", "1e-320", "1e300",
                     "the change in avg_tokens is past float range as a percentage", id="inf-percentage"),
    ])
    def test_compare_refuses_a_number_no_float_holds(self, tmp_path, capsys, field, before, after,
                                                     needle):
        summary = {"samples": "2", "avg_tokens": "3.5", "total_tokens": "7", "avg_steps": "2.0",
                   "tokenizer_id": '"whitespace"'}
        paths = {}
        for side, value in (("before", before), ("after", after)):
            paths[side] = tmp_path / f"{side}.json"
            fields = {**summary, field: value}
            paths[side].write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}",
                                   encoding="ascii")
        out = tmp_path / "delta.json"
        argv = ["compare", "--before", str(paths["before"]), "--after", str(paths["after"]),
                "--output", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {needle.format(**paths)}" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["samples", "avg_tokens", "total_tokens", "avg_steps",
                                       "tokenizer_id"])
    def test_compare_names_a_missing_summary_field(self, tmp_path, capsys, field):
        summary = {"samples": 2, "avg_tokens": 3.5, "total_tokens": 7, "avg_steps": 2.0,
                   "tokenizer_id": "whitespace"}
        del summary[field]
        before, out = tmp_path / "before.json", tmp_path / "delta.json"
        before.write_text(json.dumps(summary), encoding="utf-8")
        argv = ["compare", "--before", str(before), "--after", str(before), "--output", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"error: {before}: not a stats summary: {field} is missing"), err
        assert not out.exists()

    def test_stats_on_empty_corpus_exits_two(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run_cli("stats", "--input", str(empty)).returncode == 2

    @pytest.mark.parametrize("steps, reason", [
        ([], "StepChain needs at least one step"),
        (["Compute 2 + 3 = 5.", ""], "step 1 is empty or untrimmed"),
        ([" padded "], "step 0 is empty or untrimmed"),
        (["Compute 2 + 3 = 5.", 7], "step 1 is a int, not a string"),
    ], ids=["no-step", "empty-step", "untrimmed-step", "non-string-step"])
    def test_stats_refuses_a_chain_that_build_fim_and_expand_refuse(self, tmp_path, capsys, steps,
                                                                    reason):
        inp = tmp_path / "in.jsonl"
        _write_jsonl(inp, [{"id": "a", "question": "What is 2 + 3?", "steps": steps},
                           {"id": "b", "question": "What is 2 + 3?", "steps": ["Compute 2 + 3 = 5."]}])
        assert cli.main(["stats", "--input", str(inp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"error: record 1: {reason}"), captured.err


class TestExitCodesAndConfig:
    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("decompose", "build-fim", "expand", "gen-synth", "stats", "compare"):
            assert name in result.stdout

    def test_unknown_subcommand_exits_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unknown_flag_exits_one(self):
        assert run_cli("stats", "--input", "x.jsonl", "--verbose").returncode == 1

    def test_missing_input_file_exits_two(self, tmp_path):
        result = run_cli(
            "decompose", "--input", str(tmp_path / "absent.jsonl"),
            "--output", str(tmp_path / "out.jsonl"),
        )
        assert result.returncode == 2

    def test_corrupt_jsonl_exits_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "question": "q", "solution": "s"\n', encoding="utf-8")
        result = run_cli(
            "decompose", "--input", str(bad), "--output", str(tmp_path / "out.jsonl")
        )
        assert result.returncode == 2
        assert "bad.jsonl:1" in result.stderr

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["build-fim", "--output", "{d}/in.jsonl", "--seed", "1"], ("input", "output")),
            (["expand", "--output", "{d}/in.jsonl", "--backend", "oracle"], ("input", "output")),
            (["expand", "--output", "{d}/out.jsonl", "--report", "{d}/in.jsonl", "--backend", "oracle"],
             ("input", "report")),
            (["decompose", "--output", "{d}/link.jsonl"], ("input", "output")),
            (["decompose", "--output", "{d}/out.jsonl", "--rejects", "{d}/in.jsonl"], ("input", "rejects")),
            # neither exists yet: their normalized absolute paths are compared
            (["decompose", "--output", "{d}/out.jsonl", "--rejects", "{d}/sub/../out.jsonl"],
             ("output", "rejects")),
            (["stats", "--output", "{d}/in.jsonl"], ("input", "output")),
            # a file the run reads but not as its input: the replay fixture and the config
            (["expand", "--backend", "replay", "--fixture-path", "{d}/fix.jsonl",
              "--output", "{d}/fix.jsonl"], ("fixture-path", "output")),
            (["expand", "--backend", "replay", "--fixture-path", "{d}/fix.jsonl",
              "--output", "{d}/out.jsonl", "--report", "{d}/fix.jsonl"], ("fixture-path", "report")),
            (["stats", "--config", "{d}/cfg.json", "--output", "{d}/cfg.json"], ("config", "output")),
            # compare has no --input: its stats files are what it reads
            (["compare", "--before", "{d}/cfg.json", "--after", "{d}/cfg.json", "--output", "{d}/cfg.json"],
             ("before", "output")),
            (["compare", "--before", "{d}/cfg.json", "--after", "{d}/fix.jsonl", "--output", "{d}/fix.jsonl"],
             ("after", "output")),
        ],
    )
    def test_two_paths_that_name_one_file_exit_one(self, synth_dir, tmp_path, argv, flags):
        coarse = (synth_dir / "coarse.jsonl").read_bytes()
        inp, fixture, config = tmp_path / "in.jsonl", tmp_path / "fix.jsonl", tmp_path / "cfg.json"
        inp.write_bytes(coarse)
        fixture.write_bytes(coarse)
        config.write_text("{}", encoding="utf-8")
        (tmp_path / "link.jsonl").symlink_to(inp)
        (tmp_path / "sub").mkdir()
        inp_args = [] if argv[0] == "compare" else ["--input", str(inp)]
        result = run_cli(*(arg.format(d=tmp_path) for arg in argv), *inp_args)
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert f"error: --{flags[0]} " in result.stderr
        assert f" and --{flags[1]} " in result.stderr and "name one file" in result.stderr
        assert inp.read_bytes() == fixture.read_bytes() == coarse
        assert config.read_text(encoding="utf-8") == "{}"
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("cmd", ["decompose", "build-fim", "expand", "stats"])
    def test_an_integer_past_the_conversion_limit_exits_two(self, tmp_path, cmd):
        inp, out = tmp_path / "in.jsonl", str(tmp_path / "out.jsonl")
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        inp.write_text('{"id": ' + "9" * 5000 + ', "question": "q?", "steps": ["a"]}\n',
                       encoding="utf-8")
        argv = {
            "decompose": ["--output", out],
            "build-fim": ["--output", out, "--seed", "1"],
            "expand": ["--output", out, "--backend", "oracle"],
            "stats": [],
        }[cmd]
        result = run_cli(cmd, "--input", str(inp), *argv)
        assert result.returncode == 2, result.stderr
        assert "in.jsonl:1: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("cmd", ["decompose", "build-fim", "expand", "stats", "compare"])
    def test_input_that_is_not_utf8_exits_two(self, tmp_path, capsys, cmd):
        row = {"id": "a", "question": "q?", "solution": "One step. Two step.", "steps": ["One.", "Two."]}
        lines = [json.dumps(row).encode("utf-8") + b"\n"] * 700  # more than one read buffer
        lines[600] = b'{"id": "b", "question": "q\xff?"}\n'
        inp, out = tmp_path / "in.jsonl", str(tmp_path / "out.jsonl")
        inp.write_bytes(b"".join(lines))
        argv = {
            "decompose": ["--input", str(inp), "--output", out],
            "build-fim": ["--input", str(inp), "--output", out, "--seed", "1"],
            "expand": ["--input", str(inp), "--output", out, "--backend", "oracle"],
            "stats": ["--input", str(inp)],
            "compare": ["--before", str(inp), "--after", str(inp)],
        }[cmd]
        assert cli.main([cmd, *argv]) == 2
        err = capsys.readouterr().err
        where = "in.jsonl" if cmd == "compare" else "in.jsonl:601"
        assert f"{where}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err, err
        if cmd in ("decompose", "build-fim", "expand"):  # every record before it was written
            written = len(_read_jsonl(out))
            assert written == 600 * (3 if cmd == "build-fim" else 1)

    @pytest.mark.parametrize("cmd", ["decompose", "build-fim", "expand", "stats"])
    def test_a_lone_surrogate_escape_exits_two(self, tmp_path, capsys, cmd):
        # valid JSON that no UTF-8 file can hold; a surrogate pair is one character and passes
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_text('{"id": "a", "question": "q\\ud83d\\ude00?", "solution": "One step. Two step.", '
                       '"steps": ["One.", "Two."]}\n'
                       '{"id": "b", "question": "q\\ud800?", "solution": "One step. Two step.", '
                       '"steps": ["One.", "Two."]}\n', encoding="ascii")
        argv = {
            "decompose": ["--output", str(out)],
            "build-fim": ["--output", str(out), "--seed", "1"],
            "expand": ["--output", str(out), "--backend", "oracle"],
            "stats": [],
        }[cmd]
        assert cli.main([cmd, "--input", str(inp), *argv]) == 2
        assert "in.jsonl:2: a lone surrogate escape is not UTF-8 text" in capsys.readouterr().err
        if cmd != "stats":  # the record before it was written whole
            assert "q\U0001f600?" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("cmd", ["decompose", "build-fim", "expand", "stats"])
    def test_a_number_no_float_holds_exits_two(self, tmp_path, capsys, cmd, token):
        # RFC 8259 has no NaN or Infinity, and 1e400 would read as one
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        row = ('{{"id": "{}", "question": "q?", "solution": "One step. Two step.", '
               '"steps": ["One.", "Two."], "w": {}}}\n')
        inp.write_text(row.format("a", 0.5) + row.format("b", token), encoding="ascii")
        argv = {
            "decompose": ["--output", str(out), "--rejects", str(tmp_path / "rej.jsonl")],
            "build-fim": ["--output", str(out), "--seed", "1"],
            "expand": ["--output", str(out), "--backend", "oracle"],
            "stats": [],
        }[cmd]
        assert cli.main([cmd, "--input", str(inp), *argv]) == 2
        err = capsys.readouterr().err
        assert f"in.jsonl:2: invalid JSON: {token} is not a finite float" in err, err
        assert "Traceback" not in err
        if cmd != "stats":  # the record before it was written
            assert len(_read_jsonl(out)) == (3 if cmd == "build-fim" else 1)

    def test_stderr_opens_with_the_effective_config(self, synth_dir):
        result = run_cli("stats", "--input", str(synth_dir / "fine.jsonl"))
        echo = json.loads(result.stderr.splitlines()[0])
        assert echo["subcommand"] == "stats"
        assert echo["config"] == {"input": str(synth_dir / "fine.jsonl"), "output": ""}

    def test_config_file_fills_in_missing_flags(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "rounds": 2}), encoding="utf-8")
        out = tmp_path / "fim.jsonl"
        result = run_cli(
            "build-fim", "--config", str(cfg),
            "--input", str(synth_dir / "fine.jsonl"), "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert len(_read_jsonl(out)) == 12 * 2

    def test_flags_override_the_config_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "rounds": 2}), encoding="utf-8")
        out = tmp_path / "fim.jsonl"
        result = run_cli(
            "build-fim", "--config", str(cfg), "--rounds", "1",
            "--input", str(synth_dir / "fine.jsonl"), "--output", str(out),
        )
        assert result.returncode == 0
        assert len(_read_jsonl(out)) == 12

    def test_a_config_file_leaves_later_runs_alone(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "rounds": 2}), encoding="utf-8")
        argv = ["build-fim", "--input", str(synth_dir / "fine.jsonl"), "--output", str(tmp_path / "fim.jsonl")]
        assert cli.main([*argv, "--config", str(cfg)]) == 0
        assert cli.main(argv) == 1
        assert "build-fim requires --seed" in capsys.readouterr().err
        assert cli.main([*argv, "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().err.splitlines()[0])["config"]["rounds"] == 3
        assert len(_read_jsonl(tmp_path / "fim.jsonl")) == 12 * 3

    def test_unknown_config_key_exits_one(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 7, "bogus_knob": True}), encoding="utf-8")
        result = run_cli(
            "build-fim", "--config", str(cfg),
            "--input", str(synth_dir / "fine.jsonl"),
            "--output", str(tmp_path / "fim.jsonl"),
        )
        assert result.returncode == 1
        assert "bogus_knob" in result.stderr

    @pytest.mark.parametrize(
        "files, argv, code, needle",
        [
            pytest.param(
                {"src": [{"id": "n", "question": "q?", "solution": 123}]},
                ["decompose", "--input", "{src}", "--output", "{out}", "--rejects", "{rej}"],
                0, "1 records rejected", id="decompose-non-string-solution",
            ),
            pytest.param(
                {"src": [{"id": "s", "question": "q?"}]},
                ["stats", "--input", "{src}"], 2, "error: record 1", id="stats-without-steps",
            ),
            pytest.param(
                {"src": [{"id": "s", "question": "q?", "steps": [1, 2]}]},
                ["stats", "--input", "{src}"], 2, "error: record 1", id="stats-non-string-steps",
            ),
            pytest.param(
                {"src": [CHAIN], "fix": [{"response": "Add 2 and 3 to get 5."}]},
                ["expand", "--input", "{src}", "--output", "{out}", "--backend", "replay",
                 "--fixture-path", "{fix}"],
                2, "fix.jsonl", id="replay-fixture-without-request-id",
            ),
            pytest.param(
                # json.dumps writes a float nan as NaN
                {"src": [CHAIN], "fix": [{"request_id": "r", "response": "x", "w": float("nan")}]},
                ["expand", "--input", "{src}", "--output", "{out}", "--backend", "replay",
                 "--fixture-path", "{fix}"],
                2, "fix.jsonl:1: invalid JSON: NaN is not a finite float", id="replay-fixture-nan",
            ),
        ],
    )
    def test_bad_input_keeps_the_exit_code_contract(self, tmp_path, files, argv, code, needle):
        paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("src", "out", "rej", "fix")}
        for name, rows in files.items():
            _write_jsonl(paths[name], rows)
        result = run_cli(*(arg.format(**paths) for arg in argv))
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        assert needle in result.stderr
        if "--rejects" in argv:
            (reject,) = _read_jsonl(paths["rej"])
            assert reject["error"].startswith("NonTextSolution: ")

    @pytest.mark.parametrize(
        "cmd, file_cfg, code",
        [
            pytest.param("expand", {"max_in_flight": "4"}, 1, id="int-flag-given-a-string"),
            pytest.param("expand", {"iterations": 1.5}, 1, id="int-flag-given-a-float"),
            pytest.param("stats", {"input": 0}, 1, id="path-flag-given-an-int"),
            pytest.param("expand", {"include_leading_gap": "no"}, 1, id="bool-flag-given-a-string"),
            pytest.param("expand", {"backend": "gpt"}, 1, id="not-one-of-the-choices"),
            pytest.param("build-fim", {"seed": "7"}, 1, id="seed-given-a-string"),
            pytest.param("expand", {"max_new_chars": -1}, 1, id="negative-max-new-chars"),
            pytest.param("expand", {"max_new_chars": 0}, 1, id="zero-max-new-chars"),
            pytest.param("expand", {"timeout_ms": 0}, 1, id="zero-timeout"),
            pytest.param("expand", {"timeout_ms": -5}, 1, id="negative-timeout"),
            pytest.param("expand", {"backoff_ms": -1}, 1, id="negative-backoff"),
            pytest.param("expand", {"eta": 1}, 0, id="float-flag-given-an-int"),
            pytest.param("expand", {"include_leading_gap": True}, 0, id="bool-flag-given-true"),
        ],
    )
    def test_config_values_are_checked_like_flags(self, synth_dir, tmp_path, cmd, file_cfg, code):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(file_cfg), encoding="utf-8")
        argv = {
            "expand": ["--input", str(synth_dir / "coarse.jsonl"), "--output", str(tmp_path / "out.jsonl")],
            "build-fim": ["--input", str(synth_dir / "fine.jsonl"), "--output", str(tmp_path / "fim.jsonl")],
            "stats": [],
        }[cmd]
        if cmd == "expand" and "backend" not in file_cfg:
            argv += ["--backend", "oracle"]
        # a float round count used to expand forever
        result = run_cli(cmd, "--config", str(cfg), *argv, timeout=60)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        ((key, value),) = file_cfg.items()
        if code:
            (error,) = [line for line in result.stderr.splitlines() if line.startswith("error:")]
            assert key in error
        else:
            assert json.loads(result.stderr.splitlines()[0])["config"][key] == value

    @pytest.mark.parametrize("content, needle", [
        pytest.param(b'{"input": "x\xff.jsonl"}', "not UTF-8 text: 'utf-8' codec can't decode byte 0xff",
                     id="not-utf8"),
        pytest.param(b'{"seed": 1' + b"0" * 4300 + b"}", "invalid JSON: Exceeds the limit",
                     id="int-past-digit-limit"),
        pytest.param(b'{"eta": NaN}', "invalid JSON: NaN is not a finite float", id="nan"),
        pytest.param(b'{"input": "x\\ud800.jsonl"}', "a lone surrogate escape is not UTF-8 text",
                     id="lone-surrogate"),
    ])
    def test_an_unreadable_config_file_is_named(self, tmp_path, capsys, content, needle):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        assert cli.main(["build-fim", "--config", str(cfg)]) == 1
        assert f"error: config file {cfg}: {needle}" in capsys.readouterr().err

    def test_config_file_must_be_a_json_object(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        result = run_cli("stats", "--config", str(cfg), "--input", "x.jsonl")
        assert result.returncode == 1


class TestPipeline:
    def test_decompose_feeds_build_fim(self, tmp_path):
        cot = tmp_path / "cot.jsonl"
        _write_jsonl(cot, [
            {
                "id": "p0",
                "question": "What is (2 + 3) * 4?",
                "solution": "First, compute 2 + 3 = 5. Then multiply 5 by 4 to get 20. The answer is 20.",
            },
        ])
        chains = tmp_path / "chains.jsonl"
        assert run_cli("decompose", "--input", str(cot), "--output", str(chains)).returncode == 0
        fim = tmp_path / "fim.jsonl"
        assert run_cli(
            "build-fim", "--input", str(chains), "--output", str(fim), "--seed", "3"
        ).returncode == 0
        samples = _read_jsonl(fim)
        assert len(samples) == 3
        for sample in samples:
            assert sample["source_id"] == "p0"
            parts = [sample["prefix"], sample["middle"], sample["suffix"]]
            joined = "\n".join(p for p in parts if p)
            assert "2 + 3 = 5" in joined


class TestGoldenPrep:
    def test_decompose_build_fim_and_stats_match_the_checked_in_hashes(self, tmp_path):
        """A free-text corpus with math spans, abbreviations, markers, non-ASCII
        text, quotes, backslashes and control characters; the hashes pin every
        output byte of the prep path."""
        want = dict(line.split()[::-1] for line in
                    (DATA / "prep_golden.sha256").read_text(encoding="ascii").splitlines())
        out = {name: str(tmp_path / name) for name in want}
        assert cli.main(["decompose", "--input", str(DATA / "prep_golden.jsonl"),
                         "--output", out["chains.jsonl"], "--rejects", out["rejects.jsonl"]]) == 0
        assert cli.main(["build-fim", "--input", out["chains.jsonl"], "--output",
                         out["fim.jsonl"], "--rounds", "3", "--seed", "7"]) == 0
        assert cli.main(["stats", "--input", out["chains.jsonl"],
                         "--output", out["stats.json"]]) == 0
        got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for name, path in out.items()}
        assert got == want


class TestGoldenSynth:
    def test_gen_synth_matches_the_checked_in_hashes(self, tmp_path, capsys):
        """Both drop patterns; the hashes pin the seeded draws of `gen-synth`
        across versions, which reruns of one version cannot."""
        want = dict(line.split()[::-1] for line in
                    (DATA / "gen_synth.sha256").read_text(encoding="ascii").splitlines())
        runs = {"every-other": [],
                "random-k": ["--drop", "random-k", "--drop-k", "2", "--ops-min", "5", "--ops-max", "9"]}
        for name, flags in runs.items():
            assert cli.main(["gen-synth", "--count", "40", "--seed", "424242",
                             "--out", str(tmp_path / name), *flags]) == 0, capsys.readouterr().err
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
        assert got == want
