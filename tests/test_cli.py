"""End-to-end command-line runs: subcommands, exit codes, config layering."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

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


class TestExpand:
    def test_oracle_backend_restores_dropped_steps(self, synth_dir, tmp_path):
        out, report = tmp_path / "expanded.jsonl", tmp_path / "report.jsonl"
        result = run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"), "--output", str(out),
            "--report", str(report), "--backend", "oracle",
        )
        assert result.returncode == 0, result.stderr
        assert out.read_bytes() == (synth_dir / "fine.jsonl").read_bytes()

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

    def test_unreachable_endpoint_exits_three(self, synth_dir, tmp_path):
        result = run_cli(
            "expand", "--input", str(synth_dir / "coarse.jsonl"),
            "--output", str(tmp_path / "x.jsonl"), "--backend", "http",
            "--endpoint-url", "http://127.0.0.1:1/v1/completions",
        )
        assert result.returncode == 3
        assert "cannot reach" in result.stderr

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

    def test_stats_on_empty_corpus_exits_two(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run_cli("stats", "--input", str(empty)).returncode == 2


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

    def test_stderr_opens_with_the_effective_config(self, synth_dir):
        result = run_cli("stats", "--input", str(synth_dir / "fine.jsonl"))
        echo = json.loads(result.stderr.splitlines()[0])
        assert echo["subcommand"] == "stats"
        assert echo["config"]["tokenizer"] == "whitespace"
        assert echo["config"]["input"] == str(synth_dir / "fine.jsonl")

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
