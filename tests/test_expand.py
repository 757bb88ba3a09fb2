"""Expansion engine: gap proposals, gating decisions, insertion, batching."""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfim.backends import FimRequest, OracleBackend
from stepfim.decompose import StepChain
from stepfim.expand import (
    BACKEND_ERROR,
    INVALID,
    MALFORMED,
    VALID,
    ExpansionConfig,
    ExpansionReport,
    GapProposal,
    clean_candidate,
    expand_chain,
    expand_iteratively,
    expand_records,
    requests_for_chain,
)
from stepfim.fim import FIM_MIDDLE, FIM_PREFIX, FIM_SUFFIX
from stepfim.jsonl import JsonlError

QUESTION = "What is the value of ((2 + 3) * 4) - 5?"
FINE = ("Compute 2 + 3 = 5.", "Compute 5 * 4 = 20.", "Compute 20 - 5 = 15.", "The answer is 15.")
COARSE = ("Compute 2 + 3 = 5.", "Compute 20 - 5 = 15.", "The answer is 15.")


def _chain(texts=COARSE) -> StepChain:
    return StepChain.from_texts(list(texts))


class ScriptedBackend:
    """Answers by gap position: len(prefix_steps) + 1 is the 1-based gap index."""

    def __init__(self, by_gap: dict[int, str]):
        self.by_gap = by_gap
        self.calls = 0

    def fill(self, request: FimRequest) -> str:
        self.calls += 1
        return self.by_gap[len(request.prefix_steps) + 1]


class EchoBackend:
    """Always proposes the step right after the gap; the gate must reject it."""

    def fill(self, request: FimRequest) -> str:
        return request.suffix_steps[0]


class NoveltyBackend:
    """Always proposes fresh text no gate could mistake for the next step."""

    def fill(self, request: FimRequest) -> str:
        return f"fresh step {request.request_id[:12]}"


class TestCleanCandidate:
    def test_plain_text_untouched(self):
        assert clean_candidate("Compute 5 * 4 = 20.") == ("Compute 5 * 4 = 20.", False)

    def test_truncates_at_first_special_token(self):
        raw = f"the fill{FIM_MIDDLE}trailing junk"
        assert clean_candidate(raw) == ("the fill", True)

    def test_earliest_of_several_tokens_wins(self):
        raw = f"keep{FIM_SUFFIX}lost{FIM_PREFIX}more"
        assert clean_candidate(raw) == ("keep", True)

    def test_token_at_position_zero_leaves_nothing(self):
        assert clean_candidate(f"{FIM_PREFIX}everything after") == ("", True)

    def test_whitespace_then_token_leaves_nothing(self):
        assert clean_candidate(f"   \n{FIM_MIDDLE}x") == ("", True)

    def test_surrounding_whitespace_trimmed(self):
        assert clean_candidate("  padded  ") == ("padded", False)


class TestRequestsForChain:
    def test_interior_gaps_only_by_default(self):
        pairs = requests_for_chain(QUESTION, _chain(), ExpansionConfig())
        assert [i for i, _ in pairs] == [2, 3]
        gap2 = pairs[0][1]
        assert gap2.prefix_steps == COARSE[:1]
        assert gap2.suffix_steps == COARSE[1:]
        gap3 = pairs[1][1]
        assert gap3.prefix_steps == COARSE[:2]
        assert gap3.suffix_steps == COARSE[2:]

    def test_suffix_is_the_full_tail_not_one_step(self):
        pairs = requests_for_chain(QUESTION, _chain(FINE), ExpansionConfig())
        for i, request in pairs:
            assert request.suffix_steps == FINE[i - 1 :]

    def test_leading_gap_adds_empty_prefix_request(self):
        config = ExpansionConfig(include_leading_gap=True)
        pairs = requests_for_chain(QUESTION, _chain(), config)
        assert [i for i, _ in pairs] == [1, 2, 3]
        assert pairs[0][1].prefix_steps == ()
        assert pairs[0][1].suffix_steps == COARSE

    def test_single_step_chain_has_no_interior_gap(self):
        assert requests_for_chain(QUESTION, _chain(("only step here.",)), ExpansionConfig()) == []


class TestDecisions:
    def _one_gap(self, backend):
        chain = _chain(("Compute 2 + 3 = 5.", "The answer is 5."))
        expanded, report = expand_chain(QUESTION, chain, backend, ExpansionConfig())
        assert report.attempted == 1
        return expanded, report.proposals[0]

    def test_novel_candidate_is_valid_and_inserted(self):
        expanded, proposal = self._one_gap(NoveltyBackend())
        assert proposal.decision == VALID
        assert proposal.similarity_to_next < 0.8
        assert len(expanded.texts) == 3
        assert expanded.texts[1] == proposal.candidate

    def test_echo_of_next_step_is_invalid_with_score_one(self):
        expanded, proposal = self._one_gap(EchoBackend())
        assert proposal.decision == INVALID
        assert proposal.similarity_to_next == 1.0
        assert expanded.texts == ("Compute 2 + 3 = 5.", "The answer is 5.")

    def test_empty_completion_is_invalid_not_malformed(self):
        class Empty:
            def fill(self, request):
                return ""

        _, proposal = self._one_gap(Empty())
        assert proposal.decision == INVALID
        assert proposal.similarity_to_next == 0.0

    def test_token_only_completion_is_malformed(self):
        class TokenNoise:
            def fill(self, request):
                return f"  {FIM_MIDDLE}{FIM_SUFFIX}"

        _, proposal = self._one_gap(TokenNoise())
        assert proposal.decision == MALFORMED
        assert proposal.candidate == ""

    def test_raising_backend_is_recorded_not_raised(self):
        class Boom:
            def fill(self, request):
                raise RuntimeError("socket torn down")

        expanded, proposal = self._one_gap(Boom())
        assert proposal.decision == BACKEND_ERROR
        assert "socket torn down" in proposal.error
        assert expanded.texts == ("Compute 2 + 3 = 5.", "The answer is 5.")

    def test_candidate_kept_on_proposal_even_when_invalid(self):
        _, proposal = self._one_gap(EchoBackend())
        assert proposal.candidate == "The answer is 5."

    def test_failing_fill_is_called_once(self):
        class FailsOnce:
            calls = 0

            def fill(self, request):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient failure")
                return "a second call would have filled the gap."

        backend = FailsOnce()
        _, proposal = self._one_gap(backend)
        assert proposal.decision == BACKEND_ERROR
        assert backend.calls == 1


class TestInsertion:
    def test_valid_fills_land_between_their_steps(self):
        backend = ScriptedBackend({2: "between one and two.", 3: "between two and three."})
        expanded, report = expand_chain(QUESTION, _chain(), backend, ExpansionConfig())
        assert expanded.texts == (
            COARSE[0],
            "between one and two.",
            COARSE[1],
            "between two and three.",
            COARSE[2],
        )
        assert report.inserted == 2
        assert report.input_steps == 3
        assert report.output_steps == 5

    def test_rejected_gap_leaves_its_neighbors_adjacent(self):
        # gap 2 echoes the next step (rejected); gap 3 proposes fresh text
        backend = ScriptedBackend({2: COARSE[1], 3: "a genuinely new step."})
        expanded, report = expand_chain(QUESTION, _chain(), backend, ExpansionConfig())
        assert expanded.texts == (COARSE[0], COARSE[1], "a genuinely new step.", COARSE[2])
        assert report.inserted == 1
        assert report.invalid == 1

    def test_leading_gap_inserts_before_the_first_step(self):
        backend = ScriptedBackend({1: "setup before anything.", 2: COARSE[1], 3: COARSE[2]})
        config = ExpansionConfig(include_leading_gap=True)
        expanded, _ = expand_chain(QUESTION, _chain(), backend, config)
        assert expanded.texts[0] == "setup before anything."
        assert expanded.texts[1:] == COARSE

    def test_single_step_chain_is_returned_unchanged(self):
        chain = _chain(("The answer is 15.",))
        expanded, report = expand_chain(QUESTION, chain, NoveltyBackend(), ExpansionConfig())
        assert expanded.texts == chain.texts
        assert report.attempted == 0

    def test_single_step_chain_grows_only_via_leading_gap(self):
        chain = _chain(("The answer is 15.",))
        config = ExpansionConfig(include_leading_gap=True)
        expanded, report = expand_chain(QUESTION, chain, NoveltyBackend(), config)
        assert len(expanded.texts) == 2
        assert expanded.texts[1] == "The answer is 15."
        assert report.attempted == 1

    def test_one_round_at_most_doubles_minus_one(self):
        expanded, _ = expand_chain(QUESTION, _chain(FINE), NoveltyBackend(), ExpansionConfig())
        assert len(expanded.texts) == 2 * len(FINE) - 1

    def test_input_chain_is_a_subsequence_of_output(self):
        expanded, _ = expand_chain(QUESTION, _chain(FINE), NoveltyBackend(), ExpansionConfig())
        positions = [expanded.texts.index(step) for step in FINE]
        assert positions == sorted(positions)


class TestConcurrency:
    def test_result_is_independent_of_parallelism(self):
        class Jittery:
            """Deterministic text, adversarial completion order."""

            def fill(self, request: FimRequest) -> str:
                rng = random.Random(request.request_id)
                time.sleep(rng.uniform(0.0, 0.02))
                return f"fresh step {request.request_id[:12]}"

        chain = _chain(FINE)
        serial, serial_report = expand_chain(
            QUESTION, chain, Jittery(), ExpansionConfig(max_in_flight=1)
        )
        wide, wide_report = expand_chain(
            QUESTION, chain, Jittery(), ExpansionConfig(max_in_flight=7)
        )
        assert serial.texts == wide.texts
        assert [p.to_dict() for p in serial_report.proposals] == [
            p.to_dict() for p in wide_report.proposals
        ]

    def test_proposals_are_reported_in_gap_order(self):
        expanded, report = expand_chain(QUESTION, _chain(FINE), NoveltyBackend(), ExpansionConfig())
        assert [p.gap_index for p in report.proposals] == [2, 3, 4]


class TestIterations:
    def test_one_iteration_matches_single_pass(self):
        chain = _chain(FINE)
        single, single_report = expand_chain(QUESTION, chain, NoveltyBackend(), ExpansionConfig())
        iterated, reports = expand_iteratively(
            QUESTION, chain, NoveltyBackend(), ExpansionConfig(iterations=1)
        )
        assert iterated.texts == single.texts
        assert len(reports) == 1
        assert reports[0].to_dict() == single_report.to_dict()

    def test_each_round_feeds_the_next(self):
        chain = _chain(FINE)
        config = ExpansionConfig(iterations=2)
        iterated, reports = expand_iteratively(QUESTION, chain, NoveltyBackend(), config)
        once, _ = expand_chain(QUESTION, chain, NoveltyBackend(), ExpansionConfig())
        twice, _ = expand_chain(QUESTION, once, NoveltyBackend(), ExpansionConfig())
        assert iterated.texts == twice.texts
        assert [r.iteration for r in reports] == [0, 1]
        assert reports[0].output_steps == reports[1].input_steps

    def test_all_rejections_reach_a_fixed_point(self):
        chain = _chain(FINE)
        config = ExpansionConfig(iterations=3)
        iterated, reports = expand_iteratively(QUESTION, chain, EchoBackend(), config)
        assert iterated.texts == chain.texts
        assert all(r.inserted == 0 for r in reports)
        assert all(r.invalid == r.attempted for r in reports)


class TestReports:
    def test_accounting_must_balance(self):
        with pytest.raises(ValueError):
            ExpansionReport(
                input_steps=3,
                output_steps=4,
                attempted=2,
                inserted=1,
                invalid=0,
                malformed=0,
                errored=0,
            )

    def test_counts_match_decisions(self):
        class Mixed:
            def fill(self, request: FimRequest) -> str:
                gap = len(request.prefix_steps) + 1
                if gap == 2:
                    return request.suffix_steps[0]
                if gap == 3:
                    return f"{FIM_MIDDLE}"
                if gap == 4:
                    raise RuntimeError("down")
                return f"fresh step {request.request_id[:12]}"

        chain = _chain(("s one ok.", "s two ok.", "s three ok.", "s four ok.", "s five ok."))
        _, report = expand_chain(QUESTION, chain, Mixed(), ExpansionConfig())
        assert report.attempted == 4
        assert report.invalid == 1
        assert report.malformed == 1
        assert report.errored == 1
        assert report.inserted == 1

    def test_timing_fields_can_be_left_out_of_serialization(self):
        _, report = expand_chain(QUESTION, _chain(), NoveltyBackend(), ExpansionConfig())
        assert report.elapsed_ms > 0
        assert report.proposals and all(p.latency_ms >= 0 for p in report.proposals)
        row = report.to_dict()
        assert "elapsed_ms" not in row
        assert row["proposals"] and all("latency_ms" not in p for p in row["proposals"])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 1.5},
            {"eta": -0.2},
            {"iterations": 0},
            {"max_in_flight": 0},
            {"iterations": 1.5},
            {"max_in_flight": "4"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExpansionConfig(**kwargs)


class TestRecordStreams:
    def _rows(self):
        return [
            {"id": "r0", "question": QUESTION, "steps": list(COARSE)},
            {"id": "r1", "question": QUESTION, "steps": list(FINE)},
        ]

    def _expand(self, rows, config=ExpansionConfig()):
        return list(expand_records(rows, NoveltyBackend(), config))

    def test_records_come_back_in_input_order(self):
        out = self._expand(self._rows())
        assert [row["id"] for row, _ in out] == ["r0", "r1"]

    def test_extra_fields_ride_along_unchanged(self):
        rows = self._rows()
        rows[0]["license"] = "cc-by"
        (first, _), _ = self._expand(rows)
        assert first["license"] == "cc-by"

    def test_poisoned_record_is_passed_through_with_an_error(self):
        rows = self._rows()
        rows.insert(1, {"id": "bad", "steps": list(COARSE)})  # no question field
        out = list(expand_records(rows, NoveltyBackend(), ExpansionConfig()))
        assert len(out) == 3
        bad_row, bad_reports = out[1]
        assert bad_row == rows[1]
        assert bad_reports[0].error is not None
        assert bad_reports[0].attempted == 0
        # neighbors still expanded
        assert len(out[0][0]["steps"]) == 2 * len(COARSE) - 1
        assert len(out[2][0]["steps"]) == 2 * len(FINE) - 1

    def test_empty_steps_is_poisoned_not_fatal(self):
        rows = [{"id": "r0", "question": QUESTION, "steps": []}]
        (row, reports), = expand_records(rows, NoveltyBackend(), ExpansionConfig())
        assert row["steps"] == []
        assert reports[0].error is not None

    def test_reports_carry_the_record_id(self):
        out = list(expand_records(self._rows(), NoveltyBackend(), ExpansionConfig()))
        assert [reports[0].record_id for _, reports in out] == ["r0", "r1"]

    def test_dataset_aggregate_counts_each_record_once(self):
        out = self._expand(self._rows(), ExpansionConfig(iterations=2))
        # one report per round; step totals take each record's first and last round
        assert all(len(reports) == 2 for _, reports in out)
        assert sum(reports[0].input_steps for _, reports in out) == len(COARSE) + len(FINE)
        assert [reports[-1].output_steps for _, reports in out] == [len(row["steps"]) for row, _ in out]
        every = [r for _, reports in out for r in reports]
        assert sum(r.attempted for r in every) == sum(r.inserted + r.invalid for r in every)

    def test_empty_corpus_gives_a_zero_report(self):
        assert self._expand([]) == []


def _in_thread(fn, timeout=20.0):
    """fn() on a helper thread; a deadlock fails the test instead of hanging it."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class CountingRows:
    """A lazy record stream that counts the rows pulled from it."""

    def __init__(self, n, fail_at=None):
        self.n = n
        self.fail_at = fail_at
        self.pulled = 0

    def __iter__(self):
        for i in range(self.n):
            if i == self.fail_at:
                raise JsonlError(f"rows.jsonl:{i + 1}: invalid JSON")
            self.pulled += 1
            yield {"id": f"r{i}", "question": QUESTION, "steps": list(FINE)}


class SlowBackend:
    """NoveltyBackend after a short sleep; counts fills started and running."""

    def __init__(self, delay_s=0.005):
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.started = self.active = 0

    def fill(self, request: FimRequest) -> str:
        with self.lock:
            self.started += 1
            self.active += 1
        try:
            time.sleep(self.delay_s)
            return f"fresh step {request.request_id[:12]}"
        finally:
            with self.lock:
                self.active -= 1


class TestSchedulerStreaming:
    @pytest.mark.parametrize("mif", [1, 4, 16])
    def test_first_record_arrives_within_the_lookahead(self, mif):
        rows = CountingRows(200)
        records = expand_records(iter(rows), SlowBackend(0.0), ExpansionConfig(max_in_flight=mif))

        def first():
            row, _ = next(records)
            records.close()
            return row

        assert _in_thread(first)["id"] == "r0"
        assert rows.pulled <= 4 * mif + 1

    def test_closing_after_one_record_returns_promptly(self):
        backend = SlowBackend(0.02)
        records = expand_records(iter(CountingRows(500)), backend, ExpansionConfig(max_in_flight=4))

        def one_then_close():
            next(records)
            records.close()

        _in_thread(one_then_close, timeout=5.0)
        assert backend.active == 0
        started = backend.started
        time.sleep(0.1)
        assert backend.started == started < 500 * (len(FINE) - 1)

    @pytest.mark.parametrize("mif", [1, 4])
    def test_input_error_propagates_without_hanging(self, mif):
        backend = SlowBackend()
        records = expand_records(iter(CountingRows(50, fail_at=30)), backend,
                                 ExpansionConfig(max_in_flight=mif))
        with pytest.raises(JsonlError, match="rows.jsonl:31"):
            _in_thread(lambda: list(records))
        assert backend.active == 0

    def test_fills_go_on_while_the_caller_holds_a_record(self):
        backend = SlowBackend(0.005)
        records = expand_records(iter(CountingRows(200)), backend, ExpansionConfig(max_in_flight=4))

        def hold_one_then_close():
            next(records)
            time.sleep(0.3)
            records.close()

        _in_thread(hold_one_then_close, timeout=5.0)
        assert 2 * 4 < backend.started <= (4 * 4 + 1) * (len(FINE) - 1)

    @pytest.mark.parametrize("mif", [1, 4])
    def test_a_base_exception_from_a_fill_reaches_the_caller(self, mif):
        class Abort(BaseException):
            pass

        class AbortOnR5(SlowBackend):
            def fill(self, request: FimRequest) -> str:
                if request.question == "r5?":
                    raise Abort()
                return super().fill(request)

        rows = [{"id": f"r{i}", "question": f"r{i}?", "steps": list(FINE)} for i in range(40)]
        backend = AbortOnR5(0.01)
        yielded = []

        def consume():
            for row, _ in expand_records(rows, backend, ExpansionConfig(max_in_flight=mif)):
                yielded.append(row["id"])

        with pytest.raises(Abort):
            _in_thread(consume)
        assert yielded == ["r0", "r1", "r2", "r3", "r4"]  # earlier records first, in order
        assert backend.active == 0
        started = backend.started
        time.sleep(0.05)
        assert backend.started == started

    @pytest.mark.parametrize("mif", [1, 4])
    def test_a_gap_that_breaks_the_engine_fails_only_its_record(self, mif):
        class NoneForR1:
            def fill(self, request: FimRequest):
                if request.question == "r1?":
                    return None  # not a string: the engine cannot clean it
                return f"fresh step {request.request_id[:12]}"

        rows = [{"id": f"r{i}", "question": f"r{i}?", "steps": list(COARSE)} for i in range(3)]
        out = list(expand_records(rows, NoneForR1(), ExpansionConfig(max_in_flight=mif)))
        assert [row["id"] for row, _ in out] == ["r0", "r1", "r2"]
        assert out[1][0] == rows[1]
        assert "NoneType" in out[1][1][0].error
        assert len(out[0][0]["steps"]) == len(out[2][0]["steps"]) == 2 * len(COARSE) - 1


@st.composite
def _chains(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [f"step number {i} marker {draw(st.integers(0, 9))}{i}." for i in range(n)]


class ChaoticBackend:
    """Per-request behavior drawn from the request hash: echoes, fails, rambles."""

    def fill(self, request: FimRequest) -> str:
        mode = int(request.request_id[:2], 16) % 5
        if mode == 0:
            return request.suffix_steps[0]
        if mode == 1:
            return ""
        if mode == 2:
            return f"{FIM_SUFFIX}{request.request_id}"
        if mode == 3:
            raise RuntimeError("synthetic outage")
        return f"fresh step {request.request_id[:12]}"


class TestChainProperties:
    @settings(max_examples=60)
    @given(texts=_chains(), leading=st.booleans())
    def test_output_always_contains_input_in_order(self, texts, leading):
        config = ExpansionConfig(include_leading_gap=leading)
        expanded, report = expand_chain(QUESTION, _chain(texts), ChaoticBackend(), config)
        remaining = list(expanded.texts)
        for step in texts:
            assert step in remaining
            remaining = remaining[remaining.index(step) + 1 :]
        bound = 2 * len(texts) if leading else 2 * len(texts) - 1
        assert len(expanded.texts) <= bound
        assert report.attempted == len(texts) - 1 + (1 if leading else 0)
