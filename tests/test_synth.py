"""Synthetic corpus generation and the ground-truth gap filler."""

from __future__ import annotations

import itertools
import threading

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_fine_steps
from stepfim import synth
from stepfim.similarity import similarity
from stepfim.synth import (
    ANSWER_TEMPLATE,
    CorpusSpec,
    SpecError,
    UnparsableQuestion,
    fine_steps_for_question,
    generate,
    oracle_fill,
)

HAND_QUESTION = "What is the value of ((2 + 3) * 4) - 5?"
HAND_FINE = [
    "Compute 2 + 3 = 5.",
    "Compute 5 * 4 = 20.",
    "Compute 20 - 5 = 15.",
    "The answer is 15.",
]


class TestFineChainDerivation:
    def test_hand_worked_expression(self):
        assert fine_steps_for_question(HAND_QUESTION) == HAND_FINE

    def test_two_op_expression(self):
        assert fine_steps_for_question("What is the value of (7 - 2) * 3?") == [
            "Compute 7 - 2 = 5.",
            "Compute 5 * 3 = 15.",
            "The answer is 15.",
        ]

    def test_negative_intermediate_values(self):
        assert fine_steps_for_question("What is the value of (2 - 9) * 3?") == [
            "Compute 2 - 9 = -7.",
            "Compute -7 * 3 = -21.",
            "The answer is -21.",
        ]

    @pytest.mark.parametrize(
        "question",
        [
            "What is the capital of France?",
            "What is the value of x + y?",
            "What is the value of (2 + 3?",
            "Compute 2 + 3.",
            "",
        ],
    )
    def test_non_synthetic_questions_rejected(self, question):
        with pytest.raises(UnparsableQuestion):
            fine_steps_for_question(question)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["(", ")", "+", "-", "*", "1", "-2", "33", " ", "x", "\t"]),
                    max_size=16).map("".join))
    def test_steps_and_errors_match_the_recursive_reference(self, expr):
        question = f"What is the value of {expr}?"
        assert _outcome(fine_steps_for_question, question) == _outcome(reference_fine_steps, question)

    def test_600_operations_deep_question_yields_its_fine_chain(self):
        # the recursive reader needed two frames per level of parentheses
        (problem,) = generate(CorpusSpec(count=1, seed=6, ops_min=600, ops_max=600))
        assert problem.question.startswith("What is the value of " + "(" * 599)
        assert fine_steps_for_question(problem.question) == list(problem.fine_chain.texts)


def _outcome(read, question):
    try:
        return read(question)
    except UnparsableQuestion as exc:
        return f"UnparsableQuestion: {exc}"


class TestGeneration:
    def test_same_seed_is_byte_identical(self):
        spec = CorpusSpec(count=20, seed=31)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = generate(CorpusSpec(count=20, seed=31))
        b = generate(CorpusSpec(count=20, seed=32))
        assert [p.question for p in a] != [p.question for p in b]

    def test_count_and_ids(self):
        problems = generate(CorpusSpec(count=5, seed=1))
        assert len(problems) == 5
        assert [p.id for p in problems] == [f"synth-{i:06d}" for i in range(5)]

    def test_answer_step_states_true_value(self):
        for problem in generate(CorpusSpec(count=30, seed=7)):
            expr = problem.question[len("What is the value of ") : -1]
            # independent evaluation of the rendered expression
            assert problem.fine_chain.texts[-1] == ANSWER_TEMPLATE.format(v=eval(expr))

    def test_question_rederives_fine_chain(self):
        for problem in generate(CorpusSpec(count=30, seed=8)):
            assert tuple(fine_steps_for_question(problem.question)) == problem.fine_chain.texts

    def test_ops_range_respected(self):
        for problem in generate(CorpusSpec(count=30, seed=9, ops_min=3, ops_max=5)):
            n_ops = len(problem.fine_chain) - 1
            assert 3 <= n_ops <= 5

    def test_coarse_is_strict_subsequence_of_fine(self):
        for problem in generate(CorpusSpec(count=30, seed=10)):
            fine = list(problem.fine_chain.texts)
            coarse = list(problem.coarse_chain.texts)
            assert len(coarse) < len(fine)
            it = iter(fine)
            assert all(step in it for step in coarse)

    def test_dropped_indices_reconstruct_coarse(self):
        for problem in generate(CorpusSpec(count=30, seed=11)):
            dropped = set(problem.dropped_indices)
            expected = [s for i, s in enumerate(problem.fine_chain.texts) if i not in dropped]
            assert list(problem.coarse_chain.texts) == expected

    @pytest.mark.parametrize("drop,drop_k", [("every-other", 1), ("random-k", 1), ("random-k", 2)])
    def test_drop_pattern_invariants(self, drop, drop_k):
        spec = CorpusSpec(count=40, seed=12, ops_min=4, ops_max=6, drop=drop, drop_k=drop_k)
        for problem in generate(spec):
            dropped = problem.dropped_indices
            answer_index = len(problem.fine_chain) - 1
            assert 0 not in dropped
            assert answer_index not in dropped
            assert all(b - a > 1 for a, b in zip(dropped, dropped[1:]))

    def test_random_k_drops_k_non_adjacent_steps_up_to_its_maximum(self):
        feasible = [(ops, k) for ops in range(2, 13) for k in range(1, ops // 2 + 1)]
        for (ops, k), seed in itertools.product(feasible, range(3)):
            spec = CorpusSpec(count=5, seed=seed, ops_min=ops, ops_max=ops, drop="random-k", drop_k=k)
            for problem in generate(spec):
                dropped = problem.dropped_indices
                assert len(dropped) == k
                assert 0 < dropped[0] and dropped[-1] < ops
                assert all(b - a > 1 for a, b in zip(dropped, dropped[1:]))

    def test_every_other_drops_odd_computation_indices(self):
        for problem in generate(CorpusSpec(count=20, seed=13, ops_min=2, ops_max=6)):
            n_ops = len(problem.fine_chain) - 1
            assert problem.dropped_indices == tuple(range(1, n_ops, 2))

    def test_consecutive_steps_stay_below_gate_band(self):
        # reconstruction depends on every dropped step clearing the gate
        # against its successor, so generation enforces clear separation
        for problem in generate(CorpusSpec(count=50, seed=14)):
            steps = problem.fine_chain.texts
            for left, right in zip(steps, steps[1:]):
                assert similarity(left, right) < 0.75

    def test_operator_subset_respected(self):
        for problem in generate(CorpusSpec(count=20, seed=15, operators=("+",))):
            assert "*" not in problem.question
            assert "-" not in problem.question


class TestSpecValidation:
    def test_empty_operator_set_rejected(self):
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, operators=())

    def test_ops_min_below_two_rejected(self):
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, ops_min=1)

    def test_inverted_ranges_rejected(self):
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, ops_min=3, ops_max=2)
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, operand_min=9, operand_max=2)

    def test_unknown_operator_rejected(self):
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, operators=("+", "/"))

    def test_unknown_drop_pattern_rejected(self):
        with pytest.raises(SpecError):
            CorpusSpec(count=1, seed=1, drop="all")

    def test_unsatisfiable_drop_count_rejected(self):
        spec = CorpusSpec(count=1, seed=1, ops_min=2, ops_max=2, drop="random-k", drop_k=2)
        with pytest.raises(SpecError):
            generate(spec)


class TestOracleFill:
    def test_returns_the_dropped_step(self):
        assert oracle_fill(HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]) == HAND_FINE[1]

    def test_nothing_missing_echoes_next_step(self):
        assert oracle_fill(HAND_QUESTION, HAND_FINE[:2], HAND_FINE[2:]) == HAND_FINE[2]

    def test_leading_gap_with_first_step_missing(self):
        assert oracle_fill(HAND_QUESTION, [], HAND_FINE[1:]) == HAND_FINE[0]

    def test_leading_gap_with_nothing_missing(self):
        assert oracle_fill(HAND_QUESTION, [], HAND_FINE) == HAND_FINE[0]

    def test_gap_before_answer_step(self):
        assert oracle_fill(HAND_QUESTION, HAND_FINE[:2], HAND_FINE[3:]) == HAND_FINE[2]

    def test_unknown_prefix_step_echoes_next(self):
        filled = oracle_fill(HAND_QUESTION, ["Compute 9 + 9 = 18."], HAND_FINE[2:])
        assert filled == HAND_FINE[2]

    def test_unknown_suffix_step_echoes_it(self):
        filled = oracle_fill(HAND_QUESTION, HAND_FINE[:1], ["Compute 9 + 9 = 18."])
        assert filled == "Compute 9 + 9 = 18."

    def test_every_generated_gap_is_recoverable(self):
        for problem in generate(CorpusSpec(count=25, seed=16)):
            fine = list(problem.fine_chain.texts)
            coarse = list(problem.coarse_chain.texts)
            for dropped_index in problem.dropped_indices:
                position = coarse.index(fine[dropped_index + 1])
                filled = oracle_fill(problem.question, coarse[:position], coarse[position:])
                assert filled == fine[dropped_index]

    def test_non_synthetic_question_raises(self):  # on every fill: failures are not memoized
        for _ in range(2):
            with pytest.raises(UnparsableQuestion):
                oracle_fill("What is love?", ["a"], ["b"])

    def test_a_parse_that_raised_is_not_kept(self, monkeypatch):
        parses = []

        def failing_once(question):
            parses.append(question)
            if len(parses) == 1:
                raise UnparsableQuestion("failed once")
            return fine_steps_for_question(question)

        monkeypatch.setattr(synth, "_last_parse", threading.local())
        monkeypatch.setattr(synth, "fine_steps_for_question", failing_once)
        with pytest.raises(UnparsableQuestion):
            oracle_fill(HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:])
        for _ in range(2):
            assert oracle_fill(HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]) == HAND_FINE[1]
        assert parses == [HAND_QUESTION] * 2
