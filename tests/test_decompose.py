"""Step splitting: markers, sentence boundaries, math protection, round-trip."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from stepfim.decompose import (
    DecomposeConfig,
    EmptySolution,
    NonTextSolution,
    StepChain,
    UnbalancedMath,
    decompose,
    join,
    normalize_ws,
)


def texts(solution, **kwargs):
    config = DecomposeConfig(**kwargs) if kwargs else None
    return list(decompose(solution, config).texts)


class TestSplitting:
    def test_marker_words_start_steps(self):
        out = texts("First we add 2 and 3. Then we double it. Finally we report 10.")
        assert out == [
            "First we add 2 and 3.",
            "Then we double it.",
            "Finally we report 10.",
        ]

    def test_sentence_boundary_before_uppercase(self):
        out = texts("The sum equals 5 apples. Each child gets one apple.")
        assert out == ["The sum equals 5 apples.", "Each child gets one apple."]

    def test_numbered_step_markers(self):
        out = texts("Step 1: compute the base. Step 2: multiply by height.")
        assert out == ["Step 1: compute the base.", "Step 2: multiply by height."]

    def test_lowercase_continuation_does_not_split(self):
        out = texts("We know that x equals 2. and that is all we need today.")
        assert out == ["We know that x equals 2. and that is all we need today."]

    def test_exclamation_and_question_boundaries(self):
        out = texts("What a simplification! Now divide both sides by two.")
        assert out == ["What a simplification!", "Now divide both sides by two."]

    def test_decimal_numbers_do_not_split(self):
        out = texts("The rate is 3.5 meters per second. Multiply by 4 seconds to go.")
        assert out == ["The rate is 3.5 meters per second.", "Multiply by 4 seconds to go."]

    def test_abbreviations_do_not_split(self):
        out = texts("Apply the identity (e.g. the double angle rule) carefully. Then simplify it.")
        assert out == [
            "Apply the identity (e.g. the double angle rule) carefully.",
            "Then simplify it.",
        ]

    def test_title_abbreviation_does_not_split(self):
        out = texts("Dr. Euler proved this long ago. Therefore we may reuse the result.")
        assert out == [
            "Dr. Euler proved this long ago.",
            "Therefore we may reuse the result.",
        ]

    def test_whitespace_runs_collapse(self):
        out = texts("First we   add numbers\nacross lines. Then we stop here.")
        assert out == ["First we add numbers across lines.", "Then we stop here."]


class TestMathProtection:
    def test_inline_dollars_protect_periods(self):
        solution = "Note that $f(x) = 2. Q$ holds everywhere. Next we integrate the result."
        out = texts(solution)
        assert out == [
            "Note that $f(x) = 2. Q$ holds everywhere.",
            "Next we integrate the result.",
        ]

    def test_display_dollars_protect_contents(self):
        solution = "We use $$a. B. C$$ as notation here. Then we substitute values."
        out = texts(solution)
        assert out[0] == "We use $$a. B. C$$ as notation here."

    def test_backslash_paren_delimiters(self):
        solution = "Recall \\(x. Y\\) from above equation. Then finish the proof."
        assert texts(solution)[0] == "Recall \\(x. Y\\) from above equation."

    def test_backslash_bracket_delimiters(self):
        solution = "Display \\[a. B\\] stands alone here. Next we solve for a."
        assert texts(solution)[0] == "Display \\[a. B\\] stands alone here."

    def test_environment_blocks_protected(self):
        solution = (
            "We align terms \\begin{align}x &= 2. Y &= 3.\\end{align} in one block. "
            "Then we compare coefficients."
        )
        out = texts(solution)
        assert out[0].startswith("We align terms \\begin{align}")
        assert len(out) == 2

    def test_escaped_dollar_is_plain_text(self):
        solution = "The price is \\$5 per unit today. Next we scale to ten units."
        out = texts(solution)
        assert out == [
            "The price is \\$5 per unit today.",
            "Next we scale to ten units.",
        ]

    def test_unclosed_dollar_raises(self):
        with pytest.raises(UnbalancedMath):
            decompose("Consider $x = 2 and keep going forever.")

    def test_unclosed_environment_raises(self):
        with pytest.raises(UnbalancedMath):
            decompose("We start \\begin{align}x = 2 and never close the block.")


class TestFragments:
    def test_short_leading_fragment_attaches_forward(self):
        out = texts("Yes. Therefore the result is exactly four units.")
        assert out == ["Yes. Therefore the result is exactly four units."]

    def test_short_trailing_fragment_attaches_backward(self):
        out = texts("First compute the full product of terms. Done. QED.")
        assert out == ["First compute the full product of terms. Done. QED."]

    def test_min_step_chars_zero_keeps_fragments(self):
        out = texts("Yes sir. Therefore the result is four.", min_step_chars=0)
        assert out == ["Yes sir.", "Therefore the result is four."]

    def test_empty_solution_raises(self):
        with pytest.raises(EmptySolution):
            decompose("")
        with pytest.raises(EmptySolution):
            decompose("   \n\t ")
        with pytest.raises(EmptySolution):
            decompose("... !!! ---")

    @pytest.mark.parametrize("solution", [123, None, ["First step."]])
    def test_non_string_solution_raises(self, solution):
        with pytest.raises(NonTextSolution):
            decompose(solution)


class TestChainType:
    def test_from_texts_round_trip(self):
        chain = StepChain.from_texts(["a step", "b step"])
        assert chain.texts == ("a step", "b step")
        assert len(chain) == 2

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            StepChain(texts=())

    def test_rejects_untrimmed_or_blank_steps(self):
        with pytest.raises(ValueError):
            StepChain.from_texts(["ok", " padded "])
        with pytest.raises(ValueError):
            StepChain.from_texts(["ok", ""])

    @pytest.mark.parametrize("steps", ["Hi.", [1, 2], ["ok", None], None])
    def test_rejects_a_string_or_non_string_steps(self, steps):
        with pytest.raises(ValueError):
            StepChain.from_texts(steps)


_SENTENCE_BANK = [
    "First we write down the given quantities.",
    "Then we add {a} and {b} to get {c}.",
    "The product of {a} and {b} is {c}.",
    "Next we substitute into $x^2 + {a}. x$ and simplify.",
    "Note that \\(y = {a}. z\\) by definition.",
    "We apply the rule (e.g. distributivity) to both sides.",
    "Dr. Gauss would approve of this rearrangement.",
    "Step {n}: divide the running total by {b}.",
    "Therefore the intermediate value equals {c}.",
    "Finally the answer is {c}.",
    "Observe that the rate is {a}.5 units per hour.",
    "What remains to check? Only the base case now.",
]


def _build_solution(rng: random.Random) -> str:
    parts = []
    for i in range(rng.randint(2, 7)):
        template = rng.choice(_SENTENCE_BANK)
        parts.append(
            template.format(a=rng.randint(2, 99), b=rng.randint(2, 99), c=rng.randint(2, 9999), n=i + 1)
        )
    return " ".join(parts)


class TestRoundTrip:
    def test_fifty_varied_solutions_round_trip(self):
        rng = random.Random(5150)
        for _ in range(50):
            solution = _build_solution(rng)
            chain = decompose(solution)
            assert " ".join(chain.texts) == normalize_ws(solution)
            assert normalize_ws(join(chain)) == normalize_ws(solution)

    @given(st.text(alphabet="abcdefg XYZ.!?,0123456789", min_size=0, max_size=200))
    def test_arbitrary_text_round_trips_or_rejects(self, solution):
        try:
            chain = decompose(solution)
        except EmptySolution:
            assert not any(ch.isalnum() for ch in solution)
            return
        assert " ".join(chain.texts) == normalize_ws(solution)

    def test_steps_are_never_blank(self):
        chain = decompose("First add. Then subtract. Finally report the total value.")
        assert all(text.strip() == text and text for text in chain.texts)
