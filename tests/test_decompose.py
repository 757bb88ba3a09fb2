"""Step splitting: markers, sentence boundaries, math protection, round-trip."""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    _find_breaks as reference_breaks,
    _scan_math_spans as reference_spans,
    reference_decompose,
)
from stepfim.decompose import (
    DecomposeConfig,
    EmptySolution,
    NonTextSolution,
    StepChain,
    UnbalancedMath,
    _mask_math,
    _step_starts,
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

    def test_a_title_abbreviation_inside_a_sentence_does_not_split(self):
        out = texts("This is the rule that Prof. Euler gave for sums. Then we add them up.")
        assert out == ["This is the rule that Prof. Euler gave for sums.", "Then we add them up."]

    @pytest.mark.parametrize(
        "word, splits",
        [
            ("Élan", True),
            ("Ωmega", True),
            ("\u212aelvin", True),  # the Kelvin sign is upper case
            ("élan", False),
            ("ǅemal", False),  # titlecase, not upper case
            ("fIRST", True),  # marker words match in any ASCII case
            ("firſt", False),  # but a long s is no "s"
            ("firstly", False),
            ("thence", False),
        ],
    )
    def test_what_may_open_a_sentence_step(self, word, splits):
        out = texts(f"We are done with this part. {word} goes on from here.")
        assert len(out) == (2 if splits else 1)

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


# delimiters, half-delimiters and break triggers the splitter has to tell apart
_MATH_ATOMS = [
    "$", "$$", "\\(", "\\)", "\\[", "\\]", "\\begin{a}", "\\end{a}", "\\begin{", "\\end{",
    "{", "}", "\\$", "\\", "\\\\", ".", "!", "?", " ", "  ", "\n", "Step 1:", "Step 2.",
    "e.g.", "Dr.", "3.5", "x", "A", "Then", "then", "First", "Therefore",
    # non-ASCII capitals and lowercase, a titlecase letter (not isupper), the Kelvin
    # sign, a long s that Unicode case folding reads as "s", bracketed abbreviations,
    # a step number in Arabic-Indic digits, and sentence ends with their space
    "É", "é", "Ω", "ǅ", "\u212a", "firſt", "FIRST", "firstly", "Thence", "(e.g.", "[Dr.",
    "{cf.", "Step 12:", "Step ١:", "(", "[", ". ", "? ",
    # backslash pairs that neither open nor escape, a NUL, and a marker whose period
    # ends a sentence
    "\\.", "\\ ", "\\!", "\0", " Step 3. Next",
    # the filler math spans are masked with, abbreviations by their last three
    # characters, and whitespace that is not the ASCII space, or a run of it
    "#", "Mrs.", "Eq.", "fig.", "(Prof.", "\t", "\xa0", "\u2028", "   ",
]


def _outcome(split, text):
    """What `split(text)` returns, or the type and message of what it raises."""
    try:
        return split(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _masked(text, spans):
    """`text` with each span overwritten by "#", one character for one."""
    for start, end in spans:
        text = text[:start] + "#" * (end - start) + text[end:]
    return text


# STEPFIM_SLOW_TESTS=1 (a CI step of its own) checks the splitter on many more texts
_SPLITTER_EXAMPLES = 20_000 if os.environ.get("STEPFIM_SLOW_TESTS") == "1" else 1500


class TestMatchesWalkingSplitter:
    """The two-pass splitter against the character-walking reference in helpers."""

    @settings(max_examples=_SPLITTER_EXAMPLES)
    @given(
        st.lists(st.sampled_from(_MATH_ATOMS), max_size=40).map("".join),
        st.sampled_from([0, 3, 10, 30]),
    )
    def test_spans_breaks_and_chains_match_the_reference(self, text, min_step_chars):
        masked = _outcome(_mask_math, text)
        assert masked == _outcome(lambda t: _masked(t, reference_spans(t)), text)
        starts = _outcome(_step_starts, text)
        assert starts == _outcome(lambda t: reference_breaks(t, reference_spans(t)), text)
        config = DecomposeConfig(min_step_chars=min_step_chars)
        chain = _outcome(lambda t: decompose(t, config).texts, text)
        assert chain == _outcome(lambda t: reference_decompose(t, config).texts, text)

    def test_end_tag_inside_an_open_begin_tag_is_skipped(self):
        text = "Let \\begin{a\\end{b} x = 1. Then y is done here."
        with pytest.raises(UnbalancedMath, match=r"^unclosed \\begin at offset 4$"):
            decompose(text)

    def test_lone_end_tag_is_plain_text(self):
        text = "Open \\end{x without close. Then go on."
        assert texts(text) == ["Open \\end{x without close.", "Then go on."]

    def test_trailing_backslash_is_plain_text(self):
        text = "Trailing backslash here. Then it ends \\"
        assert texts(text) == ["Trailing backslash here.", "Then it ends \\"]

    def test_a_backslash_pair_spends_only_its_backslash(self):
        text = "We stop right here \\. Next we add the two numbers."
        assert texts(text) == ["We stop right here \\.", "Next we add the two numbers."]

    def test_a_marker_period_can_end_a_sentence(self):
        text = "Do it now. Step 3. Next we add."
        assert texts(text, min_step_chars=0) == ["Do it now.", "Step 3.", "Next we add."]


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


# every character Python splits on, the ASCII space and newline among them
_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


class TestNormalizeWs:
    @given(st.text(st.characters() | st.sampled_from(_WHITESPACE)))
    @example("a\nb")
    @example(" a")
    @example("a\n")
    @example("a  b")
    @example("a\n b")
    @example("a\tb")
    def test_matches_split_and_join(self, text):
        assert normalize_ws(text) == " ".join(text.split())


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
