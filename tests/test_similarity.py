"""Similarity scoring against an independent reference and against difflib,
plus gate rules."""

from __future__ import annotations

import random
import string
from difflib import SequenceMatcher

import pytest
from hypothesis import given, strategies as st

from helpers import reference_ratio
from stepfim.decompose import normalize_ws
from stepfim.expand import ExpansionConfig
from stepfim.similarity import DEFAULT_ETA, gate, similarity
from stepfim.synth import CorpusSpec, generate, oracle_fill

PAIR_ALPHABET = string.ascii_letters + string.digits + " +-*/=()$._,"


def _random_pairs(count: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        a = "".join(rng.choice(PAIR_ALPHABET) for _ in range(rng.randint(0, 200)))
        b = "".join(rng.choice(PAIR_ALPHABET) for _ in range(rng.randint(0, 200)))
        pairs.append((a, b))
    return pairs


class TestSimilarityValues:
    def test_identical_strings_score_one(self):
        assert similarity("abc", "abc") == 1.0

    def test_no_overlap_scores_zero(self):
        assert similarity("", "abc") == 0.0
        assert similarity("xyz", "abc") == 0.0

    def test_shifted_overlap_exact_value(self):
        assert similarity("abcd", "bcde") == 0.75

    def test_both_empty_defined_as_one(self):
        assert similarity("", "") == 1.0

    def test_whitespace_runs_are_normalized(self):
        assert similarity("a  b\tc", "a b c") == 1.0
        assert similarity(" a b ", "a b") == 1.0

    def test_long_inputs_with_popular_characters(self):
        # at these lengths a naive matcher config would junk the popular
        # space character and report < 1.0 for identical strings
        text = "a " * 150
        assert similarity(text, text) == 1.0
        assert similarity(text, text) == reference_ratio(text, text)

    def test_reference_equivalence_on_seeded_pairs(self):
        for a, b in _random_pairs(1000, seed=20240817):
            assert abs(similarity(a, b) - reference_ratio(a, b)) <= 1e-12


class TestSimilarityProperties:
    @given(st.text(alphabet=PAIR_ALPHABET, max_size=80))
    def test_self_similarity_is_one(self, text):
        assert similarity(text, text) == 1.0

    @given(
        st.text(alphabet=PAIR_ALPHABET, max_size=80),
        st.text(alphabet=PAIR_ALPHABET, max_size=80),
    )
    def test_score_stays_in_unit_range(self, a, b):
        score = similarity(a, b)
        assert 0.0 <= score <= 1.0

    @given(
        st.text(alphabet=PAIR_ALPHABET, max_size=60),
        st.text(alphabet=PAIR_ALPHABET, max_size=60),
    )
    def test_matches_reference_everywhere(self, a, b):
        assert abs(similarity(a, b) - reference_ratio(a, b)) <= 1e-12


def _difflib_ratio(a: str, b: str) -> float:
    return SequenceMatcher(None, normalize_ws(a), normalize_ws(b), autojunk=False).ratio()


def _gate_pairs() -> list[tuple[str, str]]:
    """(candidate, next step) for every gap of a small synthetic corpus, as
    the oracle fills them, in the coarse and the fine chains, plus the
    consecutive fine steps that corpus generation compares."""
    pairs = []
    for prob in generate(CorpusSpec(count=40, seed=5, ops_max=6)):
        for texts in (prob.coarse_chain.texts, prob.fine_chain.texts):
            for i in range(len(texts)):
                candidate = oracle_fill(prob.question, texts[:i], texts[i:])
                pairs.append((candidate, texts[i]))
        fine = prob.fine_chain.texts
        pairs.extend(zip(fine, fine[1:]))
    return pairs


class TestExactlyDifflib:
    """The score is difflib's ratio with autojunk off, to the last bit."""

    @given(st.text(alphabet="ab ", max_size=120), st.text(alphabet="ab ", max_size=120))
    def test_tie_heavy_alphabet(self, a, b):
        assert similarity(a, b) == _difflib_ratio(a, b)

    @given(st.text(alphabet="αβγ δ", max_size=120), st.text(alphabet="αβγ δ", max_size=120))
    def test_non_ascii_text(self, a, b):
        assert similarity(a, b) == _difflib_ratio(a, b)

    @given(
        st.text(alphabet=PAIR_ALPHABET, max_size=300),
        st.text(alphabet=PAIR_ALPHABET, max_size=300),
    )
    def test_lengths_up_to_300(self, a, b):
        assert similarity(a, b) == _difflib_ratio(a, b)

    @pytest.mark.parametrize("a, b", [
        ("ab" * 200, "ba" * 200),
        ("a" * 400, "a" * 399),
        ("αβγ δ" * 60, "βγ δα" * 60),
        ("", "abc"),
        ("a b", "a  b"),
    ])
    def test_near_ties_and_long_inputs(self, a, b):
        assert similarity(a, b) == _difflib_ratio(a, b)
        assert similarity(b, a) == _difflib_ratio(b, a)

    def test_gate_pairs_of_a_synthetic_corpus(self):
        pairs = _gate_pairs()
        assert len(pairs) > 400
        assert any(normalize_ws(a) != normalize_ws(b) for a, b in pairs)
        for candidate, next_step in pairs:
            assert similarity(candidate, next_step) == _difflib_ratio(candidate, next_step)


class TestGate:
    def test_near_duplicate_rejected(self):
        outcome = gate("The answer is 5.", "The answer is 5.", 0.8)
        assert not outcome.valid
        assert outcome.score == 1.0

    def test_distinct_candidate_accepted(self):
        outcome = gate("Compute 5 * 4 = 20.", "Therefore the area is 12.", 0.8)
        assert outcome.valid
        assert outcome.score < 0.8

    def test_empty_candidate_rejected(self):
        assert not gate("", "The answer is 5.").valid
        assert not gate("   \t", "The answer is 5.").valid

    def test_score_equal_to_eta_rejected(self):
        # ("abcd", "bcde") scores exactly 0.75: equality is Invalid
        outcome = gate("abcd", "bcde", 0.75)
        assert outcome.score == 0.75
        assert not outcome.valid

    def test_default_threshold_is_point_eight(self):
        assert DEFAULT_ETA == 0.8

    @pytest.mark.parametrize("eta", [-0.1, 0.0, 1.0001, 2.0])
    def test_threshold_out_of_range_rejected(self, eta):
        # gate() takes eta as given; the range check lives on ExpansionConfig
        with pytest.raises(ValueError, match="eta must be in"):
            ExpansionConfig(eta=eta)

    def test_threshold_of_one_allows_everything_but_duplicates(self):
        outcome = gate("abcd", "bcde", 1.0)
        assert outcome.valid
        assert not gate("same", "same", 1.0).valid

    @given(
        st.text(alphabet=PAIR_ALPHABET, max_size=60),
        st.text(alphabet=PAIR_ALPHABET, min_size=1, max_size=60),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_invalid_is_monotone_in_threshold(self, candidate, next_step, eta_a, eta_b):
        low, high = sorted((eta_a, eta_b))
        if not gate(candidate, next_step, high).valid:
            assert not gate(candidate, next_step, low).valid
