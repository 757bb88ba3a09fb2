"""Corpus statistics: whitespace token counts, percentage deltas."""

from __future__ import annotations

import random

import pytest

from stepfim.stats import (
    CorpusStats,
    EmptyCorpus,
    TokenizerMismatch,
    diff_stats,
    render_pct,
    stats,
)


def _row(steps, rid="r"):
    return {"id": rid, "question": "irrelevant to token counts?", "steps": steps}


class TestStats:
    def test_average_steps_over_mixed_chains(self):
        records = [_row(["a"] * 3), _row(["b"] * 5)]
        result = stats(records)
        assert result.samples == 2
        assert result.avg_steps == 4.0

    def test_whitespace_token_counts(self):
        records = [_row(["a b"]), _row(["c d e"])]
        result = stats(records)
        assert result.total_tokens == 5
        assert result.avg_tokens == 2.5

    def test_question_text_is_not_counted(self):
        sparse = [{"id": "r", "question": "w " * 500, "steps": ["one two"]}]
        assert stats(sparse).total_tokens == 2

    def test_step_joins_do_not_merge_words(self):
        # "ab" then "cd" joined with the separator stays two tokens
        assert stats([_row(["ab", "cd"])]).total_tokens == 2

    def test_independent_recount_on_a_generated_corpus(self):
        rng = random.Random(20240818)
        words = ["alpha", "beta", "gamma", "delta", "x1", "12.5", "(4+4)"]
        records = []
        for i in range(200):
            steps = [
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 9)))
                for _ in range(rng.randint(1, 7))
            ]
            records.append(_row(steps, rid=f"r{i}"))

        expected_tokens = sum(
            sum(len(step.split()) for step in row["steps"]) for row in records
        )
        expected_steps = sum(len(row["steps"]) for row in records)
        result = stats(records)
        assert result.samples == 200
        assert result.total_tokens == expected_tokens
        assert result.avg_tokens == expected_tokens / 200
        assert result.avg_steps == expected_steps / 200

    def test_record_order_does_not_matter(self):
        records = [_row(["a b c"], "r0"), _row(["d"], "r1"), _row(["e f", "g"], "r2")]
        assert stats(records) == stats(list(reversed(records)))

    def test_empty_corpus_is_refused(self):
        with pytest.raises(EmptyCorpus):
            stats([])

    def test_summaries_name_the_whitespace_tokenizer(self):
        assert stats([_row(["abc", "de"])]).tokenizer_id == "whitespace"

    def test_round_trips_through_a_plain_dict(self):
        result = stats([_row(["a b"]), _row(["c"])])
        assert list(result.to_dict()) == ["samples", "avg_tokens", "total_tokens", "avg_steps",
                                          "tokenizer_id"]
        assert CorpusStats.from_dict(result.to_dict()) == result


class TestDeltas:
    def test_signed_two_decimal_rendering(self):
        assert render_pct(86.3548) == "+86.35%"
        assert render_pct(-4.0) == "-4.00%"
        assert render_pct(0.0) == "+0.00%"

    def test_reported_growth_strings(self):
        before = CorpusStats(
            samples=7500, avg_tokens=254.31, total_tokens=1_907_325, avg_steps=5.13,
            tokenizer_id="whitespace",
        )
        after = CorpusStats(
            samples=7500, avg_tokens=350.88, total_tokens=2_631_600, avg_steps=9.56,
            tokenizer_id="whitespace",
        )
        formatted = diff_stats(before, after).formatted()
        assert formatted["avg_steps"] == "+86.35%"
        assert formatted["avg_tokens"] == "+37.97%"
        assert formatted["samples"] == "+0.00%"

    def test_compounded_growth_string(self):
        before = CorpusStats(
            samples=7500, avg_tokens=254.31, total_tokens=1_907_325, avg_steps=5.13,
            tokenizer_id="whitespace",
        )
        deep = CorpusStats(
            samples=7500, avg_tokens=254.31, total_tokens=1_907_325, avg_steps=33.75,
            tokenizer_id="whitespace",
        )
        assert diff_stats(before, deep).formatted()["avg_steps"] == "+557.89%"

    def test_delta_math_is_relative_to_before(self):
        before = CorpusStats(2, 10.0, 20, 2.0, "whitespace")
        after = CorpusStats(3, 15.0, 45, 3.0, "whitespace")
        delta = diff_stats(before, after)
        assert delta.samples_pct == 50.0
        assert delta.avg_tokens_pct == 50.0
        assert delta.total_tokens_pct == 125.0
        assert delta.avg_steps_pct == 50.0

    def test_mismatched_tokenizers_are_refused(self):
        a = CorpusStats(1, 1.0, 1, 1.0, "whitespace")
        b = CorpusStats(1, 1.0, 1, 1.0, "chars")
        with pytest.raises(TokenizerMismatch):
            diff_stats(a, b)

    def test_zero_baseline_is_refused(self):
        a = CorpusStats(1, 0.0, 0, 1.0, "whitespace")
        b = CorpusStats(1, 5.0, 5, 1.0, "whitespace")
        with pytest.raises(ValueError, match="zero baseline"):
            diff_stats(a, b)

    def test_zero_to_zero_is_no_change(self):
        a = CorpusStats(1, 0.0, 0, 1.0, "whitespace")
        assert diff_stats(a, a).total_tokens_pct == 0.0

    def test_to_dict_carries_both_raw_and_formatted(self):
        before = CorpusStats(2, 10.0, 20, 2.0, "whitespace")
        after = CorpusStats(2, 12.0, 24, 2.5, "whitespace")
        row = diff_stats(before, after).to_dict()
        assert list(row) == ["samples_pct", "avg_tokens_pct", "total_tokens_pct", "avg_steps_pct",
                             "tokenizer_id", "formatted"]
        assert row["avg_steps_pct"] == 25.0
        assert row["formatted"]["avg_steps"] == "+25.00%"
        assert row["tokenizer_id"] == "whitespace"
