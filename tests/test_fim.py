"""PSM serialization, loss spans, and seeded middle sampling."""

from __future__ import annotations

import collections
import dataclasses
from unittest import mock

import pytest
from helpers import reference_sample_fim
from hypothesis import given, settings, strategies as st

from stepfim import fim
from stepfim.decompose import StepChain, join
from stepfim.fim import (
    FIM_MIDDLE,
    FIM_PREFIX,
    FIM_SUFFIX,
    SPECIAL_TOKENS,
    FimSample,
    MalformedPsm,
    SamplerConfig,
    SpecialTokenCollision,
    contains_special_token,
    format_prompt,
    format_psm,
    parse_psm,
    reassemble,
    sample_fim,
    samples_jsonl,
)
from stepfim.jsonl import dumps_line

STEP_TEXT = st.text(
    alphabet="abcdefghij 0123456789+-*=.", min_size=1, max_size=30
).map(str.strip).filter(bool)


class TestSerialization:
    def test_psm_layout_and_loss_span(self):
        psm, start, end = format_psm("Q?", "a", "c", "b")
        assert psm == "<|fim_prefix|>Q?\na<|fim_suffix|>c<|fim_middle|>b"
        assert psm[start:end] == "b"
        assert end == len(psm)

    def test_empty_prefix_and_suffix_still_serialize(self):
        psm, start, end = format_psm("Q?", "", "", "only step")
        assert psm == "<|fim_prefix|>Q?\n<|fim_suffix|><|fim_middle|>only step"
        assert psm[start:end] == "only step"

    def test_prompt_is_psm_minus_middle(self):
        psm, start, _ = format_psm("Q?", "a", "c", "b")
        assert format_prompt("Q?", "a", "c") == psm[:start]

    def test_each_token_appears_exactly_once(self):
        psm, _, _ = format_psm("What is 2+2?", "first", "third", "second")
        for token in SPECIAL_TOKENS:
            assert psm.count(token) == 1
        assert psm.index(FIM_PREFIX) < psm.index(FIM_SUFFIX) < psm.index(FIM_MIDDLE)

    @pytest.mark.parametrize("field", ["question", "prefix", "suffix", "middle"])
    def test_special_token_in_input_rejected(self, field):
        values = {"question": "Q?", "prefix": "a", "suffix": "c", "middle": "b"}
        values[field] = f"text {FIM_SUFFIX} text"
        with pytest.raises(SpecialTokenCollision):
            format_psm(values["question"], values["prefix"], values["suffix"], values["middle"])

    @pytest.mark.parametrize(
        "question, steps, named",
        [
            (f"Q{FIM_PREFIX}?", ("a", "b"), "question"),
            ("Q?", ("a", f"b {FIM_MIDDLE}", FIM_SUFFIX), "step 1"),
            ("Q?", ("a", "b", f"c{FIM_SUFFIX}"), "step 2"),
        ],
    )
    def test_check_chain_names_the_first_field_with_a_token(self, question, steps, named):
        with pytest.raises(SpecialTokenCollision, match=f"^{named} contains a FIM special token$"):
            fim.check_chain(question, steps)

    def test_a_token_cut_by_the_step_separator_is_in_no_field(self):
        fim.check_chain("Q?" + FIM_PREFIX[:5], (FIM_PREFIX[5:], "<|fim_", "middle|>"))


class TestParsing:
    def test_parse_inverts_format(self):
        psm, _, _ = format_psm("Q?", "a", "c", "b")
        prefix_seg, suffix_seg, middle_seg = parse_psm(psm)
        assert prefix_seg == "Q?\na"
        assert suffix_seg == "c"
        assert middle_seg == "b"
        rebuilt = FIM_PREFIX + prefix_seg + FIM_SUFFIX + suffix_seg + FIM_MIDDLE + middle_seg
        assert rebuilt == psm

    def test_missing_token_rejected(self):
        with pytest.raises(MalformedPsm):
            parse_psm(f"{FIM_PREFIX}a{FIM_SUFFIX}b")

    def test_duplicate_token_rejected(self):
        with pytest.raises(MalformedPsm):
            parse_psm(f"{FIM_PREFIX}a{FIM_SUFFIX}b{FIM_MIDDLE}c{FIM_MIDDLE}")

    def test_reordered_tokens_rejected(self):
        with pytest.raises(MalformedPsm):
            parse_psm(f"{FIM_SUFFIX}a{FIM_PREFIX}b{FIM_MIDDLE}c")

    def test_leading_garbage_rejected(self):
        with pytest.raises(MalformedPsm):
            parse_psm(f"x{FIM_PREFIX}a{FIM_SUFFIX}b{FIM_MIDDLE}c")

    @given(
        st.text(alphabet="abc 123?", min_size=1, max_size=20),
        st.text(alphabet="abc 123", max_size=20),
        st.text(alphabet="abc 123", max_size=20),
        st.text(alphabet="abc 123", max_size=20),
    )
    def test_parse_format_identity_property(self, question, prefix, suffix, middle):
        psm, start, end = format_psm(question, prefix, suffix, middle)
        prefix_seg, suffix_seg, middle_seg = parse_psm(psm)
        assert prefix_seg == f"{question}\n{prefix}"
        assert suffix_seg == suffix
        assert middle_seg == middle
        assert psm[start:end] == middle


class TestSampling:
    def _chain(self, n=4):
        return StepChain.from_texts([f"step number {i} of the chain" for i in range(n)])

    def test_rounds_sample_count(self):
        samples = sample_fim(self._chain(), "Q?", SamplerConfig(rounds=3, seed=1), "r0")
        assert len(samples) == 3
        assert [s.round for s in samples] == [0, 1, 2]

    def test_middle_slice_matches_loss_span(self):
        for sample in sample_fim(self._chain(), "Q?", SamplerConfig(rounds=3, seed=5), "r1"):
            assert sample.psm_text[sample.loss_char_start : sample.loss_char_end] == sample.middle

    def test_reassembly_restores_chain(self):
        chain = self._chain(5)
        for sample in sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=2), "r2"):
            assert reassemble(sample.prefix, sample.middle, sample.suffix) == join(chain)

    def test_prefix_suffix_split_around_middle(self):
        chain = self._chain(4)
        for sample in sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=3), "r3"):
            i = sample.middle_index
            assert sample.middle == chain.texts[i]
            assert sample.prefix == "\n".join(chain.texts[:i])
            assert sample.suffix == "\n".join(chain.texts[i + 1 :])

    def test_same_seed_reproduces_samples(self):
        chain = self._chain()
        a = sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=9), "rec")
        b = sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=9), "rec")
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        chain = self._chain()
        picks_a = [
            sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=1), f"rec{i}")[0].middle_index
            for i in range(50)
        ]
        picks_b = [
            sample_fim(chain, "Q?", SamplerConfig(rounds=3, seed=2), f"rec{i}")[0].middle_index
            for i in range(50)
        ]
        assert picks_a != picks_b

    def test_draws_do_not_depend_on_corpus_order(self):
        # per-record RNG streams: a record's draw is the same whether it is
        # processed alone or as part of any larger corpus
        chain = self._chain()
        config = SamplerConfig(rounds=3, seed=77)
        alone = sample_fim(chain, "Q?", config, "record-x")
        for other in ("a", "b", "c"):
            sample_fim(self._chain(3), "Q?", config, other)
        batched = sample_fim(chain, "Q?", config, "record-x")
        assert alone == batched

    def test_middle_choice_covers_all_positions(self):
        chain = self._chain(4)
        config = SamplerConfig(rounds=1, seed=123)
        counts = collections.Counter(
            sample_fim(chain, "Q?", config, f"rec{i}")[0].middle_index for i in range(2000)
        )
        assert set(counts) == {0, 1, 2, 3}
        for index in range(4):
            assert 380 <= counts[index] <= 620, counts

    def test_single_step_chain_middles_that_step(self):
        chain = StepChain.from_texts(["the only step present"])
        sample = sample_fim(chain, "Q?", SamplerConfig(rounds=1, seed=4), "solo")[0]
        assert sample.middle_index == 0
        assert sample.prefix == ""
        assert sample.suffix == ""

    def test_to_dict_key_set(self):
        sample = sample_fim(self._chain(), "Q?", SamplerConfig(rounds=1, seed=6), "r")[0]
        assert list(sample.to_dict()) == [
            "source_id",
            "round",
            "middle_index",
            "prefix",
            "suffix",
            "middle",
            "psm_text",
            "loss_char_start",
            "loss_char_end",
        ]

    def test_a_sample_stores_its_draw_and_shares_the_chain(self):
        chain = self._chain()
        (sample,) = sample_fim(chain, "Q?", SamplerConfig(rounds=1, seed=6), "r")
        fields = [field.name for field in dataclasses.fields(FimSample)]
        assert fields == ["source_id", "round", "middle_index", "question", "steps"]
        assert sample.steps is chain.texts

    def test_the_chain_is_serialized_and_checked_once_whatever_the_rounds(self):
        with mock.patch.object(fim, "check_chain", wraps=fim.check_chain) as spy, \
                mock.patch.object(fim, "format_psm", wraps=fim.format_psm) as psm:
            samples = sample_fim(self._chain(), "Q?", SamplerConfig(rounds=8, seed=6), "r")
        assert len(samples) == 8
        spy.assert_called_once_with("Q?", self._chain().texts)
        assert psm.call_count == 0

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_must_be_positive(self, rounds):
        with pytest.raises(ValueError):
            SamplerConfig(rounds=rounds)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1)
        with pytest.raises(ValueError):
            SamplerConfig(seed=2**64)

    @given(st.lists(STEP_TEXT, min_size=1, max_size=6), st.integers(min_value=0, max_value=2**32))
    def test_sampling_round_trip_property(self, steps, seed):
        chain = StepChain.from_texts(steps)
        for sample in sample_fim(chain, "Q?", SamplerConfig(rounds=2, seed=seed), "rid"):
            assert reassemble(sample.prefix, sample.middle, sample.suffix) == join(chain)
            assert sample.psm_text[sample.loss_char_start : sample.loss_char_end] == sample.middle


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


# short text, now and then holding a special token, whole or built from two halves
TOKEN_TEXT = st.lists(
    st.text(max_size=6) | st.sampled_from(SPECIAL_TOKENS + ("<|fim_", "middle|>", "suffix|>")),
    max_size=4,
).map("".join)


class TestReferenceSampler:
    @settings(max_examples=400)
    @given(
        st.lists(TOKEN_TEXT.map(str.strip).filter(bool), min_size=1, max_size=6),
        TOKEN_TEXT,
        st.text(max_size=6),
        st.integers(0, 2**64 - 1),
        st.integers(1, 4),
    )
    def test_samples_and_errors_match_the_per_round_sampler(self, steps, question, source_id,
                                                            seed, rounds):
        chain = StepChain.from_texts(steps)
        config = SamplerConfig(rounds=rounds, seed=seed)
        got = _outcome(lambda: [s.to_dict() for s in sample_fim(chain, question, config, source_id)])
        assert got == _outcome(lambda: reference_sample_fim(chain, question, config, source_id))


# any text, control characters, quotes and backslashes included
CLEAN_TEXT = st.text().filter(lambda text: not contains_special_token(text))


class TestJsonLines:
    @settings(max_examples=300)
    @given(
        st.lists(CLEAN_TEXT.map(str.strip).filter(bool), min_size=1, max_size=8),
        CLEAN_TEXT,
        st.text(),
        st.integers(0, 2**64 - 1),
        st.integers(1, 4),
    )
    def test_lines_equal_json_dumps_of_each_sample(self, steps, question, source_id, seed,
                                                   rounds):
        chain = StepChain.from_texts(steps)
        samples = sample_fim(chain, question, SamplerConfig(rounds=rounds, seed=seed),
                             source_id=source_id)
        expected = "".join(dumps_line(sample.to_dict()) for sample in samples)
        assert samples_jsonl(samples) == expected

    def test_samples_of_two_chains_in_one_call(self):
        first = sample_fim(StepChain.from_texts(["x = 1.", 'Say "hi",\tthen \\ stop.']), "Q1?",
                           SamplerConfig(rounds=3, seed=1), "a")
        second = sample_fim(StepChain.from_texts(["\u00e9 \u2192 \u00fc", "b", "The end."]),
                            "Q2\n?", SamplerConfig(rounds=2, seed=2), "b")
        samples = [first[0], second[0], first[1], second[1], first[2]]
        expected = "".join(dumps_line(sample.to_dict()) for sample in samples)
        assert samples_jsonl(samples) == expected
        assert samples_jsonl([]) == ""
