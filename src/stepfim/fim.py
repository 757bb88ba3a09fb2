"""Build fill-in-the-middle training samples from step chains.

One source chain yields `rounds` samples; each sample holds out one
uniformly chosen step as the middle, with everything before it as the
prefix and everything after as the suffix. Serialization is PSM order:

    <|fim_prefix|>{question}\\n{prefix}<|fim_suffix|>{suffix}<|fim_middle|>{middle}

The loss span (character offsets into the serialized string) covers
exactly the middle text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from json.encoder import encode_basestring

from stepfim.decompose import STEP_SEPARATOR, StepChain

FIM_PREFIX = "<|fim_prefix|>"
FIM_SUFFIX = "<|fim_suffix|>"
FIM_MIDDLE = "<|fim_middle|>"
SPECIAL_TOKENS = (FIM_PREFIX, FIM_SUFFIX, FIM_MIDDLE)


class SpecialTokenCollision(ValueError):
    """Input text contains a special-token literal of its own."""


class MalformedPsm(ValueError):
    """Serialized text is missing, duplicating, or reordering a token."""


@dataclass(frozen=True)
class SamplerConfig:
    rounds: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class FimSample:
    """One (prefix, suffix, middle) training triple plus its serialization."""

    source_id: str
    round: int
    middle_index: int
    prefix: str
    middle: str
    suffix: str
    psm_text: str
    loss_char_start: int
    loss_char_end: int

    def to_dict(self) -> dict:
        return {
            "source_id": self.source_id,
            "round": self.round,
            "middle_index": self.middle_index,
            "prefix": self.prefix,
            "suffix": self.suffix,
            "middle": self.middle,
            "psm_text": self.psm_text,
            "loss_char_start": self.loss_char_start,
            "loss_char_end": self.loss_char_end,
        }


# `dumps_line(sample.to_dict())` with its strings left as %s slots for
# escaped text: the keys of `to_dict` in order, and `psm_text` laid out as
# `format_psm` does it, its newline already escaped
_SAMPLE_LINE = (
    '{"source_id": "%s", "round": %d, "middle_index": %d, "prefix": "%s", "suffix": "%s", '
    f'"middle": "%s", "psm_text": "{FIM_PREFIX}%s\\n%s{FIM_SUFFIX}%s{FIM_MIDDLE}%s", '
    '"loss_char_start": %d, "loss_char_end": %d}\n'
)


def samples_jsonl(samples: list[FimSample], question: str, chain: StepChain) -> str:
    """The JSONL lines of `chain`'s samples, byte for byte `dumps_line(sample.to_dict())`.

    JSON escapes each character on its own, so the escaped text of a join
    is the join of the escaped parts. The question and each step are
    escaped once per chain, and every field of every round is joined from
    them, instead of escaping the chain again in each sample's prefix,
    suffix and psm_text. Of the samples' texts only `source_id` is read;
    the rest of each line comes from `round`, `middle_index` and the loss
    offsets.
    """
    def escape(text: str) -> str:
        return encode_basestring(text)[1:-1]

    sep = escape(STEP_SEPARATOR)
    steps = [escape(text) for text in chain.texts]
    question = escape(question)
    lines = []
    for sample in samples:
        i = sample.middle_index
        prefix = sep.join(steps[:i])
        suffix = sep.join(steps[i + 1 :])
        lines.append(_SAMPLE_LINE % (
            escape(sample.source_id), sample.round, i, prefix, suffix, steps[i],
            question, prefix, suffix, steps[i], sample.loss_char_start, sample.loss_char_end,
        ))
    return "".join(lines)


def contains_special_token(text: str) -> bool:
    return any(token in text for token in SPECIAL_TOKENS)


def _check_clean(text: str, what: str) -> None:
    if contains_special_token(text):
        raise SpecialTokenCollision(f"{what} contains a FIM special token")


def format_prompt(question: str, prefix: str, suffix: str) -> str:
    """Serialized sample up to and including the middle token.

    This is the inference-time prompt: a completion model continues from
    the middle token. The question always ends with one newline; empty
    prefix/suffix groups contribute nothing further.
    """
    _check_clean(question, "question")
    _check_clean(prefix, "prefix")
    _check_clean(suffix, "suffix")
    return f"{FIM_PREFIX}{question}\n{prefix}{FIM_SUFFIX}{suffix}{FIM_MIDDLE}"


def format_psm(question: str, prefix: str, suffix: str, middle: str) -> tuple[str, int, int]:
    """Serialize a full training sample; returns (text, loss_start, loss_end).

    The loss span is in character offsets so any downstream tokenizer can
    derive its own token mask from it.
    """
    _check_clean(middle, "middle")
    prompt = format_prompt(question, prefix, suffix)
    psm_text = prompt + middle
    return psm_text, len(prompt), len(psm_text)


def parse_psm(psm_text: str) -> tuple[str, str, str]:
    """Split serialized text back into (prefix, suffix, middle) segments.

    The returned prefix segment includes the question line. Raises
    MalformedPsm when any token is missing, duplicated, or out of order.
    """
    for token in SPECIAL_TOKENS:
        if psm_text.count(token) != 1:
            raise MalformedPsm(f"expected exactly one {token}")
    p = psm_text.index(FIM_PREFIX)
    s = psm_text.index(FIM_SUFFIX)
    m = psm_text.index(FIM_MIDDLE)
    if not (p < s < m) or p != 0:
        raise MalformedPsm("tokens out of PSM order")
    prefix = psm_text[p + len(FIM_PREFIX) : s]
    suffix = psm_text[s + len(FIM_SUFFIX) : m]
    middle = psm_text[m + len(FIM_MIDDLE) :]
    return prefix, suffix, middle


def reassemble(prefix: str, middle: str, suffix: str) -> str:
    """Rejoin a sample's segments into the original chain text."""
    return STEP_SEPARATOR.join(part for part in (prefix, middle, suffix) if part)


def _round_key(seed: int, source_id: str, round_index: int) -> int:
    """Stable 64-bit RNG key for one (seed, record, round) draw."""
    payload = f"{seed}\x1f{source_id}\x1f{round_index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def sample_fim(
    chain: StepChain,
    question: str,
    config: SamplerConfig,
    source_id: str = "",
) -> list[FimSample]:
    """Draw `config.rounds` samples from one chain.

    The middle index is uniform over all steps, independently per round
    (duplicates kept). Each draw comes from its own RNG stream keyed by
    (seed, source_id, round), so output is identical no matter how the
    corpus is ordered or sharded.
    """
    texts = chain.texts
    n = len(texts)
    samples = []
    for r in range(config.rounds):
        rng = random.Random(_round_key(config.seed, source_id, r))
        i = rng.randrange(n)
        prefix = STEP_SEPARATOR.join(texts[:i])
        middle = texts[i]
        suffix = STEP_SEPARATOR.join(texts[i + 1 :])
        psm_text, start, end = format_psm(question, prefix, suffix, middle)
        samples.append(
            FimSample(
                source_id=source_id,
                round=r,
                middle_index=i,
                prefix=prefix,
                middle=middle,
                suffix=suffix,
                psm_text=psm_text,
                loss_char_start=start,
                loss_char_end=end,
            )
        )
    return samples
