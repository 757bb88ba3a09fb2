"""Build fill-in-the-middle training samples from step chains.

One source chain yields `rounds` samples; each sample holds out one
uniformly chosen step as the middle, with everything before it as the
prefix and everything after as the suffix. Serialization is PSM order:
the inference prompt, `_PSM_PROMPT` filled with the question, prefix and
suffix, then the middle.

The loss span (character offsets into the serialized string) covers
exactly the middle text. A `FimSample` stores only its draw (the middle
index, with the question and the chain's steps) and derives its texts
and loss span from it; `samples_jsonl` writes samples without building
their serialized strings.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from stepfim.decompose import STEP_SEPARATOR, StepChain
from stepfim.jsonl import escape

FIM_PREFIX = "<|fim_prefix|>"
FIM_SUFFIX = "<|fim_suffix|>"
FIM_MIDDLE = "<|fim_middle|>"
SPECIAL_TOKENS = (FIM_PREFIX, FIM_SUFFIX, FIM_MIDDLE)
# the PSM layout up to the middle, with slots for the question, prefix and suffix
_PSM_PROMPT = f"{FIM_PREFIX}%s\n%s{FIM_SUFFIX}%s{FIM_MIDDLE}"


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
    """One (prefix, suffix, middle) training triple, stored as its draw.

    Only the draw is stored: `steps` is the chain's own tuple, shared with
    it. The texts and the loss span are computed from the draw, so the
    span always covers the middle.
    """

    source_id: str
    round: int
    middle_index: int
    question: str
    steps: tuple[str, ...]

    @property
    def prefix(self) -> str:
        return STEP_SEPARATOR.join(self.steps[: self.middle_index])

    @property
    def middle(self) -> str:
        return self.steps[self.middle_index]

    @property
    def suffix(self) -> str:
        return STEP_SEPARATOR.join(self.steps[self.middle_index + 1 :])

    @property
    def psm_text(self) -> str:
        """The sample laid out as `format_psm` lays it out."""
        return _PSM_PROMPT % (self.question, self.prefix, self.suffix) + self.middle

    @property
    def loss_char_start(self) -> int:
        return len(self.psm_text) - len(self.middle)

    @property
    def loss_char_end(self) -> int:
        return len(self.psm_text)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _LINE_KEYS}


# the characters of a prompt that come from neither the question nor a step
_PROMPT_TOKEN_CHARS = len(_PSM_PROMPT % ("", "", ""))


# the keys of `to_dict`, in the order of a sample's JSON line
_LINE_KEYS = ("source_id", "round", "middle_index", "prefix", "suffix", "middle", "psm_text",
              "loss_char_start", "loss_char_end")
# `dumps_line(sample.to_dict())` with its strings left as %s slots for
# escaped text: the `_LINE_KEYS` in order, and `psm_text` the escaped
# `_PSM_PROMPT` then the middle
_SAMPLE_LINE = (
    '{"source_id": "%s", "round": %d, "middle_index": %d, "prefix": "%s", "suffix": "%s", '
    f'"middle": "%s", "psm_text": "{escape(_PSM_PROMPT)}%s", '
    '"loss_char_start": %d, "loss_char_end": %d}\n'
)


def samples_jsonl(samples: list[FimSample]) -> str:
    """The JSONL lines of `samples`, byte for byte `dumps_line(sample.to_dict())`.

    JSON escapes each character on its own, so the escaped text of a join
    is the join of the escaped parts. A chain's question and steps are
    escaped and measured once for its run of samples, whose fields are
    joined from them and whose loss offsets come from the lengths.
    """
    sep = escape(STEP_SEPARATOR)
    chain: tuple[str, tuple[str, ...]] | None = None
    lines = []
    for sample in samples:
        if chain != (sample.question, sample.steps):  # a tuple compares its items by identity first
            chain = sample.question, sample.steps
            question, steps = escape(sample.question), [escape(text) for text in sample.steps]
            lengths = [len(text) for text in sample.steps]
            chars = _PROMPT_TOKEN_CHARS + len(sample.question) + len(STEP_SEPARATOR.join(sample.steps))
        i = sample.middle_index
        prefix = sep.join(steps[:i])
        suffix = sep.join(steps[i + 1 :])
        # the prompt holding every step, less the middle and each separator beside it
        start = chars - lengths[i] - ((i > 0) + (i < len(lengths) - 1)) * len(STEP_SEPARATOR)
        lines.append(_SAMPLE_LINE % (
            escape(sample.source_id), sample.round, i, prefix, suffix, steps[i],
            question, prefix, suffix, steps[i], start, start + lengths[i],
        ))
    return "".join(lines)


def contains_special_token(text: str) -> bool:
    return any(token in text for token in SPECIAL_TOKENS)


def _check_clean(text: str, what: str) -> None:
    if contains_special_token(text):
        raise SpecialTokenCollision(f"{what} contains a FIM special token")


def check_chain(question: str, steps: tuple[str, ...]) -> None:
    """SpecialTokenCollision naming the question, or step N (from 0), if one holds a token.

    No token holds STEP_SEPARATOR, so one test of the fields joined by it finds
    any token a field holds; the fields are walked only to name the first.
    """
    if not contains_special_token(STEP_SEPARATOR.join((question, *steps))):
        return
    _check_clean(question, "question")
    for n, text in enumerate(steps):
        _check_clean(text, f"step {n}")


def format_prompt(question: str, prefix: str, suffix: str) -> str:
    """Serialized sample up to and including the middle token.

    This is the inference-time prompt: a completion model continues from
    the middle token. The question always ends with one newline; empty
    prefix/suffix groups contribute nothing further.
    """
    _check_clean(question, "question")
    _check_clean(prefix, "prefix")
    _check_clean(suffix, "suffix")
    return _PSM_PROMPT % (question, prefix, suffix)


def format_psm(question: str, prefix: str, suffix: str, middle: str) -> tuple[str, int, int]:
    """Serialize a full training sample; returns (text, loss_start, loss_end).

    The loss span is in character offsets so any downstream tokenizer can
    derive its own token mask from it.
    """
    _check_clean(middle, "middle")
    prompt = format_prompt(question, prefix, suffix)
    return prompt + middle, len(prompt), len(prompt) + len(middle)


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


def draw_key(seed: int, name: str, index: int) -> int:
    """Stable 64-bit RNG key for draw `index` of `name` (a record, a problem) under `seed`."""
    payload = f"{seed}\x1f{name}\x1f{index}".encode("utf-8")
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

    A chain that holds a special token is refused before any draw, naming
    the question or step N as `expand` does (`check_chain`), at any seed.
    """
    steps = chain.texts
    check_chain(question, steps)
    samples = []
    for r in range(config.rounds):
        i = random.Random(draw_key(config.seed, source_id, r)).randrange(len(steps))
        samples.append(FimSample(source_id, r, i, question, steps))
    return samples
