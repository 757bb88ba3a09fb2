"""Corpus statistics before and after step expansion.

Counts are streamed in one pass: sample count, token totals and
averages over the joined solution steps, and average step count.
Tokens are whitespace-separated words, and each summary names that
scheme as its tokenizer_id. Absolute token numbers are only comparable
under the same tokenizer_id, so diffs across schemes are refused.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable

from stepfim.decompose import STEP_SEPARATOR, StepChain, record_field

#: How `stats` counts tokens: words between whitespace.
TOKENIZER_ID = "whitespace"


class EmptyCorpus(ValueError):
    """Statistics over zero records are undefined."""


class TokenizerMismatch(ValueError):
    """Comparing token counts from different counting schemes."""


class MalformedRecord(ValueError):
    """A record's steps are missing or not a step chain."""


@dataclass(frozen=True)
class CorpusStats:
    samples: int
    avg_tokens: float
    total_tokens: int
    avg_steps: float
    tokenizer_id: str

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "CorpusStats":
        """Read a summary back; TypeError for a mistyped field, ValueError for a
        missing one or an average that no float holds."""
        values = {}
        for field in fields(cls):
            name, allowed = field.name, _JSON_TYPES[field.type]
            value = record_field(row, name)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, "
                                f"not {type(value).__name__}")
            if float in allowed:
                try:
                    value = float(value)
                except OverflowError as exc:  # an int past float range
                    raise ValueError(f"{name} is past float range") from exc
            values[name] = value
        return cls(**values)


_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}  # by a summary field's annotation
_COMPARED = ("samples", "avg_tokens", "total_tokens", "avg_steps")  # what `compare` compares, in file order


def render_pct(pct: float) -> str:
    """Signed two-decimal percentage, e.g. +86.35% or -4.00%."""
    return f"{pct:+.2f}%"


@dataclass(frozen=True)
class StatsDelta:
    """Per-field percentage change (after-before)/before*100."""

    samples_pct: float
    avg_tokens_pct: float
    total_tokens_pct: float
    avg_steps_pct: float
    tokenizer_id: str

    def formatted(self) -> dict[str, str]:
        return {name: render_pct(getattr(self, f"{name}_pct")) for name in _COMPARED}

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "formatted": self.formatted()}


def stats(records: Iterable[dict[str, Any]]) -> CorpusStats:
    """One-pass statistics over `{id, question, steps}` records.

    Tokens are counted on the joined solution steps only; the question
    is context, not training payload. Raises EmptyCorpus on zero records
    and MalformedRecord when a record's steps are missing or break the
    `StepChain` rule, as `build-fim` and `expand` do.
    """
    samples = 0
    total_tokens = 0
    total_steps = 0
    for row in records:
        try:
            steps = StepChain.from_texts(record_field(row, "steps")).texts
        except ValueError as exc:
            raise MalformedRecord(f"record {samples + 1}: {exc}") from None
        samples += 1
        total_steps += len(steps)
        total_tokens += len(STEP_SEPARATOR.join(steps).split())
    if samples == 0:
        raise EmptyCorpus("no records to summarize")
    return CorpusStats(
        samples=samples,
        avg_tokens=total_tokens / samples,
        total_tokens=total_tokens,
        avg_steps=total_steps / samples,
        tokenizer_id=TOKENIZER_ID,
    )


def _pct(name: str, before: float, after: float) -> float:
    if before == 0:
        if after == 0:
            return 0.0
        raise ValueError("cannot express a change from a zero baseline as a percentage")
    try:
        pct = (after - before) / before * 100.0
    except OverflowError:  # an int quotient past float range
        pct = math.inf
    if not math.isfinite(pct):
        raise ValueError(f"the change in {name} is past float range as a percentage")
    return pct


def diff_stats(before: CorpusStats, after: CorpusStats) -> StatsDelta:
    """Percentage change per field; both sides must share a tokenizer."""
    if before.tokenizer_id != after.tokenizer_id:
        raise TokenizerMismatch(
            f"before counted with {before.tokenizer_id!r}, after with {after.tokenizer_id!r}"
        )
    pcts = {f"{name}_pct": _pct(name, getattr(before, name), getattr(after, name)) for name in _COMPARED}
    return StatsDelta(**pcts, tokenizer_id=before.tokenizer_id)
