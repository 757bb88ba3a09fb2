"""Corpus statistics before and after step expansion.

Counts are streamed in one pass: sample count, token totals and
averages over the joined solution steps, and average step count.
Token counting is pluggable; the default splits on whitespace. Absolute
token numbers are only comparable under the same tokenizer_id, so diffs
across schemes are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from stepfim.decompose import STEP_SEPARATOR

Tokenizer = Callable[[str], int]


class EmptyCorpus(ValueError):
    """Statistics over zero records are undefined."""


class TokenizerMismatch(ValueError):
    """Comparing token counts from different counting schemes."""


class MalformedRecord(ValueError):
    """A record's steps are missing or not a list of strings."""


def _whitespace_count(text: str) -> int:
    return len(text.split())


TOKENIZERS: dict[str, Tokenizer] = {"whitespace": _whitespace_count}


def register_tokenizer(tokenizer_id: str, counter: Tokenizer) -> None:
    """Add a named token counter usable via `stats(..., tokenizer_id=...)`."""
    TOKENIZERS[tokenizer_id] = counter


@dataclass(frozen=True)
class CorpusStats:
    samples: int
    avg_tokens: float
    total_tokens: int
    avg_steps: float
    tokenizer_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "samples": self.samples,
            "avg_tokens": self.avg_tokens,
            "total_tokens": self.total_tokens,
            "avg_steps": self.avg_steps,
            "tokenizer_id": self.tokenizer_id,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "CorpusStats":
        """Read a summary back; KeyError for a missing field, TypeError for a mistyped one."""
        types = {"samples": (int,), "avg_tokens": (int, float), "total_tokens": (int,),
                 "avg_steps": (int, float), "tokenizer_id": (str,)}
        for name, allowed in types.items():
            value = row[name]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, "
                                f"not {type(value).__name__}")
        return cls(
            samples=row["samples"],
            avg_tokens=float(row["avg_tokens"]),
            total_tokens=row["total_tokens"],
            avg_steps=float(row["avg_steps"]),
            tokenizer_id=row["tokenizer_id"],
        )


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
        return {
            "samples": render_pct(self.samples_pct),
            "avg_tokens": render_pct(self.avg_tokens_pct),
            "total_tokens": render_pct(self.total_tokens_pct),
            "avg_steps": render_pct(self.avg_steps_pct),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "samples_pct": self.samples_pct,
            "avg_tokens_pct": self.avg_tokens_pct,
            "total_tokens_pct": self.total_tokens_pct,
            "avg_steps_pct": self.avg_steps_pct,
            "tokenizer_id": self.tokenizer_id,
            "formatted": self.formatted(),
        }


def stats(records: Iterable[dict[str, Any]], tokenizer_id: str = "whitespace") -> CorpusStats:
    """One-pass statistics over `{id, question, steps}` records.

    Tokens are counted on the joined solution steps only; the question
    is context, not training payload. Raises EmptyCorpus on zero records,
    MalformedRecord when a record's steps are not a list of strings, and
    ValueError for an unregistered tokenizer_id.
    """
    if tokenizer_id not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer {tokenizer_id!r}; registered: {sorted(TOKENIZERS)}")
    count_tokens = TOKENIZERS[tokenizer_id]

    samples = 0
    total_tokens = 0
    total_steps = 0
    for row in records:
        steps = row.get("steps")
        if not isinstance(steps, (list, tuple)):
            raise MalformedRecord(f"record {samples + 1}: steps is a {type(steps).__name__}, not a list")
        try:
            text = STEP_SEPARATOR.join(steps)
        except TypeError as exc:
            raise MalformedRecord(f"record {samples + 1}: steps must all be strings: {exc}") from exc
        samples += 1
        total_steps += len(steps)
        total_tokens += count_tokens(text)
    if samples == 0:
        raise EmptyCorpus("no records to summarize")
    return CorpusStats(
        samples=samples,
        avg_tokens=total_tokens / samples,
        total_tokens=total_tokens,
        avg_steps=total_steps / samples,
        tokenizer_id=tokenizer_id,
    )


def _pct(before: float, after: float) -> float:
    if before == 0:
        if after == 0:
            return 0.0
        raise ValueError("cannot express a change from a zero baseline as a percentage")
    return (after - before) / before * 100.0


def diff_stats(before: CorpusStats, after: CorpusStats) -> StatsDelta:
    """Percentage change per field; both sides must share a tokenizer."""
    if before.tokenizer_id != after.tokenizer_id:
        raise TokenizerMismatch(
            f"before counted with {before.tokenizer_id!r}, after with {after.tokenizer_id!r}"
        )
    return StatsDelta(
        samples_pct=_pct(before.samples, after.samples),
        avg_tokens_pct=_pct(before.avg_tokens, after.avg_tokens),
        total_tokens_pct=_pct(before.total_tokens, after.total_tokens),
        avg_steps_pct=_pct(before.avg_steps, after.avg_steps),
        tokenizer_id=before.tokenizer_id,
    )
