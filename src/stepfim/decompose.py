"""Split free-text math solutions into ordered chains of reasoning steps.

Splitting is rule-based: explicit step markers and sentence boundaries,
with math-mode spans protected so no step ever cuts through a formula.
The inverse operation `join` is lossless up to whitespace normalization:

    normalize_ws(join(decompose(s))) == normalize_ws(s)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from stepfim.jsonl import dumps_line

#: Joins the steps of a chain into one text, everywhere: `join`, the
#: prefix and suffix of FIM samples and prompts, and `stats` token counts.
STEP_SEPARATOR = "\n"

#: Words that start a new step when they open a sentence.
MARKER_WORDS = frozenset({"first", "next", "then", "finally", "therefore"})

#: Tokens whose trailing period never ends a sentence.
ABBREVIATIONS = frozenset(
    {
        "e.g.", "i.e.", "etc.", "cf.", "vs.",
        "Mr.", "Mrs.", "Ms.", "Dr.", "Prof.",
        "eq.", "Eq.", "fig.", "Fig.",
    }
)

# A sentence end that may break, one regex per mark so that each search is led
# by a literal: the mark before a space and an ASCII capital, a marker word (ASCII
# case folding only, so neither "ſ" nor the Kelvin sign stands in for a letter)
# or a non-ASCII character, which breaks only when it is upper case. A step
# marker is led by its space and stops before its :/., which can end a sentence.
_SENTENCE_END_RES = [
    re.compile(re.escape(mark) + r"(?= (?:[A-Z]|(?ai:%s)(?![A-Za-z])|[^\x00-\x7f]))"
               % "|".join(sorted(MARKER_WORDS))) for mark in ".!?"
]
_STEP_MARKER_RE = re.compile(r" Step \d+(?=[:.])")
# the last three characters of each abbreviation, a cheap test before _word_before
_ABBREVIATION_TAILS = frozenset(abbreviation[-3:] for abbreviation in ABBREVIATIONS)
_PUNCT_ONLY_RE = re.compile(r"[\W_]+$")
_ENV_TAG_RE = re.compile(r"\\(begin|end)\{")
# a "$" that no backslash precedes, led by the "$" so that the search is fast
_DOLLAR_CLOSE_RE = re.compile(r"\$(?<!\\\$)")
_CLOSERS = {"$$": "$$", "\\(": "\\)", "\\[": "\\]"}


class EmptySolution(ValueError):
    """Solution text is blank (or whitespace/punctuation only)."""


class UnbalancedMath(ValueError):
    """A math delimiter was opened but never closed."""


class NonTextSolution(ValueError):
    """The solution field is not a string."""


def normalize_ws(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends.

    Every whitespace character but the ASCII space is unprintable, so text that
    is printable once its newlines are spaces, with no double, leading or
    trailing space, is already normalized and is not split and joined again.
    """
    flat = text.replace("\n", " ")
    # cheapest first: a paragraph break fails the "  " search at its first occurrence
    if flat[:1] != " " and flat[-1:] != " " and "  " not in flat and flat.isprintable():
        return flat
    return " ".join(text.split())


@dataclass(frozen=True)
class StepChain:
    """Ordered, nonempty tuple of step texts."""

    texts: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.texts:
            raise ValueError("StepChain needs at least one step")
        for pos, text in enumerate(self.texts):
            if not isinstance(text, str):
                raise ValueError(f"step {pos} is a {type(text).__name__}, not a string")
            if not text or text != text.strip():
                raise ValueError(f"step {pos} is empty or untrimmed")

    @classmethod
    def from_texts(cls, texts: list[str] | tuple[str, ...]) -> "StepChain":
        if not isinstance(texts, (list, tuple)):
            raise ValueError(f"steps must be a list of strings, not a {type(texts).__name__}")
        return cls(tuple(texts))

    def __len__(self) -> int:
        return len(self.texts)


def record_id(row: dict[str, Any]) -> str | None:
    """A record's id as a string; None when missing or not a str or an int."""
    value = row.get("id")
    return str(value) if isinstance(value, (str, int)) and not isinstance(value, bool) else None


def record_field(row: dict[str, Any], name: str) -> Any:
    """`row[name]`; ValueError naming the field when it is missing."""
    try:
        return row[name]
    except KeyError:
        raise ValueError(f"{name} is missing") from None


def record_question(row: dict[str, Any]) -> str:
    """A record's question; ValueError for a missing or bad id or question."""
    if record_id(row) is None:
        value = record_field(row, "id")
        raise ValueError(f"id must be a string or an int, not a {type(value).__name__}")
    question = record_field(row, "question")
    if not isinstance(question, str):
        raise ValueError(f"question must be a string, not a {type(question).__name__}")
    return question


def chain_record(row: dict[str, Any]) -> tuple[str, StepChain]:
    """The question and step chain of a record; ValueError when malformed."""
    return record_question(row), StepChain.from_texts(record_field(row, "steps"))


def chain_line(rid: str | int, question: str, chain: StepChain) -> str:
    """The JSONL line of a step chain, as `chain_record` reads it."""
    return dumps_line({"id": rid, "question": question, "steps": list(chain.texts)})


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for the rule-based splitter."""

    min_step_chars: int = 10

    def __post_init__(self) -> None:
        if self.min_step_chars < 0:
            raise ValueError("min_step_chars must be >= 0")


def _env_end(text: str, start: int) -> int:
    """End of the \\begin block at `start`, nesting included; each tag skips to its "}"."""
    depth = 0
    pos = start
    while (tag := _ENV_TAG_RE.search(text, pos)) is not None:
        depth += 1 if tag.group(1) == "begin" else -1
        close = text.find("}", tag.start())
        pos = close + 1 if close >= 0 else len(text)
        if depth == 0:
            return pos
    raise UnbalancedMath(f"unclosed \\begin at offset {start}")


def _word_before(text: str, period_pos: int) -> str:
    """Token ending at (and including) the char at period_pos."""
    start = text.rfind(" ", 0, period_pos)
    token = text[start + 1 : period_pos + 1]
    return token.lstrip("([{")


def _mask_math(text: str) -> str:
    """`text` with each math span overwritten by "#"; UnbalancedMath when one is never closed.

    `str.find` walks from each "$" or backslash to the next. A span ($...$,
    $$...$$, \\(...\\), \\[...\\] or \\begin{ENV}...\\end{ENV}, nesting allowed)
    is skipped whole: its closer is found with `str.find`, with a search for a
    `$` that no backslash precedes, or by walking the \\begin/\\end tags.
    """
    pieces: list[str] = []
    prev = pos = 0
    dollar = -1  # the first "$" at or after pos, or len(text) when there is none
    while True:
        if dollar < pos:
            dollar = text.find("$", pos)
            if dollar < 0:
                dollar = len(text)
        start = text.find("\\", pos, dollar)
        if start < 0:
            if dollar == len(text):
                break
            start = dollar
        kind = text[start : start + 2]
        if kind in _CLOSERS:
            close = text.find(_CLOSERS[kind], start + 2)
            if close < 0:
                raise UnbalancedMath(f"unclosed {kind} at offset {start}")
            pos = close + 2
        elif kind[0] == "$":
            close = _DOLLAR_CLOSE_RE.search(text, start + 1)
            if close is None:
                raise UnbalancedMath(f"unclosed $ at offset {start}")
            pos = close.end()
        elif text.startswith("\\begin{", start):
            pos = _env_end(text, start)
        else:  # plain text; \$ and \\ escape, so they spend both their characters
            pos = start + (2 if kind in ("\\$", "\\\\") else 1)
            continue
        pieces += (text[prev:start], "#" * (pos - start))
        prev = pos
    return "".join(pieces) + text[prev:] if pieces else text


def _step_starts(text: str) -> list[int]:
    """Positions in `text` where a new step starts, in increasing order.

    Two passes. `_mask_math` overwrites each math span with "#", which no
    token can start on, look ahead to or take as a letter or digit, and
    raises UnbalancedMath for an opener that is never closed. On that copy,
    one literal-led regex per sentence mark finds the ends that may break
    and another the step markers. Python drops a sentence end whose next
    character is non-ASCII and not upper case or that closes an abbreviation,
    and a marker at a start a sentence end gave. Each start follows exactly
    one space (the text is whitespace-normalized), which the split drops.
    """
    masked = _mask_math(text)
    ascii_only = masked.isascii()
    starts = [marker.start() + 1 for marker in _STEP_MARKER_RE.finditer(masked)]
    for end_re in _SENTENCE_END_RES:
        for end in end_re.finditer(masked):
            p = end.start()
            if not ascii_only and masked[p + 2] >= "\x80" and not masked[p + 2].isupper():
                continue
            # decimals like 3.5 carry no space after the period, so they never
            # match; abbreviations do and are skipped explicitly
            if masked[p - 2 : p + 1] in _ABBREVIATION_TAILS and _word_before(masked, p) in ABBREVIATIONS:
                continue
            starts.append(p + 2)
    return sorted(set(starts))


def _merge_fragments(segments: list[str], min_chars: int) -> list[str]:
    """Fold too-short or punctuation-only segments into their neighbor.

    A small segment joins the step before it, and a small first step takes
    in the segments after it until it is no longer small. Merging
    concatenates with a single space, which restores exactly the
    separator dropped at the split, so round-tripping stays byte-exact.
    Only the first step can be small once it is kept, and a step that is
    not small stays so as it grows, so `small` runs once per segment, and
    again only while a small first step grows.
    """

    def small(seg: str) -> bool:
        # a segment that opens with a letter or digit is not punctuation only
        return len(seg) < min_chars or not seg[0].isalnum() and _PUNCT_ONLY_RE.fullmatch(seg) is not None

    merged: list[str] = []
    first_small = False  # the first step is kept and still small
    for seg in segments:
        if first_small:
            merged[-1] += " " + seg
            first_small = small(merged[-1])
        elif not small(seg):
            merged.append(seg)
        elif merged:
            merged[-1] += " " + seg
        else:
            merged.append(seg)
            first_small = True
    return merged


def decompose(solution: str, config: DecomposeConfig | None = None) -> StepChain:
    """Split a solution into reasoning steps.

    A new step starts at each explicit marker ("Step N:"/"Step N." and a
    sentence-initial First/Next/Then/Finally/Therefore) and otherwise at
    sentence boundaries (./!/? followed by a space and an uppercase letter
    or marker word). Periods inside math spans, decimal numbers, and known
    abbreviations never split. Fragments shorter than
    ``config.min_step_chars`` merge into the preceding step.

    Raises NonTextSolution when the solution is not a string,
    EmptySolution for blank input and UnbalancedMath when a math
    delimiter is left open.
    """
    if config is None:
        config = DecomposeConfig()
    if not isinstance(solution, str):
        raise NonTextSolution(f"solution is a {type(solution).__name__}, not a string")
    text = normalize_ws(solution)
    if not text:
        raise EmptySolution("solution is empty")
    if _PUNCT_ONLY_RE.fullmatch(text):
        raise EmptySolution("solution contains no step content")

    starts = _step_starts(text)
    # each start follows one space and no two are adjacent, so no slice is empty
    segments = [text[a : b - 1] for a, b in zip([0, *starts], [*starts, len(text) + 1])]
    segments = _merge_fragments(segments, config.min_step_chars)
    return StepChain.from_texts(segments)


def join(chain: StepChain) -> str:
    """Concatenate step texts with STEP_SEPARATOR."""
    return STEP_SEPARATOR.join(chain.texts)
