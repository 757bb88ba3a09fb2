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

_STEP_MARKER_RE = re.compile(r"Step \d+[:.]")
_SENTENCE_END_RE = re.compile(r"[.!?]")
_WORD_AFTER_RE = re.compile(r"[A-Za-z]+")
_PUNCT_ONLY_RE = re.compile(r"[\W_]+$")


class EmptySolution(ValueError):
    """Solution text is blank (or whitespace/punctuation only)."""


class UnbalancedMath(ValueError):
    """A math delimiter was opened but never closed."""


class NonTextSolution(ValueError):
    """The solution field is not a string."""


def normalize_ws(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
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


def chain_record(row: dict[str, Any]) -> tuple[str, StepChain]:
    """The question and step chain of a `{question, steps}` record.

    Raises KeyError for a missing field and ValueError for a question
    that is not a string or steps that do not make a StepChain.
    """
    question = row["question"]
    if not isinstance(question, str):
        raise ValueError(f"question must be a string, not a {type(question).__name__}")
    return question, StepChain.from_texts(row["steps"])


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for the rule-based splitter."""

    min_step_chars: int = 10


def _scan_math_spans(text: str) -> list[tuple[int, int]]:
    """Return [start, end) spans of protected math-mode content.

    Protected delimiters: $...$, $$...$$, \\(...\\), \\[...\\] and
    \\begin{ENV}...\\end{ENV} (nesting allowed). Raises UnbalancedMath
    when an opener is never closed.
    """
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "$":  # escaped dollar, not a delimiter
                i += 2
                continue
            if nxt == "(":
                end = text.find("\\)", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed \\( at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            if nxt == "[":
                end = text.find("\\]", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed \\[ at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            if text.startswith("\\begin{", i):
                j = i
                depth = 0
                while j < n:
                    if text.startswith("\\begin{", j):
                        depth += 1
                        j = text.index("}", j) + 1 if "}" in text[j:] else n
                    elif text.startswith("\\end{", j):
                        depth -= 1
                        close = text.find("}", j)
                        j = close + 1 if close >= 0 else n
                        if depth == 0:
                            break
                    else:
                        j += 1
                if depth != 0:
                    raise UnbalancedMath(f"unclosed \\begin at offset {i}")
                spans.append((i, j))
                i = j
                continue
            i += 2
            continue
        if ch == "$":
            if text.startswith("$$", i):
                end = text.find("$$", i + 2)
                if end < 0:
                    raise UnbalancedMath(f"unclosed $$ at offset {i}")
                spans.append((i, end + 2))
                i = end + 2
                continue
            end = i + 1
            while end < n:
                if text[end] == "$" and text[end - 1] != "\\":
                    break
                end += 1
            if end >= n:
                raise UnbalancedMath(f"unclosed $ at offset {i}")
            spans.append((i, end + 1))
            i = end + 1
            continue
        i += 1
    return spans


def _in_any_span(pos: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= pos < end for start, end in spans)


def _word_before(text: str, period_pos: int) -> str:
    """Token ending at (and including) the char at period_pos."""
    start = text.rfind(" ", 0, period_pos)
    token = text[start + 1 : period_pos + 1]
    return token.lstrip("([{")


def _find_breaks(text: str, spans: list[tuple[int, int]]) -> list[int]:
    """Positions in `text` where a new step starts.

    Each break position is preceded by exactly one space (the text is
    whitespace-normalized), so slicing at breaks and rstripping loses
    only that separator space.
    """
    breaks: set[int] = set()

    for match in _SENTENCE_END_RE.finditer(text):
        p = match.start()
        if _in_any_span(p, spans):
            continue
        if p + 2 >= len(text) or text[p + 1] != " ":
            continue
        # decimals like 3.5 carry no space after the period, so they never
        # reach this point; abbreviations do and are skipped explicitly
        if text[p] == "." and _word_before(text, p) in ABBREVIATIONS:
            continue
        nxt = text[p + 2]
        word = _WORD_AFTER_RE.match(text, p + 2)
        is_marker = word is not None and word.group(0).lower() in MARKER_WORDS
        if nxt.isupper() or is_marker:
            breaks.add(p + 2)

    for match in _STEP_MARKER_RE.finditer(text):
        q = match.start()
        if q == 0 or _in_any_span(q, spans):
            continue
        if text[q - 1] == " ":
            breaks.add(q)

    return sorted(breaks)


def _merge_fragments(segments: list[str], min_chars: int) -> list[str]:
    """Fold too-short or punctuation-only segments into their neighbor.

    Merging concatenates with a single space, which restores exactly the
    separator dropped at the split, so round-tripping stays byte-exact.
    """
    merged: list[str] = []
    carry = ""  # leading fragment waiting for a segment to attach to
    for seg in segments:
        if carry:
            seg = carry + " " + seg
            carry = ""
        too_small = len(seg) < min_chars or _PUNCT_ONLY_RE.fullmatch(seg) is not None
        if too_small:
            if merged:
                merged[-1] = merged[-1] + " " + seg
            else:
                carry = seg
        else:
            merged.append(seg)
    if carry:
        if merged:
            merged[-1] = merged[-1] + " " + carry
        else:
            merged.append(carry)
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

    spans = _scan_math_spans(text)
    breaks = _find_breaks(text, spans)

    segments: list[str] = []
    prev = 0
    for b in breaks + [len(text)]:
        seg = text[prev:b].rstrip()
        if seg:
            segments.append(seg)
        prev = b

    segments = _merge_fragments(segments, config.min_step_chars)
    return StepChain.from_texts(segments)


def join(chain: StepChain) -> str:
    """Concatenate step texts with STEP_SEPARATOR."""
    return STEP_SEPARATOR.join(chain.texts)
