"""Sequence similarity and the validity gate for generated steps.

Similarity is the Ratcliff/Obershelp ratio 2*M/(|a|+|b|) over characters
of whitespace-normalized inputs, where M is the total size of recursively
matched longest common blocks: the longest block first, ties broken at
the smallest start in a, then the smallest start in b, then the same
rule on the parts left and right of it. Two empty strings score 1.0.

That is the rule of `difflib.SequenceMatcher(None, a, b,
autojunk=False)`, and the score equals its `ratio()` exactly, as a float.
The matcher here does not import difflib: it finds each block with
`str.find`, which runs in C, where difflib walks every pair of matching
characters in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

from stepfim.decompose import normalize_ws

# score at or above which a candidate counts as a near-duplicate
DEFAULT_ETA = 0.8


@dataclass(frozen=True)
class GateOutcome:
    valid: bool
    score: float


def _matched_chars(a: str, b: str) -> int:
    """M: the total size of the recursively matched longest common blocks."""
    find = b.find
    total = 0
    windows = [(0, len(a), 0, len(b))]
    while windows:
        alo, ahi, blo, bhi = windows.pop()
        best_i = best_j = size = 0
        # a start i wins only with a block longer than the best so far, so
        # ties keep the smallest i; a longer prefix of a[i:] occurs only where
        # a shorter one does, so searching on from j keeps j the smallest
        i = alo
        while i + size < ahi and size < bhi - blo:
            k = size + 1
            j = find(a[i : i + k], blo, bhi)
            if j >= 0:
                while i + k < ahi:
                    longer = find(a[i : i + k + 1], j, bhi)
                    if longer < 0:
                        break
                    j, k = longer, k + 1
                best_i, best_j, size = i, j, k
            i += 1
        if size:
            total += size
            if alo < best_i and blo < best_j:
                windows.append((alo, best_i, blo, best_j))
            if best_i + size < ahi and best_j + size < bhi:
                windows.append((best_i + size, ahi, best_j + size, bhi))
    return total


def similarity(a: str, b: str) -> float:
    """Ratcliff/Obershelp ratio in [0, 1] over normalized characters."""
    a_norm = normalize_ws(a)
    b_norm = normalize_ws(b)
    if a_norm == b_norm:  # an echoed step; also covers two empty strings
        return 1.0
    return 2.0 * _matched_chars(a_norm, b_norm) / (len(a_norm) + len(b_norm))


def gate(candidate: str, next_step: str, eta: float = DEFAULT_ETA) -> GateOutcome:
    """Decide whether a generated candidate is worth inserting.

    Invalid when the candidate is empty after trimming or scores >= eta
    against the step that would follow it; equality rejects, so near
    duplicates are never inserted.
    """
    score = similarity(candidate, next_step)
    if not candidate.strip():
        return GateOutcome(valid=False, score=score)
    return GateOutcome(valid=score < eta, score=score)
