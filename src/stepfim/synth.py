"""Verifiable synthetic arithmetic corpora with known step chains.

Each problem is a left-nested integer expression such as ((2 + 3) * 4) - 5.
Its fine chain has one "Compute a op b = c." step per operation plus a
final "The answer is v." step; the coarse chain omits a known subset of
the computation steps. Because the dropped steps can be re-derived from
the question alone, `oracle_fill` acts as a perfect deterministic
stand-in for a trained fill-in-the-middle model.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

from stepfim.decompose import StepChain
from stepfim.similarity import similarity

ALLOWED_OPERATORS = ("+", "-", "*")
DROP_PATTERNS = ("every-other", "random-k")

QUESTION_TEMPLATE = "What is the value of {expr}?"
STEP_TEMPLATE = "Compute {a} {op} {b} = {c}."
ANSWER_TEMPLATE = "The answer is {v}."

_QUESTION_RE = re.compile(r"^What is the value of (.+)\?$")
_TOKEN_RE = re.compile(r"-?\d+|[()+*-]")

# Consecutive fine steps must stay clearly below the expansion gate's
# default threshold, otherwise a reconstructed step would be rejected as
# a near-duplicate of its successor and the closure property would break.
_DISTINCTNESS = 0.75
_MAX_RESAMPLES = 64
# A chain can wedge itself: the next operand is the previous result, so
# when that value makes every candidate step collide with its
# predecessor, only restarting the problem escapes.
_MAX_PROBLEM_RETRIES = 100


class SpecError(ValueError):
    """CorpusSpec is unsatisfiable or out of bounds."""


class UnparsableQuestion(ValueError):
    """Question text is not a generated synthetic problem."""


@dataclass(frozen=True)
class CorpusSpec:
    count: int
    seed: int
    ops_min: int = 2
    ops_max: int = 4
    operand_min: int = 2
    operand_max: int = 99
    operators: tuple[str, ...] = ALLOWED_OPERATORS
    drop: str = "every-other"  # one of DROP_PATTERNS
    drop_k: int = 1

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SpecError("count must be >= 0")
        if self.ops_min < 2:
            raise SpecError("ops_min must be >= 2")
        if self.ops_max < self.ops_min:
            raise SpecError("ops_max must be >= ops_min")
        if self.operand_max < self.operand_min:
            raise SpecError("operand_max must be >= operand_min")
        if not self.operators:
            raise SpecError("operator set is empty")
        if any(op not in ALLOWED_OPERATORS for op in self.operators):
            raise SpecError(f"operators must be among {ALLOWED_OPERATORS}")
        if self.drop not in DROP_PATTERNS:
            raise SpecError(f"unknown drop pattern {self.drop!r}")
        if self.drop == "random-k" and self.drop_k < 1:
            raise SpecError("drop_k must be >= 1")


@dataclass(frozen=True)
class SyntheticProblem:
    id: str
    question: str
    fine_chain: StepChain
    coarse_chain: StepChain
    dropped_indices: tuple[int, ...]


def _apply(a: int, op: str, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise SpecError(f"unknown operator {op!r}")


def _problem_rng(seed: int, index: int, retry: int = 0) -> random.Random:
    payload = f"{seed}\x1f{index}\x1f{retry}".encode("utf-8")
    key = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return random.Random(key)


def _drop_indices(rng: random.Random, spec: CorpusSpec, n_ops: int) -> tuple[int, ...]:
    """Fine-chain computation indices to omit from the coarse chain.

    Index 0 and the final answer step are never dropped, and no two
    dropped indices are adjacent, so every coarse gap misses at most one
    step and the default (no leading gap) expansion can close it.
    """
    if spec.drop == "every-other":
        return tuple(range(1, n_ops, 2))
    candidates = list(range(1, n_ops))
    if spec.drop_k > (len(candidates) + 1) // 2:
        raise SpecError(f"cannot drop {spec.drop_k} non-adjacent of {n_ops} steps")
    for _ in range(200):
        picked = sorted(rng.sample(candidates, spec.drop_k))
        if all(b - a > 1 for a, b in zip(picked, picked[1:])):
            return tuple(picked)
    raise SpecError("drop pattern rejection sampling failed")


def _build_steps(rng: random.Random, spec: CorpusSpec) -> tuple[str, list[str]] | None:
    """Render one expression; returns (expression text, fine step texts).

    Returns None when no distinct-enough step can be drawn from the
    current chain state; the caller restarts the problem from a fresh
    stream.
    """
    n_ops = rng.randint(spec.ops_min, spec.ops_max)
    value = rng.randint(spec.operand_min, spec.operand_max)
    expr = str(value)
    steps: list[str] = []
    for k in range(n_ops):
        for _ in range(_MAX_RESAMPLES):
            op = rng.choice(spec.operators)
            b = rng.randint(spec.operand_min, spec.operand_max)
            c = _apply(value, op, b)
            text = STEP_TEMPLATE.format(a=value, op=op, b=b, c=c)
            ok = not steps or similarity(steps[-1], text) < _DISTINCTNESS
            if ok and k == n_ops - 1:
                ok = similarity(text, ANSWER_TEMPLATE.format(v=c)) < _DISTINCTNESS
            if ok:
                break
        else:
            return None
        expr = f"({expr}) {op} {b}" if k > 0 else f"{expr} {op} {b}"
        value = c
        steps.append(text)
    steps.append(ANSWER_TEMPLATE.format(v=value))
    return expr, steps


def generate(spec: CorpusSpec) -> list[SyntheticProblem]:
    """Deterministically generate `spec.count` problems."""
    problems = []
    for idx in range(spec.count):
        for retry in range(_MAX_PROBLEM_RETRIES):
            rng = _problem_rng(spec.seed, idx, retry)
            built = _build_steps(rng, spec)
            if built is not None:
                break
        else:
            raise SpecError("could not draw distinct consecutive steps; widen operand range")
        expr, fine = built
        dropped = _drop_indices(rng, spec, n_ops=len(fine) - 1)
        coarse = [s for i, s in enumerate(fine) if i not in dropped]
        problems.append(
            SyntheticProblem(
                id=f"synth-{idx:06d}",
                question=QUESTION_TEMPLATE.format(expr=expr),
                fine_chain=StepChain.from_texts(fine),
                coarse_chain=StepChain.from_texts(coarse),
                dropped_indices=dropped,
            )
        )
    return problems


class _Parser:
    """Recursive-descent parser for fully parenthesized integer expressions."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        tok = self._peek()
        if tok is None:
            raise UnparsableQuestion("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self):
        left = self.parse_primary()
        if self._peek() in ALLOWED_OPERATORS:
            op = self._take()
            right = self.parse_primary()
            return (left, op, right)
        return left

    def parse_primary(self):
        tok = self._take()
        if tok == "(":
            node = self.parse_expr()
            if self._take() != ")":
                raise UnparsableQuestion("expected closing paren")
            return node
        if re.fullmatch(r"-?\d+", tok):
            return int(tok)
        raise UnparsableQuestion(f"unexpected token {tok!r}")


def _parse_expression(expr: str):
    tokens = _TOKEN_RE.findall(expr)
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise UnparsableQuestion(f"cannot tokenize {expr!r}")
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.pos != len(tokens):
        raise UnparsableQuestion("trailing tokens in expression")
    return node


def _emit_steps(node, steps: list[str]) -> int:
    """Evaluate post-order, appending one rendered step per operation."""
    if isinstance(node, int):
        return node
    left, op, right = node
    a = _emit_steps(left, steps)
    b = _emit_steps(right, steps)
    c = _apply(a, op, b)
    steps.append(STEP_TEMPLATE.format(a=a, op=op, b=b, c=c))
    return c


def fine_steps_for_question(question: str) -> list[str]:
    """Re-derive the full fine chain from a synthetic question."""
    match = _QUESTION_RE.match(question.strip())
    if match is None:
        raise UnparsableQuestion(f"not a synthetic question: {question!r}")
    steps: list[str] = []
    value = _emit_steps(_parse_expression(match.group(1)), steps)
    steps.append(ANSWER_TEMPLATE.format(v=value))
    return steps


def _match_forward(fine: list[str], target: str, start: int) -> int | None:
    for i in range(start, len(fine)):
        if fine[i] == target:
            return i
    return None


def oracle_fill(
    question: str,
    prefix_steps: tuple[str, ...] | list[str],
    suffix_steps: tuple[str, ...] | list[str],
) -> str:
    """Fill one gap the way an ideal step-expansion model would.

    Recomputes the fine chain from the question, locates the gap between
    the last prefix step and the first suffix step, and returns the first
    step missing there. When nothing is missing, returns the first suffix
    step verbatim; the caller's similarity gate will then reject it, which
    is exactly how an already-detailed chain should behave.
    """
    fine = fine_steps_for_question(question)

    pos = -1
    for step in prefix_steps:
        found = _match_forward(fine, step, pos + 1)
        if found is None:
            # unknown prefix content: echo the next step so the gate rejects
            return suffix_steps[0] if suffix_steps else fine[-1]
        pos = found

    if suffix_steps:
        nxt = _match_forward(fine, suffix_steps[0], pos + 1)
        if nxt is None:
            return suffix_steps[0]
    else:
        nxt = len(fine)

    if nxt - pos > 1:
        return fine[pos + 1]
    return suffix_steps[0] if suffix_steps else fine[-1]
