"""Verifiable synthetic arithmetic corpora with known step chains.

Each problem is a left-nested integer expression such as ((2 + 3) * 4) - 5.
Its fine chain has one "Compute a op b = c." step per operation plus a
final "The answer is v." step; the coarse chain omits a known subset of
the computation steps, never two adjacent ones. Because the dropped steps
can be re-derived from the question alone, `oracle_fill` acts as a
perfect deterministic stand-in for a trained fill-in-the-middle model.
`fine_steps_for_question` re-derives them in one left-to-right pass with
an explicit stack, so no nesting depth is too deep for it.
"""

from __future__ import annotations

import math
import random
import re
import sys
import threading
from dataclasses import dataclass

from stepfim.decompose import StepChain
from stepfim.fim import draw_key
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


def _digit_limit_error(spec: CorpusSpec) -> SpecError:
    return SpecError("values outgrow the int-to-str digit limit; lower ops_max or the "
                     f"operand range [{spec.operand_min}, {spec.operand_max}]")


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
        # products only: every value after ops_min steps is at least operand_min ** (ops_min + 1);
        # one digit of margin, so that float rounding never refuses a spec that could succeed
        limit = sys.get_int_max_str_digits()
        if (limit and set(self.operators) == {"*"} and self.operand_min >= 2
                and (self.ops_min + 1) * math.log10(self.operand_min) >= limit + 1):
            raise _digit_limit_error(self)


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


def _drop_indices(rng: random.Random, spec: CorpusSpec, n_ops: int) -> tuple[int, ...]:
    """Fine-chain computation indices to omit from the coarse chain.

    Index 0 and the final answer step are never dropped, and no two
    dropped indices are adjacent, so every coarse gap misses at most one
    step and the default (no leading gap) expansion can close it.
    """
    if spec.drop == "every-other":
        return tuple(range(1, n_ops, 2))
    # k non-adjacent picks among the m candidates 1..n_ops-1 are k slots
    # among m - k + 1, each shifted by the number of picks before it
    m, k = n_ops - 1, spec.drop_k
    if k > (m + 1) // 2:
        raise SpecError(f"cannot drop {k} non-adjacent of {n_ops} steps")
    slots = sorted(rng.sample(range(m - k + 1), k))
    return tuple(1 + slot + i for i, slot in enumerate(slots))


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
            try:
                text = STEP_TEMPLATE.format(a=value, op=op, b=b, c=c)
            except ValueError:  # str(c) is past sys.get_int_max_str_digits()
                raise _digit_limit_error(spec) from None
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
            rng = random.Random(draw_key(spec.seed, str(idx), retry))
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


def fine_steps_for_question(question: str) -> list[str]:
    """Re-derive the full fine chain from a synthetic question.

    Evaluates the expression in one left-to-right pass. `stack` holds the
    (left operand, operator) of each open expression, innermost last; both
    are None until the left operand is known. A step is appended as soon
    as both operands of an operation are known, so steps come out in
    post-order.
    """
    match = _QUESTION_RE.match(question.strip())
    if match is None:
        raise UnparsableQuestion(f"not a synthetic question: {question!r}")
    expr = match.group(1)
    tokens = _TOKEN_RE.findall(expr)
    if "".join(tokens).replace(" ", "") != expr.replace(" ", ""):
        raise UnparsableQuestion(f"cannot tokenize {expr!r}")
    steps: list[str] = []
    stack: list[tuple] = [(None, None)]
    pos, end = 0, len(tokens)
    while True:
        if pos == end:
            raise UnparsableQuestion("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append((None, None))
            continue
        if tok in ")+*-":  # every other token of _TOKEN_RE is an integer
            raise UnparsableQuestion(f"unexpected token {tok!r}")
        value = int(tok)
        # the operand may complete its expression, and so each enclosing one
        while True:
            left, op = stack[-1]
            if op is not None:
                c = _apply(left, op, value)
                steps.append(STEP_TEMPLATE.format(a=left, op=op, b=value, c=c))
                value = c
            elif pos < end and tokens[pos] in ALLOWED_OPERATORS:
                stack[-1] = (value, tokens[pos])
                pos += 1
                break
            stack.pop()
            if not stack:
                if pos != end:
                    raise UnparsableQuestion("trailing tokens in expression")
                steps.append(ANSWER_TEMPLATE.format(v=value))
                return steps
            if pos == end:
                raise UnparsableQuestion("unexpected end of expression")
            if tokens[pos] != ")":
                raise UnparsableQuestion("expected closing paren")
            pos += 1


# the last question each thread parsed and its fine steps: a record's fills run
# back to back on one thread, and nothing outlives that thread's next record
_last_parse = threading.local()


def _fine_steps_of(question: str) -> tuple[str, ...]:
    entry = getattr(_last_parse, "entry", None)
    if entry is None or entry[0] != question:
        entry = _last_parse.entry = (question, tuple(fine_steps_for_question(question)))
    return entry[1]


def _match_forward(fine: tuple[str, ...], target: str, start: int) -> int | None:
    try:
        return fine.index(target, start)
    except ValueError:
        return None


def oracle_fill(
    question: str,
    prefix_steps: tuple[str, ...] | list[str],
    suffix_steps: tuple[str, ...] | list[str],
) -> str:
    """Fill one gap the way an ideal step-expansion model would.

    Derives the fine chain from the question, once per run of fills on the
    same question on one thread, locates the gap between the last prefix
    step and the first suffix step, and returns the first step missing
    there. When nothing is missing, returns the first suffix step verbatim;
    the caller's similarity gate will then reject it, which is exactly how
    an already-detailed chain should behave.
    """
    fine = _fine_steps_of(question)

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
