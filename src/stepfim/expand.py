"""Insert generated intermediate steps into existing solution chains.

For every gap between consecutive steps, the engine asks a FIM backend
for the step that might be missing there (prefix = steps before the gap,
suffix = the full remaining tail), gates the candidate by similarity to
the step that follows, and inserts the survivors.

A record is the unit of work: its rounds run one after the other, and
each round fills its gaps one at a time, in gap order. For a backend whose
fills wait (http, or any backend without `waits = False`),
`expand_records` gives whole records to `max_in_flight` pool workers,
earliest first, reads records at most 4 per worker ahead and hands them
back in input order, raising a fill's BaseException in its record's turn.
An in-process backend (oracle, replay) never waits, so its records are
expanded on the calling thread whatever `max_in_flight` is: under the
interpreter lock more threads would only take turns. `expand_chain` and
`expand_iteratively` always fill on the calling thread. Output never
depends on `max_in_flight` or on which request finished first.

Decisions recorded per gap:

- valid: gated in, inserted
- invalid: near-duplicate of the next step, or empty candidate
- malformed: the completion was nothing but special-token noise
- backend_error: the backend's fill raised; the engine calls it once per
  gap, so retrying is the backend's own job
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator

from stepfim import fim
from stepfim.backends import FimBackend, FimRequest
from stepfim.decompose import StepChain, chain_record, record_id
from stepfim.similarity import GateConfig, gate

VALID = "valid"
INVALID = "invalid"
MALFORMED = "malformed"
BACKEND_ERROR = "backend_error"

DECISIONS = (VALID, INVALID, MALFORMED, BACKEND_ERROR)

# records read ahead per fill slot: room for the oldest record to wait on
# its slowest gaps while the other workers stay busy with later records
LOOKAHEAD = 4


@dataclass(frozen=True)
class ExpansionConfig:
    """Engine knobs."""

    eta: float = GateConfig.eta
    iterations: int = 1
    include_leading_gap: bool = False
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        GateConfig(self.eta)  # range check
        for name in ("iterations", "max_in_flight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, not a {type(value).__name__}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class GapProposal:
    """Outcome of one gap request.

    gap_index is 1-based over the chain going into this round: the
    candidate would sit between step gap_index-1 and step gap_index,
    so index 1 names the gap before the first step.
    """

    gap_index: int
    request_id: str
    candidate: str
    similarity_to_next: float | None
    decision: str
    latency_ms: float
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Everything but `latency_ms`, so report files stay byte-stable."""
        return {
            "gap_index": self.gap_index,
            "request_id": self.request_id,
            "candidate": self.candidate,
            "similarity_to_next": self.similarity_to_next,
            "decision": self.decision,
            "error": self.error,
        }


@dataclass(frozen=True)
class ExpansionReport:
    """Accounting for one expansion pass."""

    record_id: str | None = None
    iteration: int = 0
    input_steps: int = 0
    output_steps: int = 0
    attempted: int = 0
    inserted: int = 0
    invalid: int = 0
    malformed: int = 0
    errored: int = 0
    elapsed_ms: float = 0.0
    proposals: tuple[GapProposal, ...] = field(default=())
    error: str | None = None

    def __post_init__(self) -> None:
        if self.attempted != self.inserted + self.invalid + self.malformed + self.errored:
            raise ValueError("gap decisions do not add up to the attempt count")

    def to_dict(self, include_proposals: bool = True) -> dict[str, Any]:
        """Everything but `elapsed_ms`, so report files stay byte-stable."""
        row: dict[str, Any] = {
            "record_id": self.record_id,
            "iteration": self.iteration,
            "input_steps": self.input_steps,
            "output_steps": self.output_steps,
            "attempted": self.attempted,
            "inserted": self.inserted,
            "invalid": self.invalid,
            "malformed": self.malformed,
            "errored": self.errored,
            "error": self.error,
        }
        if include_proposals:
            row["proposals"] = [p.to_dict() for p in self.proposals]
        return row


def clean_candidate(raw: str) -> tuple[str, bool]:
    """Cut the completion at the first special-token literal and trim.

    Returns (cleaned, truncated). Completion models routinely echo their
    sentinel tokens after the answer; text before the first one is the
    usable candidate.
    """
    cut = len(raw)
    truncated = False
    for token in fim.SPECIAL_TOKENS:
        at = raw.find(token)
        if at != -1 and at < cut:
            cut = at
            truncated = True
    return raw[:cut].strip(), truncated


def requests_for_chain(
    question: str, chain: StepChain, config: ExpansionConfig
) -> list[tuple[int, FimRequest]]:
    """One (gap_index, request) per gap: prefix before it, full tail after."""
    texts = chain.texts
    first = 1 if config.include_leading_gap else 2
    return [
        (i, FimRequest(question, texts[: i - 1], texts[i - 1 :]))
        for i in range(first, len(texts) + 1)
    ]


def _propose(
    fill: Callable[[FimRequest], str], gap_index: int, request: FimRequest, config: ExpansionConfig
) -> GapProposal:
    start = time.perf_counter()
    try:
        raw = fill(request)
    except Exception as exc:
        latency_ms = (time.perf_counter() - start) * 1000.0
        failure = f"{type(exc).__name__}: {exc}"
        return GapProposal(gap_index, request.request_id, "", None, BACKEND_ERROR, latency_ms, failure)
    latency_ms = (time.perf_counter() - start) * 1000.0

    cleaned, truncated = clean_candidate(raw)
    if truncated and not cleaned:
        return GapProposal(gap_index, request.request_id, "", None, MALFORMED, latency_ms)

    outcome = gate(cleaned, request.suffix_steps[0], GateConfig(config.eta))
    decision = VALID if outcome.valid else INVALID
    return GapProposal(gap_index, request.request_id, cleaned, outcome.score, decision, latency_ms)


def _rounds(
    question: str, chain: StepChain, fill: Callable[[FimRequest], str], config: ExpansionConfig
) -> tuple[StepChain, list[ExpansionReport]]:
    """Run `config.iterations` rounds on one chain, filling each round's gaps in order."""
    reports: list[ExpansionReport] = []
    for iteration in range(config.iterations):
        started = time.perf_counter()
        proposals = [
            _propose(fill, gap_index, request, config)
            for gap_index, request in requests_for_chain(question, chain, config)
        ]
        accepted = {p.gap_index: p.candidate for p in proposals if p.decision == VALID}
        out_texts: list[str] = []
        for idx0, text in enumerate(chain.texts):
            if idx0 + 1 in accepted:
                out_texts.append(accepted[idx0 + 1])
            out_texts.append(text)
        expanded = StepChain.from_texts(out_texts)

        counts = {d: 0 for d in DECISIONS}
        for p in proposals:
            counts[p.decision] += 1
        reports.append(ExpansionReport(
            iteration=iteration,
            input_steps=len(chain),
            output_steps=len(expanded),
            attempted=len(proposals),
            inserted=counts[VALID],
            invalid=counts[INVALID],
            malformed=counts[MALFORMED],
            errored=counts[BACKEND_ERROR],
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            proposals=tuple(proposals),
        ))
        chain = expanded
    return chain, reports


def fill_slots(backend: FimBackend, config: ExpansionConfig) -> int:
    """Fills a run keeps going at once: `max_in_flight`, or 1 for a backend
    that declares `waits = False`, whose fills would only take turns on the
    interpreter lock."""
    return config.max_in_flight if getattr(backend, "waits", True) else 1


def expand_chain(
    question: str,
    chain: StepChain,
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> tuple[StepChain, ExpansionReport]:
    """One expansion pass over every gap of the chain.

    All gap requests see the incoming chain; valid candidates are then
    inserted simultaneously, so one round can at most double the gap
    count: len(output) <= 2*len(input) - 1 (one more with the leading
    gap). A one-step chain has no interior gap and returns unchanged
    unless the leading gap is enabled. The gaps are filled one at a time,
    in gap order, on the calling thread, whatever `max_in_flight` is.
    """
    if config is None:
        config = ExpansionConfig()
    expanded, (report,) = _rounds(question, chain, backend.fill, replace(config, iterations=1))
    return expanded, report


def expand_iteratively(
    question: str,
    chain: StepChain,
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> tuple[StepChain, list[ExpansionReport]]:
    """Apply expand_chain `config.iterations` times, each round feeding the next.

    Rounds are a strict barrier: every gap of round r is decided before
    round r+1 sees the chain. All gaps are re-expanded each round; the
    gate keeps already-dense regions stable. Like `expand_chain`, this
    fills on the calling thread, one gap at a time.
    """
    if config is None:
        config = ExpansionConfig()
    return _rounds(question, chain, backend.fill, config)


class _Stopped(BaseException):
    """Raised by a pool worker's fill once the record stream has stopped."""


def _expand_row(
    row: dict[str, Any], fill: Callable[[FimRequest], str], config: ExpansionConfig
) -> tuple[dict[str, Any], list[ExpansionReport]]:
    row_id = record_id(row)
    try:
        chain, reports = _rounds(*chain_record(row), fill, config)
    except Exception as exc:  # bad shape or backend misuse: this record fails alone
        steps = row.get("steps")
        n = len(steps) if isinstance(steps, list) else 0
        failure = ExpansionReport(
            record_id=row_id,
            input_steps=n,
            output_steps=n,
            error=f"{type(exc).__name__}: {exc}",
        )
        return row, [failure]
    out = dict(row)
    out["steps"] = list(chain.texts)
    return out, [replace(r, record_id=row_id) for r in reports]


def expand_records(
    records: Iterable[dict[str, Any]],
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> Iterator[tuple[dict[str, Any], list[ExpansionReport]]]:
    """Expand a stream of `{id, question, steps}` records, yielded in input order.

    This is the one expansion path for the CLI and for library callers;
    corpus totals are the caller's sum over the yielded reports. With one
    fill slot (see `fill_slots`) every record is expanded on the calling
    thread. With N slots, N pool workers each expand whole records,
    earliest first, filling a record's gaps one at a time; records are
    read at most 4 per slot ahead of the one yielded next, and the run
    ends with a tail of at most one record per worker. Stopping (the
    generator closed, an input error, a fill's BaseException, which is
    raised here in its record's turn) waits only on the fills that are
    running. The workers are not daemon threads, so a generator left open
    at interpreter exit waits for the records already handed to them (at
    most 4 per slot). A record that cannot be expanded (bad shape, backend
    misuse) is yielded unchanged with a zero-count report carrying the
    error, so a single poisoned record never aborts a batch run.
    """
    if config is None:
        config = ExpansionConfig()
    slots = fill_slots(backend, config)
    if slots == 1:
        for row in records:
            yield _expand_row(row, backend.fill, config)
        return

    stop = threading.Event()

    def fill(request: FimRequest) -> str:
        if stop.is_set():
            raise _Stopped()
        return backend.fill(request)

    pool = ThreadPoolExecutor(slots)
    window: deque[Future[tuple[dict[str, Any], list[ExpansionReport]]]] = deque()
    try:
        for row in records:
            window.append(pool.submit(_expand_row, row, fill, config))
            if len(window) == LOOKAHEAD * slots:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
