"""Insert generated intermediate steps into existing solution chains.

For every gap between consecutive steps, the engine asks a FIM backend
for the step that might be missing there (prefix = steps before the gap,
suffix = the full remaining tail), gates the candidate by similarity to
the step that follows, and inserts the survivors.

One scheduler runs the gaps of every record in a run: up to
`max_in_flight` gap requests are in flight at once, drawn from as many
records as it takes, while each record still takes its rounds one at a
time. Records are read at most 4 * max_in_flight ahead of the one handed
back next, and are handed back in input order. Insertion order and
output depend only on the inputs, the backend's responses, and the
config, never on `max_in_flight` or on which request finished first.

Decisions recorded per gap:

- valid: gated in, inserted
- invalid: near-duplicate of the next step, or empty candidate
- malformed: the completion was nothing but special-token noise
- backend_error: the backend's fill raised; the engine calls it once per
  gap, so retrying is the backend's own job
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator

from stepfim import fim
from stepfim.backends import FimBackend, FimRequest
from stepfim.decompose import StepChain, chain_record
from stepfim.similarity import GateConfig, gate

VALID = "valid"
INVALID = "invalid"
MALFORMED = "malformed"
BACKEND_ERROR = "backend_error"

DECISIONS = (VALID, INVALID, MALFORMED, BACKEND_ERROR)

# records read ahead per request slot: room for the oldest record to wait
# on its slowest gap while the other slots stay busy with later records
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


def _propose(backend: FimBackend, gap_index: int, request: FimRequest, config: ExpansionConfig) -> GapProposal:
    start = time.perf_counter()
    try:
        raw = backend.fill(request)
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


class _Job:
    """One chain on its way through `config.iterations` rounds.

    Round r+1's requests are built only once every gap of round r has its
    decision, so rounds stay a barrier within a chain while the scheduler
    overlaps the gaps of different chains.
    """

    def __init__(self, config: ExpansionConfig, row: dict[str, Any] | None = None) -> None:
        self.config = config
        self.row = row
        self.reports: list[ExpansionReport] = []
        self.requests: list[tuple[int, FimRequest]] = []
        self.error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or len(self.reports) == self.config.iterations

    def start(self, question: str, chain: StepChain) -> None:
        self.question = question
        self.chain = chain
        self._open_round()

    def take(self, proposal: GapProposal) -> bool:
        """Record one gap's decision; True when that closed the round."""
        self.proposals.append(proposal)
        if len(self.proposals) < len(self.requests):
            return False
        self._close_round()
        self._open_round()
        return True

    def _open_round(self) -> None:
        self.requests = []
        while not self.done:
            self.started = time.perf_counter()
            self.proposals: list[GapProposal] = []
            self.requests = requests_for_chain(self.question, self.chain, self.config)
            if self.requests:
                return
            self._close_round()

    def _close_round(self) -> None:
        proposals = sorted(self.proposals, key=lambda p: p.gap_index)
        accepted = {p.gap_index: p.candidate for p in proposals if p.decision == VALID}
        out_texts: list[str] = []
        for idx0, text in enumerate(self.chain.texts):
            if idx0 + 1 in accepted:
                out_texts.append(accepted[idx0 + 1])
            out_texts.append(text)
        expanded = StepChain.from_texts(out_texts)

        counts = {d: 0 for d in DECISIONS}
        for p in proposals:
            counts[p.decision] += 1
        self.reports.append(ExpansionReport(
            iteration=len(self.reports),
            input_steps=len(self.chain),
            output_steps=len(expanded),
            attempted=len(proposals),
            inserted=counts[VALID],
            invalid=counts[INVALID],
            malformed=counts[MALFORMED],
            errored=counts[BACKEND_ERROR],
            elapsed_ms=(time.perf_counter() - self.started) * 1000.0,
            proposals=tuple(proposals),
        ))
        self.chain = expanded


def _schedule(jobs: Iterable[_Job], backend: FimBackend, config: ExpansionConfig) -> Iterator[_Job]:
    """Yield each job once all its rounds are decided, in the order given.

    At most `max_in_flight` gaps are handed to the pool at once, the
    earliest job's first, so closing this generator or an error from
    `jobs` waits on no more than that many fills. Jobs are pulled from
    `jobs` only while fewer than LOOKAHEAD * max_in_flight of them wait
    to be yielded. A job whose decision handling raises is marked failed
    and yielded in its place; its remaining gaps are dropped.
    """
    slots = config.max_in_flight
    jobs = iter(jobs)
    window: deque[_Job] = deque()
    queued: list[tuple[int, int, FimRequest, _Job]] = []  # heap: earliest job, then gap
    running: dict[Future, tuple[int, _Job]] = {}
    admitted = 0
    exhausted = False

    def enqueue(rank: int, job: _Job) -> None:
        for gap_index, request in job.requests:
            heapq.heappush(queued, (rank, gap_index, request, job))

    def decide(rank: int, job: _Job, proposal: Callable[[], GapProposal]) -> None:
        if job.done:
            return
        try:
            if job.take(proposal()):
                enqueue(rank, job)
        except Exception as exc:
            job.error = exc

    # one slot runs each gap on this thread, as it arrives
    with ThreadPoolExecutor(max_workers=slots) if slots > 1 else nullcontext() as pool:
        while True:
            while not exhausted and len(window) < LOOKAHEAD * slots:
                job = next(jobs, None)
                if job is None:
                    exhausted = True
                else:
                    window.append(job)
                    enqueue(admitted, job)
                    admitted += 1
            while queued and len(running) < slots:
                rank, gap_index, request, job = heapq.heappop(queued)
                if pool is None:
                    decide(rank, job, partial(_propose, backend, gap_index, request, config))
                elif not job.done:
                    future = pool.submit(_propose, backend, gap_index, request, config)
                    running[future] = (rank, job)
            if window and window[0].done:
                yield window.popleft()
                continue
            if not running:
                return
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                rank, job = running.pop(future)
                decide(rank, job, future.result)


def _expand_one(
    question: str, chain: StepChain, backend: FimBackend, config: ExpansionConfig
) -> _Job:
    job = _Job(config)
    job.start(question, chain)
    (job,) = _schedule([job], backend, config)
    if job.error is not None:
        raise job.error
    return job


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
    unless the leading gap is enabled.
    """
    if config is None:
        config = ExpansionConfig()
    job = _expand_one(question, chain, backend, replace(config, iterations=1))
    return job.chain, job.reports[0]


def expand_iteratively(
    question: str,
    chain: StepChain,
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> tuple[StepChain, list[ExpansionReport]]:
    """Apply expand_chain `config.iterations` times, each round feeding the next.

    Rounds are a strict barrier: every gap of round r is decided before
    round r+1 sees the chain. All gaps are re-expanded each round; the
    gate keeps already-dense regions stable.
    """
    if config is None:
        config = ExpansionConfig()
    job = _expand_one(question, chain, backend, config)
    return job.chain, job.reports


def _admit(rows: Iterable[dict[str, Any]], config: ExpansionConfig) -> Iterator[_Job]:
    for row in rows:
        job = _Job(config, row)
        try:
            job.start(*chain_record(row))
        except (KeyError, ValueError) as exc:
            job.error = exc
        yield job


def expand_records(
    records: Iterable[dict[str, Any]],
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> Iterator[tuple[dict[str, Any], list[ExpansionReport]]]:
    """Expand a stream of `{id, question, steps}` records, yielded in input order.

    This is the one expansion path for the CLI and for library callers;
    corpus totals are the caller's sum over the yielded reports. Up to
    `max_in_flight` gaps of different records are in flight at once, and
    records are read at most 4 * max_in_flight ahead of the one yielded
    next. A record that cannot be expanded (bad shape, backend misuse) is
    yielded unchanged with a zero-count report carrying the error, so a
    single poisoned record never aborts a batch run.
    """
    if config is None:
        config = ExpansionConfig()
    with closing(_schedule(_admit(records, config), backend, config)) as jobs:
        for job in jobs:
            row = job.row
            record_id = str(row.get("id", ""))
            if job.error is not None:
                steps = row.get("steps")
                n = len(steps) if isinstance(steps, list) else 0
                failure = ExpansionReport(
                    record_id=record_id,
                    input_steps=n,
                    output_steps=n,
                    error=f"{type(job.error).__name__}: {job.error}",
                )
                yield row, [failure]
                continue
            out = dict(row)
            out["steps"] = list(job.chain.texts)
            yield out, [replace(r, record_id=record_id) for r in job.reports]
