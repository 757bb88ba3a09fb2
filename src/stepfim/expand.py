"""Insert generated intermediate steps into existing solution chains.

For every gap between consecutive steps, the engine asks a FIM backend
for the step that might be missing there (prefix = steps before the gap,
suffix = the full remaining tail), gates the candidate by similarity to
the step that follows, and inserts the survivors. A round escapes its
chain's text once and builds every gap's request, and its `request_id`,
from it (`requests_for_chain`); each round's report is built once.

The engine is three public calls, each built on the next: `expand_chain`
runs one round, filling a chain's gaps one at a time in gap order and
inserting the valid candidates; `expand_iteratively` runs
`config.iterations` such rounds; `expand_records` runs
`expand_iteratively` on each record of a stream. Each reaches the next
through this module's globals, so a wrapper set on either inner call
sees every round of a run. At `max_in_flight` 1, `expand_records`
expands every record on the calling thread; at N it gives whole records
to N pool workers, earliest first, reads records at most 4 per worker
ahead and hands them back in input order, raising a fill's BaseException
in its record's turn. Output never depends on `max_in_flight` or on
which request finished first.

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
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from stepfim import fim
from stepfim.backends import FimBackend, FimRequest, gap_requests
from stepfim.decompose import StepChain, chain_record, record_id as row_record_id
from stepfim.similarity import DEFAULT_ETA, gate

if TYPE_CHECKING:
    from concurrent.futures import Future

VALID = "valid"
INVALID = "invalid"
MALFORMED = "malformed"
BACKEND_ERROR = "backend_error"

# records read ahead per fill slot: room for the oldest record to wait on
# its slowest gaps while the other workers stay busy with later records
LOOKAHEAD = 4
# longest single wait on a pool worker's record: a bound on how late Ctrl-C lands
WAIT_TURN_S = 0.1


@dataclass(frozen=True)
class ExpansionConfig:
    """Engine knobs."""

    eta: float = DEFAULT_ETA
    iterations: int = 1
    include_leading_gap: bool = False
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
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
        """Every field but `latency_ms`, in field order, so report files stay byte-stable."""
        return {name: getattr(self, name) for name in _PROPOSAL_KEYS}


_PROPOSAL_KEYS = tuple(f.name for f in fields(GapProposal) if f.name != "latency_ms")


@dataclass(frozen=True)
class ExpansionReport:
    """Accounting for one expansion pass.

    No count is an argument: each is computed once from `proposals`, so they
    add up to `attempted`, and `output_steps` is `input_steps + inserted`.
    """

    record_id: str | None = None
    iteration: int = 0
    input_steps: int = 0
    output_steps: int = field(init=False)
    attempted: int = field(init=False)
    inserted: int = field(init=False)
    invalid: int = field(init=False)
    malformed: int = field(init=False)
    errored: int = field(init=False)
    elapsed_ms: float = 0.0
    proposals: tuple[GapProposal, ...] = field(default=())
    error: str | None = None

    def __post_init__(self) -> None:
        decisions = [p.decision for p in self.proposals]
        inserted = decisions.count(VALID)
        for name, value in (
            ("output_steps", self.input_steps + inserted),
            ("attempted", len(decisions)),
            ("inserted", inserted),
            ("invalid", decisions.count(INVALID)),
            ("malformed", decisions.count(MALFORMED)),
            ("errored", decisions.count(BACKEND_ERROR)),
        ):
            object.__setattr__(self, name, value)

    def to_dict(self, include_proposals: bool = True) -> dict[str, Any]:
        """Every field but `elapsed_ms`, in field order, so report files stay
        byte-stable; then `proposals`, unless left out."""
        row = {name: getattr(self, name) for name in _REPORT_KEYS}
        if include_proposals:
            row["proposals"] = [p.to_dict() for p in self.proposals]
        return row


_REPORT_KEYS = tuple(f.name for f in fields(ExpansionReport) if f.name not in ("elapsed_ms", "proposals"))


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
    """One (gap_index, request) per gap: prefix before it, full tail after; each
    `request_id` is set from one escape of the round's text (`gap_requests`)."""
    first = 1 if config.include_leading_gap else 2
    return list(enumerate(gap_requests(question, chain.texts, first), start=first))


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

    outcome = gate(cleaned, request.suffix_steps[0], config.eta)
    decision = VALID if outcome.valid else INVALID
    return GapProposal(gap_index, request.request_id, cleaned, outcome.score, decision, latency_ms)


def expand_chain(
    question: str,
    chain: StepChain,
    backend: FimBackend,
    config: ExpansionConfig | None = None,
    *,
    iteration: int = 0,
    record_id: str | None = None,
) -> tuple[StepChain, ExpansionReport]:
    """One expansion pass over every gap of the chain.

    All gap requests see the incoming chain; valid candidates are then
    inserted simultaneously, so one round can at most double the gap
    count: len(output) <= 2*len(input) - 1 (one more with the leading
    gap). A one-step chain has no interior gap and returns unchanged
    unless the leading gap is enabled. The gaps are filled one at a time,
    in gap order, on the calling thread, whatever `max_in_flight` is.
    `iteration` and `record_id` are written into the report.
    """
    if config is None:
        config = ExpansionConfig()
    started = time.perf_counter()
    proposals = [
        _propose(backend.fill, gap_index, request, config)
        for gap_index, request in requests_for_chain(question, chain, config)
    ]
    accepted = {p.gap_index: p.candidate for p in proposals if p.decision == VALID}
    out_texts: list[str] = []
    for idx0, text in enumerate(chain.texts):
        if idx0 + 1 in accepted:
            out_texts.append(accepted[idx0 + 1])
        out_texts.append(text)
    return StepChain.from_texts(out_texts), ExpansionReport(
        record_id=record_id,
        iteration=iteration,
        input_steps=len(chain),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        proposals=tuple(proposals),
    )


def expand_iteratively(
    question: str,
    chain: StepChain,
    backend: FimBackend,
    config: ExpansionConfig | None = None,
    *,
    record_id: str | None = None,
) -> tuple[StepChain, list[ExpansionReport]]:
    """Apply expand_chain `config.iterations` times, each round feeding the next.

    Rounds are a strict barrier: every gap of round r is decided before
    round r+1 sees the chain. All gaps are re-expanded each round; the
    gate keeps already-dense regions stable. Like `expand_chain`, this
    fills on the calling thread, one gap at a time. The reports carry
    `record_id`.
    """
    if config is None:
        config = ExpansionConfig()
    reports: list[ExpansionReport] = []
    for n in range(config.iterations):
        chain, report = expand_chain(question, chain, backend, config, iteration=n, record_id=record_id)
        reports.append(report)
    return chain, reports


class _Stopped(BaseException):
    """Raised by a pool worker's fill once the record stream has stopped."""


class WorkerStartError(RuntimeError):
    """A pool worker thread could not start (a pids limit, or too many threads)."""


def _expand_row(
    row: dict[str, Any], backend: FimBackend, config: ExpansionConfig
) -> tuple[dict[str, Any], list[ExpansionReport]]:
    row_id = row_record_id(row)
    try:
        question, chain = chain_record(row)
        # a special token in the input would fail every prompt; a cleaned
        # candidate holds none, so one check covers every round
        fim.check_chain(question, chain.texts)
        chain, reports = expand_iteratively(question, chain, backend, config, record_id=row_id)
    except Exception as exc:  # bad shape, a special token or backend misuse: this record fails alone
        steps = row.get("steps")
        n = len(steps) if isinstance(steps, list) else 0
        return row, [ExpansionReport(record_id=row_id, input_steps=n, error=f"{type(exc).__name__}: {exc}")]
    out = dict(row)
    out["steps"] = list(chain.texts)
    return out, reports


def expand_records(
    records: Iterable[dict[str, Any]],
    backend: FimBackend,
    config: ExpansionConfig | None = None,
) -> Iterator[tuple[dict[str, Any], list[ExpansionReport]]]:
    """Expand a stream of `{id, question, steps}` records, yielded in input order.

    Each record goes through `expand_iteratively`. This is the one
    expansion path for the CLI and for library callers; corpus totals are
    the caller's sum over the yielded reports. At `max_in_flight` 1 every
    record is expanded on the calling thread; pass 1 for an in-process
    backend, whose fills would only take turns on the interpreter lock. At
    N, N pool workers each expand whole records, earliest first, filling a
    record's gaps one at a time; records are read at most 4 per worker
    ahead of the one yielded next, and the run ends with a tail of at most
    one record per worker. Stopping (the generator closed, an input
    error, a fill's BaseException, which is raised here in its record's
    turn, or a worker thread that cannot start, which raises
    `WorkerStartError`) calls the backend's `close()`, if it has one, so
    that the fills that are running end, and waits only on them. The
    workers are not daemon threads, so a generator left open at interpreter
    exit waits for the records already handed to them (at most 4 per slot).
    A record that cannot be expanded (bad shape, a FIM special token in its
    question or steps, found before its first fill, or backend misuse) is
    yielded unchanged with a zero-count report carrying the error, so a
    single poisoned record never aborts a batch run.
    """
    if config is None:
        config = ExpansionConfig()
    slots = config.max_in_flight
    if slots == 1:
        for row in records:
            yield _expand_row(row, backend, config)
        return

    # only a run that starts workers loads the pool (and its logging and queue)
    from concurrent import futures

    stop = threading.Event()

    def fill(request: FimRequest) -> str:
        if stop.is_set():
            raise _Stopped()
        return backend.fill(request)

    def oldest() -> tuple[dict[str, Any], list[ExpansionReport]]:
        # waits in turns: Python runs a Ctrl-C handler only between them, and a
        # signal that a worker thread took, or that came just before a wait
        # began, ends no wait
        future = window.popleft()
        while True:
            try:
                return future.result(WAIT_TURN_S)
            except futures.TimeoutError:
                pass

    stoppable = SimpleNamespace(fill=fill)
    pool = futures.ThreadPoolExecutor(slots)
    window: deque[Future[tuple[dict[str, Any], list[ExpansionReport]]]] = deque()
    drained = False
    try:
        for row in records:
            try:  # starts a worker thread while none is idle and fewer than `slots` run
                window.append(pool.submit(_expand_row, row, stoppable, config))
            except RuntimeError as exc:
                raise WorkerStartError(f"cannot start a worker thread: {exc}") from exc
            if len(window) == LOOKAHEAD * slots:
                yield oldest()
        while window:
            yield oldest()
        drained = True
    finally:
        stop.set()
        if not drained:  # a backend's close ends the fills that are running
            getattr(backend, "close", lambda: None)()
        pool.shutdown(cancel_futures=True)
