"""Spans and counters recorded around the public calls of each stepfim module.

Tracing is installed by replacing module attributes at the call sites the
benchmark drives (for example ``stepfim.cli.decompose``) with wrappers, and
removed again afterwards, so the program carries no tracing code and the
timed runs execute it unwrapped.

A span is (span id, name, start, end, parent span id, record id). Spans are
kept in memory and written once, when the benchmark ends. A layer's busy
time is the self time of its spans: each span's duration minus the union of
its child spans, so that children overlapping on worker threads are counted
once.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from stepfim import backends, cli, expand, jsonl, synth


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    record_id: str | None


class Tracer:
    """Collects spans and counters for one pass of a workload.

    The only threads besides the one that created the tracer are the
    workers of ``expand``'s per-chain pools, and the creating thread blocks
    on them inside an ``expand_chain`` span. So a span opened on a thread
    with no open span of its own takes the creating thread's innermost open
    span as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.record_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.record_id))

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable, on_item: Callable | None = None) -> Callable:
        """Wrap a generator function: one span per item produced."""

        def traced(*args: Any, **kwargs: Any) -> Iterator:
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, items)
                except StopIteration:
                    return
                if on_item is not None:
                    on_item(item)
                yield item

        return traced


class TracedBackend:
    """A FIM backend whose every fill is a ``backends.fill`` span."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._tracer = tracer
        self._inner = inner

    def fill(self, request: backends.FimRequest) -> str:
        return self._tracer.call("backends.fill", self._inner.fill, request)


def _patches(t: Tracer) -> list[tuple[Any, str, Callable]]:
    def on_row(row: dict) -> None:
        t.record_id = str(row.get("id"))
        t.add("jsonl.read.rows")

    def on_decompose(args: tuple, chain: Any) -> None:
        t.add("decompose.chars", len(args[0]))

    def on_samples(args: tuple, samples: list) -> None:
        t.add("fim.samples_out", len(samples))

    def on_line(args: tuple, line: str) -> None:
        t.add("jsonl.write.bytes", len(line.encode("utf-8")))

    def on_gate(args: tuple, outcome: Any) -> None:
        t.add("similarity.chars_in", len(args[0]) + len(args[1]))
        t.add("similarity.valid", int(outcome.valid))

    def on_chain(args: tuple, result: tuple) -> None:
        report = result[1]
        t.add("expand.gaps_attempted", report.attempted)
        t.add("expand.decisions.valid", report.inserted)
        t.add("expand.decisions.invalid", report.invalid)
        t.add("expand.decisions.malformed", report.malformed)
        t.add("expand.decisions.backend_error", report.errored)

    def main(argv: list[str]) -> int:
        return t.call(f"cli.{argv[0]}", original_main, argv)

    def make_backend(config: backends.BackendConfig) -> TracedBackend:
        return TracedBackend(t, original_make_backend(config))

    original_main = cli.main
    original_make_backend = cli.make_backend
    read = t.wrap_iter("jsonl.read", jsonl.read_jsonl, on_row)
    write = t.wrap("jsonl.write", jsonl.dumps_line, on_line)
    records = t.wrap_iter("expand.expand_records", expand.expand_records)
    return [
        (cli, "main", main),
        (cli, "make_backend", make_backend),
        (cli, "read_jsonl", read),
        (jsonl, "read_jsonl", read),
        (cli, "dumps_line", write),
        (jsonl, "dumps_line", write),
        (cli, "decompose", t.wrap("decompose", cli.decompose, on_decompose)),
        (cli, "sample_fim", t.wrap("fim.sample_fim", cli.sample_fim, on_samples)),
        (cli, "stats", t.wrap("stats.stats", cli.stats)),
        (cli, "diff_stats", t.wrap("stats.diff_stats", cli.diff_stats)),
        (cli, "expand_records", records),
        (expand, "expand_records", records),
        (expand, "expand_iteratively", t.wrap("expand.expand_iteratively", expand.expand_iteratively)),
        (expand, "expand_chain", t.wrap("expand.expand_chain", expand.expand_chain, on_chain)),
        (expand, "gate", t.wrap("similarity.gate", expand.gate, on_gate)),
        (backends, "request_id_for", t.wrap("backends.request_id", backends.request_id_for)),
        (synth, "oracle_fill", t.wrap("synth.oracle_fill", synth.oracle_fill)),
        (synth, "fine_steps_for_question",
         t.wrap("synth.fine_steps", synth.fine_steps_for_question)),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route the module-boundary calls through `tracer` for the block."""
    patches = _patches(tracer)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - union_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def max_overlap(intervals: Iterable[tuple[float, float]]) -> int:
    """Most intervals open at one instant (an interval ending at t closes first)."""
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


# busy_s metric -> span names whose self time it sums
BUSY = {
    "decompose.busy_s": ("decompose",),
    "fim.busy_s": ("fim.sample_fim",),
    "jsonl.read.busy_s": ("jsonl.read",),
    "jsonl.write.busy_s": ("jsonl.write",),
    "similarity.busy_s": ("similarity.gate",),
    "synth.oracle_fill.busy_s": ("synth.oracle_fill",),
    "synth.fine_steps.busy_s": ("synth.fine_steps",),
    "backends.fill.busy_s": ("backends.fill",),
    "backends.request_id.busy_s": ("backends.request_id",),
    "expand.self_s": ("expand.expand_records", "expand.expand_iteratively", "expand.expand_chain"),
    "stats.busy_s": ("stats.stats", "stats.diff_stats"),
}

# calls metric -> span name it counts
CALLS = {
    "decompose.calls": "decompose",
    "fim.sample_fim.calls": "fim.sample_fim",
    "jsonl.write.rows": "jsonl.write",
    "similarity.gate.calls": "similarity.gate",
    "synth.oracle_fill.calls": "synth.oracle_fill",
    "synth.fine_steps.calls": "synth.fine_steps",
    "backends.fill.calls": "backends.fill",
    "backends.request_id.calls": "backends.request_id",
    "expand.expand_chain.calls": "expand.expand_chain",
}

COUNTERS = (
    "jsonl.read.rows",
    "fim.samples_out",
    "jsonl.write.bytes",
    "similarity.chars_in",
    "expand.gaps_attempted",
    "expand.decisions.valid",
    "expand.decisions.invalid",
    "expand.decisions.malformed",
    "expand.decisions.backend_error",
)

SUBCOMMANDS = ("decompose", "build-fim", "expand", "stats", "compare")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for metric, names in BUSY.items():
        out[metric] = sum((selfs[s.span_id] for name in names for s in by_name[name]), 0.0)
    for metric, name in CALLS.items():
        out[metric] = float(len(by_name[name]))
    for key in COUNTERS:
        out[key] = float(tracer.counts[key])
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = sum((s.end - s.start for s in by_name[f"cli.{sub}"]), 0.0)

    fills = [(s.start, s.end) for s in by_name["backends.fill"]]
    chain_wall = sum(s.end - s.start for s in by_name["expand.expand_chain"])
    out["decompose.chars_per_s"] = _ratio(tracer.counts["decompose.chars"], out["decompose.busy_s"])
    out["similarity.accept_ratio"] = _ratio(tracer.counts["similarity.valid"],
                                            out["similarity.gate.calls"])
    out["backends.request_id.per_gap"] = _ratio(out["backends.request_id.calls"],
                                                out["expand.gaps_attempted"])
    out["expand.inflight_mean"] = _ratio(sum(b - a for a, b in fills), chain_wall)
    out["expand.inflight_max"] = float(max_overlap(fills))
    return out


def combine(passes: list[Tracer]) -> dict[str, float]:
    """Median over traced passes; fill latency percentiles pool every call."""
    per_pass = [pass_metrics(t) for t in passes]
    out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    out["expand.inflight_max"] = max(p["expand.inflight_max"] for p in per_pass)
    fill_ms = [
        (s.end - s.start) * 1000.0 for t in passes for s in t.spans if s.name == "backends.fill"
    ]
    if len(fill_ms) >= 2:
        cuts = statistics.quantiles(fill_ms, n=100, method="inclusive")
        out["backends.fill.p50_ms"], out["backends.fill.p99_ms"] = cuts[49], cuts[98]
    else:
        out["backends.fill.p50_ms"] = out["backends.fill.p99_ms"] = fill_ms[0] if fill_ms else 0.0
    return out


def write_spans(path: str, passes: list[Tracer]) -> None:
    """All spans of all traced passes, one JSON array per line, gzipped."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for index, tracer in enumerate(passes):
            for s in tracer.spans:
                out.write(json.dumps([index, *s], separators=(",", ":")) + "\n")
