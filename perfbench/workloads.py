"""The three workloads: input generation, one timed pass, and output checks.

A workload writes its inputs once per set-up, then runs passes over them.
One pass is the whole workload over the whole input. The first pass at each
`max_in_flight` value is checked in full; later passes must reproduce its
output files byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Any

from stepfim import cli, expand, jsonl, synth

from latency import LatencyBackend, gap_request_ids, schedule
from tracing import TracedBackend, Tracer

# input records per workload at scale 1
SIZES = {"prep-text": 1000, "expand-cpu": 400, "expand-latency": 150}


class CheckFailed(RuntimeError):
    """The program's output is wrong, or a subcommand exited nonzero."""


@dataclass(frozen=True)
class PassResult:
    items: int
    failed: int


def _sha(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _run_cli(argv: list[str]) -> None:
    """One subcommand through `cli.main`; its stderr is kept for failures only."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _require(code == 0, f"stepfim {argv[0]} exited {code}: {err.getvalue().strip()[-500:]}")


def _chain_stats(rows: list[dict[str, Any]]) -> dict[str, float]:
    steps = sum(len(r["steps"]) for r in rows)
    tokens = sum(len("\n".join(r["steps"]).split()) for r in rows)
    return {"samples": len(rows), "total_tokens": tokens,
            "avg_tokens": tokens / len(rows), "avg_steps": steps / len(rows)}


def _check_stats(path: str, rows: list[dict[str, Any]]) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        got = json.load(handle)
    for key, want in _chain_stats(rows).items():
        _require(math.isclose(got[key], want, rel_tol=1e-12), f"{path}: {key} {got[key]} != {want}")
    return got


class Workload:
    """Inputs and outputs of one workload in its own directory."""

    name = ""
    outputs: tuple[str, ...] = ()
    # A pass that mostly waits on sleeping threads: host steal time then
    # overlaps the waits instead of lengthening the pass.
    waits = False

    def __init__(self, workdir: str, seed: int, scale: float = 1.0) -> None:
        self.dir = workdir
        self.seed = seed
        self.count = max(4, round(SIZES[self.name] * scale))
        self._reference: dict[int, tuple[list[str], PassResult]] = {}
        # failures counted in the last full check, before its gates ran
        self.last: PassResult | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, max_in_flight: int, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def check(self, max_in_flight: int) -> PassResult:
        """Count work and failures into `self.last`, then check every output in full."""
        raise NotImplementedError

    def verify(self, max_in_flight: int) -> PassResult:
        """Full check on the first pass at this setting, byte comparison after."""
        hashes = [_sha(self.path(name)) for name in self.outputs]
        self.last = None
        if max_in_flight not in self._reference:
            self._reference[max_in_flight] = (hashes, self.check(max_in_flight))
        want, result = self._reference[max_in_flight]
        _require(hashes == want, f"{self.name}: output differs from the first pass")
        return result


# --- prep-text --------------------------------------------------------------

# Sentences per record run evenly from FEWEST to MOST. No measured length
# distribution of CoT corpora is at hand, so the even spread over the range
# is an assumption, not a sample of real traffic.
FEWEST_SENTENCES, MOST_SENTENCES = 3, 100

_STEP_RE = re.compile(r"Compute (-?\d+) ([+*-]) (-?\d+) = (-?\d+)\.")
_ANSWER_RE = re.compile(r"The answer is (-?\d+)\.")
_TEX_OP = {"+": "+", "-": "-", "*": "\\times"}


def sentence_counts(n: int) -> list[int]:
    """Sentences per record: the same multiset for every seed, so only content varies."""
    span = MOST_SENTENCES - FEWEST_SENTENCES + 1
    return [FEWEST_SENTENCES + int((i + 0.5) / n * span) for i in range(n)]


def _step_sentence(rng: random.Random, step: str, number: int) -> str:
    answer = _ANSWER_RE.fullmatch(step)
    if answer is not None:
        v = answer.group(1)
        return rng.choice((f"Finally, the answer is ${v}$.", f"Therefore the answer is {v}."))
    a, op, b, c = _STEP_RE.fullmatch(step).groups()
    tex = f"{a} {_TEX_OP[op]} {b} = {c}"
    return rng.choice((
        f"Step {number}: Compute {a} {op} {b} = {c}.",
        f"First, we compute ${tex}$.",
        f"Next, note that $${tex}. \\text{{Check. Done}}$$ holds.",
        f"Then \\[ {tex}. \\] follows from the line above.",
        f"Therefore the running value is {c}, i.e. the result of {a} {op} {b}.",
        f"We get {a} {op} {b} = {c}, e.g. by direct computation!",
        f"Is {a} {op} {b} equal to {c}? Yes, it is {c}.",
    ))


def _filler(rng: random.Random, value: int) -> str:
    k = rng.randint(2, 9)
    return rng.choice((
        f"As a check, {value} is about {value / k:.2f} times {k}.0 here.",
        f"Dr. Lee's rule, cf. eq. {k}, gives the same value vs. the estimate {k}.{k + 1}.",
        f"It costs \\$5 per unit, so the total stays at {value}.",
        f"We keep the value ${value}$ for the step after this one.",
        f"Recall that $0.5 \\cdot {2 * value} = {value}.$ So nothing changes.",
    ))


def render_solution(rng: random.Random, steps: tuple[str, ...], sentences: int) -> str:
    """Free-text solution of about `sentences` sentences walking through `steps`."""
    out: list[str] = []
    value = 0
    while len(out) < sentences:
        step = steps[len(out) % len(steps)]
        match = _STEP_RE.fullmatch(step)
        value = int(match.group(4)) if match else value
        if out and rng.random() < 0.3:
            out.append(_filler(rng, value))
        else:
            out.append(_step_sentence(rng, step, len(out) + 1))
    return (" " if rng.random() < 0.5 else "\n").join(out)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


class PrepText(Workload):
    """decompose -> build-fim --rounds 3 -> stats, all through `cli.main`."""

    name = "prep-text"
    outputs = ("chains.jsonl", "rejects.jsonl", "fim.jsonl", "stats.json")

    def setup(self) -> None:
        spec = synth.CorpusSpec(count=self.count, seed=self.seed, ops_min=2, ops_max=6)
        problems = synth.generate(spec)
        rng = random.Random(f"prep-text\x1f{self.seed}")
        counts = sentence_counts(self.count)
        rng.shuffle(counts)
        self.records = [
            {"id": f"cot-{i:06d}", "question": p.question,
             "solution": render_solution(rng, p.fine_chain.texts, n)}
            for i, (p, n) in enumerate(zip(problems, counts))
        ]
        jsonl.write_jsonl(self.path("cot.jsonl"), self.records)

    def run_pass(self, max_in_flight: int, tracer: Tracer | None) -> None:
        _run_cli(["decompose", "--input", self.path("cot.jsonl"),
                  "--output", self.path("chains.jsonl"), "--rejects", self.path("rejects.jsonl")])
        _run_cli(["build-fim", "--input", self.path("chains.jsonl"),
                  "--output", self.path("fim.jsonl"), "--rounds", "3", "--seed", str(self.seed)])
        _run_cli(["stats", "--input", self.path("chains.jsonl"), "--output", self.path("stats.json")])

    def check(self, max_in_flight: int) -> PassResult:
        chains = _read(self.path("chains.jsonl"))
        samples = _read(self.path("fim.jsonl"))
        sampled_ids = {sample["source_id"] for sample in samples}
        skipped = sum(chain["id"] not in sampled_ids for chain in chains)
        self.last = PassResult(len(self.records), len(_read(self.path("rejects.jsonl"))) + skipped)

        by_id = {row["id"]: row for row in chains}
        for record in self.records:
            chain = by_id.get(record["id"])
            _require(chain is not None, f"prep-text: record {record['id']} has no chain")
            _require(chain["question"] == record["question"], f"{record['id']}: question changed")
            _require(_normalize_ws("\n".join(chain["steps"])) == _normalize_ws(record["solution"]),
                     f"prep-text: {record['id']} does not round-trip through decompose")
        _require(len(chains) == len(self.records), "prep-text: extra chains")

        sampled: dict[str, list[int]] = {}
        for sample in samples:
            sid = sample["source_id"]
            steps = by_id[sid]["steps"]
            parts = (sample["prefix"], sample["middle"], sample["suffix"])
            _require("\n".join(p for p in parts if p) == "\n".join(steps),
                     f"prep-text: FIM sample {sid}/{sample['round']} does not reassemble")
            i = sample["middle_index"]
            _require(sample["middle"] == steps[i], f"prep-text: {sid} middle is not step {i}")
            span = sample["psm_text"][sample["loss_char_start"]:sample["loss_char_end"]]
            _require(span == sample["middle"], f"prep-text: {sid} loss span does not slice middle")
            sampled.setdefault(sid, []).append(sample["round"])
        for sid in by_id:
            _require(sampled.get(sid) == [0, 1, 2], f"prep-text: {sid} lacks its 3 FIM rounds")

        _check_stats(self.path("stats.json"), chains)
        return self.last


# --- expand workloads -------------------------------------------------------


class _Synthetic(Workload):
    """A coarse synthetic corpus (ops 3..8, every other step dropped)."""

    def setup(self) -> None:
        _run_cli(["gen-synth", "--count", str(self.count), "--seed", str(self.seed),
                  "--out", self.dir, "--ops-min", "3", "--ops-max", "8"])
        self.coarse = _read(self.path("coarse.jsonl"))
        self.fine = _read(self.path("fine.jsonl"))
        self.coarse_gaps = sum(len(r["steps"]) - 1 for r in self.coarse)
        self.fine_gaps = sum(len(r["steps"]) - 1 for r in self.fine)

    def _check_rebuilt(self) -> None:
        _require(_sha(self.path("expanded.jsonl")) == _sha(self.path("fine.jsonl")),
                 f"{self.name}: expanded corpus is not byte-identical to fine.jsonl")


def _count_gaps(reports: list[dict[str, Any]]) -> PassResult:
    """Gaps attempted plus records that failed whole; gaps errored plus those records."""
    gaps = sum(r["attempted"] for r in reports)
    errored = sum(r["errored"] for r in reports)
    bad_records = sum(r["error"] is not None for r in reports)
    return PassResult(gaps + bad_records, errored + bad_records)


class ExpandCpu(_Synthetic):
    """stats, expand --backend oracle --iterations 2, stats, compare via `cli.main`."""

    name = "expand-cpu"
    outputs = ("before.json", "expanded.jsonl", "report.jsonl", "after.json", "compare.json")

    def run_pass(self, max_in_flight: int, tracer: Tracer | None) -> None:
        expand_argv = ["expand", "--input", self.path("coarse.jsonl"),
                       "--output", self.path("expanded.jsonl"), "--report", self.path("report.jsonl"),
                       "--backend", "oracle", "--iterations", "2"]
        if max_in_flight != cli.DEFAULTS["expand"]["max_in_flight"]:
            expand_argv += ["--max-in-flight", str(max_in_flight)]
        _run_cli(["stats", "--input", self.path("coarse.jsonl"), "--output", self.path("before.json")])
        _run_cli(expand_argv)
        _run_cli(["stats", "--input", self.path("expanded.jsonl"), "--output", self.path("after.json")])
        _run_cli(["compare", "--before", self.path("before.json"), "--after", self.path("after.json"),
                  "--output", self.path("compare.json")])

    def check(self, max_in_flight: int) -> PassResult:
        report = _read(self.path("report.jsonl"))
        lines = report[1:]
        self.last = _count_gaps(lines)
        self._check_rebuilt()
        _require("config" in report[0], "expand-cpu: report lacks its config line")
        _require(len(lines) == 2 * len(self.coarse), "expand-cpu: expected two report lines a record")
        for line, coarse, fine in zip(lines[0::2], self.coarse, self.fine):
            _require(line["inserted"] == len(fine["steps"]) - len(coarse["steps"]),
                     f"expand-cpu: round 1 of {coarse['id']} did not fill every dropped step")
        for line in lines[1::2]:
            _require(line["inserted"] == 0 and line["invalid"] == line["attempted"],
                     f"expand-cpu: round 2 of {line['record_id']} was not rejected by the gate")
        _require(self.last.items == self.coarse_gaps + self.fine_gaps,
                 f"expand-cpu: {self.last.items} gaps attempted, corpus has "
                 f"{self.coarse_gaps + self.fine_gaps}")

        before = _check_stats(self.path("before.json"), self.coarse)
        after = _check_stats(self.path("after.json"), self.fine)
        with open(self.path("compare.json"), encoding="utf-8") as handle:
            delta = json.load(handle)
        for key in ("samples", "avg_tokens", "total_tokens", "avg_steps"):
            pct = (after[key] - before[key]) / before[key] * 100.0
            _require(math.isclose(delta[f"{key}_pct"], pct, rel_tol=1e-12, abs_tol=1e-12),
                     f"expand-cpu: compare {key}_pct {delta[f'{key}_pct']} != {pct}")
            _require(delta["formatted"][key] == f"{pct:+.2f}%", f"expand-cpu: compare {key} text")
        return self.last


class ExpandLatency(_Synthetic):
    """`expand.expand_records` at --iterations 1 against the simulated model."""

    name = "expand-latency"
    outputs = ("expanded.jsonl",)
    waits = True

    def setup(self) -> None:
        super().setup()
        self.latencies_ms = schedule(self.seed, gap_request_ids(self.coarse))

    def run_pass(self, max_in_flight: int, tracer: Tracer | None) -> None:
        backend: Any = LatencyBackend(self.latencies_ms)
        if tracer is not None:
            backend = TracedBackend(tracer, backend)
        config = expand.ExpansionConfig(max_in_flight=max_in_flight, iterations=1)
        self._reports: list[expand.ExpansionReport] = []
        rows = jsonl.read_jsonl(self.path("coarse.jsonl"))
        with open(self.path("expanded.jsonl"), "w", encoding="utf-8", newline="\n") as out:
            for row, reports in expand.expand_records(rows, backend, config):
                out.write(jsonl.dumps_line(row))
                self._reports += reports

    def check(self, max_in_flight: int) -> PassResult:
        self.last = _count_gaps([r.to_dict(include_proposals=False) for r in self._reports])
        self._check_rebuilt()
        _require(self.last.items == self.coarse_gaps,
                 f"expand-latency: {self.last.items} gaps attempted, corpus has {self.coarse_gaps}")
        return self.last


WORKLOADS = {w.name: w for w in (PrepText, ExpandCpu, ExpandLatency)}
