"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from stepfim.expand import ExpansionConfig, requests_for_chain  # noqa: E402
from stepfim.synth import CorpusSpec, generate  # noqa: E402

from latency import gap_request_ids, schedule  # noqa: E402
from tracing import Span, max_overlap, self_times, union_length  # noqa: E402
from workloads import WORKLOADS, sentence_counts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_latency_schedule_is_identical_for_equal_seeds():
    problems = generate(CorpusSpec(count=30, seed=5, ops_min=3, ops_max=8))
    rows = [{"question": p.question, "steps": list(p.coarse_chain.texts)} for p in problems]
    ids = gap_request_ids(rows)
    assert ids == [
        request.request_id
        for p in problems
        for _, request in requests_for_chain(p.question, p.coarse_chain, ExpansionConfig())
    ]

    first = schedule(11, ids)
    assert first == schedule(11, reversed(ids))
    other = schedule(12, ids)
    assert first != other
    assert sorted(first.values()) == sorted(other.values())
    assert set(first) == set(ids)
    assert all(0.0 < ms <= 100.0 for ms in first.values())


def test_sentence_counts_spread_evenly_over_the_range():
    counts = sentence_counts(980)
    assert min(counts) == 3 and max(counts) == 100
    assert all(counts.count(n) == 10 for n in range(3, 101))


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),  # overlaps span 3, as two worker threads would
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 8.0, 9.0, parent=1),
        _span(5, 2.0, 3.0, parent=2),  # grandchild: counts against 2, not 1
        _span(6, 9.5, 12.0, parent=1),  # outlives its parent: clipped to it
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.0)
    assert got[6] == pytest.approx(2.5)


def test_union_and_overlap_of_intervals():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]
    assert union_length(intervals, 0.0, 10.0) == pytest.approx(4.0)
    assert union_length(intervals, 1.5, 5.6) == pytest.approx(2.1)
    assert union_length([], 0.0, 1.0) == 0.0
    assert max_overlap(intervals) == 2
    assert max_overlap([(0.0, 1.0), (1.0, 2.0)]) == 1


def test_clock_takes_out_steal_but_not_below_cpu_time(monkeypatch):
    import run

    readings = iter([0.0, 0.05])
    monkeypatch.setattr(run, "stolen_s", lambda: next(readings))
    with run.Clock() as waiting:
        time.sleep(0.1)
    assert waiting.wall == pytest.approx(waiting.raw_wall - 0.05)

    readings = iter([0.0, 10.0])
    with run.Clock() as busy:
        sum(range(10**6))
    assert busy.wall == min(busy.cpu, busy.raw_wall)

    readings = iter([0.0, 0.05])
    with run.Clock(take_out_steal=False) as plain:
        time.sleep(0.01)
    assert plain.wall == plain.raw_wall
