"""A simulated model: the oracle backend behind a heavy-tailed sleep.

The latencies are a stand-in, not a measured model. The median is the
10 ms of the sleep-wrapped oracle that the roadmap's expand baselines use.
The log-normal shape, its sigma and the cap are assumptions that give the
stand-in a tail (p99 about 6x the median), so that a chain's slowest gap
matters; replace them with a measured latency trace once one is checked in.

Each corpus gets the distribution's quantiles at evenly spaced ranks,
dealt out to its requests in the order of sha256(seed, request id). So
equal seeds give the same schedule on every run and in every thread
interleaving, and every seed gets the same multiset of latencies: only
which gap waits how long varies.
Independent draws would let a seed's few slowest chains move throughput by
several percent.
"""

from __future__ import annotations

import hashlib
import math
import time
from statistics import NormalDist
from typing import Iterable

from stepfim.backends import FimRequest, OracleBackend, request_id_for

MEDIAN_MS = 10.0
SIGMA = 0.8
CAP_MS = 100.0


def schedule(seed: int, request_ids: Iterable[str]) -> dict[str, float]:
    """Simulated latency in milliseconds for each distinct request id."""
    order = sorted(
        set(request_ids),
        key=lambda rid: hashlib.sha256(f"{seed}\x1f{rid}".encode("utf-8")).digest(),
    )
    normal = NormalDist()
    return {
        rid: min(CAP_MS, MEDIAN_MS * math.exp(SIGMA * normal.inv_cdf((rank + 0.5) / len(order))))
        for rank, rid in enumerate(order)
    }


def gap_request_ids(rows: Iterable[dict]) -> list[str]:
    """Request ids of every interior gap of `{question, steps}` records."""
    return [
        request_id_for(row["question"], tuple(row["steps"][:i]), tuple(row["steps"][i:]))
        for row in rows
        for i in range(1, len(row["steps"]))
    ]


class LatencyBackend:
    """Sleeps the scheduled latency, then answers like `OracleBackend`.

    The request id is hashed with the function bound at import, so the
    simulation's own hashing never shows in the traced request-id counts.
    A request outside the schedule raises KeyError, which `expand` records
    as a backend error.
    """

    def __init__(self, latencies_ms: dict[str, float]) -> None:
        self._latencies_ms = latencies_ms
        self._oracle = OracleBackend()

    def fill(self, request: FimRequest) -> str:
        rid = request_id_for(request.question, request.prefix_steps, request.suffix_steps)
        time.sleep(self._latencies_ms[rid] / 1000.0)
        return self._oracle.fill(request)
