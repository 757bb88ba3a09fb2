"""stepfim benchmark: one workload, timed or traced, checked for correctness.

    python3 perfbench/run.py --workload expand-cpu --seed 1 --seconds 35 --trace 0

Run from the root of a stepfim checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. The exit code is 0 when every
output checked correct, 1 when a check failed and 2 when the program or an
argument is missing. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fewest timed passes per run, however short --seconds is
MIN_PASSES = 3
# set-up time per round in a timed run: short set-ups repeat until it is
# reached, so that setup_s is a median of enough samples
SETUP_S_PER_ROUND = 0.25


def _import_program() -> None:
    """Import stepfim from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import stepfim
    except ImportError as exc:
        print(f"perfbench: cannot import stepfim from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(stepfim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: stepfim was imported from {stepfim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier, for smoke tests only")
    return parser.parse_args(argv)


def stolen_s() -> float:
    """Seconds the host has so far withheld from this machine's CPUs, summed.

    This is the steal time of /proc/stat: time a virtual CPU had work but
    the host ran something else. It reads 0 where the kernel reports none.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Clock:
    """Wall time less steal time, and process CPU time, of one timed span.

    Steal is the host's doing, not the program's. While the span keeps a CPU
    busy, each stolen second lengthens it by a second, so steal is taken out
    of its wall time. Steal is summed over CPUs, so the result is held to no
    less than the span's CPU time, which one interpreter needs in any case.
    A span that mostly waits on sleeping threads (`take_out_steal=False`)
    keeps its wall time: the steal of their wake-ups overlaps the waits of
    the others, and taking it out would shorten the span by more than it
    lost.
    """

    def __init__(self, take_out_steal: bool = True) -> None:
        self.take_out_steal = take_out_steal

    def __enter__(self) -> "Clock":
        self._start = time.perf_counter(), time.process_time(), stolen_s()
        return self

    def __exit__(self, *exc) -> None:
        wall0, cpu0, stolen0 = self._start
        self.raw_wall = time.perf_counter() - wall0
        self.cpu = time.process_time() - cpu0
        self.stolen = stolen_s() - stolen0
        self.wall = self.raw_wall
        if self.take_out_steal:
            self.wall = max(self.raw_wall - self.stolen, min(self.cpu, self.raw_wall))


class Timing:
    """Wall and CPU seconds, work items and failures of timed passes."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.stolen: list[float] = []
        self.items = 0
        self.failed = 0
        self.per_pass_items = 1

    def run(self, workload, max_in_flight: int, tracer=None) -> None:
        """Time one pass, traced when a tracer is given, then verify it untimed."""
        from tracing import installed

        with Clock(take_out_steal=not workload.waits) as clock:
            if tracer is None:
                workload.run_pass(max_in_flight, None)
            else:
                with installed(tracer):
                    workload.run_pass(max_in_flight, tracer)
        self.walls.append(clock.wall)
        self.cpus.append(clock.cpu)
        self.stolen.append(clock.stolen)
        result = workload.verify(max_in_flight)
        self.items += result.items
        self.failed += result.failed
        self.per_pass_items = result.items

    def record(self) -> dict:
        return {"items": self.per_pass_items, "wall_s": self.walls, "cpu_s": self.cpus,
                "stolen_s": self.stolen}

    def items_per_s(self) -> float:
        return statistics.median(self.per_pass_items / w for w in self.walls)

    def cpu_ms_per_item(self) -> float:
        return statistics.median(c * 1000.0 / self.per_pass_items for c in self.cpus)


def _machine() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
    }


def run(args: argparse.Namespace) -> tuple[bool, int, int, dict]:
    from stepfim import cli
    from workloads import SIZES, WORKLOADS, CheckFailed, PassResult
    import tracing

    default_mif = cli.DEFAULTS["expand"]["max_in_flight"]

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](str(work), args.seed, args.scale)
    print(json.dumps({"info": {**_machine(), "workload": args.workload, "seed": args.seed,
                               "records": workload.count, "scale": args.scale,
                               "sizes": SIZES, "trace": args.trace}}), flush=True)
    timings: list[Timing] = []
    metrics: dict = {}
    try:
        setups: list[float] = []

        def set_up() -> None:
            gc.collect()
            with Clock() as clock:
                workload.setup()
            setups.append(clock.wall)

        deadline = time.perf_counter() + args.seconds
        if args.trace == 0:
            # a set-up before every pass, so that set-up time is sampled
            # across the whole run as the passes are
            timing = Timing()
            timings.append(timing)
            while len(timing.walls) < MIN_PASSES or time.perf_counter() < deadline:
                round_start = len(setups)
                while sum(setups[round_start:]) < SETUP_S_PER_ROUND:
                    set_up()
                timing.run(workload, default_mif)
            print(json.dumps({"passes": {**timing.record(), "setup_s": setups}}), flush=True)
            metrics = {
                "items_per_s": (timing.items_per_s(), "items/s"),
                "cpu_ms_per_item": (timing.cpu_ms_per_item(), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setups), "s"),
                "ok_frac": (1.0 - timing.failed / timing.items, "ratio"),
            }
        else:
            # untraced, traced and (on expand-*) serial passes take turns, so
            # drift in machine speed falls on all three alike
            plain, traced, serial = Timing(), Timing(), Timing()
            timings += (plain, traced, serial)
            passes: list = []
            is_expand = args.workload.startswith("expand")
            set_up()
            while not passes or time.perf_counter() < deadline:
                plain.run(workload, default_mif)
                passes.append(tracing.Tracer())
                traced.run(workload, default_mif, passes[-1])
                if is_expand:
                    serial.run(workload, 1)
            named = (("untraced", plain), ("traced", traced), ("serial", serial))
            print(json.dumps({"passes": {name: t.record() for name, t in named if t.walls}}),
                  flush=True)
            layer = tracing.combine(passes)
            layer["expand.serial_items_per_s"] = serial.items_per_s() if is_expand else 0.0
            layer["trace.overhead_frac"] = 1.0 - traced.items_per_s() / plain.items_per_s()
            layer["failed_frac"] = sum(t.failed for t in timings) / sum(t.items for t in timings)
            spans_dir = HERE / ".work" / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracing.write_spans(str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"), passes)
            metrics = {name: (value, UNITS[name]) for name, value in layer.items()}
        return True, sum(t.items for t in timings), sum(t.failed for t in timings), metrics
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        last = workload.last or PassResult(1, 0)
        attempted = sum(t.items for t in timings) + last.items
        return False, attempted, sum(t.failed for t in timings) + last.failed, metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)


# unit of every per-layer metric
UNITS = {
    **{name: "count" for name in (
        "decompose.calls", "fim.sample_fim.calls", "fim.samples_out", "jsonl.read.rows",
        "jsonl.write.rows", "similarity.gate.calls",
        "synth.oracle_fill.calls", "synth.fine_steps.calls", "backends.fill.calls",
        "backends.request_id.calls", "expand.expand_chain.calls", "expand.gaps_attempted",
        "expand.decisions.valid", "expand.decisions.invalid", "expand.decisions.malformed",
        "expand.decisions.backend_error", "expand.inflight_max")},
    **{name: "s" for name in (
        "decompose.busy_s", "fim.busy_s", "jsonl.read.busy_s", "jsonl.write.busy_s",
        "similarity.busy_s", "synth.oracle_fill.busy_s", "synth.fine_steps.busy_s",
        "backends.fill.busy_s", "backends.request_id.busy_s", "expand.self_s", "stats.busy_s",
        "cli.decompose.wall_s", "cli.build-fim.wall_s", "cli.expand.wall_s",
        "cli.stats.wall_s", "cli.compare.wall_s")},
    "decompose.chars_per_s": "chars/s",
    "similarity.chars_in": "chars",
    "jsonl.write.bytes": "bytes",
    "similarity.accept_ratio": "ratio",
    "backends.fill.p50_ms": "ms",
    "backends.fill.p99_ms": "ms",
    "backends.request_id.per_gap": "count",
    "expand.inflight_mean": "count",
    "expand.serial_items_per_s": "items/s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    correct, attempted, failed, metrics = run(args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
