"""Command-line interface: the pipeline as composable subcommands.

Subcommands exchange data through JSONL files only; there is no state
between invocations. Every run echoes its effective configuration to
stderr as one JSON line, so any output file can be traced back to the
exact knobs that produced it. Flags override config-file values, which
override built-in defaults.

Exit codes: 0 success, 1 usage or config error, 2 I/O or data error,
3 expansion backend unreachable.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from typing import Any, Callable, TextIO
from urllib.parse import urlparse

from stepfim.backends import BackendConfig, BadFixture, make_backend
from stepfim.decompose import DecomposeConfig, chain_record, decompose
from stepfim.expand import ExpansionConfig, expand_records
from stepfim.fim import SamplerConfig, sample_fim
from stepfim.jsonl import JsonlError, dumps_line, read_jsonl
from stepfim.stats import CorpusStats, EmptyCorpus, MalformedRecord, diff_stats, stats
from stepfim.synth import CorpusSpec, generate


class UsageError(ValueError):
    """Bad flags, bad config values, or missing required settings."""


class DataError(RuntimeError):
    """Input files exist but their content is unusable."""


class BackendUnreachable(RuntimeError):
    """The remote completion endpoint did not accept a connection."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for I/O."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Per-subcommand defaults. None marks "must be provided by flag or config".
DEFAULTS: dict[str, dict[str, Any]] = {
    "decompose": {
        "input": None,
        "output": None,
        "rejects": "",
        "min_step_chars": 10,
    },
    "build-fim": {
        "input": None,
        "output": None,
        "rounds": 3,
        "seed": None,
    },
    "expand": {
        "input": None,
        "output": None,
        "report": "",
        "backend": None,
        "eta": 0.8,
        "iterations": 1,
        "include_leading_gap": False,
        "max_in_flight": 4,
        "retry_limit": 2,
        "endpoint_url": "",
        "auth_token_env": "",
        "timeout_ms": 30_000,
        "backoff_ms": 250,
        "fixture_path": "",
        "max_new_chars": 2_000,
    },
    "gen-synth": {
        "count": None,
        "seed": None,
        "out": None,
        "drop": "every-other",
        "drop_k": 1,
        "ops_min": 2,
        "ops_max": 4,
        "operand_min": 2,
        "operand_max": 99,
        "operators": "+-*",
    },
    "stats": {
        "input": None,
        "tokenizer": "whitespace",
        "output": "",
    },
    "compare": {
        "before": None,
        "after": None,
        "output": "",
    },
}

_ALL_KEYS = {key for table in DEFAULTS.values() for key in table}


def build_parser() -> _Parser:
    parser = _Parser(prog="stepfim", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="split solutions into step chains")
    p.add_argument("--input", help="CoT records JSONL: id, question, solution")
    p.add_argument("--output", help="step chains JSONL: id, question, steps")
    p.add_argument("--rejects", help="where to write records that failed to split")
    p.add_argument("--min-step-chars", type=int, help="fold shorter fragments into their neighbor")

    p = sub.add_parser("build-fim", help="hold out one step per round as the middle")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--output", help="FIM samples JSONL")
    p.add_argument("--rounds", type=int, help="samples per chain (default 3)")
    p.add_argument("--seed", type=int, help="sampling seed (required)")

    p = sub.add_parser("expand", help="insert generated intermediate steps")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--output", help="expanded chains JSONL")
    p.add_argument("--report", help="per-record expansion report JSONL")
    p.add_argument("--backend", choices=["http", "oracle", "replay"])
    p.add_argument("--eta", type=float, help="similarity threshold (default 0.8)")
    p.add_argument("--iterations", type=int, help="expansion rounds (default 1)")
    p.add_argument("--include-leading-gap", action=argparse.BooleanOptionalAction,
                   help="also fill the gap before the first step")
    p.add_argument("--max-in-flight", type=int,
                   help="backend requests in flight at once, across records; output stays "
                        "in input order, reading up to 4x this many records ahead (default 4)")
    p.add_argument("--retry-limit", type=int,
                   help="HTTP retries of a transient failure after the first attempt "
                        "(http backend; default 2)")
    p.add_argument("--endpoint-url", help="completion endpoint (http backend)")
    p.add_argument("--auth-token-env", help="env var holding the bearer token (http backend)")
    p.add_argument("--timeout-ms", type=int)
    p.add_argument("--backoff-ms", type=int)
    p.add_argument("--fixture-path", help="recorded responses JSONL (replay backend)")
    p.add_argument("--max-new-chars", type=int,
                   help="sent as the endpoint's max_tokens, and the completion is also cut "
                        "to this many characters (http backend; default 2000)")

    p = sub.add_parser("gen-synth", help="generate a verifiable arithmetic corpus")
    p.add_argument("--count", type=int, help="number of problems (required)")
    p.add_argument("--seed", type=int, help="generation seed (required)")
    p.add_argument("--out", help="output directory for coarse/fine/dropped JSONL")
    p.add_argument("--drop", choices=["every-other", "random-k"], help="which fine steps to omit")
    p.add_argument("--drop-k", type=int, help="steps to omit per problem (random-k)")
    p.add_argument("--ops-min", type=int)
    p.add_argument("--ops-max", type=int)
    p.add_argument("--operand-min", type=int)
    p.add_argument("--operand-max", type=int)
    p.add_argument("--operators", help="operator characters, e.g. '+-*'")

    p = sub.add_parser("stats", help="summarize a step-chain corpus")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--tokenizer", help="token counting scheme (default whitespace)")
    p.add_argument("--output", help="write the JSON summary here instead of stdout")

    p = sub.add_parser("compare", help="percentage deltas between two stats files")
    p.add_argument("--before", help="stats JSON file")
    p.add_argument("--after", help="stats JSON file")
    p.add_argument("--output", help="write the JSON delta here instead of stdout")

    # accept --config after the subcommand too; SUPPRESS keeps an absent
    # trailing flag from clobbering one given before the subcommand
    for p in sub.choices.values():
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="flat JSON config file; flags override its values")

    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a flat JSON object")
    unknown = sorted(set(data) - _ALL_KEYS)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {unknown}")
    return data


def effective_config(cmd: str, args: argparse.Namespace, file_cfg: dict[str, Any]) -> dict[str, Any]:
    """defaults <- config file <- explicit flags, for this subcommand's keys."""
    merged = dict(DEFAULTS[cmd])
    for key in merged:
        if key in file_cfg:
            merged[key] = file_cfg[key]
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    missing = sorted(key for key, value in merged.items() if value is None)
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise UsageError(f"{cmd} requires {flags} (by flag or config file)")
    return merged


def _echo_config(cmd: str, cfg: dict[str, Any]) -> None:
    line = json.dumps({"subcommand": cmd, "config": cfg}, ensure_ascii=False)
    print(line, file=sys.stderr)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _open_out(path: str) -> TextIO:
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_json(payload: dict[str, Any], path: str) -> None:
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if path:
        with _open_out(path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_decompose(cfg: dict[str, Any]) -> int:
    dconf = DecomposeConfig(min_step_chars=cfg["min_step_chars"])
    kept = rejected = 0
    rejects_handle = _open_out(cfg["rejects"]) if cfg["rejects"] else None
    try:
        with _open_out(cfg["output"]) as out:
            for row in read_jsonl(cfg["input"]):
                try:
                    chain = decompose(row["solution"], dconf)
                    line = dumps_line(
                        {"id": row["id"], "question": row["question"], "steps": list(chain.texts)}
                    )
                except (KeyError, ValueError) as exc:
                    rejected += 1
                    if rejects_handle is not None:
                        rejects_handle.write(
                            dumps_line({**row, "error": f"{type(exc).__name__}: {exc}"})
                        )
                    continue
                out.write(line)
                kept += 1
    finally:
        if rejects_handle is not None:
            rejects_handle.close()
    _note(f"decompose: {kept} chains written, {rejected} records rejected")
    return 0


def cmd_build_fim(cfg: dict[str, Any]) -> int:
    sampler = SamplerConfig(rounds=cfg["rounds"], seed=cfg["seed"])
    written = skipped = 0
    with _open_out(cfg["output"]) as out:
        for row in read_jsonl(cfg["input"]):
            try:
                question, chain = chain_record(row)
                samples = sample_fim(chain, question, sampler, source_id=str(row["id"]))
            except (KeyError, ValueError) as exc:
                skipped += 1
                _note(f"build-fim: skipping record {row.get('id')!r}: {exc}")
                continue
            for sample in samples:
                out.write(dumps_line(sample.to_dict()))
                written += 1
    _note(f"build-fim: {written} samples written, {skipped} records skipped")
    return 0


def _probe_endpoint(url: str, timeout_s: float = 5.0) -> None:
    parsed = urlparse(url)
    host = parsed.hostname
    if not host:
        raise UsageError(f"endpoint URL {url!r} has no host")
    port = parsed.port or (443 if parsed.scheme == "https" else 80)
    try:
        socket.create_connection((host, port), timeout=timeout_s).close()
    except OSError as exc:
        raise BackendUnreachable(f"cannot reach {host}:{port}: {exc}") from exc


def cmd_expand(cfg: dict[str, Any]) -> int:
    bconf = BackendConfig(
        kind=cfg["backend"],
        endpoint_url=cfg["endpoint_url"],
        auth_token_env=cfg["auth_token_env"],
        timeout_ms=cfg["timeout_ms"],
        retry_limit=cfg["retry_limit"],
        backoff_ms=cfg["backoff_ms"],
        fixture_path=cfg["fixture_path"],
        max_new_chars=cfg["max_new_chars"],
    )
    if bconf.kind == "http":
        _probe_endpoint(bconf.endpoint_url)
    backend = make_backend(bconf)
    econf = ExpansionConfig(
        eta=cfg["eta"],
        iterations=cfg["iterations"],
        include_leading_gap=cfg["include_leading_gap"],
        max_in_flight=cfg["max_in_flight"],
    )

    counts = {"records": 0, "failed_records": 0, "inserted": 0, "invalid": 0,
              "malformed": 0, "errored": 0}
    started = time.perf_counter()
    report_handle = _open_out(cfg["report"]) if cfg["report"] else None
    try:
        if report_handle is not None:
            report_handle.write(dumps_line({"config": cfg}))
        with _open_out(cfg["output"]) as out:
            for row, reports in expand_records(read_jsonl(cfg["input"]), backend, econf):
                out.write(dumps_line(row))
                counts["records"] += 1
                for report in reports:
                    if report.error is not None:
                        counts["failed_records"] += 1
                    counts["inserted"] += report.inserted
                    counts["invalid"] += report.invalid
                    counts["malformed"] += report.malformed
                    counts["errored"] += report.errored
                    if report_handle is not None:
                        report_handle.write(
                            dumps_line(report.to_dict(include_timing=False))
                        )
    finally:
        if report_handle is not None:
            report_handle.close()
    elapsed = time.perf_counter() - started
    _note(
        "expand: {records} records ({failed_records} failed), "
        "{inserted} inserted / {invalid} invalid / {malformed} malformed / "
        "{errored} errored, {secs:.2f}s".format(secs=elapsed, **counts)
    )
    return 0


def cmd_gen_synth(cfg: dict[str, Any]) -> int:
    operators = cfg["operators"]
    if isinstance(operators, str):
        operators = tuple(ch for ch in operators if ch not in ", ")
    spec = CorpusSpec(
        count=cfg["count"],
        seed=cfg["seed"],
        ops_min=cfg["ops_min"],
        ops_max=cfg["ops_max"],
        operand_min=cfg["operand_min"],
        operand_max=cfg["operand_max"],
        operators=tuple(operators),
        drop=cfg["drop"],
        drop_k=cfg["drop_k"],
    )
    problems = generate(spec)
    os.makedirs(cfg["out"], exist_ok=True)
    paths = {name: os.path.join(cfg["out"], f"{name}.jsonl") for name in ("coarse", "fine", "dropped")}
    with _open_out(paths["coarse"]) as coarse, _open_out(paths["fine"]) as fine, \
            _open_out(paths["dropped"]) as dropped:
        for prob in problems:
            coarse.write(dumps_line(
                {"id": prob.id, "question": prob.question, "steps": list(prob.coarse_chain.texts)}
            ))
            fine.write(dumps_line(
                {"id": prob.id, "question": prob.question, "steps": list(prob.fine_chain.texts)}
            ))
            dropped.write(dumps_line({"id": prob.id, "dropped_indices": list(prob.dropped_indices)}))
    _note(f"gen-synth: {len(problems)} problems written to {cfg['out']}")
    return 0


def cmd_stats(cfg: dict[str, Any]) -> int:
    summary = stats(read_jsonl(cfg["input"]), tokenizer_id=cfg["tokenizer"])
    _write_json(summary.to_dict(), cfg["output"])
    _note(f"stats: {summary.samples} records summarized")
    return 0


def _load_stats_file(path: str) -> CorpusStats:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return CorpusStats.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a stats summary: {exc}") from exc


def cmd_compare(cfg: dict[str, Any]) -> int:
    before = _load_stats_file(cfg["before"])
    after = _load_stats_file(cfg["after"])
    delta = diff_stats(before, after)
    _write_json(delta.to_dict(), cfg["output"])
    _note("compare: done")
    return 0


HANDLERS: dict[str, Callable[[dict[str, Any]], int]] = {
    "decompose": cmd_decompose,
    "build-fim": cmd_build_fim,
    "expand": cmd_expand,
    "gen-synth": cmd_gen_synth,
    "stats": cmd_stats,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
        cfg = effective_config(args.cmd, args, file_cfg)
        _echo_config(args.cmd, cfg)
        return HANDLERS[args.cmd](cfg)
    except UsageError as exc:
        _note(f"error: {exc}")
        return 1
    except BackendUnreachable as exc:
        _note(f"error: {exc}")
        return 3
    except (DataError, JsonlError, EmptyCorpus, MalformedRecord, BadFixture, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except ValueError as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
