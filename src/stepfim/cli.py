"""Command-line interface: the pipeline as composable subcommands.

Subcommands exchange data through JSONL files only; there is no state
between invocations. Every run echoes its effective configuration to
stderr as one JSON line, so any output file can be traced back to the
exact knobs that produced it. Flags override config-file values, which
override built-in defaults.

Exit codes: 0 success, 1 usage or config error, 2 I/O or data error,
3 expansion backend unreachable (or every gap an expand run tried ended
in backend_error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import socket
import sys
import time
from typing import Any, Callable, TextIO
from urllib.parse import urlparse

from stepfim.backends import BACKEND_KINDS, BackendConfig, BadFixture, make_backend
from stepfim.decompose import DecomposeConfig, chain_record, decompose, record_question
from stepfim.expand import ExpansionConfig, expand_records, fill_slots
from stepfim.fim import SamplerConfig, sample_fim
from stepfim.jsonl import JsonlError, dumps_line, read_jsonl
from stepfim.stats import CorpusStats, EmptyCorpus, MalformedRecord, diff_stats, stats
from stepfim.synth import DROP_PATTERNS, CorpusSpec, generate


class UsageError(ValueError):
    """Bad flags, bad config values, or missing required settings."""


class DataError(RuntimeError):
    """Input files exist but their content is unusable."""


class BackendUnreachable(RuntimeError):
    """The remote completion endpoint did not accept a connection."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for I/O."""

    commands: dict[str, "_Parser"]  # the subcommand parsers, set by build_parser

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """Every option, declared once with its type, choices and default.

    A default of None marks a setting that a flag or the config file must
    provide. Defaults that feed a config dataclass are read from its field.
    """
    parser = _Parser(prog="stepfim", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="split solutions into step chains")
    p.add_argument("--input", help="CoT records JSONL: id, question, solution")
    p.add_argument("--output", help="step chains JSONL: id, question, steps")
    p.add_argument("--rejects", default="", help="where to write records that failed to split")
    p.add_argument("--min-step-chars", type=int, default=DecomposeConfig.min_step_chars,
                   help="fold shorter fragments into their neighbor (default %(default)s)")

    p = sub.add_parser("build-fim", help="hold out one step per round as the middle")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--output", help="FIM samples JSONL")
    p.add_argument("--rounds", type=int, default=SamplerConfig.rounds,
                   help="samples per chain (default %(default)s)")
    p.add_argument("--seed", type=int, help="sampling seed (required)")

    p = sub.add_parser("expand", help="insert generated intermediate steps")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--output", help="expanded chains JSONL")
    p.add_argument("--report", default="", help="per-record expansion report JSONL")
    p.add_argument("--backend", choices=BACKEND_KINDS)
    p.add_argument("--eta", type=float, default=ExpansionConfig.eta,
                   help="similarity threshold (default %(default)s)")
    p.add_argument("--iterations", type=int, default=ExpansionConfig.iterations,
                   help="expansion rounds (default %(default)s)")
    p.add_argument("--include-leading-gap", action=argparse.BooleanOptionalAction,
                   default=ExpansionConfig.include_leading_gap,
                   help="also fill the gap before the first step")
    p.add_argument("--max-in-flight", type=int, default=ExpansionConfig.max_in_flight,
                   help="worker threads for a backend that waits (http), each expanding "
                        "one whole record at a time, its gaps one by one; oracle and replay "
                        "fill one gap at a time on the main thread; output stays in input "
                        "order, reading up to 4 records per worker ahead (default %(default)s)")
    p.add_argument("--retry-limit", type=int, default=BackendConfig.retry_limit,
                   help="HTTP retries of a transient failure after the first attempt "
                        "(http backend; default %(default)s)")
    p.add_argument("--endpoint-url", default=BackendConfig.endpoint_url,
                   help="completion endpoint (http backend)")
    p.add_argument("--auth-token-env", default=BackendConfig.auth_token_env,
                   help="env var holding the bearer token (http backend)")
    p.add_argument("--timeout-ms", type=int, default=BackendConfig.timeout_ms,
                   help="per-request timeout (http backend; default %(default)s)")
    p.add_argument("--backoff-ms", type=int, default=BackendConfig.backoff_ms,
                   help="wait before retry n is n times this (http backend; default %(default)s)")
    p.add_argument("--fixture-path", default=BackendConfig.fixture_path,
                   help="recorded responses JSONL (replay backend)")
    p.add_argument("--max-new-chars", type=int, default=BackendConfig.max_new_chars,
                   help="sent as the endpoint's max_tokens, and the completion is also cut "
                        "to this many characters (http backend; default %(default)s)")

    p = sub.add_parser("gen-synth", help="generate a verifiable arithmetic corpus")
    p.add_argument("--count", type=int, help="number of problems (required)")
    p.add_argument("--seed", type=int, help="generation seed (required)")
    p.add_argument("--out", help="output directory for coarse/fine/dropped JSONL")
    p.add_argument("--drop", choices=DROP_PATTERNS, default=CorpusSpec.drop,
                   help="which fine steps to omit (default %(default)s)")
    p.add_argument("--drop-k", type=int, default=CorpusSpec.drop_k,
                   help="steps to omit per problem (random-k; default %(default)s)")
    p.add_argument("--ops-min", type=int, default=CorpusSpec.ops_min)
    p.add_argument("--ops-max", type=int, default=CorpusSpec.ops_max)
    p.add_argument("--operand-min", type=int, default=CorpusSpec.operand_min)
    p.add_argument("--operand-max", type=int, default=CorpusSpec.operand_max)
    p.add_argument("--operators", default="".join(CorpusSpec.operators),
                   help="operator characters (default '%(default)s')")

    p = sub.add_parser("stats", help="summarize a step-chain corpus")
    p.add_argument("--input", help="step chains JSONL")
    p.add_argument("--tokenizer", default="whitespace",
                   help="token counting scheme (default %(default)s)")
    p.add_argument("--output", default="", help="write the JSON summary here instead of stdout")

    p = sub.add_parser("compare", help="percentage deltas between two stats files")
    p.add_argument("--before", help="stats JSON file")
    p.add_argument("--after", help="stats JSON file")
    p.add_argument("--output", default="", help="write the JSON delta here instead of stdout")

    # accept --config after the subcommand too; SUPPRESS keeps an absent
    # trailing flag from clobbering one given before the subcommand
    for p in sub.choices.values():
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="flat JSON config file; flags override its values")

    parser.commands = sub.choices
    return parser


def _options(command: _Parser) -> list[argparse.Action]:
    """The settings of one subcommand, in declaration order."""
    return [action for action in command._actions if action.dest not in ("help", "config")]


# Per-subcommand defaults, read off the parser. None marks "must be
# provided by flag or config".
DEFAULTS: dict[str, dict[str, Any]] = {
    cmd: {action.dest: action.default for action in _options(command)}
    for cmd, command in build_parser().commands.items()
}

_ALL_KEYS = {key for table in DEFAULTS.values() for key in table}

# the JSON types a config-file value may take, by its flag's type
_VALUE_KINDS: dict[Any, tuple[tuple[type, ...], str]] = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    None: ((str,), "a string"),
}


def _load_config_file(path: str, command: _Parser) -> dict[str, Any]:
    """The file's values for this subcommand, each checked as its flag is."""
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
    checked = {}
    for action in _options(command):
        if action.dest not in data:
            continue
        value = data[action.dest]
        flag_type = bool if isinstance(action, argparse.BooleanOptionalAction) else action.type
        allowed, kind = _VALUE_KINDS[flag_type]
        choices = action.choices
        if choices is not None:
            kind = f"one of {list(choices)}"
        # JSON decodes to exact builtin types, so true is no int here
        if type(value) not in allowed or (choices is not None and value not in choices):
            raise UsageError(
                f"config file {path}: {action.dest} must be {kind}, not {json.dumps(value)}"
            )
        checked[action.dest] = value
    return checked


def effective_config(cmd: str, args: argparse.Namespace) -> dict[str, Any]:
    """This subcommand's settings from parsed args, with none left unset."""
    cfg = {key: getattr(args, key) for key in DEFAULTS[cmd]}
    missing = sorted(key for key, value in cfg.items() if value is None)
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise UsageError(f"{cmd} requires {flags} (by flag or config file)")
    return cfg


def _fields_of(config_class: type, cfg: dict[str, Any]) -> dict[str, Any]:
    """The settings that share a name with a field of the config dataclass."""
    return {f.name: cfg[f.name] for f in dataclasses.fields(config_class) if f.name in cfg}


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
                    question = record_question(row)
                    line = dumps_line(
                        {"id": row["id"], "question": question, "steps": list(chain.texts)}
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
    bconf = BackendConfig(kind=cfg["backend"], **_fields_of(BackendConfig, cfg))
    if bconf.kind == "http":
        _probe_endpoint(bconf.endpoint_url)
    backend = make_backend(bconf)
    econf = ExpansionConfig(**_fields_of(ExpansionConfig, cfg))
    slots = fill_slots(backend, econf)

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
                        report_handle.write(dumps_line(report.to_dict()))
    finally:
        if report_handle is not None:
            report_handle.close()
    elapsed = time.perf_counter() - started
    _note(
        "expand: {records} records ({failed_records} failed), "
        "{inserted} inserted / {invalid} invalid / {malformed} malformed / "
        "{errored} errored, {secs:.2f}s, {slots} request{s} in flight at most".format(
            secs=elapsed, slots=slots, s="" if slots == 1 else "s", **counts
        )
    )
    if counts["errored"] and not (counts["inserted"] or counts["invalid"] or counts["malformed"]):
        _note(f"error: every gap ended in backend_error ({counts['errored']} attempted)")
        return 3
    return 0


def cmd_gen_synth(cfg: dict[str, Any]) -> int:
    operators = tuple(ch for ch in cfg["operators"] if ch not in ", ")
    spec = CorpusSpec(**{**_fields_of(CorpusSpec, cfg), "operators": operators})
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
    try:
        delta = diff_stats(before, after)
    except ValueError as exc:  # different tokenizers, or a change from zero
        raise DataError(str(exc)) from exc
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
        if args.config:
            # checked file values stand in for the defaults: flags still win
            command = parser.commands[args.cmd]
            command.set_defaults(**_load_config_file(args.config, command))
            args = parser.parse_args(argv)
        cfg = effective_config(args.cmd, args)
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
