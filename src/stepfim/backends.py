"""Interchangeable fill-in-the-middle backends behind one interface.

Three kinds:

- http: POSTs a completion-style request to a remote endpoint. The prompt
  is the PSM serialization ending at the middle token; stop sequences are
  the three special tokens.
- oracle: answers from the synthetic-corpus ground truth.
- replay: answers from a recorded fixture file, for offline tests.

Every request carries a stable content hash (`request_id`) so responses
can be recorded once and replayed byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol

import requests as _requests

from stepfim import fim, synth
from stepfim.decompose import STEP_SEPARATOR
from stepfim.jsonl import read_jsonl


class BackendError(RuntimeError):
    """A backend could not produce a candidate for a request."""


class TransportError(BackendError):
    """HTTP call failed (network, timeout, or 5xx) after all retries."""


class FixtureMiss(BackendError):
    """Replay fixture has no entry for the request."""


class BadFixture(ValueError):
    """A replay fixture line lacks a string request_id or response."""


def request_id_for(question: str, prefix_steps: tuple[str, ...], suffix_steps: tuple[str, ...]) -> str:
    """Stable hex id: sha256 over the canonical JSON encoding (UTF-8)."""
    payload = json.dumps(
        [question, list(prefix_steps), list(suffix_steps)],
        ensure_ascii=False,
        separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class FimRequest:
    question: str
    prefix_steps: tuple[str, ...]
    suffix_steps: tuple[str, ...]

    @cached_property  # hashed once: the engine and a replay fill both read it
    def request_id(self) -> str:
        return request_id_for(self.question, self.prefix_steps, self.suffix_steps)


BACKEND_KINDS = ("http", "oracle", "replay")


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # one of BACKEND_KINDS
    endpoint_url: str = ""
    auth_token_env: str = ""
    timeout_ms: int = 30_000
    retry_limit: int = 2
    backoff_ms: int = 250
    fixture_path: str = ""
    max_new_chars: int = 2_000

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http" and not self.endpoint_url:
            raise ValueError("http backend requires endpoint_url")
        if self.kind == "replay" and not self.fixture_path:
            raise ValueError("replay backend requires fixture_path")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


class FimBackend(Protocol):
    """Anything with a `fill` method.

    A backend may also set the class attribute `waits`. `waits = False`
    declares that a fill never waits on anything outside the interpreter
    (it computes its answer in-process), so `expand` runs every fill on the
    calling thread: more threads would only take turns on the interpreter
    lock. A backend without the attribute is taken to wait (a network call,
    a sleep) and gets `max_in_flight` worker threads.
    """

    def fill(self, request: FimRequest) -> str: ...


class OracleBackend:
    """Perfect filler for synthetic questions; pure and thread-safe."""

    waits = False

    def fill(self, request: FimRequest) -> str:
        return synth.oracle_fill(request.question, request.prefix_steps, request.suffix_steps)


class ReplayBackend:
    """Serves recorded responses keyed by request_id."""

    waits = False

    def __init__(self, mapping: dict[str, str]):
        self._mapping = mapping

    @classmethod
    def from_file(cls, fixture_path: str) -> "ReplayBackend":
        mapping: dict[str, str] = {}
        for entry, row in enumerate(read_jsonl(fixture_path), start=1):
            rid, response = row.get("request_id"), row.get("response")
            if not isinstance(rid, str) or not isinstance(response, str):
                raise BadFixture(
                    f"{fixture_path}: entry {entry} needs a string request_id and response"
                )
            mapping.setdefault(rid, response)
        return cls(mapping)

    def fill(self, request: FimRequest) -> str:
        rid = request.request_id
        if rid not in self._mapping:
            raise FixtureMiss(f"no fixture entry for request {rid[:12]}...")
        return self._mapping[rid]


class HttpBackend:
    """Completion-endpoint client with bounded retries and backoff.

    Wire format: POST endpoint_url with JSON
    ``{"prompt", "stop", "max_tokens", "temperature": 0.0}``; the response JSON
    carries the completion under ``completion`` (or OpenAI-style
    ``choices[0].text``). Auth, when configured, is a bearer token read
    from the environment variable named by ``auth_token_env`` so tokens
    never appear on command lines.
    """

    waits = True
    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: BackendConfig):
        self.config = config
        self._session = _requests.Session()
        adapter = _requests.adapters.HTTPAdapter(pool_connections=8, pool_maxsize=32)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)
        self._headers = {"Content-Type": "application/json"}
        if config.auth_token_env:
            token = os.environ.get(config.auth_token_env)
            if token is None:
                raise ValueError(f"auth env var {config.auth_token_env} is not set")
            self._headers["Authorization"] = f"Bearer {token}"

    def _prompt(self, request: FimRequest) -> str:
        prefix = STEP_SEPARATOR.join(request.prefix_steps)
        suffix = STEP_SEPARATOR.join(request.suffix_steps)
        return fim.format_prompt(request.question, prefix, suffix)

    def fill(self, request: FimRequest) -> str:
        body = {
            "prompt": self._prompt(request),
            "stop": list(fim.SPECIAL_TOKENS),
            "max_tokens": self.config.max_new_chars,
            "temperature": 0.0,
        }
        timeout = self.config.timeout_ms / 1000.0
        last_error: Exception | None = None
        for attempt in range(self.config.retry_limit + 1):
            if attempt > 0:
                time.sleep(self.config.backoff_ms * attempt / 1000.0)
            try:
                resp = self._session.post(
                    self.config.endpoint_url, json=body, headers=self._headers, timeout=timeout
                )
            except _requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code in self.RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {resp.status_code} from completion endpoint")
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code} from completion endpoint")
            return self._extract(resp)[: self.config.max_new_chars]
        raise TransportError(f"completion request failed after {self.config.retry_limit} retries: {last_error}")

    @staticmethod
    def _extract(resp: _requests.Response) -> str:
        try:
            data = resp.json()
        except ValueError as exc:
            raise TransportError(f"non-JSON completion response: {exc}") from exc
        if isinstance(data, dict):
            if isinstance(data.get("completion"), str):
                return data["completion"]
            choices = data.get("choices")
            first = choices[0] if isinstance(choices, list) and choices else None
            if isinstance(first, dict) and isinstance(first.get("text"), str):
                return first["text"]
        raise TransportError("completion response carries no completion text")


def make_backend(config: BackendConfig) -> FimBackend:
    if config.kind == "oracle":
        return OracleBackend()
    if config.kind == "replay":
        return ReplayBackend.from_file(config.fixture_path)
    return HttpBackend(config)


def record_fixtures(
    requests: Iterable[FimRequest],
    live_backend: FimBackend,
    fixture_path: str,
) -> int:
    """Record live responses into a replay fixture file.

    Entries are appended in first-occurrence order and flushed per line,
    so a partially written file is still a valid fixture for the entries
    it holds. Live-backend errors propagate after the flush.
    """
    seen: set[str] = set()
    written = 0
    with open(fixture_path, "w", encoding="utf-8", newline="\n") as out:
        for request in requests:
            rid = request.request_id
            if rid in seen:
                continue
            seen.add(rid)
            response = live_backend.fill(request)
            out.write(json.dumps({"request_id": rid, "response": response}, ensure_ascii=False) + "\n")
            out.flush()
            written += 1
    return written
