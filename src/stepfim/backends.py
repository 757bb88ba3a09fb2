"""Interchangeable fill-in-the-middle backends behind one interface.

Three kinds:

- http: POSTs a completion-style request to a remote endpoint over the
  standard library's `http.client`, on one pool of keep-alive connections
  that all threads share. The prompt is the PSM serialization ending at the
  middle token; stop sequences are the three special tokens.
- oracle: answers from the synthetic-corpus ground truth.
- replay: answers from a recorded fixture file, for offline tests.

Every request carries a stable content hash (`request_id`) so responses
can be recorded once and replayed byte-identically. `gap_requests` builds
the requests of a whole chain with their ids set, escaping its text once.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import Any, Iterable, Protocol
from urllib.parse import urlsplit

from stepfim import fim, synth
from stepfim.decompose import STEP_SEPARATOR
from stepfim.jsonl import dumps_line, open_out, read_jsonl


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


def gap_requests(question: str, steps: tuple[str, ...], first: int) -> list[FimRequest]:
    """The request of each gap i from `first` to len(steps): `steps[:i-1]`, then `steps[i-1:]`.

    Each `request_id` is `request_id_for`'s, joined from one escape of the question and of
    each step: `json.dumps(..., ensure_ascii=False)` escapes each string with `encode_basestring`."""
    head = b"[" + encode_basestring(question).encode("utf-8") + b",["
    pieces = [encode_basestring(text).encode("utf-8") for text in steps]
    requests = []
    for i in range(first, len(steps) + 1):
        payload = b"".join((head, b",".join(pieces[: i - 1]), b"],[", b",".join(pieces[i - 1 :]), b"]]"))
        request = FimRequest(question, steps[: i - 1], steps[i - 1 :])
        request.__dict__["request_id"] = hashlib.sha256(payload).hexdigest()  # the cached_property's slot
        requests.append(request)
    return requests


@dataclass(frozen=True)
class FimRequest:
    question: str
    prefix_steps: tuple[str, ...]
    suffix_steps: tuple[str, ...]

    @cached_property  # hashed once: the engine and a replay fill both read it
    def request_id(self) -> str:
        return request_id_for(self.question, self.prefix_steps, self.suffix_steps)


BACKEND_KINDS = ("http", "oracle", "replay")
# the keys of a replay fixture line, in order: a request's id and the response to it
_FIXTURE_KEYS = ("request_id", "response")


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
        if self.kind == "http":
            url = urlsplit(self.endpoint_url)
            try:
                url.port
            except ValueError as exc:
                raise ValueError(f"endpoint_url {self.endpoint_url!r} has a bad port: {exc}") from None
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(f"http backend requires an http:// or https:// endpoint_url with a host, "
                                 f"not {self.endpoint_url!r}")
        if self.kind == "replay" and not self.fixture_path:
            raise ValueError("replay backend requires fixture_path")
        lows = {"retry_limit": 0, "timeout_ms": 1, "backoff_ms": 0, "max_new_chars": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        # a longer wait overflows `socket.settimeout` and `Event.wait`
        longest_ms = threading.TIMEOUT_MAX * 1000
        if self.timeout_ms > longest_ms:
            raise ValueError(f"timeout_ms must be <= {longest_ms:.0f}")
        if self.backoff_ms * self.retry_limit > longest_ms:
            raise ValueError(f"backoff_ms times retry_limit, the longest backoff, "
                             f"must be <= {longest_ms:.0f}")


class FimBackend(Protocol):
    """Anything with a `fill` method.

    At `max_in_flight` N above 1, `expand_records` shares the backend
    among N worker threads, which may fill at once; each run starts new
    ones. The `expand` subcommand calls a backend's `close()`, if it has
    one, after the last fill, and `expand_records` calls it when a pooled
    run stops early, to end the fills that are running; a closed backend
    must still fill later.
    """

    def fill(self, request: FimRequest) -> str: ...


class OracleBackend:
    """Perfect filler for synthetic questions; pure and thread-safe."""

    def fill(self, request: FimRequest) -> str:
        return synth.oracle_fill(request.question, request.prefix_steps, request.suffix_steps)


class ReplayBackend:
    """Serves recorded responses keyed by request_id."""

    def __init__(self, mapping: dict[str, str]):
        self._mapping = mapping

    @classmethod
    def from_file(cls, fixture_path: str) -> "ReplayBackend":
        mapping: dict[str, str] = {}
        for entry, row in enumerate(read_jsonl(fixture_path), start=1):
            rid, response = map(row.get, _FIXTURE_KEYS)
            if not isinstance(rid, str) or not isinstance(response, str):
                raise BadFixture("{}: entry {} needs a string {} and {}".format(
                    fixture_path, entry, *_FIXTURE_KEYS))
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

    `timeout_ms` is the connection's socket timeout: it bounds the connect
    and each wait for response bytes, not the whole request, so a body that
    keeps trickling in is read to its end. A POST takes an idle keep-alive
    `http.client` connection or opens one, and gives it back when it ends,
    closed if the attempt failed, so the backend holds no more connections
    than it had POSTs at once. `close` closes them all and ends the fills
    that are running. Proxy variables and ``~/.netrc`` are not read; HTTPS
    is verified by `ssl`'s default context against the system CA store.
    """

    RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

    def __init__(self, config: BackendConfig):
        import http.client  # and so ssl: only a process that speaks HTTP loads them

        self.config = config
        url = urlsplit(config.endpoint_url)
        self._connection_class = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        self._address = (url.hostname, url.port)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._errors = (OSError, http.client.HTTPException)
        self._lock, self._idle = threading.Lock(), []  # the connections that no POST is using
        self._busy: set[Any] = set()  # the connections that a POST is using
        self._closed = threading.Event()
        self._headers = {"Content-Type": "application/json"}
        if config.auth_token_env:
            token = os.environ.get(config.auth_token_env)
            if token is None:
                raise ValueError(f"auth env var {config.auth_token_env} is not set")
            self._headers["Authorization"] = f"Bearer {token}"

    def fill(self, request: FimRequest) -> str:
        closed = self._closed  # set by the next `close`, which ends this fill at once
        body = {
            "prompt": fim.format_prompt(request.question, STEP_SEPARATOR.join(request.prefix_steps),
                                        STEP_SEPARATOR.join(request.suffix_steps)),
            "stop": list(fim.SPECIAL_TOKENS),
            "max_tokens": self.config.max_new_chars,
            "temperature": 0.0,
        }
        data = json.dumps(body).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.retry_limit + 1):
            if attempt > 0 and closed.wait(self.config.backoff_ms * attempt / 1000.0):
                break
            try:
                status, payload = self._post(data, closed)
            except self._errors as exc:
                last_error = exc
                continue
            if status in self.RETRYABLE_STATUS:
                last_error = TransportError(f"HTTP {status} from completion endpoint")
                continue
            if status != 200:
                raise TransportError(f"HTTP {status} from completion endpoint")
            return self._extract(payload)[: self.config.max_new_chars]
        if closed.is_set():
            raise TransportError("completion request ended: the backend was closed")
        raise TransportError(f"completion request failed after {self.config.retry_limit} retries: {last_error}")

    def _post(self, data: bytes, closed: threading.Event) -> tuple[int, bytes]:
        """One POST on the connection left idle last, or on a new one when none is idle.

        While the POST runs its connection is busy: `close` shuts the socket
        down, so a blocked read returns, and leaves the closing to this thread.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else self._connection_class(
                *self._address, timeout=self.config.timeout_ms / 1000)
            self._busy.add(conn)
        # a kept-alive connection that the server had closed raises one of these before
        # any status line (http.client.RemoteDisconnected is a ConnectionResetError);
        # then the POST goes once more on a fresh connection, and is no attempt
        stale = (ConnectionResetError, BrokenPipeError) if conn.sock is not None else ()
        try:
            try:
                response = self._send(conn, data, closed)
            except stale:
                if closed.is_set():
                    raise
                conn.close()
                response = self._send(conn, data, closed)
            payload = response.read()
            if response.status != 200:
                conn.close()
        except BaseException:
            conn.close()
            raise
        finally:
            with self._lock:
                self._busy.discard(conn)
                self._idle.append(conn)
        return response.status, payload

    def _send(self, conn: Any, data: bytes, closed: threading.Event) -> Any:
        conn.request("POST", self._path, data, self._headers)
        # a `close` that came while this connected found no socket to shut down
        if closed.is_set():
            raise ConnectionAbortedError("the backend was closed")
        return conn.getresponse()

    def close(self) -> None:
        """End the fills that are running and close every connection.

        A running fill raises TransportError at once, without a retry; a
        later fill opens a new connection.
        """
        import socket  # loaded with http.client

        with self._lock:
            self._closed.set()
            self._closed = threading.Event()
            for conn in self._idle:
                conn.close()
            for conn in self._busy:
                if conn.sock is not None:
                    try:
                        conn.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:  # the peer or this thread has closed it already
                        pass

    @staticmethod
    def _extract(payload: bytes) -> str:
        try:
            data = json.loads(payload)
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
    with open_out(fixture_path) as out:
        for request in requests:
            rid = request.request_id
            if rid in seen:
                continue
            seen.add(rid)
            response = live_backend.fill(request)
            out.write(dumps_line(dict(zip(_FIXTURE_KEYS, (rid, response)))))
            out.flush()
            written += 1
    return written
