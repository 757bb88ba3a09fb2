"""Backend interface: request hashing, replay fixtures, HTTP client behavior."""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from json.encoder import encode_basestring
from pathlib import Path
from unittest import mock

import pytest

from helpers import StubCompletionServer, _StubServer
from stepfim import backends
from stepfim.backends import (
    BackendConfig,
    FimRequest,
    FixtureMiss,
    HttpBackend,
    OracleBackend,
    ReplayBackend,
    TransportError,
    make_backend,
    record_fixtures,
    request_id_for,
)
from stepfim.expand import BACKEND_ERROR, ExpansionConfig, expand_records
from stepfim.fim import SPECIAL_TOKENS, format_prompt
from stepfim.synth import CorpusSpec, generate, oracle_fill

HAND_QUESTION = "What is the value of ((2 + 3) * 4) - 5?"
HAND_FINE = (
    "Compute 2 + 3 = 5.",
    "Compute 5 * 4 = 20.",
    "Compute 20 - 5 = 15.",
    "The answer is 15.",
)


def _request(prefix_n=1, suffix_from=2) -> FimRequest:
    return FimRequest(HAND_QUESTION, HAND_FINE[:prefix_n], HAND_FINE[suffix_from:])


def _http_config(url: str, **kwargs) -> BackendConfig:
    defaults = dict(kind="http", endpoint_url=url, retry_limit=2, backoff_ms=1, timeout_ms=5000)
    defaults.update(kwargs)
    return BackendConfig(**defaults)


def _eventually(holds, timeout: float = 30.0) -> bool:
    """Whether `holds()` is true within `timeout` seconds, asked every 10 ms."""
    deadline = time.monotonic() + timeout
    while not holds() and time.monotonic() < deadline:
        time.sleep(0.01)
    return holds()


def _read_request(conn: socket.socket) -> None:
    """Read one HTTP request off a raw connection: its head, then Content-Length bytes."""
    conn.settimeout(30)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        assert chunk, "the client closed the connection"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
    while len(body) < length:
        chunk = conn.recv(65536)
        assert chunk, "the client closed the connection"
        body += chunk


class TestRequestId:
    def test_matches_canonical_hash(self):
        request = _request()
        payload = json.dumps(
            [HAND_QUESTION, list(HAND_FINE[:1]), list(HAND_FINE[2:])],
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8")
        assert request.request_id == hashlib.sha256(payload).hexdigest()

    def test_stable_across_instances(self):
        assert _request().request_id == _request().request_id

    def test_distinct_triples_get_distinct_ids(self):
        seen = set()
        for prefix_n in range(0, 3):
            for suffix_from in range(prefix_n, 4):
                seen.add(FimRequest(HAND_QUESTION, HAND_FINE[:prefix_n], HAND_FINE[suffix_from:]).request_id)
        assert len(seen) == sum(4 - p for p in range(0, 3))

    def test_boundary_shifts_change_the_id(self):
        # moving a step across the prefix/suffix boundary is a different request
        a = FimRequest("q", ("s1", "s2"), ("s3",))
        b = FimRequest("q", ("s1",), ("s2", "s3"))
        assert a.request_id != b.request_id

    def test_hashing_leaves_equality_alone(self):
        hashed = _request()
        hashed.request_id
        assert hashed == _request() and hash(hashed) == hash(_request())

    def test_a_replay_run_hashes_each_gap_once(self, monkeypatch):
        """A round escapes its question and each step once and joins every gap's
        id from them: no `request_id_for` call per gap, and every id equals it."""
        problems = generate(CorpusSpec(count=8, seed=3))
        rows = [{"id": p.id, "question": p.question, "steps": list(p.coarse_chain.texts)}
                for p in problems]
        # the chain each record's two rounds see: the oracle fills every dropped step
        rounds = [(p.question, chain.texts) for p in problems for chain in (p.coarse_chain, p.fine_chain)]
        mapping = {
            request_id_for(question, steps[:i], steps[i:]): oracle_fill(question, steps[:i], steps[i:])
            for question, steps in rounds
            for i in range(1, len(steps))
        }
        escaped, hashed = [], []

        def counted_escape(text):
            escaped.append(text)
            return encode_basestring(text)

        def counted_hash(*args):
            hashed.append(args)
            return request_id_for(*args)

        monkeypatch.setattr(backends, "encode_basestring", counted_escape)
        monkeypatch.setattr(backends, "request_id_for", counted_hash)
        results = list(expand_records(rows, ReplayBackend(mapping), ExpansionConfig(iterations=2)))
        monkeypatch.undo()

        assert [row["steps"] for row, _ in results] == [list(p.fine_chain.texts) for p in problems]
        assert escaped == [text for question, steps in rounds for text in (question, *steps)]
        assert hashed == []
        reports = [r for _, rs in results for r in rs]
        assert len(reports) == len(rounds)
        for (question, steps), report in zip(rounds, reports):
            assert [p.decision for p in report.proposals].count(BACKEND_ERROR) == 0
            assert [p.request_id for p in report.proposals] == [
                request_id_for(question, steps[: i - 1], steps[i - 1 :]) for i in range(2, len(steps) + 1)
            ]


class TestOracleBackend:
    def test_delegates_to_ground_truth_filler(self):
        request = _request()
        assert OracleBackend().fill(request) == oracle_fill(
            HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]
        )
        assert OracleBackend().fill(request) == "Compute 5 * 4 = 20."

    def test_threads_on_interleaved_questions_get_the_serial_answers(self):
        # each call moves to another question, so the shared one-question memo turns over
        # on every fill, with other threads turning it over in between
        chains = [(p.question, p.coarse_chain.texts) for p in generate(CorpusSpec(count=6, seed=5))]
        per_question = [[FimRequest(q, steps[:i], steps[i:]) for i in range(len(steps) + 1)]
                        for q, steps in chains]
        requests = [r for column in itertools.zip_longest(*per_question) for r in column
                    if r is not None]
        serial = [OracleBackend().fill(r) for r in requests]
        results, backend = {}, OracleBackend()

        def fill_all(k):
            order = requests[k:] + requests[:k]
            results[k] = [backend.fill(r) for _ in range(5) for r in order]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches between the memo's lookup and store
        try:
            threads = [threading.Thread(target=fill_all, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        for k in range(8):
            assert results[k] == (serial[k:] + serial[:k]) * 5


class TestReplayBackend:
    def test_returns_recorded_response(self):
        request = _request()
        backend = ReplayBackend({request.request_id: "recorded text"})
        assert backend.fill(request) == "recorded text"

    def test_unknown_request_raises(self):
        with pytest.raises(FixtureMiss):
            ReplayBackend({}).fill(_request())

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        request = _request()
        path.write_text(
            json.dumps({"request_id": request.request_id, "response": "from disk"}) + "\n",
            encoding="utf-8",
        )
        assert ReplayBackend.from_file(str(path)).fill(request) == "from disk"


class TestRecordFixtures:
    def _requests(self):
        return [
            FimRequest(HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]),
            FimRequest(HAND_QUESTION, HAND_FINE[:2], HAND_FINE[3:]),
            FimRequest(HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]),  # duplicate
        ]

    def test_record_then_replay_is_identical(self, tmp_path):
        path = str(tmp_path / "fixture.jsonl")
        oracle = OracleBackend()
        written = record_fixtures(self._requests(), oracle, path)
        assert written == 2
        replay = ReplayBackend.from_file(path)
        for request in self._requests():
            assert replay.fill(request) == oracle.fill(request)

    def test_first_occurrence_order_is_stable(self, tmp_path):
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        record_fixtures(self._requests(), OracleBackend(), path_a)
        record_fixtures(self._requests(), OracleBackend(), path_b)
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            assert fa.read() == fb.read()
        with open(path_a, encoding="utf-8") as fa:
            ids = [json.loads(line)["request_id"] for line in fa]
        assert ids == [r.request_id for r in self._requests()[:2]]

    def test_partial_file_survives_a_live_error(self, tmp_path):
        path = str(tmp_path / "partial.jsonl")

        class Flaky:
            def __init__(self):
                self.calls = 0

            def fill(self, request):
                self.calls += 1
                if self.calls >= 2:
                    raise TransportError("boom")
                return "first response"

        with pytest.raises(TransportError):
            record_fixtures(self._requests(), Flaky(), path)
        replay = ReplayBackend.from_file(path)
        assert replay.fill(self._requests()[0]) == "first response"


class TestHttpBackend:
    def test_happy_path_sends_psm_prompt_with_stops(self):
        with StubCompletionServer([(200, {"completion": "Compute 5 * 4 = 20."})]) as server:
            backend = HttpBackend(_http_config(server.url))
            request = _request()
            assert backend.fill(request) == "Compute 5 * 4 = 20."
            body = server.seen[0]["body"]
            assert body["prompt"] == format_prompt(
                HAND_QUESTION, "\n".join(HAND_FINE[:1]), "\n".join(HAND_FINE[2:])
            )
            assert body["stop"] == list(SPECIAL_TOKENS)
            assert body["temperature"] == 0
            assert body["max_tokens"] == 2000

    def test_openai_style_choices_fallback(self):
        with StubCompletionServer([(200, {"choices": [{"text": "fallback text"}]})]) as server:
            assert HttpBackend(_http_config(server.url)).fill(_request()) == "fallback text"

    def test_bearer_token_read_from_named_env_var(self, monkeypatch):
        monkeypatch.setenv("TEST_FIM_TOKEN", "sekrit")
        with StubCompletionServer([(200, {"completion": "x"})]) as server:
            backend = HttpBackend(_http_config(server.url, auth_token_env="TEST_FIM_TOKEN"))
            backend.fill(_request())
            assert server.seen[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_token_env_rejected_at_construction(self, monkeypatch):
        monkeypatch.delenv("TEST_FIM_TOKEN", raising=False)
        with pytest.raises(ValueError):
            HttpBackend(_http_config("http://127.0.0.1:9/x", auth_token_env="TEST_FIM_TOKEN"))

    def test_retries_then_succeeds_on_transient_503(self):
        script = [(503, {"error": "busy"}), (503, {"error": "busy"}), (200, {"completion": "ok"})]
        with StubCompletionServer(script) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=2))
            assert backend.fill(_request()) == "ok"
            assert len(server.seen) == 3

    def test_retry_fires_exactly_retry_limit_times(self):
        with StubCompletionServer([(503, {"error": "down"})]) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=2))
            with pytest.raises(TransportError):
                backend.fill(_request())
            # initial attempt plus exactly retry_limit retries
            assert len(server.seen) == 3

    def test_non_retryable_status_fails_immediately(self):
        with StubCompletionServer([(404, {"error": "nope"})]) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=3))
            with pytest.raises(TransportError):
                backend.fill(_request())
            assert len(server.seen) == 1

    def test_success_is_never_retried(self):
        with StubCompletionServer([(200, {"completion": "once"})]) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=3))
            backend.fill(_request())
            backend.fill(_request())
            assert len(server.seen) == 2

    def test_non_json_body_is_a_transport_error(self):
        with StubCompletionServer([(200, b"not json at all")]) as server:
            with pytest.raises(TransportError):
                HttpBackend(_http_config(server.url)).fill(_request())

    def test_json_without_completion_text_is_a_transport_error(self):
        for body in ({"result": "wrong shape"}, {"choices": ["text"]}):
            with StubCompletionServer([(200, body)]) as server:
                with pytest.raises(TransportError, match="carries no completion text"):
                    HttpBackend(_http_config(server.url)).fill(_request())

    def test_connection_refused_raises_after_retries(self):
        backend = HttpBackend(_http_config("http://127.0.0.1:9/refused", retry_limit=1))
        with pytest.raises(TransportError):
            backend.fill(_request())

    def test_completion_capped_at_max_new_chars(self):
        with StubCompletionServer([(200, {"completion": "x" * 50})]) as server:
            backend = HttpBackend(_http_config(server.url, max_new_chars=10))
            assert backend.fill(_request()) == "x" * 10

    def test_timeout_ms_bounds_each_wait_not_the_whole_request(self):
        """`timeout_ms` is the socket timeout: a body that trickles in, each part
        well within it, is read to the end, long after the timeout."""
        body = b'{"completion": "in parts of eight"}'
        assert len(body) == 35

        def trickle():
            conn = listener.accept()[0]
            with conn:
                _read_request(conn)
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 35\r\n\r\n")
                for at in range(0, len(body), 8):
                    time.sleep(0.3)
                    conn.sendall(body[at:at + 8])

        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(30)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            backend = HttpBackend(_http_config(url, retry_limit=0, timeout_ms=500))
            server = threading.Thread(target=trickle)
            server.start()
            try:
                started = time.perf_counter()
                assert backend.fill(_request()) == "in parts of eight"
                elapsed = time.perf_counter() - started
            finally:
                backend.close()
                server.join(timeout=30)
        assert elapsed >= 1.4 > 2 * 0.5, elapsed


class TestKeepAliveConnections:
    def test_two_fills_reuse_one_connection(self):
        with StubCompletionServer([(200, {"completion": "ok"})], keep_alive=True) as server:
            backend = HttpBackend(_http_config(server.url))
            try:
                assert backend.fill(_request()) == backend.fill(_request(2, 3)) == "ok"
            finally:
                backend.close()
            assert len(server.seen) == 2
            assert server.seen[0]["client_address"] == server.seen[1]["client_address"]

    def test_a_dropped_idle_connection_is_reopened_without_using_a_retry(self):
        with StubCompletionServer([(200, {"completion": "ok"})], keep_alive=True) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=0))
            try:
                assert backend.fill(_request()) == "ok"
                server.drop_connections()
                assert backend.fill(_request()) == "ok"
            finally:
                backend.close()
            assert len(server.seen) == 2
            assert server.seen[0]["client_address"] != server.seen[1]["client_address"]

    def test_a_failed_attempt_reconnects(self):
        script = [(503, {"error": "busy"}), (200, {"completion": "ok"})]
        with StubCompletionServer(script, keep_alive=True) as server:
            backend = HttpBackend(_http_config(server.url, retry_limit=1))
            try:
                assert backend.fill(_request()) == "ok"
            finally:
                backend.close()
            assert server.seen[0]["client_address"] != server.seen[1]["client_address"]

    @pytest.mark.parametrize("kept_alive", [False, True], ids=["new", "kept-alive"])
    def test_close_ends_a_running_fill_at_once_and_a_later_fill_reconnects(self, kept_alive):
        body = b'{"completion": "ok"}'
        answer = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        outcome = []

        def fills(n):
            for _ in range(n):
                try:
                    outcome.append(backend.fill(_request()))
                except TransportError as exc:
                    outcome.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:  # answers only when told to
            listener.settimeout(30)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            backend = HttpBackend(_http_config(url, retry_limit=2, timeout_ms=30_000, backoff_ms=5_000))
            # kept alive: the fill that close() ends waits on the connection of an answered one,
            # where a reset would otherwise be resent on a fresh connection
            thread = threading.Thread(target=fills, args=(1 + kept_alive,))
            thread.start()
            held = [listener.accept()[0]]
            try:
                _read_request(held[0])
                if kept_alive:
                    held[0].sendall(answer)
                    _read_request(held[0])
                started = time.perf_counter()
                backend.close()
                thread.join(timeout=30)
                assert time.perf_counter() - started < 2
                *answered, error = outcome
                assert answered == ["ok"] * kept_alive
                assert isinstance(error, TransportError) and "closed" in str(error)
                listener.settimeout(0.2)
                with pytest.raises(TimeoutError):  # no retry, no resend
                    held.append(listener.accept()[0])

                listener.settimeout(30)
                thread = threading.Thread(target=fills, args=(1,))
                thread.start()
                held.append(listener.accept()[0])
                _read_request(held[-1])
                held[-1].sendall(answer)
                thread.join(timeout=30)
                assert outcome[-1] == "ok"
            finally:
                backend.close()
                for conn in held:
                    conn.close()

    def test_a_close_while_a_fill_connects_still_ends_it(self):
        import http.client

        class ClosedWhileConnecting(http.client.HTTPConnection):
            def connect(self):
                backend.close()  # no socket yet for close() to shut down
                super().connect()

        with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts and never answers
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions"
            backend = HttpBackend(_http_config(url, retry_limit=2, timeout_ms=5_000))
            backend._connection_class = ClosedWhileConnecting
            started = time.perf_counter()
            with pytest.raises(TransportError, match="closed"):
                backend.fill(_request())
            assert time.perf_counter() - started < 2

    def test_close_closes_every_threads_connection(self):
        in_flight = threading.Barrier(8, timeout=30)

        def script(body):
            in_flight.wait()  # so each round of 8 POSTs is in flight at once, on 8 connections
            return 200, {"completion": "ok"}

        def fill_three_times():
            for _ in range(3):
                backend.fill(_request())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches, for a lost update to the pool to show
        try:
            with StubCompletionServer(script, keep_alive=True) as server:
                backend = HttpBackend(_http_config(server.url))
                threads = [threading.Thread(target=fill_three_times) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert server.open_connections == 8
                backend.close()
                assert len(server.seen) == 24
                assert len({seen["client_address"] for seen in server.seen}) == 8
                assert _eventually(lambda: server.open_connections == 0)
        finally:
            sys.setswitchinterval(switch)

    def test_a_backend_reused_across_pooled_runs_keeps_one_connection_per_slot(self):
        rows = [{"id": p.id, "question": p.question, "steps": list(p.coarse_chain.texts)}
                for p in generate(CorpusSpec(count=8, seed=3))]
        with StubCompletionServer([(200, {"completion": "ok"})], keep_alive=True) as server:
            backend = HttpBackend(_http_config(server.url))
            try:
                for _ in range(5):
                    out = list(expand_records(rows, backend, ExpansionConfig(max_in_flight=4)))
                    assert [row["id"] for row, _ in out] == [row["id"] for row in rows]
                    assert all(proposal.decision != BACKEND_ERROR for _, reports in out
                               for report in reports for proposal in report.proposals)
                    assert server.open_connections <= 4
            finally:
                backend.close()
            # every run took its connections from the pool that the runs before it left idle
            assert len({seen["client_address"] for seen in server.seen}) <= 4
            assert _eventually(lambda: server.open_connections == 0)


def test_the_stub_prints_nothing_for_a_client_that_hung_up(capfd):
    received, hung_up, handled = threading.Event(), threading.Event(), threading.Event()

    def script(body):
        received.set()
        hung_up.wait(timeout=30)  # so the reply is written to a reset connection
        return 200, {"completion": "too late"}

    handle_error = _StubServer.handle_error

    def handled_error(self, request, client_address):
        handle_error(self, request, client_address)
        handled.set()

    with mock.patch.object(_StubServer, "handle_error", handled_error):
        with StubCompletionServer(script) as server:
            with socket.create_connection(server._server.server_address) as client:
                client.sendall(b"POST /v1/completions HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
                assert received.wait(timeout=30)
                # close with a reset, not a FIN
                client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            hung_up.set()
            assert handled.wait(timeout=30)
    assert "Traceback" not in capfd.readouterr().err


def test_the_runtime_imports_no_http_library_until_it_fills(tmp_path):
    script = tmp_path / "fill.py"
    script.write_text(
        "import sys\n"
        "sys.modules['requests'] = sys.modules['urllib3'] = None\n"
        "import stepfim.cli\n"
        "names = ('requests', 'urllib3', 'http.client', 'ssl')\n"
        "print([name for name in names if sys.modules.get(name) is not None])\n"
        "from stepfim.backends import BackendConfig, FimRequest, HttpBackend\n"
        "backend = HttpBackend(BackendConfig(kind='http', endpoint_url=sys.argv[1]))\n"
        "try:\n"
        "    print(backend.fill(FimRequest('q?', ('a.',), ('b.',))))\n"
        "finally:\n"
        "    backend.close()\n",
        encoding="utf-8",
    )
    with StubCompletionServer([(200, {"completion": "filled"})], keep_alive=True) as server:
        result = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", str(script), server.url],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\nfilled\n"
        assert len(server.seen) == 1


def test_runs_without_a_pool_load_neither_the_pool_nor_socket(tmp_path):
    # stats reads chains here: its input is any JSONL of records with steps
    script = tmp_path / "footprint.py"
    script.write_text(
        "import sys, time\n"
        "from stepfim import cli\n"
        "names = ('concurrent.futures', 'socket', 'logging')\n"
        "def loaded():\n"
        "    return [name for name in names if name in sys.modules]\n"
        "print(loaded())\n"
        "d, golden = sys.argv[1], sys.argv[2]\n"
        "runs = [\n"
        "    ['decompose', '--input', golden, '--output', d + '/chains.jsonl'],\n"
        "    ['build-fim', '--input', d + '/chains.jsonl', '--output', d + '/fim.jsonl', '--seed', '7'],\n"
        "    ['stats', '--input', d + '/chains.jsonl', '--output', d + '/stats.json'],\n"
        "    ['gen-synth', '--count', '12', '--seed', '3', '--out', d + '/synth'],\n"
        "    ['expand', '--input', d + '/synth/coarse.jsonl', '--output', d + '/expanded.jsonl',\n"
        "     '--backend', 'oracle', '--max-in-flight', '4'],\n"
        "]\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    print(argv[0], loaded())\n"
        "from stepfim.backends import OracleBackend\n"
        "from stepfim.expand import ExpansionConfig, expand_records\n"
        "from stepfim.jsonl import read_jsonl\n"
        "class Waiting:  # a library backend without `waits = False`\n"
        "    def fill(self, request):\n"
        "        time.sleep(0.001)\n"
        "        return OracleBackend().fill(request)\n"
        "rows = list(read_jsonl(d + '/synth/coarse.jsonl'))\n"
        "out = [row['id'] for row, _ in expand_records(rows, Waiting(), ExpansionConfig(max_in_flight=4))]\n"
        "print('pool', loaded(), out == [row['id'] for row in rows])\n",
        encoding="utf-8",
    )
    golden = Path(__file__).parent / "data" / "prep_golden.jsonl"
    result = subprocess.run([sys.executable, str(script), str(tmp_path), str(golden)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]", "decompose []", "build-fim []", "stats []", "gen-synth []", "expand []",
        "pool ['concurrent.futures', 'logging'] True",
    ]


class TestFactoryAndConfig:
    def test_factory_builds_each_kind(self, tmp_path):
        fixture = tmp_path / "f.jsonl"
        fixture.write_text("", encoding="utf-8")
        assert isinstance(make_backend(BackendConfig(kind="oracle")), OracleBackend)
        assert isinstance(
            make_backend(BackendConfig(kind="replay", fixture_path=str(fixture))), ReplayBackend
        )
        assert isinstance(
            make_backend(BackendConfig(kind="http", endpoint_url="http://h/x")), HttpBackend
        )

    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="http")

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1:21/x", "http:///x", "127.0.0.1:8000/x",
                                     "http://h:99999/x", "http://h:port/x", "http://h:abc/x"])
    def test_http_requires_an_http_url_with_a_host(self, url):
        with pytest.raises(ValueError, match=f"endpoint_url.*{re.escape(repr(url))}"):
            BackendConfig(kind="http", endpoint_url=url)

    def test_replay_requires_fixture_path(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="replay")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="chat")

    def test_negative_retry_limit_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="oracle", retry_limit=-1)
