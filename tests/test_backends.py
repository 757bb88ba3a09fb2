"""Backend interface: request hashing, replay fixtures, HTTP client behavior."""

from __future__ import annotations

import hashlib
import json

import pytest

from helpers import StubCompletionServer
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
)
from stepfim.fim import SPECIAL_TOKENS, format_prompt
from stepfim.synth import oracle_fill

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


class TestOracleBackend:
    def test_delegates_to_ground_truth_filler(self):
        request = _request()
        assert OracleBackend().fill(request) == oracle_fill(
            HAND_QUESTION, HAND_FINE[:1], HAND_FINE[2:]
        )
        assert OracleBackend().fill(request) == "Compute 5 * 4 = 20."


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

    def test_replay_requires_fixture_path(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="replay")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="chat")

    def test_negative_retry_limit_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="oracle", retry_limit=-1)
