import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from helpers import write_transcript

from srloop.engine import IterationRecord, RunLog
from srloop.llm import (
    ApiError,
    BackendConfig,
    ChatRequest,
    ChatResponse,
    MAX_TIMEOUT,
    HttpBackend,
    MalformedResponseError,
    ScriptedBackend,
    TokenUsage,
    TranscriptExhaustedError,
    TransportError,
    UnknownModelError,
    estimate_cost,
)

REQ = ChatRequest(system="be terse", user="propose equations")


class TestChatRequest:
    def test_defaults(self):
        assert REQ.temperature == 0.7

    @pytest.mark.parametrize("kwargs", [
        {"system": "", "user": "u"},
        {"system": "s", "user": ""},
        {"system": "s", "user": "u", "temperature": 2.5},
        {"system": "s", "user": "u", "temperature": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChatRequest(**kwargs)


class TestScripted:
    def test_entries_in_order_then_exhausted(self):
        backend = ScriptedBackend(["first", "second"])
        assert backend.complete(REQ).text == "first"
        assert backend.complete(REQ).text == "second"
        with pytest.raises(TranscriptExhaustedError):
            backend.complete(REQ)

    def test_stateless_twins(self):
        a = ScriptedBackend(["x", "y"])
        b = ScriptedBackend(["x", "y"])
        assert [a.complete(REQ), a.complete(REQ)] == [b.complete(REQ), b.complete(REQ)]

    def test_token_estimate(self):
        backend = ScriptedBackend(["three word reply"])
        resp = backend.complete(REQ)
        assert resp.completion_tokens == 3
        assert resp.prompt_tokens == len(REQ.system.split()) + len(REQ.user.split())

    def test_transcript_file_round_trip(self, tmp_path):
        entries = ["line one\nline two", "second turn", "third %% not a delimiter"]
        path = tmp_path / "t.txt"
        write_transcript(entries, path)
        backend = ScriptedBackend.from_file(path)
        assert backend.entries == entries


class _Handler(BaseHTTPRequestHandler):
    canned_status = 200
    canned_body: bytes | None = None  # replaces the completion body of a 200 response
    statuses: list[int] = []  # answered one per request before canned_status
    retry_after: str | None = None  # Retry-After header of a non-200 response
    received: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).received.append({"body": body, "auth": self.headers.get("Authorization"),
                                    "peer": self.client_address})
        status = self.statuses.pop(0) if self.statuses else self.canned_status
        if status != 200:
            self.send_response(status)
            if self.retry_after is not None:
                self.send_header("Retry-After", self.retry_after)
            self.end_headers()
            self.wfile.write(b"boom")
            return
        reply = {
            "choices": [{"message": {"role": "assistant", "content": "canned text"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7},
        }
        data = self.canned_body if self.canned_body is not None else json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


POLL_S = 0.05


def stub_config(endpoint: str, **settings) -> BackendConfig:
    """An http backend config for ``endpoint`` whose key is in TEST_LLM_KEY."""
    return BackendConfig(kind="http", endpoint=endpoint, key_env_var="TEST_LLM_KEY", **settings)


@pytest.fixture
def stub_server():
    _Handler.received = []
    _Handler.canned_status = 200
    _Handler.canned_body = None
    _Handler.statuses = []
    _Handler.retry_after = None
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll, so shutdown() need not wait out serve_forever's default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(POLL_S,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttp:
    def test_round_trip(self, stub_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        backend = HttpBackend(stub_config(stub_server, model="m1"))
        resp = backend.complete(REQ)
        assert resp == ChatResponse("canned text", 11, 7)
        assert _Handler.received[-1]["body"]["model"] == "m1"

    def test_single_system_and_user_message(self, stub_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        backend = HttpBackend(stub_config(stub_server, model="m1"))
        backend.complete(ChatRequest(system="s", user="u"))
        body = _Handler.received[-1]["body"]
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["temperature"] == 0.7
        assert _Handler.received[-1]["auth"] == "Bearer sk-test"

    @pytest.mark.parametrize("max_tokens,keys", [
        (None, ["model", "messages", "temperature"]),
        (256, ["model", "messages", "temperature", "max_tokens"]),
    ])
    def test_body_keys_in_order(self, stub_server, monkeypatch, max_tokens, keys):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        backend = HttpBackend(stub_config(stub_server, model="m1", max_tokens=max_tokens))
        backend.complete(REQ)
        body = _Handler.received[-1]["body"]
        assert list(body) == keys
        assert body.get("max_tokens") == max_tokens

    def test_api_error_surfaces_body(self, stub_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.canned_status = 400  # not retried
        backend = HttpBackend(stub_config(stub_server))
        with pytest.raises(ApiError) as err:
            backend.complete(REQ)
        assert err.value.status == 400
        assert "boom" in err.value.body
        assert len(_Handler.received) == 1

    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("srloop.llm.time.sleep", slept.append)
        return slept

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_then_success(self, stub_server, monkeypatch, sleeps, status):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.statuses = [status]
        backend = HttpBackend(stub_config(stub_server), backoff=0.001)
        assert backend.complete(REQ).text == "canned text"
        assert len(_Handler.received) == 2
        assert sleeps == [0.001]

    @pytest.mark.parametrize("retry_after,delay", [("0", 0.0), ("2.5", 2.5), ("999", 30.0),
                                                   ("Wed, 21 Oct 2015 07:28:00 GMT", 0.001)])
    def test_retry_after_is_honoured_and_capped(self, stub_server, monkeypatch, sleeps,
                                                retry_after, delay):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.statuses = [429]
        _Handler.retry_after = retry_after
        backend = HttpBackend(stub_config(stub_server, timeout=30.0), backoff=0.001)
        assert backend.complete(REQ).text == "canned text"
        assert len(_Handler.received) == 2
        assert sleeps == [delay]

    @pytest.mark.parametrize("retry_after", ["86401", "9223372036", "1e300", "inf"])
    def test_retry_after_is_capped_at_the_largest_timeout(self, stub_server, monkeypatch, sleeps,
                                                          retry_after):
        # time.sleep raises OSError at once for a value near threading.TIMEOUT_MAX
        # (9223372036 s on Linux), so every timeout stays far below it
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.statuses = [503]
        _Handler.retry_after = retry_after
        backend = HttpBackend(stub_config(stub_server, timeout=MAX_TIMEOUT), backoff=0.001)
        assert backend.complete(REQ).text == "canned text"
        assert sleeps == [86400.0]
        assert MAX_TIMEOUT < threading.TIMEOUT_MAX / 1000

    def test_exhausted_retries_raise_last_status(self, stub_server, monkeypatch, sleeps):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.statuses = [500, 502]
        _Handler.canned_status = 503
        backend = HttpBackend(stub_config(stub_server, max_retries=2), backoff=0.001)
        with pytest.raises(ApiError) as err:
            backend.complete(REQ)
        assert err.value.status == 503
        assert len(_Handler.received) == 3
        assert sleeps == [0.001, 0.002]

    @pytest.mark.parametrize("max_retries", [12, 40])
    def test_backoff_is_capped_at_the_timeout(self, stub_server, monkeypatch, sleeps,
                                              max_retries):
        # 0.5 * 2**12 s is past the timeout and 0.5 * 2**40 past what time.sleep takes
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.canned_status = 503  # no Retry-After
        for endpoint, error in ((stub_server, ApiError), ("http://127.0.0.1:9", TransportError)):
            sleeps.clear()
            backend = HttpBackend(stub_config(endpoint, max_retries=max_retries))
            with pytest.raises(error):
                backend.complete(REQ)
            backend.close()
            assert len(sleeps) == max_retries
            assert sleeps[:3] == [0.5, 1.0, 2.0] and max(sleeps) == sleeps[-1] == 120.0
        assert backend._backoff(1030) == 120.0  # 0.5 * 2**1030 is past what a float holds

    @pytest.mark.parametrize("body", [
        b"<html>not json</html>",
        b'{"choices": [{"message": {"role": "assistant", "content": null}}]}',
        b'{"usage": {"prompt_tokens": 1}}',
        b'{"choices":[{"message":{"content":"x"}}],"usage":[]}',
        # a count out of an int's reach, and a negative one
        b'{"choices":[{"message":{"content":"x"}}],"usage":{"prompt_tokens":1e400}}',
        b'{"choices":[{"message":{"content":"x"}}],"usage":{"prompt_tokens":-5}}',
        b'{"choices":[{"message":{"content":"x"}}],"usage":{"completion_tokens":-1}}',
        # a count that is no JSON integer
        *(b'{"choices":[{"message":{"content":"x"}}],"usage":{"%s":%s}}' % (key, count)
          for key in (b"prompt_tokens", b"completion_tokens")
          for count in (b"2.5", b"true", b'"7"', b"-0.0", b"1e20")),
    ])
    def test_malformed_body_is_backend_error(self, stub_server, monkeypatch, body):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.canned_body = body
        backend = HttpBackend(stub_config(stub_server))
        with pytest.raises(MalformedResponseError):
            backend.complete(REQ)

    @pytest.mark.parametrize("body", [
        b'{"choices":[{"message":{"content":"x"}}]}',
        b'{"choices":[{"message":{"content":"x"}}],"usage":null}',
    ])
    def test_a_body_without_usage_counts_no_tokens(self, stub_server, monkeypatch, body):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        _Handler.canned_body = body
        reply = HttpBackend(stub_config(stub_server)).complete(REQ)
        assert (reply.text, reply.prompt_tokens, reply.completion_tokens) == ("x", 0, 0)

    def test_calls_share_one_connection(self, monkeypatch):
        class KeepAlive(_Handler):
            protocol_version = "HTTP/1.1"

        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        monkeypatch.setattr(_Handler, "received", [])
        monkeypatch.setattr(_Handler, "canned_status", 200)
        monkeypatch.setattr(_Handler, "canned_body", None)
        server = HTTPServer(("127.0.0.1", 0), KeepAlive)
        thread = threading.Thread(target=server.serve_forever, args=(POLL_S,), daemon=True)
        thread.start()
        backend = HttpBackend(stub_config(f"http://127.0.0.1:{server.server_port}/v1"))
        try:
            for _ in range(3):
                assert backend.complete(REQ).text == "canned text"
        finally:
            backend.close()  # ends the kept-alive connection, so shutdown can return
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert len({r["peer"] for r in _Handler.received}) == 1
        assert len(_Handler.received) == 3

    def test_transport_error_after_retries(self, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test")
        # nothing listens on the discard port
        backend = HttpBackend(stub_config("http://127.0.0.1:9", timeout=0.2, max_retries=1),
                              backoff=0.01)
        with pytest.raises(TransportError):
            backend.complete(REQ)

    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        backend = HttpBackend(BackendConfig(kind="http", key_env_var="NO_SUCH_KEY"))
        with pytest.raises(TransportError) as err:
            backend.complete(REQ)
        assert "NO_SUCH_KEY" in str(err.value)

    def test_repr_has_no_key_material(self, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-secret")
        backend = HttpBackend(BackendConfig(kind="http", key_env_var="TEST_LLM_KEY"))
        assert "sk-secret" not in repr(backend)


class TestCost:
    def test_zero_tokens(self):
        assert estimate_cost(TokenUsage(), "m", {"m": (0.1, 0.2)}) == 0.0

    def test_linearity(self):
        usage = TokenUsage(prompt_tokens=1000, completion_tokens=1000)
        a, b = 3e-6, 9e-6
        assert estimate_cost(usage, "m", {"m": (a, b)}) == pytest.approx(1000 * a + 1000 * b)

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            estimate_cost(TokenUsage(1, 1), "mystery", {})

    def test_usage_accumulates(self):
        log = RunLog(dataset_id="d", config={})
        for index, (prompt, completion) in enumerate([(5, 3), (2, 1)], start=1):
            log.records.append(IterationRecord(
                index=index, prompt="p", responses=["t"], prompt_tokens=prompt,
                completion_tokens=completion,
            ))
        usage = log.usage
        assert (usage.prompt_tokens, usage.completion_tokens) == (7, 4)
