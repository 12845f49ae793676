"""A local OpenAI-compatible chat endpoint for the ``live_endpoint`` workload.

It listens on 127.0.0.1 on one thread, serves one request at a time and
answers each after a fixed delay. The reply depends only on the request's
content: the iteration a prompt belongs to is read from its feedback block
(each planted iteration adds exactly one fitted model, so a block of k
entries asks for iteration k + 1). Runs of a batch could therefore be issued
concurrently without changing the traffic.

Every request is checked: exactly one system and one user message, and an
iteration prompt's feedback block must be a JSON list sorted from worst to
best MSE. Each request is timestamped on arrival and on reply, so the model's
wait can be told apart from the program's own time.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server naming)
        stub: StubEndpoint = self.server.stub
        arrived = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, payload = stub.answer(body)
        time.sleep(stub.delay)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        stub.served.append((arrived, time.perf_counter()))

    def log_message(self, format, *args):  # keep the benchmark's output clean
        pass


def feedback_block(user: str):
    """The JSON feedback list of an iteration prompt, or None for an initial prompt.
    Raises ValueError when a feedback line is not a JSON list."""
    for line in user.splitlines():
        if line.startswith("["):
            block = json.loads(line)
            if not isinstance(block, list):
                raise ValueError("feedback block is not a JSON list")
            return block
    return None


class StubEndpoint:
    """Serves ``replies[k - 1]`` for iteration k after ``delay`` seconds."""

    def __init__(self, replies: list[str], delay: float):
        self.replies = replies
        self.delay = delay
        self.violations: list[str] = []
        self.served: list[tuple[float, float]] = []
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            name="perfbench-stub", daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def _violation(self, message: str):
        self.violations.append(message)
        return 400, {"error": {"message": message}}

    def answer(self, body: bytes):
        try:
            request = json.loads(body)
            messages = request["messages"]
        except (ValueError, KeyError, TypeError):
            return self._violation("request is not a chat-completions JSON body")
        roles = sorted(m.get("role") for m in messages)
        if roles != ["system", "user"]:
            return self._violation(f"expected one system and one user message, got {roles}")
        user = next(m["content"] for m in messages if m["role"] == "user")
        try:
            feedback = feedback_block(user)
        except ValueError as exc:
            return self._violation(f"feedback block does not parse: {exc}")
        if feedback is None:
            iteration = 1
        else:
            mses = [entry.get("mse") for entry in feedback]
            if any(not isinstance(v, (int, float)) for v in mses):
                return self._violation("feedback entry without a numeric mse")
            if any(a < b for a, b in zip(mses, mses[1:])):
                return self._violation("feedback is not sorted from worst to best MSE")
            iteration = len(feedback) + 1
        if iteration > len(self.replies):
            return self._violation(f"no reply planned for iteration {iteration}")
        text = self.replies[iteration - 1]
        system = next(m["content"] for m in messages if m["role"] == "system")
        return 200, {
            "object": "chat.completion",
            "model": request.get("model", ""),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(system.split()) + len(user.split()),
                      "completion_tokens": len(text.split())},
        }
