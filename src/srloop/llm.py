"""Chat-completion backends: a live OpenAI-compatible HTTP client and a
deterministic scripted backend for tests and replays, plus token/cost accounting.

Every call is stateless — one system message and one user message, never any
conversation history. Scripted transcripts are plain text files whose turns
are separated by a line containing only ``%%%``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

TRANSCRIPT_DELIMITER = "%%%"

#: The largest ``BackendConfig.timeout``, one day, in seconds. It bounds the
#: socket timeout and a ``Retry-After`` sleep, which is capped at the timeout:
#: ``time.sleep`` refuses a value near ``threading.TIMEOUT_MAX`` with an OSError.
MAX_TIMEOUT = 86400.0


class BackendError(Exception):
    """Base class for completion failures."""


class TransportError(BackendError):
    """Network-level failure that survived all retries."""


class ApiError(BackendError):
    """Non-2xx HTTP response; carries status and body."""

    def __init__(self, status: int, body: str):
        super().__init__(f"API error {status}: {body[:500]}")
        self.status = status
        self.body = body


class MalformedResponseError(BackendError):
    """2xx response whose body is not a chat completion with text content."""


class TranscriptExhaustedError(BackendError):
    """The scripted transcript has no more turns."""


class UnknownModelError(KeyError):
    """No price entry for the model."""


@dataclass(frozen=True)
class BackendConfig:
    """Which backend a run completes through, and every setting of it."""

    kind: str = "scripted"  # "http" | "scripted"
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o"
    key_env_var: str = "OPENAI_API_KEY"
    timeout: float = 120.0
    max_retries: int = 3
    max_tokens: int | None = None
    transcript: str | None = None

    def __post_init__(self):
        if self.kind not in ("http", "scripted"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be above 0, not {self.timeout}")
        if self.timeout > MAX_TIMEOUT:  # a socket or a Retry-After time.sleep would overflow
            raise ValueError(f"timeout must be at most {MAX_TIMEOUT}, not {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, not {self.max_retries}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, not {self.max_tokens}")


@dataclass(frozen=True)
class ChatRequest:
    system: str
    user: str
    temperature: float = 0.7

    def __post_init__(self):
        if not self.system or not self.user:
            raise ValueError("system and user messages must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int


class ScriptedBackend:
    """Replays canned responses in order; the primary test vehicle.

    Token counts are whitespace-token estimates so accounting stays
    deterministic. Single-consumer: the cursor is sequential state.
    """

    def __init__(self, entries: list[str], name: str = "scripted"):
        self.entries = list(entries)
        self.cursor = 0
        self.name = name
        self.requests: list[ChatRequest] = []

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        text = Path(path).read_text()
        entries = [e.strip("\n") for e in _split_transcript(text)]
        return cls(entries, name=f"scripted:{Path(path).name}")

    def complete(self, req: ChatRequest) -> ChatResponse:
        self.requests.append(req)
        if self.cursor >= len(self.entries):
            raise TranscriptExhaustedError(
                f"transcript {self.name} exhausted after {len(self.entries)} turns"
            )
        text = self.entries[self.cursor]
        self.cursor += 1
        return ChatResponse(
            text=text,
            prompt_tokens=len(req.system.split()) + len(req.user.split()),
            completion_tokens=len(text.split()),
        )


def _split_transcript(text: str) -> list[str]:
    entries: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip() == TRANSCRIPT_DELIMITER:
            entries.append("\n".join(current))
            current = []
        else:
            current.append(line)
    if any(line.strip() for line in current):
        entries.append("\n".join(current))
    return entries


class HttpBackend:
    """OpenAI-compatible chat-completions client for an http ``BackendConfig``.

    The API key is read from the environment at call time and never stored or
    logged. Transport failures and 408, 429 and 5xx responses are retried
    with exponential backoff; for a status, a numeric ``Retry-After`` (capped
    at ``timeout``) replaces the backoff. A status that survives all retries,
    or any other non-2xx status at once, surfaces as ApiError. Calls share one
    ``requests.Session``, so a keep-alive endpoint is connected to once;
    ``close`` releases it. Single-consumer, like the session. ``requests`` is
    imported by the first backend made, not with the module: it is the
    slowest import of the package, and only this backend needs it.
    """

    def __init__(self, config: BackendConfig, backoff: float = 0.5):
        import requests

        self.config = config
        self.backoff = backoff
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def __repr__(self) -> str:
        return f"HttpBackend(endpoint={self.config.endpoint!r}, model={self.config.model!r})"

    def complete(self, req: ChatRequest) -> ChatResponse:
        import requests

        cfg = self.config
        key = os.environ.get(cfg.key_env_var)
        if not key:
            raise TransportError(f"API key environment variable {cfg.key_env_var} is not set")
        payload = {
            "model": cfg.model,
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "temperature": req.temperature,
        }
        if cfg.max_tokens is not None:
            payload["max_tokens"] = cfg.max_tokens
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        last_exc: Exception | None = None
        for attempt in range(cfg.max_retries + 1):
            try:
                resp = self._session.post(
                    cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
                )
            except requests.RequestException as exc:
                last_exc = exc
                if attempt < cfg.max_retries:
                    time.sleep(self.backoff * 2**attempt)
                continue
            if resp.status_code // 100 != 2:
                if attempt == cfg.max_retries or not _retryable(resp.status_code):
                    raise ApiError(resp.status_code, resp.text)
                time.sleep(self._retry_delay(resp, attempt))
                continue
            try:
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
                usage = body.get("usage")
                usage = {} if usage is None else usage  # "usage": null as if left out
                prompt_tokens = usage.get("prompt_tokens", 0)
                completion_tokens = usage.get("completion_tokens", 0)
            except (ValueError, LookupError, TypeError, AttributeError,
                    RecursionError) as exc:  # RecursionError: a deeply nested body
                raise MalformedResponseError(f"malformed response body: {resp.text[:500]}") from exc
            if not isinstance(text, str):
                raise MalformedResponseError(f"response has no text content: {resp.text[:500]}")
            # a count is a JSON integer: not 2.5, 1e20, true or "7"
            if not all(type(v) is int and v >= 0 for v in (prompt_tokens, completion_tokens)):
                raise MalformedResponseError(f"bad token count: {resp.text[:500]}")
            return ChatResponse(text, prompt_tokens, completion_tokens)
        raise TransportError(f"request failed after {cfg.max_retries + 1} attempts: {last_exc}")

    def _retry_delay(self, resp, attempt: int) -> float:
        try:
            delay = float(resp.headers.get("Retry-After", "-1"))
        except ValueError:  # an HTTP date
            delay = -1.0
        # NaN fails the test too, and an infinite delay is capped
        return min(delay, self.config.timeout) if delay >= 0 else self.backoff * 2**attempt


def _retryable(status: int) -> bool:
    return status in (408, 429) or status // 100 == 5


@dataclass
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


def estimate_cost(usage: TokenUsage, model: str, price_table: dict[str, tuple[float, float]]) -> float:
    """Linear cost from per-token prompt/completion prices.

    ``price_table`` maps model name to (prompt price per token, completion
    price per token). Raises UnknownModelError when the model has no entry.
    """
    if model not in price_table:
        raise UnknownModelError(model)
    prompt_price, completion_price = price_table[model]
    return usage.prompt_tokens * prompt_price + usage.completion_tokens * completion_price
