"""Chat transports: live HTTP, record/replay cassette, and scripted mock.

All transports share one contract: ``send(transcript, temperature) -> text``.
The orchestrator additionally passes a :class:`RequestMeta` describing which
chain step it is on; the live transport ignores it, the cassette names it
when a replay finds no entry, and the scripted mock uses it as its lookup key.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Mapping, Sequence

logger = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")


class BackendError(RuntimeError):
    """Transport-level failure: missing script entry, cassette miss, HTTP error."""


class TranscriptError(ValueError):
    """Raised when a turn would violate transcript ordering rules."""


@dataclass(frozen=True)
class ChatTurn:
    role: str
    text: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise TranscriptError(f"unknown role {self.role!r}")


class ChatTranscript:
    """Append-only conversation state shared across all steps of one chain.

    Optional system turns lead; afterwards roles strictly alternate
    user/assistant.  Assistant turns are only ever appended once accepted,
    and accepted assistant text is never empty.

    The first :func:`request_hash` starts a running sha256 of the canonical
    message list; later ones extend it over the turns appended since.
    """

    # (that sha256, the number of turns it covers); None until first hashed
    _prefix: tuple[Any, int] | None = None

    def __init__(self, turns: Sequence[ChatTurn] = ()):
        self._turns: list[ChatTurn] = []
        for turn in turns:
            self.append(turn)

    @property
    def turns(self) -> tuple[ChatTurn, ...]:
        return tuple(self._turns)

    def __len__(self) -> int:
        return len(self._turns)

    def append(self, turn: ChatTurn) -> None:
        if turn.role == "system":
            if any(t.role != "system" for t in self._turns):
                raise TranscriptError("system turns must come first")
        else:
            last = self._turns[-1].role if self._turns else "system"
            expected = "user" if last in ("system", "assistant") else "assistant"
            if turn.role != expected:
                raise TranscriptError(
                    f"expected a {expected} turn after {last!r}, got {turn.role!r}"
                )
            if turn.role == "assistant" and not turn.text.strip():
                raise TranscriptError("accepted assistant turns must be non-empty")
        self._turns.append(turn)

    def add_system(self, text: str) -> None:
        self.append(ChatTurn("system", text))

    def add_user(self, text: str) -> None:
        self.append(ChatTurn("user", text))

    def add_assistant(self, text: str) -> None:
        self.append(ChatTurn("assistant", text))

    def messages(self) -> list[dict[str, str]]:
        return [{"role": t.role, "text": t.text} for t in self._turns]

    def _prefix_sha256(self) -> Any:
        """A sha256 fed ``{"messages": [`` and then each turn's canonical JSON,
        ``{"role": ..., "text": ...}``, joined by ``", "``."""
        running, count = self._prefix or (hashlib.sha256(b'{"messages": ['), 0)
        new = self._turns[count:]
        if new:
            # roles need no escaping; encode before touching the state, as a
            # lone surrogate raises here
            data = ", ".join(f'{{"role": "{t.role}", "text": {encode_basestring(t.text)}}}'
                             for t in new).encode("utf-8")
            running = running.copy()
            running.update(b", " + data if count else data)
            self._prefix = (running, count + len(new))
        return running.copy()


@dataclass(frozen=True)
class RequestMeta:
    """Orchestrator-side context for a chat request (mock lookup key)."""

    relation: str
    step: int
    attempt: int = 0
    doc_index: int = 0


@dataclass
class RequestEnvelope:
    """What a backend saw for one call; kept by test doubles for assertions."""

    messages: list[dict[str, str]]
    temperature: float
    meta: RequestMeta | None


def request_hash(transcript: ChatTranscript, temperature: float) -> str:
    """The key of a cassette entry, which cassettes on disk depend on: the hex
    sha256 of ``json.dumps({"messages": transcript.messages(), "temperature":
    temperature}, ensure_ascii=False, sort_keys=True).encode()``, computed
    over only the turns appended since the transcript was last hashed."""
    digest = transcript._prefix_sha256()
    suffix = json.dumps(temperature, ensure_ascii=False, sort_keys=True)
    digest.update(f'], "temperature": {suffix}}}'.encode("utf-8"))
    return digest.hexdigest()


class ChatBackend:
    def send(
        self,
        transcript: ChatTranscript,
        temperature: float,
        meta: RequestMeta | None = None,
    ) -> str:
        raise NotImplementedError


class ScriptedBackend(ChatBackend):
    """Deterministic mock keyed by (relation, step) or (relation, doc_index, step).

    Script values are either a string (served for every attempt) or a sequence
    of strings served per attempt, the last one repeating.  Every call is
    recorded in ``self.calls`` for contract tests, unless ``record_calls`` is
    false: the pipeline's mock backend keeps no transcripts, which would hold
    a copy of every chain's conversation until its stage ends.
    """

    def __init__(self, script: Mapping[tuple, str | Sequence[str]], record_calls: bool = True):
        self._script = dict(script)
        self._lock = threading.Lock()
        self._record_calls = record_calls
        self.calls: list[RequestEnvelope] = []

    def send(self, transcript, temperature, meta=None):
        if meta is None:
            raise BackendError("scripted backend requires request metadata")
        if self._record_calls:
            with self._lock:
                self.calls.append(RequestEnvelope(transcript.messages(), temperature, meta))
        for key in ((meta.relation, meta.doc_index, meta.step), (meta.relation, meta.step)):
            if key in self._script:
                value = self._script[key]
                break
        else:
            raise BackendError(
                f"no scripted answer for relation={meta.relation!r} "
                f"doc={meta.doc_index} step={meta.step}"
            )
        if isinstance(value, str):
            return value
        if not value:
            raise BackendError(f"empty script sequence for {meta}")
        return value[min(meta.attempt, len(value) - 1)]


class CassetteBackend(ChatBackend):
    """Record/replay transport backed by an append-only JSONL journal.

    Each line holds one entry, ``{"request_hash": ..., "response_text": ...}``,
    as canonical JSON (sorted keys, compact separators, UTF-8).  Replay
    consumes entries in file order per request hash, so repeated identical
    requests (sampling) replay in the order they were recorded.  Record mode
    delegates to an inner backend, then appends one line per call and closes
    the file, which flushes it to the OS (there is no ``fsync``), so recording
    n calls writes O(n) bytes.

    Only lines that end in a newline count: an unterminated last line is what
    a crash mid-write leaves, so replay ignores it with a warning and record
    mode cuts it off before appending; a crash loses at most the call in
    flight.  Any other malformed line raises :class:`BackendError` naming the
    file and line.  A file that starts with ``[`` is a JSON-list cassette of an
    older docrte; it is refused in both modes and has to be re-recorded.
    """

    def __init__(self, path: Path | str, mode: str = "replay",
                 inner: ChatBackend | None = None):
        if mode not in ("replay", "record"):
            raise ValueError(f"cassette mode must be 'replay' or 'record', got {mode!r}")
        if mode == "record" and inner is None:
            raise ValueError("cassette record mode needs an inner backend")
        self.path = Path(path)
        self.mode = mode
        self.inner = inner
        self._lock = threading.Lock()
        # replay: the unconsumed responses per request hash, in file order
        self._replay: dict[str, deque[str]] = {}
        if not self.path.exists():
            if mode == "replay":
                raise BackendError(f"cassette not found: {self.path}")
            self.path.parent.mkdir(parents=True, exist_ok=True)
        elif mode == "replay":
            for h, text in self._read():
                self._replay.setdefault(h, deque()).append(text)
        else:
            self._read()  # checks the file and readies it for appending

    def _read(self) -> list[tuple[str, str]]:
        """The entries of the cassette file in order.  In record mode, also
        leave the file ready to append to: an unterminated last line is cut off."""
        data = self.path.read_bytes()
        if data.startswith(b"["):
            raise BackendError(f"{self.path}: a JSON-list cassette, which this docrte "
                               "no longer reads; it must be re-recorded")
        complete = data.rfind(b"\n") + 1
        entries = []
        for number, line in enumerate(data[:complete].split(b"\n")[:-1], 1):
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise BackendError(f"{self.path}:{number}: malformed cassette line: {exc}") from exc
            if not (isinstance(row, dict) and isinstance(row.get("request_hash"), str)
                    and isinstance(row.get("response_text"), str)):
                raise BackendError(f"{self.path}:{number}: cassette entries need string "
                                   "'request_hash' and 'response_text'")
            entries.append((row["request_hash"], row["response_text"]))
        if complete < len(data):
            logger.warning("%s: ignoring an unterminated last line (%d bytes) left by an "
                           "interrupted write", self.path, len(data) - complete)
            if self.mode == "record":
                os.truncate(self.path, complete)
        return entries

    def send(self, transcript, temperature, meta=None):
        h = request_hash(transcript, temperature)
        if self.mode == "replay":
            with self._lock:
                queue = self._replay.get(h)
                if queue:
                    return queue.popleft()
            where = "" if meta is None else (
                f" (relation={meta.relation!r} doc_index={meta.doc_index} "
                f"step={meta.step} attempt={meta.attempt})")
            raise BackendError(
                f"cassette {self.path} has no unconsumed entry for request hash {h}{where}"
            )
        text = self.inner.send(transcript, temperature, meta)
        line = json.dumps({"request_hash": h, "response_text": text}, ensure_ascii=False,
                          sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock, open(self.path, "ab") as journal:
            journal.write(line.encode("utf-8"))
        return text


class RateLimiter:
    """Token-bucket limiter shared by live-call threads."""

    def __init__(self, rate_per_sec: float, burst: int = 1):
        if rate_per_sec <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst at least 1")
        self.rate = float(rate_per_sec)
        self.capacity = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}
# statuses whose Retry-After header says how long to wait before retrying
RETRY_AFTER_STATUS = {429, 503}


def _retry_after(resp: Any) -> float | None:
    """The delay a delta-seconds ``Retry-After`` header asks for, if any.

    The HTTP-date form is not read; the caller backs off as usual then.
    """
    value = resp.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class LiveChatBackend(ChatBackend):
    """HTTP client for a chat-completion endpoint.

    The bearer token is read from the environment variable named by
    ``api_key_env`` at call time; secrets never land in config files or run
    artifacts.  Retryable statuses (408 request timeout, 429 and 5xx) back off
    exponentially; a 429 or 503 with a delta-seconds ``Retry-After`` header
    waits that long instead.  Either wait is capped by ``backoff_cap``.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str,
        timeout: float = 60.0,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        rate_limiter: RateLimiter | None = None,
        session: Any = None,
    ):
        import requests

        self.base_url = base_url
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.rate_limiter = rate_limiter
        self.session = session or requests.Session()

    def _payload(self, transcript: ChatTranscript, temperature: float) -> dict[str, Any]:
        return {
            "model": self.model,
            "messages": [
                {"role": t.role, "content": t.text} for t in transcript.turns
            ],
            "temperature": temperature,
        }

    def send(self, transcript, temperature, meta=None):
        token = os.environ.get(self.api_key_env)
        if not token:
            raise BackendError(
                f"environment variable {self.api_key_env} is not set (API key)"
            )
        last_error = "no attempt made"
        for attempt in range(self.max_attempts):
            asked: float | None = None
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            try:
                resp = self.session.post(
                    self.base_url,
                    json=self._payload(transcript, temperature),
                    headers={"Authorization": f"Bearer {token}"},
                    timeout=self.timeout,
                )
            except OSError as exc:
                last_error = f"connection error: {exc}"
            else:
                if resp.status_code == 200:
                    try:
                        return resp.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise BackendError(
                            f"unexpected completion payload from {self.base_url}: {exc!r}"
                        ) from exc
                last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
                if resp.status_code not in RETRYABLE_STATUS:
                    raise BackendError(last_error)
                if resp.status_code in RETRY_AFTER_STATUS:
                    asked = _retry_after(resp)
            if attempt + 1 < self.max_attempts:
                backoff = self.backoff_base * (2 ** attempt) if asked is None else asked
                delay = min(self.backoff_cap, backoff)
                logger.warning("chat request failed (%s); retrying in %.1fs", last_error, delay)
                time.sleep(delay)
        raise BackendError(f"chat request failed after {self.max_attempts} attempts: {last_error}")


@dataclass
class CountingBackend(ChatBackend):
    """Wrapper that counts calls; used to prove resumed stages stay cold.

    Safe to share between generation threads: ``calls`` and ``envelopes``
    change together, under a lock.
    """

    inner: ChatBackend
    calls: int = 0
    envelopes: list[RequestEnvelope] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    def send(self, transcript, temperature, meta=None):
        envelope = RequestEnvelope(transcript.messages(), temperature, meta)
        with self._lock:
            self.calls += 1
            self.envelopes.append(envelope)
        return self.inner.send(transcript, temperature, meta)
