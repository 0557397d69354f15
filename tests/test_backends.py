"""Chat transports: transcripts, hashing, scripted/cassette/live backends."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrte.backends import (
    BackendError,
    CassetteBackend,
    ChatTranscript,
    ChatTurn,
    CountingBackend,
    LiveChatBackend,
    RateLimiter,
    RequestMeta,
    ScriptedBackend,
    TranscriptError,
    request_hash,
)

from conftest import TRICKY


def transcript(*texts: str) -> ChatTranscript:
    """system, user, assistant, user, ... alternating from the given texts."""
    t = ChatTranscript()
    t.add_system(texts[0])
    for i, text in enumerate(texts[1:]):
        if i % 2 == 0:
            t.add_user(text)
        else:
            t.add_assistant(text)
    return t


class TestTranscript:
    def test_roles_alternate_after_system(self):
        t = transcript("sys", "q1", "a1", "q2")
        assert [turn.role for turn in t.turns] == ["system", "user", "assistant", "user"]

    def test_system_turns_only_at_the_start(self):
        t = ChatTranscript()
        with pytest.raises(TranscriptError):
            t.add_assistant("hello")
        t.add_system("sys")
        t.add_system("more system context")  # several leading system turns are fine
        t.add_user("q")
        with pytest.raises(TranscriptError):
            t.add_system("too late")

    def test_consecutive_same_role_rejected(self):
        t = transcript("sys", "q1")
        with pytest.raises(TranscriptError):
            t.add_user("q2")

    def test_empty_assistant_turn_rejected(self):
        t = transcript("sys", "q1")
        with pytest.raises(TranscriptError):
            t.add_assistant("   ")

    def test_messages_shape(self):
        t = transcript("sys", "q1", "a1")
        assert t.messages() == [
            {"role": "system", "text": "sys"},
            {"role": "user", "text": "q1"},
            {"role": "assistant", "text": "a1"},
        ]


def reference_hash(t: ChatTranscript, temperature) -> str:
    """The request digest as a cassette stores it: canonical JSON, whole."""
    payload = json.dumps({"messages": t.messages(), "temperature": temperature},
                         ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


TEMPERATURES = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-3, 3))


class TestRequestHash:
    def test_stable_for_equal_content(self):
        assert request_hash(transcript("s", "q"), 0.0) == request_hash(transcript("s", "q"), 0.0)

    def test_sensitive_to_temperature_and_text(self):
        base = request_hash(transcript("s", "q"), 0.0)
        assert request_hash(transcript("s", "q"), 1.0) != base
        assert request_hash(transcript("s", "q!"), 0.0) != base

    @pytest.mark.parametrize("build, temperature, digest", [
        (lambda: transcript("s", "q"), 0.0,
         "dd0cc3c7703d21f7353a69cfc226a662ffe83c0459ff84fe94a4f9616bf75a3b"),
        (lambda: transcript("s", "q"), 1,
         "7c4be44a6b745f7d912f77b512015a5b9e4a09784497a38a2bfae85774b13988"),
        (ChatTranscript, 0.7,
         "a83f8bac6d33200469eb1c0dd22b3a48b8884aadb0621677ee51b6aa683ab660"),
        (lambda: transcript("sys é", 'q "x"\\ \n\t\x00\u2028', "a \U0001F600", "q2"), 0.25,
         "bdf958985b120eaa12efffadbb77295fae92a198874c3d50dd543620785142d2"),
        (lambda: ChatTranscript([ChatTurn("system", "s1"), ChatTurn("system", "s2"),
                                 ChatTurn("user", "Zoë «»\x1f\x7f\u2029")]), 1.0,
         "0dfa3f413ba43494df1d45363ca6c4105bcdd64167f68309c712f94d6017d2ad"),
    ])
    def test_digests_pinned(self, build, temperature, digest):
        """Cassettes on disk are keyed by these digests: they must never change."""
        assert request_hash(build(), temperature) == digest

    @settings(max_examples=300, deadline=None)
    @given(systems=st.lists(TRICKY, min_size=0, max_size=2),
           turns=st.lists(st.tuples(TRICKY.filter(str.strip), st.booleans()), max_size=8),
           temperatures=st.lists(TEMPERATURES, min_size=1, max_size=4),
           hash_after_systems=st.booleans())
    def test_incremental_digest_equals_whole_transcript_digest(
            self, systems, turns, temperatures, hash_after_systems):
        """Hashing at random points while a transcript grows gives the digest of
        the whole canonical JSON, and that of a fresh transcript of the same turns."""
        t = ChatTranscript()
        for text in systems:
            t.add_system(text)

        def check(k: int) -> None:
            temperature = temperatures[k % len(temperatures)]
            digest = request_hash(t, temperature)
            assert digest == reference_hash(t, temperature)
            assert digest == request_hash(ChatTranscript(t.turns), temperature)
            assert request_hash(t, temperature) == digest  # hashing again changes nothing

        if hash_after_systems:
            check(0)
        for k, (text, hash_now) in enumerate(turns):
            if k % 2 == 0:
                t.add_user(text)
            else:
                t.add_assistant(text)
            if hash_now:
                check(k)
        check(len(turns))

    def test_lone_surrogate_raises_in_request_hash_not_at_append(self):
        t = transcript("s", "q", "a")
        request_hash(t, 0.0)  # the running digest now covers three turns
        t.add_user("bad \ud800 text")
        with pytest.raises(UnicodeEncodeError):
            request_hash(t, 0.0)
        with pytest.raises(UnicodeEncodeError):  # the failed call left no partial state
            request_hash(t, 0.0)
        fresh = ChatTranscript()
        fresh.add_user("\udfff")
        with pytest.raises(UnicodeEncodeError):
            request_hash(fresh, 0.0)


class TestScriptedBackend:
    def test_doc_specific_key_preferred(self):
        backend = ScriptedBackend({
            ("R1", 2): "generic",
            ("R1", 0, 2): "specific",
        })
        meta = RequestMeta(relation="R1", step=2, doc_index=0)
        assert backend.send(transcript("s", "q"), 0.0, meta) == "specific"
        meta = RequestMeta(relation="R1", step=2, doc_index=5)
        assert backend.send(transcript("s", "q"), 0.0, meta) == "generic"

    def test_attempt_sequences_repeat_last(self):
        backend = ScriptedBackend({("R1", 4): ["bad", "good"]})
        t = transcript("s", "q")
        assert backend.send(t, 0.0, RequestMeta("R1", 4, attempt=0)) == "bad"
        assert backend.send(t, 0.0, RequestMeta("R1", 4, attempt=1)) == "good"
        assert backend.send(t, 0.0, RequestMeta("R1", 4, attempt=9)) == "good"

    def test_missing_key_and_meta_raise(self):
        backend = ScriptedBackend({})
        with pytest.raises(BackendError):
            backend.send(transcript("s", "q"), 0.0, RequestMeta("R1", 1))
        with pytest.raises(BackendError):
            backend.send(transcript("s", "q"), 0.0, None)

    def test_calls_are_recorded(self):
        backend = ScriptedBackend({("R1", 1): "a"})
        backend.send(transcript("s", "q"), 0.7, RequestMeta("R1", 1))
        assert len(backend.calls) == 1
        envelope = backend.calls[0]
        assert envelope.temperature == 0.7
        assert envelope.meta.step == 1
        assert envelope.messages[-1] == {"role": "user", "text": "q"}


@dataclass
class EchoBackend:
    """Answers with the last user turn; raises once ``fail_after`` calls are done."""

    fail_after: int | None = None
    calls: int = 0

    def send(self, transcript, temperature, meta=None):
        if self.fail_after is not None and self.calls >= self.fail_after:
            raise BackendError("inner backend down")
        self.calls += 1
        return "café " + transcript.turns[-1].text


class TestCassetteBackend:
    def test_replay_consumes_duplicates_in_order(self, tmp_path):
        t = transcript("s", "q")
        h = request_hash(t, 0.5)
        cassette = tmp_path / "c.json"
        cassette.write_text("".join(json.dumps({"request_hash": h, "response_text": text}) + "\n"
                                    for text in ("first", "second")))
        backend = CassetteBackend(cassette, mode="replay")
        assert backend.send(t, 0.5) == "first"
        assert backend.send(t, 0.5) == "second"
        with pytest.raises(BackendError):
            backend.send(t, 0.5)

    def test_replay_missing_entry_raises(self, tmp_path):
        cassette = tmp_path / "c.json"
        cassette.write_text("")
        backend = CassetteBackend(cassette, mode="replay")
        with pytest.raises(BackendError):
            backend.send(transcript("s", "q"), 0.0)

    def test_replay_requires_existing_file(self, tmp_path):
        with pytest.raises(BackendError):
            CassetteBackend(tmp_path / "nope.json", mode="replay")

    def test_record_then_replay_round_trip(self, tmp_path):
        inner = ScriptedBackend({("R1", 1): "answer one", ("R1", 2): "answer two"})
        cassette = tmp_path / "c.json"
        recorder = CassetteBackend(cassette, mode="record", inner=inner)
        t1 = transcript("s", "q1")
        t2 = transcript("s", "q1", "answer one", "q2")
        assert recorder.send(t1, 0.0, RequestMeta("R1", 1)) == "answer one"
        assert recorder.send(t2, 1.0, RequestMeta("R1", 2)) == "answer two"

        replayer = CassetteBackend(cassette, mode="replay")
        assert replayer.send(t1, 0.0) == "answer one"
        assert replayer.send(t2, 1.0) == "answer two"

    def test_record_requires_inner(self, tmp_path):
        with pytest.raises(ValueError):
            CassetteBackend(tmp_path / "c.json", mode="record")

    def test_record_appends_one_canonical_line_per_call(self, tmp_path):
        cassette = tmp_path / "c.json"
        recorder = CassetteBackend(cassette, mode="record", inner=EchoBackend())
        recorder.send(transcript("s", "q0"), 0.0)
        inode = cassette.stat().st_ino
        for i in range(1, 5):
            recorder.send(transcript("s", f"q{i}"), 0.0)
        assert cassette.stat().st_ino == inode  # appended to, never replaced
        lines = cassette.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 6
        for i, line in enumerate(lines[:-1]):
            entry = {"request_hash": request_hash(transcript("s", f"q{i}"), 0.0),
                     "response_text": f"café q{i}"}
            assert line == json.dumps(entry, ensure_ascii=False, sort_keys=True,
                                      separators=(",", ":"))

    def test_json_list_cassette_is_refused_unchanged(self, tmp_path):
        t1 = transcript("s", "q1")
        cassette = tmp_path / "c.json"
        cassette.write_text(json.dumps([
            {"request_hash": request_hash(t1, 0.0), "response_text": "one"},
        ], indent=2), encoding="utf-8")
        before = cassette.read_bytes()
        for mode, inner in (("replay", None), ("record", EchoBackend())):
            with pytest.raises(BackendError, match="c.json: a JSON-list cassette.*re-recorded"):
                CassetteBackend(cassette, mode=mode, inner=inner)
        assert cassette.read_bytes() == before

    def test_unterminated_last_line_is_dropped_then_truncated(self, tmp_path, caplog):
        t1, t2 = transcript("s", "q1"), transcript("s", "q2")
        cassette = tmp_path / "c.json"
        CassetteBackend(cassette, mode="record", inner=EchoBackend()).send(t1, 0.0)
        whole = cassette.read_bytes()
        cassette.write_bytes(whole + b'{"request_hash":"' + request_hash(t2, 0.0).encode())
        replayer = CassetteBackend(cassette, mode="replay")
        assert "unterminated last line" in caplog.text
        assert replayer.send(t1, 0.0) == "café q1"
        with pytest.raises(BackendError):
            replayer.send(t2, 0.0)

        CassetteBackend(cassette, mode="record", inner=EchoBackend()).send(t2, 0.0)
        assert cassette.read_bytes().startswith(whole)
        assert cassette.read_bytes().count(b"\n") == 2
        replayer = CassetteBackend(cassette, mode="replay")
        assert [replayer.send(t, 0.0) for t in (t1, t2)] == ["café q1", "café q2"]

    def test_malformed_inner_line_names_file_and_line(self, tmp_path):
        cassette = tmp_path / "c.json"
        CassetteBackend(cassette, mode="record", inner=EchoBackend()).send(
            transcript("s", "q"), 0.0)
        line = cassette.read_text(encoding="utf-8")
        cassette.write_text(line + "not json\n" + line, encoding="utf-8")
        for mode in ("replay", "record"):
            with pytest.raises(BackendError, match=r"c\.json:2: malformed"):
                CassetteBackend(cassette, mode=mode, inner=EchoBackend())

    def test_inner_failure_after_k_calls_keeps_k_entries(self, tmp_path):
        k = 3
        cassette = tmp_path / "c.json"
        recorder = CassetteBackend(cassette, mode="record", inner=EchoBackend(fail_after=k))
        requests = [transcript("s", f"q{i}") for i in range(k + 1)]
        for t in requests[:k]:
            recorder.send(t, 0.0)
        with pytest.raises(BackendError, match="inner backend down"):
            recorder.send(requests[k], 0.0)
        replayer = CassetteBackend(cassette, mode="replay")
        assert [replayer.send(t, 0.0) for t in requests[:k]] == [f"café q{i}" for i in range(k)]
        with pytest.raises(BackendError, match="no unconsumed entry"):
            replayer.send(requests[k], 0.0)

    def test_replay_miss_names_the_chain_step(self, tmp_path):
        cassette = tmp_path / "c.json"
        cassette.write_text("")
        backend = CassetteBackend(cassette, mode="replay")
        t = transcript("s", "q")
        with pytest.raises(BackendError) as miss:
            backend.send(t, 0.0, RequestMeta("P17", step=3, attempt=1, doc_index=4))
        message = str(miss.value)
        assert request_hash(t, 0.0) in message
        assert "relation='P17' doc_index=4 step=3 attempt=1" in message
        with pytest.raises(BackendError, match=r"request hash [0-9a-f]{64}$"):
            backend.send(t, 0.0)  # without meta only the hash is named


@dataclass
class FakeResponse:
    status_code: int
    payload: dict | None = None
    text: str = ""
    headers: dict = field(default_factory=dict)

    def json(self):
        if self.payload is None:
            raise ValueError("no JSON body")
        return self.payload


@dataclass
class FakeSession:
    responses: list[FakeResponse]
    requests: list[dict] = field(default_factory=list)

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout})
        return self.responses.pop(0)


def completion(text: str) -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


class TestLiveChatBackend:
    def make(self, responses, **kwargs):
        session = FakeSession(list(responses))
        backend = LiveChatBackend(
            base_url="https://chat.example/v1/completions",
            model="test-model",
            api_key_env="TEST_CHAT_KEY",
            session=session,
            backoff_base=0.0,
            **kwargs,
        )
        return backend, session

    def test_missing_api_key_raises(self, monkeypatch):
        monkeypatch.delenv("TEST_CHAT_KEY", raising=False)
        backend, _ = self.make([completion("hi")])
        with pytest.raises(BackendError, match="TEST_CHAT_KEY"):
            backend.send(transcript("s", "q"), 0.0)

    def test_success_parses_content_and_sends_bearer(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, session = self.make([completion("hello there")])
        assert backend.send(transcript("s", "q"), 1.0) == "hello there"
        sent = session.requests[0]
        assert sent["headers"]["Authorization"] == "Bearer sk-123"
        assert sent["json"]["temperature"] == 1.0
        assert sent["json"]["model"] == "test-model"
        assert sent["json"]["messages"][0] == {"role": "system", "content": "s"}

    def test_retries_on_429_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, session = self.make(
            [FakeResponse(429, text="slow down"), completion("ok")])
        assert backend.send(transcript("s", "q"), 0.0) == "ok"
        assert len(session.requests) == 2

    def test_retries_on_408_then_succeeds(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, session = self.make(
            [FakeResponse(408, text="request timeout"), completion("ok")])
        assert backend.send(transcript("s", "q"), 0.0) == "ok"
        assert len(session.requests) == 2

    def test_client_error_fails_immediately(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, session = self.make([FakeResponse(400, text="bad request")])
        with pytest.raises(BackendError, match="400"):
            backend.send(transcript("s", "q"), 0.0)
        assert len(session.requests) == 1

    def test_gives_up_after_max_attempts(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, session = self.make(
            [FakeResponse(503, text="down")] * 3, max_attempts=3)
        with pytest.raises(BackendError, match="3 attempts"):
            backend.send(transcript("s", "q"), 0.0)
        assert len(session.requests) == 3

    def test_retry_after_seconds_is_honoured_up_to_the_cap(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        slept = []
        monkeypatch.setattr("docrte.backends.time.sleep", slept.append)
        backend, session = self.make([
            FakeResponse(429, text="slow down", headers={"Retry-After": "7"}),
            FakeResponse(503, text="down", headers={"Retry-After": "120"}),
            # only the delta-seconds form on 429 and 503 is read
            FakeResponse(503, text="down", headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            FakeResponse(500, text="oops", headers={"Retry-After": "9"}),
            completion("ok"),
        ], backoff_cap=30.0)
        assert backend.send(transcript("s", "q"), 0.0) == "ok"
        assert len(session.requests) == 5
        assert slept == [7.0, 30.0, 0.0, 0.0]  # backoff_base is 0

    def test_malformed_completion_payload_raises(self, monkeypatch):
        monkeypatch.setenv("TEST_CHAT_KEY", "sk-123")
        backend, _ = self.make([FakeResponse(200, {"choices": []})])
        with pytest.raises(BackendError, match="unexpected completion payload"):
            backend.send(transcript("s", "q"), 0.0)


class TestRateLimiter:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(0)
        with pytest.raises(ValueError):
            RateLimiter(1.0, burst=0)

    def test_burst_allows_immediate_calls(self):
        limiter = RateLimiter(1000.0, burst=3)
        for _ in range(3):
            limiter.acquire()  # must not block


class TestCountingBackend:
    def test_counts_and_delegates(self):
        inner = ScriptedBackend({("R1", 1): "a"})
        counter = CountingBackend(inner)
        t = transcript("s", "q")
        assert counter.send(t, 0.0, RequestMeta("R1", 1)) == "a"
        assert counter.send(t, 0.0, RequestMeta("R1", 1)) == "a"
        assert counter.calls == 2
        assert len(counter.envelopes) == 2
