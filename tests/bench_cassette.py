"""Micro benchmarks for the cassette journal: recording and replaying 2,000
calls, and keying the calls of chain-shaped conversations.

Not collected by the default test run (its file name does not match
``test_*.py``).  Run it on its own::

    PYTHONPATH=src python -m pytest tests/bench_cassette.py
"""
from __future__ import annotations

import pytest

from docrte.backends import CassetteBackend, ChatTranscript, request_hash

CALLS = 2000
CHAINS = 300
STEPS = 7
CATALOG = ", ".join(f"Relation name {i} (P{100 + i})" for i in range(120))


class Answer:
    """Inner backend with a fixed answer of about a chain step's size."""

    text = "Entity A | Entity B | director\n" * 16

    def send(self, transcript, temperature, meta=None):
        return self.text


@pytest.fixture(scope="module")
def transcripts():
    out = []
    for i in range(CALLS):
        t = ChatTranscript()
        t.add_system("You generate documents about relations.")
        t.add_user(f"Request {i}: write a document that expresses relation R{i % 50}.")
        out.append(t)
    return out


def record(path, transcripts):
    path.unlink(missing_ok=True)
    backend = CassetteBackend(path, mode="record", inner=Answer())
    for t in transcripts:
        backend.send(t, 0.0)


def replay(path, transcripts):
    backend = CassetteBackend(path, mode="replay")
    for t in transcripts:
        backend.send(t, 0.0)


def test_record_2000_calls(benchmark, tmp_path, transcripts):
    path = tmp_path / "cassette.jsonl"
    benchmark(record, path, transcripts)
    assert path.read_bytes().count(b"\n") == CALLS


def test_replay_2000_calls(benchmark, tmp_path, transcripts):
    path = tmp_path / "cassette.jsonl"
    record(path, transcripts)
    benchmark(replay, path, transcripts)


def hash_chains():
    """Key every step of ``CHAINS`` seven-step chains, as a cassette does.

    The transcripts are built here, inside the timed function: a transcript
    keeps its running digest, so hashing a prebuilt one again would cost less.
    """
    for c in range(CHAINS):
        t = ChatTranscript()
        t.add_system("You generate documents about relations.")
        for step in range(1, STEPS + 1):
            prompt = f"Step {step} of chain {c}."
            t.add_user(prompt + (" Choose related relations from: " + CATALOG
                                 if step == 1 else ""))
            request_hash(t, 0.0)
            t.add_assistant(Answer.text)


def test_hash_300_chains_of_7_steps(benchmark):
    benchmark(hash_chains)
