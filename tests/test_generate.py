"""Multi-step chat generation: parsing, retries, grounding, corpus assembly."""
from __future__ import annotations

import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrte.backends import (
    BackendError,
    ChatBackend,
    ChatTranscript,
    CountingBackend,
    ScriptedBackend,
)
from docrte.docio import ParseError, canonical_dumps, write_chunks_atomic
from docrte.generate import (
    ChainConfig,
    GenerationRecord,
    GroundingReport,
    extract_json_block,
    generate_corpus,
    ground_entity_mentions,
    ground_support,
    load_records,
    lowered_sentences,
    normalized_sentences,
    records_chunks,
    run_chain,
    _numbered_lines,
    _strip_line_prefix,
)
from docrte.model import EntityMention, validate_document
from docrte.prompts import PromptLibrary
from docrte.simulate import (
    build_world,
    chat_script,
    corrupt_labels,
    synthetic_registry,
    world_documents,
)
from docrte.model import fact_keys

from conftest import TRICKY


# ---------------------------------------------------------------------------
# text-parsing helpers


class TestLineParsing:
    def test_numbered_lines_accept_common_markers(self):
        text = "1. alpha\n2) beta\n3: gamma\n4 - delta\nplain text\n"
        assert _numbered_lines(text) == [
            (1, "alpha"), (2, "beta"), (3, "gamma"), (4, "delta")]

    def test_strip_line_prefix(self):
        assert _strip_line_prefix("- item") == "item"
        assert _strip_line_prefix("3. item") == "item"
        assert _strip_line_prefix("2) item") == "item"
        assert _strip_line_prefix("item") == "item"


class TestJsonExtraction:
    def test_fenced_block_wins(self):
        text = 'Sure thing!\n```json\n{"a": 1}\n```\nHope that helps.'
        assert extract_json_block(text) == {"a": 1}

    def test_bare_object_with_prose(self):
        text = 'Here is the record: {"a": {"b": 2}} — done.'
        assert extract_json_block(text) == {"a": {"b": 2}}

    def test_last_fenced_block_preferred(self):
        text = '```json\n{"draft": true}\n```\nrevised:\n```json\n{"draft": false}\n```'
        assert extract_json_block(text) == {"draft": False}

    def test_unparseable_raises(self):
        with pytest.raises(Exception):
            extract_json_block("no json here at all")


# ---------------------------------------------------------------------------
# grounding


def _ground_each_sentence(name, sentences, etype):
    """Reference grounding: joins and lowercases each sentence on every call."""
    target = " ".join(name.split()).lower()
    mentions = []
    for sent_id, tokens in enumerate(sentences if target else ()):
        joined = " ".join(tokens).lower()
        pos = joined.find(target)
        while pos != -1:
            end = pos + len(target)
            if (pos == 0 or joined[pos - 1] == " ") and (end == len(joined) or joined[end] == " "):
                start = joined[:pos].count(" ")
                mentions.append(EntityMention(name=name, sent_id=sent_id, start=start,
                                              end=start + target.count(" ") + 1, etype=etype))
                break
            pos = joined.find(target, pos + 1)
    return mentions


def _ground_support_per_call(support, sentences):
    """Reference support grounding: renders every sentence on every call."""
    rendered = [" ".join(" ".join(tokens).split()).casefold() for tokens in sentences]
    evidence, unmatched = set(), []
    for quote in support:
        q = " ".join(quote.split()).casefold()
        if not q:
            continue
        hits = [i for i, sent in enumerate(rendered) if q in sent or sent in q]
        if hits:
            evidence.update(hits)
        else:
            unmatched.append(quote)
    return sorted(evidence), unmatched


class TestGrounding:
    # case variants, tokens inside other tokens, and "İ", whose lowercase form
    # is two characters long
    TOKENS = ["Ada", "ADA", "ada", "Adalbert", "da", "Lovelace", "lovelace", "İ", "i̇", ".", "-"]
    SENTENCES = [
        ["Ada", "Lovelace", "wrote", "the", "notes", "."],
        ["The", "notes", "cite", "ADA", "LOVELACE", "often", "."],
    ]

    def test_finds_token_aligned_spans_case_insensitively(self):
        mentions = ground_entity_mentions("ada lovelace", self.SENTENCES, "PER")
        spans = [(m.sent_id, m.start, m.end) for m in mentions]
        assert (0, 0, 2) in spans
        assert (1, 3, 5) in spans

    def test_substring_of_a_token_does_not_match(self):
        assert ground_entity_mentions("ove", self.SENTENCES, "PER") == []

    def test_missing_name_yields_no_mentions(self):
        assert ground_entity_mentions("Charles Babbage", self.SENTENCES, "PER") == []

    @given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from(TOKENS), max_size=3))
    def test_lowered_sentences_give_the_same_mentions(self, sentences, name_tokens):
        name = " ".join(name_tokens)
        expected = _ground_each_sentence(name, sentences, "PER")
        assert ground_entity_mentions(name, sentences, "PER") == expected
        lowered = lowered_sentences(sentences)
        assert ground_entity_mentions(name, sentences, "PER", lowered) == expected

    # "ß" casefolds to "ss"; "\u2028" is whitespace to str.split
    SUPPORT_TOKENS = TOKENS + ["Straße", "STRASSE", "\u2028", ""]

    @given(st.lists(st.lists(st.sampled_from(TOKENS + ["Straße", "STRASSE"]),
                             min_size=1, max_size=6),
                    min_size=1, max_size=4),
           st.lists(st.lists(st.sampled_from(SUPPORT_TOKENS), max_size=4).map(" ".join),
                    max_size=4))
    def test_normalized_sentences_give_the_same_evidence(self, sentences, support):
        expected = _ground_support_per_call(support, sentences)
        assert ground_support(support, sentences) == expected
        rendered = normalized_sentences(sentences)
        assert ground_support(support, sentences, rendered) == expected

    def test_support_maps_to_sentence_ids(self):
        support = ["The notes cite ADA LOVELACE often .", "not in the document"]
        evidence, unmatched = ground_support(support, self.SENTENCES)
        assert evidence == [1]
        assert unmatched == ["not in the document"]

    def test_support_matches_on_containment_either_way(self):
        evidence, unmatched = ground_support(["wrote the notes"], self.SENTENCES)
        assert evidence == [0]
        assert unmatched == []


# ---------------------------------------------------------------------------
# scripted chains


@pytest.fixture(scope="module")
def world_kit():
    registry = synthetic_registry(12)
    unseen = registry.ids()[:2]
    pool = registry.ids()[2:8]
    world = build_world(registry, unseen, seed=5, facts_per_relation=3,
                        related_pool=pool, n_related=3)
    truth = world_documents(world, docs_per_relation=2, facts_per_doc=2, seed=5)
    corrupted = corrupt_labels(truth, world.unseen, drop_prob=0.0,
                               spurious_prob=0.0, seed=5)
    return registry, world, truth, corrupted


def small_config(**kwargs) -> ChainConfig:
    return ChainConfig(docs_per_relation=2, **kwargs)


class TestChainHappyPath:
    def test_seven_accepted_turns_and_valid_document(self, world_kit):
        registry, world, truth, corrupted = world_kit
        backend = ScriptedBackend(chat_script(world, corrupted))
        rel = sorted(world.unseen)[0]
        record = run_chain(backend, rel, registry, small_config(), doc_index=0)
        assert record.ok, record.failure
        assert len(record.accepted_turn_indices) == 7
        assistant_turns = [t for t in record.transcript.turns if t.role == "assistant"]
        assert len(assistant_turns) == 7
        validate_document(record.document, registry)
        assert any(lb.relation == rel for lb in record.document.labels)

    def test_equal_document_tokens_share_one_string(self, world_kit):
        registry, world, truth, corrupted = world_kit
        backend = ScriptedBackend(chat_script(world, corrupted))
        docs = [run_chain(backend, rel, registry, small_config(), doc_index=0).document
                for rel in sorted(world.unseen)]
        tokens = [tok for doc in docs for sent in doc.sentences for tok in sent]
        first = {}
        for tok in tokens:
            first.setdefault(tok, tok)
        assert len(first) < len(tokens)
        assert all(tok is first[tok] for tok in tokens)

    def test_requests_strictly_extend_the_transcript(self, world_kit):
        registry, world, truth, corrupted = world_kit
        backend = ScriptedBackend(chat_script(world, corrupted))
        rel = sorted(world.unseen)[0]
        run_chain(backend, rel, registry, small_config(), doc_index=0)
        calls = backend.calls
        assert len(calls) == 7
        for earlier, later in zip(calls, calls[1:]):
            n = len(earlier.messages)
            assert len(later.messages) >= n + 2
            assert later.messages[:n] == earlier.messages

    def test_only_step_two_is_sampled_hot(self, world_kit):
        registry, world, truth, corrupted = world_kit
        backend = ScriptedBackend(chat_script(world, corrupted))
        rel = sorted(world.unseen)[0]
        config = small_config(temperature_step2=1.0, temperature_other=0.0)
        run_chain(backend, rel, registry, config, doc_index=0)
        by_step = {c.meta.step: c.temperature for c in backend.calls}
        assert by_step[2] == 1.0
        assert all(t == 0.0 for step, t in by_step.items() if step != 2)

    def test_document_facts_match_the_scripted_source(self, world_kit):
        registry, world, truth, corrupted = world_kit
        backend = ScriptedBackend(chat_script(world, corrupted))
        for doc in corrupted.documents:
            rel, _, k = doc.doc_id.rpartition("-")
            record = run_chain(backend, rel, registry, small_config(), doc_index=int(k))
            assert record.ok, record.failure
            assert fact_keys(record.document) == fact_keys(doc)


class TestChainRetries:
    def test_malformed_answer_gets_one_corrective_retry(self, world_kit):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel = sorted(world.unseen)[0]
        good = script[(rel, 0, 4)]
        script[(rel, 0, 4)] = ["I cannot find any triplets, sorry!", good]
        backend = ScriptedBackend(script)
        record = run_chain(backend, rel, registry, small_config(), doc_index=0)
        assert record.ok
        assert len(record.accepted_turn_indices) == 7
        # 7 steps + 1 retry
        assert len(backend.calls) == 8
        retry_calls = [c for c in backend.calls if c.meta.step == 4]
        assert [c.meta.attempt for c in retry_calls] == [0, 1]
        # the malformed answer stays on the record, followed by a corrective turn
        texts = [t.text for t in record.transcript.turns]
        bad_at = texts.index("I cannot find any triplets, sorry!")
        assert record.transcript.turns[bad_at].role == "assistant"
        assert record.transcript.turns[bad_at + 1].role == "user"
        assert bad_at not in record.accepted_turn_indices

    def test_empty_answer_is_never_appended(self, world_kit):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel = sorted(world.unseen)[0]
        good = script[(rel, 0, 3)]
        script[(rel, 0, 3)] = ["   ", good]
        backend = ScriptedBackend(script)
        record = run_chain(backend, rel, registry, small_config(), doc_index=0)
        assert record.ok
        assert len(backend.calls) == 8
        first, second = [c for c in backend.calls if c.meta.step == 3]
        # the retry re-sends the identical request: nothing was appended
        assert first.messages == second.messages
        assert all(t.text.strip() for t in record.transcript.turns
                   if t.role == "assistant")

    def test_retry_budget_exhaustion_fails_the_chain(self, world_kit):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel = sorted(world.unseen)[0]
        script[(rel, 0, 4)] = "still no triplets"
        backend = ScriptedBackend(script)
        record = run_chain(backend, rel, registry, small_config(max_retries=2), doc_index=0)
        assert not record.ok
        assert record.failure["step"] == "extract_triplets"
        # initial attempt + two retries
        assert len([c for c in backend.calls if c.meta.step == 4]) == 3

    def test_transport_errors_become_failure_records(self, world_kit):
        registry, world, truth, corrupted = world_kit

        class ExplodingBackend(ChatBackend):
            def send(self, transcript, temperature, meta=None):
                raise BackendError("socket closed")

        rel = sorted(world.unseen)[0]
        record = run_chain(ExplodingBackend(), rel, registry, small_config())
        assert not record.ok
        assert record.failure["step"] == "transport"

    def test_related_selection_retries_on_bad_relations(self, world_kit):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel = sorted(world.unseen)[0]
        good = script[(rel, 0, 1)]
        # the unseen relation itself and an unknown name must be rejected
        script[(rel, 0, 1)] = [f"{registry.name_of(rel)}\nnot a relation", good]
        backend = ScriptedBackend(script)
        record = run_chain(backend, rel, registry, small_config(), doc_index=0)
        assert record.ok
        assert registry.name_of(rel) not in [
            registry.name_of(r) for r in record.related]
        assert len(record.related) == 3


class TestSingleRequestModes:
    @pytest.mark.parametrize("mode", ["vanilla", "chain_of_thought"])
    def test_single_json_answer_builds_a_document(self, world_kit, mode):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel = sorted(world.unseen)[0]
        backend = ScriptedBackend({(rel, 1): script[(rel, 0, 7)]})
        config = small_config(prompt_mode=mode, temperature_step2=0.9)
        record = run_chain(backend, rel, registry, config, doc_index=0)
        assert record.ok, record.failure
        validate_document(record.document, registry)
        assert len(backend.calls) == 1
        assert backend.calls[0].temperature == 0.9
        assert len(record.accepted_turn_indices) == 1


class TestCorpusGeneration:
    def test_failed_chains_are_recorded_but_excluded(self, world_kit):
        registry, world, truth, corrupted = world_kit
        script = chat_script(world, corrupted)
        rel_a, rel_b = sorted(world.unseen)
        script[(rel_b, 1, 4)] = "nothing to report"
        backend = ScriptedBackend(script)
        corpus, records = generate_corpus(
            backend, sorted(world.unseen), registry, small_config())
        assert len(records) == 4
        assert len(corpus.documents) == 3
        failed = [r for r in records if not r.ok]
        assert [r.doc_id for r in failed] == [f"{rel_b}-01"]

    def test_parallel_execution_matches_serial_output(self, world_kit):
        registry, world, truth, corrupted = world_kit
        serial_backend = ScriptedBackend(chat_script(world, corrupted))
        parallel_backend = ScriptedBackend(chat_script(world, corrupted))
        config = small_config()
        serial, _ = generate_corpus(
            serial_backend, sorted(world.unseen), registry, config, parallelism=1)
        parallel, _ = generate_corpus(
            parallel_backend, sorted(world.unseen), registry, config, parallelism=4)
        assert [d.doc_id for d in serial.documents] == [d.doc_id for d in parallel.documents]
        assert serial.documents == parallel.documents

    def test_counting_backend_counts_every_call_of_parallel_chains(self, world_kit):
        registry, world, truth, corrupted = world_kit

        class SlowCount(CountingBackend):
            """Widens the window between reading and writing ``calls``, so an
            increment made without a lock loses updates to concurrent sends."""

            @property
            def calls(self):
                value = self.__dict__["calls"]
                time.sleep(0.002)
                return value

            @calls.setter
            def calls(self, value):
                self.__dict__["calls"] = value

        inner = ScriptedBackend(chat_script(world, corrupted))
        counter = SlowCount(inner)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            generate_corpus(counter, sorted(world.unseen), registry, small_config(),
                            parallelism=4)
        finally:
            sys.setswitchinterval(interval)
        assert counter.calls == len(counter.envelopes) == len(inner.calls) == 28

    def test_all_chains_failing_raises(self, world_kit):
        registry, world, truth, corrupted = world_kit

        class ExplodingBackend(ChatBackend):
            def send(self, transcript, temperature, meta=None):
                raise BackendError("offline")

        with pytest.raises(Exception, match="no chain produced"):
            generate_corpus(ExplodingBackend(), sorted(world.unseen), registry,
                            small_config())


# ---------------------------------------------------------------------------
# the records file


@st.composite
def generation_records(draw):
    """Records whose transcripts draw from a small pool, so texts repeat."""
    pool = draw(st.lists(TRICKY.filter(str.strip), min_size=1, max_size=4))
    text = st.sampled_from(pool)
    records = []
    for i in range(draw(st.integers(0, 3))):
        transcript = ChatTranscript()
        for _ in range(draw(st.integers(0, 1))):
            transcript.add_system(draw(text))
        for turn in range(draw(st.integers(0, 5))):
            (transcript.add_assistant if turn % 2 else transcript.add_user)(draw(text))
        failure = draw(st.none() | st.fixed_dictionaries({"step": TRICKY, "message": TRICKY}))
        grounding = GroundingReport(*(draw(st.lists(TRICKY, max_size=2)) for _ in range(5)))
        records.append(GenerationRecord(
            unseen_relation=draw(TRICKY), doc_id=f"d{i}", related=draw(st.lists(TRICKY, max_size=2)),
            transcript=transcript, grounding=grounding,
            accepted_turn_indices=draw(st.lists(st.integers(0, 5), max_size=3)), failure=failure))
    return records


class TestRecordsFile:
    @given(generation_records())
    @settings(max_examples=60, deadline=None)
    def test_load_records_rebuilds_every_row(self, records):
        rows = [r.to_json() for r in records]
        text = "".join(records_chunks(records))
        data = json.loads(text)
        assert text == canonical_dumps(data, compact=True)
        texts = data["texts"]
        assert len(set(texts)) == len(texts)
        turns = [t.text for r in records for t in r.transcript.turns]
        assert texts == list(dict.fromkeys(turns))  # first-seen order
        assert all(0 <= t["text_id"] < len(texts)
                   for row in data["records"] for t in row["transcript"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.json"
            write_chunks_atomic(path, records_chunks(records))
            assert path.read_text(encoding="utf-8") == text
            assert load_records(path) == rows

    def test_grounding_json_equals_its_dataclass_fields(self):
        report = GroundingReport(["a"], ["b", "c"], [], ["d"], ["e", "f"])
        record = GenerationRecord(unseen_relation="R1", doc_id="R1-00", grounding=report)
        assert record.to_json()["grounding"] == asdict(report)

    @pytest.mark.parametrize("data", [
        {"records": [], "texts": [], "version": 2},
        {"records": [{"transcript": [{"role": "user", "text_id": 1}]}], "texts": ["q"],
         "version": 1},
        {"records": [{"transcript": [{"role": "user", "text_id": -1}]}], "texts": ["q"],
         "version": 1},
        {"records": [{"transcript": [{"role": "user"}]}], "texts": ["q"], "version": 1},
        {"records": [{"transcript": [{"role": "user", "text_id": 0}]}], "texts": "q",
         "version": 1},
        "records",
        # the bare array of to_json() rows that docrte wrote before the text table
        pytest.param([{"accepted_turn_indices": [2], "doc_id": "R1-00", "document": "R1-00",
                       "failure": None, "grounding": asdict(GroundingReport()),
                       "related": ["R2"], "transcript": [{"role": "system", "text": "sys"}],
                       "unseen_relation": "R1"}], id="bare_array"),
    ])
    def test_malformed_file_raises_parse_error(self, tmp_path, data):
        path = tmp_path / "records_1.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ParseError, match="records_1.json"):
            load_records(path)


class TestPromptLibrary:
    def test_builtin_templates_render(self):
        prompts = PromptLibrary()
        text = prompts.render("step1_related", unseen_relation="director",
                              relation_catalog="director\nproducer", n_related=3)
        assert "director" in text

    def test_missing_slot_is_an_error(self):
        prompts = PromptLibrary()
        with pytest.raises(Exception):
            prompts.render("step1_related", unseen_relation="director")

    def test_unknown_template_is_an_error(self):
        prompts = PromptLibrary()
        with pytest.raises(Exception):
            prompts.raw("step99_imaginary")
