"""Serialization: canonical JSON, corpus round-trips, interchange format."""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from docrte.docio import (
    CORPUS_VERSION,
    DIGEST_BUFFER,
    ChangedFileError,
    CorpusFormatError,
    ParseError,
    _docred_document,
    _row_relations,
    canonical_dumps,
    compact_array_chunks,
    corpus_chunks,
    corpus_to_json,
    document_from_json,
    document_to_json,
    file_digest,
    iter_docred,
    load_corpus,
    load_docred,
    load_json,
    load_registry,
    save_corpus,
    save_docred,
    sha256_text,
    write_chunks_atomic,
    write_json_atomic,
    write_text_atomic,
)
from docrte.evaluate import save_predictions
from docrte.model import (
    PROVENANCES,
    Corpus,
    Document,
    Entity,
    EntityMention,
    TripletLabel,
    ValidationError,
    validate_document,
    validated,
)
from docrte.pseudo import (
    FinetunePolicy,
    RelationGroup,
    assemble_finetune_dataset,
    write_finetune_file,
)
from docrte.simulate import build_world, synthetic_registry, world_documents
from docrte.split import SplitSpec, save_split_spec

from conftest import TRICKY, build_corpus, build_doc, make_registry


class TestCanonicalDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_unicode_preserved(self):
        assert "Łódź" in canonical_dumps({"city": "Łódź"})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": math.nan})

    def test_same_object_same_bytes(self):
        obj = {"z": [1, {"k": "v"}], "a": "ä"}
        assert canonical_dumps(obj) == canonical_dumps(json.loads(canonical_dumps(obj)))

    def test_compact_is_one_line_with_the_same_content(self):
        obj = {"z": [1, {"k": "v", "n": None}], "a": "Łódź", "f": 0.5}
        text = canonical_dumps(obj, compact=True)
        assert text == '{"a":"Łódź","f":0.5,"z":[1,{"k":"v","n":null}]}\n'
        assert json.loads(text) == json.loads(canonical_dumps(obj)) == obj
        with pytest.raises(ValueError):
            canonical_dumps({"x": math.nan}, compact=True)


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text_atomic(path, "first")
        write_text_atomic(path, "second")
        assert path.read_text() == "second"
        # no stray temp files left behind
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_write_json_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "x.json"
        write_json_atomic(path, {"ok": True})
        assert load_json(path) == {"ok": True}

    def test_load_json_error_cites_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": }')
        with pytest.raises(ParseError, match="offset"):
            load_json(path)

    def test_digest_helpers_agree(self, tmp_path):
        path = tmp_path / "x.txt"
        write_text_atomic(path, "payload")
        assert file_digest(path) == sha256_text("payload")

    @pytest.mark.parametrize("size", [0, 1, DIGEST_BUFFER - 1, DIGEST_BUFFER,
                                      DIGEST_BUFFER + 1, 3 * DIGEST_BUFFER + 7])
    def test_streamed_digest_is_the_sha256_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "x.bin"
        path.write_bytes(os.urandom(size))
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_load_with_a_digest_checks_the_bytes_parsed(self, tmp_path):
        path = tmp_path / "x.json"
        digest = write_json_atomic(path, {"a": 1})
        assert load_json(path, digest) == {"a": 1}
        write_json_atomic(path, {"a": 2})
        with pytest.raises(ChangedFileError, match="x.json changed"):
            load_json(path, digest)


NAME = TRICKY.filter(lambda text: text.strip())


@st.composite
def documents(draw):
    sentences = draw(st.lists(st.lists(TRICKY, min_size=1, max_size=3), min_size=1, max_size=3))
    mentions = st.builds(EntityMention, name=TRICKY, sent_id=st.integers(0, 5),
                         start=st.integers(0, 3), end=st.integers(4, 6),
                         etype=st.sampled_from(["PER", "ORG"]))
    entities = draw(st.lists(st.builds(Entity, canonical_name=NAME,
                                       mentions=st.lists(mentions, max_size=2)),
                             min_size=2, max_size=3))
    labels = draw(st.lists(st.builds(
        TripletLabel, head=st.just(0), tail=st.just(1), relation=TRICKY,
        evidence=st.lists(st.integers(0, 5), max_size=2),
        reason=st.none() | TRICKY, support=st.none() | st.lists(TRICKY, max_size=2)),
        max_size=2))
    return Document(doc_id=draw(TRICKY), title=draw(TRICKY), sentences=sentences,
                    entities=entities, labels=labels)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TRICKY,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY, inner, max_size=3),
    max_leaves=8)


class TestStreamingWriter:
    @given(st.lists(documents(), max_size=3), st.sampled_from(PROVENANCES))
    @settings(max_examples=60, deadline=None)
    def test_streamed_corpus_is_the_canonical_compact_dump(self, docs, provenance):
        corpus = Corpus(documents=docs, provenance=provenance)
        expected = canonical_dumps(corpus_to_json(corpus), compact=True)
        assert "".join(corpus_chunks(corpus)) == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            digest = save_corpus(corpus, path)
            assert path.read_bytes() == expected.encode("utf-8")
            assert digest == file_digest(path)

    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_document_dicts_are_built_in_sorted_key_order(self, doc):
        # corpus_chunks encodes documents without sorting keys, which gives
        # canonical bytes only while every nested dict is built sorted
        def dicts(value):
            if isinstance(value, dict):
                yield value
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    yield from dicts(item)

        found = list(dicts(document_to_json(doc)))
        assert {"doc_id", "canonical_name", "sent_id"} & {k for d in found for k in d}
        for d in found:
            assert list(d) == sorted(d)

    @given(st.lists(JSON_VALUES, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_array_chunks_are_the_canonical_compact_dump(self, items):
        chunks = list(compact_array_chunks(iter(items)))
        assert "".join(chunks) == canonical_dumps(items, compact=True)
        assert len(chunks) == (len(items) + 1 if items else 1)

    def test_every_writer_returns_the_digest_of_its_file(self, tmp_path, registry6):
        corpus = build_corpus([build_doc("d1", ["Acme", "Zoë «Q»"], [("Acme", "Zoë «Q»", "R1")])],
                              registry=registry6)
        writes = {
            "text": lambda p: write_text_atomic(p, "line\u2028two\n"),
            "json": lambda p: write_json_atomic(p, {"b": ["é", 1]}),
            "chunks": lambda p: write_chunks_atomic(p, iter(["a", "", "€\n"])),
            "corpus": lambda p: save_corpus(corpus, p),
            "docred": lambda p: save_docred(corpus, p),
            "finetune": lambda p: write_finetune_file(
                assemble_finetune_dataset(corpus, [RelationGroup(0, ("R1", "R2"))],
                                          FinetunePolicy(instruction="Extract."), registry6), p),
            "split spec": lambda p: save_split_spec(
                SplitSpec(seed=1, m=1, unseen=frozenset({"R1"}), seen=frozenset({"R2"})), p),
            "predictions": lambda p: save_predictions({"d1": [("Acme", "Zoë «Q»", "R1")]}, p),
        }
        for name, write in writes.items():
            path = tmp_path / name
            assert write(path) == file_digest(path), name

    def test_docred_file_is_the_canonical_compact_dump(self, tmp_path, registry6):
        corpus = build_corpus([build_doc("d1", ['A "x"', "B\\y"], [('A "x"', "B\\y", "R1")]),
                               build_doc("d2", ["C"], [])], registry=registry6)
        path = tmp_path / "docred.json"
        save_docred(corpus, path)
        text = path.read_text(encoding="utf-8")
        assert text == canonical_dumps(json.loads(text), compact=True)
        empty = tmp_path / "empty.json"
        save_docred(Corpus(documents=[], provenance="human"), empty)
        assert empty.read_text(encoding="utf-8") == "[]\n"

    def test_failing_chunk_source_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_text_atomic(path, "old contents\n")

        def chunks():
            yield "new "
            yield "partial"
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_chunks_atomic(path, chunks())
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert os.listdir(tmp_path) == ["out.json"]


class TestRegistryLoading:
    def test_mapping_style(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"P17": {"name": "country"}, "P27": {"name": "citizenship"}}))
        reg = load_registry(path)
        assert reg.ids() == ["P17", "P27"]
        assert reg.name_of("P17") == "country"

    def test_mapping_with_plain_string_values(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"P17": "country"}))
        assert load_registry(path).name_of("P17") == "country"

    def test_list_style_with_wrapper(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({"relations": [
            {"id": "P17", "name": "country", "description": "sovereign state"},
            {"id": "P27", "name": "citizenship"},
        ]}))
        reg = load_registry(path)
        assert reg.get("P17").description == "sovereign state"
        assert len(reg) == 2

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps([{"id": "P17"}]))
        with pytest.raises(ParseError):
            load_registry(path)


class TestCorpusRoundTrip:
    def test_structural_and_byte_round_trip(self, tmp_path, registry6):
        doc = build_doc("d1", ["Acme Corp", "Ada Byron"], [("Acme Corp", "Ada Byron", "R2", [0, 1])])
        doc.labels[0].reason = "stated directly"
        doc.labels[0].support = ["Acme Corp appears in sentence 0 ."]
        corpus = build_corpus([doc], registry=registry6)
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path, registry6)
        assert loaded.provenance == corpus.provenance
        assert loaded.documents == corpus.documents
        path2 = tmp_path / "c2.json"
        save_corpus(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_indented_layout_still_loads(self, tmp_path, registry6):
        """Corpora written with indent=2 (the layout before bulk files went
        compact) load unchanged: the reader never depended on the layout."""
        assert CORPUS_VERSION == 1
        doc = build_doc("d1", ["Acme Corp", "Ada Byron"], [("Acme Corp", "Ada Byron", "R2", [0])])
        corpus = build_corpus([doc], registry=registry6)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(corpus_to_json(corpus), ensure_ascii=False, sort_keys=True,
                                   indent=2) + "\n", encoding="utf-8")
        loaded = load_corpus(path, registry6)
        assert loaded.documents == corpus.documents
        save_corpus(loaded, tmp_path / "compact.json")
        assert (tmp_path / "compact.json").read_text(encoding="utf-8").count("\n") == 1
        assert load_json(tmp_path / "compact.json") == load_json(path)

    def test_version_mismatch_rejected(self, tmp_path, registry6):
        corpus = build_corpus([build_doc("d1", ["A", "B"], [("A", "B", "R1")])], registry=registry6)
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        data = load_json(path)
        data["version"] = 99
        write_json_atomic(path, data)
        with pytest.raises(CorpusFormatError, match="version"):
            load_corpus(path, registry6)

    def test_document_json_shape(self, registry6):
        doc = build_doc("d1", ["Acme"], [])
        row = document_to_json(doc)
        assert set(row) == {"doc_id", "title", "sentences", "entities", "labels"}
        assert document_from_json(row) == doc

    def test_load_validates_against_registry(self, tmp_path, registry6):
        doc = build_doc("d1", ["A", "B"], [("A", "B", "R1")])
        corpus = build_corpus([doc], registry=registry6)
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        data = load_json(path)
        data["documents"][0]["labels"][0]["relation"] = "R99"
        write_json_atomic(path, data)
        with pytest.raises((ValidationError, CorpusFormatError)):
            load_corpus(path, registry6)


def _docred_record():
    return {
        "title": "doc-1",
        "sents": [["Ada", "Byron", "founded", "Acme", "Corp", "."],
                  ["Acme", "Corp", "is", "in", "London", "."]],
        "vertexSet": [
            [{"name": "Ada Byron", "sent_id": 0, "pos": [0, 2], "type": "PER"}],
            [{"name": "Acme Corp", "sent_id": 0, "pos": [3, 5], "type": "ORG"},
             {"name": "Acme Corp", "sent_id": 1, "pos": [0, 2], "type": "ORG"}],
            [{"name": "London", "sent_id": 1, "pos": [4, 5], "type": "LOC"}],
        ],
        "labels": [
            {"h": 1, "t": 0, "r": "R2", "evidence": [0]},
            {"h": 1, "t": 2, "r": "R6", "evidence": [1]},
        ],
    }


class TestInterchangeFormat:
    def test_load_maps_spans_and_labels(self, tmp_path, registry6):
        path = tmp_path / "train.json"
        path.write_text(json.dumps([_docred_record()]))
        corpus = load_docred(path, registry6)
        assert corpus.provenance == "human"
        doc = corpus.documents[0]
        assert doc.doc_id == "doc-1"
        assert doc.entities[1].mentions[1].start == 0
        assert doc.entities[1].mentions[1].end == 2
        assert {lb.relation for lb in doc.labels} == {"R2", "R6"}

    def test_unknown_relation_names_offending_doc(self, tmp_path, registry6):
        record = _docred_record()
        record["labels"][0]["r"] = "R九"
        path = tmp_path / "train.json"
        path.write_text(json.dumps([record]))
        with pytest.raises((ParseError, ValidationError), match="doc-1"):
            load_docred(path, registry6)

    def test_out_of_range_span_rejected(self, tmp_path, registry6):
        record = _docred_record()
        record["vertexSet"][0][0]["pos"] = [0, 99]
        path = tmp_path / "train.json"
        path.write_text(json.dumps([record]))
        with pytest.raises((ParseError, ValidationError), match="doc-1"):
            load_docred(path, registry6)

    def test_save_then_load_preserves_structure(self, tmp_path, registry6):
        path = tmp_path / "train.json"
        path.write_text(json.dumps([_docred_record()]))
        corpus = load_docred(path, registry6)
        out = tmp_path / "resaved.json"
        save_docred(corpus, out)
        again = load_docred(out, registry6)
        assert again.documents == corpus.documents

    def test_equal_tokens_share_one_string(self, tmp_path, registry6):
        # split hands its views to later stages of a run, so a source corpus
        # keeps one string per distinct token, mention name, type and relation id
        first, second = _docred_record(), _docred_record()
        second["title"] = "doc-2"
        path = tmp_path / "train.json"
        path.write_text(json.dumps([first, second]))
        docs = load_docred(path, registry6).documents
        assert docs[0].sentences == docs[1].sentences
        for a, b in zip(docs[0].sentences, docs[1].sentences):
            assert all(x is y for x, y in zip(a, b))
        mentions = [[m for e in d.entities for m in e.mentions] for d in docs]
        for a, b in zip(*mentions):
            assert a.name is b.name and a.etype is b.etype
        assert [e.canonical_name for e in docs[0].entities] == ["Ada Byron", "Acme Corp", "London"]
        for a, b in zip(docs[0].labels, docs[1].labels):
            assert a.relation is b.relation

    def test_load_with_a_digest_checks_the_bytes_parsed(self, tmp_path, registry6):
        path = _write_rows(tmp_path, [_docred_record()])
        digest = file_digest(path)
        assert len(load_docred(path, registry6, digest)) == 1
        path.write_text(json.dumps([]))
        with pytest.raises(ChangedFileError, match="source.json changed"):
            load_docred(path, registry6, digest)


def _write_rows(tmp_path, rows):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")
    return path


# One bad field each.  Before rows were checked one by one, most of these
# escaped as a KeyError, TypeError, AttributeError or ValueError (so the CLI
# called them a stage failure), and an int title or type, or a bool for an
# int, was accepted.
MALFORMED_ROWS = {
    "mention without name": lambda row: row["vertexSet"][0][0].pop("name"),
    "mention without pos": lambda row: row["vertexSet"][0][0].pop("pos"),
    "label without h": lambda row: row["labels"][0].pop("h"),
    "string sent_id": lambda row: row["vertexSet"][0][0].update(sent_id="0"),
    "bool sent_id": lambda row: row["vertexSet"][0][0].update(sent_id=False),
    "string h": lambda row: row["labels"][0].update(h="1"),
    "string evidence": lambda row: row["labels"][0].update(evidence="0"),
    "mention not an object": lambda row: row["vertexSet"][0].append("Ada"),
    "int name": lambda row: row["vertexSet"][2][0].update(name=7),
    "pos with three items": lambda row: row["vertexSet"][0][0].update(pos=[0, 1, 2]),
    "int title": lambda row: row.update(title=7),
    "int type": lambda row: row["vertexSet"][0][0].update(type=3),
    "reversed span": lambda row: row["vertexSet"][0][0].update(pos=[2, 0]),
    "blank name": lambda row: row["vertexSet"][2][0].update(name=" "),
}


class TestMalformedRows:
    @pytest.mark.parametrize("edit", list(MALFORMED_ROWS.values()), ids=list(MALFORMED_ROWS))
    def test_named_parse_error(self, tmp_path, registry6, edit):
        bad = dict(_docred_record(), title="doc-2")
        edit(bad)
        with pytest.raises(ParseError, match=r"source\.json: document 1 \(('doc-2'|7)\): "):
            load_docred(_write_rows(tmp_path, [_docred_record(), bad]), registry6)

    @pytest.mark.parametrize("row", [["doc-2"], "doc-2", 7, None])
    def test_row_that_is_not_an_object(self, tmp_path, registry6, row):
        with pytest.raises(ParseError, match=r"source\.json: document 1 \(None\): "):
            load_docred(_write_rows(tmp_path, [_docred_record(), row]), registry6)


def _invalid_row(title):
    """A row that parses but fails validation: evidence names a missing sentence."""
    row = dict(_docred_record(), title=title)
    row["labels"][0]["evidence"] = [9]
    return row


def _malformed_row(title):
    row = dict(_docred_record(), title=title)
    MALFORMED_ROWS["mention without name"](row)
    return row


class TestFirstBadRowReported:
    """Rows are parsed and checked one by one, so the first bad row in file
    order is reported, whichever error it raises."""

    def test_invalid_row_before_a_malformed_one(self, tmp_path, registry6):
        rows = [_docred_record(), _invalid_row("doc-2"), _malformed_row("doc-3")]
        with pytest.raises(ValidationError, match="doc-2: evidence sentence 9"):
            load_docred(_write_rows(tmp_path, rows), registry6)

    def test_malformed_row_before_an_invalid_one(self, tmp_path, registry6):
        rows = [_docred_record(), _malformed_row("doc-2"), _invalid_row("doc-3")]
        with pytest.raises(ParseError, match=r"document 1 \('doc-2'\)"):
            load_docred(_write_rows(tmp_path, rows), registry6)

    def test_repeated_title_before_a_malformed_row(self, tmp_path, registry6):
        rows = [_docred_record(), _docred_record(), _malformed_row("doc-3")]
        with pytest.raises(ValidationError, match="duplicate doc_id 'doc-1'"):
            load_docred(_write_rows(tmp_path, rows), registry6)

    def test_documents_before_the_bad_row_are_yielded(self, tmp_path, registry6):
        rows = [_docred_record(), _invalid_row("doc-2")]
        read = iter_docred(_write_rows(tmp_path, rows), registry6)
        assert next(read).doc_id == "doc-1"
        with pytest.raises(ValidationError, match="doc-2"):
            next(read)


RELATIONS = [f"R{i}" for i in range(1, 7)]
REGISTRY = make_registry(*((rel, f"relation {rel}") for rel in RELATIONS))
# values a mutation puts in place of a part of a row: some keep the row good
# (a span, sentence, index or relation still in range), most do not; each
# draw is a fresh copy, so no two parts of a row share an object
ROW_PARTS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 7), st.floats(0, 2),
    st.sampled_from(["", " ", "a b", "Ada", "\xa0", "0", "doc-0", "R9", *RELATIONS]),
    st.lists(st.integers(-1, 7), max_size=3), st.just([["Ada"]]), st.just({}),
    st.just({"name": "Ada", "sent_id": 0, "pos": [0, 1]})).map(lambda v: json.loads(json.dumps(v)))


def _parts(value):
    """Every (container, key) pair inside the JSON value ``value``."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    return [pair for key, child in items for pair in [(value, key), *_parts(child)]]


# One field each at or just past a bound that a DocRED row is checked against;
# the full path accepts the last four.
EDGE_EDITS = {
    "head equals tail": lambda row: row["labels"][0].update(h=0, t=0),
    "negative head": lambda row: row["labels"][0].update(h=-1),
    "tail past the entities": lambda row: row["labels"][1].update(t=3),
    "negative sent_id": lambda row: row["vertexSet"][2][0].update(sent_id=-1),
    "sent_id past the sentences": lambda row: row["vertexSet"][2][0].update(sent_id=2),
    "span past the sentence": lambda row: row["vertexSet"][2][0].update(pos=[5, 7]),
    "empty span": lambda row: row["vertexSet"][2][0].update(pos=[4, 4]),
    "negative start": lambda row: row["vertexSet"][0][0].update(pos=[-1, 2]),
    "float pos": lambda row: row["vertexSet"][0][0].update(pos=[0.0, 2]),
    "negative evidence": lambda row: row["labels"][0].update(evidence=[-1]),
    "evidence past the sentences": lambda row: row["labels"][1].update(evidence=[0, 2]),
    "bool evidence": lambda row: row["labels"][1].update(evidence=[True]),
    "empty sentence": lambda row: row["sents"].append([]),
    "empty token": lambda row: row["sents"][1].append(""),
    "token with a space": lambda row: row["sents"][1].append("a b"),
    "empty title": lambda row: row.update(title=""),
    "unknown relation": lambda row: row["labels"][1].update(r="R9"),
    "label without r": lambda row: row["labels"][1].pop("r"),
    "empty cluster": lambda row: row["vertexSet"].append([]),
    "null type": lambda row: row["vertexSet"][2][0].update(type=None),
    "span to the end of a sentence": lambda row: row["vertexSet"][2][0].update(pos=[4, 6]),
    "blank name of a later mention": lambda row: row["vertexSet"][1][1].update(name=" "),
    "no type and no evidence": lambda row: (row["vertexSet"][0][0].pop("type"),
                                            row["labels"][0].pop("evidence")),
    "null sentences, entities and labels": lambda row: row.update(
        sents=None, vertexSet=None, labels=None),
}


# a replacement of the same type as the part it replaces, which often leaves the row good
ALIKE = {int: st.integers(-1, 7), str: st.sampled_from(["Ada", "", " ", "a b", "R1", "R3", "R9"])}


@st.composite
def suspect_rows(draw, title="doc-1"):
    """``_docred_record()`` under a title, maybe with one of the edits above
    (``MALFORMED_ROWS``, ``_invalid_row``, ``EDGE_EDITS``),
    then up to two random replacements, deletions or appends; now and then
    a row that is not an object."""
    row = dict(_docred_record(), title=title)
    edit = draw(st.none() | st.sampled_from([_invalid_row, *MALFORMED_ROWS.values(),
                                             *EDGE_EDITS.values()]))
    if edit is _invalid_row:
        row = _invalid_row(title)
    elif edit is not None:
        edit(row)
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(_parts(row)))
        part = container[key]
        action = draw(st.sampled_from(["alike", "alike", "replace", "delete", "append"]))
        if action == "delete":
            del container[key]
        elif action == "append" and isinstance(part, list):
            part.append(draw(ROW_PARTS))
        elif action == "alike" and type(part) in ALIKE:
            container[key] = draw(ALIKE[type(part)])
        else:
            container[key] = draw(ROW_PARTS)
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([["doc-2"], "doc-2", 7, None]))
    return row


def _full_path(row):
    """The relation set of ``row`` as ``_docred_document`` and
    ``validate_document`` read it, or None if either rejects the row."""
    try:
        doc = _docred_document("source.json", 0, row, REGISTRY)
        validate_document(doc, REGISTRY)
    except (ParseError, ValidationError):
        return None
    return {lb.relation for lb in doc.labels}


def _read(documents):
    """The documents read before ``documents`` stops, and what it raises, if anything."""
    docs = []
    try:
        docs.extend(documents)
    except (ParseError, ValidationError) as exc:
        return docs, (type(exc), str(exc))
    return docs, None


class TestRowCheck:
    """``iter_docred`` checks each row on its parsed JSON and builds a document
    only for a row the check turns down or ``keep`` takes; what it yields and
    raises is what building and validating every row gives, filtered."""

    @given(suspect_rows())
    @settings(max_examples=1000, deadline=None)
    def test_quick_check_agrees_with_the_full_path(self, row):
        # a row the quick check accepts is a good row; one it turns down is a
        # bad one, so the full path it then takes raises
        assert _row_relations(row, REGISTRY) == _full_path(row)

    @pytest.mark.parametrize("edit", [*EDGE_EDITS.values(), *MALFORMED_ROWS.values()],
                             ids=[*EDGE_EDITS, *MALFORMED_ROWS])
    def test_quick_check_agrees_at_each_bound(self, edit):
        row = _docred_record()
        edit(row)
        assert _row_relations(row, REGISTRY) == _full_path(row)

    def test_quick_check_reads_the_relations(self):
        assert _row_relations(_docred_record(), REGISTRY) == {"R2", "R6"}
        assert _row_relations(dict(_docred_record(), labels=[]), REGISTRY) == set()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_kept_documents_and_errors_are_the_full_reads(self, data):
        # row i takes the title of row j <= i, so that some titles repeat
        rows = [data.draw(suspect_rows(f"doc-{data.draw(st.integers(0, i))}"))
                for i in range(data.draw(st.integers(0, 4)))]
        wanted = data.draw(st.sets(st.sampled_from(RELATIONS)))
        keep = data.draw(st.sampled_from([
            lambda relations: relations <= wanted,
            lambda relations: not relations.isdisjoint(wanted),
            lambda relations: False,
        ]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "source.json"
            path.write_text(json.dumps(rows), encoding="utf-8")
            # each row built, then validated, with no check of the JSON first
            full, error = _read(validated(_docred_document(path, i, row, REGISTRY)
                                          for i, row in enumerate(json.loads(json.dumps(rows)))))
            assert _read(iter_docred(path, REGISTRY)) == (full, error)
            kept, kept_error = _read(iter_docred(path, REGISTRY, keep=keep))
        assert kept_error == error
        assert kept == [doc for doc in full if keep({lb.relation for lb in doc.labels})]

    def test_rows_no_view_keeps_are_not_built(self, tmp_path, monkeypatch):
        rows = [dict(_docred_record(), title=f"doc-{i}") for i in range(4)]
        rows[2]["labels"] = [{"h": 0, "t": 2, "r": "R1", "evidence": []}]
        path = _write_rows(tmp_path, rows)
        built = []

        def counting(*args, **fields):
            doc = Document(*args, **fields)
            built.append(doc.doc_id)
            return doc

        monkeypatch.setattr("docrte.docio.Document", counting)
        kept = list(iter_docred(path, REGISTRY, keep=lambda relations: "R1" in relations))
        assert [doc.doc_id for doc in kept] == built == ["doc-2"]

    def test_repeated_title_of_a_row_no_view_keeps(self, tmp_path):
        path = _write_rows(tmp_path, [_docred_record(), _docred_record()])
        with pytest.raises(ValidationError, match="duplicate doc_id 'doc-1'"):
            list(iter_docred(path, REGISTRY, keep=lambda relations: False))


SPACE = st.text(alphabet=" \t\n\r", max_size=3)
TOKEN = st.text(alphabet=list('aZ"\\/é€«😀\x7f'), min_size=1, max_size=4)


@st.composite
def docred_rows(draw):
    rows = []
    for i in range(draw(st.integers(0, 3))):
        sents = draw(st.lists(st.lists(TOKEN, min_size=2, max_size=4), min_size=1, max_size=2))
        vertex_set = [[{"name": sents[0][k], "pos": [k, k + 1], "sent_id": 0,
                        "type": draw(st.sampled_from(["PER", "ORG"]))}] for k in (0, 1)]
        labels = [{"h": 0, "t": 1, "r": draw(st.sampled_from(["R1", "R2"])), "evidence": [0]}]
        rows.append({"title": f"doc-{i}{draw(TOKEN)}", "sents": sents,
                     "vertexSet": vertex_set, "labels": labels[:draw(st.integers(0, 1))]})
    return rows


def laid_out(value, space):
    """``value`` as JSON text with the whitespace ``space()`` draws around each token."""
    if isinstance(value, list):
        items, brackets = [laid_out(v, space) for v in value], "[]"
    elif isinstance(value, dict):
        items, brackets = [f"{json.dumps(k, ensure_ascii=False)}{space()}:{space()}"
                           f"{laid_out(v, space)}" for k, v in value.items()], "{}"
    else:
        return json.dumps(value, ensure_ascii=False)
    return brackets[0] + (",".join(space() + item + space() for item in items) or space()) \
        + brackets[1]


def _resaved(corpus, tmp_path):
    save_docred(corpus, tmp_path / "resaved.json")
    return json.loads((tmp_path / "resaved.json").read_text(encoding="utf-8"))


class TestStreamedReader:
    @given(docred_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_layout_reads_as_json_loads_does(self, rows, data):
        space = lambda: data.draw(SPACE)
        text = space() + laid_out(rows, space) + space()
        assert json.loads(text) == rows
        registry = make_registry(("R1", "employer"), ("R2", "founded by"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "source.json"
            path.write_text(text, encoding="utf-8", newline="")
            assert _resaved(load_docred(path, registry), Path(tmp)) == rows

    @pytest.mark.parametrize("layout", [
        lambda rows: json.dumps(rows, indent=2),
        lambda rows: json.dumps(rows, indent="\t", ensure_ascii=False).replace("\n", "\r\n"),
        lambda rows: json.dumps(rows, separators=(" , ", " : ")),
        lambda rows: "\r\n " + json.dumps(rows, ensure_ascii=False) + " \n\t",
    ])
    def test_fixed_layouts(self, tmp_path, registry6, layout):
        rows = [_docred_record(), dict(_docred_record(), title="Łódź «2»")]
        path = tmp_path / "source.json"
        path.write_text(layout(rows), encoding="utf-8", newline="")
        assert _resaved(load_docred(path, registry6), tmp_path) == rows

    @pytest.mark.parametrize("text", ["[]", " [ ] ", "\r\n[\t]\n"])
    def test_empty_arrays(self, tmp_path, registry6, text):
        path = tmp_path / "source.json"
        path.write_text(text, encoding="utf-8", newline="")
        assert len(load_docred(path, registry6)) == 0

    # each rejected by json.loads, or (the last four) not an array; R is a
    # valid row, so the error found is the syntax error
    REJECTED = ["", " ", "[", "]", "[,]", "[R,]", "[,R]", "[R R]", "[R,,R]", "[R]]", "[R] R",
                "[R] []", "[R", '[R,"a]', "[R,-]", "[R}", "\ufeff[]", "\x0c[R]", "[R]\x0b",
                "[\u00a0R]", "{}", '{"title": "t"}', "1", "null"]

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected_with_the_offset(self, tmp_path, registry6, text):
        path = tmp_path / "source.json"
        path.write_text(text.replace("R", json.dumps(_docred_record())), encoding="utf-8",
                        newline="")
        try:
            parsed = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            parsed = None
        assert not isinstance(parsed, list)
        with pytest.raises(ParseError, match=r"source\.json: malformed JSON at offset \d+"):
            load_docred(path, registry6)

    def test_not_utf8_rejected(self, tmp_path, registry6):
        path = tmp_path / "source.json"
        path.write_bytes(b'[{"title": "\xff"}]')
        with pytest.raises(ParseError, match="not UTF-8 at offset 12"):
            load_docred(path, registry6)
        with pytest.raises(ParseError, match="not UTF-8"):
            load_json(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_text_json_loads_rejects_is_rejected(self, data):
        text = json.dumps([_docred_record(), dict(_docred_record(), title="d2")])
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["", ",", "[", "]", "{", "}", '"', ":", " ", "0", "x"]))
        cut = data.draw(st.integers(0, 2))
        text = text[:at] + edit + text[at + cut:]
        try:
            expected = json.loads(text)
        except json.JSONDecodeError:
            expected = None
        registry = make_registry(("R2", "founded by"), ("R6", "located in"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "source.json"
            path.write_text(text, encoding="utf-8")
            if not isinstance(expected, list):
                with pytest.raises(ParseError):
                    load_docred(path, registry)
                return
            try:
                corpus = load_docred(path, registry)
            except (ParseError, ValidationError):
                return  # valid JSON, but no longer valid DocRED rows
            assert len(corpus) == len(expected)

    def test_load_holds_little_beyond_the_corpus(self, tmp_path):
        """While a source loads, the memory that is not part of the corpus it
        returns stays below twice the file (a whole-file tree took 6.5 times)."""
        registry = synthetic_registry(30)
        ids = registry.ids()
        world = build_world(registry, ids, seed=1, facts_per_relation=3, related_pool=ids,
                            n_related=2)
        corpus = world_documents(world, 10, facts_per_doc=3, seed=1)
        path = tmp_path / "train.json"
        save_docred(corpus, path)
        size = path.stat().st_size
        assert path.read_bytes().isascii() and len(corpus) == 300
        load_docred(path, registry)  # warm the name-key memo
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load_docred(path, registry)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 300
        assert peak - retained < 2 * size


# Sentences that are not lists of strings; the first is the DocRED mistake of
# giving sentences as plain strings, which used to load as one-character tokens.
BAD_SENTENCES = [
    ["Alice", "Bob"],
    [["Alice", 3]],
    [["Alice"], None],
    "Alice Bob",
]


class TestSentenceShape:
    @pytest.mark.parametrize("sents", BAD_SENTENCES)
    def test_docred_loader_rejects(self, tmp_path, registry6, sents):
        record = dict(_docred_record(), sents=sents, vertexSet=[], labels=[])
        path = tmp_path / "train.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ParseError, match="doc-1"):
            load_docred(path, registry6)

    @pytest.mark.parametrize("sents", BAD_SENTENCES)
    def test_corpus_loader_rejects(self, tmp_path, registry6, sents):
        data = corpus_to_json(build_corpus([build_doc("d1", ["Acme"], [])], registry=registry6))
        data["documents"][0].update(sentences=sents, entities=[])
        path = tmp_path / "c.json"
        write_json_atomic(path, data)
        with pytest.raises(ParseError, match="d1"):
            load_corpus(path, registry6)
