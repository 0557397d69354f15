"""Core model invariants: normalization, registries, documents, fact keys."""
from __future__ import annotations

from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from docrte.model import (
    NAME_KEY_CACHE,
    Corpus,
    Document,
    Entity,
    EntityKeyError,
    EntityMention,
    FactKey,
    RegistryError,
    RelationRegistry,
    RelationType,
    TripletLabel,
    ValidationError,
    fact_keys,
    normalize_entity_key,
    validate_corpus,
    validate_document,
)

from conftest import build_doc, make_registry


class TestNormalizeEntityKey:
    def test_collapses_case_and_whitespace(self):
        assert normalize_entity_key("  Ada   LOVELACE ") == "ada lovelace"

    def test_unicode_casefold(self):
        assert normalize_entity_key("Straße") == "strasse"

    def test_empty_raises(self):
        with pytest.raises(EntityKeyError):
            normalize_entity_key("   ")

    @given(st.text(min_size=1).filter(lambda s: s.split()))
    def test_idempotent(self, name):
        once = normalize_entity_key(name)
        assert normalize_entity_key(once) == once

    def test_blank_name_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(EntityKeyError):
                normalize_entity_key(" \t ")

    def test_memo_stays_bounded(self):
        for i in range(NAME_KEY_CACHE + 50):
            assert normalize_entity_key(f" Name  {i}") == f"name {i}"
        info = normalize_entity_key.cache_info()
        assert info.maxsize == NAME_KEY_CACHE and info.currsize <= NAME_KEY_CACHE


class TestRelationRegistry:
    def test_preserves_order_and_lookup(self):
        reg = make_registry(("P1", "alpha"), ("P2", "beta"))
        assert reg.ids() == ["P1", "P2"]
        assert reg.get("P2").name == "beta"
        assert reg.name_of("P1") == "alpha"
        assert reg.resolve("ALPHA").id == "P1"

    def test_duplicate_id_rejected(self):
        with pytest.raises(RegistryError):
            make_registry(("P1", "alpha"), ("P1", "beta"))

    def test_duplicate_name_first_wins(self):
        reg = make_registry(("P1", "alpha"), ("P2", "Alpha"))
        assert reg.resolve("alpha").id == "P1"

    def test_resolve_tries_id_then_name(self):
        reg = make_registry(("P1", "alpha"), ("P2", "beta"))
        assert reg.resolve("P2").id == "P2"
        assert reg.resolve("beta").id == "P2"
        assert reg.resolve("gamma") is None
        assert reg.resolve("   ") is None

    def test_empty_registry_rejected(self):
        with pytest.raises(RegistryError):
            RelationRegistry([])


class TestEntities:
    def test_mention_span_validation(self):
        with pytest.raises(ValidationError):
            EntityMention(name="x", sent_id=0, start=2, end=2, etype="PER")
        with pytest.raises(ValidationError):
            EntityMention(name="x", sent_id=0, start=-1, end=1, etype="PER")

    def test_key_derived_from_canonical_name(self):
        ent = Entity(canonical_name="  New   York ")
        assert ent.key == "new york"

    def test_etype_from_first_mention_else_misc(self):
        ent = Entity(
            canonical_name="Ada",
            mentions=[EntityMention(name="Ada", sent_id=0, start=0, end=1, etype="PER")],
        )
        assert ent.etype == "PER"
        assert Entity(canonical_name="Ada").etype == "MISC"

    def test_sentence_ids(self):
        ent = Entity(
            canonical_name="Ada",
            mentions=[
                EntityMention(name="Ada", sent_id=0, start=0, end=1, etype="PER"),
                EntityMention(name="Ada", sent_id=2, start=3, end=4, etype="PER"),
            ],
        )
        assert ent.sentence_ids() == {0, 2}


class TestTripletLabel:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            TripletLabel(head=1, tail=1, relation="P1")


class TestDocumentHelpers:
    def test_key_to_index_first_wins(self):
        doc = Document(
            doc_id="d",
            title="t",
            sentences=[["UN", "and", "un", "."]],
            entities=[
                Entity(canonical_name="UN",
                       mentions=[EntityMention(name="UN", sent_id=0, start=0, end=1, etype="ORG")]),
                Entity(canonical_name="un",
                       mentions=[EntityMention(name="un", sent_id=0, start=2, end=3, etype="ORG")]),
            ],
            labels=[],
        )
        assert doc.key_to_index() == {"un": 0}
        assert {e.key for e in doc.entities} == {"un"}


class TestLeanDocuments:
    """The document classes have slots; everything else about them is as before."""

    @staticmethod
    def parts(doc):
        return [doc, doc.entities[0], doc.entities[0].mentions[0], doc.labels[0]]

    def test_no_instance_dict(self):
        doc = build_doc("d1", ["Acme Corp", "Ada"], [("Acme Corp", "Ada", "R1", [0])])
        for part in self.parts(doc):
            assert not hasattr(part, "__dict__"), type(part).__name__
            # a frozen class with slots refuses a new attribute with a
            # TypeError on Python 3.11 (its __setattr__ names the class it replaced)
            with pytest.raises((AttributeError, TypeError)):
                part.note = "x"
        with pytest.raises(FrozenInstanceError):
            doc.entities[0].mentions[0].name = "x"

    def test_replace_asdict_and_equality(self):
        doc = build_doc("d1", ["Acme Corp", "Ada"], [("Acme Corp", "Ada", "R1", [0])])
        assert asdict(doc) == {
            "doc_id": "d1", "title": "About d1", "sentences": doc.sentences,
            "entities": [{"canonical_name": name, "key": name.lower(), "mentions": [
                {"name": name, "sent_id": i, "start": 0, "end": len(name.split()), "etype": "ORG"}]}
                for i, name in enumerate(["Acme Corp", "Ada"])],
            "labels": [{"head": 0, "tail": 1, "relation": "R1", "evidence": [0], "reason": None,
                        "support": None}]}
        for part in self.parts(doc):
            copy = replace(part)
            assert copy == part and copy is not part
        assert replace(doc, title="other") != doc
        assert replace(doc.entities[0], key="acme") != doc.entities[0]
        mention = doc.entities[0].mentions[0]
        assert hash(replace(mention)) == hash(mention)
        assert replace(mention, etype="PER") != mention
        with pytest.raises(ValidationError):
            replace(mention, end=0)
        relabelled = replace(doc, labels=[replace(doc.labels[0], relation="R2")])
        assert relabelled.entities is doc.entities and doc.labels[0].relation == "R1"


class TestFactKey:
    def test_rejects_blank_and_self_loops(self):
        with pytest.raises((ValidationError, EntityKeyError, ValueError)):
            FactKey(head_key="", tail_key="b", relation="P1")
        with pytest.raises((ValidationError, ValueError)):
            FactKey(head_key="a", tail_key="a", relation="P1")

    def test_sort_key_orders_deterministically(self):
        facts = [
            FactKey("b", "c", "P2"),
            FactKey("a", "b", "P1"),
            FactKey("a", "b", "P2"),
        ]
        ordered = sorted(facts, key=FactKey.sort_key)
        assert ordered[0] == FactKey("a", "b", "P1")
        assert ordered[-1] == FactKey("b", "c", "P2")

    def test_fact_keys_dedupe_and_drop_key_level_self_loops(self):
        doc = Document(
            doc_id="d",
            title="t",
            sentences=[["UN", "met", "un", "and", "WHO", "."]],
            entities=[
                Entity(canonical_name="UN",
                       mentions=[EntityMention(name="UN", sent_id=0, start=0, end=1, etype="ORG")]),
                Entity(canonical_name="un",
                       mentions=[EntityMention(name="un", sent_id=0, start=2, end=3, etype="ORG")]),
                Entity(canonical_name="WHO",
                       mentions=[EntityMention(name="WHO", sent_id=0, start=4, end=5, etype="ORG")]),
            ],
            labels=[
                TripletLabel(head=0, tail=1, relation="P1"),  # un -> un at key level
                TripletLabel(head=0, tail=2, relation="P1"),
                TripletLabel(head=1, tail=2, relation="P1"),  # same fact as above by key
            ],
        )
        assert fact_keys(doc) == {FactKey("un", "who", "P1")}


def _per_token_sentence_error(doc_id, s, sent):
    """The per-token sentence rule, as (exception type, message) or None."""
    if not sent:
        return ValidationError, f"{doc_id}: sentence {s} is empty"
    for tok in sent:
        try:
            if not tok or tok.split() != [tok]:
                return ValidationError, f"{doc_id}: sentence {s} has non-token entry {tok!r}"
        except AttributeError as exc:
            return AttributeError, str(exc)
    return None


# empty and space-bearing tokens, and whitespace other than " " that str.split
# also splits on
AWKWARD_TOKENS = ["", " a", "a b", "\xa0", "\u2028", "\x1c", "\u3000"]


class TestValidation:
    @given(st.lists(st.one_of(st.sampled_from(AWKWARD_TOKENS + ["a", "Bb", "."]),
                              st.text(max_size=3), st.integers(-1, 1)), max_size=5))
    @example(["a", ""])
    @example([" a"])
    @example(["a b", "c"])
    @example(["a", "\xa0"])
    @example(["\u2028"])
    @example(["a", "\x1c", "b"])
    @example(["\u3000"])
    @example(["a", "b"])
    @example([])
    def test_sentence_check_matches_the_per_token_rule(self, sent):
        doc = Document(doc_id="d1", title="t", sentences=[["ok"], sent], entities=[], labels=[])
        expected = _per_token_sentence_error("d1", 1, sent)
        try:
            validate_document(doc)
        except (ValidationError, AttributeError) as exc:
            assert (type(exc), str(exc)) == expected
        else:
            assert expected is None

    def test_valid_document_passes(self, registry6):
        doc = build_doc("d1", ["Acme Corp", "Bob Alice"], [("Acme Corp", "Bob Alice", "R2")])
        validate_document(doc, registry6)

    def test_non_token_rejected(self, registry6):
        doc = build_doc("d1", ["Acme"], [])
        doc.sentences[0][0] = "two words"
        with pytest.raises(ValidationError, match="non-token"):
            validate_document(doc, registry6)

    def test_mismatched_entity_key_rejected(self, registry6):
        doc = build_doc("d1", ["Acme"], [])
        doc.entities[0].key = "something else"
        with pytest.raises(ValidationError):
            validate_document(doc, registry6)

    def test_label_index_out_of_range_rejected(self, registry6):
        doc = build_doc("d1", ["Acme", "Bob"], [("Acme", "Bob", "R1")])
        doc.labels[0].tail = 7
        with pytest.raises(ValidationError):
            validate_document(doc, registry6)

    def test_unknown_relation_rejected(self, registry6):
        doc = build_doc("d1", ["Acme", "Bob"], [("Acme", "Bob", "R99")])
        with pytest.raises(ValidationError):
            validate_document(doc, registry6)

    def test_evidence_out_of_range_rejected(self, registry6):
        doc = build_doc("d1", ["Acme", "Bob"], [("Acme", "Bob", "R1", [5])])
        with pytest.raises(ValidationError):
            validate_document(doc, registry6)

    def test_mention_span_beyond_sentence_rejected(self, registry6):
        doc = build_doc("d1", ["Acme"], [])
        doc.entities[0].mentions[0] = EntityMention(
            name="Acme", sent_id=0, start=0, end=99, etype="ORG")
        with pytest.raises(ValidationError):
            validate_document(doc, registry6)

    def test_corpus_provenance_checked(self):
        with pytest.raises(ValidationError):
            Corpus(documents=[], provenance="mystery")

    def test_validate_corpus_checks_every_document(self, registry6):
        good = build_doc("d1", ["Acme", "Bob"], [("Acme", "Bob", "R1")])
        bad = build_doc("d2", ["Acme", "Bob"], [("Acme", "Bob", "R77")])
        corpus = Corpus(documents=[good, bad], provenance="synthetic", registry=registry6)
        with pytest.raises(ValidationError, match="d2"):
            validate_corpus(corpus)

    def test_duplicate_doc_ids_rejected(self, registry6):
        docs = [build_doc("d1", ["A", "B"], [("A", "B", "R1")]) for _ in range(2)]
        corpus = Corpus(documents=docs, provenance="synthetic", registry=registry6)
        with pytest.raises(ValidationError):
            validate_corpus(corpus)
