"""Shared fixtures and small document builders for the test suite."""
from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import docrte
from docrte.model import (
    Corpus,
    Document,
    Entity,
    EntityMention,
    RelationRegistry,
    RelationType,
    TripletLabel,
    normalize_entity_key,
)
from docrte.simulate import synthetic_registry


# Characters JSON escapes or that a naive encoder gets wrong: quotes,
# backslashes, control characters, non-ASCII and the line separators.
TRICKY = st.text(alphabet=st.sampled_from(
    list('ab "\\/\n\t\r\x00\x01\x1f\x7fé€«»Zoë\u2028\u2029') + ["\U0001F600"]),
    max_size=8)


def child_env(**overrides) -> dict[str, str]:
    """The environment of a child interpreter that imports this docrte."""
    package_root = str(Path(docrte.__file__).resolve().parents[1])
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def make_registry(*pairs: tuple[str, str]) -> RelationRegistry:
    return RelationRegistry([RelationType(id=i, name=n) for i, n in pairs])


@pytest.fixture
def registry6() -> RelationRegistry:
    return make_registry(
        ("R1", "employer"),
        ("R2", "founded by"),
        ("R3", "capital of"),
        ("R4", "spouse"),
        ("R5", "member of"),
        ("R6", "located in"),
    )


@pytest.fixture
def registry96() -> RelationRegistry:
    return synthetic_registry(96)


def build_doc(
    doc_id: str,
    entity_names: list[str],
    labels: list[tuple],
    title: str | None = None,
    etype: str = "ORG",
) -> Document:
    """Document with one sentence per entity, mentioning it at the start.

    ``labels`` rows are (head_name, tail_name, relation_id) with an optional
    fourth element giving explicit evidence sentence ids.
    """
    sentences: list[list[str]] = []
    entities: list[Entity] = []
    for i, name in enumerate(entity_names):
        tokens = name.split()
        sentences.append(tokens + ["appears", "in", "sentence", str(i), "."])
        entities.append(
            Entity(
                canonical_name=name,
                mentions=[
                    EntityMention(name=name, sent_id=i, start=0,
                                  end=len(tokens), etype=etype)
                ],
            )
        )
    index = {normalize_entity_key(n): i for i, n in enumerate(entity_names)}
    built = []
    for row in labels:
        head, tail, relation = row[:3]
        evidence = list(row[3]) if len(row) > 3 else []
        built.append(
            TripletLabel(
                head=index[normalize_entity_key(head)],
                tail=index[normalize_entity_key(tail)],
                relation=relation,
                evidence=evidence,
            )
        )
    return Document(doc_id=doc_id, title=title or f"About {doc_id}",
                    sentences=sentences, entities=entities, labels=built)


def build_corpus(docs: list[Document], provenance: str = "synthetic",
                 registry: RelationRegistry | None = None) -> Corpus:
    return Corpus(documents=docs, provenance=provenance, registry=registry)
