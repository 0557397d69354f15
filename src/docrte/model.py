"""Core domain types for document-level relation triplet extraction.

Documents carry whitespace-tokenized sentences, a list of entities (each a
cluster of surface mentions), and triplet labels that point into the entity
list by index.  Relational facts are identified by normalized entity keys so
that the same fact can be recognized across documents regardless of surface
casing or spacing.  The document classes have slots: a corpus holds many.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

logger = logging.getLogger(__name__)

ENTITY_TYPES: tuple[str, ...] = ("PER", "ORG", "LOC", "TIME", "NUM", "MISC")

PROVENANCES: tuple[str, ...] = ("human", "synthetic", "pseudo_labeled", "denoised")


# Distinct names whose keys stay memoised.
NAME_KEY_CACHE = 1 << 14


class EntityKeyError(ValueError):
    """Raised when an entity name normalizes to the empty string."""


class ValidationError(ValueError):
    """Raised when a document or corpus violates a structural invariant."""


class RegistryError(ValueError):
    """Raised for unknown or duplicate relation types."""


@lru_cache(maxsize=NAME_KEY_CACHE)
def normalize_entity_key(name: str) -> str:
    """Normalize an entity surface form into its identity key.

    Case-folds, strips, and collapses internal whitespace runs to single
    spaces.  The result is idempotent.  An empty result is an error: callers
    must never silently produce facts about nameless entities.  Results are
    memoised (a run normalises the same few thousand names many times); an
    error is raised afresh on every call.
    """
    key = " ".join(name.split()).casefold()
    if not key:
        raise EntityKeyError(f"entity name {name!r} normalizes to the empty string")
    return key


@dataclass(frozen=True)
class RelationType:
    """A relation type from the registry, e.g. id='P57', name='director'."""

    id: str
    name: str
    description: str | None = None

    def __post_init__(self) -> None:
        if not self.id or not self.name:
            raise RegistryError(f"relation requires non-empty id and name: {self!r}")


class RelationRegistry:
    """Ordered collection of relation types with id and name lookup."""

    def __init__(self, relations: Iterable[RelationType]):
        self._relations: list[RelationType] = list(relations)
        self._by_id: dict[str, RelationType] = {}
        self._by_name: dict[str, RelationType] = {}
        for rel in self._relations:
            if rel.id in self._by_id:
                raise RegistryError(f"duplicate relation id {rel.id!r}")
            self._by_id[rel.id] = rel
            name_key = normalize_entity_key(rel.name)
            # First definition wins on name collisions; ids stay authoritative.
            self._by_name.setdefault(name_key, rel)
        if not self._relations:
            raise RegistryError("registry must contain at least one relation")

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[RelationType]:
        return iter(self._relations)

    def __contains__(self, relation_id: str) -> bool:
        return relation_id in self._by_id

    def ids(self) -> list[str]:
        return [rel.id for rel in self._relations]

    def get(self, relation_id: str) -> RelationType:
        try:
            return self._by_id[relation_id]
        except KeyError:
            raise RegistryError(f"unknown relation id {relation_id!r}") from None

    def name_of(self, relation_id: str) -> str:
        return self.get(relation_id).name

    def resolve(self, token: str) -> RelationType | None:
        """Resolve a free-form token as a relation id or name; None if neither."""
        tok = token.strip()
        if tok in self._by_id:
            return self._by_id[tok]
        try:
            return self._by_name.get(normalize_entity_key(tok))
        except EntityKeyError:
            return None


@dataclass(frozen=True, slots=True)
class EntityMention:
    """One surface occurrence of an entity: token span [start, end) in a sentence."""

    name: str
    sent_id: int
    start: int
    end: int
    etype: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValidationError(
                f"mention {self.name!r} has invalid span [{self.start}, {self.end})"
            )


@dataclass(slots=True)
class Entity:
    """An entity cluster: its mentions plus a canonical name and identity key.

    ``mentions`` may be empty only for model-declared entities that failed
    grounding during synthetic document parsing; such entities still occupy an
    index so labels can be audited, but labels pointing at them are dropped.
    """

    canonical_name: str
    mentions: list[EntityMention] = field(default_factory=list)
    key: str = ""

    def __post_init__(self) -> None:
        if not self.key:
            self.key = normalize_entity_key(self.canonical_name)

    @property
    def etype(self) -> str:
        return self.mentions[0].etype if self.mentions else "MISC"

    def sentence_ids(self) -> set[int]:
        return {m.sent_id for m in self.mentions}


@dataclass(slots=True)
class TripletLabel:
    """A labeled relational fact inside one document.

    ``head``/``tail`` index into ``Document.entities`` and must differ.
    ``evidence`` lists supporting sentence indices; ``reason`` and ``support``
    are optional free-text artifacts of the generation chain.
    """

    head: int
    tail: int
    relation: str
    evidence: list[int] = field(default_factory=list)
    reason: str | None = None
    support: list[str] | None = None

    def __post_init__(self) -> None:
        if self.head == self.tail:
            raise ValidationError(
                f"triplet label may not relate an entity to itself (index {self.head})"
            )


@dataclass(slots=True)
class Document:
    doc_id: str
    title: str
    sentences: list[list[str]]
    entities: list[Entity]
    labels: list[TripletLabel]

    def key_to_index(self) -> dict[str, int]:
        """Map entity key -> index of its first entity with that key."""
        out: dict[str, int] = {}
        for i, ent in enumerate(self.entities):
            out.setdefault(ent.key, i)
        return out

    def name_triplets(self) -> list[tuple[str, str, str]]:
        """(head name, tail name, relation id) of each label, in label order."""
        return [(self.entities[lb.head].canonical_name, self.entities[lb.tail].canonical_name,
                 lb.relation) for lb in self.labels]


@dataclass
class Corpus:
    documents: list[Document]
    provenance: str
    registry: RelationRegistry | None = None

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValidationError(
                f"unknown provenance {self.provenance!r}; expected one of {PROVENANCES}"
            )

    def __len__(self) -> int:
        return len(self.documents)

    def by_id(self) -> dict[str, Document]:
        return {doc.doc_id: doc for doc in self.documents}


@dataclass(frozen=True)
class FactKey:
    """Identity of a relational fact: normalized head/tail keys plus relation id."""

    head_key: str
    tail_key: str
    relation: str

    def __post_init__(self) -> None:
        if not self.head_key or not self.tail_key or not self.relation:
            raise ValidationError(f"fact key has empty component: {self!r}")
        if self.head_key == self.tail_key:
            raise ValidationError(
                f"fact key is a self-loop on {self.head_key!r} ({self.relation})"
            )

    def sort_key(self) -> tuple[str, str, str]:
        return (self.relation, self.head_key, self.tail_key)


def fact_keys(doc: Document) -> set[FactKey]:
    """Distinct fact keys expressed by a document's labels.

    Labels whose head and tail normalize to the same key cannot form a fact;
    they are dropped with a log line rather than raising, because a single
    degenerate label should not poison a whole corpus.
    """
    out: set[FactKey] = set()
    for label in doc.labels:
        head = doc.entities[label.head]
        tail = doc.entities[label.tail]
        if head.key == tail.key:
            logger.debug(
                "dropping self-loop fact %r/%r (%s) in doc %s",
                head.canonical_name,
                tail.canonical_name,
                label.relation,
                doc.doc_id,
            )
            continue
        out.add(FactKey(head.key, tail.key, label.relation))
    return out


def validate_document(doc: Document, registry: RelationRegistry | None = None) -> None:
    """Check every structural invariant of a document; raise ValidationError."""
    if not doc.doc_id:
        raise ValidationError("document has empty doc_id")
    n_sents = len(doc.sentences)
    for s, sent in enumerate(doc.sentences):
        if not sent:
            raise ValidationError(f"{doc.doc_id}: sentence {s} is empty")
        try:
            # the tokens are non-empty and hold no whitespace exactly when
            # splitting their space-joined text gives them back
            if " ".join(sent).split() == sent:
                continue
        except TypeError:  # a token that is not a string
            pass
        for tok in sent:
            if not tok or tok.split() != [tok]:
                raise ValidationError(
                    f"{doc.doc_id}: sentence {s} has non-token entry {tok!r}"
                )
    for i, ent in enumerate(doc.entities):
        if ent.key != normalize_entity_key(ent.canonical_name):
            raise ValidationError(
                f"{doc.doc_id}: entity {i} key {ent.key!r} does not match "
                f"canonical name {ent.canonical_name!r}"
            )
        for m in ent.mentions:
            if not 0 <= m.sent_id < n_sents:
                raise ValidationError(
                    f"{doc.doc_id}: mention {m.name!r} references sentence {m.sent_id} "
                    f"of {n_sents}"
                )
            if m.end > len(doc.sentences[m.sent_id]):
                raise ValidationError(
                    f"{doc.doc_id}: mention {m.name!r} span [{m.start}, {m.end}) exceeds "
                    f"sentence {m.sent_id} length {len(doc.sentences[m.sent_id])}"
                )
    n_ents = len(doc.entities)
    for label in doc.labels:
        for side, idx in (("head", label.head), ("tail", label.tail)):
            if not 0 <= idx < n_ents:
                raise ValidationError(
                    f"{doc.doc_id}: label {side} index {idx} out of range ({n_ents} entities)"
                )
        if registry is not None and label.relation not in registry:
            raise ValidationError(
                f"{doc.doc_id}: label uses unknown relation {label.relation!r}"
            )
        for ev in label.evidence:
            if not 0 <= ev < n_sents:
                raise ValidationError(
                    f"{doc.doc_id}: evidence sentence {ev} out of range ({n_sents} sentences)"
                )


def validated(documents: Iterable[Document],
              registry: RelationRegistry | None = None) -> Iterator[Document]:
    """``documents``, each yielded once :func:`validate_document` passed and its doc_id is new."""
    seen_ids: set[str] = set()
    for doc in documents:
        if doc.doc_id in seen_ids:
            raise ValidationError(f"duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        validate_document(doc, registry)
        yield doc


def validate_corpus(corpus: Corpus, registry: RelationRegistry | None = None) -> None:
    for _ in validated(corpus.documents, registry or corpus.registry):
        pass
