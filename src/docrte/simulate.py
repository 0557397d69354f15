"""Deterministic simulated worlds for mock runs and controlled experiments.

A world is a small knowledge graph of fictional entities and facts.  From it
we fabricate document corpora whose labels are exactly the facts co-occurring
in each document, corrupt those labels with seeded noise (deletions plus
singleton spurious facts), derive scripted chat answers that replay the
corrupted documents through the generation chain, and give oracle predictors
each document's true labels without building the document.  Everything is a
pure function of (registry, relation split, seed, sizes), so separate
pipeline stages can rebuild the same world independently — that is what
makes mock runs resumable and byte-identical.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterator, Sequence

from .docio import save_docred, write_text_atomic
from .generate import ground_entity_mentions, lowered_sentences
from .model import (
    Corpus,
    Document,
    Entity,
    FactKey,
    RelationRegistry,
    RelationType,
)
from .model import TripletLabel
from .pseudo import format_triplet_block

FIRST_NAMES = (
    "Alize", "Bastian", "Corinne", "Davor", "Eulalia", "Ferenc", "Gwendal",
    "Halina", "Isidor", "Jovanka", "Kasimir", "Leontine", "Milivoj", "Nerissa",
    "Oleander", "Petronella", "Quirin", "Rosalind", "Sigrun", "Tavish",
)
LAST_NAMES = (
    "Abernethy", "Brandvold", "Casterline", "Dunmore", "Eldridge", "Fairbairn",
    "Galbraith", "Hollowell", "Ingleby", "Jessop", "Kilbride", "Lockhart",
    "Marchbanks", "Netherwood", "Ormiston", "Pemberton", "Quennell", "Ravenscroft",
    "Silverthorne", "Thackeray",
)
ORG_HEADS = (
    "Aurora", "Borealis", "Cobalt", "Dunewood", "Emberline", "Fjordlight",
    "Granite", "Harborview", "Isotope", "Junipero",
)
ORG_TAILS = (
    "Institute", "Collective", "Syndicate", "Laboratories", "Guild",
    "Consortium", "Works", "Society", "Atelier", "Foundry",
)
PLACES = (
    "Valdoria", "Kestrel Bay", "Mont Grelle", "Port Salen", "Ryefield",
    "Sable Creek", "Tarnow Heights", "Umbra Falls", "Vireo Island", "Westmarch",
)

RELATION_NAME_BANK = (
    "founded by", "located in", "member of", "spouse of", "employer of",
    "capital of", "author of", "directed by", "produced by", "composed by",
    "born in", "died in", "educated at", "headquartered in", "subsidiary of",
    "parent organization of", "mayor of", "governor of", "anthem of",
    "currency of", "borders with", "flows into", "tributary of", "range of",
    "sister city of", "chief executive of", "chair of", "owner of",
    "operator of", "manufacturer of", "publisher of", "developer of",
    "designed by", "sponsored by", "succeeded by", "preceded by",
    "named after", "discovered by", "invented by", "patron of",
    "festival of", "league of", "coach of", "captain of", "rival of",
    "ally of", "treaty partner of", "exporter to", "importer from", "mentor of",
)


def synthetic_registry(n: int) -> RelationRegistry:
    """A registry of ``n`` fictional relations with distinct readable names."""
    relations = []
    for i in range(n):
        base = RELATION_NAME_BANK[i % len(RELATION_NAME_BANK)]
        round_no = i // len(RELATION_NAME_BANK)
        name = base if round_no == 0 else f"{base} {round_no + 1}"
        relations.append(RelationType(id=f"R{i:03d}", name=name))
    return RelationRegistry(relations)


@dataclass(frozen=True)
class SimEntity:
    name: str
    etype: str

    @cached_property
    def key(self) -> str:
        """The normalized name, computed on first use; not a field, so
        equality and hash stay those of ``(name, etype)``."""
        return " ".join(self.name.split()).casefold()


@dataclass
class SimWorld:
    registry: RelationRegistry
    unseen: tuple[str, ...]
    related: dict[str, tuple[str, ...]]
    facts: dict[FactKey, tuple[SimEntity, SimEntity]]
    facts_by_relation: dict[str, list[FactKey]] = field(default_factory=dict)

    def all_facts(self) -> list[FactKey]:
        return sorted(self.facts, key=FactKey.sort_key)

    @cached_property
    def facts_by_head(self) -> dict[str, list[FactKey]]:
        """World facts grouped by head key, built on first use (``facts``
        is not changed after :func:`build_world`)."""
        index: dict[str, list[FactKey]] = {}
        for fact in self.facts:
            index.setdefault(fact.head_key, []).append(fact)
        return index


class _EntityMint:
    """Deterministic supply of distinct fictional entities."""

    def __init__(self) -> None:
        self._counters = {"PER": 0, "ORG": 0, "LOC": 0}
        self.pool: list[SimEntity] = []
        self._keys: set[str] = set()

    def mint(self, etype: str) -> SimEntity:
        while True:
            i = self._counters[etype]
            self._counters[etype] += 1
            if etype == "PER":
                name = f"{FIRST_NAMES[i % 20]} {LAST_NAMES[(i // 20) % 20]}"
                if i >= 400:
                    name += f" {i // 400 + 1}"
            elif etype == "ORG":
                name = f"{ORG_HEADS[i % 10]} {ORG_TAILS[(i // 10) % 10]}"
                if i >= 100:
                    name += f" {i // 100 + 1}"
            else:
                name = PLACES[i % 10] if i < 10 else f"{PLACES[i % 10]} {i // 10 + 1}"
            ent = SimEntity(name=name, etype=etype)
            if ent.key not in self._keys:
                self._keys.add(ent.key)
                self.pool.append(ent)
                return ent


def build_world(
    registry: RelationRegistry,
    unseen: Sequence[str],
    seed: int,
    facts_per_relation: int = 4,
    related_pool: Sequence[str] = (),
    n_related: int = 3,
) -> SimWorld:
    """Fabricate a fact graph over fictional entities.

    Every unseen relation gets ``facts_per_relation`` facts, as does every
    relation chosen as "related" (drawn from ``related_pool``, typically the
    seen relations).  Entities are reused across facts about half the time so
    documents end up sharing participants.
    """
    rng = random.Random(f"world:{seed}")
    unseen_sorted = sorted(unseen)
    related: dict[str, tuple[str, ...]] = {}
    pool_sorted = sorted(set(related_pool) - set(unseen_sorted))
    for rel in unseen_sorted:
        if pool_sorted and n_related > 0:
            k = min(n_related, len(pool_sorted))
            related[rel] = tuple(rng.sample(pool_sorted, k))
        else:
            related[rel] = ()
    fact_relations = sorted(set(unseen_sorted) | {r for rs in related.values() for r in rs})

    mint = _EntityMint()
    facts: dict[FactKey, tuple[SimEntity, SimEntity]] = {}
    facts_by_relation: dict[str, list[FactKey]] = {rel: [] for rel in fact_relations}
    etypes = ("PER", "ORG", "LOC")
    for rel in fact_relations:
        for _ in range(facts_per_relation):
            for _attempt in range(64):
                # reuse an existing entity about half the time
                def pick() -> SimEntity:
                    if mint.pool and rng.random() < 0.5:
                        return mint.pool[rng.randrange(len(mint.pool))]
                    return mint.mint(etypes[rng.randrange(3)])

                head, tail = pick(), pick()
                if head.key == tail.key:
                    continue
                key = FactKey(head.key, tail.key, rel)
                if key in facts:
                    continue
                facts[key] = (head, tail)
                facts_by_relation[rel].append(key)
                break
            else:
                raise RuntimeError(f"could not mint a fresh fact for relation {rel}")
    return SimWorld(registry=registry, unseen=tuple(unseen_sorted), related=related,
                    facts=facts, facts_by_relation=facts_by_relation)


def _fact_sentence(world: SimWorld, fact: FactKey) -> list[str]:
    head, tail = world.facts[fact]
    rel_name = world.registry.name_of(fact.relation)
    return (head.name.split() + ["is", "listed", "under"] + f"'{rel_name}'".split()
            + ["alongside"] + tail.name.split() + ["in", "the", "archive", "."])


def _closure(world: SimWorld, keys: Collection[str]) -> list[FactKey]:
    """Every world fact whose head and tail keys are both in ``keys``, sorted."""
    closure = [fact for key in keys for fact in world.facts_by_head.get(key, ())
               if fact.tail_key in keys]
    return sorted(closure, key=FactKey.sort_key)


def _doc_from_facts(
    world: SimWorld, doc_id: str, title: str, chosen: Sequence[FactKey]
) -> Document:
    """Build a document expressing ``chosen`` facts, labeled with the closure:
    every world fact whose two entities both occur in the document."""
    entities: list[SimEntity] = []
    keys: set[str] = set()
    for fact in chosen:
        for ent in world.facts[fact]:
            if ent.key not in keys:
                keys.add(ent.key)
                entities.append(ent)
    sentences = [["This", "dossier", "records", "verified", "connections", "."]]
    sentences += [_fact_sentence(world, fact) for fact in chosen]
    lowered = lowered_sentences(sentences)
    doc_entities = []
    for ent in entities:
        mentions = ground_entity_mentions(ent.name, sentences, ent.etype, lowered)
        doc_entities.append(Entity(canonical_name=ent.name, mentions=mentions))
    index_of = {ent.key: i for i, ent in enumerate(doc_entities)}
    labels = []
    for fact in _closure(world, index_of):
        h, t = index_of[fact.head_key], index_of[fact.tail_key]
        evidence = sorted(
            doc_entities[h].sentence_ids() & doc_entities[t].sentence_ids()
        )
        labels.append(TripletLabel(head=h, tail=t, relation=fact.relation,
                                   evidence=evidence))
    return Document(doc_id=doc_id, title=title, sentences=sentences,
                    entities=doc_entities, labels=labels)


def _draws(
    world: SimWorld, docs_per_relation: int, facts_per_doc: int, seed: int, id_prefix: str
) -> Iterator[tuple[str, list[FactKey]]]:
    """The id and chosen facts of each document :func:`world_documents` builds, in order."""
    for rel in world.unseen:
        own = world.facts_by_relation[rel]
        extras_pool = [f for r in (rel, *world.related.get(rel, ()))
                       for f in world.facts_by_relation.get(r, [])]
        for k in range(docs_per_relation):
            rng = random.Random(f"doc:{seed}:{rel}:{k}")
            # the pool starts with ``own`` and holds each fact once
            j = k % len(own)
            chosen = [own[j]]
            candidates = extras_pool[:j] + extras_pool[j + 1:]
            n_extra = min(max(facts_per_doc - 1, 0), len(candidates))
            chosen += rng.sample(candidates, n_extra)
            yield f"{id_prefix}{rel}-{k:02d}", chosen


def world_documents(world: SimWorld, docs_per_relation: int, facts_per_doc: int, seed: int,
                    id_prefix: str = "") -> Corpus:
    """Fabricate ``docs_per_relation`` documents per unseen relation.

    Each document is guaranteed to express at least one fact of its relation
    (rotating through that relation's facts so all get coverage) plus a
    seeded sample of other facts, preferring the relation's related pool.
    """
    documents = [_doc_from_facts(world, doc_id, f"Dossier {doc_id}", chosen)
                 for doc_id, chosen in _draws(world, docs_per_relation, facts_per_doc, seed,
                                              id_prefix)]
    return Corpus(documents=documents, provenance="synthetic", registry=world.registry)


def world_truth(
    world: SimWorld, docs_per_relation: int, facts_per_doc: int, seed: int
) -> dict[str, list[tuple[str, str, str]]]:
    """Each title of :func:`world_documents`'s corpus mapped to the ``(head
    name, tail name, relation id)`` of its labels, in label order: the same
    draws and closure, but no document is built.  A mock oracle reads this."""
    truth = {}
    for doc_id, chosen in _draws(world, docs_per_relation, facts_per_doc, seed, ""):
        keys = {ent.key for fact in chosen for ent in world.facts[fact]}
        truth[f"Dossier {doc_id}"] = [
            (world.facts[fact][0].name, world.facts[fact][1].name, fact.relation)
            for fact in _closure(world, keys)]
    return truth


def corrupt_labels(
    corpus: Corpus,
    unseen: Sequence[str],
    drop_prob: float,
    spurious_prob: float,
    seed: int,
) -> Corpus:
    """Seeded label noise: delete true labels, inject singleton spurious facts.

    Each label is dropped with ``drop_prob``.  With probability
    ``spurious_prob`` a document gains a fabricated fact between two entities
    unique to that document (so the fact appears in exactly one document),
    expressed in an appended sentence and labeled with a random unseen
    relation.  Noise is keyed per document id, independent of corpus order.
    """
    unseen_sorted = sorted(unseen)
    new_docs = []
    for doc in corpus.documents:
        rng = random.Random(f"noise:{seed}:{doc.doc_id}")
        labels = [lb for lb in doc.labels if rng.random() >= drop_prob]
        sentences = [list(s) for s in doc.sentences]
        entities = [
            Entity(canonical_name=e.canonical_name, mentions=list(e.mentions),
                   key=e.key)
            for e in doc.entities
        ]
        if rng.random() < spurious_prob and unseen_sorted:
            tag = doc.doc_id.replace("-", "")
            head_name = f"Phantom Bureau {tag}"
            tail_name = f"Veiled Office {tag}"
            sent = (head_name.split() + ["is", "rumoured", "to", "shadow"]
                    + tail_name.split() + ["."])
            sentences.append(sent)
            sent_id = len(sentences) - 1
            for name in (head_name, tail_name):
                # names carry the doc tag, so they ground only in the new sentence
                mentions = ground_entity_mentions(name, sentences, "ORG")
                entities.append(Entity(canonical_name=name, mentions=mentions))
            labels = labels + [
                TripletLabel(head=len(entities) - 2, tail=len(entities) - 1,
                             relation=rng.choice(unseen_sorted),
                             evidence=[sent_id])
            ]
        new_docs.append(
            Document(doc_id=doc.doc_id, title=doc.title, sentences=sentences,
                     entities=entities, labels=labels)
        )
    return Corpus(documents=new_docs, provenance=corpus.provenance, registry=corpus.registry)


# ---------------------------------------------------------------------------
# scripted chat answers that replay a corpus through the generation chain


def _doc_index(doc_id: str) -> tuple[str, int]:
    rel, _, k = doc_id.rpartition("-")
    return rel, int(k)


def chat_script(world: SimWorld, corpus: Corpus) -> dict[tuple, str]:
    """Script a 7-step chat per document so chains re-derive the corpus.

    Keys are (relation, doc_index, step).  Document ids must follow the
    ``{relation}-{index}`` convention used by corpus generation.
    """
    registry = world.registry
    script: dict[tuple, str] = {}
    for doc in corpus.documents:
        rel, k = _doc_index(doc.doc_id)
        sent_strings = [" ".join(tokens) for tokens in doc.sentences]
        triplets = doc.name_triplets()
        related_names = [registry.name_of(r) for r in world.related.get(rel, ())]
        if not related_names:
            related_names = [r.name for r in registry if r.id != rel][:3]
        script[(rel, k, 1)] = "\n".join(related_names)
        script[(rel, k, 2)] = doc.title + "\n" + " ".join(sent_strings)
        script[(rel, k, 3)] = "\n".join(
            f"{e.canonical_name} | {e.etype}" for e in doc.entities
        )
        script[(rel, k, 4)] = format_triplet_block(triplets, registry)
        script[(rel, k, 5)] = "\n".join(
            f"{i + 1}. The archive entry states this connection directly."
            for i in range(len(triplets))
        )
        support_lines = []
        for i, lb in enumerate(doc.labels):
            for ev in lb.evidence[:2]:
                support_lines.append(f"{i + 1}. {sent_strings[ev]}")
        script[(rel, k, 6)] = "\n".join(support_lines) or "1. (no direct quote)"
        script[(rel, k, 7)] = json.dumps(
            {
                "title": doc.title,
                "sentences": sent_strings,
                "entities": [
                    {"name": e.canonical_name, "type": e.etype} for e in doc.entities
                ],
                "triplets": [
                    {
                        "head": doc.entities[lb.head].canonical_name,
                        "tail": doc.entities[lb.tail].canonical_name,
                        "relation": registry.name_of(lb.relation),
                        "reason": "The archive entry states this connection directly.",
                        "support": [sent_strings[ev] for ev in lb.evidence[:2]],
                    }
                    for lb in doc.labels
                ],
            },
            ensure_ascii=False,
        )
    return script


@dataclass
class MockWorldParams:
    """Size/noise knobs for simulated generation (config section ``mock``)."""

    facts_per_relation: int = 4
    facts_per_doc: int = 3
    label_drop_prob: float = 0.2
    spurious_prob: float = 0.2
    pseudo_drop_prob: float = 0.2
    final_drop_prob: float = 0.25
    world_seed: int = 0

    def __post_init__(self) -> None:
        if self.facts_per_relation < 1 or self.facts_per_doc < 1:
            raise ValueError("facts_per_relation and facts_per_doc must be at least 1")
        for name in ("label_drop_prob", "spurious_prob", "pseudo_drop_prob", "final_drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {p}")


def mock_world(registry: RelationRegistry, unseen: Sequence[str], seen: Sequence[str],
               seed: int, n_related: int, params: MockWorldParams) -> SimWorld:
    """The world of one replicate, which :func:`mock_generation_corpus` builds on."""
    return build_world(registry, unseen, seed=params.world_seed * 100003 + seed,
                       facts_per_relation=params.facts_per_relation, related_pool=seen,
                       n_related=n_related)


def mock_generation_corpus(registry: RelationRegistry, unseen: Sequence[str],
                           seen: Sequence[str], seed: int, docs_per_relation: int,
                           n_related: int, params: MockWorldParams,
                           ) -> tuple[SimWorld, Corpus, Corpus]:
    """World + true corpus + corrupted corpus for one replicate.

    Deterministic in all arguments, so any pipeline stage can rebuild the
    same triple without passing state around.
    """
    world = mock_world(registry, unseen, seen, seed, n_related, params)
    truth = world_documents(world, docs_per_relation, params.facts_per_doc, seed=seed)
    corrupted = corrupt_labels(
        truth, world.unseen, params.label_drop_prob, params.spurious_prob, seed=seed
    )
    return world, truth, corrupted


# ---------------------------------------------------------------------------
# demo input files


DEMO_CONFIG = """\
// Demo configuration: deterministic mock backends, no network access.
// Paths are resolved relative to this file.
{
  "registry": "registry.json",
  "train_docs": "train.json",
  "dev_docs": "dev.json",
  "test_docs": "test.json",
  "run_dir": "run",

  "backend": "mock",          /* chat transport: live | cassette | mock */
  "predictor": "mock",        // pseudo-labeler for unseen relations
  "final_predictor": "mock",  // extractor whose predictions get scored

  "m": 4,
  "seeds": [11, 23, 37],
  "docs_per_relation": 3,
  "n_related": 2,
  "group_size": 5,
  "instruction": "Extract every relation triplet expressed in the document. Answer with one line per triplet in the form (head | tail | relation), using only the listed relation names. Answer with nothing if no listed relation applies."
}
"""


def write_demo_inputs(directory: Path | str, n_relations: int = 24, seed: int = 101) -> None:
    """Emit a self-contained demo dataset: registry, corpora, and config."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    registry = synthetic_registry(n_relations)
    write_text_atomic(
        directory / "registry.json",
        json.dumps(
            [{"id": r.id, "name": r.name} for r in registry],
            ensure_ascii=False, indent=2, sort_keys=True,
        ) + "\n",
    )
    all_ids = registry.ids()
    for split_name, docs_per_relation, split_seed in (
        ("train", 2, seed), ("dev", 1, seed + 1), ("test", 1, seed + 2)
    ):
        world = build_world(
            registry, all_ids, seed=split_seed, facts_per_relation=3,
            related_pool=all_ids, n_related=2,
        )
        corpus = world_documents(
            world, docs_per_relation=docs_per_relation, facts_per_doc=3,
            seed=split_seed, id_prefix=f"{split_name}-",
        )
        human = Corpus(documents=corpus.documents, provenance="human",
                       registry=registry)
        save_docred(human, directory / f"{split_name}.json")
    write_text_atomic(directory / "config.json", DEMO_CONFIG)
