"""Simulated world: registries, fact graphs, fabricated corpora, demo inputs."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from docrte.config import load_config
from docrte.docio import (
    canonical_dumps,
    corpus_to_json,
    document_to_json,
    load_docred,
    load_registry,
)
from docrte.model import FactKey, fact_keys, validate_corpus
from docrte.simulate import (
    MockWorldParams,
    SimEntity,
    _fact_sentence,
    build_world,
    chat_script,
    corrupt_labels,
    mock_generation_corpus,
    mock_world,
    synthetic_registry,
    world_documents,
    world_truth,
    write_demo_inputs,
)


class TestSyntheticRegistry:
    def test_requested_size_with_unique_ids_and_names(self):
        registry = synthetic_registry(96)
        ids = registry.ids()
        assert len(ids) == 96
        assert len(set(ids)) == 96
        names = [r.name for r in registry]
        assert len(set(names)) == 96

    def test_ids_are_zero_padded_and_ordered(self):
        registry = synthetic_registry(12)
        assert registry.ids()[0] == "R000"
        assert registry.ids()[-1] == "R011"


class CountingName(str):
    """A name that counts how often it is split, i.e. normalized."""

    splits = 0

    def split(self, *args):
        CountingName.splits += 1
        return super().split(*args)


class TestSimEntity:
    def test_key_is_normalized_once_per_entity(self):
        CountingName.splits = 0
        ent = SimEntity(CountingName("  Ada   LOVELACE "), "PER")
        assert [ent.key for _ in range(5)] == ["ada lovelace"] * 5
        assert hash(ent) == hash(SimEntity("  Ada   LOVELACE ", "PER"))
        assert CountingName.splits == 1

    def test_equality_and_hash_ignore_the_key(self):
        seen, fresh = SimEntity("Ada", "PER"), SimEntity("Ada", "PER")
        seen.key
        assert seen == fresh and hash(seen) == hash(fresh)
        assert {seen: 1}[fresh] == 1
        assert SimEntity("Ada", "PER") != SimEntity("ADA", "PER")
        assert SimEntity("Ada", "PER") != SimEntity("Ada", "ORG")


@pytest.fixture(scope="module")
def small_world():
    registry = synthetic_registry(10)
    ids = registry.ids()
    return build_world(registry, unseen=ids[:3], seed=7,
                       facts_per_relation=4, related_pool=ids[3:], n_related=2)


class TestBuildWorld:
    def test_every_covered_relation_gets_its_quota(self, small_world):
        for rel, facts in small_world.facts_by_relation.items():
            assert len(facts) == 4
            assert all(f.relation == rel for f in facts)
        covered = set(small_world.unseen) | {
            r for rs in small_world.related.values() for r in rs}
        assert set(small_world.facts_by_relation) == covered

    def test_related_pool_never_includes_unseen(self, small_world):
        for rel, related in small_world.related.items():
            assert rel not in related
            assert not set(related) & set(small_world.unseen)
            assert len(related) == 2

    def test_facts_are_distinct_and_loop_free(self, small_world):
        facts = small_world.all_facts()
        assert len(facts) == len(set(facts))
        assert all(f.head_key != f.tail_key for f in facts)

    def test_same_seed_same_world(self):
        registry = synthetic_registry(10)
        ids = registry.ids()
        a = build_world(registry, ids[:3], seed=7, related_pool=ids[3:])
        b = build_world(registry, ids[:3], seed=7, related_pool=ids[3:])
        assert a.all_facts() == b.all_facts()
        assert a.related == b.related
        c = build_world(registry, ids[:3], seed=8, related_pool=ids[3:])
        assert a.all_facts() != c.all_facts()


def reference_choice(world, seed, rel, k, facts_per_doc):
    """The facts a document about ``rel`` expresses, drawn the way the
    unindexed code drew them: the k-th own fact, then a sample of the rest
    of the relation's pool with that fact filtered out by equality."""
    own = world.facts_by_relation[rel]
    pool = [f for r in (rel, *world.related[rel]) for f in world.facts_by_relation[r]]
    chosen = [own[k % len(own)]]
    candidates = [f for f in pool if f not in chosen]
    rng = random.Random(f"doc:{seed}:{rel}:{k}")
    return chosen + rng.sample(candidates, min(facts_per_doc - 1, len(candidates)))


def closure_labels(world, doc):
    """Brute-force reference: scan every world fact in ``FactKey.sort_key``
    order and keep those whose two entity keys both occur in ``doc``."""
    index_of = {ent.key: i for i, ent in enumerate(doc.entities)}
    rows = []
    for fact in sorted(world.facts, key=FactKey.sort_key):
        if fact.head_key in index_of and fact.tail_key in index_of:
            h, t = index_of[fact.head_key], index_of[fact.tail_key]
            evidence = sorted(doc.entities[h].sentence_ids() & doc.entities[t].sentence_ids())
            rows.append((h, t, fact.relation, evidence))
    return rows


class TestWorldDocuments:
    @pytest.mark.parametrize("seed,facts_per_relation,facts_per_doc", [
        (1, 4, 3), (2, 12, 4), (3, 30, 5), (4, 8, 2)])
    def test_indexed_labels_equal_a_scan_of_every_world_fact(
            self, seed, facts_per_relation, facts_per_doc):
        registry = synthetic_registry(12)
        ids = registry.ids()
        world = build_world(registry, ids[:4], seed=seed, facts_per_relation=facts_per_relation,
                            related_pool=ids[4:], n_related=3)
        corpus = world_documents(world, docs_per_relation=6, facts_per_doc=facts_per_doc,
                                 seed=seed)
        validate_corpus(corpus)
        assert sum(len(doc.labels) for doc in corpus.documents) > len(corpus.documents)
        for doc in corpus.documents:
            rel, k = doc.doc_id.rsplit("-", 1)
            chosen = reference_choice(world, seed, rel, int(k), facts_per_doc)
            assert doc.sentences[1:] == [_fact_sentence(world, f) for f in chosen], doc.doc_id
            got = [(lb.head, lb.tail, lb.relation, lb.evidence) for lb in doc.labels]
            assert got == closure_labels(world, doc), doc.doc_id

    def test_head_index_covers_every_fact_once(self, small_world):
        indexed = [f for facts in small_world.facts_by_head.values() for f in facts]
        assert sorted(indexed, key=FactKey.sort_key) == small_world.all_facts()
        assert all(f.head_key == key for key, facts in small_world.facts_by_head.items()
                   for f in facts)

    def test_ids_titles_and_quota(self, small_world):
        corpus = world_documents(small_world, docs_per_relation=3,
                                 facts_per_doc=2, seed=5, id_prefix="x-")
        assert len(corpus.documents) == 9
        assert corpus.documents[0].doc_id == f"x-{small_world.unseen[0]}-00"
        assert corpus.documents[0].title == f"Dossier x-{small_world.unseen[0]}-00"

    def test_each_doc_expresses_its_relation(self, small_world):
        corpus = world_documents(small_world, docs_per_relation=4,
                                 facts_per_doc=3, seed=5)
        for doc in corpus.documents:
            rel = doc.doc_id.rsplit("-", 1)[0]
            assert any(lb.relation == rel for lb in doc.labels)

    def test_labels_are_the_world_fact_closure(self, small_world):
        """Every world fact whose endpoints co-occur in a document is labeled,
        and nothing else is: fabricated documents are exhaustively labeled."""
        corpus = world_documents(small_world, docs_per_relation=4,
                                 facts_per_doc=3, seed=5)
        world_facts = set(small_world.facts)
        for doc in corpus.documents:
            present = {e.key for e in doc.entities}
            expected = {
                f for f in world_facts
                if f.head_key in present and f.tail_key in present
            }
            assert fact_keys(doc) == expected

    def test_deterministic(self, small_world):
        a = world_documents(small_world, 3, 2, seed=5)
        b = world_documents(small_world, 3, 2, seed=5)
        assert canonical_dumps(corpus_to_json(a)) == canonical_dumps(corpus_to_json(b))
        c = world_documents(small_world, 3, 2, seed=6)
        assert canonical_dumps(corpus_to_json(a)) != canonical_dumps(corpus_to_json(c))


class TestCorruptLabels:
    @pytest.fixture
    def clean(self, small_world):
        return world_documents(small_world, docs_per_relation=3,
                               facts_per_doc=3, seed=5)

    def test_zero_noise_is_identity(self, clean, small_world):
        same = corrupt_labels(clean, small_world.unseen, drop_prob=0.0,
                              spurious_prob=0.0, seed=9)
        assert canonical_dumps(corpus_to_json(same)) == \
            canonical_dumps(corpus_to_json(clean))

    def test_drop_only_removes_labels(self, clean, small_world):
        noisy = corrupt_labels(clean, small_world.unseen, drop_prob=0.5,
                               spurious_prob=0.0, seed=9)
        total_before = sum(len(d.labels) for d in clean.documents)
        total_after = sum(len(d.labels) for d in noisy.documents)
        assert total_after < total_before
        for dirty, orig in zip(noisy.documents, clean.documents):
            kept = {(lb.head, lb.tail, lb.relation) for lb in dirty.labels}
            had = {(lb.head, lb.tail, lb.relation) for lb in orig.labels}
            assert kept <= had

    def test_spurious_facts_are_document_singletons(self, clean, small_world):
        noisy = corrupt_labels(clean, small_world.unseen, drop_prob=0.0,
                               spurious_prob=1.0, seed=9)
        validate_corpus(noisy)
        spurious_by_doc = []
        for dirty, orig in zip(noisy.documents, clean.documents):
            assert len(dirty.labels) == len(orig.labels) + 1
            assert len(dirty.sentences) == len(orig.sentences) + 1
            extra = fact_keys(dirty) - fact_keys(orig)
            assert len(extra) == 1
            spurious_by_doc.append(next(iter(extra)))
        # the injected fact's entities are unique to their document, so each
        # spurious fact has document frequency exactly 1 across the corpus
        assert len(set(spurious_by_doc)) == len(spurious_by_doc)
        counts: dict[FactKey, int] = {}
        for doc in noisy.documents:
            for f in fact_keys(doc):
                counts[f] = counts.get(f, 0) + 1
        for fact in spurious_by_doc:
            assert counts[fact] == 1

    def test_noise_is_keyed_by_document_not_order(self, clean, small_world):
        noisy = corrupt_labels(clean, small_world.unseen, 0.3, 0.3, seed=9)
        validate_corpus(noisy)
        reversed_corpus = type(clean)(
            documents=list(reversed(clean.documents)),
            provenance=clean.provenance, registry=clean.registry)
        noisy_rev = corrupt_labels(reversed_corpus, small_world.unseen, 0.3, 0.3,
                                   seed=9)
        by_id = {d.doc_id: d for d in noisy_rev.documents}
        for doc in noisy.documents:
            assert canonical_dumps(document_to_json(doc)) == \
                canonical_dumps(document_to_json(by_id[doc.doc_id]))


class TestChatScript:
    def test_complete_seven_step_coverage(self, small_world):
        corpus = world_documents(small_world, docs_per_relation=2,
                                 facts_per_doc=2, seed=5)
        script = chat_script(small_world, corpus)
        for doc in corpus.documents:
            rel, k = doc.doc_id.rsplit("-", 1)
            for step in range(1, 8):
                assert (rel, int(k), step) in script
        assert len(script) == 7 * len(corpus.documents)

    def test_final_step_is_json_with_document_fields(self, small_world):
        import json

        corpus = world_documents(small_world, 1, 2, seed=5)
        script = chat_script(small_world, corpus)
        rel = small_world.unseen[0]
        payload = json.loads(script[(rel, 0, 7)])
        assert set(payload) == {"title", "sentences", "entities", "triplets"}
        assert payload["title"] == corpus.documents[0].title


class TestMockGenerationCorpus:
    def test_deterministic_in_all_arguments(self):
        registry = synthetic_registry(12)
        ids = registry.ids()
        params = MockWorldParams(facts_per_relation=3, facts_per_doc=2)
        args = (registry, ids[:2], ids[2:], 13, 3, 2, params)
        world_a, truth_a, noisy_a = mock_generation_corpus(*args)
        world_b, truth_b, noisy_b = mock_generation_corpus(*args)
        assert world_a.all_facts() == world_b.all_facts()
        assert canonical_dumps(corpus_to_json(truth_a)) == \
            canonical_dumps(corpus_to_json(truth_b))
        assert canonical_dumps(corpus_to_json(noisy_a)) == \
            canonical_dumps(corpus_to_json(noisy_b))

    def test_corrupted_differs_from_truth_when_noisy(self):
        registry = synthetic_registry(12)
        ids = registry.ids()
        params = MockWorldParams(label_drop_prob=0.5, spurious_prob=0.5)
        _, truth, noisy = mock_generation_corpus(
            registry, ids[:2], ids[2:], 13, 5, 2, params)
        assert len(truth.documents) == len(noisy.documents) == 10
        assert canonical_dumps(corpus_to_json(truth)) != \
            canonical_dumps(corpus_to_json(noisy))


class TestWorldTruth:
    """world_truth gives each title of world_documents' corpus the names of
    its labels, in label order, without building a document."""

    # (world seed, facts per relation, facts per document, related relations);
    # one fact per relation and none related leave each relation a one-fact pool
    @pytest.mark.parametrize("seed, facts_per_relation, facts_per_doc, n_related", [
        (1, 4, 3, 2), (7, 6, 1, 3), (13, 1, 2, 0), (21, 3, 5, 1)])
    def test_equals_the_labels_of_world_documents(self, seed, facts_per_relation,
                                                  facts_per_doc, n_related):
        registry = synthetic_registry(12)
        ids = registry.ids()
        world = build_world(registry, ids[:3], seed=seed, facts_per_relation=facts_per_relation,
                            related_pool=ids[3:], n_related=n_related)
        corpus = world_documents(world, 5, facts_per_doc, seed=seed)
        truth = world_truth(world, 5, facts_per_doc, seed)
        assert truth == {doc.title: doc.name_triplets() for doc in corpus.documents}
        assert len(truth) == 15

    def test_mock_world_is_the_world_of_mock_generation_corpus(self):
        registry = synthetic_registry(12)
        ids = registry.ids()
        params = MockWorldParams(facts_per_relation=3, facts_per_doc=2, world_seed=4)
        args = (registry, ids[:2], ids[2:], 13)
        world, truth, _ = mock_generation_corpus(*args, 3, 2, params)
        rebuilt = mock_world(*args, 2, params)
        assert rebuilt.all_facts() == world.all_facts()
        assert world_truth(rebuilt, 3, params.facts_per_doc, 13) == {
            doc.title: doc.name_triplets() for doc in truth.documents}


class TestDemoInputs:
    def test_emitted_files_load_cleanly(self, tmp_path):
        write_demo_inputs(tmp_path, n_relations=16, seed=3)
        registry = load_registry(tmp_path / "registry.json")
        assert len(registry.ids()) == 16
        for split in ("train", "dev", "test"):
            corpus = load_docred(tmp_path / f"{split}.json", registry)
            assert corpus.documents
            validate_corpus(corpus)
        config = load_config(tmp_path / "config.json")
        assert config.backend == "mock"
        assert Path(config.registry) == tmp_path / "registry.json"
        assert Path(config.train_docs) == tmp_path / "train.json"

    def test_rewrites_are_stable(self, tmp_path):
        write_demo_inputs(tmp_path / "a", n_relations=16, seed=3)
        write_demo_inputs(tmp_path / "b", n_relations=16, seed=3)
        for name in ("registry.json", "train.json", "dev.json", "test.json",
                     "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
