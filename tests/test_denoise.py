"""Consistency denoising: graphs, thresholds, pruning, and relabeling."""
from __future__ import annotations

import math
import random

import pytest

from docrte.denoise import (
    NO_THRESHOLD,
    FusedGraph,
    ThresholdTable,
    build_graph,
    compute_thresholds,
    denoise,
    fuse,
    graph_dump_rows,
    prune,
    relabel_corpus,
)
from docrte.model import Document, Entity, EntityMention, FactKey, TripletLabel

from conftest import build_corpus, build_doc, make_registry


def oracle_pass(synth_facts, pseudo_facts):
    """Reference implementation written from scratch with bare arithmetic.

    No statistics module, no shared helpers: fused scores are plain counting,
    the threshold is mean minus the square root of the N-1 variance, and the
    kept set is a literal >= comparison (single-fact relations exempt).
    """
    scores = {}
    for per_doc in (synth_facts, pseudo_facts):
        for facts in per_doc.values():
            for fact in facts:
                scores[fact] = scores.get(fact, 0) + 1
    by_rel = {}
    for fact, score in scores.items():
        by_rel.setdefault(fact.relation, []).append(score)
    eta = {}
    for rel, values in by_rel.items():
        if len(values) < 2:
            eta[rel] = None
            continue
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        eta[rel] = mean - math.sqrt(var)
    kept = {
        fact for fact, score in scores.items()
        if eta[fact.relation] is None or score >= eta[fact.relation]
    }
    return scores, eta, kept


def random_fact_sets(rng, universe, n_docs):
    return {
        f"doc-{i}": {f for f in universe if rng.random() < 0.4}
        for i in range(n_docs)
    }


class TestGraphsAgainstOracle:
    def test_randomized_graphs_match_reference(self):
        entities = [f"e{i}" for i in range(8)]
        relations = [f"R{i}" for i in range(4)]
        for trial in range(40):
            rng = random.Random(trial)
            universe = [
                FactKey(h, t, r)
                for h in entities for t in entities for r in relations
                if h != t and rng.random() < 0.05
            ]
            if not universe:
                continue
            synth = random_fact_sets(rng, universe, 6)
            pseudo = random_fact_sets(rng, universe, 6)
            fused = fuse(build_graph(synth, "synthetic"), build_graph(pseudo, "pseudo"))
            thresholds = compute_thresholds(fused)
            kept = prune(fused, thresholds)

            ref_scores, ref_eta, ref_kept = oracle_pass(synth, pseudo)
            ref_scores = {f: s for f, s in ref_scores.items() if s > 0}
            assert {f: s for f, s in fused.scores.items() if s > 0} == ref_scores
            for rel, value in ref_eta.items():
                got = thresholds.for_relation(rel)
                if value is None:
                    assert got == NO_THRESHOLD
                else:
                    assert abs(got - value) < 1e-9
            assert kept == ref_kept

    def test_document_frequency_not_mention_frequency(self):
        fact = FactKey("a", "b", "R1")
        graph = build_graph({"d1": {fact}, "d2": {fact}, "d3": set()}, "synthetic")
        assert graph.counts == {fact: 2}


class TestThresholds:
    def test_equal_scores_threshold_equals_score(self):
        fused = FusedGraph(scores={
            FactKey("a", "b", "R1"): 3,
            FactKey("c", "d", "R1"): 3,
            FactKey("e", "f", "R1"): 3,
        })
        table = compute_thresholds(fused)
        assert table.for_relation("R1") == pytest.approx(3.0)
        # every fact sits exactly on the threshold and survives
        assert prune(fused, table) == set(fused.scores)

    def test_hand_computed_skewed_scores(self):
        # scores {1, 10, 10, 10}: mean 7.75, sample std 4.5, threshold 3.25
        fused = FusedGraph(scores={
            FactKey("a", "b", "R1"): 1,
            FactKey("c", "d", "R1"): 10,
            FactKey("e", "f", "R1"): 10,
            FactKey("g", "h", "R1"): 10,
        })
        table = compute_thresholds(fused)
        assert table.for_relation("R1") == pytest.approx(3.25)
        kept = prune(fused, table)
        assert FactKey("a", "b", "R1") not in kept
        assert len(kept) == 3

    def test_single_fact_relation_is_exempt(self):
        fused = FusedGraph(scores={FactKey("a", "b", "R9"): 1})
        table = compute_thresholds(fused)
        assert table.for_relation("R9") == NO_THRESHOLD
        assert prune(fused, table) == set(fused.scores)

    def test_unknown_relation_defaults_to_sentinel(self):
        table = ThresholdTable(eta={}, fact_counts={})
        assert table.for_relation("R404") == NO_THRESHOLD

    def test_keep_set_is_shift_invariant(self):
        base = {
            FactKey("a", "b", "R1"): 1,
            FactKey("c", "d", "R1"): 4,
            FactKey("e", "f", "R1"): 9,
            FactKey("g", "h", "R1"): 9,
        }
        kept_base = prune(FusedGraph(scores=dict(base)),
                          compute_thresholds(FusedGraph(scores=dict(base))))
        for shift in (1, 7, 100):
            shifted = FusedGraph(scores={f: s + shift for f, s in base.items()})
            table = compute_thresholds(shifted)
            assert prune(shifted, table) == kept_base
            base_eta = compute_thresholds(FusedGraph(scores=dict(base))).for_relation("R1")
            assert table.for_relation("R1") == pytest.approx(base_eta + shift)


class TestGraphDump:
    def test_rows_sorted_with_provenance_split(self):
        f1 = FactKey("a", "b", "R1")
        f2 = FactKey("c", "d", "R1")
        lone = FactKey("z", "q", "R2")
        kg_s = build_graph({"d1": {f1, f2}, "d2": {f1}}, "synthetic")
        kg_p = build_graph({"d1": {f1, lone}}, "pseudo")
        fused = fuse(kg_s, kg_p)
        thresholds = compute_thresholds(fused)
        kept = prune(fused, thresholds)
        rows = graph_dump_rows(kg_s, kg_p, fused, thresholds, kept)
        assert len(rows) == 3
        keys = [(r["head_key"], r["tail_key"], r["relation"]) for r in rows]
        assert keys == sorted(keys)
        by_key = {(r["head_key"], r["tail_key"]): r for r in rows}
        assert by_key[("a", "b")]["f_s"] == 2
        assert by_key[("a", "b")]["f_p"] == 1
        assert by_key[("a", "b")]["score"] == 3
        assert by_key[("c", "d")]["score"] == 1
        # single-fact relation serializes its sentinel threshold as null
        assert by_key[("z", "q")]["eta"] is None
        assert by_key[("z", "q")]["kept"] is True
        assert all(isinstance(r["kept"], bool) for r in rows)


def entity_in(name, placements, etype="ORG"):
    """Entity mentioned at (sent_id, start, end) for each placement."""
    mentions = [
        EntityMention(name=name, sent_id=s, start=a, end=b, etype=etype)
        for s, a, b in placements
    ]
    return Entity(canonical_name=name, mentions=mentions)


class TestRelabel:
    @pytest.fixture
    def registry(self):
        return make_registry(("R1", "works with"), ("R2", "parent of"))

    def test_pruned_label_removed_and_reported(self, registry):
        doc = build_doc("d1", ["Ada", "Boeing", "Cray", "Epson"],
                        [("Ada", "Boeing", "R1"), ("Cray", "Epson", "R1")])
        corpus = build_corpus([doc], registry=registry)
        kept = {FactKey("ada", "boeing", "R1")}
        denoised, report = relabel_corpus(corpus, kept, unseen=["R1"])
        labels = denoised.documents[0].labels
        assert len(labels) == 1
        assert (labels[0].head, labels[0].tail) == (0, 1)
        assert report.removed["d1"] == [
            {"head": "Cray", "tail": "Epson", "relation": "R1"}]
        assert report.counts["labels_removed"] == 1

    def test_projection_adds_label_with_shared_evidence(self, registry):
        target = Document(
            doc_id="d4",
            title="Joint mention",
            sentences=[
                ["Ada", "visits", "."],
                ["Boeing", "expands", "."],
                ["Ada", "joined", "Boeing", "."],
            ],
            entities=[
                entity_in("Ada", [(0, 0, 1), (2, 0, 1)]),
                entity_in("Boeing", [(1, 0, 1), (2, 2, 3)]),
            ],
            labels=[],
        )
        corpus = build_corpus([target], registry=registry)
        kept = {FactKey("ada", "boeing", "R1")}
        denoised, report = relabel_corpus(corpus, kept, unseen=["R1"])
        label = denoised.documents[0].labels[0]
        assert (label.head, label.tail, label.relation) == (0, 1, "R1")
        assert label.evidence == [2]
        assert label.reason == "cross-document consistency"
        assert report.added["d4"] == [
            {"head_key": "ada", "tail_key": "boeing", "relation": "R1"}]

    def test_projection_skips_docs_missing_an_endpoint(self, registry):
        doc = build_doc("d1", ["Ada", "Cray"], [("Ada", "Cray", "R1")])
        corpus = build_corpus([doc], registry=registry)
        kept = {FactKey("ada", "cray", "R1"), FactKey("ada", "boeing", "R1")}
        denoised, report = relabel_corpus(corpus, kept, unseen=["R1"])
        assert len(denoised.documents[0].labels) == 1
        assert report.added == {}

    def test_surviving_labels_keep_original_order(self, registry):
        doc = build_doc(
            "d1", ["Ada", "Boeing", "Cray"],
            [("Cray", "Ada", "R1"), ("Ada", "Boeing", "R1")])
        corpus = build_corpus([doc], registry=registry)
        kept = {
            FactKey("cray", "ada", "R1"),
            FactKey("ada", "boeing", "R1"),
            FactKey("boeing", "cray", "R1"),  # new: projected after survivors
        }
        denoised, _ = relabel_corpus(corpus, kept, unseen=["R1"])
        triples = [(l.head, l.tail) for l in denoised.documents[0].labels]
        assert triples == [(2, 0), (0, 1), (1, 2)]
        assert denoised.documents[0].labels[2].reason == "cross-document consistency"

    def test_doc_without_unseen_labels_is_dropped(self, registry):
        mixed = build_doc("keep", ["Ada", "Boeing"], [("Ada", "Boeing", "R1")])
        seen_only = build_doc("gone", ["Cray", "Epson"], [("Cray", "Epson", "R2")])
        corpus = build_corpus([mixed, seen_only], registry=registry)
        kept = {FactKey("ada", "boeing", "R1"), FactKey("cray", "epson", "R2")}
        denoised, report = relabel_corpus(corpus, kept, unseen=["R1"])
        assert [d.doc_id for d in denoised.documents] == ["keep"]
        assert report.dropped_docs == ["gone"]
        assert report.counts["docs_dropped"] == 1
        assert report.counts["docs_in"] == 2
        assert report.counts["docs_out"] == 1

    def test_denoised_corpus_provenance(self, registry):
        doc = build_doc("d1", ["Ada", "Boeing"], [("Ada", "Boeing", "R1")])
        corpus = build_corpus([doc], registry=registry)
        denoised, _ = relabel_corpus(
            corpus, {FactKey("ada", "boeing", "R1")}, unseen=["R1"])
        assert denoised.provenance == "denoised"
        assert corpus.documents[0].labels  # source untouched


def reference_relabel(corpus, kept, unseen):
    """Brute-force projection: every kept fact, in ``FactKey.sort_key`` order,
    is tried against every document; returns (doc_id, labels) pairs."""
    out = []
    for doc in corpus.documents:
        key_to_index = doc.key_to_index()
        labels, present = [], set()
        for lb in doc.labels:
            head, tail = doc.entities[lb.head], doc.entities[lb.tail]
            fact = None if head.key == tail.key else FactKey(head.key, tail.key, lb.relation)
            if fact in kept:
                labels.append((lb.head, lb.tail, lb.relation, lb.evidence, lb.reason))
                present.add(fact)
        for fact in sorted(kept, key=FactKey.sort_key):
            h, t = key_to_index.get(fact.head_key), key_to_index.get(fact.tail_key)
            if fact in present or h is None or t is None:
                continue
            evidence = sorted(doc.entities[h].sentence_ids() & doc.entities[t].sentence_ids())
            labels.append((h, t, fact.relation, evidence, "cross-document consistency"))
        if any(row[2] in unseen for row in labels):
            out.append((doc.doc_id, labels))
    return out


class TestRelabelIndex:
    def test_equals_a_scan_of_every_kept_fact(self):
        registry = make_registry(("R1", "works with"), ("R2", "parent of"), ("R3", "rival of"))
        names = ["Ada", "Boeing", "Cray", "Epson", "Uber", "Vimeo", "Xerox"]
        rng = random.Random(11)
        docs = []
        for i in range(40):
            picked = rng.sample(names, rng.randint(2, 5))
            labels = [(h, t, rng.choice(["R1", "R2", "R3"]))
                      for h, t in zip(picked, picked[1:]) if rng.random() < 0.7]
            docs.append(build_doc(f"d{i}", picked, labels))
        # duplicate entity keys: "ADA" normalizes like "Ada", and a label
        # between the two is a head == tail fact that no kept fact can match
        dup = build_doc("dup", ["Ada", "Boeing", "Cray"],
                        [("Ada", "Boeing", "R1"), ("Boeing", "Cray", "R2")])
        dup.sentences.append(["ADA", "again", "."])
        dup.entities.append(entity_in("ADA", [(3, 0, 1)]))
        dup.labels.append(TripletLabel(head=0, tail=3, relation="R1"))
        dup.labels.append(TripletLabel(head=3, tail=2, relation="R3"))
        docs.append(dup)
        corpus = build_corpus(docs, registry=registry)
        keys = [n.lower() for n in names]
        universe = [FactKey(h, t, r) for h in keys for t in keys if h != t
                    for r in ("R1", "R2", "R3")]
        kept = {f for f in universe if rng.random() < 0.3} | {FactKey("ada", "cray", "R3")}
        denoised, report = relabel_corpus(corpus, kept, unseen=["R1", "R3"])
        got = [(d.doc_id, [(lb.head, lb.tail, lb.relation, lb.evidence, lb.reason)
                           for lb in d.labels]) for d in denoised.documents]
        assert got == reference_relabel(corpus, kept, {"R1", "R3"})
        assert report.counts["labels_added"] > 40
        assert {"head": "Ada", "tail": "ADA", "relation": "R1"} in report.removed["dup"]


class TestFullDenoise:
    """End-to-end pass over a small corpus with a hand-auditable graph."""

    @pytest.fixture
    def world(self):
        registry = make_registry(("R1", "works with"))
        fact_f = FactKey("ada", "boeing", "R1")
        fact_g = FactKey("cray", "epson", "R1")
        fact_h = FactKey("uber", "vimeo", "R1")
        d1 = build_doc(
            "d1", ["Ada", "Boeing", "Cray", "Epson", "Uber", "Vimeo"],
            [("Ada", "Boeing", "R1"), ("Cray", "Epson", "R1"),
             ("Uber", "Vimeo", "R1")])
        d2 = build_doc("d2", ["Ada", "Boeing", "Uber", "Vimeo"],
                       [("Ada", "Boeing", "R1"), ("Uber", "Vimeo", "R1")])
        d3 = build_doc("d3", ["Ada", "Boeing", "Uber", "Vimeo"],
                       [("Ada", "Boeing", "R1"), ("Uber", "Vimeo", "R1")])
        d4 = Document(
            doc_id="d4",
            title="Unlabeled pair",
            sentences=[
                ["Ada", "visits", "."],
                ["Boeing", "expands", "."],
                ["Ada", "joined", "Boeing", "."],
            ],
            entities=[
                entity_in("Ada", [(0, 0, 1), (2, 0, 1)]),
                entity_in("Boeing", [(1, 0, 1), (2, 2, 3)]),
            ],
            labels=[],
        )
        corpus = build_corpus([d1, d2, d3, d4], registry=registry)
        pseudo = {
            "d1": {fact_f, fact_h},
            "d2": {fact_f, fact_h},
            "d3": {fact_f, fact_h},
            "d4": {fact_f},
        }
        return corpus, pseudo, (fact_f, fact_g, fact_h)

    def test_scores_threshold_and_prune(self, world):
        corpus, pseudo, (fact_f, fact_g, fact_h) = world
        denoised, report, rows = denoise(corpus, pseudo, unseen=["R1"])
        by_fact = {(r["head_key"], r["tail_key"]): r for r in rows}
        assert by_fact[("ada", "boeing")]["score"] == 7    # 3 labeled + 4 pseudo
        assert by_fact[("uber", "vimeo")]["score"] == 6    # 3 labeled + 3 pseudo
        assert by_fact[("cray", "epson")]["score"] == 1    # labeled once only
        # threshold over {7, 6, 1}: 14/3 - sqrt(93/9)
        expected_eta = 14 / 3 - math.sqrt(93 / 9)
        assert by_fact[("ada", "boeing")]["eta"] == pytest.approx(expected_eta)
        assert by_fact[("cray", "epson")]["kept"] is False
        assert by_fact[("ada", "boeing")]["kept"] is True
        assert by_fact[("uber", "vimeo")]["kept"] is True
        pruned_rows = report.pruned
        assert len(pruned_rows) == 1
        assert pruned_rows[0]["head_key"] == "cray"
        assert pruned_rows[0]["score"] == 1
        assert pruned_rows[0]["eta"] == pytest.approx(expected_eta)

    def test_relabel_projects_fact_into_unlabeled_doc(self, world):
        corpus, pseudo, _ = world
        denoised, report, _ = denoise(corpus, pseudo, unseen=["R1"])
        assert [d.doc_id for d in denoised.documents] == ["d1", "d2", "d3", "d4"]
        d4 = denoised.documents[-1]
        assert len(d4.labels) == 1
        assert d4.labels[0].evidence == [2]
        assert d4.labels[0].reason == "cross-document consistency"
        assert report.counts == {
            "facts_kept": 2,
            "facts_pruned": 1,
            "labels_added": 1,
            "labels_removed": 1,
            "docs_in": 4,
            "docs_out": 4,
            "docs_dropped": 0,
        }

    def test_report_serializes_to_plain_json(self, world):
        corpus, pseudo, _ = world
        _, report, _ = denoise(corpus, pseudo, unseen=["R1"])
        blob = report.to_json()
        assert set(blob) == {"pruned", "added", "removed", "dropped_docs", "counts"}
        assert blob["removed"]["d1"] == [
            {"head": "Cray", "tail": "Epson", "relation": "R1"}]
        assert blob["added"]["d4"] == [
            {"head_key": "ada", "tail_key": "boeing", "relation": "R1"}]
