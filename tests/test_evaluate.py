"""Scoring: name-based triplet matching, index matching, aggregation."""
from __future__ import annotations

import json
import random

import pytest

from docrte.evaluate import (
    EvaluationError,
    aggregate_scores,
    evaluate_re,
    evaluate_rte,
    load_predictions,
    match_triplet,
    save_predictions,
)
from docrte.model import Document, Entity, EntityMention, normalize_entity_key

from conftest import build_corpus, build_doc, make_registry


def registry():
    return make_registry(("R1", "employer"), ("R2", "founded by"), ("R9", "spouse"))


def oracle_counts(predictions, corpus, unseen, strict_seen):
    """Independent greedy scorer: explicit loops, no shared helpers."""
    tp = fp = fn = 0
    for doc in corpus.documents:
        names = []
        for label in doc.labels:
            def keyset(idx):
                ent = doc.entities[idx]
                out = {ent.key}
                for m in ent.mentions:
                    out.add(normalize_entity_key(m.name))
                return out
            names.append((keyset(label.head), keyset(label.tail), label.relation))
        taken = set()
        for head_text, tail_text, relation in predictions.get(doc.doc_id, []):
            if relation not in unseen:
                if strict_seen:
                    fp += 1
                continue
            hk = normalize_entity_key(head_text)
            tk = normalize_entity_key(tail_text)
            hit = None
            for i, (heads, tails, rel) in enumerate(names):
                if i not in taken and rel == relation and hk in heads and tk in tails:
                    hit = i
                    break
            if hit is None:
                fp += 1
            else:
                taken.add(hit)
                tp += 1
        fn += len(doc.labels) - len(taken)
    return tp, fp, fn


class TestRteRandomizedAgainstOracle:
    def test_counts_match_reference_scorer(self):
        reg = registry()
        entity_pool = ["Ada Lovelace", "Acme Corp", "Grace Hopper",
                       "Initech", "Babbage House"]
        unseen = {"R1", "R2"}
        for trial in range(60):
            rng = random.Random(trial)
            docs = []
            for d in range(3):
                ents = rng.sample(entity_pool, 4)
                labels = []
                seen_pairs = set()
                for _ in range(rng.randint(1, 4)):
                    i, j = rng.sample(range(4), 2)
                    rel = rng.choice(["R1", "R2"])
                    if (i, j, rel) in seen_pairs:
                        continue
                    seen_pairs.add((i, j, rel))
                    labels.append((ents[i], ents[j], rel))
                if not labels:
                    labels = [(ents[0], ents[1], "R1")]
                docs.append(build_doc(f"doc-{d}", ents, labels))
            corpus = build_corpus(docs, registry=reg)

            predictions = {}
            for doc in corpus.documents:
                rows = []
                for _ in range(rng.randint(0, 6)):
                    if rng.random() < 0.6 and doc.labels:
                        label = rng.choice(doc.labels)
                        head = doc.entities[label.head].canonical_name
                        tail = doc.entities[label.tail].canonical_name
                        if rng.random() < 0.5:
                            head = "  " + head.upper() + " "
                        rows.append((head, tail, label.relation))
                    else:
                        rows.append((
                            rng.choice(entity_pool + ["Nobody Known"]),
                            rng.choice(entity_pool),
                            rng.choice(["R1", "R2", "R9"]),
                        ))
                predictions[doc.doc_id] = rows

            for strict in (False, True):
                result = evaluate_rte(predictions, corpus, unseen, strict_seen=strict)
                tp, fp, fn = oracle_counts(predictions, corpus, unseen, strict)
                assert (result.tp, result.fp, result.fn) == (tp, fp, fn)
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                assert result.precision == pytest.approx(p)
                assert result.recall == pytest.approx(r)
                assert result.f1 == pytest.approx(f1)


class TestRteNameKeys:
    def test_name_keys_computed_once_per_entity(self, monkeypatch):
        import docrte.evaluate as evaluate_module

        calls = []
        original = evaluate_module._gold_name_keys

        def counting(doc, entity_index, *rest):
            if entity_index not in (rest[0] if rest else {}):
                calls.append((doc.doc_id, entity_index))
            return original(doc, entity_index, *rest)

        monkeypatch.setattr(evaluate_module, "_gold_name_keys", counting)
        doc = build_doc("d1", ["Ada", "Acme", "Initech"],
                        [("Ada", "Acme", "R1"), ("Ada", "Initech", "R1"), ("Acme", "Ada", "R2")])
        quiet = build_doc("d2", ["Ada", "Acme"], [("Ada", "Acme", "R1")])
        corpus = build_corpus([doc, quiet], registry=registry())
        preds = {"d1": [("Ada", "Initech", "R1"), ("acme", "ada", "R2"), ("Ada", "Acme", "R1"),
                        ("Nobody", "Ada", "R1")]}
        result = evaluate_rte(preds, corpus, {"R1", "R2"})
        assert (result.tp, result.fp, result.fn) == (3, 1, 1)
        assert sorted(calls) == [("d1", 0), ("d1", 1), ("d1", 2)]


class TestRteHandCases:
    @pytest.fixture
    def gold(self):
        docs = [
            build_doc("d1", ["Ada", "Acme", "Grace", "Initech", "Babbage", "Cray"],
                      [("Ada", "Acme", "R1"), ("Grace", "Initech", "R1"),
                       ("Babbage", "Cray", "R2"), ("Ada", "Grace", "R2"),
                       ("Acme", "Initech", "R1")]),
        ]
        return build_corpus(docs, registry=registry())

    def test_two_of_four_against_five_gold(self, gold):
        predictions = {"d1": [
            ("Ada", "Acme", "R1"),          # tp
            ("Grace", "Initech", "R1"),     # tp
            ("Cray", "Babbage", "R2"),      # fp: direction matters
            ("Nobody", "Acme", "R1"),       # fp
        ]}
        result = evaluate_rte(predictions, gold, {"R1", "R2"})
        assert (result.tp, result.fp, result.fn) == (2, 2, 3)
        assert result.precision == pytest.approx(0.5)
        assert result.recall == pytest.approx(0.4)
        assert result.f1 == pytest.approx(4 / 9)

    def test_perfect_predictions_score_one(self, gold):
        doc = gold.documents[0]
        predictions = {"d1": [
            (doc.entities[l.head].canonical_name,
             doc.entities[l.tail].canonical_name, l.relation)
            for l in doc.labels
        ]}
        result = evaluate_rte(predictions, gold, {"R1", "R2"})
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_no_predictions_scores_zero(self, gold):
        result = evaluate_rte({}, gold, {"R1", "R2"})
        assert (result.tp, result.fp, result.fn) == (0, 0, 5)
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)

    def test_zero_over_zero_is_zero(self):
        doc = Document(doc_id="empty", title="t", sentences=[["a"]],
                       entities=[], labels=[])
        corpus = build_corpus([doc], registry=registry())
        result = evaluate_rte({"empty": []}, corpus, {"R1"})
        assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)

    def test_seen_relation_predictions_ignored_by_default(self, gold):
        predictions = {"d1": [("Ada", "Acme", "R9")]}
        relaxed = evaluate_rte(predictions, gold, {"R1", "R2"})
        assert (relaxed.tp, relaxed.fp) == (0, 0)
        strict = evaluate_rte(predictions, gold, {"R1", "R2"}, strict_seen=True)
        assert (strict.tp, strict.fp) == (0, 1)

    def test_duplicate_prediction_is_false_positive(self, gold):
        predictions = {"d1": [("Ada", "Acme", "R1"), ("ADA", "acme", "R1")]}
        result = evaluate_rte(predictions, gold, {"R1", "R2"})
        assert (result.tp, result.fp) == (1, 1)

    def test_unknown_document_id_rejected(self, gold):
        with pytest.raises(EvaluationError, match="ghost"):
            evaluate_rte({"ghost": []}, gold, {"R1"})

    def test_per_relation_breakdown(self, gold):
        predictions = {"d1": [
            ("Ada", "Acme", "R1"),
            ("Nobody", "Acme", "R1"),
            ("Babbage", "Cray", "R2"),
        ]}
        result = evaluate_rte(predictions, gold, {"R1", "R2"})
        r1 = result.per_relation["R1"]
        assert (r1.precision, r1.recall, r1.support) == (0.5, pytest.approx(1 / 3), 3)
        r2 = result.per_relation["R2"]
        assert (r2.precision, r2.support) == (1.0, 2)


class TestMentionNameMatching:
    def test_alias_mentions_are_acceptable_names(self):
        doc = Document(
            doc_id="d1",
            title="t",
            sentences=[["Ada", "Lovelace", "wrote", "."],
                       ["Ada", "was", "hired", "by", "Acme", "."]],
            entities=[
                Entity(canonical_name="Ada Lovelace", mentions=[
                    EntityMention("Ada Lovelace", 0, 0, 2, "PER"),
                    EntityMention("Ada", 1, 0, 1, "PER"),
                ]),
                Entity(canonical_name="Acme", mentions=[
                    EntityMention("Acme", 1, 4, 5, "ORG"),
                ]),
            ],
            labels=[],
        )
        from docrte.model import TripletLabel
        doc.labels.append(TripletLabel(head=0, tail=1, relation="R1"))
        assert match_triplet(("ada", "ACME", "R1"), doc) == 0       # alias mention
        assert match_triplet(("Ada  Lovelace", "Acme", "R1"), doc) == 0
        assert match_triplet(("Lovelace", "Acme", "R1"), doc) is None
        assert match_triplet(("Ada", "Acme", "R2"), doc) is None    # wrong relation
        assert match_triplet(("Ada", "Acme", "R1"), doc, exclude={0}) is None

    def test_blank_predicted_name_never_matches(self):
        doc = build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "R1")])
        assert match_triplet(("  ", "Acme", "R1"), doc) is None


class TestReEvaluation:
    @pytest.fixture
    def gold(self):
        docs = [build_doc("d1", ["Ada", "Acme", "Grace"],
                          [("Ada", "Acme", "R1"), ("Grace", "Ada", "R2")])]
        return build_corpus(docs, registry=registry())

    def test_exact_index_matching(self, gold):
        result = evaluate_re(
            {"d1": [(0, 1, "R1"), (2, 0, "R2"), (1, 2, "R1")]}, gold, {"R1", "R2"})
        assert (result.tp, result.fp, result.fn) == (2, 1, 0)

    def test_reversed_indices_do_not_match(self, gold):
        result = evaluate_re({"d1": [(1, 0, "R1")]}, gold, {"R1", "R2"})
        assert (result.tp, result.fp, result.fn) == (0, 1, 2)

    def test_out_of_range_index_is_an_error(self, gold):
        with pytest.raises(EvaluationError, match="entity 7"):
            evaluate_re({"d1": [(0, 7, "R1")]}, gold, {"R1"})


class TestAggregate:
    def test_sample_std_hand_case(self):
        agg = aggregate_scores([10.0, 13.0, 16.0])
        assert agg.mean == pytest.approx(13.0)
        assert agg.std == pytest.approx(3.0)
        assert agg.n == 3
        assert agg.render() == "13.0 ± 3.0"

    def test_single_replicate_has_zero_spread(self):
        agg = aggregate_scores([42.5])
        assert (agg.mean, agg.std, agg.n) == (42.5, 0.0, 1)
        assert agg.render() == "42.5 ± 0.0"

    def test_no_replicates_is_an_error(self):
        with pytest.raises(EvaluationError):
            aggregate_scores([])


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        predictions = {
            "d2": [("Ada", "Acme", "R1")],
            "d1": [("Grace", "Initech", "R2"), ("X", "Y", "R1")],
        }
        path = tmp_path / "preds.json"
        save_predictions(predictions, path)
        assert load_predictions(path) == predictions
        raw = json.loads(path.read_text())
        assert list(raw) == ["d1", "d2"]  # serialized in sorted order

    def test_malformed_row_reports_document(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text(json.dumps({"d1": [{"head": "a", "tail": "b"}]}))
        with pytest.raises(EvaluationError, match="d1"):
            load_predictions(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "preds.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(EvaluationError):
            load_predictions(path)
