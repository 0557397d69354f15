"""Cross-document consistency denoising.

Two fact graphs are built by counting document frequency of each distinct
fact: one from the synthetic documents' own labels, one from pseudo labels
predicted by a model trained on seen relations.  Their counts are fused by
addition into a consistency score per fact.  Each relation gets a dynamic
threshold (mean minus sample standard deviation of its facts' scores);
facts strictly below the threshold are pruned.  Surviving facts are then
projected back onto the documents: labels for pruned facts are removed, and
a surviving fact is added to every document that mentions both its entities.
"""
from __future__ import annotations

import logging
import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Set

from .model import Corpus, Document, FactKey, TripletLabel, fact_keys

logger = logging.getLogger(__name__)

# Threshold sentinel for relations with a single scored fact: a sample
# standard deviation needs at least two points, and a lone fact has no peers
# to disagree with it, so it is exempt from pruning.
NO_THRESHOLD = float("-inf")

DENOISE_REASON = "cross-document consistency"


@dataclass
class FactGraph:
    """Document-frequency counts per distinct fact, from one label source."""

    counts: dict[FactKey, int]
    source: str

    def __len__(self) -> int:
        return len(self.counts)


def build_graph(facts_by_doc: Mapping[str, Set[FactKey]], source: str) -> FactGraph:
    """Count in how many documents each distinct fact appears.

    Per-document fact sets are already deduplicated, so a fact contributes at
    most 1 per document.  Pure counting: order of documents cannot matter.
    """
    counts: dict[FactKey, int] = {}
    for facts in facts_by_doc.values():
        for fact in facts:
            counts[fact] = counts.get(fact, 0) + 1
    return FactGraph(counts=counts, source=source)


@dataclass
class FusedGraph:
    """Additively fused consistency scores over the union of both graphs."""

    scores: dict[FactKey, int]


def fuse(kg_s: FactGraph, kg_p: FactGraph) -> FusedGraph:
    scores: dict[FactKey, int] = {}
    for graph in (kg_s, kg_p):
        for fact, count in graph.counts.items():
            scores[fact] = scores.get(fact, 0) + count
    return FusedGraph(scores=scores)


@dataclass
class ThresholdTable:
    eta: dict[str, float]
    fact_counts: dict[str, int]

    def for_relation(self, relation: str) -> float:
        return self.eta.get(relation, NO_THRESHOLD)


def compute_thresholds(fused: FusedGraph) -> ThresholdTable:
    """Per-relation threshold: mean minus sample standard deviation.

    The standard deviation uses the N-1 denominator.  Relations with exactly
    one scored fact get the ``NO_THRESHOLD`` sentinel (exempt from pruning).
    """
    by_relation: dict[str, list[int]] = {}
    for fact, score in fused.scores.items():
        by_relation.setdefault(fact.relation, []).append(score)
    eta: dict[str, float] = {}
    counts: dict[str, int] = {}
    for relation, scores in by_relation.items():
        counts[relation] = len(scores)
        if len(scores) < 2:
            eta[relation] = NO_THRESHOLD
        else:
            eta[relation] = statistics.mean(scores) - statistics.stdev(scores)
    return ThresholdTable(eta=eta, fact_counts=counts)


def prune(fused: FusedGraph, thresholds: ThresholdTable) -> set[FactKey]:
    """Keep facts whose score is >= their relation's threshold.

    Removal is strict-less: a fact sitting exactly on the threshold stays.
    """
    return {
        fact
        for fact, score in fused.scores.items()
        if score >= thresholds.for_relation(fact.relation)
    }


def graph_dump_rows(
    kg_s: FactGraph,
    kg_p: FactGraph,
    fused: FusedGraph,
    thresholds: ThresholdTable,
    kept: Set[FactKey],
) -> list[dict[str, Any]]:
    """Audit rows for every fused fact, sorted for stable serialization.

    The single-fact sentinel threshold serializes as null (JSON has no
    -Infinity).
    """
    rows = []
    for fact in sorted(fused.scores, key=FactKey.sort_key):
        eta = thresholds.for_relation(fact.relation)
        rows.append(
            {
                "head_key": fact.head_key,
                "tail_key": fact.tail_key,
                "relation": fact.relation,
                "f_s": kg_s.counts.get(fact, 0),
                "f_p": kg_p.counts.get(fact, 0),
                "score": fused.scores[fact],
                "eta": None if eta == NO_THRESHOLD else eta,
                "kept": fact in kept,
            }
        )
    return rows


@dataclass
class DenoiseReport:
    """Everything the relabeling pass changed, plus graph-level statistics."""

    pruned: list[dict[str, Any]] = field(default_factory=list)
    added: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    removed: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    dropped_docs: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "dropped_docs": sorted(self.dropped_docs)}


def _fact_json(fact: FactKey) -> dict[str, str]:
    return {"head_key": fact.head_key, "tail_key": fact.tail_key,
            "relation": fact.relation}


def _label_fact(doc: Document, label: TripletLabel) -> FactKey | None:
    head, tail = doc.entities[label.head], doc.entities[label.tail]
    if head.key == tail.key:
        return None
    return FactKey(head.key, tail.key, label.relation)


def relabel_corpus(
    synthetic: Corpus,
    kept: Set[FactKey],
    unseen: Iterable[str],
    fused: FusedGraph | None = None,
    thresholds: ThresholdTable | None = None,
) -> tuple[Corpus, DenoiseReport]:
    """Project the denoised fact set back onto the synthetic documents.

    Per document: labels whose fact was pruned are removed; every kept fact
    whose head and tail entity keys are both present gains a label (if not
    already there) with evidence = sentences mentioning both entities and a
    fixed consistency reason.  Documents left without a single unseen-relation
    label are dropped.  When ``fused``/``thresholds`` are given, the report
    also itemizes the pruned facts with their scores.
    """
    unseen_set = set(unseen)
    report = DenoiseReport()
    if fused is not None:
        for fact in sorted(set(fused.scores) - set(kept), key=FactKey.sort_key):
            row = _fact_json(fact)
            row["score"] = fused.scores[fact]
            if thresholds is not None:
                eta = thresholds.for_relation(fact.relation)
                row["eta"] = None if eta == NO_THRESHOLD else eta
            report.pruned.append(row)

    kept_by_head: dict[str, list[FactKey]] = {}
    for fact in kept:
        kept_by_head.setdefault(fact.head_key, []).append(fact)
    new_docs: list[Document] = []
    for doc in synthetic.documents:
        key_to_index = doc.key_to_index()
        surviving: list[TripletLabel] = []
        present: set[FactKey] = set()
        for label in doc.labels:
            fact = _label_fact(doc, label)
            if fact is not None and fact in kept:
                surviving.append(label)
                present.add(fact)
            else:
                report.removed.setdefault(doc.doc_id, []).append(
                    {
                        "head": doc.entities[label.head].canonical_name,
                        "tail": doc.entities[label.tail].canonical_name,
                        "relation": label.relation,
                    }
                )
        candidates = [fact for key in key_to_index for fact in kept_by_head.get(key, ())
                      if fact.tail_key in key_to_index and fact not in present]
        added: list[TripletLabel] = []
        for fact in sorted(candidates, key=FactKey.sort_key):
            h, t = key_to_index[fact.head_key], key_to_index[fact.tail_key]
            evidence = sorted(
                doc.entities[h].sentence_ids() & doc.entities[t].sentence_ids()
            )
            added.append(
                TripletLabel(head=h, tail=t, relation=fact.relation,
                             evidence=evidence, reason=DENOISE_REASON)
            )
            report.added.setdefault(doc.doc_id, []).append(_fact_json(fact))
        labels = surviving + added
        if not any(lb.relation in unseen_set for lb in labels):
            report.dropped_docs.append(doc.doc_id)
            continue
        new_docs.append(
            Document(doc_id=doc.doc_id, title=doc.title, sentences=doc.sentences,
                     entities=doc.entities, labels=labels)
        )
    denoised = Corpus(documents=new_docs, provenance="denoised",
                      registry=synthetic.registry)
    report.counts = {
        "facts_kept": len(kept),
        "facts_pruned": len(report.pruned),
        "labels_added": sum(len(v) for v in report.added.values()),
        "labels_removed": sum(len(v) for v in report.removed.values()),
        "docs_in": len(synthetic.documents),
        "docs_out": len(new_docs),
        "docs_dropped": len(report.dropped_docs),
    }
    return denoised, report


def denoise(
    synthetic: Corpus,
    pseudo_fact_sets: Mapping[str, Set[FactKey]],
    unseen: Iterable[str],
) -> tuple[Corpus, DenoiseReport, list[dict[str, Any]]]:
    """Full pass: build both graphs, fuse, threshold, prune, relabel.

    Returns the denoised corpus, the change report, and the audit dump rows.
    """
    synthetic_facts = {doc.doc_id: fact_keys(doc) for doc in synthetic.documents}
    kg_s = build_graph(synthetic_facts, source="synthetic")
    kg_p = build_graph(pseudo_fact_sets, source="pseudo")
    fused = fuse(kg_s, kg_p)
    thresholds = compute_thresholds(fused)
    kept = prune(fused, thresholds)
    denoised, report = relabel_corpus(synthetic, kept, unseen, fused, thresholds)
    rows = graph_dump_rows(kg_s, kg_p, fused, thresholds, kept)
    return denoised, report, rows
