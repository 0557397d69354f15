"""Micro-averaged evaluation for zero-shot relation triplet extraction.

Two task variants share the counting logic: RTE scores (head text, tail
text, relation) predictions by normalized-name matching against gold entity
clusters; RE scores (head index, tail index, relation) predictions exactly.
Matching is greedy one-to-one in prediction order, so a gold label can
absorb at most one prediction.  :func:`build_report` and
:func:`render_report_text` assemble a run's scores over seeds.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .docio import load_json, write_json_atomic
from .model import Corpus, Document, EntityKeyError, TripletLabel, normalize_entity_key

if TYPE_CHECKING:
    from .config import PipelineConfig


class EvaluationError(ValueError):
    pass


@dataclass
class RelationScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalResult:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    per_relation: dict[str, RelationScore] = field(default_factory=dict)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision/recall/F1 with the 0/0 -> 0 convention at every level."""
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _gold_name_keys(doc: Document, entity_index: int, cache: dict[int, set[str]]) -> set[str]:
    """Normalized names a prediction may use for this entity: canonical +
    mentions, computed on first use and kept in ``cache``."""
    keys = cache.get(entity_index)
    if keys is None:
        ent = doc.entities[entity_index]
        keys = {ent.key}
        for m in ent.mentions:
            try:
                keys.add(normalize_entity_key(m.name))
            except EntityKeyError:
                pass
        cache[entity_index] = keys
    return keys


def match_triplet(
    pred: tuple[str, str, str],
    doc: Document,
    exclude: set[int] | None = None,
    name_keys: dict[int, set[str]] | None = None,
) -> int | None:
    """Index of the first gold label matching an RTE prediction, else None.

    A prediction (head text, tail text, relation id) matches a gold label
    when the relation id is equal and each predicted name normalizes to the
    gold entity's canonical name or any of its mention names.  ``name_keys``
    caches those names per entity index across calls on the same document.
    """
    head_text, tail_text, relation = pred
    try:
        head_key = normalize_entity_key(head_text)
        tail_key = normalize_entity_key(tail_text)
    except EntityKeyError:
        return None
    exclude = exclude or set()
    cache = {} if name_keys is None else name_keys
    for i, label in enumerate(doc.labels):
        if i in exclude or label.relation != relation:
            continue
        if head_key in _gold_name_keys(doc, label.head, cache) and \
                tail_key in _gold_name_keys(doc, label.tail, cache):
            return i
    return None


class _Counter:
    def __init__(self) -> None:
        self.tp: dict[str, int] = {}
        self.fp: dict[str, int] = {}
        self.fn: dict[str, int] = {}

    def bump(self, bucket: dict[str, int], relation: str) -> None:
        bucket[relation] = bucket.get(relation, 0) + 1

    def result(self) -> EvalResult:
        relations = sorted(set(self.tp) | set(self.fp) | set(self.fn))
        per_relation = {}
        for rel in relations:
            tp, fp, fn = self.tp.get(rel, 0), self.fp.get(rel, 0), self.fn.get(rel, 0)
            p, r, f1 = _prf(tp, fp, fn)
            per_relation[rel] = RelationScore(p, r, f1, support=tp + fn)
        tp, fp, fn = sum(self.tp.values()), sum(self.fp.values()), sum(self.fn.values())
        p, r, f1 = _prf(tp, fp, fn)
        return EvalResult(p, r, f1, tp, fp, fn, per_relation)


def _evaluate(
    predictions: Mapping[str, Sequence[tuple]],
    gold: Corpus,
    unseen: set[str],
    strict_seen: bool,
    matcher,
) -> EvalResult:
    docs = gold.by_id()
    stray = sorted(set(predictions) - set(docs))
    if stray:
        raise EvaluationError(
            f"predictions reference unknown document id(s): {stray[:5]}"
        )
    counter = _Counter()
    for doc_id, doc in docs.items():
        matched: set[int] = set()
        for pred in predictions.get(doc_id, ()):  # prediction order is match order
            relation = pred[2]
            if relation not in unseen:
                if strict_seen:
                    counter.bump(counter.fp, relation)
                continue
            hit = matcher(pred, doc, matched)
            if hit is None:
                counter.bump(counter.fp, relation)
            else:
                matched.add(hit)
                counter.bump(counter.tp, relation)
        for i, label in enumerate(doc.labels):
            if i not in matched:
                counter.bump(counter.fn, label.relation)
    return counter.result()


def evaluate_rte(
    predictions: Mapping[str, Sequence[tuple[str, str, str]]],
    gold: Corpus,
    unseen: Sequence[str] | set[str],
    strict_seen: bool = False,
) -> EvalResult:
    """Score name-based triplet predictions against a gold corpus.

    ``gold`` is expected to carry only unseen-relation labels (the split
    bundle guarantees this for its eval corpora).  Predictions for seen
    relations are ignored by default; with ``strict_seen`` they count as
    false positives.
    """
    names: defaultdict[str, dict[int, set[str]]] = defaultdict(dict)  # doc id -> entity -> keys
    return _evaluate(predictions, gold, set(unseen), strict_seen,
                     lambda pred, doc, exclude: match_triplet(pred, doc, exclude, names[doc.doc_id]))


def _match_re(pred: tuple[int, int, str], doc: Document, exclude: set[int]) -> int | None:
    head, tail, relation = pred
    n = len(doc.entities)
    if not 0 <= head < n or not 0 <= tail < n:
        raise EvaluationError(
            f"{doc.doc_id}: prediction indexes entity {max(head, tail)} "
            f"but the document has {n} entities"
        )
    for i, label in enumerate(doc.labels):
        if i in exclude:
            continue
        if label.head == head and label.tail == tail and label.relation == relation:
            return i
    return None


def evaluate_re(
    predictions: Mapping[str, Sequence[tuple[int, int, str]]],
    gold: Corpus,
    unseen: Sequence[str] | set[str],
    strict_seen: bool = False,
) -> EvalResult:
    """Score index-based (head, tail, relation) predictions exactly."""
    return _evaluate(predictions, gold, set(unseen), strict_seen, _match_re)


@dataclass
class AggregateResult:
    mean: float
    std: float
    n: int

    def render(self) -> str:
        return f"{self.mean:.1f} ± {self.std:.1f}"


def aggregate_scores(scores: Sequence[float]) -> AggregateResult:
    """Mean and sample standard deviation (N-1) of replicate scores."""
    if not scores:
        raise EvaluationError("cannot aggregate zero replicate scores")
    mean = statistics.mean(scores)
    std = statistics.stdev(scores) if len(scores) > 1 else 0.0
    return AggregateResult(mean=mean, std=std, n=len(scores))


# ---------------------------------------------------------------------------
# predictions file format: {doc_id: [{"head": ..., "tail": ..., "relation": ...}]}


def load_predictions(path: Path | str,
                     digest: str | None = None) -> dict[str, list[tuple[str, str, str]]]:
    data = load_json(path, digest)
    if not isinstance(data, dict):
        raise EvaluationError(f"{path}: predictions file must be a JSON object")
    out: dict[str, list[tuple[str, str, str]]] = {}
    for doc_id, rows in data.items():
        if not isinstance(rows, list):
            raise EvaluationError(f"{path}: bad prediction row for {doc_id!r}: {rows!r}")
        preds = []
        for row in rows:
            try:
                preds.append((row["head"], row["tail"], row["relation"]))
            except (KeyError, TypeError) as exc:
                raise EvaluationError(
                    f"{path}: bad prediction row for {doc_id!r}: {row!r}"
                ) from exc
        out[doc_id] = preds
    return out


def save_predictions(
    predictions: Mapping[str, Sequence[tuple[str, str, str]]], path: Path | str
) -> str:
    """Write name-based predictions compact; return the digest of the file."""
    return write_json_atomic(
        path,
        {
            doc_id: [{"head": h, "tail": t, "relation": r} for h, t, r in rows]
            for doc_id, rows in sorted(predictions.items())
        },
        compact=True,
    )


def index_predictions(
    name_preds: Mapping[str, Sequence[tuple[str, str, str]]],
    corpus: Corpus,
) -> dict[str, list[tuple[int, int, str]]]:
    """Project name-based predictions into each document's entity index space.

    A prediction whose head or tail does not name a listed entity (after
    normalization) cannot be expressed as an index pair and is omitted from
    the index-based view; the name-based scoring still sees it.
    """
    out: dict[str, list[tuple[int, int, str]]] = {}
    for doc in corpus.documents:
        key_to_index = doc.key_to_index()
        rows: list[tuple[int, int, str]] = []
        for head, tail, relation in name_preds.get(doc.doc_id, []):
            try:
                hi = key_to_index.get(normalize_entity_key(head))
                ti = key_to_index.get(normalize_entity_key(tail))
            except EntityKeyError:
                continue
            if hi is None or ti is None or hi == ti:
                continue
            rows.append((hi, ti, relation))
        out[doc.doc_id] = rows
    return out


def build_report(
    config: PipelineConfig,
    per_seed: Mapping[int, Mapping[str, Mapping[str, EvalResult]]],
) -> dict[str, Any]:
    """Assemble the run-level report: per-seed scores plus mean ± std."""
    seeds = sorted(per_seed)
    report: dict[str, Any] = {
        "m": config.m,
        "seeds": seeds,
        "mixed_policy": config.mixed_policy,
        "strict_seen": config.strict_seen,
        "per_seed": {},
        "aggregate": {},
    }
    for seed in seeds:
        report["per_seed"][str(seed)] = {
            split_name: {kind: asdict(result) for kind, result in kinds.items()}
            for split_name, kinds in sorted(per_seed[seed].items())
        }
    for split_name in ("dev", "test"):
        report["aggregate"][split_name] = {}
        for kind in ("rte", "re"):
            scores = [per_seed[s][split_name][kind].f1 * 100.0 for s in seeds]
            agg = aggregate_scores(scores)
            report["aggregate"][split_name][kind] = {
                "mean": agg.mean, "std": agg.std, "n": agg.n, "text": agg.render(),
            }
    return report


def render_report_text(report: Mapping[str, Any]) -> str:
    """Human-readable summary; content is a pure function of the report."""
    seeds = ",".join(str(s) for s in report["seeds"])
    lines = [
        "zero-shot document-level relation extraction",
        f"unseen relations per split: m={report['m']}   "
        f"seeds: {seeds}   mixed policy: {report['mixed_policy']}",
        "",
        "aggregate micro-F1 (mean ± sample std over seeds, x100):",
    ]
    for split_name in ("dev", "test"):
        agg = report["aggregate"][split_name]
        lines.append(
            f"  {split_name:<4}  triplets (names): {agg['rte']['text']:<14} "
            f"relations (indices): {agg['re']['text']}"
        )
    lines.append("")
    lines.append("per seed:")
    for seed in report["seeds"]:
        row = report["per_seed"][str(seed)]
        cells = []
        for split_name in ("dev", "test"):
            rte = row[split_name]["rte"]
            re_ = row[split_name]["re"]
            cells.append(
                f"{split_name} rte={100 * rte['f1']:.1f} re={100 * re_['f1']:.1f}"
            )
        lines.append(f"  seed {seed}: " + "  |  ".join(cells))
    return "\n".join(lines) + "\n"
