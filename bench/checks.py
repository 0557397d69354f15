"""Output checks, computed apart from the program.

Artifacts are read through docrte's own loaders; everything they are
compared against is recomputed here from first principles: document
frequencies, thresholds (exactly, in rational arithmetic), the kept fact
set, the projected labels, index-based scores and the report aggregates.
Each check raises :class:`CheckError` on the first disagreement.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from docrte.docio import load_corpus, load_json
from docrte.pseudo import PseudoLabelSet
from docrte.split import load_split_spec

DENOISE_REASON = "cross-document consistency"
TOLERANCE = 1e-9


class CheckError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def norm(name: str) -> str:
    return " ".join(name.split()).casefold()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def digests(root: Path, exclude: tuple[str, ...] = (), include: list[str] | None = None) -> dict[str, str]:
    """sha256 by relative path of the files ``include`` names, or else of
    every file under ``root`` minus ``exclude`` (file or top-level directory
    names)."""
    if include is not None:
        return {rel: _sha256(root / rel) for rel in include}
    return {
        rel: _sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
        and (rel := path.relative_to(root).as_posix()) not in exclude
        and rel.split("/")[0] not in exclude
    }


def expect_same(before: dict[str, str], after: dict[str, str], what: str) -> None:
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    expect(not changed, f"{what}: {len(changed)} file(s) differ, e.g. {changed[:3]}")


# ---------------------------------------------------------------------------
# denoising


def _first_index(doc) -> dict[str, int]:
    """Entity key -> index of the first entity with that key."""
    index: dict[str, int] = {}
    for i, entity in enumerate(doc.entities):
        index.setdefault(norm(entity.canonical_name), i)
    return index


def _doc_facts(doc) -> set[tuple[str, str, str]]:
    facts = set()
    for label in doc.labels:
        head, tail = doc.entities[label.head].key, doc.entities[label.tail].key
        if head != tail:
            facts.add((head, tail, label.relation))
    return facts


def _kept(scores: dict[tuple, int]) -> tuple[set[tuple], dict[str, tuple[Fraction, Fraction] | None]]:
    """Facts kept by the mean - sample std rule, decided exactly.

    Per relation, ``score >= mean - sqrt(var)`` is tested as
    ``mean - score <= 0 or (mean - score)**2 <= var`` with rational mean and
    variance, so facts exactly on the threshold are kept without rounding.
    """
    by_relation: dict[str, list[int]] = {}
    for fact, score in scores.items():
        by_relation.setdefault(fact[2], []).append(score)
    stats: dict[str, tuple[Fraction, Fraction] | None] = {}
    for relation, values in by_relation.items():
        if len(values) < 2:
            stats[relation] = None
            continue
        mean = Fraction(sum(values), len(values))
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        stats[relation] = (mean, var)
    kept = set()
    for fact, score in scores.items():
        st = stats[fact[2]]
        if st is None or st[0] - score <= 0 or (st[0] - score) ** 2 <= st[1]:
            kept.add(fact)
    return kept, stats


def check_denoise(run_dir: Path, registry, seeds: list[int]) -> None:
    for seed in seeds:
        spec = load_split_spec(run_dir / f"split/spec_{seed}.json")
        unseen = set(spec.unseen)
        synthetic = load_corpus(run_dir / f"generate/synthetic_{seed}.json", registry)
        pseudo = PseudoLabelSet.from_json(load_json(run_dir / f"pseudo/pseudo_{seed}.json"))
        rows = load_json(run_dir / f"denoise/kg_{seed}.json")
        denoised = load_corpus(run_dir / f"denoise/denoised_{seed}.json", registry)
        where = f"seed {seed}"

        f_s: Counter = Counter()
        for doc in synthetic.documents:
            f_s.update(_doc_facts(doc))
        f_p: Counter = Counter()
        for triplets in pseudo.by_doc.values():
            f_p.update({(h, t, r) for h, t, r in triplets if h != t})
        scores = {fact: f_s[fact] + f_p[fact] for fact in f_s.keys() | f_p.keys()}
        kept, stats = _kept(scores)

        dumped = [(row["head_key"], row["tail_key"], row["relation"]) for row in rows]
        expect(dumped == sorted(scores, key=lambda f: (f[2], f[0], f[1])),
               f"{where}: fact-graph dump does not list exactly the fused facts in order")
        for row, fact in zip(rows, dumped):
            expect((row["f_s"], row["f_p"], row["score"]) == (f_s[fact], f_p[fact], scores[fact]),
                   f"{where}: document frequencies of {fact} are "
                   f"{(row['f_s'], row['f_p'], row['score'])}, expected "
                   f"{(f_s[fact], f_p[fact], scores[fact])}")
            st = stats[fact[2]]
            if st is None:
                expect(row["eta"] is None, f"{where}: single-fact relation {fact[2]} has a threshold")
            else:
                eta = float(st[0]) - math.sqrt(float(st[1]))
                expect(row["eta"] is not None and abs(row["eta"] - eta) <= TOLERANCE * max(1.0, abs(eta)),
                       f"{where}: threshold of {fact[2]} is {row['eta']}, expected {eta}")
            expect(row["kept"] == (fact in kept),
                   f"{where}: {fact} kept={row['kept']}, expected {fact in kept}")

        kept_by_head: dict[str, list[tuple]] = {}
        for fact in kept:
            kept_by_head.setdefault(fact[0], []).append(fact)
        expected_docs = []
        for doc in synthetic.documents:
            index = _first_index(doc)
            candidates = [f for key in index for f in kept_by_head.get(key, ()) if f[1] in index]
            labels, present = [], set()
            for label in doc.labels:
                head, tail = doc.entities[label.head].key, doc.entities[label.tail].key
                fact = (head, tail, label.relation)
                if head != tail and fact in kept:
                    labels.append((label.head, label.tail, label.relation,
                                   tuple(label.evidence), label.reason))
                    present.add(fact)
            for fact in sorted(candidates, key=lambda f: (f[2], f[0], f[1])):
                h, t = index[fact[0]], index[fact[1]]
                if fact in present or h == t:
                    continue
                shared = {m.sent_id for m in doc.entities[h].mentions} & \
                    {m.sent_id for m in doc.entities[t].mentions}
                labels.append((h, t, fact[2], tuple(sorted(shared)), DENOISE_REASON))
            if any(label[2] in unseen for label in labels):
                expected_docs.append((doc, labels))

        expect([d.doc_id for d in denoised.documents] == [d.doc_id for d, _ in expected_docs],
               f"{where}: denoised corpus keeps {len(denoised.documents)} documents, "
               f"expected {len(expected_docs)}")
        for got, (doc, labels) in zip(denoised.documents, expected_docs):
            expect(got.sentences == doc.sentences
                   and [e.canonical_name for e in got.entities] == [e.canonical_name for e in doc.entities],
                   f"{where}: {doc.doc_id} text or entities changed by denoising")
            actual = [(lb.head, lb.tail, lb.relation, tuple(lb.evidence), lb.reason) for lb in got.labels]
            expect(sorted(actual, key=repr) == sorted(labels, key=repr),
                   f"{where}: {doc.doc_id} has labels {actual}, expected {labels}")


# ---------------------------------------------------------------------------
# evaluation


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def check_evaluation(run_dir: Path, registry, seeds: list[int]) -> None:
    report = load_json(run_dir / "report.json")
    expect(report["seeds"] == sorted(seeds), f"report lists seeds {report['seeds']}")
    f1s: dict[tuple[str, str], list[float]] = {}
    for seed in seeds:
        spec = load_split_spec(run_dir / f"split/spec_{seed}.json")
        unseen = set(spec.unseen)
        for split_name in ("dev", "test"):
            where = f"seed {seed} {split_name}"
            gold = load_corpus(run_dir / f"split/{split_name}_{seed}.json", registry)
            predictions = load_json(run_dir / f"eval/predictions_{split_name}_{seed}.json")
            scores = load_json(run_dir / f"eval/{split_name}_{seed}.json")
            docs = {doc.doc_id: doc for doc in gold.documents}
            expect(set(predictions) <= set(docs), f"{where}: predictions for unknown documents")
            n_gold = sum(1 for doc in gold.documents for lb in doc.labels if lb.relation in unseen)
            tp = fp = fn = 0
            for doc in gold.documents:
                index = _first_index(doc)
                matched: set[int] = set()
                for row in predictions.get(doc.doc_id, []):
                    if row["relation"] not in unseen:
                        continue
                    h, t = index.get(norm(row["head"])), index.get(norm(row["tail"]))
                    if h is None or t is None or h == t:
                        continue
                    hit = next((i for i, lb in enumerate(doc.labels) if i not in matched
                                and (lb.head, lb.tail, lb.relation) == (h, t, row["relation"])), None)
                    if hit is None:
                        fp += 1
                    else:
                        matched.add(hit)
                        tp += 1
                fn += len(doc.labels) - len(matched)
            re = scores["re"]
            expect((re["tp"], re["fp"], re["fn"]) == (tp, fp, fn),
                   f"{where}: index-based counts {(re['tp'], re['fp'], re['fn'])}, "
                   f"expected {(tp, fp, fn)}")
            for name, value in zip(("precision", "recall", "f1"), _prf(tp, fp, fn)):
                expect(_close(re[name], value), f"{where}: index-based {name} {re[name]}, expected {value}")
            for kind in ("rte", "re"):
                expect(scores[kind]["tp"] + scores[kind]["fn"] == n_gold,
                       f"{where}: {kind} tp + fn = {scores[kind]['tp'] + scores[kind]['fn']}, "
                       f"but there are {n_gold} unseen-relation gold labels")
                expect(report["per_seed"][str(seed)][split_name][kind]["f1"] == scores[kind]["f1"],
                       f"{where}: report and score file disagree on {kind} F1")
                f1s.setdefault((split_name, kind), []).append(100.0 * scores[kind]["f1"])
    for (split_name, kind), values in f1s.items():
        agg = report["aggregate"][split_name][kind]
        mean = sum(values) / len(values)
        std = (math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
               if len(values) > 1 else 0.0)
        expect(agg["n"] == len(values) and _close(agg["mean"], mean) and _close(agg["std"], std),
               f"aggregate {split_name} {kind} is {agg['mean']} ± {agg['std']} (n={agg['n']}), "
               f"expected {mean} ± {std} (n={len(values)})")


# ---------------------------------------------------------------------------
# denoiser quality against the mock world's truth (per-layer metrics)


def denoise_quality(run_dir: Path, seeds: list[int], truth_facts) -> dict[str, int]:
    """Counts behind removed_precision and added_precision.

    ``truth_facts(seed)`` maps doc_id to the set of true (head, tail, relation)
    facts of the uncorrupted document.
    """
    out = {"removed": 0, "removed_spurious": 0, "added": 0, "added_true": 0}
    for seed in seeds:
        truth = truth_facts(seed)
        report = load_json(run_dir / f"denoise/report_{seed}.json")
        for doc_id, rows in report["removed"].items():
            for row in rows:
                out["removed"] += 1
                out["removed_spurious"] += (norm(row["head"]), norm(row["tail"]),
                                            row["relation"]) not in truth.get(doc_id, ())
        for doc_id, rows in report["added"].items():
            for row in rows:
                out["added"] += 1
                out["added_true"] += (row["head_key"], row["tail_key"],
                                      row["relation"]) in truth.get(doc_id, ())
    return out
