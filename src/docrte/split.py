"""Zero-shot relation splits: sample unseen relations, partition corpora.

A split hides ``m`` relation types from training entirely.  Training keeps
only documents whose labels all use seen relations (by default mixed-label
documents are dropped, not stripped), and evaluation keeps documents with at
least one unseen-relation label, with gold restricted to unseen relations.
:func:`view_document` is one document's form in a view; :func:`apply_split` and
the pipeline's split stage (over each source as it is read) map it over documents.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from .docio import load_json, write_json_atomic
from .model import Corpus, Document, RelationRegistry

logger = logging.getLogger(__name__)

MIXED_POLICIES = ("drop", "strip")


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    m: int
    unseen: frozenset[str]
    seen: frozenset[str]

    def __post_init__(self) -> None:
        if self.unseen & self.seen:
            raise SplitError("unseen and seen relation sets overlap")
        if len(self.unseen) != self.m:
            raise SplitError(f"m={self.m} but {len(self.unseen)} unseen relations")

    def to_manifest(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "m": self.m,
            "unseen": sorted(self.unseen),
            "seen": sorted(self.seen),
        }

    @classmethod
    def from_manifest(cls, data: dict[str, Any]) -> "SplitSpec":
        return cls(
            seed=int(data["seed"]),
            m=int(data["m"]),
            unseen=frozenset(data["unseen"]),
            seen=frozenset(data["seen"]),
        )


def save_split_spec(spec: SplitSpec, path: Path | str) -> str:
    """Write ``spec``; return the digest of the file."""
    return write_json_atomic(path, spec.to_manifest())


def load_split_spec(path: Path | str) -> SplitSpec:
    return SplitSpec.from_manifest(load_json(path))


def sample_unseen(registry: RelationRegistry, m: int, seed: int) -> SplitSpec:
    """Uniformly sample ``m`` unseen relations without replacement."""
    ids = registry.ids()
    if not 0 < m < len(ids):
        raise SplitError(f"m must be in (0, {len(ids)}), got {m}")
    rng = random.Random(seed)
    unseen = rng.sample(ids, m)
    return SplitSpec(seed=seed, m=m, unseen=frozenset(unseen),
                     seen=frozenset(ids) - frozenset(unseen))


def make_replicates(registry: RelationRegistry, m: int, seeds: Sequence[int]) -> list[SplitSpec]:
    """One split per seed; seeds must be distinct so replicates are too."""
    if len(set(seeds)) != len(seeds):
        raise SplitError(f"replicate seeds must be distinct, got {list(seeds)}")
    return [sample_unseen(registry, m, seed) for seed in seeds]


def warn_if_empty(spec: SplitSpec, **views: Corpus) -> None:
    """Log a warning for each of the evaluation ``views`` of ``spec`` that holds no document."""
    for name, view in views.items():
        if not view.documents:
            logger.warning("split seed=%d m=%d: %s is empty", spec.seed, spec.m, name)


@dataclass
class SplitBundle:
    spec: SplitSpec
    train: Corpus
    eval_dev: Corpus
    eval_test: Corpus

    def __post_init__(self) -> None:
        warn_if_empty(self.spec, eval_dev=self.eval_dev, eval_test=self.eval_test)


def view_document(doc: Document, spec: SplitSpec, mixed_policy: str | None) -> Document | None:
    """``doc`` as a view of ``spec`` holds it, or None when the view leaves it
    out: its training form under ``mixed_policy`` (see :func:`apply_split`),
    or with None its evaluation form, kept when it has an unseen label."""
    relations = {lb.relation for lb in doc.labels}
    if mixed_policy is not None and relations <= spec.seen:
        return doc
    # "drop" excludes a mixed document, which would leak unseen facts; a
    # stripped one with no seen label left contributes nothing to training
    keep = spec.unseen if mixed_policy is None else spec.seen
    if mixed_policy == "drop" or relations.isdisjoint(keep):
        return None
    return replace(doc, labels=[lb for lb in doc.labels if lb.relation in keep])


def _view(corpus: Corpus, spec: SplitSpec, mixed_policy: str | None) -> Corpus:
    views = (view_document(doc, spec, mixed_policy) for doc in corpus.documents)
    return Corpus([doc for doc in views if doc is not None], corpus.provenance, corpus.registry)


def apply_split(
    train_src: Corpus,
    dev_src: Corpus,
    test_src: Corpus,
    spec: SplitSpec,
    mixed_policy: str = "drop",
) -> SplitBundle:
    """Partition source corpora according to a split spec, by :func:`view_document`.

    ``mixed_policy`` controls training documents that mix seen and unseen
    labels: ``"drop"`` excludes them (the default, avoids any unseen leakage
    through shared documents), ``"strip"`` keeps them with unseen labels
    removed.
    """
    if mixed_policy not in MIXED_POLICIES:
        raise SplitError(f"mixed_policy must be one of {MIXED_POLICIES}, got {mixed_policy!r}")
    return SplitBundle(spec, _view(train_src, spec, mixed_policy), _view(dev_src, spec, None),
                       _view(test_src, spec, None))
