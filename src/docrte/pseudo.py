"""Pseudo-labeling: finetune-data assembly, the triplet block grammar, and
predictor transports.

Fine-tuning itself happens outside this package.  Here we (a) turn corpora
into instruction-tuning samples whose targets use a line-oriented triplet
grammar, (b) talk to an already-trained predictor over a process or HTTP
transport, and (c) parse its output back into normalized facts.
"""
from __future__ import annotations

import hashlib
import json
import logging
import random
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .docio import write_chunks_atomic
from .generate import parse_triplet_lines
from .model import (
    Corpus,
    Document,
    EntityKeyError,
    FactKey,
    RelationRegistry,
    ValidationError,
    normalize_entity_key,
)

logger = logging.getLogger(__name__)


class TripletBlockError(ValueError):
    """Non-empty predictor output with zero parseable triplet lines."""


class PredictorError(RuntimeError):
    """Transport failure talking to a predictor backend."""


class PseudoLabelError(RuntimeError):
    """Pseudo-labeling failed overall (too many unlabeled documents)."""


# ---------------------------------------------------------------------------
# relation grouping


@dataclass(frozen=True)
class RelationGroup:
    index: int
    relations: tuple[str, ...]


def partition_relations(
    seen: Iterable[str], group_size: int, seed: int
) -> list[RelationGroup]:
    """Shuffle the seen relations and slice them into groups of ``group_size``.

    The last group may be smaller.  Groups are disjoint and cover every seen
    relation exactly once; the shuffle is deterministic per seed.
    """
    ids = sorted(seen)
    if not ids:
        raise ValueError("cannot partition an empty relation set")
    if group_size < 1:
        raise ValueError(f"group_size must be positive, got {group_size}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    return [
        RelationGroup(index=i, relations=tuple(ids[off:off + group_size]))
        for i, off in enumerate(range(0, len(ids), group_size))
    ]


# ---------------------------------------------------------------------------
# triplet block grammar


def format_triplet_block(
    triplets: Sequence[tuple[str, str, str]], registry: RelationRegistry
) -> str:
    """Render (head, tail, relation-id) triplets as '(head | tail | name)' lines.

    The empty list renders as the empty string (the abstention target).
    Names containing '|' would not round-trip and are rejected.
    """
    lines = []
    for head, tail, relation in triplets:
        if "|" in head or "|" in tail:
            raise ValidationError(
                f"entity names with '|' cannot be rendered: ({head!r}, {tail!r})"
            )
        lines.append(f"({head} | {tail} | {registry.name_of(relation)})")
    return "\n".join(lines)


def parse_triplet_block(
    text: str, registry: RelationRegistry
) -> list[tuple[str, str, str]]:
    """Inverse of :func:`format_triplet_block`.

    Relation names map back to ids case-insensitively.  Malformed lines and
    unknown relation names are skipped (logged at debug); if the text is
    non-blank and nothing parses, that is an error rather than a silent empty
    prediction.
    """
    if not text.strip():
        return []
    parsed, malformed = parse_triplet_lines(text)
    out: list[tuple[str, str, str]] = []
    skipped = list(malformed)
    for head, tail, rel_token in parsed:
        rel = registry.resolve(rel_token)
        if rel is None:
            skipped.append(f"({head} | {tail} | {rel_token})")
            continue
        out.append((head, tail, rel.id))
    if skipped:
        logger.debug("triplet block: skipped %d unusable line(s): %s",
                     len(skipped), skipped[:3])
    if not out:
        raise TripletBlockError(
            f"no parseable triplet lines in non-empty output: {text[:120]!r}"
        )
    return out


# ---------------------------------------------------------------------------
# finetune dataset assembly


@dataclass
class FinetunePolicy:
    instruction: str
    keep_empty_prob: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.keep_empty_prob <= 1.0:
            raise ValueError("keep_empty_prob must lie in [0, 1]")


@dataclass
class FinetuneSample:
    instruction: str
    document_text: str
    relation_menu: str
    target: str

    def to_json(self) -> dict[str, str]:
        return {
            "instruction": self.instruction,
            "input": f"{self.document_text}\nRelations: {self.relation_menu}",
            "output": self.target,
        }


def render_document_text(doc: Document) -> str:
    """One-line-title + body rendering shared by samples and predictors."""
    body = " ".join(" ".join(tokens) for tokens in doc.sentences)
    return f"{doc.title}\n{body}"


def assemble_finetune_dataset(
    corpus: Corpus,
    groups: Sequence[RelationGroup],
    policy: FinetunePolicy,
    registry: RelationRegistry,
) -> list[FinetuneSample]:
    """One sample per (document, relation group).

    The target lists the document's triplets whose relation falls in the
    group; documents with no such triplet become abstention samples (empty
    target), kept with probability ``keep_empty_prob`` so a model can learn
    to output nothing.
    """
    rng = random.Random(policy.seed)
    menus = [(frozenset(group.relations),
              ", ".join(registry.name_of(r) for r in group.relations)) for group in groups]
    samples: list[FinetuneSample] = []
    for doc in corpus.documents:
        text = render_document_text(doc)
        named = doc.name_triplets()
        for relations, menu in menus:
            target = format_triplet_block([t for t in named if t[2] in relations], registry)
            if not target and rng.random() >= policy.keep_empty_prob:
                continue
            samples.append(FinetuneSample(instruction=policy.instruction, document_text=text,
                                          relation_menu=menu, target=target))
    return samples


def write_finetune_file(samples: Sequence[FinetuneSample], path: Path | str) -> str:
    r"""Write instruction-tuning samples as JSONL {instruction, input, output}.

    Line ``i`` is ``json.dumps(samples[i].to_json(), ensure_ascii=False,
    sort_keys=True)`` and a newline; byte for byte::

        {"input": "<document text>\nRelations: <menu>", "instruction": "<instruction>", "output": "<target>"}

    where each ``<...>`` is its string JSON-escaped with non-ASCII kept as is,
    and ``\n`` is the two characters backslash and ``n``.  An empty list
    writes an empty file.  Escaping maps every character on its own, so each
    distinct string is escaped once and the pieces are joined: a document's
    text, shared by one sample per relation group, is escaped once.  Lines
    are streamed to the file one at a time.  Returns the digest of the file.
    """
    escaped: dict[str, str] = {}

    def esc(text: str) -> str:
        out = escaped.get(text)
        if out is None:
            out = escaped[text] = json.dumps(text, ensure_ascii=False)[1:-1]
        return out

    return write_chunks_atomic(path, (
        f'{{"input": "{esc(s.document_text)}\\nRelations: {esc(s.relation_menu)}", '
        f'"instruction": "{esc(s.instruction)}", "output": "{esc(s.target)}"}}\n'
        for s in samples
    ))


# ---------------------------------------------------------------------------
# predictor transports


class PredictorBackend:
    """Contract: predict(instruction, document_text, relation_names) -> block text.

    A predictor may also define ``close()``; :func:`predict_corpus` calls it
    once after the last document of a corpus, even when a prediction failed.
    """

    def predict(
        self, instruction: str, document_text: str, relation_names: Sequence[str]
    ) -> str:
        raise NotImplementedError


def _request_payload(instruction: str, document_text: str,
                     relation_names: Sequence[str]) -> dict[str, Any]:
    return {
        "instruction": instruction,
        "document": document_text,
        "relations": list(relation_names),
    }


class ProcessPredictor(PredictorBackend):
    """Line protocol over a child process's stdin/stdout.

    Request: one JSON line {instruction, document, relations}.
    Response: triplet block text terminated by a blank line.
    """

    def __init__(self, argv: Sequence[str]):
        self.argv = list(argv)
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            try:
                self._proc = subprocess.Popen(
                    self.argv,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as exc:
                raise PredictorError(f"cannot start predictor {self.argv}: {exc}") from exc
        return self._proc

    def predict(self, instruction, document_text, relation_names):
        payload = json.dumps(
            _request_payload(instruction, document_text, relation_names),
            ensure_ascii=False,
        )
        with self._lock:
            proc = self._ensure()
            try:
                proc.stdin.write(payload + "\n")
                proc.stdin.flush()
                lines = []
                while True:
                    line = proc.stdout.readline()
                    if line == "":
                        raise PredictorError(
                            f"predictor {self.argv} closed its stdout mid-response"
                        )
                    if line.strip() == "":
                        break
                    lines.append(line.rstrip("\n"))
            except OSError as exc:
                raise PredictorError(f"predictor {self.argv} pipe failure: {exc}") from exc
        return "\n".join(lines)

    def close(self) -> None:
        """Stop the child, reap it and close both pipes."""
        if self._proc is not None:
            self._proc.terminate()
            self._proc.communicate()


class HttpPredictor(PredictorBackend):
    """POST the request JSON; the plain-text response body is the block."""

    def __init__(self, url: str, timeout: float = 60.0, max_attempts: int = 3,
                 backoff_base: float = 0.5, session: Any = None):
        import requests

        self.url = url
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.session = session or requests.Session()

    def predict(self, instruction, document_text, relation_names):
        last = "no attempt"
        for attempt in range(self.max_attempts):
            try:
                resp = self.session.post(
                    self.url,
                    json=_request_payload(instruction, document_text, relation_names),
                    timeout=self.timeout,
                )
            except OSError as exc:
                last = f"connection error: {exc}"
            else:
                if resp.status_code == 200:
                    return resp.text
                last = f"HTTP {resp.status_code}"
                if resp.status_code < 500:
                    raise PredictorError(f"predictor at {self.url}: {last}")
            if attempt + 1 < self.max_attempts:
                time.sleep(self.backoff_base * (2 ** attempt))
        raise PredictorError(
            f"predictor at {self.url} failed after {self.max_attempts} attempts: {last}"
        )

    def close(self) -> None:
        self.session.close()


class OraclePredictor(PredictorBackend):
    """Test/mock predictor that echoes the gold labels of each document.

    ``truth`` is a gold corpus, or each document title's ``(head name, tail
    name, relation id)`` triplets.  Documents are recognized by their title
    line (the first line of the rendered document text).  With
    ``drop_prob > 0`` each true triplet is dropped with that probability,
    seeded per document so results do not depend on call order or threading.
    """

    def __init__(self, truth: Corpus | Mapping[str, Sequence[tuple[str, str, str]]],
                 registry: RelationRegistry, drop_prob: float = 0.0, seed: int = 0,
                 restrict_to: Sequence[str] | None = None):
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError("drop_prob must lie in [0, 1)")
        self.registry = registry
        self.drop_prob = drop_prob
        self.seed = seed
        allowed = set(restrict_to) if restrict_to is not None else None
        if isinstance(truth, Corpus):
            truth = {doc.title: doc.name_triplets() for doc in truth.documents}
        self._by_title = {title: [t for t in triplets if allowed is None or t[2] in allowed]
                          for title, triplets in truth.items()}

    def predict(self, instruction, document_text, relation_names):
        title = document_text.splitlines()[0] if document_text else ""
        if title not in self._by_title:
            raise PredictorError(f"oracle knows no document titled {title!r}")
        triplets = self._by_title[title]
        menu = set(relation_names)
        triplets = [
            t for t in triplets if self.registry.name_of(t[2]) in menu or t[2] in menu
        ]
        if self.drop_prob > 0.0:
            digest = hashlib.sha256(f"{self.seed}:{title}".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            triplets = [t for t in triplets if rng.random() >= self.drop_prob]
        return format_triplet_block(triplets, self.registry)


# ---------------------------------------------------------------------------
# pseudo-label inference


@dataclass
class PseudoLabelSet:
    """Predicted facts per document, with bookkeeping for audits."""

    by_doc: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict)
    dropped_out_of_set: int = 0
    unlabeled_docs: list[str] = field(default_factory=list)

    def fact_sets(self) -> dict[str, set[FactKey]]:
        """Per-document distinct fact keys (self-loops silently impossible here)."""
        out: dict[str, set[FactKey]] = {}
        for doc_id, triplets in self.by_doc.items():
            facts: set[FactKey] = set()
            for head, tail, relation in triplets:
                if head != tail:
                    facts.add(FactKey(head, tail, relation))
            out[doc_id] = facts
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "dropped_out_of_set": self.dropped_out_of_set,
            "unlabeled_docs": sorted(self.unlabeled_docs),
            "by_doc": {
                doc_id: [
                    {"head": h, "tail": t, "relation": r} for h, t, r in triplets
                ]
                for doc_id, triplets in sorted(self.by_doc.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "PseudoLabelSet":
        return cls(
            by_doc={
                doc_id: [(row["head"], row["tail"], row["relation"]) for row in rows]
                for doc_id, rows in data["by_doc"].items()
            },
            dropped_out_of_set=int(data.get("dropped_out_of_set", 0)),
            unlabeled_docs=list(data.get("unlabeled_docs", [])),
        )


def predict_corpus(
    predictor: PredictorBackend,
    corpus: Corpus,
    relations: Iterable[str],
    instruction: str,
    registry: RelationRegistry,
    tolerate: tuple[type[Exception], ...] = (TripletBlockError,),
) -> dict[str, list[tuple[str, str, str]] | None]:
    """Predict and parse the triplets of every document, then close the predictor.

    The predictor sees the names of ``relations`` as its menu.  A document
    whose prediction raises one of ``tolerate`` maps to ``None``; any other
    error propagates.  The predictor's ``close()``, if it has one, runs once
    either way.
    """
    menu = [registry.name_of(r) for r in relations]
    predictions: dict[str, list[tuple[str, str, str]] | None] = {}
    try:
        for doc in corpus.documents:
            try:
                raw = predictor.predict(instruction, render_document_text(doc), menu)
                predictions[doc.doc_id] = parse_triplet_block(raw, registry)
            except tolerate as exc:
                logger.warning("no usable prediction for %s: %s", doc.doc_id, exc)
                predictions[doc.doc_id] = None
    finally:
        close = getattr(predictor, "close", None)
        if close:
            close()
    return predictions


def infer_pseudo_labels(
    backend: PredictorBackend,
    synthetic: Corpus,
    unseen: Iterable[str],
    instruction: str,
    registry: RelationRegistry,
    max_unlabeled_frac: float = 0.5,
) -> PseudoLabelSet:
    """Run the predictor over every synthetic document, then close it.

    Predicted relations outside the unseen set are dropped and counted.
    Entity names are normalized here so downstream graph building keys facts
    consistently.  A document whose prediction cannot be obtained or parsed
    is recorded as unlabeled; more than ``max_unlabeled_frac`` unlabeled
    documents aborts the run.
    """
    unseen_set = set(unseen)
    predictions = predict_corpus(backend, synthetic, sorted(unseen_set), instruction,
                                 registry, tolerate=(PredictorError, TripletBlockError))
    result = PseudoLabelSet()
    for doc_id, triplets in predictions.items():
        if triplets is None:
            result.unlabeled_docs.append(doc_id)
            result.by_doc[doc_id] = []
            continue
        kept: list[tuple[str, str, str]] = []
        for head, tail, relation in triplets:
            if relation not in unseen_set:
                result.dropped_out_of_set += 1
                continue
            try:
                kept.append(
                    (normalize_entity_key(head), normalize_entity_key(tail), relation)
                )
            except EntityKeyError:
                result.dropped_out_of_set += 1
        result.by_doc[doc_id] = kept
    if synthetic.documents:
        frac = len(result.unlabeled_docs) / len(synthetic.documents)
        if frac > max_unlabeled_frac:
            raise PseudoLabelError(
                f"{len(result.unlabeled_docs)}/{len(synthetic.documents)} documents "
                f"came back unlabeled ({frac:.0%} > {max_unlabeled_frac:.0%})"
            )
    return result
