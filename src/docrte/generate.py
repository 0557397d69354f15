"""Multi-step synthetic document generation over a chat backend.

One chain produces one fictional document for one unseen relation.  The whole
chain shares a single growing transcript, so each step sees everything the
model said before (the transcript is the memory).  Steps:

1. pick related relation types from the catalog,
2. write a fictional document (the only sampled, high-temperature call),
3. list the document's entities,
4. extract relation triplets over those entities,
5. give a one-sentence reason per triplet,
6. quote supporting sentences per triplet,
7. emit the final structured JSON record, which is parsed into a Document.

Malformed answers get a bounded number of corrective retries; the retry turns
stay in the transcript.  ``prompt_mode`` can collapse the chain into a single
request (``vanilla`` or ``chain_of_thought``) that reuses the step-7 parser.

Every chain's :class:`GenerationRecord` is kept for audit.  A records file
(:func:`records_chunks`) stores each distinct transcript text once, in a
table the turns refer to by index, and :func:`load_records` rebuilds the
``to_json()`` rows from it.
"""
from __future__ import annotations

import json
import logging
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .backends import BackendError, ChatBackend, ChatTranscript, RequestMeta
from .docio import ParseError, compact_array_chunks, load_json
from .model import (
    ENTITY_TYPES,
    Corpus,
    Document,
    Entity,
    EntityKeyError,
    EntityMention,
    RelationRegistry,
    TripletLabel,
    normalize_entity_key,
    validate_document,
)
from .prompts import PromptLibrary

logger = logging.getLogger(__name__)

PROMPT_MODES = ("chain_of_retrieval", "chain_of_thought", "vanilla")


class GenerationError(RuntimeError):
    """Fatal generation failure (e.g. zero successful documents overall)."""


class StepFailure(RuntimeError):
    """One chain step could not produce usable output within its retry budget."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
        self.message = message


class _ParseProblem(ValueError):
    """Internal: an answer was readable but not usable; triggers a retry."""


@dataclass
class ChainConfig:
    n_related: int = 3
    docs_per_relation: int = 10
    temperature_step2: float = 1.0
    temperature_other: float = 0.0
    max_retries: int = 2
    prompt_mode: str = "chain_of_retrieval"
    entity_types: tuple[str, ...] = ENTITY_TYPES

    def __post_init__(self) -> None:
        if self.n_related < 1:
            raise ValueError("n_related must be at least 1")
        if self.docs_per_relation < 1:
            raise ValueError("docs_per_relation must be at least 1")
        for name in ("temperature_step2", "temperature_other"):
            t = getattr(self, name)
            if not 0.0 <= t <= 2.0:
                raise ValueError(f"{name} must lie in [0, 2], got {t}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.prompt_mode not in PROMPT_MODES:
            raise ValueError(f"prompt_mode must be one of {PROMPT_MODES}")
        self.entity_types = tuple(t.upper() for t in self.entity_types)


@dataclass
class GroundingReport:
    """What was lost between the model's answers and the final document."""

    ungrounded_entities: list[str] = field(default_factory=list)
    dropped_entities: list[str] = field(default_factory=list)
    dropped_triplets: list[str] = field(default_factory=list)
    unmatched_support: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, list[str]]:
        return {name: list(values) for name, values in vars(self).items()}


@dataclass
class GenerationRecord:
    """Full audit trail of one chain: transcript, outcome, grounding losses."""

    unseen_relation: str
    doc_id: str
    related: list[str] = field(default_factory=list)
    transcript: ChatTranscript = field(default_factory=ChatTranscript)
    document: Document | None = None
    grounding: GroundingReport = field(default_factory=GroundingReport)
    accepted_turn_indices: list[int] = field(default_factory=list)
    failure: dict[str, str] | None = None

    @property
    def ok(self) -> bool:
        return self.document is not None

    def to_json(self, transcript: list[dict[str, Any]] | None = None) -> dict[str, Any]:
        """The record as JSON; ``transcript`` stands in for its message list."""
        return {
            "unseen_relation": self.unseen_relation,
            "doc_id": self.doc_id,
            "related": list(self.related),
            "transcript": self.transcript.messages() if transcript is None else transcript,
            "accepted_turn_indices": list(self.accepted_turn_indices),
            "document": self.document.doc_id if self.document else None,
            "grounding": self.grounding.to_json(),
            "failure": self.failure,
        }


# A records file is {"records": [...], "texts": [...], "version": 1}: each
# transcript turn is {"role": ..., "text_id": k} and "texts" holds every
# distinct turn text once, in first-seen order.  A chain repeats the same
# instruction templates, so most of a transcript's bytes are shared.
RECORDS_VERSION = 1


def records_chunks(records: Iterable[GenerationRecord]) -> Iterator[str]:
    """The records file of ``records`` as canonical compact JSON, one chunk per
    record and then one per text: the table is as large as the distinct
    replies, so it is streamed too rather than encoded as one string."""
    ids: dict[str, int] = {}

    def row(record: GenerationRecord) -> dict[str, Any]:
        return record.to_json([{"role": t.role, "text_id": ids.setdefault(t.text, len(ids))}
                               for t in record.transcript.turns])

    # the keys in sorted order: "records" < "texts" < "version"
    yield '{"records":'
    yield from compact_array_chunks(map(row, records), end="")
    yield ',"texts":'
    yield from compact_array_chunks(ids, end="")
    yield f',"version":{RECORDS_VERSION}}}\n'


def load_records(path: Path | str) -> list[dict[str, Any]]:
    """The rows of a records file, equal to ``[r.to_json() for r in records]``.

    Reads the text-table layout of :func:`records_chunks` of version
    ``RECORDS_VERSION``; anything else raises :class:`ParseError`.
    """
    data = load_json(path)
    texts = data.get("texts") if isinstance(data, dict) else None
    if not isinstance(texts, list) or data.get("version") != RECORDS_VERSION:
        raise ParseError(f"{path}: not a generation-records file of version {RECORDS_VERSION}")
    try:
        for row in data["records"]:
            turns = row["transcript"]
            if not all(0 <= t["text_id"] < len(texts) for t in turns):
                raise IndexError("text_id out of range")
            row["transcript"] = [{"role": t["role"], "text": texts[t["text_id"]]}
                                 for t in turns]
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"{path}: malformed generation record ({exc!r})") from exc
    return data["records"]


# ---------------------------------------------------------------------------
# request/retry plumbing


@dataclass
class _Chain:
    backend: ChatBackend
    transcript: ChatTranscript
    prompts: PromptLibrary
    config: ChainConfig
    relation: str
    doc_index: int = 0
    accepted: list[int] = field(default_factory=list)
    report: GroundingReport = field(default_factory=GroundingReport)

    def ask(
        self,
        step: int,
        step_name: str,
        prompt_text: str,
        temperature: float,
        parse: Callable[[str, bool], Any],
    ) -> Any:
        """Send a prompt and parse the answer, retrying on unusable output.

        A malformed (non-empty) answer is kept in the transcript and followed
        by a corrective user turn; an empty answer is never appended, so the
        retry re-sends the unchanged transcript.  ``parse`` receives the
        answer text and a flag marking the final attempt, letting steps relax
        to drop-and-report behavior when the budget is exhausted.
        """
        self.transcript.add_user(prompt_text)
        attempt = 0
        while True:
            final = attempt >= self.config.max_retries
            text = self.backend.send(
                self.transcript,
                temperature,
                RequestMeta(relation=self.relation, step=step, attempt=attempt,
                            doc_index=self.doc_index),
            )
            if text and text.strip():
                self.transcript.add_assistant(text)
                try:
                    result = parse(text, final)
                except _ParseProblem as problem:
                    if final:
                        raise StepFailure(step_name, str(problem)) from None
                    self.transcript.add_user(
                        self.prompts.render("retry", problem=str(problem))
                    )
                else:
                    self.accepted.append(len(self.transcript) - 1)
                    return result
            else:
                if final:
                    raise StepFailure(step_name, "empty answer")
                # Nothing to append (empty answers are never accepted into the
                # transcript); re-send the same request.
            attempt += 1


def _strip_line_prefix(line: str) -> str:
    """Remove bullet/number prefixes like '- ', '* ', '3. ', '2)'."""
    return re.sub(r"^\s*(?:[-*•]|\d+\s*[.)])\s*", "", line).strip()


_NUMBERED = re.compile(r"^\s*(\d+)\s*[.):\-]\s*(.*\S)\s*$")


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for line in text.splitlines():
        m = _NUMBERED.match(line)
        if m:
            out.append((int(m.group(1)), m.group(2).strip()))
    return out


def extract_json_block(text: str) -> Any:
    """Pull the last JSON object out of an answer, tolerating code fences."""
    fenced = re.findall(r"```(?:json)?\s*(.*?)```", text, flags=re.DOTALL)
    candidates = [c.strip() for c in reversed(fenced) if c.strip()]
    stripped = text.strip()
    first, last = stripped.find("{"), stripped.rfind("}")
    if first != -1 and last > first:
        candidates.append(stripped[first:last + 1])
    for candidate in candidates:
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            continue
    raise _ParseProblem("the answer does not contain a parseable JSON object")


# ---------------------------------------------------------------------------
# chain steps


def _render_catalog(registry: RelationRegistry) -> str:
    return "\n".join(rel.name for rel in registry)


def select_related_relations(chain: _Chain, r_i: str, registry: RelationRegistry) -> list[str]:
    """Step 1: choose n_related catalog relations related to the unseen one."""
    cfg = chain.config
    prompt = chain.prompts.render(
        "step1_related",
        unseen_relation=registry.name_of(r_i),
        relation_catalog=_render_catalog(registry),
        n_related=cfg.n_related,
    )

    def parse(text: str, final: bool) -> list[str]:
        chosen: list[str] = []
        bad: list[str] = []
        for raw in text.splitlines():
            token = _strip_line_prefix(raw)
            if not token:
                continue
            rel = registry.resolve(token)
            if rel is None:
                bad.append(token)
            elif rel.id != r_i and rel.id not in chosen:
                chosen.append(rel.id)
        if len(chosen) < cfg.n_related:
            detail = f"; unknown relation names: {bad}" if bad else ""
            raise _ParseProblem(
                f"need {cfg.n_related} distinct catalog relations other than "
                f"{registry.name_of(r_i)!r}, found {len(chosen)}{detail}"
            )
        return chosen[: cfg.n_related]

    return chain.ask(1, "select_related_relations", prompt, cfg.temperature_other, parse)


def generate_document(chain: _Chain, registry: RelationRegistry, related: Sequence[str]) -> str:
    """Step 2: sample the fictional document text (the only hot call)."""
    prompt = chain.prompts.render(
        "step2_document",
        unseen_relation=registry.name_of(chain.relation),
        related_relations=", ".join(registry.name_of(r) for r in related),
    )

    def parse(text: str, final: bool) -> str:
        if not text.strip():
            raise _ParseProblem("empty document")
        return text.strip()

    return chain.ask(2, "generate_document", prompt, chain.config.temperature_step2, parse)


def extract_entities(chain: _Chain) -> list[tuple[str, str]]:
    """Step 3: parse 'Name | TYPE' lines into a deduplicated entity list.

    Lines with unknown type tags trigger a corrective retry while budget
    remains; on the final attempt they are dropped and reported instead.
    """
    cfg = chain.config
    prompt = chain.prompts.render("step3_entities", entity_types=", ".join(cfg.entity_types))

    def parse(text: str, final: bool) -> list[tuple[str, str]]:
        entities: list[tuple[str, str]] = []
        seen_keys: set[str] = set()
        invalid: list[str] = []
        for raw in text.splitlines():
            line = _strip_line_prefix(raw)
            if not line:
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 2 or not parts[0]:
                invalid.append(raw.strip())
                continue
            name, etype = parts[0], parts[1].upper()
            if etype not in cfg.entity_types:
                invalid.append(raw.strip())
                continue
            try:
                key = normalize_entity_key(name)
            except EntityKeyError:
                invalid.append(raw.strip())
                continue
            if key not in seen_keys:
                seen_keys.add(key)
                entities.append((name, etype))
        if invalid and not final:
            raise _ParseProblem(
                f"these lines are not 'Name | TYPE' with TYPE in "
                f"{list(cfg.entity_types)}: {invalid[:5]}"
            )
        if invalid:
            chain.report.dropped_entities.extend(invalid)
        if not entities:
            raise _ParseProblem("no parseable entity lines")
        return entities

    return chain.ask(3, "extract_entities", prompt, cfg.temperature_other, parse)


_TRIPLET_LINE = re.compile(r"^\s*\((.*)\)\s*[.,;]?\s*$")


def parse_triplet_lines(text: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """Parse '(head | tail | relation)' lines; return (parsed, malformed)."""
    parsed: list[tuple[str, str, str]] = []
    malformed: list[str] = []
    for raw in text.splitlines():
        line = _strip_line_prefix(raw)
        if not line:
            continue
        m = _TRIPLET_LINE.match(line)
        if not m:
            malformed.append(raw.strip())
            continue
        parts = [p.strip() for p in m.group(1).split("|")]
        if len(parts) != 3 or not all(parts):
            malformed.append(raw.strip())
            continue
        parsed.append((parts[0], parts[1], parts[2]))
    return parsed, malformed


def extract_triplets(
    chain: _Chain,
    registry: RelationRegistry,
    entities: Sequence[tuple[str, str]],
) -> list[tuple[str, str, str]]:
    """Step 4: extract (head, tail, relation-id) triplets over step-3 entities.

    A completely unparseable answer earns a corrective retry; individually
    bad triplets (unknown entity or relation, self-loops) are dropped and
    reported.  Zero surviving triplets is a step failure: a document without
    labels is useless downstream.
    """
    cfg = chain.config
    prompt = chain.prompts.render("step4_triplets")
    entity_keys = {normalize_entity_key(name) for name, _ in entities}

    def parse(text: str, final: bool) -> list[tuple[str, str, str]]:
        parsed, malformed = parse_triplet_lines(text)
        if not parsed:
            raise _ParseProblem(
                "no lines of the form (head | tail | relation) were found"
            )
        kept: list[tuple[str, str, str]] = []
        dropped: list[str] = []
        for head, tail, rel_token in parsed:
            rel = registry.resolve(rel_token)
            try:
                head_key = normalize_entity_key(head)
                tail_key = normalize_entity_key(tail)
            except EntityKeyError:
                dropped.append(f"({head} | {tail} | {rel_token}): blank entity")
                continue
            if rel is None:
                dropped.append(f"({head} | {tail} | {rel_token}): unknown relation")
            elif head_key not in entity_keys or tail_key not in entity_keys:
                dropped.append(f"({head} | {tail} | {rel_token}): entity not in entity list")
            elif head_key == tail_key:
                dropped.append(f"({head} | {tail} | {rel_token}): self-loop")
            else:
                kept.append((head, tail, rel.id))
        dropped.extend(f"{line}: malformed" for line in malformed)
        if dropped:
            chain.report.dropped_triplets.extend(dropped)
        if not kept:
            raise StepFailure(
                "extract_triplets", f"no usable triplets (dropped: {dropped[:5]})"
            )
        return kept

    return chain.ask(4, "extract_triplets", prompt, cfg.temperature_other, parse)


def elicit_reasons_and_support(
    chain: _Chain, triplets: Sequence[tuple[str, str, str]]
) -> list[tuple[str, list[str]]]:
    """Steps 5 and 6: per-triplet reason sentences and supporting quotes.

    Nothing here is fatal: a triplet whose reason or support cannot be read
    gets an empty reason / no support, and the gap is reported.
    """
    cfg = chain.config
    n = len(triplets)

    def parse_reasons(text: str, final: bool) -> list[str]:
        reasons = [""] * n
        for num, body in _numbered_lines(text):
            if 1 <= num <= n and not reasons[num - 1]:
                reasons[num - 1] = body
        if not any(reasons):
            # fall back to positional lines for models that skip numbering
            plain = [ln.strip() for ln in text.splitlines() if ln.strip()]
            for i, line in enumerate(plain[:n]):
                reasons[i] = _strip_line_prefix(line)
        missing = [i + 1 for i, r in enumerate(reasons) if not r]
        if missing:
            chain.report.notes.append(f"no reason for triplet(s) {missing}")
        return reasons

    reasons = chain.ask(5, "elicit_reasons", chain.prompts.render("step5_reasons"),
                        cfg.temperature_other, parse_reasons)

    def parse_support(text: str, final: bool) -> list[list[str]]:
        support: list[list[str]] = [[] for _ in range(n)]
        for num, body in _numbered_lines(text):
            if 1 <= num <= n:
                support[num - 1].append(body.strip('"').strip())
        missing = [i + 1 for i, s in enumerate(support) if not s]
        if missing:
            chain.report.notes.append(f"no support for triplet(s) {missing}")
        return support

    support = chain.ask(6, "elicit_support", chain.prompts.render("step6_support"),
                        cfg.temperature_other, parse_support)
    return [(reasons[i], support[i]) for i in range(n)]


# ---------------------------------------------------------------------------
# grounding and the final parse


def _norm_text(s: str) -> str:
    return " ".join(s.split()).casefold()


def lowered_sentences(sentences: Sequence[Sequence[str]]) -> list[str]:
    """Each sentence space-joined and lowercased, as grounding matches it."""
    return [" ".join(tokens).lower() for tokens in sentences]


def ground_entity_mentions(
    name: str, sentences: Sequence[Sequence[str]], etype: str,
    lowered: Sequence[str] | None = None,
) -> list[EntityMention]:
    """Find token-aligned, case-insensitive occurrences of ``name``.

    Sentences are whitespace-tokenized, so matching runs over the
    space-joined sentence and accepts only matches that start and end on
    token boundaries.  The first (leftmost) match per sentence becomes the
    mention for that sentence.  A caller grounding several names in one
    document passes ``lowered_sentences(sentences)`` as ``lowered``.
    """
    target = " ".join(name.split()).lower()
    if not target:
        return []
    if lowered is None:
        lowered = lowered_sentences(sentences)
    mentions = []
    for sent_id, joined in enumerate(lowered):
        pos = joined.find(target)
        while pos != -1:
            start_ok = pos == 0 or joined[pos - 1] == " "
            end = pos + len(target)
            end_ok = end == len(joined) or joined[end] == " "
            if start_ok and end_ok:
                tok_start = joined[:pos].count(" ")
                tok_end = tok_start + target.count(" ") + 1
                mentions.append(
                    EntityMention(name=name, sent_id=sent_id, start=tok_start,
                                  end=tok_end, etype=etype)
                )
                break
            pos = joined.find(target, pos + 1)
    return mentions


def normalized_sentences(sentences: Sequence[Sequence[str]]) -> list[str]:
    """Each sentence space-joined and normalized, as support grounding matches it."""
    return [_norm_text(" ".join(tokens)) for tokens in sentences]


def ground_support(
    support: Sequence[str], sentences: Sequence[Sequence[str]],
    rendered: Sequence[str] | None = None,
) -> tuple[list[int], list[str]]:
    """Map quoted support sentences to sentence indices by normalized substring.

    A quote matches a sentence when either normalized string contains the
    other (models quote fragments and over-quote with punctuation changes).
    Returns (sorted evidence indices, quotes that matched nothing).  A caller
    grounding several labels in one document passes
    ``normalized_sentences(sentences)`` as ``rendered``.
    """
    if rendered is None:
        rendered = normalized_sentences(sentences)
    evidence: set[int] = set()
    unmatched: list[str] = []
    for quote in support:
        q = _norm_text(quote)
        if not q:
            continue
        hits = [i for i, sent in enumerate(rendered) if q in sent or sent in q]
        if hits:
            evidence.update(hits)
        else:
            unmatched.append(quote)
    return sorted(evidence), unmatched


def finalize_and_parse(
    chain: _Chain,
    registry: RelationRegistry,
    doc_id: str,
    prior: Sequence[tuple[tuple[str, str, str], str, list[str]]] = (),
    prompt_name: str = "step7_structured",
    prompt_slots: dict[str, object] | None = None,
    step: int = 7,
) -> Document:
    """Step 7: request the strict JSON record and parse it into a Document.

    ``prior`` carries (triplet, reason, support) tuples from steps 4-6; they
    fill in reasons/support the final JSON omits.  Entities are grounded to
    mentions by token-aligned substring search; triplets whose head or tail
    has zero grounded mentions are dropped and reported.
    """
    cfg = chain.config
    prompt = chain.prompts.render(prompt_name, **(prompt_slots or {}))
    prior_map = {
        (normalize_entity_key(h), normalize_entity_key(t), r): (reason, support)
        for (h, t, r), reason, support in prior
    }
    report = chain.report

    def parse(text: str, final: bool) -> Document:
        data = extract_json_block(text)
        if not isinstance(data, dict):
            raise _ParseProblem("top-level JSON value must be an object")
        missing = [k for k in ("title", "sentences", "entities", "triplets") if k not in data]
        if missing:
            raise _ParseProblem(f"JSON object is missing fields: {missing}")
        title = str(data["title"]).strip()
        raw_sentences = data["sentences"]
        if not isinstance(raw_sentences, list) or not raw_sentences:
            raise _ParseProblem("'sentences' must be a non-empty list of strings")
        # a run keeps generated corpora in memory for later stages, and a
        # corpus repeats a small vocabulary: share each token's string
        sentences = [list(map(sys.intern, str(s).split())) for s in raw_sentences]
        sentences = [s for s in sentences if s]
        if not sentences:
            raise _ParseProblem("all sentences are empty after tokenization")

        entities: list[Entity] = []
        keys_seen: set[str] = set()
        lowered = lowered_sentences(sentences)
        if not isinstance(data["entities"], list):
            raise _ParseProblem("'entities' must be a list")
        for row in data["entities"]:
            if not isinstance(row, dict) or "name" not in row:
                raise _ParseProblem(f"bad entity record: {row!r}")
            name = str(row["name"])
            etype = str(row.get("type", "MISC")).upper()
            if etype not in cfg.entity_types:
                report.dropped_entities.append(f"{name} (unknown type {etype!r})")
                continue
            try:
                key = normalize_entity_key(name)
            except EntityKeyError:
                report.dropped_entities.append(f"{name!r} (blank name)")
                continue
            if key in keys_seen:
                continue
            keys_seen.add(key)
            mentions = ground_entity_mentions(name, sentences, etype, lowered)
            if not mentions:
                report.ungrounded_entities.append(name)
            entities.append(Entity(canonical_name=name, mentions=mentions, key=key))
        if not entities:
            raise _ParseProblem("no usable entities in the final record")

        index_of = {}
        for i, ent in enumerate(entities):
            index_of.setdefault(ent.key, i)

        labels: list[TripletLabel] = []
        if not isinstance(data["triplets"], list):
            raise _ParseProblem("'triplets' must be a list")
        rendered = normalized_sentences(sentences)
        for row in data["triplets"]:
            if not isinstance(row, dict):
                report.dropped_triplets.append(f"{row!r}: not an object")
                continue
            head, tail = str(row.get("head", "")), str(row.get("tail", ""))
            rel = registry.resolve(str(row.get("relation", "")))
            try:
                head_key = normalize_entity_key(head)
                tail_key = normalize_entity_key(tail)
            except EntityKeyError:
                report.dropped_triplets.append(f"({head} | {tail}): blank entity")
                continue
            if rel is None:
                report.dropped_triplets.append(
                    f"({head} | {tail} | {row.get('relation')!r}): unknown relation"
                )
                continue
            if head_key not in index_of or tail_key not in index_of:
                report.dropped_triplets.append(
                    f"({head} | {tail} | {rel.name}): entity not in entity list"
                )
                continue
            if index_of[head_key] == index_of[tail_key]:
                report.dropped_triplets.append(f"({head} | {tail} | {rel.name}): self-loop")
                continue
            if not entities[index_of[head_key]].mentions or not entities[index_of[tail_key]].mentions:
                report.dropped_triplets.append(
                    f"({head} | {tail} | {rel.name}): ungrounded entity"
                )
                continue
            reason = str(row["reason"]) if row.get("reason") else None
            support = [str(s) for s in row["support"]] if row.get("support") else []
            if (reason is None or not support) and (head_key, tail_key, rel.id) in prior_map:
                prior_reason, prior_support = prior_map[(head_key, tail_key, rel.id)]
                reason = reason or (prior_reason or None)
                support = support or list(prior_support)
            evidence, unmatched = ground_support(support, sentences, rendered)
            report.unmatched_support.extend(unmatched)
            labels.append(
                TripletLabel(
                    head=index_of[head_key],
                    tail=index_of[tail_key],
                    relation=rel.id,
                    evidence=evidence,
                    reason=reason,
                    support=support or None,
                )
            )
        if not labels:
            raise _ParseProblem("no usable triplets in the final record")
        doc = Document(doc_id=doc_id, title=title or doc_id, sentences=sentences,
                       entities=entities, labels=labels)
        validate_document(doc, registry)
        return doc

    return chain.ask(step, "finalize_and_parse", prompt, cfg.temperature_other
                     if cfg.prompt_mode == "chain_of_retrieval" else cfg.temperature_step2,
                     parse)


# ---------------------------------------------------------------------------
# whole chains and corpora


def run_chain(
    backend: ChatBackend,
    r_i: str,
    registry: RelationRegistry,
    config: ChainConfig,
    prompts: PromptLibrary | None = None,
    doc_id: str | None = None,
    doc_index: int = 0,
) -> GenerationRecord:
    """Run one generation chain for unseen relation ``r_i``.

    Never raises for per-chain problems: failures come back as a record with
    ``document=None`` and a ``failure`` payload, so corpus generation can
    account for them without losing the transcript.
    """
    prompts = prompts or PromptLibrary()
    doc_id = doc_id or f"{r_i}-{doc_index:02d}"
    transcript = ChatTranscript()
    transcript.add_system(prompts.render("system"))
    chain = _Chain(backend=backend, transcript=transcript, prompts=prompts,
                   config=config, relation=r_i, doc_index=doc_index)
    record = GenerationRecord(unseen_relation=r_i, doc_id=doc_id, transcript=transcript)
    try:
        if config.prompt_mode == "chain_of_retrieval":
            related = select_related_relations(chain, r_i, registry)
            record.related = related
            generate_document(chain, registry, related)
            entities = extract_entities(chain)
            triplets = extract_triplets(chain, registry, entities)
            annotations = elicit_reasons_and_support(chain, triplets)
            prior = [
                (triplets[i], annotations[i][0], annotations[i][1])
                for i in range(len(triplets))
            ]
            record.document = finalize_and_parse(chain, registry, doc_id, prior)
        else:
            slots = {
                "unseen_relation": registry.name_of(r_i),
                "relation_catalog": _render_catalog(registry),
                "entity_types": ", ".join(config.entity_types),
            }
            record.document = finalize_and_parse(
                chain, registry, doc_id, prompt_name=config.prompt_mode,
                prompt_slots=slots, step=1,
            )
    except StepFailure as failure:
        record.failure = {"step": failure.step, "message": failure.message}
        logger.warning("chain for %s (%s) failed: %s", r_i, doc_id, failure)
    except BackendError as exc:
        record.failure = {"step": "transport", "message": str(exc)}
        logger.warning("chain for %s (%s) hit a transport failure: %s", r_i, doc_id, exc)
    record.grounding = chain.report
    record.accepted_turn_indices = chain.accepted
    return record


def generate_corpus(
    backend: ChatBackend,
    unseen: Sequence[str],
    registry: RelationRegistry,
    config: ChainConfig,
    prompts: PromptLibrary | None = None,
    parallelism: int = 1,
) -> tuple[Corpus, list[GenerationRecord]]:
    """Generate ``docs_per_relation`` documents per unseen relation.

    Failed chains are excluded from the corpus but kept in the records.
    Relations ordered by sorted id; with ``parallelism > 1`` chains run on a
    thread pool and results are merged back in task order, so output is
    independent of scheduling.
    """
    prompts = prompts or PromptLibrary()
    tasks = [
        (rel, k)
        for rel in sorted(unseen)
        for k in range(config.docs_per_relation)
    ]

    def job(task: tuple[str, int]) -> GenerationRecord:
        rel, k = task
        return run_chain(backend, rel, registry, config, prompts,
                         doc_id=f"{rel}-{k:02d}", doc_index=k)

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(job, tasks))
    else:
        records = [job(t) for t in tasks]

    documents = [r.document for r in records if r.document is not None]
    yields: dict[str, int] = {rel: 0 for rel in sorted(unseen)}
    for r in records:
        if r.ok:
            yields[r.unseen_relation] += 1
    for rel, got in yields.items():
        if got < config.docs_per_relation:
            logger.warning("relation %s: %d/%d chains succeeded", rel, got,
                           config.docs_per_relation)
    if not documents:
        raise GenerationError("no chain produced a document; aborting generation")
    corpus = Corpus(documents=documents, provenance="synthetic", registry=registry)
    return corpus, records
