"""Serialization: canonical JSON, the corpus container format, and converters.

Every artifact the pipeline writes goes through :func:`write_chunks_atomic`,
one atomic writer that also returns the sha256 of the bytes it wrote.  JSON
is canonical (:func:`canonical_dumps`), which is what makes reruns
byte-identical and lets stage digests double as change detection.  Bulk
artifacts (corpora, generation records, pseudo labels, fact-graph dumps,
predictions) are written compact, one line; small human-facing files
(manifests, split specs, reports, the effective config) keep ``indent=2``.
Corpora, generation records and DocRED files are streamed one document or
record at a time (:func:`compact_array_chunks`), so no whole-file tree or
string is built; the bytes are those of :func:`canonical_dumps` with
``compact=True``.  Documents are built as dicts in sorted key order and
encoded without a per-object key sort.  The layout of the generation records
(a text table the transcripts refer to) belongs to :mod:`docrte.generate`
(``records_chunks`` and ``load_records``).  DocRED sources are read one
row at a time too (:func:`iter_docred`): each row of the array is checked
before the next is parsed, and becomes a document unless the caller's ``keep``
turns down its relations, so a reader holds the file's text and what it keeps
of the documents.  The JSON loaders take an optional ``digest``:
the bytes they parse must have that sha256, which lets a caller tie what it
parsed to a digest it recorded earlier.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator

from .model import (
    Corpus,
    Document,
    Entity,
    EntityMention,
    RelationRegistry,
    RelationType,
    TripletLabel,
    ValidationError,
    normalize_entity_key,
    validate_document,
    validated,
)

CORPUS_VERSION = 1


class ParseError(ValueError):
    """Raised for malformed input files (JSON syntax or schema violations)."""


class CorpusFormatError(ParseError):
    """Raised when a corpus file's version tag is missing or incompatible."""


class ChangedFileError(RuntimeError):
    """Raised when the bytes of a file differ from the digest its reader expected."""


# ---------------------------------------------------------------------------
# canonical JSON plumbing


def canonical_dumps(obj: Any, compact: bool = False) -> str:
    """Serialize to deterministic JSON: sorted keys, stable separators, newline.

    ``compact`` gives one line with ``(",", ":")`` separators.  Any ``indent``
    makes ``json`` fall back from its C encoder to the pure-Python one, so
    bulk artifacts are written compact; parsed, both layouts are equal.
    """
    layout: dict[str, Any] = {"separators": (",", ":")} if compact else {"indent": 2}
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, allow_nan=False, **layout) + "\n"


# Bytes buffered before each write to a temp file.  Chunks are small (one
# document or record), and a file written in small pieces reads back about 10%
# slower from the page cache than one written in large ones; every artifact is
# hashed again when a later run checks it.
WRITE_BUFFER = 1 << 20


def write_chunks_atomic(path: Path | str, chunks: Iterable[str]) -> str:
    """Write the concatenated ``chunks`` as UTF-8 and return their sha256 hex digest.

    Each chunk is encoded, hashed and written as it comes, to a sibling temp
    file that is renamed over ``path`` at the end, so readers never see a
    partial file.  If ``chunks`` raises, the temp file is removed and ``path``
    keeps what it held.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb", buffering=WRITE_BUFFER) as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest.hexdigest()


def write_text_atomic(path: Path | str, text: str) -> str:
    """Write ``text`` atomically; return the sha256 hex digest of its bytes."""
    return write_chunks_atomic(path, (text,))


def write_json_atomic(path: Path | str, obj: Any, compact: bool = False) -> str:
    return write_text_atomic(path, canonical_dumps(obj, compact))


_COMPACT = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False,
                            separators=(",", ":"))
# For dicts built in sorted key order: the same bytes without a sort per object.
_COMPACT_AS_BUILT = json.JSONEncoder(ensure_ascii=False, allow_nan=False,
                                     separators=(",", ":"))
_DECODE = json.JSONDecoder().raw_decode


def compact_array_chunks(items: Iterable[Any], end: str = "\n",
                         sorted_keys: bool = False) -> Iterator[str]:
    """``canonical_dumps(list(items), compact=True)``, one chunk per item;
    ``end`` replaces its final newline.  ``sorted_keys`` says every dict in
    ``items`` already has its keys in sorted order, so none is sorted again."""
    encode = (_COMPACT_AS_BUILT if sorted_keys else _COMPACT).encode
    sep = "["
    for item in items:
        yield sep + encode(item)
        sep = ","
    yield ("[]" if sep == "[" else "]") + end


def _read_json(path: Path | str, digest: str | None, parse: Callable[[str], Iterable]) -> Iterator:
    """The items ``parse`` makes of a JSON file's UTF-8 text, as it makes them;
    ``digest`` is checked as in :func:`load_json`."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if digest is not None and (actual := hashlib.sha256(data).hexdigest()) != digest:
        raise ChangedFileError(f"{path} changed after its digest was taken "
                               f"(sha256 {actual}, expected {digest})")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 at offset {exc.start}") from exc
    del data  # not held while the text is parsed
    try:
        yield from parse(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at offset {exc.pos}: {exc.msg}") from exc


def load_json(path: Path | str, digest: str | None = None) -> Any:
    """Parse a JSON file.  With ``digest``, the bytes parsed must have that
    sha256, or :class:`ChangedFileError` is raised."""
    return next(_read_json(path, digest, lambda text: [json.loads(text)]))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Bytes read per call when a file is hashed on disk.
DIGEST_BUFFER = 1 << 16


def file_digest(path: Path | str) -> str:
    """sha256 hex digest of a file, streamed through one reused buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(DIGEST_BUFFER)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# relation registry


def load_registry(path: Path | str, digest: str | None = None) -> RelationRegistry:
    """Load a relation registry.

    Two layouts are accepted: a flat ``{"P57": "director", ...}`` mapping
    (the common rel_info layout), or a list of
    ``{"id": ..., "name": ..., "description": ...}`` records (optionally under
    a top-level ``"relations"`` key).  ``digest`` is checked as in :func:`load_json`.
    """
    data = load_json(path, digest)
    if isinstance(data, dict) and "relations" in data:
        data = data["relations"]
    if isinstance(data, dict):
        relations = []
        for rid, value in data.items():
            if isinstance(value, dict):
                if "name" not in value:
                    raise ParseError(f"{path}: registry entry {rid!r} has no 'name'")
                relations.append(RelationType(id=rid, name=str(value["name"]),
                                              description=value.get("description")))
            else:
                relations.append(RelationType(id=rid, name=str(value)))
    elif isinstance(data, list):
        relations = []
        for row in data:
            if not isinstance(row, dict) or "id" not in row or "name" not in row:
                raise ParseError(f"{path}: registry rows need 'id' and 'name': {row!r}")
            relations.append(
                RelationType(id=str(row["id"]), name=str(row["name"]),
                             description=row.get("description"))
            )
    else:
        raise ParseError(f"{path}: unrecognized registry layout ({type(data).__name__})")
    return RelationRegistry(relations)


# ---------------------------------------------------------------------------
# canonical corpus format


# The *_to_json helpers build each dict in sorted key order, so corpora are
# encoded without sorting keys per object, and pass token, evidence and
# support lists through uncopied.


def _mention_to_json(m: EntityMention) -> dict[str, Any]:
    return {"end": m.end, "etype": m.etype, "name": m.name, "sent_id": m.sent_id,
            "start": m.start}


def _entity_to_json(e: Entity) -> dict[str, Any]:
    return {
        "canonical_name": e.canonical_name,
        "key": e.key,
        "mentions": [_mention_to_json(m) for m in e.mentions],
    }


def _label_to_json(label: TripletLabel) -> dict[str, Any]:
    return {
        "evidence": label.evidence,
        "head": label.head,
        "reason": label.reason,
        "relation": label.relation,
        "support": label.support,
        "tail": label.tail,
    }


def document_to_json(doc: Document) -> dict[str, Any]:
    return {
        "doc_id": doc.doc_id,
        "entities": [_entity_to_json(e) for e in doc.entities],
        "labels": [_label_to_json(lb) for lb in doc.labels],
        "sentences": doc.sentences,
        "title": doc.title,
    }


def _token_lists(sents: Any, where: str) -> list[list[str]]:
    """``sents`` itself, once checked to be a list of lists of strings.

    A string sentence would otherwise become a list of one-character tokens.
    """
    if not isinstance(sents, list):
        raise ParseError(f"{where}: sentences must be a list, not {type(sents).__name__}")
    for i, sent in enumerate(sents):
        if isinstance(sent, list):
            try:
                " ".join(sent)  # raises TypeError on a token that is not a string
                continue
            except TypeError:
                pass
        raise ParseError(f"{where}: sentence {i} is not a list of strings: {sent!r}")
    return sents


def document_from_json(row: dict[str, Any]) -> Document:
    try:
        entities = [
            Entity(
                canonical_name=e["canonical_name"],
                mentions=[EntityMention(**m) for m in e["mentions"]],
            )
            for e in row["entities"]
        ]
        labels = [
            TripletLabel(
                head=lb["head"],
                tail=lb["tail"],
                relation=lb["relation"],
                evidence=list(lb.get("evidence") or []),
                reason=lb.get("reason"),
                support=list(lb["support"]) if lb.get("support") is not None else None,
            )
            for lb in row["labels"]
        ]
        return Document(
            doc_id=row["doc_id"],
            title=row["title"],
            sentences=_token_lists(row["sentences"], f"document {row.get('doc_id')!r}"),
            entities=entities,
            labels=labels,
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed document record ({exc!r}): {row.get('doc_id')!r}") from exc


def corpus_to_json(corpus: Corpus) -> dict[str, Any]:
    return {
        "version": CORPUS_VERSION,
        "provenance": corpus.provenance,
        "documents": [document_to_json(d) for d in corpus.documents],
    }


def corpus_chunks(corpus: Corpus) -> Iterator[str]:
    """``canonical_dumps(corpus_to_json(corpus), compact=True)``, one chunk per document."""
    # "documents" sorts before the other keys, so the rest of the object
    # follows the array: its own encoding with "{" turned into ","
    yield '{"documents":'
    yield from compact_array_chunks(map(document_to_json, corpus.documents), end="",
                                    sorted_keys=True)
    rest = _COMPACT.encode({"provenance": corpus.provenance, "version": CORPUS_VERSION})
    yield "," + rest[1:] + "\n"


def save_corpus(corpus: Corpus, path: Path | str) -> str:
    """Stream ``corpus`` to ``path`` (compact); return the digest of the file."""
    return write_chunks_atomic(path, corpus_chunks(corpus))


def load_corpus(path: Path | str, registry: RelationRegistry | None = None,
                digest: str | None = None) -> Corpus:
    data = load_json(path, digest)
    if not isinstance(data, dict) or "version" not in data:
        raise CorpusFormatError(f"{path}: not a corpus file (missing version tag)")
    if data["version"] != CORPUS_VERSION:
        raise CorpusFormatError(
            f"{path}: corpus version {data['version']!r} is not supported "
            f"(expected {CORPUS_VERSION})"
        )
    return Corpus(list(validated(map(document_from_json, data["documents"]), registry)),
                  data["provenance"], registry)


# ---------------------------------------------------------------------------
# DocRED-style interchange


def _array_items(text: str) -> Iterator[Any]:
    """The items of the JSON array ``text``, each parsed when it is reached.
    What ``json.loads`` rejects, or reads as no array, raises JSONDecodeError."""
    skip = json.decoder.WHITESPACE.match
    pos = skip(text).end()
    if not text.startswith("[", pos):
        raise json.JSONDecodeError("Expecting '[' (a top-level array)", text, pos)
    pos = skip(text, pos + 1).end()
    more = not text.startswith("]", pos)
    while more:
        item, pos = _DECODE(text, pos)
        yield item
        pos = skip(text, pos).end()
        if more := text.startswith(",", pos):
            pos = skip(text, pos + 1).end()
        elif not text.startswith("]", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
    pos = skip(text, pos + 1).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)


def _of(kind: type, value: Any, what: str) -> Any:
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, not {value!r}")
    return value


def _docred_document(path: Path | str, index: int, row: Any,
                     registry: RelationRegistry) -> Document:
    """Row ``index`` of a DocRED file as a document; :class:`ParseError` if malformed."""
    intern = sys.intern
    try:
        title = _of(str, row["title"], "title")
        sents = [list(map(intern, s)) for s in _token_lists(row.get("sents") or [], "sents")]
        entities = []
        for cluster in row.get("vertexSet") or []:
            mentions = []
            for m in cluster:
                start, end = m["pos"]
                mentions.append(EntityMention(
                    name=intern(_of(str, m["name"], "name")),
                    sent_id=_of(int, m["sent_id"], "sent_id"),
                    start=_of(int, start, "pos"), end=_of(int, end, "pos"),
                    etype=intern(_of(str, m.get("type", "MISC"), "type"))))
            if not mentions:
                raise ValueError("empty vertex cluster")
            entities.append(Entity(canonical_name=mentions[0].name, mentions=mentions))
        labels = []
        for lb in row.get("labels") or []:
            rel = lb.get("r")
            if rel not in registry:
                raise ValueError(f"unknown relation id {rel!r}")
            labels.append(TripletLabel(
                head=_of(int, lb["h"], "h"), tail=_of(int, lb["t"], "t"), relation=intern(rel),
                evidence=[_of(int, s, "evidence") for s in lb.get("evidence") or []]))
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        title = row.get("title") if isinstance(row, dict) else None
        raise ParseError(f"{path}: document {index} ({title!r}): "
                         f"{type(exc).__name__}: {exc}") from exc
    return Document(doc_id=title, title=title, sentences=sents, entities=entities, labels=labels)


def _row_relations(row: Any, known: Container[str]) -> set[str] | None:
    """The relation ids of a DocRED row's labels if :func:`_docred_document` and
    :func:`validate_document` would both pass the row, with ``known`` the
    registry's ids, else None; no document is built.  A repeated title is the
    caller's to find."""
    try:
        title, sents = row["title"], row.get("sents") or []
        if type(title) is not str or not title or type(sents) is not list:
            return None
        for sent in sents:
            if type(sent) is not list or not sent or " ".join(sent).split() != sent:
                return None
        n_sents, clusters = len(sents), row.get("vertexSet") or []
        for cluster in clusters:
            for m in cluster:
                start, end = m["pos"]
                sent_id = m["sent_id"]
                if not (type(m["name"]) is type(m.get("type", "")) is str
                        and type(sent_id) is type(start) is type(end) is int
                        and 0 <= sent_id < n_sents and 0 <= start < end <= len(sents[sent_id])):
                    return None
            normalize_entity_key(cluster[0]["name"])  # an empty cluster fails here too
        relations = set()
        for lb in row.get("labels") or []:
            rel, head, tail = lb.get("r"), lb["h"], lb["t"]
            if not (rel in known and type(head) is type(tail) is int and head != tail
                    and 0 <= head < len(clusters) and 0 <= tail < len(clusters)):
                return None
            for ev in lb.get("evidence") or []:
                if type(ev) is not int or not 0 <= ev < n_sents:
                    return None
            relations.add(rel)
        return relations
    except (LookupError, TypeError, AttributeError, ValueError):
        return None


def iter_docred(path: Path | str, registry: RelationRegistry, digest: str | None = None,
                keep: Callable[[set[str]], bool] | None = None) -> Iterator[Document]:
    """Each row of a DocRED-format JSON array as a document, checked before the
    next row is parsed: no tree of the whole file is built, and the first bad
    row in file order is the one reported, as :class:`ParseError` (naming the
    file and the document) if malformed, as :class:`ValidationError` if invalid
    or a repeated title.  ``digest`` is checked as in :func:`load_json`.

    Each row is checked on its parsed JSON first, and a row that check passes
    is built without :func:`validate_document`; only a row it turns down is
    built and validated, which raises the error.  With ``keep``, only the documents
    whose set of label relations ``keep`` accepts are built and yielded, but
    every row is checked.

    Rows have ``title`` (the unique document id), ``sents`` (token lists),
    ``vertexSet`` (mention clusters, ``pos`` = [start, end)) and ``labels``
    (``h``/``t`` vertex indices, ``r`` relation id, ``evidence``); tokens, names,
    types and relation ids are interned, as a corpus repeats a small vocabulary.
    """
    titles: set[str] = set()
    known = frozenset(registry.ids())
    for i, row in enumerate(_read_json(path, digest, _array_items)):
        relations, doc = _row_relations(row, known), None
        if relations is None or row["title"] in titles:  # the full path finds what is wrong
            doc = _docred_document(path, i, row, registry)
            if doc.doc_id in titles:
                raise ValidationError(f"duplicate doc_id {doc.doc_id!r}")
            validate_document(doc, registry)
            relations = {lb.relation for lb in doc.labels}
        titles.add(row["title"])
        if keep is None or keep(relations):
            yield doc or _docred_document(path, i, row, registry)


def load_docred(path: Path | str, registry: RelationRegistry,
                digest: str | None = None) -> Corpus:
    """The documents of :func:`iter_docred` as a human-provenance corpus."""
    return Corpus(list(iter_docred(path, registry, digest)), "human", registry)


def _docred_row(doc: Document) -> dict[str, Any]:
    return {
        "title": doc.title,
        "sents": [list(s) for s in doc.sentences],
        "vertexSet": [
            [
                {"name": m.name, "sent_id": m.sent_id,
                 "pos": [m.start, m.end], "type": m.etype}
                for m in ent.mentions
            ]
            for ent in doc.entities
        ],
        "labels": [
            {"h": lb.head, "t": lb.tail, "r": lb.relation,
             "evidence": list(lb.evidence)}
            for lb in doc.labels
        ],
    }


def save_docred(corpus: Corpus, path: Path | str) -> str:
    """Stream a corpus out in DocRED layout (reason/support are dropped);
    return the digest of the file."""
    return write_chunks_atomic(path, compact_array_chunks(map(_docred_row, corpus.documents)))
