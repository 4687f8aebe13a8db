"""Domain types and ingestion for un-canonicalized Open KBs.

An Open KB is a list of (noun phrase, relation phrase, noun phrase) triples
whose arguments are raw surface strings. This module builds integer-keyed
vocabularies over those strings, keeps the triples' ids as integer columns
with a membership index, and carries optional per-triple annotations: linker
output (side information) and gold entity ids (evaluation only; nothing in
the training or clustering path may read them). It also holds the text
readers, and the atomic writers for every file but the streamed training log.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np
import yaml

from .errors import EmptyKBError, InvariantViolation, ParseError

logger = logging.getLogger(__name__)


class PhraseKind(Enum):
    NP = "NP"
    REL = "REL"


class TripleFormat(Enum):
    JSONL = "jsonl"  # one JSON object per line
    JSON = "json"  # a single JSON array of objects


def normalize_whitespace(text: str) -> str:
    """Trim and collapse internal whitespace; phrase identity is defined
    on this normal form (no case folding at ingestion)."""
    return " ".join(text.split())


@dataclass(frozen=True)
class Phrase:
    id: int
    text: str
    kind: PhraseKind
    frequency: int


@dataclass(frozen=True)
class Triple:
    """One OpenIE extraction. ``subject``/``object`` are NP ids, ``relation``
    a REL id. ``gold_subject``/``gold_object`` are evaluation-only."""

    triple_id: int
    subject: int
    relation: int
    object: int
    source_sentences: tuple[str, ...] = ()
    subject_link: str | None = None
    object_link: str | None = None
    gold_subject: str | None = None
    gold_object: str | None = None

    @property
    def spo(self) -> tuple[int, int, int]:
        return (self.subject, self.relation, self.object)


@dataclass(frozen=True)
class OpenKB:
    """Immutable after construction; safe for concurrent reads. A phrase id
    is its position in its kind's vocabulary, which `audit` checks.
    Construction derives two read-only arrays from ``triples``: ``spo``,
    (3, n) int64, whose column j holds the subject, relation and object
    ids of ``triples[j]``, and ``triple_index``, each distinct triple's
    `triple_keys` key once, sorted, for membership by ``np.searchsorted``."""

    triples: tuple[Triple, ...]
    np_vocab: tuple[Phrase, ...]
    rel_vocab: tuple[Phrase, ...]
    spo: np.ndarray = field(init=False, compare=False, repr=False)
    triple_index: np.ndarray = field(init=False, compare=False, repr=False)

    @property
    def n_nps(self) -> int:
        return len(self.np_vocab)

    @property
    def n_rels(self) -> int:
        return len(self.rel_vocab)

    def vocab(self, kind: PhraseKind) -> tuple[Phrase, ...]:
        return self.np_vocab if kind is PhraseKind.NP else self.rel_vocab

    def np_phrase(self, pid: int) -> Phrase:
        return self.np_vocab[pid]

    def rel_phrase(self, pid: int) -> Phrase:
        return self.rel_vocab[pid]

    def np_id(self, text: str) -> int | None:
        return self._np_by_text.get(normalize_whitespace(text))

    def rel_id(self, text: str) -> int | None:
        return self._rel_by_text.get(normalize_whitespace(text))

    def __post_init__(self):
        ts = self.triples
        spo = np.array([[t.subject for t in ts], [t.relation for t in ts],
                        [t.object for t in ts]], dtype=np.int64)
        spo.setflags(write=False)
        keys = np.sort(triple_keys(*spo, self.n_nps, self.n_rels))
        # not np.unique, whose first call imports modules worth about 1.4 MB
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        index = keys[distinct]
        index.setflags(write=False)
        object.__setattr__(self, "spo", spo)
        object.__setattr__(self, "triple_index", index)
        object.__setattr__(self, "_np_by_text", {p.text: p.id for p in self.np_vocab})
        object.__setattr__(self, "_rel_by_text", {p.text: p.id for p in self.rel_vocab})


@dataclass(frozen=True)
class GoldClustering:
    """Evaluation-only map from phrase id to gold entity/relation id."""

    kind: PhraseKind
    assignment: Mapping[int, str]

    def __len__(self) -> int:
        return len(self.assignment)

    def restricted_to(self, ids: Iterable[int]) -> "GoldClustering":
        keep = set(ids)
        return GoldClustering(
            self.kind, {i: g for i, g in self.assignment.items() if i in keep}
        )


# ---------------------------------------------------------------------------
# construction


class _VocabBuilder:
    def __init__(self, kind: PhraseKind):
        self.kind = kind
        self.by_text: dict[str, int] = {}
        self.freq: Counter[int] = Counter()

    def add(self, text: str) -> int:
        pid = self.by_text.get(text)
        if pid is None:
            pid = len(self.by_text)
            self.by_text[text] = pid
        self.freq[pid] += 1
        return pid

    def phrases(self) -> tuple[Phrase, ...]:
        return tuple(
            Phrase(pid, text, self.kind, self.freq[pid])
            for text, pid in self.by_text.items()
        )


def build_kb(records: Iterable[dict]) -> OpenKB:
    """Assemble an OpenKB from parsed records (see ``load_triples`` for the
    record schema). Vocabulary ids are assigned in first-appearance order,
    contiguously from 0 within each kind."""
    nps = _VocabBuilder(PhraseKind.NP)
    rels = _VocabBuilder(PhraseKind.REL)
    triples: list[Triple] = []
    for rec in records:
        s = nps.add(rec["subject"])
        p = rels.add(rec["relation"])
        o = nps.add(rec["object"])
        triples.append(Triple(rec["triple_id"], s, p, o,
                              tuple(rec.get("src_sentences", ())),
                              *map(rec.get, _OPTIONAL_FIELDS)))
    return OpenKB(triples=tuple(triples), np_vocab=nps.phrases(), rel_vocab=rels.phrases())


def triple_keys(s, p, o, n_nps: int, n_rels: int):
    """(s·n_rels + p)·n_nps + o: one int64 per (s, p, o) with ids in range,
    distinct triples giving distinct keys. Takes ints or int arrays."""
    return (s * n_rels + p) * n_nps + o


def index_contains(kb: OpenKB, keys: np.ndarray) -> np.ndarray:
    """Per key of `triple_keys`, whether its triple occurs in the KB."""
    index = kb.triple_index
    if not len(index):
        return np.zeros(len(keys), dtype=bool)
    return index[np.minimum(np.searchsorted(index, keys), len(index) - 1)] == keys


_REQUIRED_FIELDS = ("subject", "relation", "object")
# the triples file's optional string fields, each to the Triple field it
# fills, in Triple's field order: `build_kb` passes them by position
_OPTIONAL_FIELDS = {"entity_link_sub": "subject_link", "entity_link_obj": "object_link",
                    "gold_sub_id": "gold_subject", "gold_obj_id": "gold_object"}


def _parse_record(raw: dict, path, line_no: int) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(path, line_no, f"expected an object, got {type(raw).__name__}")
    rec: dict = {}
    for name in _REQUIRED_FIELDS:
        if name not in raw:
            raise ParseError(path, line_no, f"missing required field '{name}'")
        value = raw[name]
        if not isinstance(value, str):
            raise ParseError(path, line_no, f"field '{name}' must be a string")
        value = normalize_whitespace(value)
        if not value:
            raise ParseError(path, line_no, f"field '{name}' is empty")
        rec[name] = value
    rec["triple_id"] = raw.get("triple_id", line_no)
    if not isinstance(rec["triple_id"], int):
        raise ParseError(path, line_no, "field 'triple_id' must be an integer")
    sents = raw.get("src_sentences", [])
    if not isinstance(sents, list) or any(not isinstance(x, str) for x in sents):
        raise ParseError(path, line_no, "field 'src_sentences' must be a list of strings")
    rec["src_sentences"] = sents
    for name in _OPTIONAL_FIELDS:
        value = raw.get(name)
        if value is not None and not isinstance(value, str):
            raise ParseError(path, line_no, f"field '{name}' must be a string")
        rec[name] = value
    return rec


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line of a UTF-8 text file, line ends
    as text mode reads them; a line that is not UTF-8 raises ParseError
    naming the file and line."""
    # surrogateescape turns a byte that is not UTF-8 into a lone
    # surrogate, which the line's round trip below finds
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ParseError(path, line_no, f"not UTF-8: {e}") from e
            yield line_no, line


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """(line number, value) for every non-blank line of a JSON-lines file;
    a line that is not JSON raises ParseError naming it."""
    for line_no, line in read_lines(path):
        if line.strip():
            try:
                value = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(path, line_no, f"invalid JSON: {e.msg}") from e
            yield line_no, value


def read_yaml(path):
    """The value of a YAML file; text that is not UTF-8, or not YAML,
    raises ParseError naming the file and line."""
    text = "".join(line for _, line in read_lines(path))
    try:
        return yaml.safe_load(text)
    except yaml.reader.ReaderError as e:  # a character YAML refuses: a position, no mark
        raise ParseError(path, text.count("\n", 0, e.position) + 1,
                         f"invalid YAML: {str(e).splitlines()[0]}") from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        raise ParseError(path, mark and mark.line + 1,
                         f"invalid YAML: {getattr(e, 'problem', None) or e}") from e


def load_triples(path, format: TripleFormat = TripleFormat.JSONL) -> OpenKB:
    """Load a triples file into an OpenKB.

    JSONL is one record per line; JSON is a single array of records. Every
    record must carry ``subject``, ``relation`` and ``object``; malformed
    records raise :class:`ParseError` naming the offending line, and a
    ``triple_id`` (defaulting to the line number) used twice names both.
    """
    path = Path(path)
    records: list[dict] = []
    first_line: dict[int, int] = {}

    def add(raw, line_no: int) -> None:
        rec = _parse_record(raw, path, line_no)
        first = first_line.setdefault(rec["triple_id"], line_no)
        if first != line_no:
            raise ParseError(path, line_no,
                             f"duplicate triple_id {rec['triple_id']} (also on line {first})")
        records.append(rec)

    if format is TripleFormat.JSONL:
        for line_no, raw in read_jsonl(path):
            add(raw, line_no)
    elif format is TripleFormat.JSON:
        try:
            data = json.loads("".join(line for _, line in read_lines(path)))
        except json.JSONDecodeError as e:
            raise ParseError(path, e.lineno, f"invalid JSON: {e.msg}") from e
        if not isinstance(data, list):
            raise ParseError(path, 1, "top-level JSON value must be an array")
        for i, raw in enumerate(data):
            add(raw, i + 1)
    else:
        raise ValueError(f"unknown triple format: {format!r}")
    if not records:
        raise EmptyKBError(f"{path}: no triples found")
    return build_kb(records)


def triple_record(kb: OpenKB, t: Triple) -> dict:
    """Serialize one triple back to the wire format of the triples file."""
    rec = {
        "triple_id": t.triple_id,
        "subject": kb.np_phrase(t.subject).text,
        "relation": kb.rel_phrase(t.relation).text,
        "object": kb.np_phrase(t.object).text,
        "src_sentences": list(t.source_sentences),
    }
    for name, attr in _OPTIONAL_FIELDS.items():
        value = getattr(t, attr)
        if value is not None:
            rec[name] = value
    return rec


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file opened for writing at a temporary name beside ``path``; it
    replaces ``path`` when the block exits cleanly, and is removed when
    the block raises, which leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """``text`` as the whole of ``path``, written atomically."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_jsonl(path, records: Iterable) -> None:
    """One JSON line with sorted keys per record; no records, no lines."""
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def save_triples(kb: OpenKB, path) -> None:
    write_jsonl(path, (triple_record(kb, t) for t in kb.triples))


def vocab_hash(kb: OpenKB) -> str:
    """sha256 over the NP and relation phrase texts in id order: the
    vocabulary that embeddings and side information are indexed by."""
    h = hashlib.sha256()
    for p in kb.np_vocab:
        h.update(p.text.encode("utf-8") + b"\x00")
    h.update(b"\x01")
    for p in kb.rel_vocab:
        h.update(p.text.encode("utf-8") + b"\x00")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# queries


def audit(kb: OpenKB) -> None:
    """Full-scan consistency check; raises InvariantViolation on failure."""
    repeated = [i for i, c in Counter(t.triple_id for t in kb.triples).items() if c > 1]
    if repeated:
        raise InvariantViolation(f"duplicate triple ids {sorted(repeated)}")
    bad = (kb.spo < 0) | (kb.spo >= np.array([[kb.n_nps], [kb.n_rels], [kb.n_nps]]))
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        row = next(r for r in (0, 2, 1) if bad[r, j])
        raise InvariantViolation(f"triple {kb.triples[j].triple_id}: unknown "
                                 f"{'REL' if row == 1 else 'NP'} id {kb.spo[row, j]}")
    freq = {PhraseKind.NP: np.bincount(kb.spo[[0, 2]].ravel(), minlength=kb.n_nps),
            PhraseKind.REL: np.bincount(kb.spo[1], minlength=kb.n_rels)}
    for kind in PhraseKind:
        for i, p in enumerate(kb.vocab(kind)):
            if p.id != i:
                raise InvariantViolation(f"{kind.value} id {p.id} at vocabulary position {i}")
            if not p.text or p.text != normalize_whitespace(p.text):
                raise InvariantViolation(f"phrase {p.id} text not whitespace-normalized")
            if p.frequency < 1:
                raise InvariantViolation(f"phrase {p.id} has frequency {p.frequency}")
            if freq[kind][i] != p.frequency:
                raise InvariantViolation(f"{kind.value} {p.id} frequency mismatch")


# ---------------------------------------------------------------------------
# gold clusterings


_GOLD_LINE = "expected 'phrase_text<TAB>gold_id'"


def read_gold_lines(path) -> Iterator[tuple[int, str, str | None]]:
    """(line number, whitespace-normalized phrase text, gold id) for every
    non-blank line of a ``phrase_text <TAB> gold_id`` file. A line holding
    only a phrase has gold id None; any other shape raises ParseError."""
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) > 2 or not all(part.strip() for part in parts):
            raise ParseError(path, line_no, _GOLD_LINE)
        yield (line_no, normalize_whitespace(parts[0]),
               parts[1].strip() if len(parts) == 2 else None)


def load_gold(path, kb: OpenKB, kind: PhraseKind) -> GoldClustering:
    """Read a ``phrase_text <TAB> gold_id`` file. Phrases absent from the KB
    are skipped (logged); a repeated phrase keeps its last assignment."""
    assignment: dict[int, str] = {}
    skipped = 0
    for line_no, text, gold_id in read_gold_lines(path):
        if gold_id is None:
            raise ParseError(path, line_no, _GOLD_LINE)
        pid = kb.np_id(text) if kind is PhraseKind.NP else kb.rel_id(text)
        if pid is None:
            skipped += 1
            continue
        assignment[pid] = gold_id
    if skipped:
        logger.info("load_gold: %d phrases not in KB, skipped", skipped)
    return GoldClustering(kind, assignment)


def majority_labels(votes: Iterable[tuple[int, str | None]]) -> dict[int, str]:
    """The most common label per id over (id, label) votes; None labels
    are no vote, and a tie for the most common label drops the id. Ids
    keep the order of their first vote."""
    counters: dict[int, Counter] = {}
    for pid, label in votes:
        if label is not None:
            counters.setdefault(pid, Counter())[label] += 1
    assignment: dict[int, str] = {}
    for pid, counter in counters.items():
        ranked = counter.most_common()
        if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
            continue
        assignment[pid] = ranked[0][0]
    return assignment


def gold_from_triples(kb: OpenKB) -> GoldClustering:
    """Derive NP gold labels from the per-triple gold fields: majority label
    across a phrase's occurrences; ties drop the label."""
    return GoldClustering(PhraseKind.NP, majority_labels(
        vote for t in kb.triples
        for vote in ((t.subject, t.gold_subject), (t.object, t.gold_object))
    ))


# ---------------------------------------------------------------------------
# validation split


def split_validation(
    kb: OpenKB, gold: GoldClustering, fraction: float, seed: int
) -> tuple[tuple[Triple, ...], tuple[Triple, ...]]:
    """Partition the KB's triples into (validation, test) by sampling gold
    entities of triple subjects.

    Sampling is over distinct subject-side gold entities, not triples: every
    triple whose subject is labeled with a sampled entity goes to validation,
    all remaining triples (including those with unlabeled subjects) to test.
    At least one entity is sampled and at least one is kept for test, so
    fewer than two labeled subject entities is a ValueError. Deterministic
    under a fixed seed.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    entities = sorted({gold.assignment[t.subject] for t in kb.triples
                       if t.subject in gold.assignment})
    if len(entities) < 2:
        raise ValueError("a validation split needs at least two gold entities "
                         f"among triple subjects, found {len(entities)}")
    k = int(round(fraction * len(entities)))
    k = min(max(k, 1), len(entities) - 1)
    sampled = set(random.Random(seed).sample(entities, k))
    val, test = [], []
    for t in kb.triples:
        if gold.assignment.get(t.subject) in sampled:
            val.append(t)
        else:
            test.append(t)
    return tuple(val), tuple(test)
