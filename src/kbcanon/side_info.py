"""Equivalence-pair side information for NPs and relation phrases.

Each provider emits a named set of unordered phrase-id pairs that are
believed equivalent: morphological normal-form collisions, IDF-weighted
token overlap, entity-linker agreement, paraphrase-database clusters,
shared synsets, shared relation categories, and mined relation implication
rules. The pair sets act as soft constraints during embedding training and
as hard equivalences for some baselines.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Hashable, Iterable, Mapping

from .errors import ConfigError, ParseError
from .kb import OpenKB, PhraseKind, majority_labels, normalize_whitespace, vocab_hash
from .stopwords import STOPWORDS

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"[a-z0-9']+")
_DETERMINERS = frozenset({"the", "a", "an"})
_VOWELS = frozenset("aeiou")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens (apostrophes kept inside tokens)."""
    return _TOKEN.findall(text.lower())


def content_tokens(text: str) -> frozenset[str]:
    """Distinct non-stopword tokens of a phrase (the w(.) token set)."""
    return frozenset(t for t in tokenize(text) if t not in STOPWORDS)


# ---------------------------------------------------------------------------
# morphological normalization


def _strip_plural(tok: str) -> str:
    if tok.endswith("ies") and len(tok) > 3:
        return tok[:-3] + "y"
    if tok.endswith("ses") and len(tok) > 3:
        return tok[:-2]
    if tok.endswith("s") and not tok.endswith(("ss", "us", "is")):
        return tok[:-1]
    return tok


def _strip_tense(tok: str) -> str:
    if tok.endswith("ied") and len(tok) > 3:
        return tok[:-3] + "y"
    if tok.endswith("ed") and len(tok) - 2 >= 3:
        return tok[:-2]
    if tok.endswith("ing") and len(tok) - 3 >= 3:
        stem = tok[:-3]
        if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
            stem = stem[:-1]
        return stem
    return tok


def _morph_pass(text: str) -> str:
    tokens = text.lower().split()
    while tokens and tokens[0] in _DETERMINERS:
        tokens.pop(0)
    out = []
    for tok in tokens:
        tok = _strip_tense(_strip_plural(tok))
        if tok:
            out.append(tok)
    return " ".join(out)


def morph_normalize(text: str) -> str:
    """Crude morphological normal form: lowercase, strip leading
    determiners, strip plural then tense suffixes per token.

    The suffix rules can expose further strippable suffixes ("leased" ->
    "leas" -> "lea"), so the pass is iterated to a fixed point; every rule
    strictly shortens the text, which guarantees termination and makes the
    function idempotent. These are deliberately crude string heuristics,
    not lemmatization ("was running" -> "wa run").
    """
    cur = _morph_pass(text)
    nxt = _morph_pass(cur)
    while nxt != cur:
        cur, nxt = nxt, _morph_pass(nxt)
    return cur


# ---------------------------------------------------------------------------
# pair-set containers


@dataclass(frozen=True)
class EquivalencePairSet:
    """Unordered, irreflexive phrase-id pairs from one evidence source."""

    source_name: str
    kind: PhraseKind
    pairs: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def covered_ids(self) -> frozenset[int]:
        return frozenset(i for pair in self.pairs for i in pair)


def make_pair_set(
    source_name: str, kind: PhraseKind, pairs: Iterable[tuple[int, int]]
) -> EquivalencePairSet:
    """Canonicalize pairs to (min, max) order and drop self-pairs."""
    canon = frozenset(
        (a, b) if a < b else (b, a) for a, b in pairs if a != b
    )
    return EquivalencePairSet(source_name, kind, canon)


def shared_key_pairs(rows: Iterable[tuple[int, Hashable]]) -> frozenset[tuple[int, int]]:
    """Every pair (a, b), a < b, of distinct ids that share a key, from
    (id, key) rows; an id may carry several keys."""
    # one list per key, not one set: sets raised peak RSS measurably
    groups = defaultdict(list)
    for pid, key in rows:
        groups[key].append(pid)
    return frozenset(
        pair for ids in groups.values() for pair in combinations(sorted(set(ids)), 2)
    )


def _label_pair_set(
    source_name: str, kind: PhraseKind, labelled: Iterable[tuple[int, Hashable]]
) -> EquivalencePairSet:
    """Pair every two distinct ids that carry a common label, from
    (id, label) rows; an id may carry several labels."""
    return EquivalencePairSet(source_name, kind, shared_key_pairs(labelled))


@dataclass(frozen=True)
class SideInfoCollection:
    np_sources: tuple[EquivalencePairSet, ...] = ()
    rel_sources: tuple[EquivalencePairSet, ...] = ()

    def __post_init__(self):
        for sources, kind in ((self.np_sources, PhraseKind.NP),
                              (self.rel_sources, PhraseKind.REL)):
            names = [s.source_name for s in sources]
            if len(names) != len(set(names)):
                raise ConfigError(f"duplicate side-info source names: {names}")
            for s in sources:
                if s.kind is not kind:
                    raise ConfigError(
                        f"source {s.source_name!r} has kind {s.kind}, "
                        f"expected {kind}"
                    )


EMPTY_SIDE_INFO = SideInfoCollection()


class DisjointSet:
    """Union-find over hashable items with path compression."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def __contains__(self, x) -> bool:
        return x in self._parent

    def groups(self) -> list[list]:
        by_root = defaultdict(list)
        for x in self._parent:
            by_root[self.find(x)].append(x)
        return list(by_root.values())


# ---------------------------------------------------------------------------
# native providers


def morph_equivalences(kb: OpenKB, kind: PhraseKind) -> EquivalencePairSet:
    """Pair all distinct phrases whose morphological normal forms collide."""
    return _label_pair_set(
        "morph", kind, ((p.id, morph_normalize(p.text)) for p in kb.vocab(kind))
    )


@dataclass(frozen=True)
class DocumentFrequency:
    """Token -> number of distinct NP strings containing it. One distinct
    NP string counts as one document; stopwords are excluded."""

    df: Mapping[str, int]


def build_df(kb: OpenKB) -> DocumentFrequency:
    counts: Counter[str] = Counter()
    for p in kb.np_vocab:
        counts.update(content_tokens(p.text))
    return DocumentFrequency(df=dict(counts))


def idf_weight(token: str, df: DocumentFrequency) -> float:
    """A token's IDF weight 1/ln(1 + df), natural log; 0 for a token with
    df 0 or no entry in the frequency table."""
    n = df.df.get(token, 0)
    return 1.0 / math.log(1 + n) if n > 0 else 0.0


def idf_overlap_score(
    tokens_a: frozenset[str], tokens_b: frozenset[str], df: DocumentFrequency
) -> float:
    """IDF-weighted token overlap in [0, 1]: shared-token weight over
    union-token weight, each token weighted by ``idf_weight``. Tokens
    absent from the frequency table are ignored. ``math.fsum`` makes each
    sum exact-then-rounded, so the score does not depend on set order."""
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    den = math.fsum(idf_weight(t, df) for t in union)
    if den == 0.0:
        return 0.0
    num = math.fsum(idf_weight(t, df) for t in tokens_a & tokens_b)
    return num / den


# The filter must never lose a pair whose float score is >= cutoff. In
# real arithmetic the tokens after a prefix weigh less than c·|x|_w. In
# floats, the score (two fsums and a division) and the prefix's running
# remainder (one rounding per token) each err by a few units of
# 2**-53·|x|_w. So the bound is (c - 1e-9)·|x|_w: a slack of 1e-9 of
# |x|_w covers that error many times over. It lengthens only a prefix
# whose remainder lies within 1e-9·|x|_w of the bound, and at a cutoff
# of at most 1e-9 it makes every prefix the whole token set.
_PREFIX_SLACK = 1e-9


def _idf_prefix(tokens: frozenset[str], df: DocumentFrequency, cutoff: float) -> list[str]:
    """The shortest prefix of ``tokens``, heaviest weight first and ties
    by token string, after which the remaining weight is below
    cutoff·|tokens|_w (less the slack above)."""
    weighted = sorted((-idf_weight(t, df), t) for t in tokens)
    remaining = math.fsum(-w for w, _ in weighted)
    bound = (cutoff - _PREFIX_SLACK) * remaining
    prefix = []
    for neg_w, tok in weighted:
        if remaining < bound:
            break
        prefix.append(tok)
        remaining += neg_w
    return prefix


def idf_equivalences(
    kb: OpenKB, df: DocumentFrequency, cutoff: float
) -> EquivalencePairSet:
    """All NP pairs (a, b), a < b, with idf_overlap_score >= cutoff.

    Candidates come from a weighted prefix filter (Bayardo et al. 2007):
    ``shared_key_pairs`` gets one (id, token) row per prefix token, as
    ``_idf_prefix`` gives it. The filter is exact. Every NP orders its
    tokens the same global way, and the tokens after its prefix weigh
    less than cutoff·|x|_w. If the first token that a and b share, in
    that order, lay after a's prefix, so would every shared token, and
    the shared weight would be below cutoff·|a|_w <= cutoff·|a ∪ b|_w.
    So a pair that scores >= cutoff shares a token in both prefixes.
    At cutoff 0 every prefix is the whole token set, and every pair that
    shares a non-stopword token is kept; any other pair scores 0."""
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be in [0, 1], got {cutoff}")
    toks = {p.id: content_tokens(p.text) for p in kb.np_vocab}
    rows = [(pid, t) for pid, ts in toks.items() for t in _idf_prefix(ts, df, cutoff)]
    candidates = shared_key_pairs(rows)
    pairs = frozenset(
        (a, b) for a, b in candidates
        if idf_overlap_score(toks[a], toks[b], df) >= cutoff
    )
    logger.info("idf_overlap: %d prefix rows, %d candidates scored, %d pairs kept",
                len(rows), len(candidates), len(pairs))
    return EquivalencePairSet("idf_overlap", PhraseKind.NP, pairs)


def entity_link_equivalences(kb: OpenKB) -> EquivalencePairSet:
    """Pair NPs whose triples carry the same linker target. An NP's link is
    the majority link over its occurrences; ties drop the link."""
    links = majority_labels(
        vote for t in kb.triples
        for vote in ((t.subject, t.subject_link), (t.object, t.object_link))
    )
    return _label_pair_set("entity_linking", PhraseKind.NP, links.items())


# ---------------------------------------------------------------------------
# resource-file providers (matching is case-insensitive on normalized text)


def _lower_index(kb: OpenKB, kind: PhraseKind) -> dict[str, list[int]]:
    index = defaultdict(list)
    for p in kb.vocab(kind):
        index[p.text.lower()].append(p.id)
    return index


def load_ppdb(path, confidence_min: float) -> tuple[list[tuple[str, str]], int]:
    """Read `phrase1 <TAB> phrase2 <TAB> score` rows; keep rows scoring at
    least confidence_min. Returns (kept rows, malformed-row count)."""
    rows: list[tuple[str, str]] = []
    malformed = 0
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                malformed += 1
                continue
            try:
                score = float(parts[2])
            except ValueError:
                malformed += 1
                continue
            p1 = normalize_whitespace(parts[0]).lower()
            p2 = normalize_whitespace(parts[1]).lower()
            if not p1 or not p2:
                malformed += 1
                continue
            if score >= confidence_min:
                rows.append((p1, p2))
    if malformed:
        logger.warning("load_ppdb: skipped %d malformed rows in %s", malformed, path)
    return rows, malformed


def ppdb_equivalences(
    ppdb_file, confidence_min: float, kb: OpenKB, kind: PhraseKind
) -> EquivalencePairSet:
    """Union-find over paraphrase rows passing the confidence cutoff; two
    KB phrases are paired iff both occur in the resource and share a root.
    KB phrases absent from the resource contribute nothing."""
    rows, _ = load_ppdb(ppdb_file, confidence_min)
    dsu = DisjointSet()
    for p1, p2 in rows:
        dsu.union(p1, p2)
    return _label_pair_set("ppdb", kind, (
        (pid, dsu.find(text))
        for text, ids in _lower_index(kb, kind).items() if text in dsu
        for pid in ids
    ))


def _shared_label_pairs(
    source_name: str, kind: PhraseKind, labels: Mapping[str, Iterable[str]],
    kb: OpenKB,
) -> EquivalencePairSet:
    """Pair KB phrases whose lowercased texts share a label in ``labels``.
    Phrases absent from ``labels`` contribute nothing."""
    return _label_pair_set(source_name, kind, (
        (pid, label)
        for text, ids in _lower_index(kb, kind).items()
        for label in labels.get(text, ())
        for pid in ids
    ))


def _two_field_rows(path, expected: str):
    """(line number, lowercased phrase, stripped second field) for each
    non-blank row of a two-column TSV file; any other row is a ParseError
    naming the line."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ParseError(path, line_no, f"expected '{expected}'")
            yield line_no, normalize_whitespace(parts[0]).lower(), parts[1].strip()


def load_synsets(path) -> dict[str, set[str]]:
    """Read `phrase <TAB> synset_id[,synset_id...]` rows into a map from
    lowercased phrase to its synset-id set (multiple rows union)."""
    synsets: dict[str, set[str]] = defaultdict(set)
    for line_no, phrase, field in _two_field_rows(path, "phrase<TAB>synset_ids"):
        ids = {s.strip() for s in field.split(",") if s.strip()}
        if not ids:
            raise ParseError(Path(path), line_no, "empty synset-id list")
        synsets[phrase] |= ids
    return dict(synsets)


def synset_equivalences(synset_file, kb: OpenKB, kind: PhraseKind) -> EquivalencePairSet:
    """Pair KB phrases whose synset-id sets intersect. Phrases absent from
    the synset file contribute nothing."""
    return _shared_label_pairs("wordnet", kind, load_synsets(synset_file), kb)


def load_kbp(path) -> dict[str, set[str]]:
    """Read `relation_phrase <TAB> category` rows into a map from
    lowercased phrase to its category set."""
    categories: dict[str, set[str]] = defaultdict(set)
    for _, phrase, category in _two_field_rows(path, "relation_phrase<TAB>category"):
        categories[phrase].add(category)
    return dict(categories)


def kbp_equivalences(kbp_file, kb: OpenKB) -> EquivalencePairSet:
    """Pair relation phrases assigned to a shared category."""
    return _shared_label_pairs("kbp", PhraseKind.REL, load_kbp(kbp_file), kb)


# ---------------------------------------------------------------------------
# implication-rule mining


def relation_argument_pairs(kb: OpenKB) -> dict[int, frozenset[tuple[str, str]]]:
    """Distinct (subject, object) argument pairs per relation, with NPs
    replaced by their morphological normal forms first."""
    canon = {p.id: morph_normalize(p.text) for p in kb.np_vocab}
    pairs: dict[int, set[tuple[str, str]]] = defaultdict(set)
    for t in kb.triples:
        pairs[t.relation].add((canon[t.subject], canon[t.object]))
    return {r: frozenset(s) for r, s in pairs.items()}


def amie_mine(
    kb: OpenKB, support_min: int = 2, confidence_min: float = 0.2
) -> EquivalencePairSet:
    """Mine mutual implication rules between relation phrases.

    For relations r, r' with argument-pair sets S_r, S_r' (distinct
    morph-canonical (subject, object) pairs), support(r => r') is
    |S_r & S_r'| and confidence is support / |S_r|. A pair is emitted iff
    both directions meet the support and confidence thresholds. Only the
    relation pairs that share an argument pair (``shared_key_pairs``) are
    scored; every other pair has support 0.
    """
    arg_pairs = relation_argument_pairs(kb)
    candidates = shared_key_pairs((r, xy) for r, xys in arg_pairs.items() for xy in xys)
    support = {(a, b): len(arg_pairs[a] & arg_pairs[b]) for a, b in candidates}
    return EquivalencePairSet("amie", PhraseKind.REL, frozenset(
        (a, b) for (a, b), ov in support.items()
        if ov >= support_min and ov / len(arg_pairs[a]) >= confidence_min
        and ov / len(arg_pairs[b]) >= confidence_min
    ))


# ---------------------------------------------------------------------------
# assembly


@dataclass
class SideInfoConfig:
    """Which providers run, their thresholds, and their resource files."""

    morph: bool = True
    idf_overlap: bool = True
    idf_cutoff: float = 0.5
    entity_linking: bool = True
    amie: bool = True
    amie_support_min: int = 2
    amie_confidence_min: float = 0.2
    ppdb_np: bool = False
    ppdb_rel: bool = False
    ppdb_file: str | None = None
    ppdb_confidence_min: float = 0.5
    wordnet_np: bool = False
    wordnet_rel: bool = False
    wordnet_file: str | None = None
    kbp: bool = False
    kbp_file: str | None = None

    def validate(self) -> None:
        if (self.ppdb_np or self.ppdb_rel) and not self.ppdb_file:
            raise ConfigError("ppdb provider enabled but ppdb_file not set")
        if (self.wordnet_np or self.wordnet_rel) and not self.wordnet_file:
            raise ConfigError("wordnet provider enabled but wordnet_file not set")
        if self.kbp and not self.kbp_file:
            raise ConfigError("kbp provider enabled but kbp_file not set")
        for name, path in (("ppdb_file", self.ppdb_file),
                           ("wordnet_file", self.wordnet_file),
                           ("kbp_file", self.kbp_file)):
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")
        if not 0.0 <= self.idf_cutoff <= 1.0:
            raise ConfigError(f"idf_cutoff must be in [0, 1], got {self.idf_cutoff}")
        if self.amie_support_min < 1:
            raise ConfigError("amie_support_min must be >= 1")
        if not 0.0 <= self.amie_confidence_min <= 1.0:
            raise ConfigError("amie_confidence_min must be in [0, 1]")


# The source names `assemble_side_info` can emit, per kind: the valid
# keys of `HyperParams.lambda_ent` and `lambda_rel` in a pipeline config.
NP_SOURCES = ("entity_linking", "ppdb", "wordnet", "idf_overlap", "morph")
REL_SOURCES = ("ppdb", "wordnet", "amie", "kbp")


def assemble_side_info(kb: OpenKB, config: SideInfoConfig) -> SideInfoCollection:
    """Run every enabled provider and collect its pair set.

    NP sources come from `NP_SOURCES`, relation sources from
    `REL_SOURCES`. Providers that run but find nothing still appear (with
    zero pairs) so coverage reporting stays honest.
    """
    config.validate()
    np_sources: list[EquivalencePairSet] = []
    rel_sources: list[EquivalencePairSet] = []
    if config.entity_linking:
        np_sources.append(entity_link_equivalences(kb))
    if config.ppdb_np:
        np_sources.append(
            ppdb_equivalences(config.ppdb_file, config.ppdb_confidence_min,
                              kb, PhraseKind.NP)
        )
    if config.wordnet_np:
        np_sources.append(synset_equivalences(config.wordnet_file, kb, PhraseKind.NP))
    if config.idf_overlap:
        np_sources.append(idf_equivalences(kb, build_df(kb), config.idf_cutoff))
    if config.morph:
        np_sources.append(morph_equivalences(kb, PhraseKind.NP))
    if config.ppdb_rel:
        rel_sources.append(
            ppdb_equivalences(config.ppdb_file, config.ppdb_confidence_min,
                              kb, PhraseKind.REL)
        )
    if config.wordnet_rel:
        rel_sources.append(synset_equivalences(config.wordnet_file, kb, PhraseKind.REL))
    if config.amie:
        rel_sources.append(
            amie_mine(kb, config.amie_support_min, config.amie_confidence_min)
        )
    if config.kbp:
        rel_sources.append(kbp_equivalences(config.kbp_file, kb))
    collection = SideInfoCollection(tuple(np_sources), tuple(rel_sources))
    for line in coverage_report(collection, kb):
        logger.info("side info: %s", line)
    return collection


def save_side_info(collection: SideInfoCollection, path, kb: OpenKB) -> None:
    """JSON dump with sorted pair lists and the `vocab_hash` of the KB the
    pairs index; byte-deterministic."""
    payload = {
        key: [{"source_name": s.source_name, "kind": s.kind.value,
               "pairs": sorted(list(p) for p in s.pairs)} for s in sources]
        for key, sources in (("np_sources", collection.np_sources),
                             ("rel_sources", collection.rel_sources))
    }
    payload["vocab_hash"] = vocab_hash(kb)
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_side_info(path, kb: OpenKB) -> SideInfoCollection:
    """Read a ``save_side_info`` file for the KB its pairs index; a damaged
    one raises ParseError naming the file. A file built from another
    vocabulary raises a ConfigError naming it, and a pair id that is not
    an int in [0, n) for its kind's n phrases a ParseError."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            np_sources, rel_sources = (
                tuple(make_pair_set(e["source_name"], PhraseKind(e["kind"]),
                                    [tuple(p) for p in e["pairs"]])
                      for e in payload[key])
                for key in ("np_sources", "rel_sources"))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(path, None, f"not a side-information file: {e!r}") from e
    if payload.get("vocab_hash") != vocab_hash(kb):
        raise ConfigError(f"{path}: side information was built from a different "
                          "vocabulary; run sideinfo again")
    for s in np_sources + rel_sources:
        n = len(kb.vocab(s.kind))
        bad = [i for pair in s.pairs for i in pair
               if type(i) is not int or not 0 <= i < n]
        if bad:
            raise ParseError(path, None, f"{s.kind.value} source {s.source_name!r}: "
                             f"pair id {min(bad, key=repr)!r} is not one of the "
                             f"KB's {n} phrase ids")
    return SideInfoCollection(np_sources, rel_sources)


def coverage_report(collection: SideInfoCollection, kb: OpenKB) -> list[str]:
    """One line per source: phrases covered, vocabulary fraction, pairs."""
    lines = []
    for sources, vocab_size in ((collection.np_sources, kb.n_nps),
                                (collection.rel_sources, kb.n_rels)):
        for s in sources:
            covered = len(s.covered_ids)
            frac = covered / vocab_size if vocab_size else 0.0
            lines.append(
                f"{s.kind.value}/{s.source_name}: "
                f"{covered}/{vocab_size} phrases covered ({frac:.1%}), "
                f"{len(s.pairs)} pairs"
            )
    return lines
