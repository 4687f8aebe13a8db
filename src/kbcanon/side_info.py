"""Equivalence-pair side information for NPs and relation phrases.

Each provider emits a named set of unordered phrase-id pairs that are
believed equivalent: morphological normal-form collisions, IDF-weighted
token overlap, entity-linker agreement, paraphrase-database clusters,
shared synsets, shared relation categories, and mined relation implication
rules. The pair sets act as soft constraints during embedding training and
as hard equivalences for some baselines. Every source finds its pairs with
one inverted-index join on integer arrays, `key_pairs`, and keeps them as
one sorted (m, 2) int64 array from the provider to the trainer, the
baselines and ``side_info.json``.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError
from .kb import (
    OpenKB,
    PhraseKind,
    majority_labels,
    normalize_whitespace,
    read_lines,
    vocab_hash,
    write_json,
)
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


@dataclass(frozen=True, eq=False)
class EquivalencePairSet:
    """Unordered, irreflexive phrase-id pairs from one evidence source: a
    read-only (m, 2) int64 array of rows (a, b), a < b, each pair once, in
    lexicographic order (see `make_pair_set`), compared by value."""

    source_name: str
    kind: PhraseKind
    pairs: np.ndarray

    def __post_init__(self):
        self.pairs.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, EquivalencePairSet) and np.array_equal(self.pairs, other.pairs)
                and (self.source_name, self.kind) == (other.source_name, other.kind))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def covered_ids(self) -> np.ndarray:
        return np.flatnonzero(np.bincount(self.pairs.ravel()))


def _sorted_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct rows (a[k], b[k]) of ids 0 <= a[k] < b[k], in order:
    one sort of the codes a·n + b, n above every id."""
    n = int(b.max()) + 1 if len(b) else 1
    code = np.sort(a * n + b)
    code = code[np.diff(code, prepend=-1) != 0]
    pairs = np.empty((len(code), 2), dtype=np.int64)
    np.divmod(code, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def make_pair_set(
    source_name: str, kind: PhraseKind, pairs: np.ndarray | Sequence[tuple[int, int]]
) -> EquivalencePairSet:
    """A pair set of any pairs of non-negative ids, an (m, 2) array or a
    list: each pair kept once as (min, max), self-pairs dropped."""
    ends = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    if ends[:, 0].min(initial=0) < 0:
        raise ValueError(f"{source_name}: pair ids must be non-negative")
    return EquivalencePairSet(source_name, kind, _sorted_pairs(*ends[ends[:, 0] != ends[:, 1]].T))


def _distinct_rows(pos: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (pos, key) rows, ordered by key, then position."""
    order = np.lexsort((pos, key))
    pos, key = pos[order], key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (pos[1:] != pos[:-1])
    return pos[new], key[new]


def key_pairs(pos: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverted-index join on integer arrays: (a, b, key), one row for
    every key and every two distinct positions a < b that carry it, from
    (pos[i], key[i]) rows; a repeated row counts once."""
    pos, key = _distinct_rows(pos, key)
    # row r pairs with the rows after it up to its key's last row, s
    last = np.flatnonzero(np.append(key[1:] != key[:-1], True))
    count = np.repeat(last, np.diff(last, prepend=-1)) - np.arange(len(key))
    r = np.repeat(np.arange(len(key)), count)
    s = np.arange(len(r))
    s -= np.repeat(np.cumsum(count) - count - np.arange(len(key)) - 1, count)
    return pos[r], pos[s], key[r]


# A position's key weights, each an integer multiple of 2**-E for the
# least such E (E = 0 for unit weights), sum exactly to an integer total
# once scaled by 2**E. Below this limit a pair's shared sum, its union
# S_a + S_b - shared and their float64 roundings are exact int64 work, and
# rounding once is what math.fsum does to the unscaled sum.
_EXACT_TOTAL = 1 << 62


def overlap_scores(n: int, pos: np.ndarray, key: np.ndarray,
                   weights: Sequence[float] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, score) for every pair a < b of the positions 0..n-1 that
    share a key, from (pos[i], key[i]) rows: the weight of the keys both
    carry over the weight of the keys either carries, 0 when that is 0.
    Key k weighs ``weights[k]`` (a finite float >= 0), or 1 for every key
    when ``weights`` is None. Each score equals, bit for bit, the quotient
    of the two `math.fsum` sums that `idf_overlap_score` and Jaccard's
    len(x & y) / len(x | y) compute: the sums are exact int64 sums of the
    weights scaled by 2**E (see `_EXACT_TOTAL`), each rounded once. A pair
    with a position whose scaled total reaches ``_EXACT_TOTAL`` is scored
    by those fsums instead."""
    pos, key = _distinct_rows(np.asarray(pos, dtype=np.int64), np.asarray(key, dtype=np.int64))
    if weights is None:
        scaled = None
        totals = np.bincount(pos, minlength=n).tolist()
    else:
        ratios = [w.as_integer_ratio() for w in map(float, weights)]
        E = max((q.bit_length() - 1 for _, q in ratios), default=0)
        scaled = [p << (E - q.bit_length() + 1) for p, q in ratios]
        totals = [0] * n
        for p, k in zip(pos.tolist(), key.tolist()):
            totals[p] += scaled[k]
    exact = np.array([s < _EXACT_TOTAL for s in totals], dtype=bool)
    S = np.array([s if ok else 0 for s, ok in zip(totals, exact)], dtype=np.int64)
    a, b, k = key_pairs(pos, key)
    # group the rows of each pair: sort by a·n + b, carrying the weights
    code = a * n + b
    del a, b
    order = np.argsort(code)
    code = code[order]
    w = (np.ones(len(k), dtype=np.int64) if scaled is None else
         np.array([s if s < _EXACT_TOTAL else 0 for s in scaled], dtype=np.int64)[k[order]])
    del k, order
    first = np.flatnonzero(np.diff(code, prepend=-1))
    shared = np.add.reduceat(w, first) if len(w) else w
    del w
    a, b = np.divmod(code[first], n)
    del code, first
    union = S[a] + S[b] - shared
    score = np.zeros(len(shared))
    np.divide(shared, union, out=score, where=union != 0)
    redo = np.flatnonzero(~(exact[a] & exact[b]))
    if redo.size:
        sets = [set() for _ in range(n)]
        for p, k in zip(pos.tolist(), key.tolist()):
            sets[p].add(k)
        fw = [float(w) for w in weights]
        for i in redo.tolist():
            x, y = sets[a[i]], sets[b[i]]
            den = math.fsum(fw[k] for k in x | y)
            score[i] = math.fsum(fw[k] for k in x & y) / den if den else 0.0
    return a, b, score


def _label_pair_set(
    source_name: str, kind: PhraseKind, labelled: Iterable[tuple[int, Hashable]]
) -> EquivalencePairSet:
    """Pair every two distinct ids that carry a common label, from
    (id, label) rows; an id may carry several labels. The labels are
    numbered in first-seen order and joined by `key_pairs`."""
    number: dict[Hashable, int] = {}
    flat = np.fromiter(chain.from_iterable(
        (pid, number.setdefault(k, len(number))) for pid, k in labelled), dtype=np.int64)
    a, b = key_pairs(flat[0::2], flat[1::2])[:2]
    return EquivalencePairSet(source_name, kind, _sorted_pairs(a, b))


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


def link(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of positions a[k] and b[k], for every k, in the
    flat union-find ``parent``: on entry and on return parent[x] is the
    smallest position in x's component. Each round hooks every root an
    unjoined pair touches under the smallest root it is paired with, then
    flattens the forest by pointer jumping; pairs whose roots agree drop
    out. A hook only lowers a root's parent, so the rounds end."""
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent[:] = up


def groups(parent: np.ndarray) -> list[list[int]]:
    """The components of a flat union-find (see `link`), each an ascending
    list of positions, ordered by smallest member."""
    order = np.argsort(parent, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(parent[order])) + 1).tolist(), len(parent)]
    order = order.tolist()
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def components(n: int, edges: np.ndarray | Sequence[tuple[int, int]]) -> list[list[int]]:
    """Connected components of positions 0..n-1 under ``edges``, each in
    ascending order, ordered by smallest member."""
    ends = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    parent = np.arange(n)
    link(parent, ends[:, 0], ends[:, 1])
    return groups(parent)


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
    ``_label_pair_set`` gets one (id, token) row per prefix token, as
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
    candidates = _label_pair_set("idf_overlap", PhraseKind.NP, rows).pairs
    keep = np.array([idf_overlap_score(toks[a], toks[b], df) >= cutoff
                     for a, b in candidates.tolist()], dtype=bool)
    pairs = candidates[keep]
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


def load_ppdb(path, confidence_min: float) -> tuple[list[tuple[str, str]], int]:
    """Read `phrase1 <TAB> phrase2 <TAB> score` rows; keep rows scoring at
    least confidence_min. Returns (kept rows, malformed-row count)."""
    rows: list[tuple[str, str]] = []
    malformed = 0
    for _, line in read_lines(path):
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
    """Connected components of the paraphrase rows passing the confidence
    cutoff; two KB phrases are paired iff both occur in the resource and
    share a component. KB phrases absent from the resource contribute
    nothing."""
    rows, _ = load_ppdb(ppdb_file, confidence_min)
    position: dict[str, int] = {}  # resource strings in first-seen order
    ends = np.array([(position.setdefault(p1, len(position)),
                      position.setdefault(p2, len(position))) for p1, p2 in rows],
                    dtype=np.intp).reshape(-1, 2)
    parent = np.arange(len(position))
    link(parent, ends[:, 0], ends[:, 1])
    # a string's label is its component's smallest position
    return _shared_label_pairs("ppdb", kind, {
        text: (root,) for text, root in zip(position, parent.tolist())}, kb)


def _shared_label_pairs(
    source_name: str, kind: PhraseKind, labels: Mapping[str, Iterable[Hashable]],
    kb: OpenKB,
) -> EquivalencePairSet:
    """Pair KB phrases whose lowercased texts share a label in ``labels``.
    Phrases absent from ``labels`` contribute nothing."""
    return _label_pair_set(source_name, kind, (
        (p.id, label) for p in kb.vocab(kind) for label in labels.get(p.text.lower(), ())))


def _two_field_rows(path, expected: str):
    """(line number, lowercased phrase, stripped second field) for each
    non-blank row of a two-column TSV file; any other row is a ParseError
    naming the line."""
    for line_no, line in read_lines(path):
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


def amie_mine(
    kb: OpenKB, support_min: int = 2, confidence_min: float = 0.2
) -> EquivalencePairSet:
    """Mine mutual implication rules between relation phrases.

    For relations r, r' with argument-pair sets S_r, S_r' (distinct
    morph-canonical (subject, object) pairs), support(r => r') is
    |S_r & S_r'| and confidence is support / |S_r|. A pair is emitted iff
    both directions meet the support and confidence thresholds. Each
    argument pair is coded as one integer key, so S_r is relation r's
    distinct (r, key) rows, and a relation pair's support is its number of
    `key_pairs` rows, one per shared key; every other pair has support 0.
    The confidences divide int64 counts in float64, which rounds as
    Python's int / int does (the counts are below 2**53)."""
    number: dict[str, int] = {}
    canon = np.array([number.setdefault(morph_normalize(p.text), len(number))
                      for p in kb.np_vocab], dtype=np.int64)
    s, r, o = kb.spo
    rel, arg = _distinct_rows(r, canon[s] * len(number) + canon[o])
    size = np.bincount(rel)
    a, b, _ = key_pairs(rel, arg)
    pair, support = np.unique(a * kb.n_rels + b, return_counts=True)
    a, b = np.divmod(pair, kb.n_rels)
    # rounding is monotone, so the lower confidence is support / max |S|
    keep = (support >= support_min) & (support / np.maximum(size[a], size[b]) >= confidence_min)
    return EquivalencePairSet("amie", PhraseKind.REL, np.stack((a[keep], b[keep]), axis=1))


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
        """`check_values`, then that each configured resource file exists."""
        self.check_values()
        for name, path in (("ppdb_file", self.ppdb_file),
                           ("wordnet_file", self.wordnet_file),
                           ("kbp_file", self.kbp_file)):
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name} does not exist: {path}")

    def check_values(self) -> None:
        """Every check that opens no file."""
        if (self.ppdb_np or self.ppdb_rel) and not self.ppdb_file:
            raise ConfigError("ppdb provider enabled but ppdb_file not set")
        if (self.wordnet_np or self.wordnet_rel) and not self.wordnet_file:
            raise ConfigError("wordnet provider enabled but wordnet_file not set")
        if self.kbp and not self.kbp_file:
            raise ConfigError("kbp provider enabled but kbp_file not set")
        if not 0.0 <= self.idf_cutoff <= 1.0:
            raise ConfigError(f"idf_cutoff must be in [0, 1], got {self.idf_cutoff}")
        if self.amie_support_min < 1:
            raise ConfigError("amie_support_min must be >= 1")
        if not 0.0 <= self.amie_confidence_min <= 1.0:
            raise ConfigError("amie_confidence_min must be in [0, 1]")
        if not math.isfinite(self.ppdb_confidence_min):
            raise ConfigError(
                f"ppdb_confidence_min must be a finite number, got {self.ppdb_confidence_min}")


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
               "pairs": s.pairs.tolist()} for s in sources]
        for key, sources in (("np_sources", collection.np_sources),
                             ("rel_sources", collection.rel_sources))
    }
    payload["vocab_hash"] = vocab_hash(kb)
    write_json(path, payload)


def load_side_info(path, kb: OpenKB) -> SideInfoCollection:
    """Read a ``save_side_info`` file for the KB its pairs index; a damaged
    one raises ParseError naming the file. A file built from another
    vocabulary raises a ConfigError naming it, and a pair that is not two
    ints in [0, n), for its kind's n phrases, a ParseError. Every JSON id
    is checked before any is read into an array."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            np_entries, rel_entries = (
                [(e["source_name"], PhraseKind(e["kind"]), list(e["pairs"]))
                 for e in payload[key]]
                for key in ("np_sources", "rel_sources"))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(path, None, f"not a side-information file: {e!r}") from e
    if payload.get("vocab_hash") != vocab_hash(kb):
        raise ConfigError(f"{path}: side information was built from a different "
                          "vocabulary; run sideinfo again")
    for name, kind, pairs in np_entries + rel_entries:
        n = len(kb.vocab(kind))
        bad = [p for p in pairs if type(p) is not list or len(p) != 2
               or any(type(i) is not int or not 0 <= i < n for i in p)]
        if bad:
            raise ParseError(path, None, f"{kind.value} source {name!r}: {bad[0]!r} is not "
                             f"a pair of the KB's {n} phrase ids")
    return SideInfoCollection(*(tuple(make_pair_set(*entry) for entry in entries)
                                for entries in (np_entries, rel_entries)))


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
