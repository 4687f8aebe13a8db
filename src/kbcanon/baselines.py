"""Comparison systems sharing the HAC backend.

Equivalence-signal methods (morphological normal forms, paraphrase
database, entity links) cluster by grouping or connected components;
similarity methods (IDF token overlap, Jaro-Winkler, attribute overlap)
run complete-linkage HAC over 1 - similarity; embedding methods cluster
cosine distances over averaged word vectors or structure-only trained
embeddings (no side-information penalties)."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    Cluster,
    Clustering,
    PairChunks,
    _tuning_bound,
    choose_threshold,
    cluster_phrases,
    hac_from_pairs,
    hac_merge_history,  # noqa: F401 -- bound here too, where the benchmark's tracer rebinds it
    pair_triangle,
    tune_threshold,
)
from .embedding import (
    EmbeddingSet,
    HyperParams,
    WordVectors,
    average_word_vectors,
    default_init_rng,
    init_embeddings,
    train,
)
from .errors import ConfigError
from .kb import GoldClustering, OpenKB, PhraseKind
from .side_info import (
    EMPTY_SIDE_INFO,
    build_df,
    components,
    content_tokens,
    entity_link_equivalences,
    idf_weight,
    morph_equivalences,
    overlap_scores,
    ppdb_equivalences,
)

logger = logging.getLogger(__name__)

# threshold recorded for methods that cluster by equivalence rather than
# by a distance cutoff
NO_THRESHOLD = -1.0


class BaselineName(Enum):
    MORPH = "morph"
    PPDB = "ppdb"
    ENTLINK = "entlink"
    IDF_HAC = "idf_hac"
    STRSIM_HAC = "strsim_hac"
    ATTR_HAC = "attr_hac"
    WORDVEC_AVG = "wordvec_avg"
    HOLE_RANDOM = "hole_random"
    HOLE_PRETRAINED = "hole_pretrained"


_HAC_METHODS = {
    BaselineName.IDF_HAC,
    BaselineName.STRSIM_HAC,
    BaselineName.ATTR_HAC,
    BaselineName.WORDVEC_AVG,
    BaselineName.HOLE_RANDOM,
    BaselineName.HOLE_PRETRAINED,
}
# methods that read the word-vector table
VECTOR_BASELINES = {BaselineName.WORDVEC_AVG, BaselineName.HOLE_PRETRAINED}
_NP_ONLY = {BaselineName.ENTLINK, BaselineName.IDF_HAC, BaselineName.ATTR_HAC}


@dataclass
class BaselineConfig:
    name: BaselineName
    kind: PhraseKind = PhraseKind.NP
    threshold: float | None = None
    ppdb_confidence_min: float = 0.5
    hyperparams: HyperParams | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.threshold is not None and self.name not in _HAC_METHODS:
            raise ConfigError(f"{self.name.value} does not take a threshold")
        if self.hyperparams is not None and self.name not in (
            BaselineName.HOLE_RANDOM, BaselineName.HOLE_PRETRAINED
        ):
            raise ConfigError(f"{self.name.value} does not take hyperparams")
        if self.name in _NP_ONLY and self.kind is not PhraseKind.NP:
            raise ConfigError(f"{self.name.value} is defined for NPs only")


# ---------------------------------------------------------------------------
# similarity functions


# a block of `_jw_distances` holds _JW_BLOCK // (w1 + w2 + 8) pairs, at least
# one, for w1 and w2 its longest s1 and s2: its working arrays take at most
# about 9 bytes per pair and character, with the per-pair arrays as 8 more
# characters, so about 2.4 MB
_JW_BLOCK = 2**18
# the pairs `_length_pairs` hands on at a time, so that no step holds them all
_PAIR_CHUNK = 2**12
# The shared-character bound counts code points mod _JW_BUCKETS (a-z and the
# space stay apart). A pair is dropped only when its bound is below
# 1 - threshold by more than _JW_SLACK, which absorbs the float rounding of
# the bound and of the score.
_JW_BUCKETS = 32
_JW_SLACK = 1e-9


class _Texts(NamedTuple):
    """Texts as code points: row k of ``codes`` holds the code points from
    position k of the concatenated texts, text t starts at ``starts[t]``
    and is ``lens[t]`` long, and ``ident[t]`` is the first position of a
    text equal to it."""
    codes: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    ident: np.ndarray


def _pack(texts: Sequence[str]) -> _Texts:
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    longest = int(lens.max(initial=1))
    codes = sliding_window_view(np.concatenate((
        np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<i4"),
        np.zeros(longest, dtype=np.int32))), longest)
    first: dict[str, int] = {}
    ident = np.array([first.setdefault(t, k) for k, t in enumerate(texts)], dtype=np.int64)
    return _Texts(codes, np.cumsum(lens) - lens, lens, ident)


def _jw_distances(texts: _Texts, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """1 - Jaro-Winkler similarity of each listed pair (i[k], j[k]), i < j,
    with s1 the text i, and 0 for equal texts. The pairs are scored in
    order of s1 length, then of s2 length, longest first, in blocks sized
    to ``_JW_BLOCK`` by their own s1 and s2 widths: a long text widens
    only the blocks of its own pairs, and only on its own side."""
    n1, n2 = texts.lens[i], texts.lens[j]
    order = np.lexsort((-n2, -n1))
    n1, n2 = n1[order], n2[order]
    out = np.empty(len(order))
    lo = 0
    while lo < len(order):
        # the longest prefix of the pairs from lo on that the widths allow
        w2 = np.maximum.accumulate(n2[lo:lo + max(_JW_BLOCK // (n1[lo] + 8), 1)])
        cost = np.arange(1, len(w2) + 1) * (n1[lo] + w2 + 8)
        block = order[lo:lo + max(int(np.searchsorted(cost, _JW_BLOCK, side="right")), 1)]
        a, b = i[block], j[block]
        sim = _jaro_winkler_block(texts.codes, texts.starts, texts.lens, a, b)
        sim[texts.ident[a] == texts.ident[b]] = 1.0
        out[block] = 1.0 - sim
        lo += len(block)
    return out


def _length_pairs(lens: np.ndarray, ratio: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs i < j of positions whose shorter text is at least
    ``ratio`` (in [0, 1]) times as long as the longer, as (i, j) arrays of
    at most ``_PAIR_CHUNK`` pairs: row by row over the positions sorted
    longest first, each row paired with the rows after it, so that all
    the pairs of one text come together."""
    order = np.argsort(-lens, kind="stable")
    L = lens[order]
    # row r pairs with the rows after it whose texts are at least ratio·L[r] long
    counts = np.searchsorted(-L, -ratio * L, side="right") - np.arange(1, len(L) + 1)
    row_start = np.cumsum(counts) - counts
    total = int(counts.sum())
    for lo in range(0, total, _PAIR_CHUNK):
        k = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        r = np.searchsorted(row_start, k, side="right") - 1
        a, b = order[r], order[k - row_start[r] + r + 1]
        yield np.minimum(a, b), np.maximum(a, b)


def _jw_candidates(texts: _Texts, threshold: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(i, j) chunks, i < j, of the pairs of texts whose Jaro-Winkler
    distance an upper bound on their similarity cannot put above
    ``threshold``. JW <= 0.4 + 0.6·jaro, the prefix being at most 4, and
    jaro <= (c/n1 + c/n2 + 1)/3 for c the size of the shared multiset of
    the texts' characters, since m <= c; counting characters by bucket
    only raises c. A pair is dropped when 0.6 + 0.2·(c/n1 + c/n2) is
    below 1 - threshold by more than ``_JW_SLACK``; equal texts, two empty
    ones included, are always kept. As c <= min(n1, n2), only pairs of
    texts of similar length are counted."""
    lens = texts.lens
    need = (0.4 - threshold - _JW_SLACK) / 0.2  # what c/n1 + c/n2 must reach
    if need <= 0.0:  # the bound drops no pair: all go on uncounted
        yield from _length_pairs(lens, 0.0)
        return
    n = len(lens)
    owner = np.repeat(np.arange(n), lens)
    counts = np.bincount(owner * _JW_BUCKETS + texts.codes[:len(owner), 0] % _JW_BUCKETS,
                         minlength=n * _JW_BUCKETS).reshape(n, _JW_BUCKETS)
    counts = counts.astype(np.min_scalar_type(lens.max(initial=0)))
    for i, j in _length_pairs(lens, min(max(need - 1.0, 0.0), 1.0)):
        c = np.minimum(counts[i], counts[j]).sum(axis=1)
        keep = c / np.maximum(lens[i], 1) + c / np.maximum(lens[j], 1) >= need
        keep |= texts.ident[i] == texts.ident[j]
        yield i[keep], j[keep]


def jaro_winkler_pairs(texts: Sequence[str], threshold: float) -> PairChunks:
    """The `PairChunks` of the pairs a < b of ``texts`` at distance d =
    1 - Jaro-Winkler similarity <= threshold, scored among the
    `_jw_candidates` only. The Winkler prefix boost (prefix capped at 4,
    factor 0.1) is unconditional; equal texts score 1, an empty text
    against a non-empty one 0. Texts compare by code point, and d is the
    IEEE result of the scalar formula with s1 the text first in ``texts``.
    Chunks and blocks are bounded, so memory grows neither with n nor
    with the length of a text."""
    packed = _pack(texts)
    for i, j in _jw_candidates(packed, threshold):
        d = _jw_distances(packed, i, j)
        near = d <= threshold
        yield i[near], j[near], d[near]


def _jaro_winkler_block(codes: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                        i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Jaro-Winkler similarity of the texts ``i`` and ``j`` (code points in
    ``codes`` from ``starts``, ``lens`` long), pair by pair."""
    n1, n2 = lens[i], lens[j]
    # a row of the view runs on into the next text: pad with -1 instead
    s1 = codes[starts[i], :n1.max(initial=0)]
    s1[np.arange(s1.shape[1]) >= n1[:, None]] = -1
    s2 = codes[starts[j], :n2.max(initial=1)]  # at least one column for argmax
    window = np.maximum(np.maximum(n1, n2) // 2 - 1, 0)[:, None]
    pos2 = np.arange(s2.shape[1])
    # padding is never free, so it is never matched
    free = pos2 < n2[:, None]
    s2[~free] = -1
    matched2 = free.copy()  # until the XOR with what stays free
    matched1 = np.zeros(s1.shape, dtype=bool)
    rows = np.arange(len(i))
    for p in range(s1.shape[1]):
        # s1's padding (-1) equals only s2's padding, which is never free
        cand = s2 == s1[:, p, None]
        cand &= free
        cand &= np.abs(pos2 - p) <= window
        q = cand.argmax(axis=1)
        hit = cand[rows, q]
        free[rows[hit], q[hit]] = False
        matched1[:, p] = hit
    matched2 ^= free
    m = matched1.sum(axis=1)
    # a boolean mask reads row by row, so both sides' matched characters
    # line up: the k-th matched character of s1 against that of s2
    differ = s1[matched1] != s2[matched2]
    t = np.bincount(np.repeat(rows, m)[differ], minlength=len(i)) // 2
    # the padding ends a common prefix at the shorter text (between equal
    # texts it runs on, but they score 1 anyway)
    k = min(4, s1.shape[1], s2.shape[1])
    prefix = np.logical_and.accumulate(s1[:, :k] == s2[:, :k], axis=1).sum(axis=1)
    mf = m.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (mf / n1 + mf / n2 + (mf - t) / mf) / 3.0
    jw = jaro + prefix * 0.1 * (1.0 - jaro)
    return np.where(m == 0, 0.0, jw)


def overlap_distances(name: BaselineName, kb: OpenKB
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, d) for every pair of NP positions a < b that share a
    feature, d = 1 - `overlap_scores`: for IDF_HAC the features are the
    content tokens, weighted by `idf_weight`, and for ATTR_HAC the
    unweighted (position, relation, other NP) attributes, one per subject
    and one per object occurrence, as integers read from ``kb.spo``. Every
    other pair scores 0, a distance of 1."""
    n = kb.n_nps
    if name is BaselineName.IDF_HAC:
        df = build_df(kb)
        tokens: dict[str, int] = {}
        pos, key = [], []
        for p in kb.np_vocab:
            for t in content_tokens(p.text):
                pos.append(p.id)
                key.append(tokens.setdefault(t, len(tokens)))
        a, b, score = overlap_scores(n, pos, key, [idf_weight(t, df) for t in tokens])
    else:
        s, r, o = kb.spo
        # ("s", r, o) of a subject and ("o", r, s) of an object
        a, b, score = overlap_scores(n, np.concatenate((s, o)),
                                     np.concatenate(((r * n + o) * 2, (r * n + s) * 2 + 1)))
    return a, b, np.subtract(1.0, score, out=score)


# ---------------------------------------------------------------------------
# shared helpers


def train_structure_only(kb: OpenKB, h: HyperParams,
                         word_vectors: WordVectors | None = None) -> EmbeddingSet:
    """Ranking-loss-only training: the embedding trainer with an empty
    side-information collection (all side penalties vanish)."""
    init = init_embeddings(kb, word_vectors, h.dim, default_init_rng(h.seed))
    return train(kb, EMPTY_SIDE_INFO, h, init)


def tune_threshold_on_matrix(ids: Sequence[int], D: np.ndarray, gold: GoldClustering,
                             grid: Sequence[float] = DEFAULT_THRESHOLD_GRID) -> float:
    """The threshold `tune_threshold` tunes on the validation phrases' D."""
    return tune_threshold(ids, D, gold, grid)[0]


def _freq_clustering(kb: OpenKB, kind: PhraseKind, member_sets,
                     threshold: float) -> Clustering:
    """Clusters ordered by smallest member, each represented by its most
    frequent member (ties by smallest text, then id)."""
    vocab = kb.vocab(kind)
    clusters = tuple(
        Cluster(members=ms, representative=min(
            ms, key=lambda i: (-vocab[i].frequency, vocab[i].text, i)))
        for ms in sorted((frozenset(m) for m in member_sets), key=min))
    return Clustering(kind=kind, clusters=clusters, threshold_used=threshold)


# ---------------------------------------------------------------------------
# dispatch


def run_baseline(cfg: BaselineConfig, kb: OpenKB, *, ppdb_file=None,
                 word_vectors: WordVectors | None = None,
                 validation_gold: GoldClustering | None = None,
                 grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
                 validation_ids: Sequence[int] = ()) -> Clustering:
    """Run one comparison method and return its Clustering. A HAC method
    without a threshold tunes one as the system does, on the distances of
    the ascending ``validation_ids`` scored against ``validation_gold``,
    and cuts the whole vocabulary there; without a threshold or both of
    those, or with an input missing, a method fails before work. The
    similarity methods build no n×n D: each lists the pairs that have a
    distance, 1 at every other pair, tunes on the `pair_triangle` of the
    validation positions' pairs and cuts with `hac_from_pairs`.
    `strsim_hac` lists its `jaro_winkler_pairs` within the threshold (from
    1 on, its cut scores none), `idf_hac` and `attr_hac` the pairs that
    share a key (`overlap_distances`). ``word_vectors`` is a
    `load_word_vectors` table, which `wordvec_avg` and `hole_pretrained`
    need."""
    cfg.validate()
    kind = cfg.kind
    vocab = kb.vocab(kind)
    name = cfg.name
    threshold = cfg.threshold
    if name in _HAC_METHODS and threshold is None and not (validation_ids and validation_gold):
        raise ConfigError(f"{name.value} needs a threshold, or validation ids and gold to tune one")
    val = list(validation_ids)
    if name in VECTOR_BASELINES and word_vectors is None:
        raise ConfigError(f"{name.value} baseline needs a vectors_file")
    if name is BaselineName.PPDB and ppdb_file is None:
        raise ConfigError("ppdb baseline needs a ppdb_file")

    if name in (BaselineName.MORPH, BaselineName.PPDB, BaselineName.ENTLINK):
        if name is BaselineName.MORPH:
            pair_set = morph_equivalences(kb, kind)
        elif name is BaselineName.PPDB:
            pair_set = ppdb_equivalences(ppdb_file, cfg.ppdb_confidence_min, kb, kind)
        else:
            pair_set = entity_link_equivalences(kb)
        # connected components of the pairs, singletons elsewhere
        return _freq_clustering(kb, kind, components(len(vocab), pair_set.pairs), NO_THRESHOLD)

    if name in (BaselineName.STRSIM_HAC, BaselineName.IDF_HAC, BaselineName.ATTR_HAC):
        # the listed pairs of the validation positions (renumbered) and of all
        if threshold is None:
            upto = _tuning_bound(validation_gold, grid)  # before any pair is scored
        if name is BaselineName.STRSIM_HAC:
            texts = [p.text for p in vocab]
            val_pairs = partial(jaro_winkler_pairs, [texts[i] for i in val])
            pairs = partial(jaro_winkler_pairs, texts)
        else:
            a, b, d = overlap_distances(name, kb)

            def val_pairs(t: float) -> PairChunks:
                at = np.full(len(vocab), -1)
                at[val] = np.arange(len(val))
                both = (at[a] >= 0) & (at[b] >= 0)
                return [(at[a[both]], at[b[both]], d[both])]

            def pairs(t: float) -> PairChunks:
                return [(a, b, d)]
        if threshold is None:
            threshold = tune_threshold_on_matrix(
                val, pair_triangle(len(val), val_pairs(upto), 1.0), validation_gold, grid)
        member_sets = hac_from_pairs(range(len(vocab)), pairs(threshold), threshold, 1.0)
        return _freq_clustering(kb, kind, member_sets, threshold)

    if name is BaselineName.WORDVEC_AVG:
        table, d = word_vectors
        emb = average_word_vectors(kb, table, d, default_init_rng(cfg.seed))
    elif name in (BaselineName.HOLE_RANDOM, BaselineName.HOLE_PRETRAINED):
        emb = train_structure_only(
            kb, cfg.hyperparams or HyperParams(seed=cfg.seed),
            word_vectors if name is BaselineName.HOLE_PRETRAINED else None)
    else:
        raise ConfigError(f"unknown baseline: {name!r}")
    V = emb.vectors(kind)
    if threshold is None:
        threshold = choose_threshold(val, V[val], validation_gold, grid,
                                     labels=[vocab[i].text for i in val])[0]
    return cluster_phrases(kb, kind, V, threshold)
