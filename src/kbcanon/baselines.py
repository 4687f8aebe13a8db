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
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    Cluster,
    Clustering,
    Triangle,
    choose_threshold,
    cluster_phrases,
    hac_from_distance_matrix,
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


# a block of jaro_winkler_distances holds _JW_BLOCK // (w + 8) pairs, at least
# one, for w the longest text among its rows: its working arrays take about 25
# bytes per pair and character, with the per-pair arrays as 8 more characters
_JW_BLOCK = 2**17


def jaro_winkler_distances(texts: Sequence[str]) -> np.ndarray:
    """1 - Jaro-Winkler similarity for every pair of ``texts``, 0 on the
    diagonal. Jaro similarity gets the Winkler common-prefix boost (prefix
    length capped at 4, scaling factor 0.1) unconditionally; equal texts
    score 1 and an empty text against a non-empty one 0. Texts are compared
    by code point, as ``str`` compares them, and every value is the same
    IEEE result as the scalar formula with s1 the text that comes first
    in ``texts``. The pairs are scored in blocks sized to ``_JW_BLOCK``, so
    the memory beyond D does not grow with the length of a text."""
    n = len(texts)
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    # row k of the view: `longest` code points from position k of the texts
    longest = int(lens.max(initial=1))
    codes = sliding_window_view(np.concatenate((
        np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<i4"),
        np.zeros(longest, dtype=np.int32))), longest)
    starts = np.cumsum(lens) - lens
    first: dict[str, int] = {}
    ident = np.array([first.setdefault(t, k) for k, t in enumerate(texts)],
                     dtype=np.int64)
    # The pairs are walked row by row over the texts sorted longest first,
    # so a block is as wide as the text of its first row, not as the
    # longest text of all. row_start[r]: the index of the pair (r, r + 1).
    order = np.argsort(-lens, kind="stable")
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    pairs = n * (n - 1) // 2
    D = np.zeros((n, n))
    lo = 0
    while lo < pairs:
        width = lens[order[np.searchsorted(row_start, lo, side="right") - 1]]
        hi = min(lo + max(_JW_BLOCK // (width + 8), 1), pairs)
        k = np.arange(lo, hi)
        r = np.searchsorted(row_start, k, side="right") - 1
        a, b = order[r], order[k - row_start[r] + r + 1]
        i, j = np.minimum(a, b), np.maximum(a, b)
        sim = _jaro_winkler_block(codes, starts, lens, i, j)
        sim[ident[i] == ident[j]] = 1.0
        D[i, j] = D[j, i] = 1.0 - sim
        lo = hi
    return D


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
    those, or with an input missing, a method fails before work.
    `strsim_hac` builds the dense Jaro-Winkler D. `idf_hac` and
    `attr_hac` build none: they score the pairs that share a key
    (`overlap_distances`), tune on the `pair_triangle` of the validation
    positions' pairs, 1 where no key is shared, and cut with
    `hac_from_pairs`. ``word_vectors`` is a `load_word_vectors` table,
    which `wordvec_avg` and `hole_pretrained` need."""
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

    if name is BaselineName.STRSIM_HAC:
        D = jaro_winkler_distances([p.text for p in vocab])
        if threshold is None:
            threshold = tune_threshold_on_matrix(val, Triangle.of(D, val), validation_gold, grid)
        member_sets = hac_from_distance_matrix(range(len(vocab)), D, threshold)
        return _freq_clustering(kb, kind, member_sets, threshold)

    if name in (BaselineName.IDF_HAC, BaselineName.ATTR_HAC):
        a, b, d = overlap_distances(name, kb)
        if threshold is None:
            # the validation positions' pairs, renumbered in the ascending val
            at = np.full(len(vocab), -1)
            at[val] = np.arange(len(val))
            both = (at[a] >= 0) & (at[b] >= 0)
            threshold = tune_threshold_on_matrix(
                val, pair_triangle(len(val), at[a[both]], at[b[both]], d[both], 1.0),
                validation_gold, grid)
        member_sets = hac_from_pairs(range(len(vocab)), a, b, d, threshold, 1.0)
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
