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
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    Cluster,
    Clustering,
    best_cut,
    build_clustering,
    cosine_distance_matrix,
    hac_from_distance_matrix,
    hac_merge_history,
)
from .embedding import (
    EmbeddingSet,
    HyperParams,
    default_init_rng,
    init_embeddings,
    load_word_vectors,
    train,
)
from .errors import ConfigError
from .kb import GoldClustering, OpenKB, PhraseKind
from .side_info import (
    EMPTY_SIDE_INFO,
    DisjointSet,
    build_df,
    content_tokens,
    entity_link_equivalences,
    idf_overlap_score,
    morph_equivalences,
    ppdb_equivalences,
    tokenize,
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


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro similarity with the Winkler common-prefix boost (prefix length
    capped at 4, scaling factor 0.1) applied unconditionally."""
    jaro = _jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1[:4], s2[:4]):
        if a != b:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _jaro(s1: str, s2: str) -> float:
    if s1 == s2:
        return 1.0
    n1, n2 = len(s1), len(s2)
    if n1 == 0 or n2 == 0:
        return 0.0
    window = max(max(n1, n2) // 2 - 1, 0)
    match1 = [False] * n1
    match2 = [False] * n2
    matches = 0
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(n2, i + window + 1)
        for j in range(lo, hi):
            if not match2[j] and s2[j] == ch:
                match1[i] = match2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    m1 = [ch for ch, m in zip(s1, match1) if m]
    m2 = [ch for ch, m in zip(s2, match2) if m]
    transpositions = sum(a != b for a, b in zip(m1, m2)) // 2
    m = float(matches)
    return (m / n1 + m / n2 + (m - transpositions) / m) / 3.0


def attribute_sets(kb: OpenKB) -> dict[int, frozenset[tuple[str, int, int]]]:
    """Per NP, the set of (position, relation, other NP) attributes it
    co-occurs with: subject occurrences yield ("s", r, o), object
    occurrences ("o", r, s)."""
    sets: dict[int, set] = {p.id: set() for p in kb.np_vocab}
    for t in kb.triples:
        sets[t.subject].add(("s", t.relation, t.object))
        sets[t.object].add(("o", t.relation, t.subject))
    return {pid: frozenset(s) for pid, s in sets.items()}


def attribute_overlap(a: int, b: int, kb: OpenKB) -> float:
    """Jaccard coefficient of the two NPs' attribute sets; 0 when the
    union is empty."""
    sets = attribute_sets(kb)
    return _jaccard(sets[a], sets[b])


def _jaccard(x: frozenset, y: frozenset) -> float:
    union = len(x | y)
    return len(x & y) / union if union else 0.0


def wordvec_phrase_embedding(
    phrase: str, word_vectors: Mapping[str, np.ndarray], d: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of the phrase tokens' vectors over tokens present in the
    table; phrases with no known token draw the same uniform fallback as
    embedding initialization."""
    found = [word_vectors[t] for t in tokenize(phrase) if t in word_vectors]
    if found:
        return np.mean(found, axis=0)
    bound = 0.1 / np.sqrt(d)
    return rng.uniform(-bound, bound, size=d)


# ---------------------------------------------------------------------------
# shared helpers


def train_structure_only(
    kb: OpenKB, h: HyperParams, vectors_file=None, log_file=None
) -> EmbeddingSet:
    """Ranking-loss-only training: the embedding trainer with an empty
    side-information collection (all side penalties vanish)."""
    init = init_embeddings(kb, vectors_file, h.dim, default_init_rng(h.seed))
    return train(kb, EMPTY_SIDE_INFO, h, init, log_file=log_file)


def tune_threshold_on_matrix(
    ids: Sequence[int],
    D: np.ndarray,
    gold: GoldClustering,
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """choose_threshold for a precomputed distance matrix."""
    if not gold.assignment:
        raise ConfigError("cannot tune a threshold without validation gold")
    return best_cut(ids, hac_merge_history(D), gold, grid)[0]


def _freq_representative(members, frequencies, texts) -> int:
    best = max(frequencies[i] for i in members)
    return min((i for i in members if frequencies[i] == best), key=lambda i: (texts[i], i))


def _equivalence_clustering(
    kb: OpenKB, kind: PhraseKind, pairs, threshold: float = NO_THRESHOLD
) -> Clustering:
    """Connected components of a pair set, singletons elsewhere; the
    representative is the most frequent member (ties by smallest text)."""
    vocab = kb.vocab(kind)
    freqs = {p.id: p.frequency for p in vocab}
    texts = {p.id: p.text for p in vocab}
    dsu = DisjointSet()
    for p in vocab:
        dsu.find(p.id)
    for a, b in pairs:
        dsu.union(a, b)
    clusters = tuple(
        Cluster(members=frozenset(g),
                representative=_freq_representative(g, freqs, texts))
        for g in sorted((sorted(g) for g in dsu.groups()), key=lambda g: g[0])
    )
    return Clustering(kind=kind, clusters=clusters, threshold_used=threshold)


def _hac_at_threshold(D: np.ndarray, ids: Sequence[int], cfg: BaselineConfig,
                      validation_gold: GoldClustering | None, grid: Sequence[float],
                      ) -> tuple[list[frozenset[int]], float]:
    """(member sets, threshold): complete-linkage HAC over ``D`` cut at the
    configured threshold, or at one tuned on the validation gold."""
    if cfg.threshold is not None:
        threshold = cfg.threshold
    elif validation_gold is not None:
        threshold = tune_threshold_on_matrix(ids, D, validation_gold, grid)
    else:
        raise ConfigError(
            f"{cfg.name.value} needs a threshold or validation gold to tune one"
        )
    return hac_from_distance_matrix(ids, D, threshold), threshold


def _similarity_hac(
    kb: OpenKB,
    kind: PhraseKind,
    D: np.ndarray,
    ids: Sequence[int],
    cfg: BaselineConfig,
    validation_gold: GoldClustering | None,
    grid: Sequence[float],
) -> Clustering:
    """HAC over 1 - similarity; representatives by frequency."""
    member_sets, threshold = _hac_at_threshold(D, ids, cfg, validation_gold, grid)
    vocab = kb.vocab(kind)
    freqs = {p.id: p.frequency for p in vocab}
    texts = {p.id: p.text for p in vocab}
    clusters = tuple(
        Cluster(members=ms, representative=_freq_representative(ms, freqs, texts))
        for ms in member_sets
    )
    return Clustering(kind=kind, clusters=clusters, threshold_used=threshold)


def _embedding_hac(
    kb: OpenKB,
    kind: PhraseKind,
    vectors: Mapping[int, np.ndarray],
    cfg: BaselineConfig,
    validation_gold: GoldClustering | None,
    grid: Sequence[float],
) -> Clustering:
    """HAC over cosine distance; representatives nearest the weighted mean."""
    ids = sorted(vectors)
    X = np.stack([vectors[i] for i in ids])
    D = cosine_distance_matrix(X, labels=ids)
    member_sets, threshold = _hac_at_threshold(D, ids, cfg, validation_gold, grid)
    vocab = kb.vocab(kind)
    freqs = {p.id: p.frequency for p in vocab}
    texts = {p.id: p.text for p in vocab}
    return build_clustering(member_sets, kind, threshold, freqs, vectors, texts)


# ---------------------------------------------------------------------------
# dispatch


def run_baseline(
    cfg: BaselineConfig,
    kb: OpenKB,
    *,
    ppdb_file=None,
    vectors_file=None,
    validation_gold: GoldClustering | None = None,
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> Clustering:
    """Run one comparison method and return its Clustering."""
    cfg.validate()
    kind = cfg.kind
    vocab = kb.vocab(kind)
    name = cfg.name

    if name is BaselineName.MORPH:
        return _equivalence_clustering(kb, kind, morph_equivalences(kb, kind).pairs)

    if name is BaselineName.PPDB:
        if ppdb_file is None:
            raise ConfigError("ppdb baseline needs a ppdb_file")
        pair_set = ppdb_equivalences(ppdb_file, cfg.ppdb_confidence_min, kb, kind)
        return _equivalence_clustering(kb, kind, pair_set.pairs)

    if name is BaselineName.ENTLINK:
        return _equivalence_clustering(kb, kind, entity_link_equivalences(kb).pairs)

    ids = sorted(p.id for p in vocab)

    if name is BaselineName.IDF_HAC:
        df = build_df(kb)
        toks = {p.id: content_tokens(p.text) for p in vocab}
        D = np.zeros((len(ids), len(ids)))
        for (i, a), (j, b) in combinations(enumerate(ids), 2):
            dist = 1.0 - idf_overlap_score(toks[a], toks[b], df)
            D[i, j] = D[j, i] = dist
        return _similarity_hac(kb, kind, D, ids, cfg, validation_gold, grid)

    if name is BaselineName.STRSIM_HAC:
        texts = {p.id: p.text for p in vocab}
        D = np.zeros((len(ids), len(ids)))
        for (i, a), (j, b) in combinations(enumerate(ids), 2):
            dist = 1.0 - jaro_winkler(texts[a], texts[b])
            D[i, j] = D[j, i] = dist
        return _similarity_hac(kb, kind, D, ids, cfg, validation_gold, grid)

    if name is BaselineName.ATTR_HAC:
        sets = attribute_sets(kb)
        D = np.zeros((len(ids), len(ids)))
        for (i, a), (j, b) in combinations(enumerate(ids), 2):
            dist = 1.0 - _jaccard(sets[a], sets[b])
            D[i, j] = D[j, i] = dist
        return _similarity_hac(kb, kind, D, ids, cfg, validation_gold, grid)

    if name is BaselineName.WORDVEC_AVG:
        if vectors_file is None:
            raise ConfigError("wordvec_avg baseline needs a vectors_file")
        _, d = load_word_vectors(vectors_file)
        emb = init_embeddings(kb, vectors_file, d, default_init_rng(cfg.seed))
        V = emb.vectors(kind)
        vectors = {i: V[i] for i in ids}
        return _embedding_hac(kb, kind, vectors, cfg, validation_gold, grid)

    if name in (BaselineName.HOLE_RANDOM, BaselineName.HOLE_PRETRAINED):
        h = cfg.hyperparams or HyperParams(seed=cfg.seed)
        file = None
        if name is BaselineName.HOLE_PRETRAINED:
            if vectors_file is None:
                raise ConfigError("hole_pretrained baseline needs a vectors_file")
            file = vectors_file
        emb = train_structure_only(kb, h, vectors_file=file)
        V = emb.vectors(kind)
        vectors = {i: V[i] for i in ids}
        return _embedding_hac(kb, kind, vectors, cfg, validation_gold, grid)

    raise ConfigError(f"unknown baseline: {name!r}")
