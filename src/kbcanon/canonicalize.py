"""Clustering embeddings into canonical groups and rewriting the KB.

Complete-linkage hierarchical agglomerative clustering over cosine
distance (1 - cosine similarity). One loop, ``hac_merge_history``, merges
a distance matrix down to a single cluster with cached per-row nearest
neighbours (the "generic" algorithm of Müllner 2011) and records every
merge; ties break toward the pair with the lexicographically smallest
(minimum member id, minimum member id). Complete linkage has monotone
merge distances, so cutting that history at a threshold gives the same
partition as stopping the merges there: clustering at a threshold is one
cut, threshold selection cuts one history at every grid value, and a tuned
clustering (`tune_and_cut`) picks its threshold from that history and cuts
it there.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation, MetricsUndefinedError, ZeroVectorError
from .kb import GoldClustering, OpenKB, Phrase, PhraseKind, triple_record
from .metrics import evaluate
from .side_info import DisjointSet

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))


@dataclass(frozen=True)
class Cluster:
    members: frozenset[int]
    representative: int

    def __post_init__(self):
        if self.representative not in self.members:
            raise InvariantViolation("representative must be a cluster member")


@dataclass(frozen=True)
class Clustering:
    kind: PhraseKind
    clusters: tuple[Cluster, ...]
    threshold_used: float

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.clusters:
            if seen & c.members:
                raise InvariantViolation("clusters overlap")
            seen |= c.members

    def member_sets(self) -> list[frozenset[int]]:
        return [c.members for c in self.clusters]

    def representative_of(self) -> dict[int, int]:
        """Member id -> representative id."""
        return {m: c.representative for c in self.clusters for m in c.members}

    @property
    def n_elements(self) -> int:
        return sum(len(c.members) for c in self.clusters)


# ---------------------------------------------------------------------------
# distances


def cosine_distance_matrix(X: np.ndarray, labels: Sequence | None = None) -> np.ndarray:
    """Pairwise 1 - cosine similarity for the rows of X. Rows must be
    nonzero; offenders are named via ``labels`` when given."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        names = [labels[i] if labels is not None else int(i) for i in bad]
        raise ZeroVectorError(
            f"cosine distance undefined for zero vectors: {names[:10]}"
        )
    N = X / norms[:, None]
    G = N @ N.T
    return np.subtract(1.0, G, out=G)


# ---------------------------------------------------------------------------
# agglomeration

# Clusters live at matrix positions (row/column indices in the order the
# ids were given, which callers keep id-sorted); a merge keeps the smaller
# position, so position order equals minimum-member-id order. The working
# matrix M is the upper triangle of D mirrored into a symmetric copy, with
# +inf on the diagonal and on retired rows and columns.
#
# Each row caches its nearest neighbour: nn[k] is the first argmin of row k
# and nd[k] its distance. i = argmin(nd) is the smallest row holding the
# global minimum d, and j = nn[i] > i (a smaller j would hold d in its own
# row and win the argmin first), so each merge takes the smallest
# (distance, i, j), the same pair a flat row-major argmin over the upper
# triangle finds. A complete-linkage update only raises distances: the
# survivor's row and column become max(M[i], M[j]), and j's become inf.
# Another row's cached first argmin therefore stays exact unless it pointed
# at j, or pointed at i and the new distance to i exceeds it; only those
# rows are rescanned, the survivor's among them (nn[i] == j). A retired
# row caches nn = -1 and nd = inf, so it never matches again.


def hac_merge_history(D: np.ndarray) -> list[tuple[float, int, int]]:
    """Agglomerate to a single cluster, recording (distance, i, j) per
    merge with i < j as matrix positions. Complete linkage makes the
    recorded distances non-decreasing. D is read, never modified; only its
    upper triangle is used, and it must be square and finite."""
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not np.isfinite(D).all():
        raise ValueError("distance matrix must be finite")
    if n < 2:
        return []
    M = np.where(np.tri(n, k=-1, dtype=bool), D.T, D).astype(float, copy=False)
    np.fill_diagonal(M, np.inf)
    nn = M.argmin(axis=1)
    nd = M[np.arange(n), nn]
    history: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        i = int(nd.argmin())
        j = int(nn[i])
        history.append((float(nd[i]), i, j))
        new = np.maximum(M[i], M[j])
        nn[j], nd[j] = -1, np.inf
        rows = np.flatnonzero((nn == j) | ((nn == i) & (new > nd)))
        M[i], M[:, i] = new, new
        M[j], M[:, j] = np.inf, np.inf
        nn[rows] = M[rows].argmin(axis=1)
        nd[rows] = M[rows, nn[rows]]
    return history


def cut_history(
    ids: Sequence[int], history: Sequence[tuple[float, int, int]], threshold: float
) -> list[frozenset[int]]:
    """Partition from replaying merges with distance <= threshold."""
    dsu = DisjointSet()
    for pid in ids:
        dsu.find(pid)
    for dist, i, j in history:
        if dist > threshold:
            break
        dsu.union(ids[i], ids[j])
    return sorted((frozenset(g) for g in dsu.groups()), key=min)


def _check_ids(ids: Sequence[int], D: np.ndarray) -> None:
    if list(ids) != sorted(ids):
        raise ValueError("ids must be sorted ascending")
    if len(ids) != D.shape[0]:
        raise ValueError(f"{len(ids)} ids for a distance matrix of {D.shape[0]} rows")


def hac_from_distance_matrix(
    ids: Sequence[int], D: np.ndarray, threshold: float
) -> list[frozenset[int]]:
    """Complete-linkage HAC over a precomputed distance matrix: a cut of
    the merge history at the threshold, which equals stopping the merges
    there because complete-linkage heights never decrease. ``ids`` label
    D's rows and must be sorted ascending so the tie-break is id-based."""
    return tune_and_cut(ids, D, threshold, None, ())[0]


def tune_and_cut(
    ids: Sequence[int], D: np.ndarray, threshold: float | None,
    validation_gold: GoldClustering | None, grid: Sequence[float],
) -> tuple[list[frozenset[int]], float]:
    """(partition, threshold): one merge history over D, cut at
    ``threshold`` or, when that is None, at the grid value `best_cut`
    tunes on the validation gold. ``ids`` label D's rows and must be
    sorted ascending so the tie-break is id-based."""
    _check_ids(ids, D)
    history = hac_merge_history(D)
    if threshold is None:
        threshold = best_cut(ids, history, validation_gold, grid)
    return cut_history(ids, history, threshold), threshold


def hac_complete_linkage(
    ids: Sequence[int], X: np.ndarray, threshold: float
) -> list[frozenset[int]]:
    """Cluster the rows of X, labelled by the ascending ``ids``, by cosine
    distance with complete linkage."""
    return hac_from_distance_matrix(ids, cosine_distance_matrix(X, labels=ids), threshold)


# ---------------------------------------------------------------------------
# threshold selection


def choose_threshold(
    ids: Sequence[int],
    X: np.ndarray,
    validation_gold: GoldClustering,
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """Pick the grid threshold maximizing the mean of macro, micro, and
    pairwise F1 on the validation phrases, the rows of X labelled by the
    ascending ``ids``; ties go to the smallest value. Clusterings whose
    scores are undefined count as 0."""
    if not ids:
        raise ConfigError("no vectors to cluster")
    D = cosine_distance_matrix(X, labels=ids)
    _check_ids(ids, D)
    return best_cut(ids, hac_merge_history(D), validation_gold, grid)


def best_cut(ids: Sequence[int], history: Sequence[tuple[float, int, int]],
             validation_gold: GoldClustering, grid: Sequence[float]) -> float:
    """The grid value whose cut of the merge history has the highest
    validation mean F1, ties to the smallest value; undefined scores count
    as 0. A missing or empty gold, or an empty grid, is a ConfigError."""
    if not validation_gold:
        raise ConfigError("validation gold is missing or empty")
    if not grid:
        raise ConfigError("threshold grid is empty")
    best_t, best_score = None, -1.0
    for t in sorted(grid):
        clusters = cut_history(ids, history, t)
        try:
            score = evaluate(clusters, validation_gold.assignment).mean_f1()
        except MetricsUndefinedError:
            score = 0.0
        if score > best_score:
            best_t, best_score = t, score
    logger.info("chose threshold %s (validation mean F1 %.4f)", best_t, best_score)
    return float(best_t)


# ---------------------------------------------------------------------------
# representatives and clustering assembly


def select_representative(
    members: Collection[int], vocab: Sequence[Phrase], V: np.ndarray
) -> int:
    """The member closest (by cosine) to the frequency-weighted mean of the
    cluster's vectors; ties break toward the smallest surface text. A
    member id is a position in ``vocab`` and a row of V."""
    if not members:
        raise ValueError("members must be non-empty")
    ids = sorted(members)
    if len(ids) == 1:
        return ids[0]
    X = V[ids]
    w = np.asarray([vocab[i].frequency for i in ids], dtype=float)
    mu = (w[:, None] * X).sum(axis=0) / w.sum()
    norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise ZeroVectorError("cluster contains a zero vector")
    mu_norm = np.linalg.norm(mu)
    if mu_norm == 0.0:
        sims = np.zeros(len(ids))
    else:
        sims = (X @ mu) / (norms * mu_norm)
    best = sims.max()
    candidates = [i for i, s in zip(ids, sims) if s == best]
    return min(candidates, key=lambda i: (vocab[i].text, i))


def build_clustering(
    member_sets: Iterable[Collection[int]],
    kind: PhraseKind,
    threshold: float,
    vocab: Sequence[Phrase],
    V: np.ndarray,
) -> Clustering:
    clusters = tuple(
        Cluster(members=frozenset(ms), representative=select_representative(ms, vocab, V))
        for ms in sorted((frozenset(m) for m in member_sets), key=min)
    )
    return Clustering(kind=kind, clusters=clusters, threshold_used=threshold)


def cluster_phrases(
    kb: OpenKB,
    kind: PhraseKind,
    V: np.ndarray,
    threshold: float | None,
    validation_gold: GoldClustering | None = None,
    grid: Sequence[float] = (),
) -> Clustering:
    """Complete-linkage HAC over the cosine distances of the kind's whole
    embedding matrix V (row i is phrase i), cut at ``threshold`` or, when
    None, at the grid value tuned on the validation gold (`tune_and_cut`);
    frequency-weighted representatives."""
    vocab = kb.vocab(kind)
    if len(V) != len(vocab):
        raise ValueError(f"{len(V)} vectors for the KB's {len(vocab)} {kind.value} phrases")
    member_sets, threshold = tune_and_cut(range(len(vocab)), cosine_distance_matrix(V),
                                          threshold, validation_gold, grid)
    return build_clustering(member_sets, kind, threshold, vocab, V)


# ---------------------------------------------------------------------------
# KB rewriting


@dataclass(frozen=True)
class CanonicalizedKB:
    """Rewritten triples plus the groups of triple_ids that collapsed onto
    the same canonical (subject, relation, object)."""

    records: tuple[dict, ...]
    duplicate_groups: tuple[tuple[int, ...], ...]


def canonicalize_kb(
    kb: OpenKB, np_clusters: Clustering, rel_clusters: Clustering
) -> CanonicalizedKB:
    """Rewrite every triple with its cluster representatives. Triple ids
    are preserved; distinct triples that collapse onto one canonical form
    are all emitted and reported as duplicate groups."""
    np_rep = np_clusters.representative_of()
    rel_rep = rel_clusters.representative_of()
    records = []
    by_canonical: dict[tuple[int, int, int], list[int]] = {}
    for t in kb.triples:
        for pid, rep in ((t.subject, np_rep), (t.object, np_rep)):
            if pid not in rep:
                raise InvariantViolation(f"NP {pid} not covered by the clustering")
        if t.relation not in rel_rep:
            raise InvariantViolation(f"REL {t.relation} not covered by the clustering")
        canon = (np_rep[t.subject], rel_rep[t.relation], np_rep[t.object])
        rec = triple_record(kb, t)
        rec["canonical_subject"] = kb.np_phrase(canon[0]).text
        rec["canonical_relation"] = kb.rel_phrase(canon[1]).text
        rec["canonical_object"] = kb.np_phrase(canon[2]).text
        records.append(rec)
        by_canonical.setdefault(canon, []).append(t.triple_id)
    duplicates = tuple(
        tuple(sorted(ids))
        for _, ids in sorted(by_canonical.items())
        if len(ids) > 1
    )
    return CanonicalizedKB(records=tuple(records), duplicate_groups=duplicates)


# ---------------------------------------------------------------------------
# serialization


def save_clusters(clustering: Clustering, kb: OpenKB, path) -> None:
    """One JSON record per cluster (representative, members, frequencies),
    ordered by smallest member id; byte-deterministic for a fixed input."""
    vocab = kb.vocab(clustering.kind)
    with Path(path).open("w", encoding="utf-8") as fh:
        for c in clustering.clusters:
            ids = sorted(c.members)
            rec = {
                "kind": clustering.kind.value,
                "representative": vocab[c.representative].text,
                "members": [vocab[i].text for i in ids],
                "frequencies": [vocab[i].frequency for i in ids],
                "threshold": clustering.threshold_used,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def save_canonicalized(result: CanonicalizedKB, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
