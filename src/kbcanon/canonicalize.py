"""Clustering embeddings into canonical groups and rewriting the KB.

Complete-linkage hierarchical agglomerative clustering over cosine
distance (1 - cosine similarity). Merging proceeds while the smallest
inter-cluster distance stays within the threshold; ties break toward the
pair with the lexicographically smallest (minimum member id, minimum
member id). Complete linkage has monotone merge distances, so stopping at
the threshold and cutting a full dendrogram at the same height coincide;
threshold selection exploits that by agglomerating once and cutting the
recorded merge history at every grid value.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation, MetricsUndefinedError, ZeroVectorError
from .kb import GoldClustering, OpenKB, PhraseKind, triple_record
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
    return 1.0 - N @ N.T


# ---------------------------------------------------------------------------
# agglomeration

# Clusters live at matrix positions (row/column indices in the order the
# ids were given, which callers keep id-sorted). Only the upper triangle
# holds live distances; the diagonal and lower triangle stay at +inf so a
# flat row-major argmin lands on the smallest live (i, j) with i < j, which
# is exactly the tie-break: positions are id-ordered and a merge keeps the
# smaller position, so position order equals minimum-member-id order.


def _prepare(D: np.ndarray) -> np.ndarray:
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("distance matrix must be square")
    M = D.astype(float, copy=True)
    M[np.tril_indices(n)] = np.inf
    return M


def _pair_distances(M: np.ndarray, i: int) -> np.ndarray:
    """Distances between position i and every other position, reading
    whichever triangle entry is live."""
    n = M.shape[0]
    k = np.arange(n)
    return np.where(k < i, M[:, i], M[i, :])


def _merge_step(M: np.ndarray, i: int, j: int) -> None:
    """Complete-linkage update: survivor i absorbs j; distances to i become
    the max of the two old distances; row/column j is retired."""
    new = np.maximum(_pair_distances(M, i), _pair_distances(M, j))
    M[i, i + 1:] = new[i + 1:]
    M[:i, i] = new[:i]
    M[j, :] = np.inf
    M[:, j] = np.inf


def hac_merge_history(D: np.ndarray) -> list[tuple[float, int, int]]:
    """Agglomerate to a single cluster, recording (distance, i, j) per
    merge with i < j as matrix positions. Complete linkage makes the
    recorded distances non-decreasing."""
    M = _prepare(D)
    n = M.shape[0]
    history: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        flat = int(np.argmin(M))
        i, j = divmod(flat, n)
        history.append((float(M[i, j]), i, j))
        _merge_step(M, i, j)
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


def hac_from_distance_matrix(
    ids: Sequence[int], D: np.ndarray, threshold: float
) -> list[frozenset[int]]:
    """Complete-linkage HAC over a precomputed distance matrix; merging
    stops once the minimum inter-cluster distance exceeds the threshold.
    ``ids`` must be sorted ascending so the tie-break is id-based."""
    if list(ids) != sorted(ids):
        raise ValueError("ids must be sorted ascending")
    n = len(ids)
    if n == 0:
        return []
    M = _prepare(D)
    members: dict[int, list[int]] = {i: [ids[i]] for i in range(n)}
    for _ in range(n - 1):
        flat = int(np.argmin(M))
        i, j = divmod(flat, n)
        if not np.isfinite(M[i, j]) or M[i, j] > threshold:
            break
        members[i].extend(members.pop(j))
        _merge_step(M, i, j)
    return sorted((frozenset(g) for g in members.values()), key=min)


def hac_complete_linkage(
    vectors: Mapping[int, np.ndarray], threshold: float
) -> list[frozenset[int]]:
    """Cluster phrase vectors by cosine distance with complete linkage."""
    ids = sorted(vectors)
    if not ids:
        return []
    X = np.stack([vectors[i] for i in ids])
    D = cosine_distance_matrix(X, labels=ids)
    return hac_from_distance_matrix(ids, D, threshold)


# ---------------------------------------------------------------------------
# threshold selection


def choose_threshold(
    vectors: Mapping[int, np.ndarray],
    validation_gold: GoldClustering,
    grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
) -> float:
    """Pick the grid threshold maximizing the mean of macro, micro, and
    pairwise F1 on the validation phrases; ties go to the smallest value.
    Clusterings whose scores are undefined count as 0."""
    if not grid:
        raise ConfigError("threshold grid is empty")
    if not validation_gold.assignment:
        raise ConfigError("validation gold is empty")
    ids = sorted(vectors)
    if not ids:
        raise ConfigError("no vectors to cluster")
    X = np.stack([vectors[i] for i in ids])
    D = cosine_distance_matrix(X, labels=ids)
    history = hac_merge_history(D)
    best_t, best_score = best_cut(ids, history, validation_gold, grid)
    logger.info("chose threshold %s (validation mean F1 %.4f)", best_t, best_score)
    return best_t


def best_cut(ids: Sequence[int], history: Sequence[tuple[float, int, int]],
             validation_gold: GoldClustering, grid: Sequence[float]) -> tuple[float, float]:
    """(threshold, score): the grid value whose cut of the merge history
    has the highest validation mean F1, ties to the smallest value;
    undefined scores count as 0."""
    best_t, best_score = None, -1.0
    for t in sorted(grid):
        clusters = cut_history(ids, history, t)
        try:
            score = evaluate(clusters, validation_gold.assignment).mean_f1()
        except MetricsUndefinedError:
            score = 0.0
        if score > best_score:
            best_t, best_score = t, score
    return float(best_t), best_score


# ---------------------------------------------------------------------------
# representatives and clustering assembly


def select_representative(
    members: Collection[int],
    frequencies: Mapping[int, int],
    vectors: Mapping[int, np.ndarray],
    texts: Mapping[int, str],
) -> int:
    """The member closest (by cosine) to the frequency-weighted mean of the
    cluster's vectors; ties break toward the smallest surface text."""
    if not members:
        raise ValueError("members must be non-empty")
    ids = sorted(members)
    if len(ids) == 1:
        return ids[0]
    X = np.stack([vectors[i] for i in ids])
    w = np.asarray([frequencies[i] for i in ids], dtype=float)
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
    return min(candidates, key=lambda i: (texts[i], i))


def build_clustering(
    member_sets: Iterable[Collection[int]],
    kind: PhraseKind,
    threshold: float,
    frequencies: Mapping[int, int],
    vectors: Mapping[int, np.ndarray],
    texts: Mapping[int, str],
) -> Clustering:
    clusters = tuple(
        Cluster(
            members=frozenset(ms),
            representative=select_representative(ms, frequencies, vectors, texts),
        )
        for ms in sorted((frozenset(m) for m in member_sets), key=min)
    )
    return Clustering(kind=kind, clusters=clusters, threshold_used=threshold)


def cluster_phrases(
    kb: OpenKB,
    kind: PhraseKind,
    vectors: Mapping[int, np.ndarray],
    threshold: float,
) -> Clustering:
    """HAC over the given phrase vectors, assembled into a Clustering with
    frequency-weighted representatives."""
    member_sets = hac_complete_linkage(vectors, threshold)
    vocab = kb.vocab(kind)
    freqs = {p.id: p.frequency for p in vocab}
    texts = {p.id: p.text for p in vocab}
    return build_clustering(member_sets, kind, threshold, freqs, vectors, texts)


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
    vocab = {p.id: p for p in kb.vocab(clustering.kind)}
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
