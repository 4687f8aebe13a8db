"""Clustering embeddings into canonical groups and rewriting the KB.

Complete-linkage hierarchical agglomerative clustering over cosine
distance (1 - cosine similarity). One loop, `_merge`, merges a distance
matrix held as its packed upper triangle (`Triangle`, n(n-1)/2 values)
with cached per-row nearest neighbours (the "generic" algorithm of
Müllner 2011) and records every merge, up to the highest threshold its
caller reads; ties break toward the pair with the lexicographically
smallest (minimum member id, minimum member id). Complete linkage has
monotone merge distances, so cutting that history at a threshold gives
the same partition as stopping the merges there.

A fixed-threshold cut runs the loop one connected component at a time,
on the graph whose edges join positions a < b when D[a, b] <= t. That is
exact: (i) every pair inside a cluster formed at height <= t is at
distance <= t, so the cluster lies inside one component; (ii) the
linkage between clusters of different components is > t, so a merge in
one component never changes another's merges up to t; (iii) a component
keeps its positions in id order, so ties break as they do in the whole
matrix. The partition is the union of the component cuts. Singletons
need no matrix and a pair is one merge; a larger component agglomerates
its own triangle. A corollary: replacing any entry above t by another
value above t leaves the cut unchanged, so a component's triangle may
hold its edges' distances and a finite sentinel above t everywhere else.

One edge-list cut, `_cut_edges`, serves all three distance sources: it
links the edges (the pairs at distance <= t, with their distances),
builds each component's triangle from them with the sentinel just above
t, and agglomerates it, so no cut holds an n×n array beyond its input.
`hac_complete_linkage` finds its edges one row block at a time,
computing each block from its diagonal on, 1 - N[r0:r1] @ N[r0:].T for
the unit rows N, the way `cosine_distance_matrix` computes its rows, so
both read the same bits, and keeps each edge as an int32 index into its
block and its distance, 12 bytes. `hac_from_distance_matrix` scans the
same row blocks of a dense D into the same edges. `hac_from_pairs` cuts
distances listed only at some pairs, in `PairChunks`, and 1 at every
other pair: the overlap baselines list the pairs that share a key, and
the Jaro-Winkler baseline the pairs within t, since by the corollary a
pair above t may sit at 1 instead. Its edges are the listed pairs at
distance <= t; from t >= 1 on the cut is one cluster and reads no pair.

Every method tunes its threshold (`tune_threshold`) on one history over
the validation phrases (`hac_merge_history`), which `best_cut` replays
once, scoring every grid value on the way. The history is merged in the
packed triangle of their distances, built for the call with no square
matrix, by `cosine_triangle` from the same row blocks or by
`pair_triangle` from the baselines' listed pairs (within the grid's top,
by the corollary), so tuning holds half of one n×n float64 array:
7.0 MB against 14.0 MB at 1,322 validation phrases, and 202 MB against
404 MB at the 7,105 validation NPs of the 15,000-NP top rung.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import takewhile
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolation, ZeroVectorError
from .kb import GoldClustering, OpenKB, Phrase, PhraseKind, triple_record, write_jsonl
from .metrics import MetricsReport, table_report
from .side_info import components, groups, link

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
# (a, b, d) chunks: the distance d[k] of each position pair (a[k], b[k]), a < b
PairChunks = Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]


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


class Triangle:
    """A symmetric n×n distance matrix stored as its row-major upper
    triangle: the n(n-1)/2 float64 distances of the position pairs a < b,
    the pair (a, b) at a·n - a(a+1)/2 + b - a - 1 (the order of scipy's
    condensed form), half the memory of the square. ``shape`` is the
    square's, (n, n)."""

    def __init__(self, n: int, values: np.ndarray | None = None):
        self.n = n
        self.values = np.empty(n * (n - 1) // 2) if values is None else values

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def row(self, a: int) -> np.ndarray:
        """The distances of the pairs (a, b), b > a, in b order: a view."""
        start = a * (2 * self.n - a - 1) // 2
        return self.values[start:start + self.n - a - 1]

    @classmethod
    def of(cls, D: np.ndarray) -> Triangle:
        """The upper triangle of the square D, gathered a row at a time, so
        no square copy is made."""
        T = cls(len(D))
        for a in range(len(D)):
            T.row(a)[:] = D[a, a + 1:]
        return T


def _unit_rows(X: np.ndarray, labels: Sequence | None = None) -> np.ndarray:
    """The rows of X scaled to unit length. Rows must be nonzero;
    offenders are named via ``labels`` when given."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        names = [labels[i] if labels is not None else int(i) for i in bad]
        raise ZeroVectorError(
            f"cosine distance undefined for zero vectors: {names[:10]}"
        )
    return X / norms[:, None]


# Entries of an n×n matrix that one row block covers: the temporaries of a
# block-wise pass stay a few MB whatever n is. BLAS multiplies thin blocks
# slowly, so a block has at least _MIN_ROWS rows (not 17 at 15K rows).
_BLOCK = 1 << 18
_MIN_ROWS = 64


def _row_blocks(n: int) -> Iterable[tuple[int, int]]:
    """(r0, r1) of each row block of an n-row matrix, in order."""
    step = max(_MIN_ROWS, _BLOCK // max(n, 1))
    return ((r0, min(r0 + step, n)) for r0 in range(0, n, step))


def _cosine_rows(N: np.ndarray, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows r0:r1 of the cosine distances of the unit rows N from column
    r0 on, 1 - N[r0:r1] @ N[r0:].T, written into ``out`` when given. BLAS
    may round a product of some rows differently from a product of
    others, so every cosine distance in this module is computed by this
    call over `_row_blocks`: the cosine cut and `cosine_triangle` then
    read the bits of `cosine_distance_matrix`, whatever the block size or
    thread count."""
    G = np.matmul(N[r0:r1], N[r0:].T, out=out)
    return np.subtract(1.0, G, out=G)


def cosine_distance_matrix(X: np.ndarray, labels: Sequence | None = None) -> np.ndarray:
    """Pairwise 1 - cosine similarity for the rows of X. Rows must be
    nonzero; offenders are named via ``labels`` when given. Each row
    block is computed from its diagonal on and mirrored to the left."""
    N = _unit_rows(X, labels)
    D = np.empty((len(N), len(N)))
    for r0, r1 in _row_blocks(len(N)):
        _cosine_rows(N, r0, r1, out=D[r0:r1, r0:])
        D[r0:r1, :r0] = D[:r0, r0:r1].T
    return D


def cosine_triangle(X: np.ndarray, labels: Sequence | None = None) -> Triangle:
    """`cosine_distance_matrix` as a packed `Triangle`, built from the
    same row blocks, so it holds the same bits in half the memory."""
    N = _unit_rows(X, labels)
    T = Triangle(len(N))
    for r0, r1 in _row_blocks(len(N)):
        block = _cosine_rows(N, r0, r1)
        for a in range(r0, r1):
            T.row(a)[:] = block[a - r0, a - r0 + 1:]
        del block  # before the next one is computed
    return T


# ---------------------------------------------------------------------------
# agglomeration

# Clusters live at matrix positions (row/column indices in the order the
# ids were given, which callers keep id-sorted); a merge keeps the smaller
# position, so position order equals minimum-member-id order. The loop
# merges in the packed upper triangle it is handed, where row k's pairs
# (k, b), b > k, are contiguous and column b's pairs (k, b), k < b, are
# gathered by index.
#
# Each row caches its nearest neighbour to the right: nn[k] is the first
# argmin of the live pairs (k, b), b > k, and nd[k] its distance. i =
# argmin(nd) is the smallest row holding the global minimum d and j =
# nn[i] the first column of that row holding it, so each merge takes the
# smallest (distance, i, j), the pair a flat row-major argmin over the
# upper triangle finds. A complete-linkage update only raises distances:
# the survivor's pairs become the maximum of its and j's. j is retired by
# writing +inf over its pairs (k, j), k < j, so no rescan finds it, and
# caching nn = -1, nd = inf; its own row is never read again. A row's
# cached first argmin therefore stays exact unless it pointed at j, or
# pointed at i and the new distance to i exceeds it; only those rows are
# rescanned, the survivor's among them (nn[i] == j). ``pointing[b]``
# holds the rows whose nn is b, so they are found without a scan.

def _check_square(D: np.ndarray) -> None:
    n = D.shape[0]
    if D.shape != (n, n):
        raise ValueError("distance matrix must be square")


def _check_finite(D: np.ndarray) -> None:
    if not np.isfinite(D).all():
        raise ValueError("distance matrix must be finite")


def _merge(T: Triangle, upto: float) -> list[tuple[float, int, int]]:
    """`hac_merge_history` of a finite packed triangle the caller hands
    over; the loop merges in it and overwrites it."""
    n, P = T.n, T.values
    if n < 2:
        return []
    # P[start[k]:start[k + 1]] is row k, and P[col[k] + b] the pair (k, b)
    start = [a * (2 * n - a - 1) // 2 for a in range(n + 1)]
    col = np.array(start[:n]) - np.arange(1, n + 1)
    nn = [-1] * n
    nd = np.full(n, np.inf)
    pointing = [set() for _ in range(n)]

    def rescan(k: int) -> None:
        row = P[start[k]:start[k + 1]]
        b = int(row.argmin())
        nn[k], nd[k] = k + 1 + b, row[b]
        pointing[k + 1 + b].add(k)

    for k in range(n - 1):
        rescan(k)
    history: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        i = int(nd.argmin())
        if nd[i] > upto:
            break
        j = nn[i]
        history.append((float(nd[i]), i, j))
        to_j = col[:j] + j  # the pairs (k, j), k < j
        if i:
            to_i = to_j[:i] - (j - i)  # the pairs (k, i), k < i
            P[to_i] = np.maximum(P[to_i], P[to_j[:i]])
        row_i = P[start[i]:start[i + 1]]
        if j > i + 1:
            between = row_i[:j - i - 1]
            np.maximum(between, P[to_j[i + 1:]], out=between)
        after = row_i[j - i:]
        np.maximum(after, P[start[j]:start[j + 1]], out=after)
        P[to_j] = np.inf
        if nn[j] >= 0:  # the last row has no pairs to point at
            pointing[nn[j]].discard(j)
        nn[j], nd[j] = -1, np.inf
        stale, pointing[j] = pointing[j], set()
        stale |= {k for k in pointing[i] if P[col[k] + i] > nd[k]}
        pointing[i] -= stale
        for k in stale:
            rescan(k)
    return history


def hac_merge_history(D: np.ndarray | Triangle,
                      upto: float = np.inf) -> list[tuple[float, int, int]]:
    """Agglomerate until the next merge is farther than ``upto`` (by
    default, to a single cluster), recording (distance, i, j) per merge
    with i < j as matrix positions: i and j are two live clusters'
    positions, each its smallest member's, and the merged cluster lives at
    i while j is never read again. Complete linkage makes the recorded
    distances non-decreasing, so the result is the full history's prefix
    of merges at distance <= upto. D must be finite and is either a
    `Triangle`, in which the merges are made, so it is overwritten, or a
    square matrix, of which only the upper triangle is read: it is packed
    into a new `Triangle`, half its size, and left untouched. A refused D
    is left untouched."""
    if isinstance(D, Triangle):
        _check_finite(D.values)
    else:
        _check_square(D)
        _check_finite(D)
        D = Triangle.of(D)
    return _merge(D, upto)


def cut_history(
    ids: Sequence[int], history: Sequence[tuple[float, int, int]], threshold: float
) -> list[frozenset[int]]:
    """Partition from replaying merges with distance <= threshold."""
    merges = takewhile(lambda merge: merge[0] <= threshold, history)
    return [frozenset(ids[x] for x in members)
            for members in components(len(ids), [(i, j) for _, i, j in merges])]


def _check_ids(ids: Sequence[int], n: int) -> None:
    if list(ids) != sorted(ids):
        raise ValueError("ids must be sorted ascending")
    if len(ids) != n:
        raise ValueError(f"{len(ids)} ids for a matrix of {n} rows")


def hac_from_distance_matrix(
    ids: Sequence[int], D: np.ndarray, threshold: float
) -> list[frozenset[int]]:
    """Complete-linkage HAC over a precomputed distance matrix, cut at the
    threshold one connected component at a time on its edges' distances
    and the sentinel (see the module docstring).
    ``ids`` label D's rows and must be sorted ascending so the tie-break
    is id-based. D is read, never written, and must be square and finite;
    only its upper triangle is used."""
    _check_ids(ids, D.shape[0])
    _check_square(D)

    def rows(r0: int, r1: int) -> np.ndarray:
        _check_finite(D[r0:r1, :r0])  # the scan checks the rest
        return D[r0:r1, r0:]

    return _cut_edges(ids, _threshold_edges(len(D), rows, threshold), threshold)


def hac_complete_linkage(
    ids: Sequence[int], X: np.ndarray, threshold: float, labels: Sequence | None = None
) -> list[frozenset[int]]:
    """Cluster the rows of X, labelled by the ascending ``ids``, by cosine
    distance with complete linkage, cut at the threshold one connected
    component at a time. The distances are `cosine_distance_matrix`'s,
    computed a row block at a time, and only those <= threshold are kept,
    so no n×n array is built (see the module docstring). A zero row is
    named by its ``labels`` entry (by default its id)."""
    N = _unit_rows(X, ids if labels is None else labels)
    _check_ids(ids, len(N))
    edges = _threshold_edges(len(N), lambda r0, r1: _cosine_rows(N, r0, r1), threshold)
    return _cut_edges(ids, edges, threshold)


def hac_from_pairs(ids: Sequence[int], pairs: PairChunks, threshold: float,
                   far: float) -> list[frozenset[int]]:
    """Complete-linkage HAC of the positions of the ascending ``ids`` over
    the distances of the pairs listed, each once, in the chunks ``pairs``
    and ``far`` (at least every listed distance) at every other pair, cut
    at the threshold one connected component at a time (see the module
    docstring); no n×n array is built. The edges, the listed pairs at
    distance <= threshold, are coded a·n + b in one int64 block. From
    ``far`` on the cut is one cluster, and ``pairs`` is not read."""
    n = len(ids)
    _check_ids(ids, n)
    if threshold >= far:
        return [frozenset(ids)] if n else []
    codes, dists = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for a, b, d in pairs:
        near = d <= threshold
        codes.append(a[near].astype(np.int64, copy=False) * n + b[near])
        dists.append(d[near])
    edges = [(0, np.concatenate(codes), np.concatenate(dists))]
    del codes, dists  # before the cut
    return _cut_edges(ids, edges, threshold)


def pair_triangle(n: int, pairs: PairChunks, far: float) -> Triangle:
    """The `Triangle` of the n×n distances of the pairs listed, each once,
    in the chunks ``pairs``, read one at a time, and ``far`` elsewhere."""
    return _edge_matrices(n, [list(range(n))], pairs, far)[0]


def _threshold_edges(n: int, rows, threshold: float) -> list:
    """The edges, a < b, at distance <= threshold of the n×n matrix whose
    rows r0:r1 from column r0 on `rows(r0, r1)` returns (each block is
    checked finite): one (r0, int32 flat indices into the block,
    distances) per row block holding any, 12 bytes an edge."""
    edges = []
    for r0, r1 in _row_blocks(n):
        block = rows(r0, r1)
        _check_finite(block)
        # row i, column j of the block is the pair (r0 + i, r0 + j): only
        # the first r1 - r0 columns hold pairs at or below the diagonal
        near = block <= threshold
        near[:, :r1 - r0] &= ~np.tri(r1 - r0, dtype=bool)
        near = np.flatnonzero(near)
        if near.size:
            edges.append((r0, near.astype(np.int32), block[np.divmod(near, n - r0)]))
        del block  # before the next one is computed
    return edges


def _block_edges(n: int, edges: list) -> PairChunks:
    """(a, b, d) position arrays of the row blocks' ``edges`` (see
    `_threshold_edges`), emptying the list last row block first: the later
    blocks hold fewer edges, so the index temporaries stay small beside
    the edges not yet decoded."""
    while edges:
        r0, near, d = edges.pop()
        a, b = np.divmod(near, n - r0)
        yield a + r0, b + r0, d


def _edge_matrices(n: int, found: list[list[int]], edges: PairChunks,
                   sentinel: float) -> list[Triangle]:
    """The packed working triangle of each component (ascending
    positions) in ``found``, with its values a view into one buffer: the
    distance d[k] of each of the (a, b, d) ``edges`` at its pair (a[k],
    b[k]), a < b, in the component, and ``sentinel`` everywhere else."""
    # the pair (a, b), a < b, of a component sits at base[a] + col[b]
    base = np.zeros(n, dtype=np.int64)
    col = np.zeros(n, dtype=np.int64)
    shapes = []
    total = 0
    for c in found:
        k = len(c)
        pos = np.arange(k)
        base[c] = total + pos * (2 * k - pos - 1) // 2 - pos - 1
        col[c] = pos
        shapes.append((total, k))
        total += k * (k - 1) // 2
    W = np.full(total, sentinel)
    for a, b, d in edges:
        W[base[a] + col[b]] = d
    return [Triangle(k, W[off:off + k * (k - 1) // 2]) for off, k in shapes]


def _cut_edges(ids: Sequence[int], edges: list, threshold: float) -> list[frozenset[int]]:
    """The cut at ``threshold`` of the positions of ``ids`` from the row
    blocks' ``edges`` (see `_threshold_edges`), all at distance <=
    threshold, which it empties: the edges link the components, each of
    two or more positions gets a triangle of its edges' distances and a
    sentinel just above the threshold, a pair is one merge, a larger
    component is agglomerated on its own, and all the merges go to one
    `cut_history` call."""
    n = len(ids)
    parent = np.arange(n)
    for r0, near, _ in edges:
        a, b = np.divmod(near, n - r0)
        link(parent, a + r0, b + r0)
        del a, b  # before the next block, or the triangles, are decoded
    found = [c for c in groups(parent) if len(c) > 1]
    matrices = _edge_matrices(n, found, _block_edges(n, edges), np.nextafter(threshold, np.inf))
    merges: list[tuple[float, int, int]] = []
    for c, T in zip(found, matrices):
        if len(c) == 2:
            merges.append((float(T.values[0]), c[0], c[1]))
        else:
            merges += [(d, c[i], c[j]) for d, i, j in _merge(T, threshold)]
    return cut_history(ids, merges, threshold)


# ---------------------------------------------------------------------------
# threshold selection


def tune_threshold(ids: Sequence[int], D: np.ndarray | Triangle,
                   validation_gold: GoldClustering,
                   grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
                   ) -> tuple[float, list[float], MetricsReport | None]:
    """`best_cut` of D's merge history up to the top of the grid, for D
    the distances of the validation phrases labelled by the ascending
    ``ids``: the grid threshold with the highest validation mean F1 (ties
    to the smallest value), that score at each grid value, and the report
    of the cut there. A one-value grid scores a fixed threshold. D is
    a square matrix or a `Triangle`, which `hac_merge_history` merges in
    and so overwrites: hand over a triangle built for the call."""
    if not ids:
        raise ConfigError("no phrases to tune a threshold on")
    upto = _tuning_bound(validation_gold, grid)
    _check_ids(ids, D.shape[0])
    return best_cut(ids, hac_merge_history(D, upto), validation_gold, grid)


def choose_threshold(ids: Sequence[int], X: np.ndarray, validation_gold: GoldClustering,
                     grid: Sequence[float] = DEFAULT_THRESHOLD_GRID,
                     labels: Sequence | None = None,
                     ) -> tuple[float, list[float], MetricsReport | None]:
    """`tune_threshold` on the `cosine_triangle` of the rows of X,
    labelled by the ascending ``ids``, after the gold and grid checks; a
    zero row is named by its ``labels`` entry (by default its id)."""
    _tuning_bound(validation_gold, grid)
    return tune_threshold(ids, cosine_triangle(X, labels=labels or ids), validation_gold, grid)


def _tuning_bound(validation_gold: GoldClustering | None, grid: Sequence[float]) -> float:
    """The highest grid value, the last threshold a tuned cut reads. A
    missing or empty gold, or an empty grid, is a ConfigError."""
    if not validation_gold:
        raise ConfigError("validation gold is missing or empty")
    if not grid:
        raise ConfigError("threshold grid is empty")
    return max(grid)


def best_cut(ids: Sequence[int], history: Sequence[tuple[float, int, int]],
             validation_gold: GoldClustering,
             grid: Sequence[float]) -> tuple[float, list[float], MetricsReport | None]:
    """(threshold, scores, report): the grid value whose cut of the merge
    history (as `hac_merge_history` records it) has the highest validation
    mean F1, ties to the smallest value, the mean F1 at each grid value in
    grid order, and the report of the chosen cut. Undefined scores count as
    0; when no id has a gold label every score is 0 and the report is None.
    A missing or empty gold, or an empty grid, is a ConfigError."""
    _tuning_bound(validation_gold, grid)
    ascending = sorted(grid)
    reports = dict(zip(ascending, _cut_reports(ids, history, validation_gold.assignment,
                                               ascending)))
    scores = {t: report.mean_f1() if report else 0.0 for t, report in reports.items()}
    best_t = max(ascending, key=scores.__getitem__)
    logger.info("chose threshold %s (validation mean F1 %.4f)", best_t, scores[best_t])
    return float(best_t), [scores[t] for t in grid], reports[best_t]


def _cut_reports(ids: Sequence[int], history: Sequence[tuple[float, int, int]],
                 gold: Mapping[int, str], thresholds: Sequence[float],
                 ) -> list[MetricsReport | None]:
    """``evaluate(cut_history(ids, history, t), gold)`` at each of the
    ascending ``thresholds``, from one replay of the history; None at
    every threshold when no id has a gold label.

    ``root`` holds, per labelled position, the position of its cluster,
    and ``members`` each cluster's indices into ``root``. A merge (d, i, j)
    joins the clusters at positions i and j into i, relabelling only j's
    members; `table_report` scores ``root`` as `evaluate` scores the cut."""
    labelled = [x for x, pid in enumerate(ids) if pid in gold]
    if not labelled:
        return [None] * len(thresholds)
    codes: dict[str, int] = {}
    labels = [codes.setdefault(gold[ids[x]], len(codes)) for x in labelled]
    root = np.asarray(labelled)
    members = {x: [k] for k, x in enumerate(labelled)}
    reports = []
    k = 0
    for t in thresholds:
        while k < len(history) and history[k][0] <= t:
            _, i, j = history[k]
            root[members.get(j, [])] = i
            members.setdefault(i, []).extend(members.pop(j, []))
            k += 1
        reports.append(table_report(root, labels))
    return reports


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


def cluster_phrases(kb: OpenKB, kind: PhraseKind, V: np.ndarray, threshold: float) -> Clustering:
    """`hac_complete_linkage` of the kind's whole embedding matrix V (row i
    is phrase i), cut at ``threshold``; frequency-weighted
    representatives."""
    vocab = kb.vocab(kind)
    if len(V) != len(vocab):
        raise ValueError(f"{len(V)} vectors for the KB's {len(vocab)} {kind.value} phrases")
    member_sets = hac_complete_linkage(range(len(vocab)), V, threshold,
                                       labels=[p.text for p in vocab])
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
    write_jsonl(path, ({
        "kind": clustering.kind.value,
        "representative": vocab[c.representative].text,
        "members": [vocab[i].text for i in ids],
        "frequencies": [vocab[i].frequency for i in ids],
        "threshold": clustering.threshold_used,
    } for c in clustering.clusters for ids in [sorted(c.members)]))


def save_canonicalized(result: CanonicalizedKB, path) -> None:
    write_jsonl(path, result.records)
