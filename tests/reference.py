"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas, favoring
obviousness over speed, and deliberately shares no non-trivial code with
the package under test.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from itertools import combinations
from math import comb
from typing import Collection, Hashable, Iterable, Mapping, Sequence

import numpy as np

from kbcanon.embedding import (
    NEGATIVE_RETRIES,
    EmbeddingSet,
    HyperParams,
    TrainingBatch,
    circular_correlation,
)
from kbcanon.errors import InvariantViolation, MetricsUndefinedError
from kbcanon.kb import OpenKB, PhraseKind, Triple, build_kb
from kbcanon.metrics import MetricsReport, harmonic_mean, restrict_to_gold
from kbcanon.side_info import (
    DocumentFrequency,
    EquivalencePairSet,
    SideInfoCollection,
    build_df,
    content_tokens,
    idf_overlap_score,
    make_pair_set,
    morph_normalize,
)


# ---------------------------------------------------------------------------
# complete-linkage agglomeration, the slow way


def naive_complete_linkage(
    ids: list[int], D: np.ndarray, threshold: float
) -> list[frozenset[int]]:
    """Agglomerate greedily, recomputing every cluster-pair distance from
    the raw point matrix each round. Complete linkage: the distance
    between clusters is the maximum over member pairs. Ties break on the
    lexicographically smallest sorted pair of cluster minima. Stops when
    the closest pair is farther than the threshold."""
    pos = {x: k for k, x in enumerate(ids)}
    clusters: list[set[int]] = [{x} for x in ids]
    while len(clusters) > 1:
        best = None
        for a, b in combinations(range(len(clusters)), 2):
            rows = [pos[x] for x in clusters[a]]
            cols = [pos[x] for x in clusters[b]]
            dist = float(D[np.ix_(rows, cols)].max())
            ma, mb = min(clusters[a]), min(clusters[b])
            key = (dist, min(ma, mb), max(ma, mb))
            if best is None or key < best[0]:
                best = (key, a, b)
        (dist, _, _), a, b = best
        if not math.isfinite(dist) or dist > threshold:
            break
        clusters[a] |= clusters[b]
        del clusters[b]
    return sorted((frozenset(c) for c in clusters), key=min)


# The package's original merge-history loop, kept verbatim: one flat
# row-major argmin over the upper triangle per merge, cubic overall. Only
# the upper triangle holds live distances; the diagonal and lower triangle
# stay at +inf, so the argmin lands on the smallest live (i, j) with i < j.


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


def reference_merge_history(D: np.ndarray) -> list[tuple[float, int, int]]:
    """Agglomerate to a single cluster, recording (distance, i, j) per
    merge with i < j as matrix positions."""
    M = _prepare(D)
    n = M.shape[0]
    history: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        flat = int(np.argmin(M))
        i, j = divmod(flat, n)
        history.append((float(M[i, j]), i, j))
        _merge_step(M, i, j)
    return history


# ---------------------------------------------------------------------------
# rule mining by direct double loop


def brute_force_rule_pairs(
    kb: OpenKB, support_min: int, confidence_min: float
) -> set[tuple[int, int]]:
    """Relation equivalences by explicitly materializing every relation's
    argument-pair set and testing both implication directions."""
    arg_pairs: dict[int, set[tuple[str, str]]] = {}
    for t in kb.triples:
        s = morph_normalize(kb.np_phrase(t.subject).text)
        o = morph_normalize(kb.np_phrase(t.object).text)
        arg_pairs.setdefault(t.relation, set()).add((s, o))
    out: set[tuple[int, int]] = set()
    rels = sorted(arg_pairs)
    for r1, r2 in combinations(rels, 2):
        shared = len(arg_pairs[r1] & arg_pairs[r2])
        if shared < support_min:
            continue
        conf_12 = shared / len(arg_pairs[r1])
        conf_21 = shared / len(arg_pairs[r2])
        if conf_12 >= confidence_min and conf_21 >= confidence_min:
            out.add((r1, r2))
    return out


# ---------------------------------------------------------------------------
# clustering metrics from the definitions


def brute_macro(clusters, gold) -> tuple[float, float]:
    C = [set(x for x in c if x in gold) for c in clusters]
    C = [c for c in C if c]
    E: dict[str, set] = {}
    for c in C:
        for x in c:
            E.setdefault(gold[x], set()).add(x)
    E_list = list(E.values())

    def purity_fraction(from_side, into_side):
        pure = sum(1 for c in from_side if any(c <= e for e in into_side))
        return pure / len(from_side)

    return purity_fraction(C, E_list), purity_fraction(E_list, C)


def brute_micro(clusters, gold) -> tuple[float, float]:
    C = [set(x for x in c if x in gold) for c in clusters]
    C = [c for c in C if c]
    E: dict[str, set] = {}
    for c in C:
        for x in c:
            E.setdefault(gold[x], set()).add(x)
    E_list = list(E.values())
    n = sum(len(c) for c in C)

    def plurality_sum(from_side, into_side):
        total = 0
        for c in from_side:
            total += max(len(c & e) for e in into_side)
        return total / n

    return plurality_sum(C, E_list), plurality_sum(E_list, C)


def brute_pairwise(clusters, gold) -> tuple[float | None, float | None]:
    """Enumerate every unordered element pair; a hit is co-clustered and
    co-labeled."""
    elements = sorted(
        {x for c in clusters for x in c if x in gold},
        key=lambda x: (str(type(x)), x),
    )
    cluster_of = {}
    for k, c in enumerate(clusters):
        for x in c:
            if x in gold:
                cluster_of[x] = k
    hits = same_cluster = same_gold = 0
    for a, b in combinations(elements, 2):
        co_clustered = cluster_of[a] == cluster_of[b]
        co_labeled = gold[a] == gold[b]
        same_cluster += co_clustered
        same_gold += co_labeled
        hits += co_clustered and co_labeled
    p = hits / same_cluster if same_cluster else None
    r = hits / same_gold if same_gold else None
    return p, r


# The package's original evaluation, kept verbatim: it builds the gold
# partition and calls three scorers, each of which re-indexes and
# re-checks both partitions, where the package reads every score off
# one contingency table.


def gold_partition(
    gold: Mapping[int, str], elements: Collection[int]
) -> list[frozenset[int]]:
    """Gold clusters over the given elements, grouped by label."""
    by_label = defaultdict(set)
    for x in elements:
        by_label[gold[x]].add(x)
    return [frozenset(s) for _, s in sorted(by_label.items())]


def _element_index(partition: Sequence[Collection[int]], name: str) -> dict[int, int]:
    index: dict[int, int] = {}
    for i, part in enumerate(partition):
        for x in part:
            if x in index:
                raise InvariantViolation(f"{name} is not a partition: {x} repeats")
            index[x] = i
    return index


def _check_same_elements(C, E) -> tuple[dict[int, int], dict[int, int]]:
    c_index = _element_index(C, "predicted clustering")
    e_index = _element_index(E, "gold clustering")
    if set(c_index) != set(e_index):
        raise InvariantViolation(
            "predicted and gold clusterings cover different element sets"
        )
    return c_index, e_index


def macro_scores(
    C: Sequence[Collection[int]], E: Sequence[Collection[int]]
) -> tuple[float, float]:
    """P = fraction of predicted clusters contained in some gold cluster;
    R = the same with roles swapped."""
    if not C or not E:
        raise MetricsUndefinedError("macro scores need non-empty clusterings")
    c_index, e_index = _check_same_elements(C, E)
    pure_c = sum(1 for c in C if len({e_index[x] for x in c}) == 1)
    pure_e = sum(1 for e in E if len({c_index[x] for x in e}) == 1)
    return pure_c / len(C), pure_e / len(E)


def micro_scores(
    C: Sequence[Collection[int]], E: Sequence[Collection[int]]
) -> tuple[float, float]:
    """P = (1/N) * sum over predicted clusters of the plurality gold-label
    count (purity); R = the same with roles swapped."""
    if not C or not E:
        raise MetricsUndefinedError("micro scores need non-empty clusterings")
    c_index, e_index = _check_same_elements(C, E)
    n = len(c_index)
    p = sum(Counter(e_index[x] for x in c).most_common(1)[0][1] for c in C) / n
    r = sum(Counter(c_index[x] for x in e).most_common(1)[0][1] for e in E) / n
    return p, r


def pairwise_scores(
    C: Sequence[Collection[int]], E: Sequence[Collection[int]]
) -> tuple[float | None, float | None]:
    """Hits are co-clustered pairs sharing a gold cluster. P = hits over
    all predicted pairs, R = hits over all gold pairs; a zero denominator
    yields None."""
    if not C or not E:
        raise MetricsUndefinedError("pairwise scores need non-empty clusterings")
    _, e_index = _check_same_elements(C, E)
    hits = 0
    for c in C:
        for count in Counter(e_index[x] for x in c).values():
            hits += comb(count, 2)
    c_pairs = sum(comb(len(c), 2) for c in C)
    e_pairs = sum(comb(len(e), 2) for e in E)
    p = hits / c_pairs if c_pairs else None
    r = hits / e_pairs if e_pairs else None
    return p, r


def reference_evaluate(
    clusters: Iterable[Collection[int]], gold: Mapping[int, str]
) -> MetricsReport:
    """Restrict to gold-labeled elements, build the gold partition, and
    assemble all nine scores plus counts."""
    C = restrict_to_gold(clusters, gold)
    elements = {x for c in C for x in c}
    if not elements:
        raise MetricsUndefinedError(
            "no gold-labeled elements present in the clustering"
        )
    E = gold_partition(gold, elements)
    macro_p, macro_r = macro_scores(C, E)
    micro_p, micro_r = micro_scores(C, E)
    pair_p, pair_r = pairwise_scores(C, E)
    return MetricsReport(
        macro_p=macro_p, macro_r=macro_r, macro_f1=harmonic_mean(macro_p, macro_r),
        micro_p=micro_p, micro_r=micro_r, micro_f1=harmonic_mean(micro_p, micro_r),
        pair_p=pair_p, pair_r=pair_r, pair_f1=harmonic_mean(pair_p, pair_r),
        n_clusters=len(C), n_gold=len(E), n_elements=len(elements),
    )


def report_bits(report: MetricsReport) -> dict:
    """Every field of a report, each float as its `float.hex` bits."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.as_dict().items()}


# ---------------------------------------------------------------------------
# string similarity, written straight from the formula


def reference_jaro_winkler(s1: str, s2: str) -> float:
    if s1 == s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(len(s1), len(s2)) // 2 - 1
    used = [False] * len(s2)
    m1, m2 = [], []
    for i, ch in enumerate(s1):
        lo, hi = max(0, i - window), min(len(s2), i + window + 1)
        for j in range(lo, hi):
            if not used[j] and s2[j] == ch:
                used[j] = True
                m1.append(ch)
                break
    for j, ch in enumerate(s2):
        if used[j]:
            m2.append(ch)
    m = len(m1)
    if m == 0:
        return 0.0
    transpositions = sum(a != b for a, b in zip(m1, m2)) // 2
    jaro = (m / len(s1) + m / len(s2) + (m - transpositions) / m) / 3
    prefix = 0
    for a, b in zip(s1[:4], s2[:4]):
        if a != b:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1 - jaro)


# ---------------------------------------------------------------------------
# circular correlation from the index formula


def direct_circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = len(a)
    out = np.zeros(d)
    for k in range(d):
        out[k] = sum(a[i] * b[(k + i) % d] for i in range(d))
    return out


def score_triple(emb: EmbeddingSet, s: int, p: int, o: int) -> float:
    """eta = r_p . (e_s * e_o) for one triple."""
    corr = circular_correlation(emb.np_vectors[s], emb.np_vectors[o])
    return float(np.dot(emb.rel_vectors[p], corr))


# The package's original all-pairs distance matrix for the similarity
# baselines, kept verbatim: it scores every pair, including those whose
# similarity is 0 because they share nothing.


def reference_distance_matrix(features: Sequence, similarity) -> np.ndarray:
    """1 - similarity(x, y) for every pair of features, 0 on the
    diagonal."""
    D = np.zeros((len(features), len(features)))
    for (i, x), (j, y) in combinations(enumerate(features), 2):
        D[i, j] = D[j, i] = 1.0 - similarity(x, y)
    return D


# Connected components by breadth-first search over an adjacency list,
# independent of the package's union-find.


def reference_components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Components of the graph on 0..n-1, each sorted, ordered by their
    smallest member."""
    adjacent = defaultdict(set)
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), [start]
        while queue:
            for y in adjacent[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    members.append(y)
        out.append(sorted(members))
    return out


# The package's original inverted-index join and AMIE miner, kept
# verbatim but for their names: a dict of id lists per key expanded with
# `combinations`, and one Python set intersection per candidate pair of
# relations.


def reference_shared_key_pairs(rows: Iterable[tuple[int, Hashable]]) -> frozenset[tuple[int, int]]:
    """Every pair (a, b), a < b, of distinct ids that share a key, from
    (id, key) rows; an id may carry several keys."""
    # one list per key, not one set: sets raised peak RSS measurably
    groups = defaultdict(list)
    for pid, key in rows:
        groups[key].append(pid)
    return frozenset(
        pair for ids in groups.values() for pair in combinations(sorted(set(ids)), 2)
    )


def reference_relation_argument_pairs(kb: OpenKB) -> dict[int, frozenset[tuple[str, str]]]:
    """Distinct (subject, object) argument pairs per relation, with NPs
    replaced by their morphological normal forms first."""
    canon = {p.id: morph_normalize(p.text) for p in kb.np_vocab}
    pairs: dict[int, set[tuple[str, str]]] = defaultdict(set)
    for s, p, o in zip(*kb.spo.tolist()):
        pairs[p].add((canon[s], canon[o]))
    return {r: frozenset(s) for r, s in pairs.items()}


def reference_amie_mine(
    kb: OpenKB, support_min: int = 2, confidence_min: float = 0.2
) -> EquivalencePairSet:
    """Mine mutual implication rules between relation phrases.

    For relations r, r' with argument-pair sets S_r, S_r' (distinct
    morph-canonical (subject, object) pairs), support(r => r') is
    |S_r & S_r'| and confidence is support / |S_r|. A pair is emitted iff
    both directions meet the support and confidence thresholds. Only the
    relation pairs that share an argument pair
    (``reference_shared_key_pairs``) are scored; every other pair has
    support 0.
    """
    arg_pairs = reference_relation_argument_pairs(kb)
    candidates = reference_shared_key_pairs(
        (r, xy) for r, xys in arg_pairs.items() for xy in xys)
    support = {(a, b): len(arg_pairs[a] & arg_pairs[b]) for a, b in candidates}
    return make_pair_set("amie", PhraseKind.REL, [
        (a, b) for (a, b), ov in support.items()
        if ov >= support_min and ov / len(arg_pairs[a]) >= confidence_min
        and ov / len(arg_pairs[b]) >= confidence_min
    ])


# The package's original IDF side information, kept verbatim: it scores
# every pair that shares any content token, where the package scores only
# the pairs that share a prefix token.


def reference_idf_equivalences(
    kb: OpenKB, df: DocumentFrequency, cutoff: float
) -> EquivalencePairSet:
    """All NP pairs (a, b), a < b, with idf_overlap_score >= cutoff. Only
    pairs that share a non-stopword token (``reference_shared_key_pairs``)
    are scored; any other pair scores 0, so none is lost for cutoff > 0."""
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be in [0, 1], got {cutoff}")
    toks = {p.id: content_tokens(p.text) for p in kb.np_vocab}
    candidates = reference_shared_key_pairs((pid, t) for pid, ts in toks.items() for t in ts)
    return make_pair_set("idf_overlap", PhraseKind.NP, [
        (a, b) for a, b in candidates
        if idf_overlap_score(toks[a], toks[b], df) >= cutoff
    ])


def attribute_sets(kb: OpenKB) -> dict[int, frozenset[tuple[str, int, int]]]:
    """Per NP, the set of (position, relation, other NP) attributes it
    co-occurs with: subject occurrences yield ("s", r, o), object
    occurrences ("o", r, s)."""
    sets: dict[int, set] = {p.id: set() for p in kb.np_vocab}
    for s, p, o in zip(*kb.spo.tolist()):
        sets[s].add(("s", p, o))
        sets[o].add(("o", p, s))
    return {pid: frozenset(s) for pid, s in sets.items()}


def jaccard(x: frozenset, y: frozenset) -> float:
    """Jaccard coefficient of two sets; 0 when the union is empty."""
    union = len(x | y)
    return len(x & y) / union if union else 0.0


def reference_overlap_matrix(name: str, kb: OpenKB) -> np.ndarray:
    """The distances of the overlap baseline ``name`` ("idf_hac" or
    "attr_hac") at every NP pair, scored by the scalar functions."""
    ids = [p.id for p in kb.np_vocab]
    if name == "idf_hac":
        df = build_df(kb)
        return reference_distance_matrix(
            [content_tokens(kb.np_phrase(i).text) for i in ids],
            lambda x, y: idf_overlap_score(x, y, df))
    sets = attribute_sets(kb)
    return reference_distance_matrix([sets[i] for i in ids], jaccard)


def naive_attribute_overlap(kb: OpenKB, a: int, b: int) -> float:
    def attrs(n: int) -> set:
        out = set()
        for t in kb.triples:
            if t.subject == n:
                out.add(("as_subject", t.relation, t.object))
            if t.object == n:
                out.add(("as_object", t.relation, t.subject))
        return out

    A, B = attrs(a), attrs(b)
    union = A | B
    return len(A & B) / len(union) if union else 0.0


# ---------------------------------------------------------------------------
# the embedding trainer's sampler and per-batch update, in their original
# scalar and complex-FFT forms


def _corr_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise circular correlation of two (n, d) arrays."""
    return np.fft.ifft(np.conj(np.fft.fft(A, axis=1)) * np.fft.fft(B, axis=1), axis=1).real


def _conv_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise circular convolution of two (n, d) arrays."""
    return np.fft.ifft(np.fft.fft(A, axis=1) * np.fft.fft(B, axis=1), axis=1).real


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _flatten_negatives(batch: TrainingBatch) -> tuple[list[Triple], list[int]]:
    negs: list[Triple] = []
    owner: list[int] = []
    for i, group in enumerate(batch.negatives):
        for t in group:
            negs.append(t)
            owner.append(i)
    return negs, owner


def _spo_arrays(triples: Sequence[Triple]):
    s = np.fromiter((t.subject for t in triples), dtype=np.intp, count=len(triples))
    p = np.fromiter((t.relation for t in triples), dtype=np.intp, count=len(triples))
    o = np.fromiter((t.object for t in triples), dtype=np.intp, count=len(triples))
    return s, p, o


def _batch_scores(E: np.ndarray, R: np.ndarray, triples: Sequence[Triple]) -> np.ndarray:
    if not triples:
        return np.zeros(0)
    s, p, o = _spo_arrays(triples)
    corr = _corr_rows(E[s], E[o])
    return np.einsum("ij,ij->i", R[p], corr)


def _hinge_pair_indices(batch: TrainingBatch, pairing: str):
    """(pos index, neg index) arrays into the positives list / flattened
    negatives list, one row per hinge pair."""
    _, owner = _flatten_negatives(batch)
    m = len(owner)
    if pairing == "per_positive":
        return np.asarray(owner, dtype=np.intp), np.arange(m, dtype=np.intp)
    b = len(batch.positives)
    pos_idx = np.repeat(np.arange(b, dtype=np.intp), m)
    neg_idx = np.tile(np.arange(m, dtype=np.intp), b)
    return pos_idx, neg_idx


def _ranking_margins(
    E: np.ndarray, R: np.ndarray, batch: TrainingBatch, h: HyperParams
):
    """Per-hinge-pair margin expressions plus everything the gradient needs."""
    negs, _ = _flatten_negatives(batch)
    eta_pos = _batch_scores(E, R, batch.positives)
    eta_neg = _batch_scores(E, R, negs)
    pos_idx, neg_idx = _hinge_pair_indices(batch, h.pairing)
    gamma = h.effective_margin
    if h.hinge == "sigmoid":
        sp, sn = _sigmoid(eta_pos), _sigmoid(eta_neg)
        margins = gamma + sn[neg_idx] - sp[pos_idx]
        dpos, dneg = sp * (1.0 - sp), sn * (1.0 - sn)
    else:
        margins = gamma + eta_neg[neg_idx] - eta_pos[pos_idx]
        dpos = np.ones_like(eta_pos)
        dneg = np.ones_like(eta_neg)
    return negs, pos_idx, neg_idx, margins, dpos, dneg


def _ranking_instances(E, R, batch: TrainingBatch, h: HyperParams):
    """Stack positive and negative triple instances with the coefficient
    each contributes to d(loss)/d(eta): hinge-active pairs contribute
    -sig'(eta_pos) through their positive and +sig'(eta_neg) through their
    negative (1 in raw mode). The subgradient at the hinge kink is 0."""
    negs, pos_idx, neg_idx, margins, dpos, dneg = _ranking_margins(E, R, batch, h)
    active = margins > 0.0
    b, m = len(batch.positives), len(negs)
    coef_pos = np.zeros(b)
    coef_neg = np.zeros(m)
    np.add.at(coef_pos, pos_idx[active], -dpos[pos_idx[active]])
    np.add.at(coef_neg, neg_idx[active], dneg[neg_idx[active]])
    sp, pp, op = _spo_arrays(batch.positives)
    sn, pn, on = _spo_arrays(negs)
    s_all = np.concatenate([sp, sn])
    p_all = np.concatenate([pp, pn])
    o_all = np.concatenate([op, on])
    coef = np.concatenate([coef_pos, coef_neg])
    return s_all, p_all, o_all, coef


def _accumulate_ranking_grad(
    g_np: np.ndarray, g_rel: np.ndarray, E, R,
    s_all, p_all, o_all, coef, scale: float,
) -> None:
    """g_r += c * (e_s * e_o); g_es += c * (r * e_o); g_eo += c * (r conv e_s)."""
    if len(coef) == 0:
        return
    c = (scale * coef)[:, None]
    Es, Eo, Rp = E[s_all], E[o_all], R[p_all]
    np.add.at(g_rel, p_all, c * _corr_rows(Es, Eo))
    np.add.at(g_np, s_all, c * _corr_rows(Rp, Eo))
    np.add.at(g_np, o_all, c * _conv_rows(Rp, Es))


def _side_pair_arrays(
    side: SideInfoCollection, kind: PhraseKind, h: HyperParams
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(left ids, right ids, lambda/|Z|) per source with pairs and weight."""
    sources = side.np_sources if kind is PhraseKind.NP else side.rel_sources
    out = []
    for src in sources:
        lam = h.lambda_for(kind, src.source_name)
        if lam == 0.0 or not len(src):
            continue
        pairs = sorted(map(tuple, src.pairs.tolist()))
        ia = np.asarray([a for a, _ in pairs], dtype=np.intp)
        ib = np.asarray([b for _, b in pairs], dtype=np.intp)
        out.append((ia, ib, lam / len(pairs)))
    return out


def _accumulate_side_grad(g: np.ndarray, W: np.ndarray, terms, scale: float) -> None:
    for ia, ib, w in terms:
        diff = (2.0 * w * scale) * (W[ia] - W[ib])
        np.add.at(g, ia, diff)
        np.add.at(g, ib, -diff)


def sample_negatives(kb: OpenKB, t: Triple, k: int, rng: np.random.Generator) -> list[Triple]:
    """The negative sampler as first written: per slot, up to
    NEGATIVE_RETRIES tries of a fair coin (corrupt the subject or the
    object) and a uniform NP, one ``rng.integers`` call each; a corruption
    that exists in the KB is redrawn."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    existing = {u.spo for u in kb.triples}
    n = kb.n_nps
    out: list[Triple] = []
    for _ in range(k):
        for _ in range(NEGATIVE_RETRIES):
            corrupt_subject = bool(rng.integers(0, 2))
            cand = int(rng.integers(0, n))
            if corrupt_subject:
                spo = (cand, t.relation, t.object)
            else:
                spo = (t.subject, t.relation, cand)
            if spo not in existing:
                out.append(
                    Triple(triple_id=-1, subject=spo[0], relation=spo[1], object=spo[2])
                )
                break
    return out


def make_training_batch(positives: Sequence[Triple],
                        groups: Sequence[Sequence[Triple]]) -> TrainingBatch:
    """The batch of the given positives and, per positive, its negatives."""
    if len(positives) != len(groups):
        raise ValueError("negatives must align one list per positive")
    triples = [*positives, *(t for group in groups for t in group)]
    spo = np.array([[t.subject for t in triples], [t.relation for t in triples],
                    [t.object for t in triples]], dtype=np.int64)
    owner = np.array([i for i, group in enumerate(groups) for _ in group], dtype=np.int64)
    return TrainingBatch(spo, owner, len(positives))


def reference_make_batch(kb: OpenKB, rows: Sequence[int], k: int,
                         rng: np.random.Generator) -> TrainingBatch:
    """``sample_negatives`` for the KB's triple at each of ``rows`` in order."""
    positives = [kb.triples[i] for i in rows]
    return make_training_batch(positives, [
        sample_negatives(kb, t, k, rng) if k >= 1 else () for t in positives])


def reference_step(E, R, batch: TrainingBatch, h, np_terms, rel_terms,
                   frac: float) -> None:
    """One SGD step in place on the vectors E and R, as first written:
    three separate s*o correlations through complex FFTs, np.add.at
    scatters, and L2 as a decay by 1 - 2·lr·lambda_reg·frac. ``np_terms``
    and ``rel_terms`` come from this module's ``_side_pair_arrays``."""
    lr = h.learning_rate
    s_all, p_all, o_all, coef = _ranking_instances(E, R, batch, h)
    g_np = np.zeros_like(E)
    g_rel = np.zeros_like(R)
    _accumulate_ranking_grad(g_np, g_rel, E, R, s_all, p_all, o_all,
                             coef, h.lambda_str)
    _accumulate_side_grad(g_np, E, np_terms, frac)
    _accumulate_side_grad(g_rel, R, rel_terms, frac)
    decay = 1.0 - 2.0 * lr * h.lambda_reg * frac
    E *= decay
    R *= decay
    E -= lr * g_np
    R -= lr * g_rel


def reference_train(kb: OpenKB, side, h, init) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch SGD as first written: ``reference_step`` on batches from
    ``reference_make_batch``, with the shuffling and sampling streams
    seeded as in ``kbcanon.embedding.train``; the side terms are built
    here, in the same sorted-pair order. Returns the final (np_vectors,
    rel_vectors)."""
    E = init.np_vectors.copy()
    R = init.rel_vectors.copy()
    n = len(kb.triples)
    rng_shuffle = np.random.default_rng([h.seed, 1])
    rng_neg = np.random.default_rng([h.seed, 2])
    np_terms = _side_pair_arrays(side, PhraseKind.NP, h)
    rel_terms = _side_pair_arrays(side, PhraseKind.REL, h)
    for _ in range(h.epochs):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, h.batch_size):
            rows = order[start:start + h.batch_size]
            batch = reference_make_batch(kb, rows, h.negatives_per_positive, rng_neg)
            reference_step(E, R, batch, h, np_terms, rel_terms, len(rows) / n)
    return E, R


# ---------------------------------------------------------------------------
# random instance generators


_WORDS = [
    "alder", "birch", "cedar", "dune", "ember", "fjord", "grove", "heath",
    "inlet", "joule", "karst", "lichen", "marsh", "nadir", "ochre", "playa",
    "quartz", "ridge", "shale", "tarn", "umber", "vale", "wharf", "yarrow",
]


def random_surface(rand, max_tokens: int = 2) -> str:
    k = rand.randint(1, max_tokens)
    return " ".join(rand.choice(_WORDS) for _ in range(k))


def random_kb(rand, max_rels: int = 8, max_triples: int = 50) -> OpenKB:
    """A small KB with repeated argument pairs so rule mining has
    something to find."""
    n_nps = rand.randint(3, 10)
    n_rels = rand.randint(2, max_rels)
    nps = list(dict.fromkeys(random_surface(rand) for _ in range(n_nps)))
    rels = list(dict.fromkeys(
        f"{rand.choice(_WORDS)}s {rand.choice(['at', 'with', 'near', 'for'])}"
        for _ in range(n_rels)
    ))
    n_triples = rand.randint(4, max_triples)
    arg_pool = [(rand.choice(nps), rand.choice(nps)) for _ in range(max(2, n_nps // 2))]
    records = []
    for i in range(n_triples):
        if rand.random() < 0.7:
            s, o = rand.choice(arg_pool)
        else:
            s, o = rand.choice(nps), rand.choice(nps)
        records.append({
            "triple_id": i + 1,
            "subject": s,
            "relation": rand.choice(rels),
            "object": o,
        })
    return build_kb(records)


def random_points(rand, n: int, dim: int, quantized: bool) -> np.ndarray:
    """Point sets for clustering oracles; the quantized variant puts many
    pairs at exactly equal distances to exercise tie-breaking."""
    rng = np.random.default_rng(rand.getrandbits(32))
    while True:
        if quantized:
            X = rng.integers(-1, 2, size=(n, dim)).astype(float)
        else:
            X = rng.normal(size=(n, dim))
        norms = np.linalg.norm(X, axis=1)
        if (norms > 1e-9).all():
            return X
