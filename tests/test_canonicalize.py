"""Tests for complete-linkage clustering, representatives, and KB rewriting."""

from __future__ import annotations

import itertools
import json
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbcanon.canonicalize
from kbcanon.canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    CanonicalizedKB,
    Cluster,
    Clustering,
    best_cut,
    build_clustering,
    canonicalize_kb,
    choose_threshold,
    cluster_phrases,
    cosine_distance_matrix,
    cosine_triangle,
    cut_history,
    hac_complete_linkage,
    hac_from_distance_matrix,
    hac_from_pairs,
    hac_merge_history,
    save_canonicalized,
    save_clusters,
    select_representative,
    tune_threshold,
)
from kbcanon.errors import (
    ConfigError,
    InvariantViolation,
    MetricsUndefinedError,
    ZeroVectorError,
)
from kbcanon.kb import GoldClustering, Phrase, PhraseKind

from .reference import (
    naive_complete_linkage,
    random_points,
    reference_evaluate,
    reference_components,
    reference_merge_history,
    report_bits,
)


def ids_and_rows(X) -> tuple[list[int], np.ndarray]:
    """Row positions as ids, and the rows as a float matrix."""
    X = np.asarray(X, dtype=float)
    return list(range(len(X))), X


def np_vocab(frequencies, texts=None) -> tuple[Phrase, ...]:
    """NP phrases whose ids are their positions."""
    return tuple(Phrase(i, texts[i] if texts else f"p{i}", PhraseKind.NP, f)
                 for i, f in enumerate(frequencies))


# ---------------------------------------------------------------------------
# distances


class TestCosineDistanceMatrix:
    def test_zero_diagonal_and_symmetry(self):
        rand = random.Random(5)
        X = random_points(rand, 12, 6, quantized=False)
        D = cosine_distance_matrix(X)
        assert np.allclose(np.diag(D), 0.0, atol=1e-12)
        assert np.allclose(D, D.T, atol=1e-12)

    def test_known_angles(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 0.0]])
        D = cosine_distance_matrix(X)
        assert D[0, 1] == pytest.approx(1.0)
        assert D[0, 2] == pytest.approx(2.0)
        assert D[0, 3] == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rand = random.Random(6)
        X = random_points(rand, 8, 4, quantized=False)
        scales = np.linspace(0.5, 3.0, 8)[:, None]
        assert np.allclose(
            cosine_distance_matrix(X), cosine_distance_matrix(X * scales), atol=1e-10
        )

    def test_zero_vector_rejected_with_label(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError) as err:
            cosine_distance_matrix(X, labels=["ok", "offender"])
        assert "offender" in str(err.value)


# ---------------------------------------------------------------------------
# agglomeration


class TestHacBoundaries:
    def test_threshold_zero_gives_singletons(self):
        rand = random.Random(7)
        X = random_points(rand, 10, 5, quantized=False)
        got = hac_complete_linkage(*ids_and_rows(X), 0.0)
        assert got == [frozenset({i}) for i in range(10)]

    def test_threshold_zero_merges_exact_duplicates(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        got = hac_complete_linkage(*ids_and_rows(X), 0.0)
        assert got == [frozenset({0, 1}), frozenset({2})]

    def test_threshold_two_gives_one_cluster(self):
        rand = random.Random(8)
        X = random_points(rand, 9, 4, quantized=False)
        got = hac_complete_linkage(*ids_and_rows(X), 2.0)
        assert got == [frozenset(range(9))]

    def test_empty_input(self):
        assert hac_complete_linkage([], np.zeros((0, 2)), 0.5) == []

    def test_single_element(self):
        assert hac_complete_linkage([3], np.array([[1.0, 2.0]]), 0.5) == [
            frozenset({3})
        ]

    def test_unsorted_ids_rejected(self):
        D = np.zeros((2, 2))
        with pytest.raises(ValueError):
            hac_from_distance_matrix([2, 1], D, 0.5)

    @pytest.mark.parametrize("ids", [[0, 1], [0, 1, 2, 3]])
    def test_ids_must_label_every_row(self, ids):
        D = np.array([[0.0, 0.9, 0.8], [0.9, 0.0, 0.2], [0.8, 0.2, 0.0]])
        for t in (0.5, 1.0):
            with pytest.raises(ValueError, match="rows"):
                hac_from_distance_matrix(ids, D, t)


class TestHacFixtures:
    def test_two_tight_pairs(self):
        # Two near-duplicate directions plus two near-duplicates of an
        # orthogonal direction: a mid threshold recovers exactly two pairs.
        X = np.array(
            [
                [1.0, 0.0],
                [0.999, 0.01],
                [0.0, 1.0],
                [0.01, 0.999],
            ]
        )
        got = hac_complete_linkage(*ids_and_rows(X), 0.3)
        assert got == [frozenset({0, 1}), frozenset({2, 3})]

    def test_complete_linkage_not_single_linkage(self):
        # A chain a-b-c where a-b and b-c are close but a-c is far. With a
        # threshold between the close and far distances, complete linkage
        # merges one close pair and then refuses the third point, because
        # its distance to the FARTHEST member would exceed the threshold.
        theta = np.deg2rad([0.0, 40.0, 80.0])
        X = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        d_near = 1.0 - np.cos(np.deg2rad(40.0))
        d_far = 1.0 - np.cos(np.deg2rad(80.0))
        t = (d_near + d_far) / 2.0
        got = hac_complete_linkage(*ids_and_rows(X), t)
        # Single linkage would chain all three into one cluster; complete
        # linkage merges one adjacent pair and leaves the far end out.
        assert len(got) == 2
        assert frozenset({0, 2}) not in got

    def test_tie_break_prefers_smallest_member_ids(self):
        # Four identical vectors: every pair is at distance 0. The first
        # merge must be (0, 1), then (0, 2), then (0, 3).
        D = np.zeros((4, 4))
        history = hac_merge_history(D)
        assert [(i, j) for _, i, j in history] == [(0, 1), (0, 2), (0, 3)]

    def test_merge_history_distances_non_decreasing(self):
        rand = random.Random(9)
        for _ in range(20):
            n = rand.randint(2, 25)
            X = random_points(rand, n, rand.randint(2, 6), quantized=False)
            D = cosine_distance_matrix(X)
            dists = [d for d, _, _ in hac_merge_history(D)]
            assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


class TestHacAgainstOracle:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_matches_naive_reclustering(self, quantized):
        rand = random.Random(10 + quantized)
        for _ in range(40):
            n = rand.randint(2, 30)
            dim = rand.randint(2, 5)
            X = random_points(rand, n, dim, quantized=quantized)
            D = cosine_distance_matrix(X)
            t = rand.choice([0.0, 0.1, 0.3, 0.5, 0.8, 1.2, 2.0])
            ids = list(range(n))
            assert hac_from_distance_matrix(ids, D, t) == naive_complete_linkage(
                ids, D, t
            )

    def test_cut_history_equals_direct_run(self):
        rand = random.Random(12)
        for _ in range(25):
            n = rand.randint(2, 25)
            X = random_points(rand, n, 3, quantized=rand.random() < 0.5)
            D = cosine_distance_matrix(X)
            ids = list(range(n))
            history = hac_merge_history(D.copy())
            for t in (0.0, 0.2, 0.5, 0.9, 1.5, 2.0):
                assert cut_history(ids, history, t) == hac_from_distance_matrix(
                    ids, D, t
                )

    def test_noncontiguous_sorted_ids(self):
        X = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]])
        D = cosine_distance_matrix(X)
        got = hac_from_distance_matrix([4, 7, 30], D, 0.2)
        assert got == [frozenset({4, 7}), frozenset({30})]


def tie_heavy_matrix(rng, n: int) -> np.ndarray:
    """Mostly 1.0 with a few symmetric entries from {0.1, 0.3, 0.6}: the
    shape the token-overlap baselines produce."""
    D = np.ones((n, n))
    k = max(1, n * n // 50)
    rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
    vals = rng.choice([0.1, 0.3, 0.6], k)
    D[rows, cols] = vals
    D[cols, rows] = vals
    return D


class TestMergeHistory:
    def test_matches_flat_argmin_reference(self):
        rand = random.Random(15)
        rng = np.random.default_rng(15)
        matrices = [np.zeros((0, 0)), np.zeros((1, 1)), np.zeros((40, 40)),
                    np.full((40, 40), 0.7)]
        for k in range(24):
            n = rand.randint(2, 300)
            X = random_points(rand, n, rand.randint(2, 6), quantized=bool(k % 2))
            matrices.append(cosine_distance_matrix(X))
        matrices += [tie_heavy_matrix(rng, rand.randint(2, 300)) for _ in range(12)]
        for D in matrices:
            assert hac_merge_history(D.copy()) == reference_merge_history(D), D.shape

    def test_upto_stops_at_the_reference_prefix(self):
        # Checked at every distinct height (ties at exactly `upto` are
        # merged), between heights, and at both ends of the distance range.
        rand = random.Random(17)
        rng = np.random.default_rng(17)
        matrices = [np.zeros((4, 4)), np.full((5, 5), 0.7)]
        for k in range(16):
            n = rand.randint(2, 60)
            X = random_points(rand, n, rand.randint(2, 6), quantized=bool(k % 2))
            matrices.append(cosine_distance_matrix(X))
        matrices += [tie_heavy_matrix(rng, rand.randint(2, 60)) for _ in range(8)]
        for D in matrices:
            full = reference_merge_history(D)
            heights = sorted({d for d, _, _ in full})
            between = [(a + b) / 2 for a, b in zip(heights, heights[1:])]
            for upto in heights + between + [0.0, 2.0]:
                prefix = list(itertools.takewhile(lambda m: m[0] <= upto, full))
                assert hac_merge_history(D.copy(), upto) == prefix, (D.shape, upto)
        assert len(hac_merge_history(np.zeros((4, 4)), 0.0)) == 3

    @pytest.mark.parametrize("bad", ["shape", np.inf, np.nan])
    def test_leaves_refused_input_unmodified(self, bad):
        # the merges are made in D itself, but only once D passes the checks
        X = random_points(random.Random(16), 30, 4, quantized=True)
        D = cosine_distance_matrix(X)
        if bad == "shape":
            D = D[:, :-1]
        else:
            D[3, 7] = bad
        before = D.tobytes()
        with pytest.raises(ValueError):
            hac_merge_history(D)
        assert D.tobytes() == before

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hac_merge_history(np.zeros((3, 4)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        D = np.array([[0.0, 0.9, 0.8], [0.9, 0.0, 0.2], [0.8, 0.2, 0.0]])
        D[0, 1] = D[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            hac_merge_history(D)
        with pytest.raises(ValueError, match="finite"):
            hac_from_distance_matrix([0, 1, 2], D, 1.0)


def reference_cut(n: int, history, t: float) -> list[frozenset[int]]:
    """The partition of the merges at or below t in a reference history
    over n positions."""
    merges = [(i, j) for d, i, j in history if d <= t]
    return [frozenset(c) for c in reference_components(n, merges)]


def interleaved_twins(rng, n: int) -> np.ndarray:
    """One tie-heavy block twice on the diagonal, 1.0 between the copies,
    rows shuffled: every distance inside one copy recurs in the other, and
    the two components interleave in id order."""
    B = tie_heavy_matrix(rng, n)
    D = np.ones((2 * n, 2 * n))
    D[:n, :n] = D[n:, n:] = B
    np.fill_diagonal(D, 0.0)
    order = rng.permutation(2 * n)
    return D[np.ix_(order, order)]


class TestComponentCut:
    """The fixed-threshold cut agglomerates each connected component of
    {D <= t} on its own; its partition is the cut of the whole matrix's
    history."""

    @staticmethod
    def matrices() -> list[np.ndarray]:
        rand = random.Random(23)
        rng = np.random.default_rng(23)
        matrices = [np.zeros((4, 4)), np.full((5, 5), 0.7)]
        for k in range(12):
            X = random_points(rand, rand.randint(2, 50), rand.randint(2, 6),
                              quantized=bool(k % 2))
            matrices.append(cosine_distance_matrix(X))
        # only the upper triangle counts: noise below it must change nothing
        D = matrices[-1].copy()
        D[np.tril_indices(len(D), -1)] += rng.uniform(-0.2, 0.2, len(D) * (len(D) - 1) // 2)
        matrices.append(D)
        for _ in range(6):
            matrices.append(tie_heavy_matrix(rng, rand.randint(2, 50)))
            matrices.append(interleaved_twins(rng, rand.randint(2, 25)))
        return matrices

    @pytest.mark.parametrize("block", [None, 7])
    def test_equals_cut_of_reference_history(self, block, monkeypatch):
        # Checked at 0, at 2, at distances that occur in D (up to 30 of
        # them) and between them; a 7-entry block makes the scan and the mirroring span many
        # row blocks. The pair cut lists a random subset of D's upper
        # pairs, with far = D.max() at the others, and is checked against
        # the reference cut of that matrix.
        if block:
            monkeypatch.setattr(kbcanon.canonicalize, "_BLOCK", block)
            monkeypatch.setattr(kbcanon.canonicalize, "_MIN_ROWS", 1)
        rng = np.random.default_rng(32)
        for D in self.matrices():
            n, history = len(D), reference_merge_history(D)
            a, b = np.triu_indices(n, 1)
            listed = rng.random(len(a)) < 0.6
            a, b = a[listed], b[listed]
            far = float(D.max())
            P = np.full((n, n), far)
            P[a, b] = P[b, a] = D[a, b]
            pair_history = reference_merge_history(P)
            heights = np.unique(D[np.triu_indices(n, 1)])
            heights = heights[::max(1, len(heights) // 30)]
            thresholds = [0.0, 2.0, *heights, *(heights[1:] + heights[:-1]) / 2]
            for t in thresholds:
                assert hac_from_distance_matrix(range(n), D, t) == reference_cut(n, history, t)
                assert (hac_from_pairs(range(n), [(a, b, D[a, b])], t, far)
                        == reference_cut(n, pair_history, t))

    def test_equals_naive_reclustering_across_twin_components(self):
        rng = np.random.default_rng(24)
        for n in (2, 3, 5, 8):
            D = interleaved_twins(rng, n)
            for t in (0.0, 0.1, 0.3, 0.6, 1.0):
                ids = list(range(len(D)))
                assert hac_from_distance_matrix(ids, D, t) == naive_complete_linkage(ids, D, t)

    def test_reads_d_without_writing(self):
        D = interleaved_twins(np.random.default_rng(25), 12)
        before = D.tobytes()
        for t in (0.3, 0.6, 2.0):
            hac_from_distance_matrix(range(len(D)), D, t)
        assert D.tobytes() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(9, 9), (8, 3), (2, 9), (4, 5)])
    def test_non_finite_anywhere_rejected(self, bad, where, monkeypatch):
        # on the diagonal, below it, and above it outside the one component
        # {0, 1}, in a row block after the first
        monkeypatch.setattr(kbcanon.canonicalize, "_BLOCK", 20)
        monkeypatch.setattr(kbcanon.canonicalize, "_MIN_ROWS", 1)
        D = np.ones((10, 10))
        np.fill_diagonal(D, 0.0)
        D[0, 1] = D[1, 0] = 0.1
        D[where] = bad
        with pytest.raises(ValueError, match="finite"):
            hac_from_distance_matrix(range(10), D, 0.5)


class TestCosineCut:
    """`hac_complete_linkage` computes its distances a row block at a time
    and keeps only the edges; its partition is the dense cut's."""

    @staticmethod
    def inputs() -> list[np.ndarray]:
        rand = random.Random(27)
        inputs = []
        for k in range(16):
            inputs.append(random_points(rand, rand.randint(1, 60), rand.randint(2, 6),
                                        quantized=bool(k % 2)))
        for _ in range(4):
            # duplicate rows, some of them scaled: pairs at distance 0 (or
            # within rounding of it), repeated in several components
            X = random_points(rand, rand.randint(2, 20), rand.randint(2, 5),
                              quantized=False)
            picks = [rand.randrange(len(X)) for _ in range(2 * len(X))]
            inputs.append(X[picks] * np.asarray([rand.choice([1.0, 3.0]) for _ in picks])[:, None])
        return inputs

    @pytest.mark.parametrize("block", [None, 7, 200])
    def test_equals_dense_cut(self, block, monkeypatch):
        # Checked at 0, at 2 and between consecutive merge heights; a
        # 7-entry block makes every row a block of its own, a 200-entry
        # one blocks of a few rows. The packed triangle that tuning builds
        # holds D's upper triangle bit for bit.
        if block:
            monkeypatch.setattr(kbcanon.canonicalize, "_BLOCK", block)
            monkeypatch.setattr(kbcanon.canonicalize, "_MIN_ROWS", 1)
        for X in self.inputs():
            ids = list(range(len(X)))
            D = cosine_distance_matrix(X)
            assert (cosine_triangle(X).values.tobytes()
                    == D[np.triu_indices(len(X), 1)].tobytes())
            heights = np.unique([d for d, _, _ in hac_merge_history(D.copy())])
            for t in [0.0, 2.0, *(heights[1:] + heights[:-1]) / 2]:
                assert hac_complete_linkage(ids, X, t) == hac_from_distance_matrix(ids, D, t)

    def test_row_floor_keeps_dense_cut(self, monkeypatch):
        # a 7-entry block would be one row; the floor makes blocks of 64
        monkeypatch.setattr(kbcanon.canonicalize, "_BLOCK", 7)
        assert list(kbcanon.canonicalize._row_blocks(150)) == [(0, 64), (64, 128), (128, 150)]
        rand = random.Random(31)
        for quantized in (False, True):
            X = random_points(rand, 150, 4, quantized=quantized)
            ids = list(range(len(X)))
            D = cosine_distance_matrix(X)
            assert (cosine_triangle(X).values.tobytes()
                    == D[np.triu_indices(len(X), 1)].tobytes())
            heights = np.unique([d for d, _, _ in hac_merge_history(D.copy())])
            heights = heights[::max(1, len(heights) // 30)]
            for t in [0.0, 2.0, *(heights[1:] + heights[:-1]) / 2]:
                assert hac_complete_linkage(ids, X, t) == hac_from_distance_matrix(ids, D, t)

    def test_zero_row_named_by_its_label(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError, match="'b'"):
            hac_complete_linkage([0, 1], X, 0.5, labels=["a", "b"])
        with pytest.raises(ZeroVectorError, match=r"\[7\]"):
            hac_complete_linkage([3, 7], X, 0.5)


class TestComponentCutMemory:
    """Beyond D, the cut holds row blocks of its scan and one working copy
    per component, never a whole-matrix copy or mask."""

    N = 1500

    @staticmethod
    def traced_peak(D: np.ndarray, t: float) -> int:
        tracemalloc.start()
        try:
            hac_from_distance_matrix(range(len(D)), D, t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_edge_allocates_a_fraction_of_d(self):
        D = np.ones((self.N, self.N))
        np.fill_diagonal(D, 0.0)
        assert self.traced_peak(D, 0.5) < 0.25 * D.nbytes

    def test_one_component_allocates_no_more_than_d_and_a_copy(self):
        # at t = 2 everything is one component; the whole-matrix cut held
        # a working copy beside D, and this cut may not hold more
        D = cosine_distance_matrix(random_points(random.Random(26), self.N, 8, quantized=False))
        assert self.traced_peak(D, 2.0) <= 2 * D.nbytes


class TestPairCutMemory:
    """At a threshold of at least ``far`` every linkage is within it, so
    the pair cut is one cluster and builds no triangle."""

    def test_one_cluster_at_far_allocates_no_triangle(self):
        # an n-position triangle would take 36 MB
        n = 3000
        none = np.array([], dtype=np.int64)
        tracemalloc.start()
        try:
            cut = hac_from_pairs(range(n), [(none, none, np.array([]))], 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cut == [frozenset(range(n))]
        assert peak < 2**20


class TestCosineCutMemory:
    """Beyond the vectors, the cosine cut holds row blocks of its scan, the
    edges and the components' triangles, never an n×n array; tuning holds
    the packed triangle of its distances, and one row block while it
    builds it."""

    N = 1500
    DENSE = N * N * 8  # bytes of one n×n float64 matrix

    @staticmethod
    def traced_peak(call, *args) -> int:
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_edge_allocates_a_fraction_of_d(self):
        X = random_points(random.Random(28), self.N, 8, quantized=False)
        assert self.traced_peak(hac_complete_linkage, range(self.N), X, 0.0) < 0.25 * self.DENSE

    def test_one_component_allocates_no_more_than_d_and_a_copy(self):
        # at t = 2 everything is one component: the edges and its working
        # matrix, where the dense cut held D and the component's copy
        X = random_points(random.Random(29), self.N, 8, quantized=False)
        assert self.traced_peak(hac_complete_linkage, range(self.N), X, 2.0) <= 2 * self.DENSE

    def test_choose_threshold_merges_in_its_one_matrix(self):
        # the triangle, half of one n×n matrix, one row block of 2^18
        # entries and 1 MB for the rest (unit rows, history, reports);
        # the n×n matrix alone would exceed it
        rand = random.Random(30)
        X = random_points(rand, self.N, 8, quantized=False)
        gold = GoldClustering(PhraseKind.NP, {i: f"g{rand.randrange(40)}"
                                              for i in range(0, self.N, 3)})
        triangle = self.N * (self.N - 1) // 2 * 8
        block = kbcanon.canonicalize._BLOCK * 8
        assert (self.traced_peak(choose_threshold, range(self.N), X, gold)
                < triangle + block + 2**20 < self.DENSE)


class TestHacProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=18),
        st.integers(min_value=2, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_partition_property(self, n, dim, rand):
        X = random_points(rand, n, dim, quantized=False)
        clusters = hac_complete_linkage(*ids_and_rows(X), rand.uniform(0, 2))
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(n))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=18),
        st.randoms(use_true_random=False),
    )
    def test_larger_threshold_coarsens(self, n, rand):
        X = random_points(rand, n, 3, quantized=False)
        t1, t2 = sorted([rand.uniform(0, 2), rand.uniform(0, 2)])
        fine = hac_complete_linkage(*ids_and_rows(X), t1)
        coarse = hac_complete_linkage(*ids_and_rows(X), t2)
        for c in fine:
            assert any(c <= big for big in coarse)

    def test_ids_only_label_rows(self):
        rand = random.Random(13)
        X = random_points(rand, 12, 4, quantized=False)
        labels = sorted(rand.sample(range(100), 12))
        assert hac_complete_linkage(labels, X, 0.6) == [
            frozenset(labels[i] for i in c)
            for c in hac_complete_linkage(*ids_and_rows(X), 0.6)
        ]

    def test_cluster_diameter_within_threshold(self):
        # Complete linkage guarantees every within-cluster distance is at
        # most the stopping threshold.
        rand = random.Random(14)
        for _ in range(15):
            n = rand.randint(2, 25)
            X = random_points(rand, n, 3, quantized=False)
            D = cosine_distance_matrix(X)
            t = rand.uniform(0, 2)
            for c in hac_from_distance_matrix(list(range(n)), D, t):
                for a in c:
                    for b in c:
                        assert D[a, b] <= t + 1e-9


# ---------------------------------------------------------------------------
# threshold selection


class TestChooseThreshold:
    def separable(self):
        # Two tight bundles nearly orthogonal to each other.
        X = np.array(
            [
                [1.0, 0.0],
                [0.9999, 0.005],
                [0.9999, -0.005],
                [0.0, 1.0],
                [0.005, 0.9999],
            ]
        )
        gold = GoldClustering(
            PhraseKind.NP, {0: "a", 1: "a", 2: "a", 3: "b", 4: "b"}
        )
        return (*ids_and_rows(X), gold)

    def test_perfect_threshold_found(self):
        ids, X, gold = self.separable()
        t = choose_threshold(ids, X, gold, grid=DEFAULT_THRESHOLD_GRID)[0]
        clusters = hac_complete_linkage(ids, X, t)
        assert clusters == [frozenset({0, 1, 2}), frozenset({3, 4})]

    def test_tie_goes_to_smallest(self):
        ids, X, gold = self.separable()
        # Both 0.3 and 0.6 achieve a perfect score on this fixture.
        assert choose_threshold(ids, X, gold, grid=[0.6, 0.3])[0] == 0.3

    def test_singleton_grid(self):
        ids, X, gold = self.separable()
        assert choose_threshold(ids, X, gold, grid=[0.45])[0] == 0.45

    def test_empty_grid_rejected(self):
        ids, X, gold = self.separable()
        with pytest.raises(ConfigError):
            choose_threshold(ids, X, gold, grid=[])

    def test_empty_gold_rejected(self):
        ids, X, _ = self.separable()
        with pytest.raises(ConfigError):
            choose_threshold(ids, X, GoldClustering(PhraseKind.NP, {}), grid=[0.5])

    def test_missing_gold_rejected(self):
        ids, X, _ = self.separable()
        with pytest.raises(ConfigError):
            choose_threshold(ids, X, None, grid=[0.5])

    def test_no_vectors_rejected(self):
        with pytest.raises(ConfigError):
            choose_threshold([], np.zeros((0, 2)), GoldClustering(PhraseKind.NP, {0: "a"}),
                             grid=[0.5])

    @pytest.mark.parametrize("gold", [None, GoldClustering(PhraseKind.NP, {0: "a"})])
    def test_bad_gold_or_grid_rejected_before_any_history(self, gold, monkeypatch):
        def no_history(D, upto=np.inf):
            raise AssertionError("a merge history was built")

        monkeypatch.setattr(kbcanon.canonicalize, "hac_merge_history", no_history)
        ids, X, _ = self.separable()
        grid = [] if gold else [0.5]
        with pytest.raises(ConfigError):
            choose_threshold(ids, X, gold, grid=grid)
        with pytest.raises(ConfigError):
            tune_threshold(ids, cosine_distance_matrix(X), gold, grid)

    @pytest.mark.parametrize("gold, grid", [
        (None, [0.5]), (GoldClustering(PhraseKind.NP, {}), [0.5]),
        (GoldClustering(PhraseKind.NP, {0: "a"}), [])])
    def test_bad_gold_or_grid_rejected_before_the_matrix(self, gold, grid):
        # a zero row would fail the matrix, so the ConfigError comes first
        with pytest.raises(ConfigError):
            choose_threshold([0, 1], np.zeros((2, 2)), gold, grid=grid)

    def test_all_scores_undefined_returns_smallest(self):
        # Gold labels never intersect the clustered ids, so every grid
        # value scores 0 and the smallest wins.
        ids, X, _ = self.separable()
        gold = GoldClustering(PhraseKind.NP, {99: "x", 98: "y"})
        assert choose_threshold(ids, X, gold, grid=[0.7, 0.2, 0.4])[0] == 0.2


class TestBestCutReplay:
    """`best_cut` scores every grid value from one replay of the history;
    each score, and the report of the chosen cut, must be the bits
    `evaluate` gives the cut there."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_scores_equal_evaluating_each_cut(self, n, n_labels, quantized, rand):
        X = random_points(rand, n, 3, quantized=quantized)
        ids = sorted(rand.sample(range(3 * n), n))
        # Some ids unlabelled, and labels for elements outside ids; with
        # n_labels 0, no id is labelled at all.
        gold = {pid: f"g{rand.randrange(n_labels)}" for pid in ids
                if n_labels and rand.random() < 0.8}
        gold.update({-1 - k: f"g{k}" for k in range(3)})
        history = hac_merge_history(cosine_distance_matrix(X))
        grid = [d for d, _, _ in history] + [rand.uniform(0, 2) for _ in range(3)]
        grid += [0.0, 2.0, rand.choice(grid)]
        rand.shuffle(grid)
        t, scores, report = best_cut(ids, history, GoldClustering(PhraseKind.NP, gold), grid)
        expected = []
        for g in grid:
            try:
                expected.append(reference_evaluate(cut_history(ids, history, g),
                                                   gold).mean_f1())
            except MetricsUndefinedError:
                expected.append(0.0)
        assert list(map(float.hex, scores)) == list(map(float.hex, expected))
        best = max(expected)
        assert t == min(g for g, score in zip(grid, expected) if score == best)
        if not set(ids) & gold.keys():
            assert set(scores) == {0.0} and t == min(grid)
            assert report is None
        else:
            assert report_bits(report) == report_bits(
                reference_evaluate(cut_history(ids, history, t), gold))

    def test_scores_at_size_without_calling_evaluate(self, monkeypatch):
        """300 quantized points, three labels and unlabelled ids, every
        merge height on the grid: the replay scores each cut as the
        reference does, and never through `evaluate`."""
        rand = random.Random(20)
        X = random_points(rand, 300, 6, quantized=True)
        ids = sorted(rand.sample(range(600), 300))
        gold = {pid: f"g{rand.randrange(3)}" for pid in ids if rand.random() < 0.7}
        history = hac_merge_history(cosine_distance_matrix(X))
        grid = sorted({d for d, _, _ in history})

        def refuse(*args):
            raise AssertionError("best_cut called evaluate")

        for name, mod in list(sys.modules.items()):
            if name.startswith("kbcanon") and hasattr(mod, "evaluate"):
                monkeypatch.setattr(mod, "evaluate", refuse)
        t, scores, _ = best_cut(ids, history, GoldClustering(PhraseKind.NP, gold), grid)
        monkeypatch.undo()
        expected = [reference_evaluate(cut_history(ids, history, g), gold).mean_f1()
                    for g in grid]
        assert len(grid) > 20
        assert list(map(float.hex, scores)) == list(map(float.hex, expected))
        assert t == grid[expected.index(max(expected))]


# ---------------------------------------------------------------------------
# representatives


class TestSelectRepresentative:
    def test_singleton(self):
        got = select_representative([7], np_vocab([3] * 8), np.ones((8, 2)))
        assert got == 7

    def test_frequency_weighted_mean_controls_choice(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0]])
        texts = ["zeb", "yak"]
        # mu = (0.75, 0.25): closest member is (1, 0).
        assert select_representative([0, 1], np_vocab([3, 1], texts), V) == 0
        # Flipping the frequencies flips the winner.
        assert select_representative([0, 1], np_vocab([1, 3], texts), V) == 1

    def test_identical_vectors_tie_breaks_on_text(self):
        V = np.tile([0.6, 0.8], (3, 1))
        vocab = np_vocab([1, 1, 1], ["zulu", "alpha", "mike"])
        assert select_representative([0, 1, 2], vocab, V) == 1

    def test_zero_member_vector_rejected(self):
        V = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVectorError):
            select_representative([0, 1], np_vocab([1, 1]), V)

    def test_zero_mean_falls_back_to_text(self):
        V = np.array([[1.0, 0.0], [-1.0, 0.0]])
        texts = ["bravo", "alpha"]
        assert select_representative([0, 1], np_vocab([1, 1], texts), V) == 1

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            select_representative([], (), np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# clustering assembly


class TestClusteringInvariants:
    def test_representative_must_be_member(self):
        with pytest.raises(InvariantViolation):
            Cluster(members=frozenset({1, 2}), representative=3)

    def test_overlapping_clusters_rejected(self):
        a = Cluster(members=frozenset({1, 2}), representative=1)
        b = Cluster(members=frozenset({2, 3}), representative=3)
        with pytest.raises(InvariantViolation):
            Clustering(kind=PhraseKind.NP, clusters=(a, b), threshold_used=0.5)

    def test_build_clustering_sorted_and_covering(self):
        rand = random.Random(15)
        X = random_points(rand, 8, 3, quantized=False)
        member_sets = hac_complete_linkage(*ids_and_rows(X), 0.8)
        clustering = build_clustering(
            member_sets, PhraseKind.NP, 0.8, np_vocab([1 + i % 3 for i in range(8)]), X
        )
        assert clustering.member_sets() == member_sets
        mins = [min(c.members) for c in clustering.clusters]
        assert mins == sorted(mins)
        for c in clustering.clusters:
            assert c.representative in c.members
        rep_of = clustering.representative_of()
        assert set(rep_of) == set(range(8))
        assert clustering.n_elements == 8

    def test_cluster_phrases_uses_kb_vocab(self, toy_kb):
        n = toy_kb.n_nps
        V = np.random.default_rng(3).normal(size=(n, 4))
        clustering = cluster_phrases(toy_kb, PhraseKind.NP, V, 2.0)
        assert clustering.kind is PhraseKind.NP
        assert clustering.n_elements == n
        assert clustering.threshold_used == 2.0

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_cluster_phrases_needs_a_row_per_phrase(self, toy_kb, extra):
        n = toy_kb.n_nps
        V = np.ones((n + extra, 4))
        with pytest.raises(ValueError, match=f"^{n + extra} vectors .* {n} NP phrases"):
            cluster_phrases(toy_kb, PhraseKind.NP, V, 0.5)


# ---------------------------------------------------------------------------
# KB rewriting


class TestCanonicalizeKB:
    def clusterings_for(self, kb, np_groups, rel_groups):
        def build(kind, groups):
            vocab = kb.vocab(kind)
            return build_clustering(groups, kind, 0.5, vocab,
                                    np.tile([1.0, 0.0], (len(vocab), 1)))

        return build(PhraseKind.NP, np_groups), build(PhraseKind.REL, rel_groups)

    def test_rewrites_with_representatives(self, toy_kb):
        obama = toy_kb.np_id("Obama")
        barack = toy_kb.np_id("Barack Obama")
        rest = [
            p.id
            for p in toy_kb.vocab(PhraseKind.NP)
            if p.id not in {obama, barack}
        ]
        np_groups = [{obama, barack}] + [{i} for i in rest]
        rel_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.REL)]
        np_c, rel_c = self.clusterings_for(toy_kb, np_groups, rel_groups)
        result = canonicalize_kb(toy_kb, np_c, rel_c)
        assert len(result.records) == len(toy_kb.triples)
        # "Barack Obama" is the more frequent surface, so every mention of
        # either alias is rewritten to whichever the representative rule
        # picked; both aliases map to one canonical string.
        rep_text = toy_kb.np_phrase(np_c.representative_of()[obama]).text
        for rec in result.records:
            for side in ("subject", "object"):
                if rec[side] in {"Obama", "Barack Obama"}:
                    assert rec[f"canonical_{side}"] == rep_text

    def test_all_singletons_is_identity(self, toy_kb):
        np_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.NP)]
        rel_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.REL)]
        np_c, rel_c = self.clusterings_for(toy_kb, np_groups, rel_groups)
        result = canonicalize_kb(toy_kb, np_c, rel_c)
        for rec in result.records:
            assert rec["canonical_subject"] == rec["subject"]
            assert rec["canonical_relation"] == rec["relation"]
            assert rec["canonical_object"] == rec["object"]
        assert result.duplicate_groups == ()

    def test_collisions_reported_as_duplicate_groups(self, toy_kb):
        # Merging the Obama aliases and the two birth relations makes
        # "Obama took birth in Honolulu" and "Barack Obama was born in
        # Honolulu" collide onto one canonical triple.
        obama = toy_kb.np_id("Obama")
        barack = toy_kb.np_id("Barack Obama")
        born = toy_kb.rel_id("was born in")
        took_birth = toy_kb.rel_id("took birth in")
        rest_np = [
            p.id
            for p in toy_kb.vocab(PhraseKind.NP)
            if p.id not in {obama, barack}
        ]
        rest_rel = [
            p.id
            for p in toy_kb.vocab(PhraseKind.REL)
            if p.id not in {born, took_birth}
        ]
        np_groups = [{obama, barack}] + [{i} for i in rest_np]
        rel_groups = [{born, took_birth}] + [{i} for i in rest_rel]
        np_c, rel_c = self.clusterings_for(toy_kb, np_groups, rel_groups)
        result = canonicalize_kb(toy_kb, np_c, rel_c)
        honolulu = toy_kb.np_id("Honolulu")
        collided = sorted(
            t.triple_id
            for t in toy_kb.triples
            if t.subject in {obama, barack}
            and t.relation in {born, took_birth}
            and t.object == honolulu
        )
        assert len(collided) == 2
        assert tuple(collided) in result.duplicate_groups

    def test_uncovered_phrase_rejected(self, toy_kb):
        np_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.NP)][:-1]
        rel_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.REL)]
        np_c, rel_c = self.clusterings_for(toy_kb, np_groups, rel_groups)
        with pytest.raises(InvariantViolation):
            canonicalize_kb(toy_kb, np_c, rel_c)


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_save_clusters_bytes_deterministic(self, toy_kb, tmp_path):
        V = np.random.default_rng(4).normal(size=(toy_kb.n_nps, 4))
        clustering = cluster_phrases(toy_kb, PhraseKind.NP, V, 1.0)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_clusters(clustering, toy_kb, p1)
        save_clusters(clustering, toy_kb, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_clusters_record_shape(self, toy_kb, tmp_path):
        V = np.tile([1.0, 0.0], (toy_kb.n_nps, 1))
        clustering = cluster_phrases(toy_kb, PhraseKind.NP, V, 0.3)
        path = tmp_path / "clusters.jsonl"
        save_clusters(clustering, toy_kb, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(clustering.clusters)
        texts = {p.text for p in toy_kb.vocab(PhraseKind.NP)}
        for rec in records:
            assert set(rec) == {
                "kind",
                "representative",
                "members",
                "frequencies",
                "threshold",
            }
            assert rec["kind"] == "NP"
            assert rec["representative"] in rec["members"]
            assert set(rec["members"]) <= texts
            assert len(rec["frequencies"]) == len(rec["members"])
            assert rec["threshold"] == 0.3

    def test_save_canonicalized_round_trip(self, toy_kb, tmp_path):
        np_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.NP)]
        rel_groups = [{p.id} for p in toy_kb.vocab(PhraseKind.REL)]
        np_c = build_clustering(np_groups, PhraseKind.NP, 0.5, toy_kb.np_vocab,
                                np.tile([1.0, 0.0], (toy_kb.n_nps, 1)))
        rel_c = build_clustering(rel_groups, PhraseKind.REL, 0.5, toy_kb.rel_vocab,
                                 np.tile([1.0, 0.0], (toy_kb.n_rels, 1)))
        result = canonicalize_kb(toy_kb, np_c, rel_c)
        path = tmp_path / "canonical.jsonl"
        save_canonicalized(result, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(toy_kb.triples)
        assert all("canonical_subject" in r for r in rows)

    def test_canonicalized_kb_is_frozen(self):
        result = CanonicalizedKB(records=(), duplicate_groups=())
        with pytest.raises(AttributeError):
            result.records = ()
