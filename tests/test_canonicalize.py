"""Tests for complete-linkage clustering, representatives, and KB rewriting."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbcanon.canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    CanonicalizedKB,
    Cluster,
    Clustering,
    build_clustering,
    canonicalize_kb,
    choose_threshold,
    cluster_phrases,
    cosine_distance_matrix,
    cut_history,
    hac_complete_linkage,
    hac_from_distance_matrix,
    hac_merge_history,
    save_canonicalized,
    save_clusters,
    select_representative,
)
from kbcanon.errors import (
    ConfigError,
    InvariantViolation,
    ZeroVectorError,
)
from kbcanon.kb import GoldClustering, Phrase, PhraseKind

from .reference import naive_complete_linkage, random_points, reference_merge_history


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
            history = hac_merge_history(D)
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
            assert hac_merge_history(D) == reference_merge_history(D), D.shape

    def test_leaves_input_unmodified(self):
        X = random_points(random.Random(16), 30, 4, quantized=True)
        D = cosine_distance_matrix(X)
        before = D.tobytes()
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
        t = choose_threshold(ids, X, gold, grid=DEFAULT_THRESHOLD_GRID)
        clusters = hac_complete_linkage(ids, X, t)
        assert clusters == [frozenset({0, 1, 2}), frozenset({3, 4})]

    def test_tie_goes_to_smallest(self):
        ids, X, gold = self.separable()
        # Both 0.3 and 0.6 achieve a perfect score on this fixture.
        assert choose_threshold(ids, X, gold, grid=[0.6, 0.3]) == 0.3

    def test_singleton_grid(self):
        ids, X, gold = self.separable()
        assert choose_threshold(ids, X, gold, grid=[0.45]) == 0.45

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

    def test_all_scores_undefined_returns_smallest(self):
        # Gold labels never intersect the clustered ids, so every grid
        # value scores 0 and the smallest wins.
        ids, X, _ = self.separable()
        gold = GoldClustering(PhraseKind.NP, {99: "x", 98: "y"})
        assert choose_threshold(ids, X, gold, grid=[0.7, 0.2, 0.4]) == 0.2


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

    def test_cluster_phrases_tunes_on_gold_without_a_threshold(self, toy_kb):
        ids, V = ids_and_rows(np.random.default_rng(4).normal(size=(toy_kb.n_nps, 4)))
        gold = GoldClustering(PhraseKind.NP, {i: str(i % 3) for i in ids})
        grid = (0.2, 0.5, 0.9, 1.3)
        clustering = cluster_phrases(toy_kb, PhraseKind.NP, V, None, gold, grid)
        t = choose_threshold(ids, V, gold, grid)
        assert clustering.threshold_used == t
        assert clustering.member_sets() == hac_complete_linkage(ids, V, t)

    def test_cluster_phrases_without_threshold_or_gold_rejected(self, toy_kb):
        V = np.ones((toy_kb.n_nps, 4))
        with pytest.raises(ConfigError):
            cluster_phrases(toy_kb, PhraseKind.NP, V, None)
        with pytest.raises(ConfigError):
            cluster_phrases(toy_kb, PhraseKind.NP, V, None, None,
                            DEFAULT_THRESHOLD_GRID)

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
