"""Macro, micro, and pairwise clustering scores against brute-force
oracles and the hand-worked fixture."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbcanon.errors import InvariantViolation, MetricsUndefinedError
from kbcanon.metrics import (
    evaluate,
    format_report,
    harmonic_mean,
    restrict_to_gold,
)

from .reference import brute_macro, brute_micro, brute_pairwise, reference_evaluate

# The worked fixture: three gold entities, three predicted clusters, seven
# labeled elements. Elements are numbered for id-based scoring:
# 0 America, 1 USA, 2 New York, 3 NYC, 4 New York City, 5 Big Apple,
# 6 California.
WORKED_GOLD = {0: "e1", 1: "e1", 2: "e2", 3: "e2", 4: "e2", 5: "e2", 6: "e3"}
WORKED_CLUSTERS = [{0, 1, 2}, {3, 4, 5}, {6}]


def partitions(max_elements=30):
    """Random (clusters, gold) over a contiguous element range."""
    return st.integers(min_value=2, max_value=max_elements).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, max(1, n // 3)), min_size=n, max_size=n),
            st.lists(st.integers(0, max(1, n // 3)), min_size=n, max_size=n),
        )
    )


def to_clusters(assignment):
    groups = {}
    for x, c in enumerate(assignment):
        groups.setdefault(c, set()).add(x)
    return list(groups.values())


class TestWorkedFixture:
    def test_exact_rationals(self):
        report = evaluate(WORKED_CLUSTERS, WORKED_GOLD)
        assert report.macro_p == pytest.approx(2 / 3, abs=1e-12)
        assert report.macro_r == pytest.approx(2 / 3, abs=1e-12)
        assert report.micro_p == pytest.approx(6 / 7, abs=1e-12)
        assert report.micro_r == pytest.approx(6 / 7, abs=1e-12)
        assert report.pair_p == pytest.approx(4 / 6, abs=1e-12)
        assert report.pair_r == pytest.approx(4 / 7, abs=1e-12)

    def test_f1_values(self):
        report = evaluate(WORKED_CLUSTERS, WORKED_GOLD)
        assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report.micro_f1 == pytest.approx(6 / 7, abs=1e-12)
        expected = 2 * (4 / 6) * (4 / 7) / ((4 / 6) + (4 / 7))
        assert report.pair_f1 == pytest.approx(expected, abs=1e-12)
        assert report.pair_f1 == pytest.approx(0.6154, abs=1e-4)

    def test_counts(self):
        report = evaluate(WORKED_CLUSTERS, WORKED_GOLD)
        assert report.n_clusters == 3
        assert report.n_gold == 3
        assert report.n_elements == 7


class TestIdentityAndBoundaries:
    def test_perfect_clustering_scores_one(self):
        gold = {0: "a", 1: "a", 2: "b"}
        clusters = [{0, 1}, {2}]
        report = evaluate(clusters, gold)
        for value in report.as_dict().values():
            if isinstance(value, float):
                assert value == pytest.approx(1.0) or value >= 1
        assert report.pair_p == 1.0
        assert report.pair_r == 1.0

    def test_all_singletons_macro_precision_one(self):
        gold = {0: "a", 1: "a", 2: "b"}
        clusters = [{0}, {1}, {2}]
        # With the roles swapped, the all-singleton clustering is the gold
        # side, so its macro precision is the swapped macro recall.
        swapped = evaluate([{0, 1}, {2}], {0: "s0", 1: "s1", 2: "s2"})
        assert swapped.macro_r == 1.0
        report = evaluate(clusters, gold)
        assert report.macro_p == 1.0
        assert report.pair_p is None
        assert report.pair_r == 0.0

    def test_single_cluster_vs_equal_gold(self):
        k, m = 4, 3
        gold = {i: f"g{i // m}" for i in range(k * m)}
        clusters = [set(range(k * m))]
        report = evaluate(clusters, gold)
        assert report.micro_p == pytest.approx(m / (k * m), abs=1e-12)

    def test_no_gold_pairs_recall_undefined(self):
        gold = {0: "a", 1: "b"}
        report = evaluate([{0, 1}], gold)
        assert report.pair_r is None
        assert report.pair_p == 0.0

    def test_empty_labeled_set_is_error(self):
        with pytest.raises(MetricsUndefinedError):
            evaluate([{0, 1}], {9: "a"})
        with pytest.raises(MetricsUndefinedError):
            evaluate([], {0: "a"})

    def test_labeled_element_in_two_clusters_is_error(self):
        gold = {0: "a", 1: "a", 2: "b"}
        with pytest.raises(InvariantViolation):
            evaluate([{0, 1}, {1, 2}], gold)
        # An unlabeled element is dropped before the check.
        report = evaluate([{0, 9}, {1, 2, 9}], gold)
        assert report.n_elements == 3


class TestRestrictToGold:
    def test_all_labeled_unchanged(self):
        out = restrict_to_gold([{0, 1}, {2}], {0: "a", 1: "a", 2: "b"})
        assert sorted(map(sorted, out)) == [[0, 1], [2]]

    def test_unlabeled_cluster_removed(self):
        out = restrict_to_gold([{0}, {1, 2}], {1: "a", 2: "a"})
        assert sorted(map(sorted, out)) == [[1, 2]]

    def test_mixed_cluster_filtered(self):
        out = restrict_to_gold([{0, 1}], {0: "a"})
        assert sorted(map(sorted, out)) == [[0]]


class TestHarmonicMean:
    def test_zero_zero_is_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_none_propagates(self):
        assert harmonic_mean(None, 0.5) is None
        assert harmonic_mean(0.5, None) is None

    def test_regular_value(self):
        assert harmonic_mean(0.5, 1.0) == pytest.approx(2 / 3)


class TestMeanF1:
    def test_undefined_counts_as_zero(self):
        report = evaluate([{0}, {1}], {0: "a", 1: "b"})
        assert report.pair_p is None
        assert report.mean_f1() == pytest.approx(
            (report.macro_f1 + report.micro_f1 + 0.0) / 3
        )


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(partitions())
    def test_matches_oracles(self, data):
        cluster_assign, gold_assign = data
        clusters = to_clusters(cluster_assign)
        gold = {x: f"g{g}" for x, g in enumerate(gold_assign)}
        report = evaluate(clusters, gold)
        bp, br = brute_macro(clusters, gold)
        assert report.macro_p == pytest.approx(bp, abs=1e-12)
        assert report.macro_r == pytest.approx(br, abs=1e-12)
        bp, br = brute_micro(clusters, gold)
        assert report.micro_p == pytest.approx(bp, abs=1e-12)
        assert report.micro_r == pytest.approx(br, abs=1e-12)
        bp, br = brute_pairwise(clusters, gold)
        for got, want in ((report.pair_p, bp), (report.pair_r, br)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(partitions())
    def test_role_swap_duality(self, data):
        cluster_assign, gold_assign = data
        clusters = to_clusters(cluster_assign)
        gold = {x: f"g{g}" for x, g in enumerate(gold_assign)}
        # Swap the roles: the gold clusters are predicted, and each
        # element's predicted cluster is its label.
        cd = evaluate(clusters, gold)
        dc = evaluate(to_clusters(gold_assign),
                      {x: f"c{c}" for x, c in enumerate(cluster_assign)})
        assert cd.macro_r == pytest.approx(dc.macro_p, abs=1e-12)
        assert cd.macro_p == pytest.approx(dc.macro_r, abs=1e-12)
        assert cd.micro_r == pytest.approx(dc.micro_p, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(partitions(), st.integers(0, 1000))
    def test_relabeling_invariance(self, data, salt):
        cluster_assign, gold_assign = data
        clusters = to_clusters(cluster_assign)
        gold = {x: f"g{g}" for x, g in enumerate(gold_assign)}
        renamed = {x: f"label_{salt}_{g}" for x, g in gold.items()}
        a = evaluate(clusters, gold).as_dict()
        b = evaluate(clusters, renamed).as_dict()
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(partitions(), st.randoms(use_true_random=False))
    def test_splitting_a_pure_cluster_never_decreases_macro_precision(
        self, data, rand
    ):
        cluster_assign, gold_assign = data
        clusters = to_clusters(cluster_assign)
        gold = {x: f"g{g}" for x, g in enumerate(gold_assign)}
        label_sets = [{gold[x] for x in c} for c in clusters]
        splittable = [
            i for i, c in enumerate(clusters)
            if len(c) >= 2 and len(label_sets[i]) == 1
        ]
        if not splittable:
            return
        i = rand.choice(splittable)
        members = sorted(clusters[i])
        cut = rand.randint(1, len(members) - 1)
        refined = [c for j, c in enumerate(clusters) if j != i]
        refined += [set(members[:cut]), set(members[cut:])]
        before = evaluate(clusters, gold).macro_p
        after = evaluate(refined, gold).macro_p
        assert after >= before - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(partitions(), st.randoms(use_true_random=False))
    def test_splitting_never_decreases_micro_precision(self, data, rand):
        cluster_assign, gold_assign = data
        clusters = to_clusters(cluster_assign)
        gold = {x: f"g{g}" for x, g in enumerate(gold_assign)}
        splittable = [i for i, c in enumerate(clusters) if len(c) >= 2]
        if not splittable:
            return
        i = rand.choice(splittable)
        members = sorted(clusters[i])
        cut = rand.randint(1, len(members) - 1)
        refined = [c for j, c in enumerate(clusters) if j != i]
        refined += [set(members[:cut]), set(members[cut:])]
        before = evaluate(clusters, gold).micro_p
        after = evaluate(refined, gold).micro_p
        assert after >= before - 1e-12

    def test_splitting_an_impure_cluster_can_decrease_macro_precision(self):
        """Fraction-of-pure-clusters is NOT monotone under arbitrary
        refinement: splitting an impure cluster into two impure halves
        grows the denominator without growing the pure count. Pinned so
        the limitation stays documented."""
        gold = {0: "a", 1: "a", 2: "b", 3: "a", 4: "b", 5: "a"}
        clusters = [{0, 1}, {2, 3, 4, 5}]
        refined = [{0, 1}, {2, 3}, {4, 5}]
        assert evaluate(clusters, gold).macro_p == pytest.approx(1 / 2)
        assert evaluate(refined, gold).macro_p == pytest.approx(1 / 3)


def labeled_clusterings():
    """Clusters over int or str ids, some unlabeled, some repeated."""
    ids = st.one_of(st.integers(0, 12), st.sampled_from("abcdefghij"))
    return st.tuples(
        st.lists(st.lists(ids, max_size=6), max_size=8),
        st.dictionaries(ids, st.sampled_from(["x", "y", "z", "w"]), max_size=20),
    )


class TestAgainstReferenceEvaluate:
    @settings(max_examples=300, deadline=None)
    @given(labeled_clusterings())
    def test_same_report_or_same_error(self, data):
        """The one-table evaluate equals the original four-pass one
        exactly, float for float, or raises the same error. Its report
        holds plain Python ints and floats, never numpy scalars, so it
        serializes to JSON as it is."""
        clusters, gold = data

        def outcome(fn):
            try:
                return fn(clusters, gold).as_dict()
            except (InvariantViolation, MetricsUndefinedError) as e:
                return type(e)

        got = outcome(evaluate)
        assert got == outcome(reference_evaluate)
        if isinstance(got, dict):
            assert {type(v) for v in got.values()} <= {int, float, type(None)}


class TestFormatReport:
    def test_table_contains_scores_and_undef(self):
        report = evaluate([{0}, {1}], {0: "a", 1: "b"})
        text = format_report(report)
        assert "macro" in text and "micro" in text and "pairwise" in text
        assert "undef" in text

    def test_string_elements_supported(self):
        report = evaluate([{"apple", "apples"}, {"pear"}],
                          {"apple": "A", "apples": "A", "pear": "P"})
        assert report.macro_p == 1.0
