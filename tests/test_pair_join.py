"""The shared-key pair join and everything built on it: the join against
a brute-force oracle, IDF equivalences against a scan of all pairs, the
bulk overlap scores against the scalar scores bit for bit, and the
overlap baselines' distances and cuts against the all-pairs matrix."""

from __future__ import annotations

import math
import random
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kbcanon.baselines
import kbcanon.side_info
from kbcanon.baselines import (
    BaselineConfig,
    BaselineName,
    overlap_distances,
    run_baseline,
)
from kbcanon.canonicalize import hac_from_distance_matrix, hac_from_pairs
from kbcanon.kb import PhraseKind, build_kb
from kbcanon.side_info import (
    DocumentFrequency,
    _label_pair_set,
    build_df,
    content_tokens,
    idf_equivalences,
    idf_overlap_score,
    idf_weight,
    key_pairs,
    overlap_scores,
)

from .conftest import pair_tuples, records_from_spo
from .reference import (
    jaccard,
    random_kb,
    reference_distance_matrix,
    reference_jaro_winkler,
    reference_overlap_matrix,
    reference_shared_key_pairs,
)

# every token of these is a stopword, so their content-token sets are empty
_STOPWORD_NPS = ["the", "of the", "it is", "there was"]


def kb_with_edge_cases(rand):
    """A ``random_kb`` plus NPs made only of stopwords, attached to
    existing NPs; an NP with the same content tokens as another; and one
    triple whose NPs share no token and no context with anything else."""
    kb = random_kb(rand)
    rows = [(kb.np_phrase(t.subject).text, kb.rel_phrase(t.relation).text,
             kb.np_phrase(t.object).text) for t in kb.triples]
    nps = [p.text for p in kb.np_vocab]
    rels = [p.text for p in kb.rel_vocab]
    for text in rand.sample(_STOPWORD_NPS, rand.randint(1, len(_STOPWORD_NPS))):
        rows.append((text, rand.choice(rels), rand.choice(nps)))
    rows.append((f"the {rand.choice(nps)}", rand.choice(rels), rand.choice(nps)))
    rows.append(("lone wolf", "howls under", "full moon"))
    return build_kb(records_from_spo(rows))


class TestLabelPairSet:
    @given(st.lists(st.tuples(st.integers(0, 12),
                              st.sampled_from([0, 1, 2, "x", "y", ("s", 1), None])),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    @example([])
    @example([(4, "x"), (4, "x"), (2, "x"), (2, "x")])  # repeated rows
    @example([(0, "x"), (0, None), (0, ("s", 1)), (1, None), (2, ("s", 1)), (3, 0)])
    @example([(5, 1), (3, 1), (7, "1"), (9, (1,)), (8, None), (6, "None")])
    def test_matches_brute_force(self, rows):
        keys = defaultdict(set)
        for pid, key in rows:
            keys[pid].add(key)
        expected = {(a, b) for a, b in combinations(sorted(keys), 2)
                    if keys[a] & keys[b]}
        got = _label_pair_set("x", PhraseKind.NP, iter(rows))
        assert pair_tuples(got) == expected == reference_shared_key_pairs(rows)
        # one sorted row per pair
        assert got.pairs.dtype == np.int64 and got.pairs.shape == (len(expected), 2)
        assert got.pairs.tolist() == sorted(map(list, expected))

    def test_ordered_pairs_of_distinct_ids(self):
        rows = [(3, "k"), (1, "k"), (3, "k"), (2, "j"), (1, "j")]
        got = _label_pair_set("x", PhraseKind.NP, rows)
        assert got.pairs.tolist() == [[1, 2], [1, 3]]


class TestIdfEquivalencesMatchAllPairs:
    @pytest.mark.parametrize("cutoff", [0.1, 0.5, 1.0])
    def test_matches_scan_of_all_pairs(self, cutoff):
        rand = random.Random(31)
        found = 0
        for _ in range(30):
            kb = kb_with_edge_cases(rand)
            df = build_df(kb)
            toks = {p.id: content_tokens(p.text) for p in kb.np_vocab}
            scan = {
                (a, b) for a, b in combinations(sorted(toks), 2)
                if idf_overlap_score(toks[a], toks[b], df) >= cutoff
            }
            assert pair_tuples(idf_equivalences(kb, df, cutoff)) == scan
            found += len(scan)
        assert found > 0


class TestOverlapBaselineMatrices:
    """The Jaro-Winkler baseline lists every pair within the threshold at
    its all-pairs matrix distance; the oracle scores every pair."""

    @pytest.mark.parametrize("name,kind", [
        (BaselineName.STRSIM_HAC, PhraseKind.NP),
        (BaselineName.STRSIM_HAC, PhraseKind.REL),
    ])
    def test_equals_all_pairs_matrix(self, name, kind, monkeypatch):
        captured = []
        original = kbcanon.baselines.hac_from_pairs

        def capturing(ids, pairs, threshold, far):
            chunks = list(pairs)
            captured.append(tuple(np.concatenate(x) for x in zip(*chunks)))
            return original(ids, chunks, threshold, far)

        monkeypatch.setattr(kbcanon.baselines, "hac_from_pairs", capturing)
        rand = random.Random(47)
        for _ in range(20):
            kb = kb_with_edge_cases(rand)
            vocab = kb.vocab(kind)
            ids = sorted(p.id for p in vocab)
            texts = {p.id: p.text for p in vocab}
            expected = reference_distance_matrix([texts[i] for i in ids],
                                                 reference_jaro_winkler)
            captured.clear()
            got = run_baseline(BaselineConfig(name, kind=kind, threshold=0.5), kb)
            assert len(captured) == 1
            a, b, d = captured[0]
            i, j = np.triu_indices(len(ids), 1)
            near = expected[i, j] <= 0.5
            order = np.lexsort((b, a))
            assert np.array_equal(a[order], i[near]) and np.array_equal(b[order], j[near])
            assert np.array_equal(d[order], expected[i, j][near])
            assert got.member_sets() == hac_from_distance_matrix(range(len(ids)), expected, 0.5)


def dense(n: int, a, b, d) -> np.ndarray:
    """The n×n matrix of the listed pairs' distances, 1 at every other
    pair, 0 on the diagonal."""
    D = np.ones((n, n))
    np.fill_diagonal(D, 0.0)
    D[a, b] = D[b, a] = d
    return D


class TestOverlapBaselinePairs:
    """The overlap baselines score only the pairs the join gives them and
    never build D; their distances and cuts equal the all-pairs matrix's."""

    @pytest.mark.parametrize("name", [BaselineName.IDF_HAC, BaselineName.ATTR_HAC])
    def test_equals_all_pairs_matrix(self, name):
        rand = random.Random(47)
        for _ in range(20):
            kb = kb_with_edge_cases(rand)
            expected = reference_overlap_matrix(name.value, kb)
            a, b, d = overlap_distances(name, kb)
            assert (a < b).all()
            assert len(set(zip(a.tolist(), b.tolist()))) == len(a)
            assert np.array_equal(dense(kb.n_nps, a, b, d), expected)
            for t in (0.0, 0.3, 0.5, 0.99, 1.0, 1.5):
                got = run_baseline(BaselineConfig(name, threshold=t), kb).member_sets()
                assert got == hac_from_distance_matrix(range(kb.n_nps), expected, t)


_TOKENS = [f"t{k}" for k in range(8)]


@st.composite
def weighted_sets(draw):
    """Token sets (some empty) and a frequency table that may miss tokens
    (weight 0) and may hold one very frequent token, whose weight needs
    the finest scale of all, 2**-58."""
    sets = draw(st.lists(st.frozensets(st.sampled_from(_TOKENS), max_size=5), max_size=9))
    df = draw(st.dictionaries(st.sampled_from(_TOKENS), st.integers(1, 40)))
    df = DocumentFrequency(df)
    if draw(st.booleans()):
        # 1/ln(1 + 10**15) is a multiple of 2**-58 only, which scales the
        # weight of a token of frequency 1, 1/ln(2), to about 2**58.5
        df.df["t0"] = 10**15
    return sets, df


def scored(sets, df):
    """overlap_scores of the sets, IDF-weighted, as {(a, b): score}."""
    index = {t: k for k, t in enumerate(_TOKENS)}
    pos = [p for p, s in enumerate(sets) for _ in s]
    key = [index[t] for s in sets for t in s]
    a, b, score = overlap_scores(len(sets), pos, key, [idf_weight(t, df) for t in _TOKENS])
    return dict(zip(zip(a.tolist(), b.tolist()), score.tolist()))


class TestOverlapScores:
    @given(weighted_sets())
    @settings(max_examples=300, deadline=None)
    def test_equals_idf_overlap_score_bit_for_bit(self, case):
        sets, df = case
        got = scored(sets, df)
        pairs = {(a, b) for a, b in combinations(range(len(sets)), 2) if sets[a] & sets[b]}
        assert set(got) == pairs
        for (a, b), score in got.items():
            assert score.hex() == idf_overlap_score(sets[a], sets[b], df).hex()
        D = reference_distance_matrix(sets, lambda x, y: idf_overlap_score(x, y, df))
        a = np.array([a for a, _ in got], dtype=np.int64)
        b = np.array([b for _, b in got], dtype=np.int64)
        d = 1.0 - np.array(list(got.values()))
        ids = range(len(sets))
        for t in (0.5, 1.0, 1.5):
            assert hac_from_pairs(ids, [(a, b, d)], t, 1.0) == hac_from_distance_matrix(ids, D, t)

    @given(st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_unit_weights_equal_jaccard_bit_for_bit(self, sets):
        pos = [p for p, s in enumerate(sets) for _ in s]
        key = [k for s in sets for k in s]
        a, b, score = overlap_scores(len(sets), pos, key)
        pairs = {(a, b) for a, b in combinations(range(len(sets)), 2) if sets[a] & sets[b]}
        assert set(zip(a.tolist(), b.tolist())) == pairs
        for x, y, v in zip(a.tolist(), b.tolist(), score.tolist()):
            assert v.hex() == jaccard(sets[x], sets[y]).hex()

    def test_fallback_past_2_62(self, monkeypatch):
        # sixteen tokens of frequency 1 scale to about 2**58.5 each beside a
        # token of frequency 10**15, so the long phrase's total passes
        # 2**62 and its pairs are scored by fsum
        tokens = [f"u{k}" for k in range(16)]
        df = DocumentFrequency({**{t: 1 for t in tokens}, "frequent": 10**15})
        sets = [frozenset(tokens), frozenset({"u1", "frequent"}), frozenset({"u1", "u2"}),
                frozenset({"frequent"})]
        fsums, fsum = [], math.fsum
        monkeypatch.setattr(kbcanon.side_info.math, "fsum",
                            lambda xs: fsums.append(1) or fsum(xs))
        index = {t: k for k, t in enumerate([*tokens, "frequent"])}
        weights = [idf_weight(t, df) for t in index]
        pos = [p for p, s in enumerate(sets) for _ in s]
        key = [index[t] for s in sets for t in s]
        a, b, score = overlap_scores(len(sets), pos, key, weights)
        got = dict(zip(zip(a.tolist(), b.tolist()), score.tolist()))
        monkeypatch.undo()
        assert set(got) == {(0, 1), (0, 2), (1, 2), (1, 3)}
        assert len(fsums) == 2 * 2  # two sums for each pair of the long phrase
        for (x, y), v in got.items():
            assert v.hex() == idf_overlap_score(sets[x], sets[y], df).hex()

    def test_repeated_rows_count_once(self):
        a, b, score = overlap_scores(3, [0, 0, 1, 1, 2], [5, 5, 5, 6, 6])
        assert a.tolist() == [0, 1] and b.tolist() == [1, 2]
        assert score.tolist() == [1 / 2, 1 / 2]


class TestKeyPairs:
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(-3, 3)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_one_row_per_key_and_pair(self, rows):
        pos = np.array([p for p, _ in rows], dtype=np.int64)
        key = np.array([k for _, k in rows], dtype=np.int64)
        a, b, k = key_pairs(pos, key)
        got = sorted(zip(a.tolist(), b.tolist(), k.tolist()))
        holders = defaultdict(set)
        for p, x in rows:
            holders[x].add(p)
        assert got == sorted((a, b, x) for x, ps in holders.items()
                             for a, b in combinations(sorted(ps), 2))
        labelled = _label_pair_set("x", PhraseKind.NP, rows)
        assert {(a, b) for a, b, _ in got} == pair_tuples(labelled)
