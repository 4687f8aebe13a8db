"""Tests for the comparison methods sharing the HAC backend."""

from __future__ import annotations

import random
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kbcanon.baselines
from kbcanon.baselines import (
    NO_THRESHOLD,
    BaselineConfig,
    BaselineName,
    _jw_candidates,
    _pack,
    jaro_winkler_pairs,
    overlap_distances,
    run_baseline,
    train_structure_only,
    tune_threshold_on_matrix,
)
from kbcanon.canonicalize import (
    DEFAULT_THRESHOLD_GRID,
    cosine_distance_matrix,
    hac_from_distance_matrix,
    tune_threshold,
)
from kbcanon.embedding import (
    HyperParams,
    default_init_rng,
    init_embeddings,
    load_word_vectors,
    train,
    wordvec_phrase_embedding,
)
from kbcanon.errors import ConfigError, ZeroVectorError
from kbcanon.kb import GoldClustering, OpenKB, Phrase, PhraseKind, build_kb
from kbcanon.side_info import EMPTY_SIDE_INFO, components, content_tokens

from .conftest import records_from_spo
from .reference import (
    attribute_sets,
    naive_attribute_overlap,
    random_kb,
    reference_distance_matrix,
    reference_jaro_winkler,
)

SMALL_H = HyperParams(dim=8, epochs=4, batch_size=16, seed=5)


def np_kb(*texts):
    """A KB whose NP vocabulary is exactly ``texts`` (pairing consecutive
    entries keeps each text a subject or object at least once)."""
    rows = []
    for i in range(0, len(texts) - 1, 2):
        rows.append((texts[i], "rel", texts[i + 1]))
    if len(texts) % 2 == 1:
        rows.append((texts[-1], "rel", texts[0]))
    return build_kb(records_from_spo(rows))


# ---------------------------------------------------------------------------
# string similarity


def jw_matrix(texts) -> np.ndarray:
    """The n×n `jaro_winkler_pairs` of ``texts`` at threshold 1, 0 on the
    diagonal, after checking that every pair i < j is listed exactly once."""
    n = len(texts)
    D, listed = np.zeros((n, n)), np.zeros((n, n), dtype=int)
    for a, b, d in jaro_winkler_pairs(texts, 1.0):
        np.add.at(listed, (a, b), 1)
        D[a, b] = D[b, a] = d
    assert np.array_equal(listed, np.triu(np.ones((n, n), dtype=int), 1))
    return D


def jw_distance(s1: str, s2: str) -> float:
    """1 - Jaro-Winkler similarity of one pair, read off the listed pairs."""
    return jw_matrix([s1, s2])[0, 1]


class TestJaroWinkler:
    def test_classic_pairs(self):
        assert jw_distance("MARTHA", "MARHTA") == pytest.approx(1 - 0.9611, abs=1e-4)
        assert jw_distance("DIXON", "DICKSONX") == pytest.approx(1 - 0.8133, abs=1e-4)

    def test_identical(self):
        assert jw_distance("", "") == 0.0
        assert jw_distance("same", "same") == 0.0

    def test_disjoint_characters(self):
        assert jw_distance("abc", "xyz") == 1.0

    def test_empty_versus_nonempty(self):
        assert jw_distance("", "abc") == 1.0
        assert jw_distance("abc", "") == 1.0

    def test_prefix_boost_is_unconditional(self):
        # Jaro("ab", "ax") = 2/3 and the shared 1-char prefix lifts it to
        # 0.7 even though the base similarity is below the usual 0.7 gate.
        assert jw_distance("ab", "ax") == pytest.approx(1 - (2 / 3 + 0.1 * (1 / 3)))

    def test_matches_reference(self):
        rand = random.Random(20)
        alphabet = string.ascii_lowercase[:6]
        for _ in range(300):
            s1 = "".join(rand.choices(alphabet, k=rand.randint(0, 9)))
            s2 = "".join(rand.choices(alphabet, k=rand.randint(0, 9)))
            assert jw_distance(s1, s2) == 1.0 - reference_jaro_winkler(s1, s2)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry_and_bounds(self, s1, s2):
        v = jw_distance(s1, s2)
        assert -1e-12 <= v <= 1.0
        assert v == pytest.approx(jw_distance(s2, s1), abs=1e-12)


# code points that collide often, a combining mark, two characters
# outside the BMP and NUL (the packing pads with -1, not 0)
_JW_CHARS = st.sampled_from(["a", "b", "c", "\u00e9", "\u0301", "\U0001F600",
                             "\U00010348", "\x00"])


@st.composite
def jw_text_lists(draw):
    """Lists of up to 14 texts drawn from a pool of up to 8, so that equal
    texts recur: random Unicode, the colliding characters above, and
    runs of one repeated character."""
    text = st.one_of(
        st.text(st.one_of(_JW_CHARS, st.characters()), max_size=10),
        st.builds(lambda c, k: c * k, _JW_CHARS, st.integers(1, 10)),
    )
    pool = draw(st.lists(text, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=14))


class TestJaroWinklerDistances:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(texts=jw_text_lists())
    @example(texts=[])
    @example(texts=["solo"])
    @example(texts=["", "", "a", "b", "a", "aaaa", "aaab", "baaa", "\U0001F600",
              "e\u0301", "\u00e9", "\ud800x", "?x"])
    def test_bit_equal_to_reference(self, texts, monkeypatch):
        # 100 pair-characters a block, 1 to 12 pairs: a matrix spans
        # several blocks, and a block boundary falls inside a row
        monkeypatch.setattr(kbcanon.baselines, "_JW_BLOCK", 100)
        D = jw_matrix(texts)
        assert np.array_equal(D, reference_distance_matrix(texts, reference_jaro_winkler))

    def test_extra_memory_is_bounded_by_the_block(self):
        rand = random.Random(5)
        texts = ["".join(rand.choices("abcdefgh ", k=rand.randint(0, 12)))
                 for _ in range(1000)]
        long_text = "".join(rand.choices("abcdefgh ", k=2000))
        # Every pair is listed at t = 1, and the chunks are counted, not
        # kept. The short texts alone:
        # their blocks are capped by the 4,096-pair chunks of
        # `_length_pairs`, while two int64 index arrays over all C(1000, 2)
        # pairs, as np.triu_indices builds, would alone take 8 MB. Then one
        # 2,000-character text first among 300 of them: a block of its
        # pairs holds 2^18 // 2,020 = 129 pairs, where one block of 8,192
        # pairs padded to 2,000 characters took about 80 MiB.
        for case in (texts, [long_text] + texts[:300]):
            tracemalloc.start()
            try:
                listed = sum(len(d) for _, _, d in jaro_winkler_pairs(case, 1.0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert listed == len(case) * (len(case) - 1) // 2
            assert peak < 4 * 2**20


def texts_kb(texts) -> OpenKB:
    """A KB without triples whose NP and REL vocabularies are both
    ``texts``, in order, repeated and empty texts included."""
    return OpenKB(triples=(), **{
        f"{kind.value.lower()}_vocab": tuple(Phrase(k, t, kind, 1) for k, t in enumerate(texts))
        for kind in PhraseKind})


# below, at and above the thresholds where the bound starts to drop pairs
# (0.4) and where the cut scores no pair (1)
_STRSIM_THRESHOLDS = (0.0, 0.05, 0.3, 0.4, 0.45, 0.95, 1.0, 1.5)


class TestStrsimCut:
    """`strsim_hac` scores only the validation pairs and the pairs the
    character bound keeps, and cuts like the all-pairs matrix."""

    @settings(max_examples=150, deadline=None)
    @given(texts=jw_text_lists(), data=st.data())
    @example(texts=[], data=None)
    @example(texts=["aaaab", "aaaac", "abcdx", "abcdy", "", ""], data=None)
    def test_equals_cut_of_the_reference_matrix(self, texts, data):
        kb = texts_kb(texts)
        ids = range(len(texts))
        D = reference_distance_matrix(texts, reference_jaro_winkler)
        for kind in PhraseKind:
            for t in _STRSIM_THRESHOLDS:
                got = run_baseline(BaselineConfig(BaselineName.STRSIM_HAC, kind=kind,
                                                  threshold=t), kb)
                assert got.member_sets() == hac_from_distance_matrix(ids, D, t)
            if not texts:
                continue
            if data is None:
                val = list(ids)
                labels = [f"g{k % 2}" for k in val]
            else:
                val = sorted(data.draw(st.sets(st.sampled_from(ids), min_size=1)))
                labels = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(val),
                                            max_size=len(val)))
            gold = GoldClustering(kind, dict(zip(val, labels)))
            # the default grid, and one whose top lists every validation pair
            for grid in (DEFAULT_THRESHOLD_GRID, (0.2, 0.6, 1.2)):
                got = run_baseline(BaselineConfig(BaselineName.STRSIM_HAC, kind=kind), kb,
                                   validation_gold=gold, validation_ids=val, grid=grid)
                t = tune_threshold(val, D[np.ix_(val, val)], gold, grid)[0]
                assert got.threshold_used == t
                assert got.member_sets() == hac_from_distance_matrix(ids, D, t)

    def test_tuned_past_1_cuts_without_scoring(self, monkeypatch):
        # "abc" and "xyz" share no character, so only a cut at t >= 1
        # joins them, and the gold puts the four validation texts in one
        # cluster: tuning on the grid (0.2, 0.6, 1.2) scores their pairs
        # and picks 1.2, and the cut of all five texts there scores none
        texts = ["abc", "xyz", "abd", "", "xyz"]
        val = [0, 1, 2, 3]
        D = reference_distance_matrix(texts, reference_jaro_winkler)
        gold = GoldClustering(PhraseKind.NP, {k: "e1" for k in val})
        grid = (0.2, 0.6, 1.2)
        t = tune_threshold(val, D[np.ix_(val, val)], gold, grid)[0]
        assert t == 1.2
        scored = []
        original = kbcanon.baselines._jw_distances

        def scoring(packed, i, j):
            scored.append(len(packed.lens))
            return original(packed, i, j)

        monkeypatch.setattr(kbcanon.baselines, "_jw_distances", scoring)
        got = run_baseline(BaselineConfig(BaselineName.STRSIM_HAC), texts_kb(texts),
                           validation_gold=gold, validation_ids=val, grid=grid)
        assert got.threshold_used == t
        assert got.member_sets() == hac_from_distance_matrix(range(len(texts)), D, t)
        assert scored and set(scored) == {len(val)}

    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_cut_from_1_on_scores_no_pair(self, t, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("a pair was scored")

        monkeypatch.setattr(kbcanon.baselines, "_jw_distances", no_scoring)
        texts = ["abc", "xyz", "abd", "", "xyz"]
        for kind in PhraseKind:
            got = run_baseline(BaselineConfig(BaselineName.STRSIM_HAC, kind=kind, threshold=t),
                               texts_kb(texts))
            assert got.member_sets() == [frozenset(range(len(texts)))]
            assert got.threshold_used == t

    @settings(max_examples=150, deadline=None)
    @given(texts=jw_text_lists())
    # the bound is exact here: "aaaab" and "aaaac" match 4 characters in
    # order under a 4-character prefix
    @example(texts=["aaaab", "aaaac", "abcdx", "abcdy", "", "", "a"])
    def test_bound_never_drops_a_pair_within_the_threshold(self, texts):
        D = reference_distance_matrix(texts, reference_jaro_winkler)
        i, j = np.triu_indices(len(texts), 1)
        # every pair's own distance is a threshold that just admits it
        for t in sorted({*D[i, j].tolist(), *_STRSIM_THRESHOLDS}):
            kept = {(a, b) for x, y in _jw_candidates(_pack(texts), t)
                    for a, b in zip(x.tolist(), y.tolist())}
            assert kept >= {(a, b) for a, b in zip(i.tolist(), j.tolist()) if D[a, b] <= t}

    def test_bound_drops_distant_pairs(self):
        texts = ["colour", "color", "zebra", "quartz", "colours", "a", "bb", "zebras"]
        kept = sum(len(x) for x, _ in _jw_candidates(_pack(texts), 0.05))
        assert 0 < kept < len(texts) * (len(texts) - 1) // 2


# ---------------------------------------------------------------------------
# attribute overlap


def attr_hac_score(a: int, b: int, kb) -> float:
    """The pair score ATTR_HAC clusters by: 1 - its distance, 0 at a pair
    that shares no attribute."""
    x, y, d = overlap_distances(BaselineName.ATTR_HAC, kb)
    at = np.flatnonzero((x == min(a, b)) & (y == max(a, b)))
    return 1.0 - d[at[0]] if at.size else 0.0


class TestAttributeOverlap:
    def test_half_shared(self):
        kb = build_kb(
            records_from_spo(
                [("a", "r", "x"), ("b", "r", "x"), ("b", "r", "y")]
            )
        )
        a, b = kb.np_id("a"), kb.np_id("b")
        assert attr_hac_score(a, b, kb) == pytest.approx(1 / 2)

    def test_all_shared(self):
        kb = build_kb(records_from_spo([("a", "r", "x"), ("b", "r", "x")]))
        assert attr_hac_score(kb.np_id("a"), kb.np_id("b"), kb) == 1.0

    def test_disjoint(self):
        kb = build_kb(records_from_spo([("a", "r", "x"), ("b", "q", "y")]))
        assert attr_hac_score(kb.np_id("a"), kb.np_id("b"), kb) == 0.0

    def test_subject_and_object_positions_distinct(self):
        # "a r b" gives a the attribute ("s", r, b) and b the attribute
        # ("o", r, a): sharing a neighbour via different positions does
        # not count as overlap.
        kb = build_kb(records_from_spo([("a", "r", "b")]))
        assert attr_hac_score(kb.np_id("a"), kb.np_id("b"), kb) == 0.0

    def test_matches_naive(self):
        rand = random.Random(21)
        for _ in range(25):
            kb = random_kb(rand, max_rels=4, max_triples=30)
            ids = [p.id for p in kb.np_vocab]
            for _ in range(10):
                a, b = rand.sample(ids, 2)
                assert attr_hac_score(a, b, kb) == pytest.approx(
                    naive_attribute_overlap(kb, a, b), abs=1e-12
                )

    def test_attribute_sets_cover_vocab(self):
        rand = random.Random(22)
        kb = random_kb(rand)
        sets = attribute_sets(kb)
        assert set(sets) == {p.id for p in kb.np_vocab}


# ---------------------------------------------------------------------------
# word-vector phrase embedding


class TestWordvecPhraseEmbedding:
    def test_mean_of_known_tokens(self):
        wv = {"red": np.array([1.0, 0.0]), "car": np.array([0.0, 1.0])}
        got = wordvec_phrase_embedding("red car", wv, 2, np.random.default_rng(0))
        assert np.allclose(got, [0.5, 0.5])

    def test_partial_coverage_uses_known_tokens_only(self):
        wv = {"red": np.array([1.0, 0.0])}
        got = wordvec_phrase_embedding("red zzz", wv, 2, np.random.default_rng(0))
        assert np.allclose(got, [1.0, 0.0])

    def test_unknown_phrase_falls_back_to_bounded_uniform(self):
        d = 16
        got = wordvec_phrase_embedding("zzz", {}, d, np.random.default_rng(1))
        assert got.shape == (d,)
        assert np.all(np.abs(got) <= 0.1 / np.sqrt(d))

    def test_fallback_deterministic_in_rng_state(self):
        a = wordvec_phrase_embedding("zzz", {}, 8, np.random.default_rng(2))
        b = wordvec_phrase_embedding("zzz", {}, 8, np.random.default_rng(2))
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# config validation


class TestBaselineConfig:
    def test_threshold_on_equivalence_method_rejected(self):
        with pytest.raises(ConfigError):
            BaselineConfig(name=BaselineName.MORPH, threshold=0.5).validate()

    def test_hyperparams_on_non_embedding_method_rejected(self):
        with pytest.raises(ConfigError):
            BaselineConfig(
                name=BaselineName.IDF_HAC, threshold=0.5, hyperparams=SMALL_H
            ).validate()

    @pytest.mark.parametrize(
        "name",
        [BaselineName.ENTLINK, BaselineName.IDF_HAC, BaselineName.ATTR_HAC],
    )
    def test_np_only_methods_reject_rel(self, name):
        threshold = 0.5 if name is not BaselineName.ENTLINK else None
        with pytest.raises(ConfigError):
            BaselineConfig(name=name, kind=PhraseKind.REL, threshold=threshold).validate()

    def test_strsim_on_relations_allowed(self):
        BaselineConfig(
            name=BaselineName.STRSIM_HAC, kind=PhraseKind.REL, threshold=0.5
        ).validate()

    def test_similarity_method_needs_threshold_or_gold(self):
        kb = np_kb("alpha", "beta", "gamma", "delta")
        cfg = BaselineConfig(name=BaselineName.STRSIM_HAC)
        with pytest.raises(ConfigError):
            run_baseline(cfg, kb)

    @pytest.mark.parametrize("gold", [None, GoldClustering(PhraseKind.NP, {})])
    @pytest.mark.parametrize(
        "name", sorted(kbcanon.baselines._HAC_METHODS, key=lambda n: n.value))
    def test_hac_method_without_threshold_or_gold_refused_before_any_work(
            self, name, gold, monkeypatch):
        self.assert_refused_before_any_work(name, gold, [0, 1], monkeypatch)

    @pytest.mark.parametrize(
        "name", sorted(kbcanon.baselines._HAC_METHODS, key=lambda n: n.value))
    def test_hac_method_without_validation_ids_refused_before_any_work(
            self, name, monkeypatch):
        # the gold's labelled ids are not a stand-in for the validation ids
        gold = GoldClustering(PhraseKind.NP, {0: "e1", 1: "e1"})
        self.assert_refused_before_any_work(name, gold, (), monkeypatch)

    @staticmethod
    def assert_refused_before_any_work(name, gold, validation_ids, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the threshold check")

        for fn in ("train", "init_embeddings", "average_word_vectors",
                   "jaro_winkler_pairs", "_jw_distances", "build_df", "overlap_scores"):
            monkeypatch.setattr(kbcanon.baselines, fn, no_work)
        kb = np_kb("alpha", "beta", "gamma", "delta")
        with pytest.raises(ConfigError, match=f"{name.value} needs a threshold"):
            run_baseline(BaselineConfig(name=name), kb, validation_gold=gold,
                         validation_ids=validation_ids,
                         word_vectors=({"alpha": np.ones(2)}, 2))


# ---------------------------------------------------------------------------
# equivalence-signal methods


class TestMorphBaseline:
    def test_groups_morphological_variants(self):
        kb = np_kb("city", "Cities", "stone", "rock")
        clustering = run_baseline(BaselineConfig(name=BaselineName.MORPH), kb)
        sets = {frozenset(kb.np_phrase(i).text for i in c.members)
                for c in clustering.clusters}
        assert frozenset({"city", "Cities"}) in sets
        assert frozenset({"stone"}) in sets
        assert clustering.threshold_used == NO_THRESHOLD

    def test_representative_is_most_frequent(self):
        kb = build_kb(
            records_from_spo(
                [
                    ("Cities", "r", "x"),
                    ("Cities", "q", "y"),
                    ("city", "r", "z"),
                ]
            )
        )
        clustering = run_baseline(BaselineConfig(name=BaselineName.MORPH), kb)
        rep_of = clustering.representative_of()
        cities = kb.np_id("Cities")
        city = kb.np_id("city")
        assert rep_of[city] == cities
        assert rep_of[cities] == cities

    def test_relation_morph_clustering(self):
        kb = build_kb(
            records_from_spo(
                [("a", "running", "b"), ("c", "runs", "d"), ("e", "sat", "f")]
            )
        )
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.MORPH, kind=PhraseKind.REL), kb
        )
        sets = {frozenset(kb.rel_phrase(i).text for i in c.members)
                for c in clustering.clusters}
        assert frozenset({"running", "runs"}) in sets


class TestEntlinkBaseline:
    def test_no_links_gives_singletons(self):
        kb = np_kb("alpha", "beta", "gamma", "delta")
        clustering = run_baseline(BaselineConfig(name=BaselineName.ENTLINK), kb)
        assert all(len(c.members) == 1 for c in clustering.clusters)

    def test_shared_link_merges(self):
        rows = [("Obama", "r", "x"), ("Barack Obama", "q", "y")]
        extra = {
            0: {"entity_link_sub": "Q76"},
            1: {"entity_link_sub": "Q76"},
        }
        kb = build_kb(records_from_spo(rows, extra))
        clustering = run_baseline(BaselineConfig(name=BaselineName.ENTLINK), kb)
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("Obama")] == rep_of[kb.np_id("Barack Obama")]


class TestPpdbBaseline:
    def test_needs_file(self):
        kb = np_kb("a", "b")
        with pytest.raises(ConfigError):
            run_baseline(BaselineConfig(name=BaselineName.PPDB), kb)

    def test_merges_listed_paraphrases(self, tmp_path):
        kb = np_kb("car", "automobile", "tree", "bush")
        ppdb = tmp_path / "ppdb.tsv"
        ppdb.write_text("car\tautomobile\t0.9\n")
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.PPDB), kb, ppdb_file=ppdb
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("car")] == rep_of[kb.np_id("automobile")]
        assert rep_of[kb.np_id("tree")] != rep_of[kb.np_id("bush")]

    def test_confidence_gate(self, tmp_path):
        kb = np_kb("car", "automobile")
        ppdb = tmp_path / "ppdb.tsv"
        ppdb.write_text("car\tautomobile\t0.3\n")
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.PPDB, ppdb_confidence_min=0.5),
            kb,
            ppdb_file=ppdb,
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("car")] != rep_of[kb.np_id("automobile")]


# ---------------------------------------------------------------------------
# similarity methods


class TestSimilarityBaselines:
    def test_strsim_merges_near_duplicates(self):
        kb = np_kb("colour", "color", "zebra", "quartz")
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.STRSIM_HAC, threshold=0.1), kb
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("colour")] == rep_of[kb.np_id("color")]
        assert rep_of[kb.np_id("zebra")] != rep_of[kb.np_id("quartz")]
        assert clustering.threshold_used == 0.1

    def test_idf_merges_token_sharing_phrases(self):
        kb = build_kb(
            records_from_spo(
                [
                    ("president obama", "r", "x"),
                    ("senator obama", "r", "y"),
                    ("mount fuji", "q", "z"),
                ]
            )
        )
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.IDF_HAC, threshold=0.8), kb
        )
        rep_of = clustering.representative_of()
        a = kb.np_id("president obama")
        b = kb.np_id("senator obama")
        assert rep_of[a] == rep_of[b]
        assert rep_of[kb.np_id("mount fuji")] not in {rep_of[a]}

    def test_attr_merges_shared_context(self):
        kb = build_kb(
            records_from_spo(
                [
                    ("us", "fought in", "ww2"),
                    ("america", "fought in", "ww2"),
                    ("fiji", "lies in", "pacific"),
                ]
            )
        )
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.ATTR_HAC, threshold=0.2), kb
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("us")] == rep_of[kb.np_id("america")]
        assert rep_of[kb.np_id("fiji")] != rep_of[kb.np_id("us")]

    def test_tuned_threshold_recovers_separable_gold(self):
        kb = np_kb("colour", "color", "zebra", "quartz")
        gold = GoldClustering(
            PhraseKind.NP,
            {
                kb.np_id("colour"): "e1",
                kb.np_id("color"): "e1",
                kb.np_id("zebra"): "e2",
                kb.np_id("quartz"): "e3",
            },
        )
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.STRSIM_HAC), kb, validation_gold=gold,
            validation_ids=sorted(gold.assignment)
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("colour")] == rep_of[kb.np_id("color")]
        assert rep_of[kb.np_id("zebra")] != rep_of[kb.np_id("quartz")]

    def test_tune_threshold_requires_gold(self):
        D = np.zeros((2, 2))
        with pytest.raises(ConfigError):
            tune_threshold_on_matrix([0, 1], D, GoldClustering(PhraseKind.NP, {}))

    def test_empty_grid_rejected(self):
        kb = np_kb("colour", "color", "zebra", "quartz")
        gold = GoldClustering(PhraseKind.NP, {kb.np_id("colour"): "e1"})
        with pytest.raises(ConfigError, match="grid"):
            run_baseline(BaselineConfig(BaselineName.IDF_HAC), kb,
                         validation_gold=gold, validation_ids=sorted(gold.assignment),
                         grid=())

    def test_tuned_baseline_builds_one_merge_history(self, monkeypatch):
        import kbcanon.baselines
        import kbcanon.canonicalize

        # One history over the validation phrases tunes the threshold; the
        # whole vocabulary is then cut there one component at a time, with
        # no whole-vocabulary history.
        sizes, bounds, cuts = [], [], []
        original = kbcanon.canonicalize.hac_merge_history
        original_cut = kbcanon.canonicalize.hac_from_pairs

        def counting(D, upto=np.inf):
            sizes.append(D.shape[0])
            bounds.append(upto)
            return original(D, upto)

        def cutting(ids, pairs, threshold, far):
            cuts.append((len(ids), threshold))
            return original_cut(ids, pairs, threshold, far)

        for module in (kbcanon.canonicalize, kbcanon.baselines):
            monkeypatch.setattr(module, "hac_merge_history", counting)
        monkeypatch.setattr(kbcanon.baselines, "hac_from_pairs", cutting)
        kb = np_kb("colour", "color", "zebra", "quartz")
        gold = GoldClustering(PhraseKind.NP, {kb.np_id("colour"): "e1",
                                              kb.np_id("color"): "e1",
                                              kb.np_id("zebra"): "e2"})
        clustering = run_baseline(BaselineConfig(BaselineName.STRSIM_HAC), kb,
                                  validation_gold=gold,
                                  validation_ids=sorted(gold.assignment))
        assert sizes == [len(gold)]
        assert bounds == [max(DEFAULT_THRESHOLD_GRID)]
        assert cuts == [(kb.n_nps, clustering.threshold_used)]

    @pytest.mark.parametrize("name", [BaselineName.IDF_HAC, BaselineName.STRSIM_HAC])
    def test_holds_no_square_matrix(self, name):
        # The whole tuned run: for idf_hac, the join's rows (at most five
        # int64 arrays of them at once), then the packed triangle of the
        # validation phrases' distances while tuning, then the working
        # triangle of the cut's largest component, and 1 MB for the rest.
        # strsim_hac joins nothing, and at its tuned threshold these texts
        # form one component, whose triangle is half of D: the triangles of
        # the tuning and of the cut, plus 1 MB, bound it, the cut's 21K
        # edges taking the room the freed tuning triangle leaves. The dense
        # D of all 1,200 NPs alone would be 11.5 MB.
        rand = random.Random(32)
        words = [f"w{k}" for k in range(400)]
        kb = np_kb(*sorted({" ".join(rand.sample(words, 2)) for _ in range(1300)})[:1200])
        val = [i for i in range(kb.n_nps) if i % 3]
        gold = GoldClustering(PhraseKind.NP, {i: f"g{i // 6}" for i in val})
        cfg = BaselineConfig(name)
        tracemalloc.start()
        try:
            clustering = run_baseline(cfg, kb, validation_gold=gold, validation_ids=val)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t = clustering.threshold_used
        if name is BaselineName.IDF_HAC:
            holders = Counter(t for p in kb.np_vocab for t in content_tokens(p.text))
            join = sum(g * (g - 1) // 2 for g in holders.values()) * 5 * 8
            a, b, d = overlap_distances(BaselineName.IDF_HAC, kb)
        else:
            join = 0
            a, b, d = map(np.concatenate,
                          zip(*jaro_winkler_pairs([p.text for p in kb.np_vocab], t)))
        near = d <= t
        component = max(len(c) for c in components(kb.n_nps, np.stack((a[near], b[near]), 1)))
        if name is BaselineName.IDF_HAC:
            triangles = max(len(val), component) ** 2 // 2 * 8
        else:
            triangles = (len(val) ** 2 + component ** 2) // 2 * 8
        assert peak < triangles + join + 2**20 < kb.n_nps ** 2 * 8

# ---------------------------------------------------------------------------
# embedding methods


class TestWordvecBaseline:
    def test_needs_vectors_file(self):
        kb = np_kb("a", "b")
        with pytest.raises(ConfigError):
            run_baseline(
                BaselineConfig(name=BaselineName.WORDVEC_AVG, threshold=0.5), kb
            )

    def test_clusters_by_averaged_vectors(self, tmp_path):
        kb = np_kb("red car", "crimson car", "blue sky", "azure sky")
        vec = tmp_path / "vectors.txt"
        vec.write_text(
            "red 1.0 0.0\n"
            "crimson 0.97 0.03\n"
            "car 0.9 0.1\n"
            "blue 0.0 1.0\n"
            "azure 0.03 0.97\n"
            "sky 0.1 0.9\n"
        )
        clustering = run_baseline(
            BaselineConfig(name=BaselineName.WORDVEC_AVG, threshold=0.05),
            kb,
            word_vectors=load_word_vectors(vec, kb),
        )
        rep_of = clustering.representative_of()
        assert rep_of[kb.np_id("red car")] == rep_of[kb.np_id("crimson car")]
        assert rep_of[kb.np_id("blue sky")] == rep_of[kb.np_id("azure sky")]
        assert rep_of[kb.np_id("red car")] != rep_of[kb.np_id("blue sky")]

    def test_zero_vector_named_by_phrase(self, tmp_path):
        kb = np_kb("red car", "null void")
        vec = tmp_path / "vectors.txt"
        vec.write_text("red 1.0 0.0\ncar 0.9 0.1\nnull 0.0 0.0\nvoid 0.0 0.0\n")
        cfg = BaselineConfig(name=BaselineName.WORDVEC_AVG, threshold=0.5)
        with pytest.raises(ZeroVectorError, match=r"zero vectors: \['null void'\]$"):
            run_baseline(cfg, kb, word_vectors=load_word_vectors(vec, kb))

    def test_zero_vector_named_by_phrase_when_tuning(self, tmp_path):
        # the validation phrases' matrix names it too, before any cut
        kb = np_kb("red car", "null void")
        vec = tmp_path / "vectors.txt"
        vec.write_text("red 1.0 0.0\ncar 0.9 0.1\nnull 0.0 0.0\nvoid 0.0 0.0\n")
        gold = GoldClustering(PhraseKind.NP, {kb.np_id("red car"): "e1",
                                              kb.np_id("null void"): "e2"})
        with pytest.raises(ZeroVectorError, match=r"zero vectors: \['null void'\]$"):
            run_baseline(BaselineConfig(name=BaselineName.WORDVEC_AVG), kb,
                         word_vectors=load_word_vectors(vec, kb), validation_gold=gold,
                         validation_ids=sorted(gold.assignment))

    def test_relation_vectors_follow_the_np_draws(self, tmp_path):
        # Relation phrases without a known token draw after every NP, as in
        # init_embeddings, so the relation clustering is the one over the
        # initial embeddings' relation rows.
        kb = build_kb(records_from_spo([("red car", "drives", "blue sky"),
                                        ("zzz", "yyy", "www"),
                                        ("red sky", "drives on", "qqq")]))
        vec = tmp_path / "vectors.txt"
        vec.write_text("red 1.0 0.0 0.2\nblue 0.0 1.0 0.1\ndrives 0.3 0.3 1.0\n")
        cfg = BaselineConfig(name=BaselineName.WORDVEC_AVG, kind=PhraseKind.REL,
                             threshold=0.3, seed=4)
        clustering = run_baseline(cfg, kb, word_vectors=load_word_vectors(vec, kb))
        R = init_embeddings(kb, load_word_vectors(vec), 3, default_init_rng(4)).rel_vectors
        ids = sorted(p.id for p in kb.rel_vocab)
        D = cosine_distance_matrix(np.stack([R[i] for i in ids]), labels=ids)
        assert clustering.member_sets() == hac_from_distance_matrix(ids, D, 0.3)


class TestHoleBaselines:
    def test_hole_random_equals_training_with_empty_side_info(self, synth_kb):
        emb_a = train_structure_only(synth_kb, SMALL_H)
        init = init_embeddings(
            synth_kb, None, SMALL_H.dim, default_init_rng(SMALL_H.seed)
        )
        emb_b = train(synth_kb, EMPTY_SIDE_INFO, SMALL_H, init)
        assert np.array_equal(emb_a.np_vectors, emb_b.np_vectors)
        assert np.array_equal(emb_a.rel_vectors, emb_b.rel_vectors)

    def test_hole_random_clustering_matches_manual_pipeline(self, synth_kb):
        cfg = BaselineConfig(
            name=BaselineName.HOLE_RANDOM, threshold=0.4, hyperparams=SMALL_H
        )
        clustering = run_baseline(cfg, synth_kb)
        emb = train_structure_only(synth_kb, SMALL_H)
        ids = sorted(p.id for p in synth_kb.np_vocab)
        V = emb.vectors(PhraseKind.NP)
        D = cosine_distance_matrix(
            np.stack([V[i] for i in ids]), labels=ids
        )
        expected = hac_from_distance_matrix(ids, D, 0.4)
        assert clustering.member_sets() == expected

    def test_hole_pretrained_needs_vectors_file(self, synth_kb):
        cfg = BaselineConfig(
            name=BaselineName.HOLE_PRETRAINED, threshold=0.4, hyperparams=SMALL_H
        )
        with pytest.raises(ConfigError):
            run_baseline(cfg, synth_kb)

    def test_unknown_dispatch_is_total(self, synth_kb):
        # Every declared method dispatches without falling through for NP
        # clustering when given what it needs.
        for name in (BaselineName.MORPH, BaselineName.ENTLINK):
            clustering = run_baseline(BaselineConfig(name=name), synth_kb)
            assert clustering.n_elements == len(synth_kb.np_vocab)
