"""Equivalence evidence providers: morphological normalization, IDF token
overlap, resource files, entity links, and rule mining."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbcanon.errors import ConfigError
from kbcanon.kb import PhraseKind, build_kb
from kbcanon.side_info import (
    NP_SOURCES,
    REL_SOURCES,
    SideInfoConfig,
    amie_mine,
    assemble_side_info,
    build_df,
    content_tokens,
    entity_link_equivalences,
    idf_equivalences,
    idf_overlap_score,
    kbp_equivalences,
    load_ppdb,
    load_side_info,
    make_pair_set,
    morph_equivalences,
    morph_normalize,
    ppdb_equivalences,
    save_side_info,
    synset_equivalences,
)

from .conftest import records_from_spo
from .reference import brute_force_rule_pairs, random_kb


def np_kb(*texts):
    """A KB whose NP vocabulary is exactly the given texts."""
    rows = []
    texts = list(texts)
    for i in range(0, len(texts) - 1, 2):
        rows.append((texts[i], "rel", texts[i + 1]))
    if len(texts) % 2 == 1:
        rows.append((texts[-1], "rel", texts[0]))
    return build_kb(records_from_spo(rows))


def text_pairs(pair_set, kb, kind=PhraseKind.NP):
    lookup = kb.np_phrase if kind is PhraseKind.NP else kb.rel_phrase
    return {
        tuple(sorted((lookup(a).text, lookup(b).text)))
        for a, b in pair_set.pairs
    }


class TestMorphNormalize:
    def test_determiner_and_plural(self):
        assert morph_normalize("The Cities") == "city"

    def test_fixed_point(self):
        assert morph_normalize("obama") == "obama"

    def test_crude_tense_rules(self):
        assert morph_normalize("was running") == "wa run"

    def test_repeated_determiners(self):
        assert morph_normalize("the the cat") == "cat"

    def test_doubled_consonant_undoubling(self):
        assert morph_normalize("stopping") == "stop"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_idempotent(self, text):
        once = morph_normalize(text)
        assert morph_normalize(once) == once


class TestMorphEquivalences:
    def test_normalization_collision(self):
        kb = np_kb("Cities", "city", "London")
        pairs = text_pairs(morph_equivalences(kb, PhraseKind.NP), kb)
        assert pairs == {("Cities", "city")}

    def test_all_distinct(self):
        kb = np_kb("apple", "pear", "plum")
        assert len(morph_equivalences(kb, PhraseKind.NP)) == 0

    def test_case_and_plural_group(self):
        kb = np_kb("apple", "Apple", "apples")
        pairs = text_pairs(morph_equivalences(kb, PhraseKind.NP), kb)
        assert pairs == {("Apple", "apple"), ("Apple", "apples"),
                         ("apple", "apples")}


class TestDocumentFrequency:
    def test_distinct_string_counting(self):
        kb = np_kb("Warren Buffett", "Buffett", "Warren Beatty")
        df = build_df(kb).df
        assert df["warren"] == 2
        assert df["buffett"] == 2
        assert df["beatty"] == 1

    def test_stopwords_excluded(self):
        kb = np_kb("The Beatles", "a band")
        df = build_df(kb).df
        assert "the" not in df
        assert "a" not in df
        assert df["beatles"] == 1

    def test_stopword_only_vocab_gives_empty_map(self):
        kb = np_kb("the", "a")
        assert build_df(kb).df == {}


class TestIdfOverlapScore:
    def test_hand_computed_example(self):
        kb = np_kb("Warren Buffett", "Buffett")
        df = build_df(kb)
        score = idf_overlap_score(
            content_tokens("Warren Buffett"), content_tokens("Buffett"), df
        )
        expected = (1 / math.log(3)) / (1 / math.log(2) + 1 / math.log(3))
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.3868, abs=1e-4)

    def test_identical_token_sets(self):
        kb = np_kb("new york", "york new")
        df = build_df(kb)
        s = idf_overlap_score(content_tokens("new york"),
                              content_tokens("york new"), df)
        assert s == 1.0

    def test_disjoint_token_sets(self):
        kb = np_kb("apple", "pear")
        df = build_df(kb)
        assert idf_overlap_score(content_tokens("apple"),
                                 content_tokens("pear"), df) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
        b=st.frozensets(st.sampled_from("abcdefgh"), max_size=6),
    )
    def test_symmetric_and_bounded(self, a, b):
        from kbcanon.side_info import DocumentFrequency

        df = DocumentFrequency(df={t: 2 for t in "abcdefgh"})
        s_ab = idf_overlap_score(a, b, df)
        s_ba = idf_overlap_score(b, a, df)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0


class TestIdfEquivalences:
    def test_cutoff_selects_hand_example(self):
        kb = np_kb("Warren Buffett", "Buffett", "Warren Beatty")
        df = build_df(kb)
        pairs = text_pairs(idf_equivalences(kb, df, 0.3), kb)
        assert ("Buffett", "Warren Buffett") in pairs
        assert ("Warren Beatty", "Warren Buffett") not in pairs

    def test_cutoff_one_requires_identical_token_sets(self):
        kb = np_kb("new york", "york new", "new york city")
        df = build_df(kb)
        pairs = text_pairs(idf_equivalences(kb, df, 1.0), kb)
        assert pairs == {("new york", "york new")}

    def test_cutoff_zero_equals_all_token_sharing_pairs(self):
        kb = np_kb("alpha beta", "beta gamma", "delta")
        df = build_df(kb)
        pairs = text_pairs(idf_equivalences(kb, df, 0.0), kb)
        assert pairs == {("alpha beta", "beta gamma")}


class TestPpdb:
    def write(self, tmp_path, rows):
        path = tmp_path / "ppdb.tsv"
        path.write_text("".join(f"{a}\t{b}\t{s}\n" for a, b, s in rows),
                        encoding="utf-8")
        return path

    def test_direct_row(self, tmp_path):
        kb = np_kb("management", "administration")
        path = self.write(tmp_path, [("management", "administration", 0.9)])
        pairs = text_pairs(ppdb_equivalences(path, 0.5, kb, PhraseKind.NP), kb)
        assert pairs == {("administration", "management")}

    def test_absent_phrase_contributes_nothing(self, tmp_path):
        kb = np_kb("management", "oversight")
        path = self.write(tmp_path, [("management", "administration", 0.9)])
        assert len(ppdb_equivalences(path, 0.5, kb, PhraseKind.NP)) == 0

    def test_transitive_union(self, tmp_path):
        kb = np_kb("a", "c")
        path = self.write(tmp_path, [("a", "b", 0.9), ("b", "c", 0.9)])
        pairs = text_pairs(ppdb_equivalences(path, 0.5, kb, PhraseKind.NP), kb)
        assert pairs == {("a", "c")}

    def test_confidence_filter(self, tmp_path):
        kb = np_kb("a", "b")
        path = self.write(tmp_path, [("a", "b", 0.3)])
        assert len(ppdb_equivalences(path, 0.5, kb, PhraseKind.NP)) == 0

    def test_malformed_rows_counted(self, tmp_path):
        path = tmp_path / "ppdb.tsv"
        path.write_text("a\tb\t0.9\nbroken line\na\tb\tnot_a_number\n",
                        encoding="utf-8")
        rows, malformed = load_ppdb(path, 0.5)
        assert rows == [("a", "b")]
        assert malformed == 2


class TestSynsets:
    def test_shared_synset(self, tmp_path):
        kb = np_kb("picture", "image")
        path = tmp_path / "syn.tsv"
        path.write_text("picture\tvisualize.v.01\nimage\tvisualize.v.01\n",
                        encoding="utf-8")
        pairs = text_pairs(synset_equivalences(path, kb, PhraseKind.NP), kb)
        assert pairs == {("image", "picture")}

    def test_disjoint_synsets(self, tmp_path):
        kb = np_kb("picture", "song")
        path = tmp_path / "syn.tsv"
        path.write_text("picture\tvisualize.v.01\nsong\tsing.v.02\n",
                        encoding="utf-8")
        assert len(synset_equivalences(path, kb, PhraseKind.NP)) == 0

    def test_absent_phrase(self, tmp_path):
        kb = np_kb("picture", "image")
        path = tmp_path / "syn.tsv"
        path.write_text("picture\tvisualize.v.01\n", encoding="utf-8")
        assert len(synset_equivalences(path, kb, PhraseKind.NP)) == 0


class TestEntityLinks:
    def test_shared_link(self):
        records = records_from_spo(
            [("US", "r", "x"), ("America", "r", "y")],
            {0: {"entity_link_sub": "United_States"},
             1: {"entity_link_sub": "United_States"}},
        )
        kb = build_kb(records)
        pairs = text_pairs(entity_link_equivalences(kb), kb)
        assert pairs == {("America", "US")}

    def test_unlinked_np_has_no_pairs(self):
        kb = np_kb("US", "America")
        assert len(entity_link_equivalences(kb)) == 0

    def test_majority_link_wins(self):
        records = records_from_spo(
            [("np", "r", "a"), ("np", "r", "b"), ("np", "r", "c"),
             ("other", "r", "d")],
            {0: {"entity_link_sub": "X"}, 1: {"entity_link_sub": "X"},
             2: {"entity_link_sub": "Y"}, 3: {"entity_link_sub": "X"}},
        )
        kb = build_kb(records)
        pairs = text_pairs(entity_link_equivalences(kb), kb)
        assert pairs == {("np", "other")}

    def test_tied_links_drop_the_np(self):
        records = records_from_spo(
            [("np", "r", "a"), ("np", "r", "b"), ("other", "r", "c")],
            {0: {"entity_link_sub": "X"}, 1: {"entity_link_sub": "Y"},
             2: {"entity_link_sub": "X"}},
        )
        kb = build_kb(records)
        assert len(entity_link_equivalences(kb)) == 0


class TestKbp:
    def test_shared_category(self, tmp_path):
        kb = build_kb(records_from_spo([
            ("a", "was born in", "x"), ("b", "born in", "y"),
        ]))
        path = tmp_path / "kbp.tsv"
        path.write_text("was born in\tper:city_of_birth\n"
                        "born in\tper:city_of_birth\n", encoding="utf-8")
        pairs = text_pairs(kbp_equivalences(path, kb), kb, PhraseKind.REL)
        assert pairs == {("born in", "was born in")}

    def test_distinct_categories(self, tmp_path):
        kb = build_kb(records_from_spo([
            ("a", "was born in", "x"), ("b", "died in", "y"),
        ]))
        path = tmp_path / "kbp.tsv"
        path.write_text("was born in\tper:city_of_birth\n"
                        "died in\tper:city_of_death\n", encoding="utf-8")
        assert len(kbp_equivalences(path, kb)) == 0

    def test_uncategorized_phrase(self, tmp_path):
        kb = build_kb(records_from_spo([
            ("a", "was born in", "x"), ("b", "born in", "y"),
        ]))
        path = tmp_path / "kbp.tsv"
        path.write_text("was born in\tper:city_of_birth\n", encoding="utf-8")
        assert len(kbp_equivalences(path, kb)) == 0


class TestRuleMining:
    def test_two_shared_pairs(self):
        kb = build_kb(records_from_spo([
            ("a", "r1", "b"), ("a", "r2", "b"),
            ("c", "r1", "d"), ("c", "r2", "d"),
        ]))
        pairs = text_pairs(amie_mine(kb, 2, 0.2), kb, PhraseKind.REL)
        assert pairs == {("r1", "r2")}

    def test_single_shared_pair_below_support(self):
        kb = build_kb(records_from_spo([
            ("a", "r1", "b"), ("a", "r2", "b"),
        ]))
        assert len(amie_mine(kb, 2, 0.2)) == 0

    def test_low_confidence_direction_blocks(self):
        rows = [("a", "r1", "b"), ("c", "r1", "d")]
        rows += [(f"s{i}", "r2", f"o{i}") for i in range(10)]
        rows += [("a", "r2", "b"), ("c", "r2", "d")]
        kb = build_kb(records_from_spo(rows))
        assert len(amie_mine(kb, 2, 0.2)) == 0
        assert len(amie_mine(kb, 2, 0.1)) == 1

    def test_morph_canonicalization_merges_arguments(self):
        kb = build_kb(records_from_spo([
            ("The Cities", "r1", "b"), ("city", "r2", "b"),
            ("x", "r1", "y"), ("x", "r2", "y"),
        ]))
        pairs = text_pairs(amie_mine(kb, 2, 0.2), kb, PhraseKind.REL)
        assert pairs == {("r1", "r2")}

    def test_matches_brute_force_on_random_kbs(self):
        rand = random.Random(17)
        for _ in range(25):
            kb = random_kb(rand)
            mined = amie_mine(kb, 2, 0.2).pairs
            brute = {
                (min(a, b), max(a, b))
                for a, b in brute_force_rule_pairs(kb, 2, 0.2)
            }
            assert mined == brute


class TestPairSetInvariants:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20))))
    def test_irreflexive_and_canonical(self, raw_pairs):
        ps = make_pair_set("x", PhraseKind.NP, raw_pairs)
        for a, b in ps.pairs:
            assert a < b
            assert (b, a) not in ps.pairs


class TestAssembleSideInfo:
    def test_all_disabled_is_empty(self, toy_kb):
        cfg = SideInfoConfig(morph=False, idf_overlap=False,
                             entity_linking=False, amie=False)
        side = assemble_side_info(toy_kb, cfg)
        assert side.np_sources == ()
        assert side.rel_sources == ()

    def test_entity_link_only(self):
        records = records_from_spo(
            [("US", "r", "x"), ("America", "r", "y")],
            {0: {"entity_link_sub": "U"}, 1: {"entity_link_sub": "U"}},
        )
        kb = build_kb(records)
        cfg = SideInfoConfig(morph=False, idf_overlap=False, amie=False)
        side = assemble_side_info(kb, cfg)
        assert [s.source_name for s in side.np_sources] == ["entity_linking"]
        assert side.rel_sources == ()

    def test_missing_resource_is_config_error(self, toy_kb):
        cfg = SideInfoConfig(ppdb_np=True, ppdb_file=None)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_default_sources_and_order(self, toy_kb):
        side = assemble_side_info(toy_kb, SideInfoConfig())
        assert [s.source_name for s in side.np_sources] == \
            ["entity_linking", "idf_overlap", "morph"]
        assert [s.source_name for s in side.rel_sources] == ["amie"]

    def test_source_name_lists_match_every_provider(self, tmp_path, toy_kb):
        for name in ("ppdb.tsv", "wordnet.tsv", "kbp.tsv"):
            (tmp_path / name).write_text("", encoding="utf-8")
        cfg = SideInfoConfig(ppdb_np=True, ppdb_rel=True, wordnet_np=True,
                             wordnet_rel=True, kbp=True,
                             ppdb_file=str(tmp_path / "ppdb.tsv"),
                             wordnet_file=str(tmp_path / "wordnet.tsv"),
                             kbp_file=str(tmp_path / "kbp.tsv"))
        side = assemble_side_info(toy_kb, cfg)
        assert tuple(s.source_name for s in side.np_sources) == NP_SOURCES
        assert tuple(s.source_name for s in side.rel_sources) == REL_SOURCES

    def test_round_trip_and_determinism(self, tmp_path, synth_kb):
        side = assemble_side_info(synth_kb, SideInfoConfig())
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_side_info(side, p1, synth_kb)
        save_side_info(side, p2, synth_kb)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_side_info(p1, synth_kb)
        assert [s.source_name for s in loaded.np_sources] == \
            [s.source_name for s in side.np_sources]
        for a, b in zip(loaded.np_sources, side.np_sources):
            assert a.pairs == b.pairs

    def test_load_refuses_side_info_of_another_vocabulary(self, tmp_path, synth_kb, toy_kb):
        path = tmp_path / "side_info.json"
        save_side_info(assemble_side_info(synth_kb, SideInfoConfig()), path, synth_kb)
        assert load_side_info(path, synth_kb).np_sources
        with pytest.raises(ConfigError, match=f"^{path}: .*different vocabulary"):
            load_side_info(path, toy_kb)
