"""The shared-key pair join and everything built on it: the join against
a brute-force oracle, IDF equivalences against a scan of all pairs, and
the overlap baselines' distance matrices against the all-pairs matrix."""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kbcanon.baselines
from kbcanon.baselines import (
    BaselineConfig,
    BaselineName,
    _jaccard,
    attribute_sets,
    run_baseline,
)
from kbcanon.kb import PhraseKind, build_kb
from kbcanon.side_info import (
    build_df,
    content_tokens,
    idf_equivalences,
    idf_overlap_score,
    shared_key_pairs,
)

from .conftest import records_from_spo
from .reference import random_kb, reference_distance_matrix, reference_jaro_winkler

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


class TestSharedKeyPairs:
    @given(st.lists(st.tuples(st.integers(0, 12),
                              st.sampled_from([0, 1, 2, "x", "y", ("s", 1)])),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, rows):
        keys = defaultdict(set)
        for pid, key in rows:
            keys[pid].add(key)
        expected = {(a, b) for a, b in combinations(sorted(keys), 2)
                    if keys[a] & keys[b]}
        assert shared_key_pairs(rows) == expected

    def test_ordered_pairs_of_distinct_ids(self):
        rows = [(3, "k"), (1, "k"), (3, "k"), (2, "j"), (1, "j")]
        assert shared_key_pairs(rows) == {(1, 3), (1, 2)}


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
            assert idf_equivalences(kb, df, cutoff).pairs == scan
            found += len(scan)
        assert found > 0


class TestOverlapBaselineMatrices:
    """The baselines fill D only at the pairs the join gives them; the
    oracle scores every pair."""

    @pytest.mark.parametrize("name,kind", [
        (BaselineName.IDF_HAC, PhraseKind.NP),
        (BaselineName.ATTR_HAC, PhraseKind.NP),
        (BaselineName.STRSIM_HAC, PhraseKind.NP),
        (BaselineName.STRSIM_HAC, PhraseKind.REL),
    ])
    def test_equals_all_pairs_matrix(self, name, kind, monkeypatch):
        captured = []
        original = kbcanon.baselines.hac_from_distance_matrix

        def capturing(ids, D, *args):
            captured.append(D.copy())
            return original(ids, D, *args)

        monkeypatch.setattr(kbcanon.baselines, "hac_from_distance_matrix", capturing)
        rand = random.Random(47)
        for _ in range(20):
            kb = kb_with_edge_cases(rand)
            vocab = kb.vocab(kind)
            ids = sorted(p.id for p in vocab)
            texts = {p.id: p.text for p in vocab}
            if name is BaselineName.IDF_HAC:
                df = build_df(kb)
                expected = reference_distance_matrix(
                    [content_tokens(texts[i]) for i in ids],
                    lambda x, y: idf_overlap_score(x, y, df))
            elif name is BaselineName.ATTR_HAC:
                sets = attribute_sets(kb)
                expected = reference_distance_matrix([sets[i] for i in ids], _jaccard)
            else:
                expected = reference_distance_matrix([texts[i] for i in ids],
                                                     reference_jaro_winkler)
            captured.clear()
            run_baseline(BaselineConfig(name, kind=kind, threshold=0.5), kb)
            assert len(captured) == 1
            assert np.array_equal(captured[0], expected)
