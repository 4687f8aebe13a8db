"""IDF side information through the weighted prefix filter: the same pair
set as scoring every pair that shares a token, about one scored candidate
per kept pair, and a score that does not depend on the hash seed."""

from __future__ import annotations

import logging
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import kbcanon
import kbcanon.side_info
from kbcanon.kb import build_kb
from kbcanon.side_info import (
    DocumentFrequency,
    build_df,
    content_tokens,
    idf_equivalences,
    idf_overlap_score,
)
from kbcanon.synth import make_synthetic_kb

from .conftest import pair_tuples, records_from_spo
from .reference import reference_idf_equivalences

# common tokens repeat so that df is skewed; "the" and "of" are stopwords,
# so a phrase made only of them has an empty content-token set
_SKEWED = (["inc"] * 8 + ["group"] * 5 + ["corp"] * 3 + ["north", "bank"] * 2
           + ["alder", "birch", "cedar", "dune", "ember", "fjord", "the", "of"])
_CONTENT = sorted(set(_SKEWED) - {"the", "of"})


def _kb(phrases):
    nps = list(dict.fromkeys(" ".join(p) for p in phrases))
    rows = [(s, "links to", nps[(i + 1) % len(nps)]) for i, s in enumerate(nps)]
    return build_kb(records_from_spo(rows))


_phrases = st.lists(st.lists(st.sampled_from(_SKEWED), min_size=1, max_size=6),
                    min_size=2, max_size=14)
# tokens may have df 0 or be missing from the table; both weigh 0
_tables = st.dictionaries(st.sampled_from(_CONTENT), st.integers(0, 40))


class TestIdfEquivalencesMatchReference:
    @given(_phrases, st.one_of(st.none(), _tables), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_as_scoring_every_shared_token_pair(self, phrases, table, data):
        kb = _kb(phrases)
        df = build_df(kb) if table is None else DocumentFrequency(df=table)
        toks = [content_tokens(p.text) for p in kb.np_vocab]
        # exact score values as cutoffs, so that some scores equal the cutoff
        scores = sorted({idf_overlap_score(x, y, df) for x, y in combinations(toks, 2)})
        cutoff = data.draw(st.one_of(
            st.sampled_from([0.0, 1.0, 1 / 3, 0.5]),
            st.floats(0.0, 1.0),
            st.sampled_from(scores or [0.0]),
        ))
        assert idf_equivalences(kb, df, cutoff) == reference_idf_equivalences(kb, df, cutoff)


class TestCandidatesScored:
    def test_one_scored_candidate_per_kept_pair(self, monkeypatch):
        calls = []
        score = kbcanon.side_info.idf_overlap_score

        def counting(a, b, df):
            calls.append((a, b))
            return score(a, b, df)

        monkeypatch.setattr(kbcanon.side_info, "idf_overlap_score", counting)
        kb = make_synthetic_kb(300, 3, 20, 2, 1200, 0.1, seed=3).build()
        pairs = idf_equivalences(kb, build_df(kb), 0.5)
        # every alias group of 3 gives 3 pairs
        assert len(pairs) == 900
        assert len(calls) == len(pairs)

    def test_logs_the_filter_counts(self, caplog):
        # "acme inc" scores exactly 0.5 against "acme", so its remainder
        # after "acme" equals the bound and its prefix keeps "inc" too
        kb = _kb([["acme", "inc"], ["acme"], ["zenith", "inc"], ["zenith", "group"]])
        with caplog.at_level(logging.INFO, logger="kbcanon.side_info"):
            pairs = idf_equivalences(kb, build_df(kb), 0.5)
        assert pair_tuples(pairs) == {(0, 1)}
        assert ("idf_overlap: 6 prefix rows, 2 candidates scored, 1 pairs kept"
                in caplog.messages)


def test_score_does_not_depend_on_the_hash_seed():
    """Set iteration order follows PYTHONHASHSEED; the score must not."""
    code = (
        "from kbcanon.side_info import DocumentFrequency, idf_overlap_score\n"
        "df = DocumentFrequency(df={'alpha': 1, 'beta': 3, 'gamma': 7,"
        " 'delta': 40, 'eps': 2})\n"
        "print(repr(idf_overlap_score(frozenset({'alpha', 'beta', 'gamma', 'delta'}),"
        " frozenset({'alpha', 'eps', 'gamma'}), df)))\n"
    )
    src = str(Path(kbcanon.__file__).resolve().parent.parent)
    values = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        values.add(out.stdout.strip())
    assert len(values) == 1
