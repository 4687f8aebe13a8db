"""One entity-link label shared by 1,000 of 15,000 NPs: its 499,500 pairs
go from the provider to the trainer's arrays as int64 arrays, with no
Python object per pair, so the memory they take is a small multiple of
the arrays' own 8 MiB."""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np

from kbcanon.embedding import HyperParams, _side_pair_arrays
from kbcanon.kb import PhraseKind, build_kb
from kbcanon.side_info import SideInfoCollection, entity_link_equivalences

from .conftest import records_from_spo

N_NPS = 15_000
GROUP = 1_000
# the pair array is 7.6 MiB, the trainer's ids and weights 11.4 MiB more
PEAK_MIB = 30


def test_one_label_over_1000_nps_reaches_the_trainer_within_the_memory_bound():
    # NP ids follow first appearance: subject 2t of triple t, object 2t + 1
    rows = [(f"np {2 * t}", "rel", f"np {2 * t + 1}") for t in range(N_NPS // 2)]
    linked = {t: {"entity_link_sub": "E"} for t in range(GROUP)}
    kb = build_kb(records_from_spo(rows, linked))
    assert kb.n_nps == N_NPS
    h = HyperParams(dim=8, lambda_side_default=2.0)

    tracemalloc.start()
    try:
        pair_set = entity_link_equivalences(kb)
        ia, ib, w = _side_pair_arrays(SideInfoCollection(np_sources=(pair_set,)),
                                      PhraseKind.NP, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    members = range(0, 2 * GROUP, 2)
    assert len(pair_set) == len(ia) == GROUP * (GROUP - 1) // 2
    assert np.array_equal(pair_set.pairs, np.array(list(combinations(members, 2))))
    assert np.array_equal(ia, pair_set.pairs[:, 0]) and np.array_equal(ib, pair_set.pairs[:, 1])
    assert np.all(w == 2.0 / len(pair_set))
    assert peak < PEAK_MIB * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"
