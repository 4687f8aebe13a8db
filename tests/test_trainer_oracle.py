"""The trainer against its original per-batch update (complex-FFT
correlations and np.add.at scatters), kept verbatim in the reference
module."""

from __future__ import annotations

import numpy as np
import pytest

from kbcanon.embedding import (
    HINGE_MODES,
    PAIRING_MODES,
    HyperParams,
    default_init_rng,
    init_embeddings,
    train,
)
from kbcanon.kb import PhraseKind
from kbcanon.side_info import SideInfoCollection, make_pair_set

from .reference import reference_train


@pytest.mark.parametrize("threads", [1])
@pytest.mark.parametrize("pairing", PAIRING_MODES)
@pytest.mark.parametrize("hinge", HINGE_MODES)
def test_train_matches_reference_update(synth_kb, hinge, pairing, threads):
    side = SideInfoCollection(
        np_sources=(make_pair_set("np_pairs", PhraseKind.NP,
                                  [(0, 1), (2, 3), (4, 5), (1, 6)]),),
        rel_sources=(make_pair_set("rel_pairs", PhraseKind.REL, [(0, 1), (2, 3)]),),
    )
    h = HyperParams(dim=9, hinge=hinge, pairing=pairing, threads=threads,
                    epochs=5, batch_size=16, learning_rate=0.01,
                    lambda_side_default=0.5, seed=4)
    init = init_embeddings(synth_kb, None, h.dim, default_init_rng(4))
    emb = train(synth_kb, side, h, init)
    E, R = reference_train(synth_kb, side, h, init)
    for got, want, start in ((emb.np_vectors, E, init.np_vectors),
                             (emb.rel_vectors, R, init.rel_vectors)):
        assert not np.array_equal(want, start)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pairing", PAIRING_MODES)
@pytest.mark.parametrize("hinge", HINGE_MODES)
def test_train_matches_reference_update_with_several_sources(synth_kb, hinge, pairing):
    # Several sources per kind reach the trainer as one merged pair array:
    # a pair that two NP sources share, an NP source with weight 0 and an
    # empty one (both skipped), and a per-source REL weight override.
    side = SideInfoCollection(
        np_sources=(
            make_pair_set("np_a", PhraseKind.NP, [(0, 1), (2, 3), (4, 5)]),
            make_pair_set("np_zero", PhraseKind.NP, [(6, 7), (8, 9)]),
            make_pair_set("np_empty", PhraseKind.NP, []),
            make_pair_set("np_b", PhraseKind.NP, [(2, 3), (1, 6), (10, 11)]),
        ),
        rel_sources=(
            make_pair_set("rel_a", PhraseKind.REL, [(0, 1), (2, 3)]),
            make_pair_set("rel_b", PhraseKind.REL, [(1, 2), (4, 5)]),
        ),
    )
    h = HyperParams(dim=9, hinge=hinge, pairing=pairing,
                    epochs=5, batch_size=16, learning_rate=0.01,
                    lambda_ent={"np_a": 0.5, "np_zero": 0.0, "np_b": 2.0},
                    lambda_rel={"rel_b": 1.5},
                    lambda_side_default=0.5, seed=4)
    init = init_embeddings(synth_kb, None, h.dim, default_init_rng(4))
    emb = train(synth_kb, side, h, init)
    E, R = reference_train(synth_kb, side, h, init)
    for got, want, start in ((emb.np_vectors, E, init.np_vectors),
                             (emb.rel_vectors, R, init.rel_vectors)):
        assert not np.array_equal(want, start)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
