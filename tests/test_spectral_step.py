"""The trainer's step on rfft coefficients against the spatial step it
replaced, and the transforms a training run takes."""

from __future__ import annotations

import numpy as np
import pytest

from kbcanon.embedding import (
    HINGE_MODES,
    PAIRING_MODES,
    HyperParams,
    _side_pair_arrays,
    _step,
    default_init_rng,
    init_embeddings,
    make_batch,
    train,
)
from kbcanon.kb import PhraseKind
from kbcanon.side_info import EMPTY_SIDE_INFO, SideInfoCollection, make_pair_set

from . import reference

SIDE = SideInfoCollection(
    np_sources=(make_pair_set("np_pairs", PhraseKind.NP, [(0, 1), (2, 3), (1, 6), (4, 5)]),),
    rel_sources=(make_pair_set("rel_pairs", PhraseKind.REL, [(0, 1), (2, 3)]),),
)


@pytest.mark.parametrize("d", [1, 2, 8, 9])
@pytest.mark.parametrize("pairing", PAIRING_MODES)
@pytest.mark.parametrize("hinge", HINGE_MODES)
def test_one_step_matches_the_spatial_step(synth_kb, hinge, pairing, d):
    h = HyperParams(dim=d, hinge=hinge, pairing=pairing, learning_rate=0.05,
                    lambda_reg=0.01, lambda_side_default=0.5, seed=3)
    rng = np.random.default_rng([d, 5])
    E = rng.normal(scale=0.5, size=(synth_kb.n_nps, d))
    R = rng.normal(scale=0.5, size=(synth_kb.n_rels, d))
    batch = make_batch(synth_kb, range(24), 2, rng)
    frac = 24 / len(synth_kb.triples)

    want_E, want_R = E.copy(), R.copy()
    reference.reference_step(want_E, want_R, batch, h,
                             reference._side_pair_arrays(SIDE, PhraseKind.NP, h),
                             reference._side_pair_arrays(SIDE, PhraseKind.REL, h), frac)
    FE, FR = np.fft.rfft(E), np.fft.rfft(R)
    decay = 1.0 - 2.0 * h.learning_rate * h.lambda_reg * frac
    terms = [_side_pair_arrays(SIDE, kind, h) for kind in (PhraseKind.NP, PhraseKind.REL)]
    _, active = _step(FE, FR, d, batch, h, terms, frac, (FE, FR), -h.learning_rate, decay)
    assert active.any()
    for got, want, start in ((np.fft.irfft(FE, n=d), want_E, E),
                             (np.fft.irfft(FR, n=d), want_R, R)):
        assert not np.array_equal(want, start)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_train_transforms_once_each_way_and_per_epoch(synth_kb, monkeypatch):
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    h = HyperParams(dim=8, epochs=3, batch_size=16, seed=2)
    init = init_embeddings(synth_kb, None, h.dim, default_init_rng(2))
    train(synth_kb, SIDE, h, init)
    assert len(synth_kb.triples) > 5 * h.batch_size
    assert calls == {"rfft": 2, "irfft": 2 * h.epochs + 2}
    calls.update(rfft=0, irfft=0)
    train(synth_kb, EMPTY_SIDE_INFO, HyperParams(dim=8, epochs=0), init)
    assert calls == {"rfft": 2, "irfft": 2}
