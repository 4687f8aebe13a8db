"""The vectorized negative sampler against the scalar loop it replaced:
the same negatives, batch by batch, from the same random stream."""

from __future__ import annotations

import numpy as np
import pytest

from kbcanon.embedding import _lemire, make_batch
from kbcanon.kb import Triple, build_kb

from .conftest import records_from_spo
from .reference import reference_make_batch


def spo_groups(batch):
    return [[t.spo for t in group] for group in batch.negatives]


def assert_same_batches(kb, k, seed, batches=6, batch_size=16):
    """make_batch and the reference draw the same negatives for each batch,
    and leave their generators in step: the next draw agrees."""
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    order = np.random.default_rng([seed, 1]).permutation(len(kb.triples))
    for b in range(batches):
        rows = order[:batch_size]
        order = np.roll(order, batch_size)
        got = make_batch(kb, rows, k, got_rng)
        want = reference_make_batch(kb, rows, k, want_rng)
        assert spo_groups(got) == spo_groups(want), f"batch {b}"
        assert got.positives == want.positives
        assert got_rng.integers(0, 2**32) == want_rng.integers(0, 2**32)
    return got


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_matches_scalar_sampler_on_synth_kb(synth_kb, k, seed):
    assert_same_batches(synth_kb, k, seed)


# Two NPs and one relation: most corruptions exist, so hits are common,
# and a slot of the saturated KB gives up after its twenty tries.
TINY_KBS = {
    "one_pair": [("a", "r", "b")],
    "three_of_four": [("a", "r", "b"), ("b", "r", "a"), ("a", "r", "a")],
    "saturated": [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")],
    "one_np": [("a", "r", "a")],
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(TINY_KBS))
def test_matches_scalar_sampler_where_hits_are_common(name, k):
    kb = build_kb(records_from_spo(TINY_KBS[name]))
    for seed in range(5):
        last = assert_same_batches(kb, k, seed, batches=4, batch_size=len(kb.triples))
    if name in ("saturated", "one_np"):
        assert spo_groups(last) == [[] for _ in kb.triples]


def test_negatives_are_corruptions_absent_from_the_kb(synth_kb):
    existing = {t.spo for t in synth_kb.triples}
    positives = synth_kb.triples[:30]
    batch = make_batch(synth_kb, range(30), 4, np.random.default_rng(1))
    assert sum(map(len, batch.negatives)) > 100
    for t, group in zip(positives, batch.negatives):
        for neg in group:
            assert neg.spo not in existing
            assert neg.relation == t.relation
            assert neg.subject == t.subject or neg.object == t.object


def test_rows_as_list_range_or_array_give_one_batch(synth_kb):
    batches = [make_batch(synth_kb, rows, 2, np.random.default_rng(5))
               for rows in (list(range(7, 40)), range(7, 40), np.arange(7, 40))]
    for batch in batches:
        assert batch.b == 33
        assert np.array_equal(batch.spo[:, :33], synth_kb.spo[:, 7:40])
        assert np.array_equal(batch.spo, batches[0].spo)
        assert np.array_equal(batch.owner, batches[0].owner)
    assert batches[0].positives == tuple(Triple(-1, *t.spo) for t in synth_kb.triples[7:40])


@pytest.mark.parametrize("n", [2, 3, 450, 3 * 2**30, 2**31 + 1])
def test_lemire_matches_bounded_integers(n):
    """_lemire on a block of uint32 draws gives rng.integers(0, n)'s
    values once its rejected draws are dropped; the large n force
    rejections."""
    scalar, block = np.random.default_rng(n), np.random.default_rng(n)
    u = block.integers(0, 2**32, size=400, dtype=np.uint32)
    values, accepted = _lemire(u, n)
    rejected = int((~accepted).sum())
    assert rejected > 40 if n > 2**31 else rejected == 0
    # the scalar draws end at the last accepted value; the rest is raw
    end = int(np.flatnonzero(accepted)[-1]) + 1
    want = [scalar.integers(0, n) for _ in range(int(accepted[:end].sum()))]
    assert values[:end][accepted[:end]].tolist() == want
    assert scalar.integers(0, 2**32, size=400 - end, dtype=np.uint32).tolist() == u[end:].tolist()
    assert scalar.integers(0, 2**32) == block.integers(0, 2**32)


class ScriptedRng:
    """A stand-in for np.random.Generator over a given uint32 stream,
    drawing as numpy does: a block of raw values for
    ``integers(0, 2**32, size, dtype=np.uint32)``, and for a scalar
    ``integers(0, n)`` Lemire's multiply-and-shift, redrawing while the
    low word is below 2**32 mod n (n = 1 reads nothing)."""

    def __init__(self, values):
        self.values = [int(v) for v in values]
        self.read = 0

    def _next(self) -> int:
        self.read += 1
        return self.values[self.read - 1]

    def integers(self, low, high, size=None, dtype=None):
        if size is not None:
            assert (low, high, dtype) == (0, 2**32, np.uint32)
            return np.array([self._next() for _ in range(size)], dtype=np.uint32)
        n = high - low
        if n == 1:
            return low
        while True:
            m = self._next() * n
            if m % 2**32 >= 2**32 % n:
                return low + (m >> 32)


def test_scripted_rng_draws_as_numpy():
    values = np.random.default_rng(3).integers(0, 2**32, size=300, dtype=np.uint32)
    scripted, real = ScriptedRng(values), np.random.default_rng(3)
    for n in [2, 3, 1, 450, 3 * 2**30, 2**31 + 1] * 10:
        assert scripted.integers(0, n) == real.integers(0, n)
    assert scripted.read < 300
    assert scripted.integers(0, 2**32, 2, np.uint32).tolist() == real.integers(
        0, 2**32, 2, dtype=np.uint32).tolist()


@pytest.mark.parametrize("seed", range(4))
def test_redrawn_nps_and_coin_edges_match_the_scalar_loop(seed):
    # a draw of 0 is rejected for any n that is not a power of two, so
    # zeros in the stream force numpy to redraw NPs, one or more in a row;
    # 2**31 - 1 and 2**31 are the coin's edges
    kb = build_kb(records_from_spo([("a", "r", "b"), ("b", "q", "c"), ("c", "r", "a")]))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**32, size=4000, dtype=np.uint32)
    specials = rng.choice([0, 0, 0, 2**31 - 1, 2**31], size=600)
    values[rng.choice(len(values), size=600, replace=False)] = specials
    got_rng, want_rng = ScriptedRng(values), ScriptedRng(values)
    for _ in range(20):
        got = make_batch(kb, range(len(kb.triples)), 3, got_rng)
        want = reference_make_batch(kb, range(len(kb.triples)), 3, want_rng)
        assert spo_groups(got) == spo_groups(want)
        assert got_rng.read == want_rng.read
    assert want_rng.read > 500
