"""Scoring, negative sampling, the training objective and its analytic
gradient, initialization, persistence, and the trainer."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbcanon.errors import ConfigError, ParseError, TrainingDivergedError
from kbcanon.kb import PhraseKind, build_kb
from kbcanon.embedding import (
    EmbeddingSet,
    HyperParams,
    circular_correlation,
    default_init_rng,
    gradient,
    init_embeddings,
    load_embeddings,
    load_word_vectors,
    make_batch,
    objective,
    objective_terms,
    sample_negatives,
    save_embeddings,
    score_triple,
    train,
)
from kbcanon.side_info import EMPTY_SIDE_INFO, SideInfoCollection, make_pair_set

from .conftest import records_from_spo
from .reference import direct_circular_correlation


def small_kb(n_nps=6, n_rels=2, n_triples=10, salt=0):
    rows = []
    for i in range(n_triples):
        rows.append((
            f"np{(i + salt) % n_nps}",
            f"rel{i % n_rels}",
            f"np{(i * 3 + 1 + salt) % n_nps}",
        ))
    return build_kb(records_from_spo(rows))


def random_embeddings(kb, dim, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(
        np_vectors=rng.normal(size=(kb.n_nps, dim)),
        rel_vectors=rng.normal(size=(kb.n_rels, dim)),
        dim=dim,
    )


def np_side(kb, pairs, name="pairs"):
    return SideInfoCollection(
        np_sources=(make_pair_set(name, PhraseKind.NP, pairs),),
        rel_sources=(),
    )


class TestCircularCorrelation:
    def test_two_dim_example(self):
        out = circular_correlation(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(out, [11.0, 10.0], atol=1e-12)

    def test_one_hot_identity_exact(self):
        rng = np.random.default_rng(0)
        for d in (2, 5, 16):
            e0 = np.zeros(d)
            e0[0] = 1.0
            b = rng.normal(size=d)
            assert (circular_correlation(e0, b) == b).all()

    def test_index_zero_is_dot_product(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 16, 300):
            a, b = rng.normal(size=d), rng.normal(size=d)
            assert circular_correlation(a, b)[0] == pytest.approx(
                float(a @ b), abs=1e-10
            )

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 7, 16):
            a, b = rng.normal(size=d), rng.normal(size=d)
            expected = direct_circular_correlation(a, b)
            assert np.allclose(circular_correlation(a, b), expected, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            circular_correlation(np.zeros(3), np.zeros(4))


class TestScoreTriple:
    def test_one_hot_relation_picks_index(self):
        kb = small_kb()
        d = 4
        rng = np.random.default_rng(5)
        E = np.zeros((kb.n_nps, d))
        E[0, 0] = 1.0
        b = rng.normal(size=d)
        E[1] = b
        R = np.zeros((kb.n_rels, d))
        k = 2
        R[0, k] = 1.0
        emb = EmbeddingSet(np_vectors=E, rel_vectors=R, dim=d)
        assert score_triple(emb, 0, 0, 1) == pytest.approx(b[k], abs=1e-10)

    def test_zero_relation_scores_zero(self):
        kb = small_kb()
        emb = EmbeddingSet(
            np_vectors=np.random.default_rng(6).normal(size=(kb.n_nps, 3)),
            rel_vectors=np.zeros((kb.n_rels, 3)),
            dim=3,
        )
        assert score_triple(emb, 0, 0, 1) == 0.0

    def test_hand_computed_score(self):
        kb = small_kb()
        E = np.zeros((kb.n_nps, 2))
        E[0] = [1.0, 2.0]
        E[1] = [3.0, 4.0]
        R = np.zeros((kb.n_rels, 2))
        R[0] = [1.0, 1.0]
        emb = EmbeddingSet(np_vectors=E, rel_vectors=R, dim=2)
        assert score_triple(emb, 0, 0, 1) == pytest.approx(21.0, abs=1e-10)


class TestSampleNegatives:
    def test_saturated_kb_yields_nothing(self):
        rows = [("a", "r", "a"), ("a", "r", "b"), ("b", "r", "a"), ("b", "r", "b")]
        kb = build_kb(records_from_spo(rows))
        rng = np.random.default_rng(0)
        assert sample_negatives(kb, kb.triples[0], 3, rng) == []

    def test_negatives_absent_from_kb(self, synth_kb):
        rng = np.random.default_rng(1)
        for t in synth_kb.triples[:30]:
            for neg in sample_negatives(synth_kb, t, 4, rng):
                assert neg.spo not in synth_kb.triple_index
                assert neg.relation == t.relation

    def test_deterministic_under_seed(self, synth_kb):
        t = synth_kb.triples[0]
        seq1 = [n.spo for n in sample_negatives(synth_kb, t, 5,
                                                np.random.default_rng(42))]
        seq2 = [n.spo for n in sample_negatives(synth_kb, t, 5,
                                                np.random.default_rng(42))]
        assert seq1 == seq2


class TestObjective:
    def test_single_side_pair_isolation(self):
        kb = small_kb()
        emb = random_embeddings(kb, 4, seed=7)
        side = np_side(kb, [(0, 1)])
        h = HyperParams(dim=4, lambda_str=0.0, lambda_reg=0.0,
                        lambda_side_default=1.0)
        batch = make_batch(kb, kb.triples[:2], 0, np.random.default_rng(0))
        diff = emb.np_vectors[0] - emb.np_vectors[1]
        assert objective(emb, batch, side, h) == pytest.approx(
            float(diff @ diff), abs=1e-10
        )

    def test_equal_side_vectors_score_zero(self):
        kb = small_kb()
        E = np.ones((kb.n_nps, 3))
        R = np.zeros((kb.n_rels, 3))
        emb = EmbeddingSet(np_vectors=E, rel_vectors=R, dim=3)
        side = np_side(kb, [(0, 1), (2, 3)])
        h = HyperParams(dim=3, lambda_str=0.0, lambda_reg=0.0)
        batch = make_batch(kb, kb.triples[:1], 0, np.random.default_rng(0))
        assert objective(emb, batch, side, h) == 0.0

    def test_satisfied_margin_gives_zero_ranking(self):
        kb = build_kb(records_from_spo([("a", "r", "b"), ("c", "r", "d")]))
        d = 2
        E = np.zeros((kb.n_nps, d))
        E[kb.np_id("a"), 0] = 10.0
        E[kb.np_id("b"), 0] = 10.0
        R = np.full((kb.n_rels, d), 0.0)
        R[0, 0] = 1.0
        emb = EmbeddingSet(np_vectors=E, rel_vectors=R, dim=d)
        pos = kb.triples[0]
        from kbcanon.kb import Triple

        neg = Triple(triple_id=-1, subject=kb.np_id("c"), relation=0,
                     object=kb.np_id("d"))
        from kbcanon.embedding import TrainingBatch

        batch = TrainingBatch((pos,), ((neg,),))
        h = HyperParams(dim=d, lambda_reg=0.0)
        terms = objective_terms(emb, batch, EMPTY_SIDE_INFO, h)
        assert terms["ranking"] == 0.0

    def test_reg_term_isolation(self):
        kb = small_kb()
        emb = random_embeddings(kb, 3, seed=8)
        h = HyperParams(dim=3, lambda_str=0.0, lambda_side_default=0.0,
                        lambda_reg=0.5)
        batch = make_batch(kb, kb.triples[:1], 0, np.random.default_rng(0))
        expected = 0.5 * (np.sum(emb.np_vectors ** 2) + np.sum(emb.rel_vectors ** 2))
        assert objective(emb, batch, EMPTY_SIDE_INFO, h) == pytest.approx(
            float(expected), abs=1e-10
        )

    def test_empty_sources_contribute_zero(self):
        kb = small_kb()
        emb = random_embeddings(kb, 3, seed=9)
        side = np_side(kb, [])
        h = HyperParams(dim=3, lambda_str=0.0, lambda_reg=0.0)
        batch = make_batch(kb, kb.triples[:1], 0, np.random.default_rng(0))
        assert objective(emb, batch, side, h) == 0.0


class TestGradient:
    def test_reg_only_closed_form(self):
        kb = small_kb()
        emb = random_embeddings(kb, 4, seed=10)
        h = HyperParams(dim=4, lambda_str=0.0, lambda_side_default=0.0,
                        lambda_reg=0.3)
        batch = make_batch(kb, kb.triples[:1], 0, np.random.default_rng(0))
        g_np, g_rel = gradient(emb, batch, EMPTY_SIDE_INFO, h)
        assert np.allclose(g_np, 2 * 0.3 * emb.np_vectors, atol=1e-12)
        assert np.allclose(g_rel, 2 * 0.3 * emb.rel_vectors, atol=1e-12)

    def test_side_pair_closed_form(self):
        kb = small_kb()
        emb = random_embeddings(kb, 4, seed=11)
        side = np_side(kb, [(0, 1)])
        h = HyperParams(dim=4, lambda_str=0.0, lambda_reg=0.0,
                        lambda_side_default=0.7)
        batch = make_batch(kb, kb.triples[:1], 0, np.random.default_rng(0))
        g_np, _ = gradient(emb, batch, side, h)
        diff = emb.np_vectors[0] - emb.np_vectors[1]
        assert np.allclose(g_np[0], 2 * 0.7 * diff, atol=1e-12)
        assert np.allclose(g_np[1], -2 * 0.7 * diff, atol=1e-12)
        assert np.allclose(g_np[2:], 0.0, atol=1e-12)

    def test_matches_finite_differences_small(self):
        max_err = _finite_difference_max_error(n_draws=5, dim=6, seed=123)
        assert max_err < 1e-4

    def test_matches_finite_differences_raw_hinge(self):
        max_err = _finite_difference_max_error(n_draws=5, dim=6, seed=321,
                                               hinge="raw")
        assert max_err < 1e-4


def _finite_difference_max_error(n_draws: int, dim: int, seed: int,
                                 hinge: str = "sigmoid") -> float:
    """Compare the analytic gradient against central differences on random
    draws, resampling any draw that lands too near the hinge kink (where
    the objective is not differentiable and finite differences are
    meaningless)."""
    from kbcanon.embedding import _ranking_margins

    kb = small_kb(n_nps=8, n_rels=3, n_triples=12)
    h = HyperParams(dim=dim, hinge=hinge, lambda_str=1.0,
                    lambda_side_default=0.4, lambda_reg=0.05)
    side = SideInfoCollection(
        np_sources=(make_pair_set("s_np", PhraseKind.NP,
                                  [(0, 1), (2, 3), (4, 5), (6, 7)]),),
        rel_sources=(make_pair_set("s_rel", PhraseKind.REL, [(0, 1)]),),
    )
    eps = 1e-5
    worst = 0.0
    draws = 0
    attempt = 0
    while draws < n_draws:
        attempt += 1
        rng = np.random.default_rng([seed, attempt])
        emb = EmbeddingSet(
            np_vectors=rng.normal(scale=0.5, size=(kb.n_nps, dim)),
            rel_vectors=rng.normal(scale=0.5, size=(kb.n_rels, dim)),
            dim=dim,
        )
        positives = [kb.triples[i] for i in rng.permutation(len(kb.triples))[:5]]
        batch = make_batch(kb, positives, 1, rng)
        margins = _ranking_margins(emb.np_vectors, emb.rel_vectors, batch, h)[3]
        if margins.size and np.abs(margins).min() < 1e-3:
            continue
        draws += 1
        g_np, g_rel = gradient(emb, batch, side, h)
        for arrays, analytic in ((emb.np_vectors, g_np), (emb.rel_vectors, g_rel)):
            flat = arrays.ravel()
            probe = np.random.default_rng([seed, attempt, 7]).choice(
                flat.size, size=min(20, flat.size), replace=False
            )
            for idx in probe:
                shift = np.zeros(flat.size)
                shift[idx] = eps
                shaped = shift.reshape(arrays.shape)
                if arrays is emb.np_vectors:
                    plus = EmbeddingSet(arrays + shaped, emb.rel_vectors.copy(), dim)
                    minus = EmbeddingSet(arrays - shaped, emb.rel_vectors.copy(), dim)
                else:
                    plus = EmbeddingSet(emb.np_vectors.copy(), arrays + shaped, dim)
                    minus = EmbeddingSet(emb.np_vectors.copy(), arrays - shaped, dim)
                fd = (objective(plus, batch, side, h)
                      - objective(minus, batch, side, h)) / (2 * eps)
                an = analytic.ravel()[idx]
                err = abs(fd - an) / max(1.0, abs(fd), abs(an))
                worst = max(worst, err)
    return worst


class TestInitEmbeddings:
    def write_vectors(self, path, entries, d):
        with open(path, "w", encoding="utf-8") as fh:
            for token, vec in entries:
                fh.write(token + " " + " ".join(str(x) for x in vec) + "\n")
        return path

    def test_token_mean(self, tmp_path):
        kb = build_kb(records_from_spo([("new york", "r", "unknown thing")]))
        path = self.write_vectors(tmp_path / "v.txt",
                                  [("new", [1.0, 0.0]), ("york", [0.0, 1.0])], 2)
        emb = init_embeddings(kb, path, 2, default_init_rng(0))
        assert np.allclose(emb.np_vectors[kb.np_id("new york")], [0.5, 0.5])

    def test_single_token_verbatim(self, tmp_path):
        kb = build_kb(records_from_spo([("york", "r", "x")]))
        path = self.write_vectors(tmp_path / "v.txt", [("york", [2.0, 3.0])], 2)
        emb = init_embeddings(kb, path, 2, default_init_rng(0))
        assert np.allclose(emb.np_vectors[kb.np_id("york")], [2.0, 3.0])

    def test_unknown_tokens_fallback_deterministic(self):
        kb = small_kb()
        e1 = init_embeddings(kb, None, 5, default_init_rng(3))
        e2 = init_embeddings(kb, None, 5, default_init_rng(3))
        assert np.array_equal(e1.np_vectors, e2.np_vectors)
        bound = 0.1 / np.sqrt(5)
        assert (np.abs(e1.np_vectors) <= bound).all()

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        kb = small_kb()
        path = self.write_vectors(tmp_path / "v.txt", [("np0", [1.0, 2.0])], 2)
        with pytest.raises(ConfigError):
            init_embeddings(kb, path, 3, default_init_rng(0))

    def test_ragged_vector_file_is_parse_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_word_vectors(path)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        kb = small_kb()
        emb = random_embeddings(kb, 6, seed=12)
        path = tmp_path / "emb.npz"
        save_embeddings(emb, path, seed=5, kb=kb)
        loaded, meta = load_embeddings(path, kb)
        assert np.array_equal(loaded.np_vectors, emb.np_vectors)
        assert np.array_equal(loaded.rel_vectors, emb.rel_vectors)
        assert meta["seed"] == 5
        assert meta["dim"] == 6

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        kb = small_kb()
        other = small_kb(salt=3)
        emb = random_embeddings(kb, 4, seed=13)
        path = tmp_path / "emb.npz"
        save_embeddings(emb, path, seed=0, kb=kb)
        with pytest.raises(ConfigError):
            load_embeddings(path, other)


class TestTrain:
    def test_side_pair_distance_shrinks_monotonically(self):
        kb = small_kb()
        side = np_side(kb, [(0, 1)])
        init = init_embeddings(kb, None, 4, default_init_rng(2))
        dists = []
        for epochs in (0, 1, 2, 4, 8):
            h = HyperParams(dim=4, lambda_str=0.0, lambda_reg=0.0,
                            lambda_side_default=1.0, learning_rate=0.05,
                            epochs=epochs, batch_size=4, seed=2,
                            negatives_per_positive=1)
            emb = train(kb, side, h, init)
            dists.append(float(np.linalg.norm(emb.np_vectors[0] - emb.np_vectors[1])))
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_loss_decreases_on_fixed_batch(self):
        kb = small_kb(n_nps=8, n_rels=3, n_triples=16)
        h = HyperParams(dim=6, learning_rate=0.02, epochs=30, batch_size=8,
                        seed=1, negatives_per_positive=2,
                        lambda_side_default=0.1, lambda_reg=1e-4)
        side = np_side(kb, [(0, 1), (2, 3)])
        init = init_embeddings(kb, None, 6, default_init_rng(1))
        fixed_batch = make_batch(kb, kb.triples, 2, np.random.default_rng(777))
        before = objective(init, fixed_batch, side, h)
        emb = train(kb, side, h, init)
        after = objective(emb, fixed_batch, side, h)
        assert after <= before

    def test_alias_similarity_exceeds_non_alias(self):
        """Four entities with two alias NPs each, sharing relational
        context; after training with alias side pairs, within-entity
        cosine beats across-entity cosine on average."""
        rows = []
        for e in range(4):
            a, b = f"ent{e} one", f"ent{e} two"
            for k, rel in enumerate(("rel0", "rel1", "rel2")):
                target = f"ent{(e + 1) % 4} one"
                rows.append((a if k % 2 == 0 else b, rel, target))
        rows.append(("ent0 two", "rel0", "ent2 one"))
        rows.extend([(f"ent{e} two", "rel2", f"ent{(e + 2) % 4} one")
                     for e in range(4)])
        kb = build_kb(records_from_spo(rows))
        alias_pairs = [
            (kb.np_id(f"ent{e} one"), kb.np_id(f"ent{e} two")) for e in range(4)
        ]
        side = np_side(kb, alias_pairs)
        h = HyperParams(dim=12, learning_rate=0.05, epochs=60, batch_size=8,
                        seed=3, negatives_per_positive=2,
                        lambda_side_default=1.0, lambda_reg=1e-4)
        init = init_embeddings(kb, None, 12, default_init_rng(3))
        emb = train(kb, side, h, init)

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        within = [cos(emb.np_vectors[a], emb.np_vectors[b]) for a, b in alias_pairs]
        across = []
        for e in range(4):
            for f in range(e + 1, 4):
                across.append(cos(emb.np_vectors[kb.np_id(f"ent{e} one")],
                                  emb.np_vectors[kb.np_id(f"ent{f} one")]))
        assert np.mean(within) > np.mean(across)

    def test_bit_identical_under_seed(self, synth_kb):
        h = HyperParams(dim=6, epochs=3, batch_size=32, seed=21)
        init = init_embeddings(synth_kb, None, 6, default_init_rng(21))
        e1 = train(synth_kb, EMPTY_SIDE_INFO, h, init)
        e2 = train(synth_kb, EMPTY_SIDE_INFO, h, init)
        assert np.array_equal(e1.np_vectors, e2.np_vectors)
        assert np.array_equal(e1.rel_vectors, e2.rel_vectors)

    def test_divergence_raises(self):
        kb = small_kb()
        h = HyperParams(dim=4, hinge="raw", learning_rate=1e4, lambda_reg=1.0,
                        epochs=200, batch_size=16, seed=0,
                        negatives_per_positive=1)
        init = init_embeddings(kb, None, 4, default_init_rng(0))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(kb, EMPTY_SIDE_INFO, h, init)

    def test_training_log_records_terms(self, tmp_path, synth_kb):
        h = HyperParams(dim=4, epochs=3, batch_size=64, seed=6)
        init = init_embeddings(synth_kb, None, 4, default_init_rng(6))
        log = tmp_path / "log.jsonl"
        train(synth_kb, EMPTY_SIDE_INFO, h, init, log_file=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        for r in records:
            for key in ("ranking", "side_np", "side_rel", "reg", "total",
                        "negatives_skipped", "hinge_active_fraction",
                        "wall_time_s"):
                assert key in r

    def test_monotone_side_weight_effect(self):
        """Raising the side weight (same seed, same steps) does not
        increase the final mean squared distance over that source's
        pairs."""
        kb = small_kb(n_nps=8, n_rels=2, n_triples=12)
        pairs = [(0, 1), (2, 3), (4, 5)]
        side = np_side(kb, pairs)
        init = init_embeddings(kb, None, 6, default_init_rng(9))
        msds = []
        for lam in (0.0, 0.1, 0.5, 1.0, 2.0):
            h = HyperParams(dim=6, learning_rate=0.02, epochs=20, batch_size=6,
                            seed=9, negatives_per_positive=1,
                            lambda_side_default=lam, lambda_reg=0.0)
            emb = train(kb, side, h, init)
            msd = np.mean([
                float(np.sum((emb.np_vectors[a] - emb.np_vectors[b]) ** 2))
                for a, b in pairs
            ])
            msds.append(msd)
        assert all(b <= a + 1e-12 for a, b in zip(msds, msds[1:]))

    def test_init_must_cover_vocab(self, synth_kb):
        kb_small = small_kb()
        init = init_embeddings(kb_small, None, 4, default_init_rng(0))
        with pytest.raises(ConfigError):
            train(synth_kb, EMPTY_SIDE_INFO, HyperParams(dim=4, epochs=1), init)


class TestHyperParams:
    def test_margin_defaults_per_hinge(self):
        assert HyperParams().effective_margin == 0.5
        assert HyperParams(hinge="raw").effective_margin == 1.0
        assert HyperParams(margin=0.25).effective_margin == 0.25

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            HyperParams(dim=0).validate()
        with pytest.raises(ConfigError):
            HyperParams(margin=-1.0).validate()
        with pytest.raises(ConfigError):
            HyperParams(hinge="nonsense").validate()
        with pytest.raises(ConfigError):
            HyperParams(learning_rate=0.0).validate()

    def test_lambda_lookup(self):
        h = HyperParams(lambda_ent={"ppdb": 0.9}, lambda_side_default=0.2)
        assert h.lambda_for(PhraseKind.NP, "ppdb") == 0.9
        assert h.lambda_for(PhraseKind.NP, "morph") == 0.2
        assert h.lambda_for(PhraseKind.REL, "ppdb") == 0.2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), d=st.sampled_from([2, 3, 8, 17]))
def test_correlation_properties(seed, d):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=d), rng.normal(size=d)
    out = circular_correlation(a, b)
    assert out.shape == (d,)
    assert out[0] == pytest.approx(float(a @ b), abs=1e-9)
