"""Tests for the synthetic KB generator."""

from __future__ import annotations

import hashlib

import pytest

from kbcanon.kb import PhraseKind, gold_from_triples, load_gold
from kbcanon.metrics import evaluate
from kbcanon.synth import make_synthetic_kb


class TestGeneratorContract:
    def test_vocabulary_sizes(self):
        synth = make_synthetic_kb(20, 3, 5, 2, 200, 0.0, seed=1)
        kb = synth.build()
        assert kb.n_nps == 60
        assert kb.n_rels == 10
        assert len(kb.triples) == 200
        assert len(synth.np_gold) == 60
        assert len(synth.rel_gold) == 10

    def test_every_surface_appears(self):
        synth = make_synthetic_kb(8, 3, 4, 2, 80, 0.0, seed=2)
        kb = synth.build()
        np_texts = {p.text for p in kb.np_vocab}
        rel_texts = {p.text for p in kb.rel_vocab}
        assert np_texts == set(synth.np_gold)
        assert rel_texts == set(synth.rel_gold)

    def test_gold_counts_per_group(self):
        synth = make_synthetic_kb(6, 4, 3, 2, 60, 0.0, seed=3)
        by_entity: dict[str, int] = {}
        for _, gid in synth.np_gold.items():
            by_entity[gid] = by_entity.get(gid, 0) + 1
        assert set(by_entity.values()) == {4}
        assert len(by_entity) == 6

    def test_alias_pairs_are_within_entity(self):
        synth = make_synthetic_kb(5, 3, 3, 2, 50, 0.0, seed=4)
        assert len(synth.alias_pairs) == 5 * 3  # C(3,2)=3 pairs per entity
        for a, b in synth.alias_pairs:
            assert a < b
            assert synth.np_gold[a] == synth.np_gold[b]

    def test_fixed_seed_reproduces(self):
        a = make_synthetic_kb(10, 3, 4, 2, 100, 0.2, seed=9)
        b = make_synthetic_kb(10, 3, 4, 2, 100, 0.2, seed=9)
        assert a.records == b.records
        assert a.np_gold == b.np_gold
        assert a.alias_pairs == b.alias_pairs

    def test_different_seeds_differ(self):
        a = make_synthetic_kb(10, 3, 4, 2, 100, 0.0, seed=1)
        b = make_synthetic_kb(10, 3, 4, 2, 100, 0.0, seed=2)
        assert a.records != b.records

    def test_embedded_gold_annotations_match_gold_map(self):
        synth = make_synthetic_kb(7, 2, 3, 2, 60, 0.0, seed=5)
        for rec in synth.records:
            assert rec["gold_sub_id"] == synth.np_gold[rec["subject"]]
            assert rec["gold_obj_id"] == synth.np_gold[rec["object"]]


class TestGeneratorValidation:
    def test_too_few_triples_rejected(self):
        # 20 aliases must each appear, so 10 triples cannot cover them.
        with pytest.raises(ValueError):
            make_synthetic_kb(10, 2, 2, 2, 10, 0.0, seed=1)

    def test_single_entity_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_kb(1, 2, 2, 2, 20, 0.0, seed=1)

    def test_noise_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_kb(5, 2, 2, 2, 50, 1.5, seed=1)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_kb(5, 0, 2, 2, 50, 0.0, seed=1)

    def test_relation_group_no_entity_holds_rejected(self):
        # entity e holds groups e, e + 1 and e + 2, so 2 entities hold 4 groups
        with pytest.raises(ValueError, match=r"n_relations=5 is more than "
                                             r"n_entities \+ 2 = 4: .* group 4"):
            make_synthetic_kb(2, 3, 5, 2, 100, 0.0, seed=1)


# sha256 of the triples file at seed 1 for the relation rung and the three
# benchmark workloads' shapes; any change to the generator's random stream
# changes them
PINNED_TRIPLES = {
    "relation_rung": ((5000, 3, 5000, 4, 45000, 0.1),
                      "461861db1d22e1ea170e3fc23850de151ae923ba3d824c0d51266147211b30bc"),
    "dense_triples": ((150, 3, 100, 3, 4000, 0.1),
                      "f6f7dc9c1aca5a13205c7f23ba9a5df53b6effe3e0b8fb7fdf9b01be7c000887"),
    "sparse_vocab": ((900, 2, 100, 2, 2200, 0.1),
                     "0643871e27c05e3f7ce771b679bd091c66da31806460517b754d5f755c1bbd9a"),
    "leaderboard": ((280, 2, 80, 2, 1700, 0.1),
                    "3d6ed7b5e2e36a4792eca1d869067e52364a1ff55be02aac42fd5c6a50d0a554"),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_TRIPLES))
    def test_triples_file(self, tmp_path, name):
        sizes, digest = PINNED_TRIPLES[name]
        make_synthetic_kb(*sizes, seed=1).write_triples(tmp_path / "triples.jsonl")
        assert sha256_of(tmp_path / "triples.jsonl") == digest

    def test_side_file(self, tmp_path):
        synth = make_synthetic_kb(*PINNED_TRIPLES["leaderboard"][0], seed=1)
        synth.write_side_file(tmp_path / "side.tsv", coverage=0.5, precision=0.9)
        assert (sha256_of(tmp_path / "side.tsv")
                == "ffbc2f63d82c7794fc5a8b21626776a9b7edd95dfda59f627b4e4075d272afe9")


class TestGoldPerfectScores:
    def test_oracle_clustering_scores_one(self):
        # Clustering NPs exactly by their gold entity must achieve perfect
        # macro, micro, and pairwise scores.
        synth = make_synthetic_kb(10, 3, 4, 2, 100, 0.0, seed=6)
        kb = synth.build()
        gold = gold_from_triples(kb)
        by_entity: dict[str, set[int]] = {}
        for pid, gid in gold.assignment.items():
            by_entity.setdefault(gid, set()).add(pid)
        report = evaluate(list(by_entity.values()), gold.assignment)
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0
        assert report.pair_f1 == 1.0


class TestFileOutputs:
    def test_gold_files_round_trip(self, tmp_path):
        synth = make_synthetic_kb(6, 3, 3, 2, 60, 0.0, seed=7)
        kb = synth.build()
        np_path = tmp_path / "gold_np.tsv"
        rel_path = tmp_path / "gold_rel.tsv"
        synth.write_np_gold(np_path)
        synth.write_rel_gold(rel_path)
        np_gold = load_gold(np_path, kb, PhraseKind.NP)
        rel_gold = load_gold(rel_path, kb, PhraseKind.REL)
        assert len(np_gold) == kb.n_nps
        assert len(rel_gold) == kb.n_rels
        for p in kb.np_vocab:
            assert np_gold.assignment[p.id] == synth.np_gold[p.text]

    def test_triples_file_loads_back(self, tmp_path):
        from kbcanon.kb import load_triples

        synth = make_synthetic_kb(6, 2, 3, 2, 50, 0.0, seed=8)
        path = tmp_path / "triples.jsonl"
        synth.write_triples(path)
        kb = load_triples(path)
        assert len(kb.triples) == 50
        assert kb.n_nps == 12

    def test_side_file_coverage_and_precision(self, tmp_path):
        synth = make_synthetic_kb(10, 3, 3, 2, 80, 0.0, seed=9)
        path = tmp_path / "side.tsv"
        n_true, n_false = synth.write_side_file(path, coverage=0.5, precision=1.0)
        assert n_false == 0
        assert n_true == round(0.5 * len(synth.alias_pairs))
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert len(rows) == n_true
        for a, b, conf in rows:
            assert synth.np_gold[a] == synth.np_gold[b]
            assert conf == "1.0"

    def test_side_file_with_false_pairs(self, tmp_path):
        synth = make_synthetic_kb(10, 3, 3, 2, 80, 0.0, seed=10)
        path = tmp_path / "side.tsv"
        n_true, n_false = synth.write_side_file(path, coverage=1.0, precision=0.5)
        assert n_true == len(synth.alias_pairs)
        assert n_false == n_true
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        wrong = sum(1 for a, b, _ in rows if synth.np_gold[a] != synth.np_gold[b])
        assert wrong == n_false

    def test_side_file_deterministic_for_seed(self, tmp_path):
        synth = make_synthetic_kb(8, 3, 3, 2, 70, 0.0, seed=11)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        synth.write_side_file(p1, coverage=0.6, precision=0.8)
        synth.write_side_file(p2, coverage=0.6, precision=0.8)
        assert p1.read_bytes() == p2.read_bytes()

    def test_side_file_bad_parameters_rejected(self, tmp_path):
        synth = make_synthetic_kb(5, 2, 2, 2, 40, 0.0, seed=12)
        with pytest.raises(ValueError):
            synth.write_side_file(tmp_path / "x.tsv", coverage=1.5)
        with pytest.raises(ValueError):
            synth.write_side_file(tmp_path / "x.tsv", precision=0.0)

    def test_side_file_at_coverage_zero_is_empty(self, tmp_path):
        synth = make_synthetic_kb(5, 2, 2, 2, 40, 0.0, seed=12)
        assert synth.write_side_file(tmp_path / "x.tsv", coverage=0.0) == (0, 0)
        assert (tmp_path / "x.tsv").read_bytes() == b""
