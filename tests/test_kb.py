"""KB ingestion, vocabularies, splitting, and the gold-isolation guard."""

from __future__ import annotations

import dataclasses
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbcanon.canonicalize import cluster_phrases
from kbcanon.embedding import HyperParams, default_init_rng, init_embeddings, train
from kbcanon.errors import EmptyKBError, InvariantViolation, ParseError
from kbcanon.kb import (
    GoldClustering,
    PhraseKind,
    TripleFormat,
    audit,
    build_kb,
    gold_from_triples,
    index_contains,
    load_gold,
    load_triples,
    normalize_whitespace,
    save_triples,
    split_validation,
    triple_keys,
)
from kbcanon.side_info import SideInfoConfig, assemble_side_info

from .conftest import pair_tuples, records_from_spo


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadTriples:
    def test_two_triple_example(self, tmp_path):
        records = records_from_spo([
            ("Obama", "born in", "Honolulu"),
            ("Barack Obama", "was president of", "US"),
        ])
        path = tmp_path / "kb.jsonl"
        write_jsonl(path, records)
        kb = load_triples(path)
        assert kb.n_nps == 4
        assert kb.n_rels == 2
        assert len(kb.triples) == 2

    def test_repeated_triple_counts_frequencies(self, tmp_path):
        records = records_from_spo([
            ("a", "r", "b"),
            ("a", "r", "b"),
        ])
        path = tmp_path / "kb.jsonl"
        write_jsonl(path, records)
        kb = load_triples(path)
        assert len(kb.triples) == 2
        assert len(kb.triple_index) == 1
        assert kb.np_phrase(kb.np_id("a")).frequency == 2
        assert kb.rel_phrase(kb.rel_id("r")).frequency == 2

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            '{"subject": "a", "relation": "r", "object": "b"}\n'
            '{"subject": "a", "relation": "r"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_triples(path)
        assert err.value.line_no == 2

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("not json at all\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_triples(path)
        assert err.value.line_no == 1

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyKBError):
            load_triples(path)

    def test_json_array_format(self, tmp_path):
        records = records_from_spo([("a", "r", "b")])
        path = tmp_path / "kb.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        kb = load_triples(path, TripleFormat.JSON)
        assert len(kb.triples) == 1

    def test_round_trip(self, tmp_path, toy_kb):
        path = tmp_path / "kb.jsonl"
        save_triples(toy_kb, path)
        again = load_triples(path)
        assert len(again.triples) == len(toy_kb.triples)
        assert {p.text for p in again.np_vocab} == {p.text for p in toy_kb.np_vocab}
        audit(again)

    def test_whitespace_normalized_identity(self, tmp_path):
        records = records_from_spo([
            ("New  York", "r", "b"),
            ("New York", "r", "c"),
        ])
        path = tmp_path / "kb.jsonl"
        write_jsonl(path, records)
        kb = load_triples(path)
        assert kb.n_nps == 3
        assert kb.np_phrase(kb.np_id("New York")).frequency == 2

    def test_duplicate_triple_id_names_both_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [
            {"subject": "a", "relation": "r", "object": "b"},
            {"triple_id": 1, "subject": "c", "relation": "r", "object": "d"},
        ])
        with pytest.raises(ParseError, match=r":2: duplicate triple_id 1 \(also on line 1\)"):
            load_triples(path)

    def test_case_is_preserved(self):
        kb = build_kb(records_from_spo([("Apple", "r", "apple")]))
        assert kb.n_nps == 2

    def test_optional_fields_fill_their_triple_fields(self):
        # build_kb passes the optional fields by position
        kb = build_kb([{"triple_id": 0, "subject": "a", "relation": "r", "object": "b",
                        "entity_link_sub": "Qa", "entity_link_obj": "Qb",
                        "gold_sub_id": "Ea", "gold_obj_id": "Eb"}])
        t = kb.triples[0]
        assert (t.subject_link, t.object_link, t.gold_subject, t.gold_object) == (
            "Qa", "Qb", "Ea", "Eb")


class TestNormalizeWhitespace:
    def test_collapses_and_trims(self):
        assert normalize_whitespace("  a\t b  ") == "a b"

    def test_plain_text_unchanged(self):
        assert normalize_whitespace("barack obama") == "barack obama"

    def test_agrees_with_regex_form_on_every_code_point(self):
        # the earlier form: trim, then collapse every run of \s to a space
        ws = re.compile(r"\s+")
        for c in map(chr, range(0x110000)):
            text = f"{c}a{c}b{c}"  # at both ends and between letters
            assert normalize_whitespace(text) == ws.sub(" ", text.strip()), hex(ord(c))


def contains(kb, s: int, p: int, o: int) -> bool:
    """Whether the KB holds (s, p, o), for ids in range."""
    return bool(index_contains(kb, np.array([triple_keys(s, p, o, kb.n_nps, kb.n_rels)]))[0])


class TestContains:
    def test_existing_and_corrupted(self, toy_kb):
        t = toy_kb.triples[0]
        assert contains(toy_kb, t.subject, t.relation, t.object)
        other = next(
            p.id for p in toy_kb.np_vocab
            if not contains(toy_kb, p.id, t.relation, t.object)
        )
        assert not contains(toy_kb, other, t.relation, t.object)

    def test_insertion_consistency(self):
        base = records_from_spo([("a", "r", "b")])
        kb1 = build_kb(base)
        kb2 = build_kb(base + [{"triple_id": 2, "subject": "a", "relation": "r",
                                "object": "c"}])
        assert not contains(kb1, kb1.np_id("b"), kb1.rel_id("r"), kb1.np_id("a"))
        assert contains(kb2, kb2.np_id("a"), kb2.rel_id("r"), kb2.np_id("b"))
        assert contains(kb2, kb2.np_id("a"), kb2.rel_id("r"), kb2.np_id("c"))


class TestAudit:
    def test_valid_kb_passes(self, toy_kb):
        audit(toy_kb)

    def test_vocabulary_closure_on_random_kbs(self):
        rand = random.Random(5)
        from .reference import random_kb

        for _ in range(20):
            audit(random_kb(rand))

    def test_duplicate_triple_ids_rejected(self):
        kb = build_kb([{"triple_id": 7, "subject": "a", "relation": "r", "object": "b"},
                       {"triple_id": 7, "subject": "c", "relation": "r", "object": "d"}])
        with pytest.raises(InvariantViolation, match="duplicate triple ids"):
            audit(kb)

    @pytest.mark.parametrize("field", ["np_vocab", "rel_vocab"])
    def test_phrase_ids_must_be_vocabulary_positions(self, toy_kb, field):
        vocab = getattr(toy_kb, field)
        for bad in (vocab[1:] + vocab[:1], (vocab[0],) + vocab[:-1]):
            with pytest.raises(InvariantViolation, match="at vocabulary position"):
                audit(dataclasses.replace(toy_kb, **{field: bad}))


    @staticmethod
    def with_triple(kb, j, **ids):
        triples = list(kb.triples)
        triples[j] = dataclasses.replace(triples[j], **ids)
        return dataclasses.replace(kb, triples=tuple(triples))

    @pytest.mark.parametrize("j, field, kind", [(0, "subject", "NP"), (2, "object", "NP"),
                                                (4, "relation", "REL")])
    @pytest.mark.parametrize("bad", ["past_the_end", -1])
    def test_unknown_id_names_triple(self, toy_kb, j, field, kind, bad):
        bad = len(toy_kb.vocab(PhraseKind(kind))) if bad == "past_the_end" else bad
        kb = self.with_triple(toy_kb, j, **{field: bad})
        tid = toy_kb.triples[j].triple_id
        with pytest.raises(InvariantViolation, match=rf"^triple {tid}: unknown {kind} id {bad}$"):
            audit(kb)

    def test_first_bad_triple_is_named_subject_before_relation(self, toy_kb):
        kb = self.with_triple(toy_kb, 1, relation=toy_kb.n_rels)
        kb = self.with_triple(kb, 3, subject=-2, relation=-1)
        with pytest.raises(InvariantViolation,
                           match=rf"^triple 2: unknown REL id {toy_kb.n_rels}$"):
            audit(kb)
        kb = self.with_triple(toy_kb, 3, subject=-2, relation=-1)
        with pytest.raises(InvariantViolation, match=r"^triple 4: unknown NP id -2$"):
            audit(kb)

    @pytest.mark.parametrize("field, kind", [("np_vocab", "NP"), ("rel_vocab", "REL")])
    def test_frequency_mismatch(self, toy_kb, field, kind):
        vocab = list(getattr(toy_kb, field))
        vocab[1] = dataclasses.replace(vocab[1], frequency=vocab[1].frequency + 1)
        with pytest.raises(InvariantViolation, match=rf"^{kind} 1 frequency mismatch$"):
            audit(dataclasses.replace(toy_kb, **{field: tuple(vocab)}))

    def test_frequency_below_one(self, toy_kb):
        vocab = list(toy_kb.np_vocab)
        vocab[2] = dataclasses.replace(vocab[2], frequency=0)
        with pytest.raises(InvariantViolation, match=r"^phrase 2 has frequency 0$"):
            audit(dataclasses.replace(toy_kb, np_vocab=tuple(vocab)))

    @pytest.mark.parametrize("text", [" Obama", "Barack  Obama", ""])
    def test_text_not_whitespace_normalized(self, toy_kb, text):
        vocab = list(toy_kb.rel_vocab)
        vocab[3] = dataclasses.replace(vocab[3], text=text)
        with pytest.raises(InvariantViolation,
                           match=r"^phrase 3 text not whitespace-normalized$"):
            audit(dataclasses.replace(toy_kb, rel_vocab=tuple(vocab)))


class TestColumns:
    def test_spo_holds_each_triples_ids(self, synth_kb):
        assert synth_kb.spo.dtype == np.int64
        assert synth_kb.spo.shape == (3, len(synth_kb.triples))
        for j, t in enumerate(synth_kb.triples):
            assert tuple(synth_kb.spo[:, j].tolist()) == t.spo

    def test_spo_and_triple_index_are_read_only(self, toy_kb):
        for arr in (toy_kb.spo, toy_kb.triple_index):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    @pytest.mark.parametrize("keep", [slice(0, 3), slice(None, None, -1), slice(0, 0)])
    def test_replaced_triples_rebuild_the_columns(self, toy_kb, keep):
        triples = toy_kb.triples[keep]
        kb = dataclasses.replace(toy_kb, triples=triples)
        assert kb.spo.shape == (3, len(triples))
        assert [tuple(col) for col in kb.spo.T.tolist()] == [t.spo for t in triples]
        assert sorted(kb.triple_index.tolist()) == kb.triple_index.tolist()
        want = {(t.subject * kb.n_rels + t.relation) * kb.n_nps + t.object for t in triples}
        assert set(kb.triple_index.tolist()) == want
        assert len(kb.triple_index) == len(want)
        kept = {u.spo for u in triples}
        assert (index_contains(kb, triple_keys(*toy_kb.spo, kb.n_nps, kb.n_rels)).tolist()
                == [t.spo in kept for t in toy_kb.triples])


class TestGold:
    def test_gold_from_triples_majority(self):
        records = records_from_spo(
            [("x", "r", "b"), ("x", "r", "c"), ("x", "r", "d")],
            {0: {"gold_sub_id": "E1"}, 1: {"gold_sub_id": "E1"},
             2: {"gold_sub_id": "E2"}},
        )
        kb = build_kb(records)
        gold = gold_from_triples(kb)
        assert gold.assignment[kb.np_id("x")] == "E1"

    def test_gold_from_triples_tie_dropped(self):
        records = records_from_spo(
            [("x", "r", "b"), ("x", "r", "c")],
            {0: {"gold_sub_id": "E1"}, 1: {"gold_sub_id": "E2"}},
        )
        kb = build_kb(records)
        gold = gold_from_triples(kb)
        assert kb.np_id("x") not in gold.assignment

    def test_load_gold_skips_unknown_phrases(self, tmp_path, toy_kb):
        path = tmp_path / "gold.tsv"
        path.write_text("Obama\tE1\nNo Such Phrase\tE9\n", encoding="utf-8")
        gold = load_gold(path, toy_kb, PhraseKind.NP)
        assert gold.assignment == {toy_kb.np_id("Obama"): "E1"}

    def test_load_gold_last_assignment_wins(self, tmp_path, toy_kb):
        path = tmp_path / "gold.tsv"
        path.write_text("Obama\tE1\nObama\tE2\n", encoding="utf-8")
        gold = load_gold(path, toy_kb, PhraseKind.NP)
        assert gold.assignment[toy_kb.np_id("Obama")] == "E2"


class TestSplitValidation:
    def _kb_with_entities(self, n_entities, triples_per_entity=2):
        rows = []
        for e in range(n_entities):
            for t in range(triples_per_entity):
                rows.append((f"np{e}", "r", f"obj{e}_{t}", f"E{e}"))
        records = []
        for i, (s, p, o, g) in enumerate(rows):
            records.append({"triple_id": i + 1, "subject": s, "relation": p,
                            "object": o, "gold_sub_id": g})
        kb = build_kb(records)
        return kb, gold_from_triples(kb)

    def test_fraction_of_entities_sampled(self):
        kb, gold = self._kb_with_entities(10)
        val, test = split_validation(kb, gold, 0.2, seed=3)
        val_entities = {gold.assignment[t.subject] for t in val}
        assert len(val_entities) == 2
        assert len(val) == 4
        assert len(test) == 16

    def test_deterministic_under_seed(self):
        kb, gold = self._kb_with_entities(10)
        a1, b1 = split_validation(kb, gold, 0.2, seed=9)
        a2, b2 = split_validation(kb, gold, 0.2, seed=9)
        assert [t.triple_id for t in a1] == [t.triple_id for t in a2]
        assert [t.triple_id for t in b1] == [t.triple_id for t in b2]

    def test_entity_triples_stay_together(self):
        kb, gold = self._kb_with_entities(6, triples_per_entity=3)
        val, test = split_validation(kb, gold, 0.3, seed=1)
        val_entities = {gold.assignment[t.subject] for t in val}
        test_entities = {gold.assignment[t.subject] for t in test}
        assert not val_entities & test_entities

    def test_bad_fraction_rejected(self, toy_kb):
        gold = gold_from_triples(toy_kb)
        with pytest.raises(ValueError):
            split_validation(toy_kb, gold, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_validation(toy_kb, gold, 1.0, seed=0)

    def test_one_entity_always_stays_for_test(self):
        kb, gold = self._kb_with_entities(4)
        val, test = split_validation(kb, gold, 0.9, seed=1)
        assert len({gold.assignment[t.subject] for t in val}) == 3
        assert len({gold.assignment[t.subject] for t in test}) == 1

    def test_fewer_than_two_subject_entities_refused(self):
        kb, gold = self._kb_with_entities(1)
        with pytest.raises(ValueError, match="found 1$"):
            split_validation(kb, gold, 0.5, seed=0)
        with pytest.raises(ValueError, match="found 0$"):
            split_validation(kb, GoldClustering(PhraseKind.NP, {}), 0.5, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        n_entities=st.integers(min_value=2, max_value=12),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n_entities, fraction, seed):
        kb, gold = self._kb_with_entities(n_entities)
        val, test = split_validation(kb, gold, fraction, seed)
        val_ids = {t.triple_id for t in val}
        test_ids = {t.triple_id for t in test}
        assert not val_ids & test_ids
        assert val_ids | test_ids == {t.triple_id for t in kb.triples}


class TestGoldIsolation:
    def test_perturbed_gold_changes_nothing_downstream(self, synth_kb, synth_data):
        """Training and clustering never read gold fields: scrambling
        every gold label leaves side info pairs, trained embeddings, and
        clusters bit-identical."""
        scrambled = []
        rand = random.Random(99)
        for t in synth_kb.triples:
            rec = {
                "triple_id": t.triple_id,
                "subject": synth_kb.np_phrase(t.subject).text,
                "relation": synth_kb.rel_phrase(t.relation).text,
                "object": synth_kb.np_phrase(t.object).text,
                "gold_sub_id": f"X{rand.randint(0, 5)}",
                "gold_obj_id": f"X{rand.randint(0, 5)}",
            }
            scrambled.append(rec)
        kb2 = build_kb(scrambled)

        side_cfg = SideInfoConfig(ppdb_np=True,
                                  ppdb_file=str(synth_data["side_ppdb"]))
        h = HyperParams(dim=8, epochs=3, batch_size=32, seed=4)
        outputs = []
        for kb in (synth_kb, kb2):
            side = assemble_side_info(kb, side_cfg)
            init = init_embeddings(kb, None, h.dim, default_init_rng(h.seed))
            emb = train(kb, side, h, init)
            clustering = cluster_phrases(kb, PhraseKind.NP, emb.np_vectors, 0.4)
            pair_sets = {s.source_name: pair_tuples(s) for s in side.np_sources}
            outputs.append((pair_sets, emb.np_vectors, clustering.member_sets()))
        assert outputs[0][0] == outputs[1][0]
        assert np.array_equal(outputs[0][1], outputs[1][1])
        assert outputs[0][2] == outputs[1][2]


class TestGoldClustering:
    def test_restricted_to(self):
        gold = GoldClustering(kind=PhraseKind.NP,
                              assignment={1: "A", 2: "A", 3: "B"})
        sub = gold.restricted_to({1, 3})
        assert sub.assignment == {1: "A", 3: "B"}
