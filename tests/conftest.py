"""Shared fixtures: small handcrafted KBs and a session-scoped synthetic
dataset with gold labels and a side-information file."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from kbcanon.kb import OpenKB, build_kb
from kbcanon.side_info import tokenize
from kbcanon.synth import make_synthetic_kb


def records_from_spo(spo_list, extra_by_index=None):
    records = []
    for i, (s, p, o) in enumerate(spo_list):
        rec = {"triple_id": i + 1, "subject": s, "relation": p, "object": o}
        rec.update((extra_by_index or {}).get(i, {}))
        records.append(rec)
    return records


def pair_tuples(pair_set) -> set[tuple[int, int]]:
    """The rows of a pair set's (m, 2) pair array as (a, b) int tuples."""
    return {(a, b) for a, b in pair_set.pairs.tolist()}


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's ``src/`` first on PYTHONPATH,
    so a subprocess imports kbcanon from it, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def write_kb_vectors(path, kb: OpenKB, dim: int, distractors: int = 20, seed: int = 0):
    """A vectors file with rows for every other KB token (sorted), then
    ``distractors`` rows of tokens that no KB phrase holds."""
    tokens = sorted({t for p in (*kb.np_vocab, *kb.rel_vocab) for t in tokenize(p.text)})
    rows = tokens[::2] + [f"zzdistractor{i}" for i in range(distractors)]
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(rows), dim))
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in zip(rows, values):
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    return path


@pytest.fixture
def toy_kb() -> OpenKB:
    """Two entities with alias NPs, two relation paraphrases, and gold
    labels on every subject/object."""
    rows = [
        ("Barack Obama", "was born in", "Honolulu", "E1", "E3"),
        ("Obama", "took birth in", "Honolulu", "E1", "E3"),
        ("Barack Obama", "was president of", "US", "E1", "E2"),
        ("Obama", "was president of", "America", "E1", "E2"),
        ("US", "is located in", "North America", "E2", "E4"),
        ("America", "is located in", "North America", "E2", "E4"),
    ]
    records = []
    for i, (s, p, o, gs, go) in enumerate(rows):
        records.append({
            "triple_id": i + 1,
            "subject": s,
            "relation": p,
            "object": o,
            "gold_sub_id": gs,
            "gold_obj_id": go,
        })
    return build_kb(records)


@pytest.fixture(scope="session")
def synth_data(tmp_path_factory):
    """A labeled synthetic KB on disk, session-scoped because several test
    modules reuse it."""
    out = tmp_path_factory.mktemp("synth")
    synth = make_synthetic_kb(
        n_entities=12,
        aliases_per_entity=3,
        n_relations=4,
        paraphrases_per_relation=2,
        n_triples=150,
        noise=0.0,
        seed=11,
    )
    synth.write_triples(out / "triples.jsonl")
    synth.write_np_gold(out / "gold_np.tsv")
    synth.write_rel_gold(out / "gold_rel.tsv")
    synth.write_side_file(out / "side_ppdb.tsv", coverage=0.5, precision=1.0)
    return {
        "synth": synth,
        "dir": out,
        "triples": out / "triples.jsonl",
        "gold_np": out / "gold_np.tsv",
        "gold_rel": out / "gold_rel.tsv",
        "side_ppdb": out / "side_ppdb.tsv",
    }


@pytest.fixture(scope="session")
def synth_kb(synth_data) -> OpenKB:
    return synth_data["synth"].build()
