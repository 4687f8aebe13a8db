"""The benchmark's workloads: synthetic KBs plus pipeline configs.

Each workload is shaped so that one module does most of the pipeline's
work and the others little (see README.md for the reasons and the
measured shares). Inputs come only from ``make_synthetic_kb`` and the
workload seed; the same seed writes byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from kbcanon.side_info import tokenize
from kbcanon.synth import make_synthetic_kb

NAMES = ("dense_triples", "sparse_vocab", "leaderboard")

LEADERBOARD_BASELINES = ("morph", "ppdb", "idf_hac", "strsim_hac", "attr_hac",
                         "wordvec_avg")


@dataclass(frozen=True)
class Workload:
    name: str
    # make_synthetic_kb arguments (without the seed)
    kb: dict
    # pipeline config, minus the file paths the benchmark fills in
    config: dict
    # write_side_file(coverage, precision) arguments, enabled as ppdb_np
    side_file: dict | None = None
    # distractor rows appended to a vectors file that covers every KB token
    distractor_vectors: int | None = None


def _hp(**kw) -> dict:
    return {"threads": 1, **kw}


WORKLOADS = {
    "dense_triples": Workload(
        name="dense_triples",
        kb=dict(n_entities=150, aliases_per_entity=3, n_relations=100,
                paraphrases_per_relation=3, n_triples=4000, noise=0.1),
        config=dict(hyperparams=_hp(dim=300, epochs=2, batch_size=128,
                                    learning_rate=0.1, lambda_side_default=10.0)),
    ),
    "sparse_vocab": Workload(
        name="sparse_vocab",
        kb=dict(n_entities=900, aliases_per_entity=2, n_relations=100,
                paraphrases_per_relation=2, n_triples=2200, noise=0.1),
        config=dict(validation_fraction=0.5,
                    hyperparams=_hp(dim=32, epochs=2, learning_rate=0.05,
                                    lambda_side_default=1.0)),
    ),
    "leaderboard": Workload(
        name="leaderboard",
        kb=dict(n_entities=280, aliases_per_entity=2, n_relations=80,
                paraphrases_per_relation=2, n_triples=1700, noise=0.1),
        config=dict(baselines=list(LEADERBOARD_BASELINES),
                    side={"ppdb_np": True},
                    hyperparams=_hp(dim=100, epochs=2, learning_rate=0.05,
                                    lambda_side_default=1.0)),
        side_file=dict(coverage=0.5, precision=0.9),
        distractor_vectors=10000,
    ),
}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_vectors(path: Path, synth, dim: int, distractors: int, seed: int) -> None:
    tokens = sorted({tok for text in list(synth.np_gold) + list(synth.rel_gold)
                     for tok in tokenize(text)})
    rows = tokens + [f"zzq{i}" for i in range(distractors)]
    values = np.random.default_rng([seed, 7]).uniform(-1.0, 1.0, (len(rows), dim))
    with path.open("w", encoding="utf-8") as fh:
        for tok, vec in zip(rows, values):
            fh.write(tok + " " + " ".join(f"{x:.5f}" for x in vec) + "\n")


def write_inputs(w: Workload, seed: int, in_dir) -> dict:
    """Generate every input file of ``w`` under ``in_dir`` and return
    {file name: sha256}. ``config.yaml`` refers to its siblings by
    relative path, so its bytes do not depend on where ``in_dir`` is."""
    in_dir = Path(in_dir)
    in_dir.mkdir(parents=True, exist_ok=True)
    synth = make_synthetic_kb(seed=seed, **w.kb)
    synth.write_triples(in_dir / "triples.jsonl")
    synth.write_np_gold(in_dir / "gold_np.tsv")
    synth.write_rel_gold(in_dir / "gold_rel.tsv")
    config = {
        "triples_file": "triples.jsonl",
        "gold_np_file": "gold_np.tsv",
        "gold_rel_file": "gold_rel.tsv",
        "seed": seed,
        "deterministic": True,
        **w.config,
    }
    if w.side_file is not None:
        synth.write_side_file(in_dir / "paraphrases.tsv", **w.side_file)
        config["side"] = dict(config.get("side", {}), ppdb_file="paraphrases.tsv")
    if w.distractor_vectors is not None:
        _write_vectors(in_dir / "vectors.txt", synth, w.config["hyperparams"]["dim"],
                       w.distractor_vectors, seed)
        config["vectors_file"] = "vectors.txt"
    with (in_dir / "config.yaml").open("w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)
    return {p.name: sha256_file(p) for p in sorted(in_dir.iterdir()) if p.is_file()}
