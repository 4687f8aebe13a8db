"""End-to-end acceptance gate.

One test per release criterion. Each pins an externally checkable
property at a fixed tolerance and wall-clock budget, using the
independent oracles in ``tests/reference.py`` where the property is
nontrivial. ``pytest tests/test_acceptance.py -v`` prints one pass/fail
line per criterion.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kbcanon.baselines import (
    BaselineConfig,
    BaselineName,
    run_baseline,
    train_structure_only,
)
from kbcanon.canonicalize import (
    cosine_distance_matrix,
    hac_from_distance_matrix,
)
from kbcanon.embedding import (
    HyperParams,
    circular_correlation,
    default_init_rng,
    init_embeddings,
    train,
)
from kbcanon.kb import PhraseKind
from kbcanon.metrics import evaluate
from kbcanon.pipeline import LEADERBOARD_HEADER, PipelineConfig, run_pipeline
from kbcanon.side_info import EMPTY_SIDE_INFO, SideInfoConfig, amie_mine
from kbcanon.synth import make_synthetic_kb

from .conftest import checkout_env
from .reference import (
    brute_force_rule_pairs,
    naive_complete_linkage,
    random_kb,
    random_points,
)
from .test_embedding import _finite_difference_max_error

REPO_ROOT = Path(__file__).resolve().parents[1]


class Timer:
    """Wall-clock budget check for one criterion body."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s

    def __enter__(self) -> "Timer":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit_s, (
                f"over budget: {self.elapsed:.2f}s >= {self.limit_s:g}s"
            )


def write_synthetic_files(synth, data_dir: Path, coverage: float = 0.5,
                          precision: float = 1.0) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    synth.write_triples(data_dir / "triples.jsonl")
    synth.write_np_gold(data_dir / "gold_np.tsv")
    synth.write_rel_gold(data_dir / "gold_rel.tsv")
    synth.write_side_file(data_dir / "side_ppdb.tsv",
                          coverage=coverage, precision=precision)


def ppdb_only_config(data_dir: Path, seed: int,
                     hyperparams: HyperParams) -> PipelineConfig:
    side = SideInfoConfig(
        morph=False,
        idf_overlap=False,
        entity_linking=False,
        amie=False,
        ppdb_np=True,
        ppdb_file=str(data_dir / "side_ppdb.tsv"),
    )
    return PipelineConfig(
        triples_file=str(data_dir / "triples.jsonl"),
        gold_np_file=str(data_dir / "gold_np.tsv"),
        gold_rel_file=str(data_dir / "gold_rel.tsv"),
        seed=seed,
        side=side,
        hyperparams=hyperparams,
    )


def test_criterion_01_metrics_worked_example():
    """The hand-checkable seven-element fixture must reproduce its exact
    rational scores: three clusters of which two are pure, plurality
    counts of 2+3+1 over 7 elements, and 4 pairwise hits out of 6
    predicted / 7 gold pairs."""
    clusters = [{0, 1, 2}, {3, 4, 5}, {6}]
    gold = {0: "e1", 1: "e1", 2: "e2", 3: "e2", 4: "e2", 5: "e2", 6: "e3"}
    with Timer(1.0) as t:
        report = evaluate(clusters, gold)
        assert report.macro_p == pytest.approx(2 / 3, abs=1e-12)
        assert report.macro_r == pytest.approx(2 / 3, abs=1e-12)
        assert report.micro_p == pytest.approx(6 / 7, abs=1e-12)
        assert report.micro_r == pytest.approx(6 / 7, abs=1e-12)
        assert report.pair_p == pytest.approx(4 / 6, abs=1e-12)
        assert report.pair_r == pytest.approx(4 / 7, abs=1e-12)
    print(f"criterion 1 PASS: exact rational metrics in {t.elapsed:.3f}s (< 1s)")


def test_criterion_02_gradient_matches_finite_differences():
    """Analytic gradient of the full training objective (ranking hinge +
    side-information constraints + L2) vs central differences: max
    relative error < 1e-4 over 100 random draws at d=10."""
    with Timer(30.0) as t:
        err = _finite_difference_max_error(n_draws=100, dim=10, seed=42)
        assert err < 1e-4, f"max relative gradient error {err:.3e}"
    print(f"criterion 2 PASS: max rel err {err:.3e} in {t.elapsed:.2f}s (< 30s)")


def test_criterion_03_circular_correlation_identities():
    """Index-0 of the correlation equals the dot product within 1e-10,
    and correlating with the first standard basis vector returns the
    other argument bit-for-bit; 1000 random pairs per dimension."""
    with Timer(10.0) as t:
        for d in (2, 3, 16, 300):
            rng = np.random.default_rng([3, d])
            e0 = np.zeros(d)
            e0[0] = 1.0
            for _ in range(1000):
                a = rng.normal(size=d)
                b = rng.normal(size=d)
                corr = circular_correlation(a, b)
                assert abs(corr[0] - a @ b) <= 1e-10
                assert np.array_equal(circular_correlation(e0, b), b)
    print(f"criterion 3 PASS: dot/identity laws for d in (2,3,16,300) "
          f"in {t.elapsed:.2f}s (< 10s)")


def test_criterion_04_hac_matches_naive_oracle():
    """Complete-linkage agglomeration agrees with the cubic-time
    reference on 200 random instances of up to 50 points, half of them
    distance-quantized to force exact ties, under the shared smallest-
    minima tie-break."""
    rand = random.Random(4)
    with Timer(60.0) as t:
        for i in range(200):
            n = rand.randint(2, 50)
            dim = rand.randint(2, 6)
            X = random_points(rand, n, dim, quantized=bool(i % 2))
            D = cosine_distance_matrix(X)
            threshold = rand.choice(
                [0.0, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, rand.uniform(0.0, 2.0)]
            )
            ids = list(range(n))
            got = hac_from_distance_matrix(ids, D, threshold)
            want = naive_complete_linkage(ids, D, threshold)
            assert got == want, f"instance {i}: n={n} threshold={threshold}"
    print(f"criterion 4 PASS: 200 oracle instances in {t.elapsed:.2f}s (< 60s)")


def test_criterion_05_rule_miner_matches_brute_force():
    """Mined relation equivalences agree with explicit support/confidence
    enumeration at thresholds (2, 0.2) on 100 random KBs of up to 8
    relations and 50 triples."""
    rand = random.Random(5)
    with Timer(30.0) as t:
        for i in range(100):
            kb = random_kb(rand, max_rels=8, max_triples=50)
            mined = amie_mine(kb, support_min=2, confidence_min=0.2)
            got = {tuple(sorted(p)) for p in mined.pairs}
            want = {tuple(sorted(p)) for p in brute_force_rule_pairs(kb, 2, 0.2)}
            assert got == want, f"instance {i}"
    print(f"criterion 5 PASS: 100 random KBs in {t.elapsed:.2f}s (< 30s)")


def test_criterion_06_side_information_improves_clustering(tmp_path):
    """On a noise-free synthetic KB (20 entities x 3 aliases) with an
    equivalence resource covering half the true alias pairs, the full
    pipeline with the constraints enabled scores at least as well as the
    identical run with every constraint weight zeroed, on all three NP
    F1 metrics, and strictly better on at least one."""
    with Timer(300.0) as t:
        synth = make_synthetic_kb(
            n_entities=20, aliases_per_entity=3, n_relations=5,
            paraphrases_per_relation=2, n_triples=250, noise=0.0, seed=20,
        )
        data_dir = tmp_path / "data"
        write_synthetic_files(synth, data_dir, coverage=0.5, precision=1.0)

        scores: dict[str, dict] = {}
        for label, lam in (("with_side", 1.0), ("no_side", 0.0)):
            h = HyperParams(dim=40, epochs=80, batch_size=32,
                            learning_rate=0.05, lambda_side_default=lam)
            config = ppdb_only_config(data_dir, seed=20, hyperparams=h)
            out = run_pipeline(config, tmp_path / label)
            payload = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
            scores[label] = payload["np"]

        deltas = []
        for key in ("macro_f1", "micro_f1", "pair_f1"):
            on, off = scores["with_side"][key], scores["no_side"][key]
            assert on is not None and off is not None, key
            assert on >= off, f"{key}: with side {on:.4f} < without {off:.4f}"
            deltas.append(on - off)
        assert max(deltas) > 0.0, "no strict improvement in any metric"
    print(f"criterion 6 PASS: F1 deltas (macro, micro, pair) = "
          f"{tuple(round(d, 4) for d in deltas)} in {t.elapsed:.2f}s (< 300s)")


def test_criterion_07_pipeline_determinism(tmp_path):
    """Two full pipeline runs with the identical config and seed in
    deterministic mode produce byte-identical cluster files."""
    with Timer(300.0) as t:
        synth = make_synthetic_kb(
            n_entities=12, aliases_per_entity=3, n_relations=4,
            paraphrases_per_relation=2, n_triples=150, noise=0.0, seed=7,
        )
        data_dir = tmp_path / "data"
        write_synthetic_files(synth, data_dir)

        h = HyperParams(dim=16, epochs=20, batch_size=32, learning_rate=0.05,
                        lambda_side_default=1.0)
        outs = []
        for label in ("run_a", "run_b"):
            config = ppdb_only_config(data_dir, seed=7, hyperparams=h)
            assert config.deterministic
            outs.append(run_pipeline(config, tmp_path / label))
        for name in ("clusters_np.jsonl", "clusters_rel.jsonl"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
    print(f"criterion 7 PASS: byte-identical cluster files in "
          f"{t.elapsed:.2f}s (< 300s)")


def test_criterion_08_benchmark_reproduction_harness(tmp_path):
    """Full-benchmark scores need the complete dataset, the external
    resources, and tuned hyperparameters, none of which ship here; what
    must exist instead is the harness that takes those files and emits a
    per-system leaderboard. Checks: the script exists, its --help works,
    and a desk-scale invocation with a grid and baselines produces
    leaderboards in the fixed row format. No score values are asserted."""
    script = REPO_ROOT / "scripts" / "reproduce_reverb45k.py"
    assert script.is_file(), "reproduction harness script is missing"
    env = checkout_env()

    helptext = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert helptext.returncode == 0, helptext.stderr

    synth = make_synthetic_kb(
        n_entities=8, aliases_per_entity=2, n_relations=3,
        paraphrases_per_relation=1, n_triples=60, noise=0.0, seed=8,
    )
    data_dir = tmp_path / "data"
    write_synthetic_files(synth, data_dir)
    grid_file = tmp_path / "grid.yaml"
    grid_file.write_text("np_threshold: [0.3, 0.6]\n", encoding="utf-8")

    run = subprocess.run(
        [
            sys.executable, str(script),
            "--triples", str(data_dir / "triples.jsonl"),
            "--gold-np", str(data_dir / "gold_np.tsv"),
            "--gold-rel", str(data_dir / "gold_rel.tsv"),
            "--ppdb", str(data_dir / "side_ppdb.tsv"),
            "--grid", str(grid_file),
            "--out", str(tmp_path / "run"),
            "--seed", "8",
            "--dim", "12", "--epochs", "8", "--batch-size", "32",
            "--learning-rate", "0.05",
            "--baselines", "morph", "hole_random",
        ],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert run.returncode == 0, run.stderr

    def check_rows(path: Path, expected_labels: set[str]) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == LEADERBOARD_HEADER
        rows = [ln for ln in lines[1:] if ln.strip()]
        labels = {row[:40].strip() for row in rows}
        assert expected_labels <= labels, f"{expected_labels - labels} missing"
        for row in rows:
            cells = row[40:].split()
            assert len(cells) == 3, f"malformed row: {row!r}"
            for cell in cells:
                assert cell == "--" or 0.0 <= float(cell) <= 100.0
        return rows

    check_rows(tmp_path / "run" / "final" / "leaderboard.txt",
               {"full (this system)", "morph", "hole_random"})
    grid_rows = check_rows(tmp_path / "run" / "grid" / "leaderboard.txt", set())
    assert len(grid_rows) == 2, "one leaderboard row per grid point"
    print("criterion 8 PASS: reproduction harness emits per-system and "
          "per-configuration leaderboards")


def test_synthetic_experiment_script_runs(tmp_path):
    """The side-information ablation script that README documents runs
    end to end at toy size and prints a leaderboard row per run, for NPs
    and for relations."""
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_synthetic_experiment.py"),
         "--epochs", "2", "--dim", "8", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=checkout_env(),
    )
    assert run.returncode == 0, run.stderr
    _, np_table, rel_table = run.stdout.split(LEADERBOARD_HEADER)
    for table in (np_table, rel_table):
        labels = [row[:40].strip() for row in table.strip().splitlines()[:2]]
        assert labels == ["with_side", "no_side"]
    for label in ("with_side", "no_side"):
        assert (tmp_path / "out" / label / "metrics.json").is_file()


def test_criterion_09_hole_random_is_training_special_case(synth_kb):
    """The structure-only baseline must be the embedding trainer run with
    empty side information and the matching seed: bit-identical vector
    arrays, and the baseline clustering equal to complete-linkage over
    exactly those vectors."""
    h = HyperParams(dim=24, epochs=30, batch_size=32, seed=9)
    with Timer(120.0) as t:
        emb_baseline = train_structure_only(synth_kb, h)
        init = init_embeddings(synth_kb, None, h.dim, default_init_rng(h.seed))
        emb_trainer = train(synth_kb, EMPTY_SIDE_INFO, h, init)
        assert np.array_equal(emb_baseline.np_vectors, emb_trainer.np_vectors)
        assert np.array_equal(emb_baseline.rel_vectors, emb_trainer.rel_vectors)

        cfg = BaselineConfig(name=BaselineName.HOLE_RANDOM, threshold=0.4,
                             hyperparams=h, seed=9)
        clustering = run_baseline(cfg, synth_kb)
        ids = sorted(p.id for p in synth_kb.np_vocab)
        D = cosine_distance_matrix(
            np.stack([emb_trainer.np_vectors[i] for i in ids]), labels=ids
        )
        assert clustering.member_sets() == hac_from_distance_matrix(ids, D, 0.4)
    print(f"criterion 9 PASS: bit-identical embeddings and matching "
          f"clustering in {t.elapsed:.2f}s (< 120s)")
