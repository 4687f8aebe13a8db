"""Command line interface tests.

Most commands run in-process through main(); the staged-chain test runs
each stage as a real subprocess to prove the stages communicate only
through run-directory artifacts.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
import yaml

from kbcanon.cli import main
from kbcanon.embedding import load_embeddings
from kbcanon.errors import ParseError
from kbcanon.kb import load_triples
from kbcanon.pipeline import load_config
from kbcanon.side_info import load_side_info

SMALL_HP = {"dim": 12, "epochs": 8, "batch_size": 32, "learning_rate": 0.05}


def make_dataset(tmp_path, seed=5, entities=8, triples=60):
    """Generate a synthetic dataset plus a small-hyperparameter config."""
    data = tmp_path / "data"
    rc = main(
        [
            "synth",
            "--out", str(data),
            "--entities", str(entities),
            "--aliases", "2",
            "--relations", "3",
            "--paraphrases", "1",
            "--triples", str(triples),
            "--seed", str(seed),
        ]
    )
    assert rc == 0
    doc = yaml.safe_load((data / "config.yaml").read_text())
    doc["hyperparams"] = dict(SMALL_HP)
    config_path = data / "config_small.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    return data, config_path


# ---------------------------------------------------------------------------
# synth


class TestSynthCommand:
    def test_writes_dataset_and_config(self, tmp_path, capsys):
        data, _ = make_dataset(tmp_path)
        for name in (
            "triples.jsonl",
            "gold_np.tsv",
            "gold_rel.tsv",
            "side_ppdb.tsv",
            "config.yaml",
        ):
            assert (data / name).is_file(), name
        out = capsys.readouterr().out
        assert "synthetic KB" in out

    def test_generated_config_is_valid(self, tmp_path):
        data, _ = make_dataset(tmp_path)
        config = load_config(data / "config.yaml")
        config.validate()
        assert config.triples_file == str(data / "triples.jsonl")
        assert config.out_dir == str(data / "run")
        assert config.side.ppdb_np is True

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        rc = main(
            ["synth", "--out", str(tmp_path / "x"), "--entities", "1"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline command


class TestPipelineCommand:
    def test_end_to_end(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path)
        run_dir = tmp_path / "run"
        rc = main(["pipeline", "--config", str(config_path), "--out", str(run_dir)])
        assert rc == 0
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "clusters_np.jsonl").is_file()
        out = capsys.readouterr().out
        assert "pipeline complete" in out
        assert "macro" in out

    def test_seed_override_lands_in_manifest(self, tmp_path):
        _, config_path = make_dataset(tmp_path)
        run_dir = tmp_path / "run9"
        rc = main(
            [
                "pipeline",
                "--config", str(config_path),
                "--out", str(run_dir),
                "--seed", "9",
            ]
        )
        assert rc == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_requires_config_or_triples(self, capsys):
        rc = main(["pipeline", "--out", "somewhere"])
        assert rc == 2
        assert "--config or --triples" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# staged chain as separate processes


class TestStagedChain:
    def test_stages_match_monolithic_pipeline(self, tmp_path):
        # The chain and `pipeline` write to the same path in turn, because
        # out_dir is part of the manifest's config.
        _, config_path = make_dataset(tmp_path, seed=7)
        run_dir = tmp_path / "run"

        def kbcanon(command):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "kbcanon",
                    command,
                    "--config", str(config_path),
                    "--out", str(run_dir),
                ],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, f"{command} failed: {proc.stderr}"

        for stage in ("ingest", "sideinfo", "embed", "cluster"):
            kbcanon(stage)
        staged = run_dir.rename(tmp_path / "staged")
        kbcanon("pipeline")

        def epochs_without_wall_time(path):
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
                    for line in path.read_text().splitlines()]

        names = sorted(p.name for p in staged.iterdir())
        assert names == sorted(p.name for p in run_dir.iterdir())
        for name in names:
            if name == "timings.json":
                continue
            if name == "training_log.jsonl":
                assert (epochs_without_wall_time(staged / name)
                        == epochs_without_wall_time(run_dir / name))
            else:
                assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_evaluate_stage_on_chain_output(self, tmp_path, capsys):
        data, config_path = make_dataset(tmp_path, seed=8)
        run_dir = tmp_path / "run"
        assert main(
            ["pipeline", "--config", str(config_path), "--out", str(run_dir)]
        ) == 0
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--clusters", str(run_dir / "clusters_np.jsonl"),
                "--gold", str(data / "gold_np.tsv"),
                "--out", str(tmp_path / "scores"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "macro" in out
        metrics = json.loads((tmp_path / "scores" / "metrics.json").read_text())
        assert "macro_f1" in metrics


# ---------------------------------------------------------------------------
# grid-search command


class TestGridSearchCommand:
    def test_sweep_writes_leaderboard(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=9)
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump({"np_threshold": [0.3, 0.6]}))
        out_dir = tmp_path / "sweep"
        rc = main(
            [
                "grid-search",
                "--config", str(config_path),
                "--grid", str(grid_path),
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        assert (out_dir / "leaderboard.txt").is_file()
        assert (out_dir / "best_config.yaml").is_file()
        out = capsys.readouterr().out
        assert "searched 2 configurations" in out
        assert "best overrides" in out

    def test_non_mapping_grid_exits_2(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=10)
        grid_path = tmp_path / "grid.yaml"
        grid_path.write_text(yaml.safe_dump([0.3, 0.6]))
        rc = main(
            [
                "grid-search",
                "--config", str(config_path),
                "--grid", str(grid_path),
                "--out", str(tmp_path / "sweep"),
            ]
        )
        assert rc == 2
        assert "grid file must map" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stage guidance and error exits


class TestErrorHandling:
    def test_embed_before_sideinfo_guides_user(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=11)
        rc = main(
            [
                "embed",
                "--config", str(config_path),
                "--out", str(tmp_path / "fresh"),
            ]
        )
        assert rc == 2
        assert "run sideinfo first" in capsys.readouterr().err

    def test_cluster_before_embed_guides_user(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=12)
        run_dir = tmp_path / "fresh"
        assert main(
            ["ingest", "--config", str(config_path), "--out", str(run_dir)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["cluster", "--config", str(config_path), "--out", str(run_dir)]
        )
        assert rc == 2
        assert "run embed first" in capsys.readouterr().err

    def test_nonexistent_triples_file_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "ingest",
                "--triples", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_truncated_embeddings_exit_2_naming_the_file(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=15)
        run_dir = tmp_path / "run"
        for stage in ("ingest", "sideinfo", "embed"):
            assert main([stage, "--config", str(config_path), "--out", str(run_dir)]) == 0
        emb_file = run_dir / "embeddings.npz"
        data = emb_file.read_bytes()
        emb_file.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError, match="embeddings.npz"):
            load_embeddings(emb_file, load_triples(run_dir / "kb.jsonl"))
        capsys.readouterr()
        rc = main(["cluster", "--config", str(config_path), "--out", str(run_dir)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {emb_file}")

    def test_side_info_without_rel_sources_exits_2_naming_the_file(self, tmp_path, capsys):
        _, config_path = make_dataset(tmp_path, seed=16)
        run_dir = tmp_path / "run"
        for stage in ("ingest", "sideinfo"):
            assert main([stage, "--config", str(config_path), "--out", str(run_dir)]) == 0
        side_file = run_dir / "side_info.json"
        side_file.write_text('{"np_sources": []}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="side_info.json"):
            load_side_info(side_file, load_triples(run_dir / "kb.jsonl"))
        capsys.readouterr()
        rc = main(["embed", "--config", str(config_path), "--out", str(run_dir)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {side_file}")

    def test_side_info_of_another_kb_exits_2_naming_the_file(self, tmp_path, capsys):
        # side_info.json of a 90-NP KB, then a 30-NP KB ingested over it:
        # its pairs index phrases the new KB does not have
        _, big_config = make_dataset(tmp_path / "big", seed=17, entities=45, triples=200)
        _, small_config = make_dataset(tmp_path / "small", seed=17, entities=15)
        run_dir = tmp_path / "run"
        for stage in ("ingest", "sideinfo"):
            assert main([stage, "--config", str(big_config), "--out", str(run_dir)]) == 0
        assert main(["ingest", "--config", str(small_config), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        rc = main(["embed", "--config", str(small_config), "--out", str(run_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'side_info.json'}")
        assert "different vocabulary" in err

    @pytest.mark.parametrize("pair", [[0, 1000000], [-1, 0], [1.7, 4], [True, 0]])
    def test_side_info_pair_id_outside_the_kb_exits_2_naming_the_file(
        self, tmp_path, capsys, pair
    ):
        _, config_path = make_dataset(tmp_path, seed=18)
        run_dir = tmp_path / "run"
        for stage in ("ingest", "sideinfo"):
            assert main([stage, "--config", str(config_path), "--out", str(run_dir)]) == 0
        side_file = run_dir / "side_info.json"
        payload = json.loads(side_file.read_text(encoding="utf-8"))
        payload["np_sources"][0]["pairs"] = [pair]
        side_file.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        rc = main(["embed", "--config", str(config_path), "--out", str(run_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side_file}")
        assert "phrase ids" in err
        assert not (run_dir / "embeddings.npz").exists()

    def test_validation_fraction_keeps_one_entity_for_test(self, tmp_path):
        # round(0.9 * 4) = 4 would sample every entity and leave no test
        # triple to score
        _, config_path = make_dataset(tmp_path, seed=1, entities=4, triples=40)
        doc = yaml.safe_load(config_path.read_text())
        doc["validation_fraction"] = 0.9
        config_path.write_text(yaml.safe_dump(doc))
        run_dir = tmp_path / "run"
        assert main(["pipeline", "--config", str(config_path), "--out", str(run_dir)]) == 0
        assert json.loads((run_dir / "split.json").read_text())["test_triple_ids"]
        assert json.loads((run_dir / "metrics.json").read_text())["np"] is not None

    def test_one_labelled_subject_entity_exits_2(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        rows = [("Obama", "E1", "Hawaii", "E2"), ("Barack Obama", "E1", "US", "E3")]
        triples.write_text("".join(
            json.dumps({"subject": s, "relation": "visited", "object": o,
                        "gold_sub_id": gs, "gold_obj_id": go}) + "\n"
            for s, gs, o, go in rows), encoding="utf-8")
        rc = main(["pipeline", "--triples", str(triples), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'split' failed" in err
        assert "found 1" in err

    @pytest.mark.parametrize("section, key, value", [
        ("hyperparams", "epochs", "3"),
        (None, "np_threshold", "0.4"),
        (None, "threshold_grid", 0.4),
        (None, "baselines", "morph"),
    ])
    def test_config_value_of_the_wrong_type_exits_2_naming_its_key(
            self, tmp_path, capsys, section, key, value):
        _, config_path = make_dataset(tmp_path, seed=17)
        doc = yaml.safe_load(config_path.read_text())
        (doc[section] if section else doc)[key] = value
        config_path.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        rc = main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        dotted = f"{section}.{key}" if section else key
        assert capsys.readouterr().err.startswith(f"error: config key '{dotted}' must be")
        assert not (tmp_path / "run").exists()

    def test_evaluate_missing_file_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--clusters", str(tmp_path / "none.jsonl"),
                "--gold", str(tmp_path / "none.tsv"),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingest command details


class TestIngestCommand:
    def test_minimal_invocation_with_triples_flag(self, tmp_path, capsys):
        data, _ = make_dataset(tmp_path, seed=13)
        run_dir = tmp_path / "run"
        rc = main(
            [
                "ingest",
                "--triples", str(data / "triples.jsonl"),
                "--out", str(run_dir),
            ]
        )
        assert rc == 0
        assert (run_dir / "kb.jsonl").is_file()
        assert "ingested" in capsys.readouterr().out

    def test_later_stages_prefer_snapshot(self, tmp_path):
        # After ingest, sideinfo must read the snapshot, not the source:
        # deleting the source file does not break the chain.
        data, config_path = make_dataset(tmp_path, seed=14)
        run_dir = tmp_path / "run"
        assert main(
            ["ingest", "--config", str(config_path), "--out", str(run_dir)]
        ) == 0
        (data / "triples.jsonl").rename(data / "triples.bak")
        try:
            rc = main(
                ["sideinfo", "--config", str(config_path), "--out", str(run_dir)]
            )
        finally:
            (data / "triples.bak").rename(data / "triples.jsonl")
        assert rc == 0
        assert (run_dir / "side_info.json").is_file()
