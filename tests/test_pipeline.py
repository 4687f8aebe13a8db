"""Tests for config handling, the staged pipeline, and grid search."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

from kbcanon.embedding import HyperParams, default_init_rng, init_embeddings, train
from kbcanon.errors import ConfigError, StageError
from kbcanon.kb import (
    PhraseKind,
    gold_from_triples,
    load_triples,
    split_validation,
)
from kbcanon.metrics import evaluate
from kbcanon.pipeline import (
    LEADERBOARD_HEADER,
    PipelineConfig,
    Split,
    config_from_dict,
    config_hash,
    evaluate_clusters_file,
    grid_search,
    leaderboard_row,
    load_config,
    phrase_ids,
    run_pipeline,
    select_thresholds,
)
from kbcanon.side_info import EMPTY_SIDE_INFO

SMALL_HP = {
    "dim": 16,
    "epochs": 12,
    "batch_size": 32,
    "learning_rate": 0.05,
}

EXPECTED_ARTIFACTS = {
    "kb.jsonl",
    "split.json",
    "side_info.json",
    "coverage.txt",
    "embeddings.npz",
    "training_log.jsonl",
    "thresholds.json",
    "clusters_np.jsonl",
    "clusters_rel.jsonl",
    "canonical_triples.jsonl",
    "duplicates.json",
    "metrics.json",
    "metrics.txt",
    "leaderboard.txt",
    "manifest.json",
    "timings.json",
}


def base_config_doc(synth_data) -> dict:
    return {
        "triples_file": str(synth_data["triples"]),
        "gold_np_file": str(synth_data["gold_np"]),
        "gold_rel_file": str(synth_data["gold_rel"]),
        "seed": 3,
        "baselines": ["morph"],
        "side": {"ppdb_np": True, "ppdb_file": str(synth_data["side_ppdb"])},
        "hyperparams": dict(SMALL_HP),
    }


# ---------------------------------------------------------------------------
# config loading


class TestConfigLoading:
    def test_yaml_round_trip(self, synth_data, tmp_path):
        doc = base_config_doc(synth_data)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        config = load_config(path)
        assert config.triples_file == str(synth_data["triples"])
        assert config.seed == 3
        assert config.side.ppdb_np is True
        assert config.hyperparams.dim == 16
        config.validate()

    def test_relative_paths_resolve_against_config_dir(self, synth_data, tmp_path):
        (tmp_path / "triples.jsonl").write_bytes(
            synth_data["triples"].read_bytes()
        )
        doc = {"triples_file": "triples.jsonl"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        config = load_config(path)
        assert config.triples_file == str(tmp_path / "triples.jsonl")

    def test_unknown_top_level_key_rejected(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["tripples_file"] = "typo.jsonl"
        with pytest.raises(ConfigError, match="tripples_file"):
            config_from_dict(doc)

    def test_unknown_side_key_rejected(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["side"]["pbdb_np"] = True
        with pytest.raises(ConfigError, match="side"):
            config_from_dict(doc)

    def test_unknown_hyperparams_key_rejected(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["hyperparams"]["learn_rate"] = 0.1
        with pytest.raises(ConfigError, match="hyperparams"):
            config_from_dict(doc)

    def test_unknown_keys_of_mixed_types_named(self, synth_data):
        doc = base_config_doc(synth_data)
        doc.update({1: "a", "x": "b"})
        with pytest.raises(ConfigError, match=r"in config: \[1, 'x'\]"):
            config_from_dict(doc)

    def test_hyperparams_seed_not_settable(self, synth_data):
        # The master seed governs training; a nested seed would silently
        # shadow it, so it is rejected as unknown.
        doc = base_config_doc(synth_data)
        doc["hyperparams"]["seed"] = 7
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_missing_triples_file_key_rejected(self):
        with pytest.raises(ConfigError, match="triples_file"):
            config_from_dict({"seed": 1})

    def test_empty_config_file_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_as_dict_round_trip_preserves_hash(self, synth_data):
        config = config_from_dict(base_config_doc(synth_data))
        again = config_from_dict(config.as_dict())
        assert config_hash(config) == config_hash(again)

    def test_config_hash_sensitive_to_seed(self, synth_data):
        a = config_from_dict(base_config_doc(synth_data))
        doc = base_config_doc(synth_data)
        doc["seed"] = 4
        b = config_from_dict(doc)
        assert config_hash(a) != config_hash(b)

    def test_config_hash_follows_file_contents_not_paths(self, synth_data, tmp_path):
        def copied_config(name):
            doc = base_config_doc(synth_data)
            here = tmp_path / name
            here.mkdir()
            for key in ("triples", "gold_np", "gold_rel", "side_ppdb"):
                (here / synth_data[key].name).write_bytes(synth_data[key].read_bytes())
            return config_from_dict({
                **doc,
                "triples_file": str(here / "triples.jsonl"),
                "gold_np_file": str(here / "gold_np.tsv"),
                "gold_rel_file": str(here / "gold_rel.tsv"),
                "side": {**doc["side"], "ppdb_file": str(here / "side_ppdb.tsv")},
                "out_dir": str(here / "run"),
            })

        a, b = copied_config("a"), copied_config("b")
        assert a.triples_file != b.triples_file and a.out_dir != b.out_dir
        assert config_hash(a) == config_hash(b)
        triples = bytearray(Path(b.triples_file).read_bytes())
        triples[-2] ^= 1
        Path(b.triples_file).write_bytes(bytes(triples))
        assert config_hash(a) != config_hash(b)


class TestConfigValidation:
    def test_bad_format(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["format"] = "csv"
        with pytest.raises(ConfigError, match="format"):
            config_from_dict(doc).validate()

    def test_missing_triples_file_on_disk(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["triples_file"] = str(synth_data["dir"] / "nope.jsonl")
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_dict(doc).validate()

    def test_bad_validation_fraction(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["validation_fraction"] = 1.0
        with pytest.raises(ConfigError, match="validation_fraction"):
            config_from_dict(doc).validate()

    def test_threshold_out_of_range(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["np_threshold"] = 2.5
        with pytest.raises(ConfigError, match="threshold"):
            config_from_dict(doc).validate()

    def test_unknown_baseline_name(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["baselines"] = ["morph", "wat"]
        with pytest.raises(ConfigError, match="wat"):
            config_from_dict(doc).validate()

    @pytest.mark.parametrize("table, key", [("lambda_ent", "ppbd"),
                                            ("lambda_ent", "amie"),
                                            ("lambda_rel", "morph")])
    def test_lambda_key_must_name_a_source_of_its_kind(self, synth_data, table, key):
        doc = base_config_doc(synth_data)
        doc["hyperparams"][table] = {key: 2.0}
        with pytest.raises(ConfigError, match=f"{table}.*{key}"):
            config_from_dict(doc).validate()
        doc["hyperparams"] = {"lambda_ent": {"ppdb": 5.0, "morph": 1.0},
                              "lambda_rel": {"amie": 3.0}}
        config_from_dict(doc).validate()

    def test_effective_hyperparams_carry_master_seed(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["seed"] = 42
        config = config_from_dict(doc)
        assert config.effective_hyperparams().seed == 42

    def test_only_single_threaded_runs_validate(self, synth_data):
        for section, key, value in (("hyperparams", "threads", 2),
                                    ("hyperparams", "threads", 0),
                                    (None, "deterministic", False)):
            doc = base_config_doc(synth_data)
            (doc[section] if section else doc)[key] = value
            with pytest.raises(ConfigError, match=key):
                config_from_dict(doc).validate()
        doc = base_config_doc(synth_data)
        doc["hyperparams"]["threads"] = 1
        doc["deterministic"] = True
        config_from_dict(doc).validate()


class TestConfigTypes:
    """A value of the wrong type is a ConfigError naming its dotted key,
    raised while the config is built, before any field is used."""

    @staticmethod
    def rejects(synth_data, section, key, value):
        doc = base_config_doc(synth_data)
        (doc.setdefault(section, {}) if section else doc)[key] = value
        dotted = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"^config key '{dotted}' must be"):
            config_from_dict(doc)

    def test_float_field_takes_an_int_but_not_a_bool(self, synth_data):
        doc = base_config_doc(synth_data)
        doc["np_threshold"] = 1
        doc["side"]["idf_cutoff"] = 0
        config_from_dict(doc).validate()
        self.rejects(synth_data, None, "np_threshold", True)
        self.rejects(synth_data, "side", "idf_cutoff", False)
        self.rejects(synth_data, None, "np_threshold", "0.4")

    def test_int_field_rejects_a_bool_and_a_float(self, synth_data):
        self.rejects(synth_data, "hyperparams", "epochs", True)
        self.rejects(synth_data, "hyperparams", "batch_size", 32.0)
        self.rejects(synth_data, None, "seed", 1.5)
        self.rejects(synth_data, "side", "amie_support_min", 2.0)

    def test_tuple_field_needs_a_list_of_its_element_type(self, synth_data):
        self.rejects(synth_data, None, "threshold_grid", 0.4)
        self.rejects(synth_data, None, "threshold_grid", ["0.4"])
        self.rejects(synth_data, None, "threshold_grid", [0.4, True])
        self.rejects(synth_data, None, "baselines", "morph")
        self.rejects(synth_data, None, "baselines", [1])
        doc = base_config_doc(synth_data)
        doc["threshold_grid"] = [1, 0.5]
        assert config_from_dict(doc).threshold_grid == (1.0, 0.5)

    @pytest.mark.parametrize("table", ["lambda_ent", "lambda_rel"])
    def test_lambda_table_needs_a_mapping_of_str_to_number(self, synth_data, table):
        for value in ([1.0], {"ppdb": "1"}, {"ppdb": True}, {1: 2.0}, "ppdb"):
            self.rejects(synth_data, "hyperparams", table, value)
        doc = base_config_doc(synth_data)
        doc["hyperparams"][table] = {"ppdb": 2}
        config_from_dict(doc).validate()


# ---------------------------------------------------------------------------
# threshold selection


@pytest.fixture(scope="module")
def trained(synth_data):
    kb = load_triples(synth_data["triples"])
    gold = gold_from_triples(kb)
    val, test = split_validation(kb, gold, 0.2, seed=3)
    h = HyperParams(seed=3, **SMALL_HP)
    init = init_embeddings(kb, None, h.dim, default_init_rng(h.seed))
    emb = train(kb, EMPTY_SIDE_INFO, h, init)
    return Split(gold, None, val, test), emb


class TestSelectThresholds:
    def test_config_values_win(self, synth_data, trained):
        split, emb = trained
        doc = base_config_doc(synth_data)
        doc["np_threshold"] = 0.35
        doc["rel_threshold"] = 0.75
        config = config_from_dict(doc)
        np_t, rel_t, detail = select_thresholds(emb, split, config)
        assert (np_t, rel_t) == (0.35, 0.75)
        assert detail["np_source"] == "config"
        assert detail["rel_source"] == "config"

    def test_rel_falls_back_to_np_threshold(self, synth_data, trained):
        split, emb = trained
        config = config_from_dict(base_config_doc(synth_data))
        np_t, rel_t, detail = select_thresholds(emb, split, config)
        assert detail["np_source"] == "validation"
        assert detail["rel_source"] == "np_threshold"
        assert rel_t == np_t
        assert np_t in config.threshold_grid


# ---------------------------------------------------------------------------
# full pipeline


@pytest.fixture(scope="module")
def pipeline_run(synth_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = config_from_dict(base_config_doc(synth_data))
    result_dir = run_pipeline(config, out_dir=out)
    return config, result_dir


class TestRunPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        _, out = pipeline_run
        names = {p.name for p in out.iterdir() if p.is_file()}
        assert names == EXPECTED_ARTIFACTS

    def test_manifest_contents(self, pipeline_run):
        config, out = pipeline_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)
        assert manifest["seed"] == config.seed
        assert set(manifest["versions"]) == {"python", "numpy", "package"}
        # The manifest lists every artifact present when it was written;
        # timings land afterwards so re-runs stay byte-comparable.
        assert (
            set(manifest["artifacts"])
            == EXPECTED_ARTIFACTS - {"manifest.json", "timings.json"}
        )

    def test_split_respects_fraction_and_ids(self, pipeline_run, synth_data):
        _, out = pipeline_run
        split = json.loads((out / "split.json").read_text())
        val = set(split["validation_triple_ids"])
        test = set(split["test_triple_ids"])
        kb = load_triples(synth_data["triples"])
        all_ids = {t.triple_id for t in kb.triples}
        assert val | test == all_ids
        assert not (val & test)
        assert 0 < len(val) < len(all_ids)

    def test_metrics_json_shape(self, pipeline_run):
        _, out = pipeline_run
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"np", "rel"}
        assert metrics["np"] is not None
        for key in ("macro_f1", "micro_f1", "pair_f1"):
            assert key in metrics["np"]

    def test_leaderboard_format(self, pipeline_run):
        _, out = pipeline_run
        lines = (out / "leaderboard.txt").read_text().splitlines()
        assert lines[0] == LEADERBOARD_HEADER
        assert lines[1].startswith("full (this system)")
        assert lines[2].startswith("morph")
        assert len(lines) == 3

    def test_thresholds_recorded(self, pipeline_run):
        _, out = pipeline_run
        detail = json.loads((out / "thresholds.json").read_text())
        assert detail["np_source"] == "validation"
        assert detail["rel_source"] == "validation"
        assert 0.0 <= detail["np_threshold"] <= 2.0

    def test_cluster_files_parse_and_cover_vocab(self, pipeline_run, synth_data):
        _, out = pipeline_run
        kb = load_triples(synth_data["triples"])
        records = [
            json.loads(line)
            for line in (out / "clusters_np.jsonl").read_text().splitlines()
        ]
        members = [m for rec in records for m in rec["members"]]
        assert sorted(members) == sorted(p.text for p in kb.np_vocab)

    def test_canonical_triples_align_with_input(self, pipeline_run, synth_data):
        _, out = pipeline_run
        kb = load_triples(synth_data["triples"])
        rows = [
            json.loads(line)
            for line in (out / "canonical_triples.jsonl").read_text().splitlines()
        ]
        assert len(rows) == len(kb.triples)
        assert all("canonical_subject" in r for r in rows)

    def test_rerun_is_byte_identical(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        out2 = run_pipeline(config, out_dir=tmp_path / "run2")
        for name in (
            "clusters_np.jsonl",
            "clusters_rel.jsonl",
            "embeddings.npz",
            "manifest.json",
            "canonical_triples.jsonl",
        ):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_rerun_into_same_dir_keeps_manifest(self, pipeline_run, tmp_path):
        # The second run finds the first run's timings.json in the
        # directory; the manifest must not pick it up.
        config, _ = pipeline_run
        out = tmp_path / "again"
        first = (run_pipeline(config, out_dir=out) / "manifest.json").read_bytes()
        second = (run_pipeline(config, out_dir=out) / "manifest.json").read_bytes()
        assert first == second


class TestPipelineFailures:
    def test_requires_out_dir(self, synth_data):
        config = config_from_dict(base_config_doc(synth_data))
        with pytest.raises(ConfigError, match="output directory"):
            run_pipeline(config)

    def test_stage_error_names_stage_and_keeps_artifacts(
        self, synth_data, tmp_path
    ):
        # Gold labels come from a file or from triple annotations; with
        # neither, the split stage is the first to fail.
        kb = load_triples(synth_data["triples"])
        bare = tmp_path / "bare.jsonl"
        with bare.open("w") as fh:
            for t in kb.triples:
                fh.write(
                    json.dumps(
                        {
                            "triple_id": t.triple_id,
                            "subject": kb.np_phrase(t.subject).text,
                            "relation": kb.rel_phrase(t.relation).text,
                            "object": kb.np_phrase(t.object).text,
                        }
                    )
                    + "\n"
                )
        doc = base_config_doc(synth_data)
        doc["triples_file"] = str(bare)
        del doc["gold_np_file"]
        del doc["gold_rel_file"]
        config = config_from_dict(doc)
        out = tmp_path / "run"
        with pytest.raises(StageError, match="split"):
            run_pipeline(config, out_dir=out)
        assert (out / "kb.jsonl").is_file()
        assert not (out / "embeddings.npz").exists()


# ---------------------------------------------------------------------------
# grid search


class TestGridSearch:
    def test_single_point(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        best, rows = grid_search(config, {"np_threshold": [0.4]}, tmp_path)
        assert best == {"np_threshold": 0.4}
        assert len(rows) == 1
        assert rows[0]["np_threshold"] == 0.4
        assert (tmp_path / "leaderboard.txt").is_file()
        assert (tmp_path / "leaderboard.json").is_file()
        assert (tmp_path / "best_config.yaml").is_file()

    def test_product_enumeration(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        grid = {
            "np_threshold": [0.3, 0.6],
            "rel_threshold": [0.45, 0.65],
        }
        _, rows = grid_search(config, grid, tmp_path)
        assert len(rows) == 4
        combos = [
            (r["overrides"]["np_threshold"], r["overrides"]["rel_threshold"])
            for r in rows
        ]
        assert combos == [(0.3, 0.45), (0.3, 0.65), (0.6, 0.45), (0.6, 0.65)]

    def test_training_cached_across_clustering_points(
        self, synth_data, tmp_path, monkeypatch
    ):
        import kbcanon.pipeline as pipeline_module

        calls = {"train": 0}
        original = pipeline_module.train

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "train", counting_train)
        config = config_from_dict(base_config_doc(synth_data))
        grid_search(config, {"np_threshold": [0.3, 0.5, 0.7]}, tmp_path)
        assert calls["train"] == 1

    def test_tuned_np_threshold_builds_one_validation_history(
        self, synth_data, tmp_path, monkeypatch
    ):
        import kbcanon.canonicalize as canonicalize_module
        import kbcanon.pipeline as pipeline_module

        sizes = []
        original = canonicalize_module.hac_merge_history

        def counting(D):
            sizes.append(D.shape[0])
            return original(D)

        monkeypatch.setattr(canonicalize_module, "hac_merge_history", counting)
        config = config_from_dict(base_config_doc(synth_data))
        kb = load_triples(config.triples_file)
        val, _ = split_validation(
            kb, pipeline_module.load_np_gold(kb, config), config.validation_fraction,
            config.seed,
        )
        n_val_nps = len(phrase_ids(val, PhraseKind.NP))
        # A fixed relation threshold leaves only the NP threshold to tune.
        grid_search(config, {"rel_threshold": [0.45, 0.65]}, tmp_path)
        assert sizes == [n_val_nps, n_val_nps]

    def test_tie_keeps_first_point(self, synth_data, tmp_path):
        # The relation threshold does not affect the NP validation score,
        # so every point ties and the first stays the winner.
        config = config_from_dict(base_config_doc(synth_data))
        best, rows = grid_search(config, {"rel_threshold": [0.45, 0.65]}, tmp_path)
        assert rows[0]["validation_mean_f1"] == rows[1]["validation_mean_f1"]
        assert best == {"rel_threshold": 0.45}

    def test_best_config_reloadable(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        best, _ = grid_search(config, {"np_threshold": [0.4, 0.5]}, tmp_path)
        reloaded = load_config(tmp_path / "best_config.yaml")
        assert reloaded.np_threshold == best["np_threshold"]
        reloaded.validate()

    def test_empty_grid_rejected(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        with pytest.raises(ConfigError):
            grid_search(config, {}, tmp_path)
        with pytest.raises(ConfigError):
            grid_search(config, {"np_threshold": []}, tmp_path)

    def test_bad_grid_key_rejected(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        with pytest.raises(ConfigError, match="does not address"):
            grid_search(config, {"hyperparams.learn_rate": [0.1]}, tmp_path)

    @pytest.mark.parametrize("key", [
        "triples_file", "format", "gold_np_file", "gold_rel_file",
        "validation_fraction", "out_dir", "baselines", "deterministic",
    ])
    def test_key_fixed_by_base_config_rejected(self, synth_data, tmp_path, key):
        # grid_search reads these once from the base config or never, so
        # varying them would give identical rows.
        config = config_from_dict(base_config_doc(synth_data))
        out = tmp_path / "grid"
        with pytest.raises(ConfigError, match=key):
            grid_search(config, {key: [config.as_dict()[key]]}, out)
        assert not out.exists()


# ---------------------------------------------------------------------------
# file-level evaluation


class TestEvaluateClustersFile:
    def test_matches_direct_evaluation(self, tmp_path):
        clusters = [["america", "usa"], ["new york", "nyc"]]
        gold = {"america": "e1", "usa": "e1", "new york": "e2", "nyc": "e2"}
        cpath = tmp_path / "clusters.jsonl"
        with cpath.open("w") as fh:
            for members in clusters:
                fh.write(json.dumps({"members": members}) + "\n")
        gpath = tmp_path / "gold.tsv"
        with gpath.open("w") as fh:
            for text, gid in gold.items():
                fh.write(f"{text}\t{gid}\n")
        report = evaluate_clusters_file(cpath, gpath)
        direct = evaluate([frozenset(c) for c in clusters], gold)
        assert report == direct
        assert report.macro_f1 == 1.0

    def test_blank_lines_and_unlabeled_elements_ignored(self, tmp_path):
        cpath = tmp_path / "clusters.jsonl"
        cpath.write_text(
            json.dumps({"members": ["a", "b"]}) + "\n\n"
            + json.dumps({"members": ["c"]}) + "\n"
        )
        gpath = tmp_path / "gold.tsv"
        gpath.write_text("a\te1\nb\te1\n\nc\n")
        report = evaluate_clusters_file(cpath, gpath)
        # "c" has no label, so only the pure pair {a, b} is scored.
        assert report.n_elements == 2
        assert report.macro_f1 == 1.0


# ---------------------------------------------------------------------------
# leaderboard formatting


class TestLeaderboardRow:
    def test_percentages_one_decimal(self):
        clusters = [frozenset({"a", "b"}), frozenset({"c"})]
        gold = {"a": "e1", "b": "e1", "c": "e2"}
        row = leaderboard_row("perfect", evaluate(clusters, gold))
        assert "100.0" in row
        assert row.startswith("perfect")

    def test_none_report_renders_dashes(self):
        row = leaderboard_row("missing", None)
        assert "--" in row
