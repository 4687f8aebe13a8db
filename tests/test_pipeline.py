"""Tests for config handling, the staged pipeline, and grid search."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import kbcanon
import kbcanon.baselines
import kbcanon.canonicalize
import kbcanon.embedding
import kbcanon.kb
import kbcanon.metrics
import kbcanon.pipeline
import kbcanon.side_info
from kbcanon.baselines import train_structure_only
from kbcanon.canonicalize import (
    choose_threshold,
    cluster_phrases,
    cosine_distance_matrix,
    cut_history,
    hac_from_distance_matrix,
    hac_merge_history,
    tune_threshold,
)
from kbcanon.embedding import (
    EmbeddingSet,
    HyperParams,
    average_word_vectors,
    default_init_rng,
    init_embeddings,
    load_word_vectors,
    save_embeddings,
    train,
)
from kbcanon.errors import ConfigError, MetricsUndefinedError, StageError
from kbcanon.kb import (
    PhraseKind,
    load_triples,
    save_triples,
    split_validation,
    write_jsonl,
)
from kbcanon.metrics import evaluate
from kbcanon.pipeline import (
    LEADERBOARD_HEADER,
    PipelineConfig,
    baselines_stage,
    config_from_dict,
    config_hash,
    evaluate_clusters_file,
    grid_search,
    leaderboard_row,
    leaderboard_text,
    load_config,
    make_split,
    phrase_ids,
    run_pipeline,
    select_thresholds,
    sideinfo_stage,
)
from kbcanon.side_info import EMPTY_SIDE_INFO, SideInfoConfig, save_side_info
from kbcanon.synth import make_synthetic_kb

from .conftest import write_kb_vectors
from .reference import (
    reference_distance_matrix,
    reference_evaluate,
    reference_jaro_winkler,
    reference_overlap_matrix,
    report_bits,
)

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

    def test_float_without_a_dot_is_refused_with_a_hint(self, synth_data, tmp_path):
        # YAML 1.1, as PyYAML reads it, has no float without a dot
        doc = base_config_doc(synth_data)
        del doc["hyperparams"]
        base = yaml.safe_dump(doc)
        path = tmp_path / "config.yaml"
        path.write_text(base + "hyperparams: {learning_rate: 1e-3}\n")
        with pytest.raises(ConfigError, match=r"^config key 'hyperparams.learning_rate' "
                           r"must be float, got '1e-3'; .* as in 1\.0e-3$"):
            load_config(path)
        path.write_text(base + "threshold_grid: [5e-2, 0.5]\n")
        with pytest.raises(ConfigError, match=r"got \['5e-2', 0.5\]; .* 1\.0e-3$"):
            load_config(path)
        path.write_text(base + "hyperparams: {learning_rate: 1.0e-3}\n")
        assert load_config(path).hyperparams.learning_rate == 0.001
        # no hint for a string that is no float, nor for an int field
        for line in ("hyperparams: {learning_rate: fast}", "hyperparams: {epochs: 1e3}"):
            path.write_text(base + line + "\n")
            with pytest.raises(ConfigError, match="^config key 'hyperparams[.]") as e:
                load_config(path)
            assert "YAML" not in str(e.value)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("section, key", [
        ("hyperparams", "learning_rate"),
        ("hyperparams", "margin"),
        ("hyperparams", "lambda_str"),
        ("hyperparams", "lambda_reg"),
        ("hyperparams", "lambda_side_default"),
        ("hyperparams", "lambda_ent.ppdb"),
        ("hyperparams", "lambda_rel.amie"),
        ("side", "ppdb_confidence_min"),
    ])
    def test_non_finite_float_names_its_key(self, synth_data, section, key, value):
        doc = base_config_doc(synth_data)
        table, _, source = key.partition(".")
        doc[section][table] = {source: value} if source else value
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be a finite number"):
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
    # NP gold from the triples, no relation gold, a fifth of the subject
    # entities for validation
    split = make_split(kb, config_from_dict({"triples_file": str(synth_data["triples"]),
                                             "seed": 3}))
    h = HyperParams(seed=3, **SMALL_HP)
    init = init_embeddings(kb, None, h.dim, default_init_rng(h.seed))
    emb = train(kb, EMPTY_SIDE_INFO, h, init)
    return split, emb


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

    def test_tuned_scores_recorded_at_every_grid_value(self, synth_data, trained):
        split, emb = trained
        doc = base_config_doc(synth_data)
        doc["threshold_grid"] = [0.6, 0.1, 0.35, 0.05, 1.2]
        config = config_from_dict(doc)
        np_t, _, detail = select_thresholds(emb, split, config)
        ids = sorted(phrase_ids(split.validation, PhraseKind.NP))
        gold = split.validation_gold[PhraseKind.NP].assignment
        history = hac_merge_history(cosine_distance_matrix(emb.np_vectors[ids]))
        expected = []
        for t in config.threshold_grid:
            try:
                expected.append(evaluate(cut_history(ids, history, t), gold).mean_f1())
            except MetricsUndefinedError:
                expected.append(0.0)
        assert detail["np_scores"] == expected
        assert detail["np_scores"][config.threshold_grid.index(np_t)] == max(expected)
        # the relation threshold falls back to the NP one: no scores
        assert detail["rel_scores"] is None

    def test_fixed_thresholds_have_no_scores(self, synth_data, trained):
        split, emb = trained
        doc = base_config_doc(synth_data)
        doc["np_threshold"] = doc["rel_threshold"] = 0.35
        _, _, detail = select_thresholds(emb, split, config_from_dict(doc))
        assert detail["np_scores"] is None and detail["rel_scores"] is None


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

    def test_tuned_thresholds_record_the_validation_curve(self, pipeline_run):
        _, out = pipeline_run
        detail = json.loads((out / "thresholds.json").read_text())
        for key in ("np", "rel"):
            scores = detail[f"{key}_scores"]
            assert len(scores) == len(detail["grid"])
            assert scores[detail["grid"].index(detail[f"{key}_threshold"])] == max(scores)

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

    def test_manifest_names_the_package_version(self, pipeline_run):
        _, out = pipeline_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["package"] == kbcanon.__version__

    def test_rerun_into_same_dir_keeps_manifest(self, pipeline_run, tmp_path):
        # The second run finds the first run's timings.json in the
        # directory; the manifest must not pick it up.
        config, _ = pipeline_run
        out = tmp_path / "again"
        first = (run_pipeline(config, out_dir=out) / "manifest.json").read_bytes()
        second = (run_pipeline(config, out_dir=out) / "manifest.json").read_bytes()
        assert first == second


def spy(monkeypatch, module, name: str) -> list:
    """The argument tuples of every call to ``module.name``, through every
    kbcanon module that binds it."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kbcanon") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


class TestScoringWork:
    def test_one_evaluate_per_scored_clustering_and_one_cut_per_clustering(
        self, synth_data, tmp_path, monkeypatch
    ):
        # Tuning scores every grid value from one replay of the history, so
        # only the test-split reports (the system's NP and REL clusterings
        # and one per baseline) call evaluate. The only merge histories are
        # the tuning ones, over the validation phrases; each clustering is
        # one cut of its components' merges.
        evaluations = spy(monkeypatch, kbcanon.metrics, "evaluate")
        cuts = spy(monkeypatch, kbcanon.canonicalize, "cut_history")
        histories = spy(monkeypatch, kbcanon.canonicalize, "hac_merge_history")
        doc = base_config_doc(synth_data)
        doc["baselines"] = ["strsim_hac", "idf_hac"]
        config = config_from_dict(doc)
        out = run_pipeline(config, out_dir=tmp_path)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["np"] is not None and metrics["rel"] is not None
        assert len(evaluations) == 4
        assert len(cuts) == 4
        split = make_split(load_triples(synth_data["triples"]), config)
        n_np, n_rel = (len(split.validation_ids[k]) for k in (PhraseKind.NP, PhraseKind.REL))
        assert sorted(args[0].shape[0] for args in histories) == sorted([n_np] * 3 + [n_rel])


class TestOneTuningProtocol:
    """Every tuned HAC baseline picks its threshold as the system does: the
    one tuner on the distances of the validation phrases that `Split`
    carries, labelled or not; it then cuts the whole vocabulary there."""

    MATRIX_BASELINES = ("idf_hac", "strsim_hac", "attr_hac")
    OVERLAP_BASELINES = ("idf_hac", "attr_hac")
    VECTOR_BASELINES = ("wordvec_avg", "hole_random")

    def run_dataset(self, data: Path, seed: int, monkeypatch):
        """(config, kb, split, {baseline: (clustering, D or None)}) of
        `baselines_stage` on a synthetic KB whose NP gold leaves every
        third alias unlabelled; D is the reference all-pairs matrix of the
        distances a matrix baseline cuts, which builds none."""
        synth = make_synthetic_kb(n_entities=8, aliases_per_entity=3, n_relations=3,
                                  paraphrases_per_relation=2, n_triples=60, noise=0.2,
                                  seed=seed)
        data.mkdir()
        synth.write_triples(data / "triples.jsonl")
        (data / "gold_np.tsv").write_text("".join(
            f"{text}\t{g}\n" for k, (text, g) in enumerate(sorted(synth.np_gold.items()))
            if k % 3))
        kb = load_triples(data / "triples.jsonl")
        config = config_from_dict({
            "triples_file": "triples.jsonl", "gold_np_file": "gold_np.tsv",
            "vectors_file": str(write_kb_vectors(data / "vectors.txt", kb, SMALL_HP["dim"])),
            "seed": seed, "validation_fraction": 0.5,
            "baselines": list(self.MATRIX_BASELINES + self.VECTOR_BASELINES),
            "hyperparams": dict(SMALL_HP, epochs=2),
        }, base_dir=data)
        split = make_split(kb, config)
        runs = {}
        run_baseline = kbcanon.baselines.run_baseline

        def recording_run(cfg, kb, **kwargs):
            clustering = run_baseline(cfg, kb, **kwargs)
            if cfg.name.value in self.OVERLAP_BASELINES:
                D = reference_overlap_matrix(cfg.name.value, kb)
            elif cfg.name.value == "strsim_hac":
                D = reference_distance_matrix([p.text for p in kb.np_vocab],
                                              reference_jaro_winkler)
            else:
                D = None
            runs[cfg.name.value] = clustering, D
            return clustering

        with monkeypatch.context() as m:
            m.setattr(kbcanon.pipeline, "run_baseline", recording_run)
            baselines_stage(config, data, kb, split, None)
        return config, kb, split, runs

    def test_baselines_tune_on_the_validation_phrases_of_the_split(self, tmp_path,
                                                                   monkeypatch):
        # Tuning only on the gold's labelled ids would pick another
        # threshold in some of these cases; count them, so that the test
        # shows it tells the two apart.
        differs = 0
        for seed in range(4):
            config, kb, split, runs = self.run_dataset(tmp_path / str(seed), seed, monkeypatch)
            val = split.validation_ids[PhraseKind.NP]
            gold = split.validation_gold[PhraseKind.NP]
            grid = config.threshold_grid
            labelled = sorted(gold.assignment)
            assert val == sorted(phrase_ids(split.validation, PhraseKind.NP))
            assert set(val) > set(labelled)
            for name in self.MATRIX_BASELINES:
                clustering, D = runs[name]
                t = clustering.threshold_used
                assert t == tune_threshold(val, D[np.ix_(val, val)], gold, grid)[0]
                assert (set(clustering.member_sets())
                        == set(hac_from_distance_matrix(range(kb.n_nps), D, t)))
                differs += t != tune_threshold(labelled, D[np.ix_(labelled, labelled)],
                                               gold, grid)[0]
            table = load_word_vectors(config.vectors_file, kb)
            vectors = {
                "wordvec_avg": average_word_vectors(kb, *table, default_init_rng(seed)),
                "hole_random": train_structure_only(kb, config.effective_hyperparams()),
            }
            for name in self.VECTOR_BASELINES:
                clustering, _ = runs[name]
                V = vectors[name].np_vectors
                t = clustering.threshold_used
                assert t == choose_threshold(val, V[val], gold, grid)[0]
                assert clustering.member_sets() == cluster_phrases(
                    kb, PhraseKind.NP, V, t).member_sets()
                differs += t != choose_threshold(labelled, V[labelled], gold, grid)[0]
        assert differs > 0


def vectors_config_doc(synth_data, tmp_path, baselines=("wordvec_avg", "hole_pretrained")):
    """The base config with a vectors file (half the KB's tokens, plus
    tokens no phrase holds) and the given baselines."""
    doc = base_config_doc(synth_data)
    kb = load_triples(synth_data["triples"])
    doc["vectors_file"] = str(write_kb_vectors(tmp_path / "vectors.txt", kb, SMALL_HP["dim"]))
    doc["baselines"] = list(baselines)
    return doc


class TestWordVectorTable:
    def test_pipeline_parses_the_vectors_file_once(self, synth_data, tmp_path, monkeypatch):
        # init, wordvec_avg and hole_pretrained share the embed stage's table
        loads = spy(monkeypatch, kbcanon.embedding, "load_word_vectors")
        doc = vectors_config_doc(synth_data, tmp_path)
        out = run_pipeline(config_from_dict(doc), out_dir=tmp_path / "run")
        assert len(loads) == 1
        board = (out / "leaderboard.txt").read_text()
        assert "wordvec_avg" in board and "hole_pretrained" in board

    def test_keeping_only_the_kbs_rows_changes_no_artifact(
        self, synth_data, tmp_path, monkeypatch
    ):
        doc = vectors_config_doc(synth_data, tmp_path)
        kept = run_pipeline(config_from_dict(doc), out_dir=tmp_path / "kept")
        original = kbcanon.embedding.load_word_vectors
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("kbcanon") and getattr(mod, "load_word_vectors",
                                                          None) is original:
                monkeypatch.setattr(mod, "load_word_vectors",
                                    lambda path, kb=None: original(path))
        full = run_pipeline(config_from_dict(doc), out_dir=tmp_path / "full")

        def epochs_without_wall_time(path):
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
                    for line in path.read_text().splitlines()]

        names = sorted(p.name for p in kept.iterdir())
        assert names == sorted(p.name for p in full.iterdir())
        for name in names:
            if name == "training_log.jsonl":
                assert (epochs_without_wall_time(kept / name)
                        == epochs_without_wall_time(full / name))
            elif name != "timings.json":
                assert (kept / name).read_bytes() == (full / name).read_bytes(), name


class TestAtomicArtifacts:
    """A writer that fails midway leaves the previous file as it was and
    no temporary file beside it."""

    @staticmethod
    def rewrite_fails(path: Path, write, error) -> None:
        before = path.read_bytes()
        with pytest.raises(error):
            write()
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_kb_jsonl(self, toy_kb, tmp_path, monkeypatch):
        path = tmp_path / "kb.jsonl"
        save_triples(toy_kb, path)
        record = kbcanon.kb.triple_record

        def third_fails(kb, t):
            if t is kb.triples[2]:
                raise OSError("disk full")
            return record(kb, t)

        monkeypatch.setattr(kbcanon.kb, "triple_record", third_fails)
        self.rewrite_fails(path, lambda: save_triples(toy_kb, path), OSError)

    def test_side_info_json(self, synth_kb, tmp_path, monkeypatch):
        path = tmp_path / "side_info.json"
        side = kbcanon.side_info.assemble_side_info(synth_kb,
                                                     kbcanon.side_info.SideInfoConfig())
        save_side_info(side, path, synth_kb)
        # json.dump writes the pair lists before it reaches the hash
        monkeypatch.setattr(kbcanon.side_info, "vocab_hash", lambda kb: object())
        self.rewrite_fails(path, lambda: save_side_info(side, path, synth_kb), TypeError)

    def test_embeddings_npz(self, toy_kb, tmp_path):
        class Unreadable:
            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        path = tmp_path / "embeddings.npz"
        emb = EmbeddingSet(np.ones((toy_kb.n_nps, 2)), np.ones((toy_kb.n_rels, 2)), 2)
        save_embeddings(emb, path, 0, toy_kb)
        # np_vectors is in the archive by the time rel_vectors is read
        object.__setattr__(emb, "rel_vectors", Unreadable())
        self.rewrite_fails(path, lambda: save_embeddings(emb, path, 0, toy_kb), OSError)

    def test_jsonl_records_that_fail_partway(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"row": 0}])

        def records():
            yield {"row": 1}
            raise OSError("disk full")

        self.rewrite_fails(path, lambda: write_jsonl(path, records()), OSError)


def test_coverage_with_every_provider_off_is_one_newline(toy_kb, tmp_path):
    # a report file ends in a newline even with no lines; a row file
    # (JSON lines, TSV) with no rows is empty
    off = SideInfoConfig(morph=False, idf_overlap=False, entity_linking=False, amie=False)
    sideinfo_stage(PipelineConfig(triples_file="unused", side=off), tmp_path, toy_kb)
    assert (tmp_path / "coverage.txt").read_bytes() == b"\n"


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

        def counting(D, upto=float("inf")):
            sizes.append(D.shape[0])
            return original(D, upto)

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

    def test_fixed_np_thresholds_score_one_history_each(
        self, synth_data, tmp_path, monkeypatch
    ):
        """Each np_threshold point is tuned over its one-value grid: one
        validation NP history per point, no `evaluate` or `cut_history`
        call, and rows equal to the reference report of the cut."""
        sizes, trained = [], []
        history_of, train_of = kbcanon.canonicalize.hac_merge_history, kbcanon.pipeline.train

        def counting(D, upto=float("inf")):
            sizes.append(D.shape[0])
            return history_of(D, upto)

        def keeping(*args):
            trained.append(train_of(*args))
            return trained[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("grid search cut or evaluated outside the replay")

        monkeypatch.setattr(kbcanon.canonicalize, "hac_merge_history", counting)
        monkeypatch.setattr(kbcanon.pipeline, "train", keeping)
        for name, mod in list(sys.modules.items()):
            for fn in ("evaluate", "cut_history"):
                if name.startswith("kbcanon") and hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, refuse)
        doc = base_config_doc(synth_data)
        doc["rel_threshold"] = 0.5  # only the NP threshold reads a history
        config = config_from_dict(doc)
        grid = [0.3, 0.5, 0.7]
        _, rows = grid_search(config, {"np_threshold": grid}, tmp_path)
        monkeypatch.undo()

        split = make_split(load_triples(config.triples_file), config)
        ids = split.validation_ids[PhraseKind.NP]
        gold = split.validation_gold[PhraseKind.NP].assignment
        assert sizes == [len(ids)] * len(grid) and len(trained) == 1
        history = hac_merge_history(cosine_distance_matrix(trained[0].np_vectors[ids]))
        for t, row in zip(grid, rows):
            want = reference_evaluate(cut_history(ids, history, t), gold)
            assert (row["np_threshold"], row["rel_threshold"]) == (t, 0.5)
            assert row["validation_mean_f1"].hex() == want.mean_f1().hex()
            got = {k: None if row[k] is None else row[k].hex()
                   for k in ("macro_f1", "micro_f1", "pair_f1")}
            assert got == {k: report_bits(want)[k] for k in got}

    def test_vectors_file_parsed_once_for_every_trained_point(
        self, synth_data, tmp_path, monkeypatch
    ):
        loads = spy(monkeypatch, kbcanon.embedding, "load_word_vectors")
        config = config_from_dict(vectors_config_doc(synth_data, tmp_path, baselines=()))
        _, rows = grid_search(config, {"hyperparams.epochs": [1, 2]}, tmp_path / "grid")
        assert len(rows) == 2
        assert len(loads) == 1

    def test_grid_over_vectors_files_parses_each_once(
        self, synth_data, tmp_path, monkeypatch
    ):
        loads = spy(monkeypatch, kbcanon.embedding, "load_word_vectors")
        config = config_from_dict(vectors_config_doc(synth_data, tmp_path, baselines=()))
        other = tmp_path / "other.txt"
        other.write_text(Path(config.vectors_file).read_text())
        grid = {"vectors_file": [config.vectors_file, str(other)],
                "np_threshold": [0.3, 0.5]}
        _, rows = grid_search(config, grid, tmp_path / "grid")
        assert len(rows) == 4
        assert sorted(str(args[0]) for args in loads) == sorted([config.vectors_file,
                                                                 str(other)])

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


LONG_LABEL = "hyperparams.dim=12,hyperparams.learning_rate=0.05"


class TestLeaderboardText:
    REPORT = evaluate([frozenset({"a", "b"}), frozenset({"c"})],
                      {"a": "e1", "b": "e1", "c": "e2"})

    def test_labels_up_to_40_keep_the_40_wide_table(self):
        rows = [("full (this system)", self.REPORT), ("x" * 40, None)]
        assert leaderboard_text(rows) == "\n".join(
            [LEADERBOARD_HEADER] + [leaderboard_row(label, r) for label, r in rows]) + "\n"

    def test_long_label_widens_the_label_column_of_every_row(self):
        lines = leaderboard_text([("full (this system)", self.REPORT),
                                  (LONG_LABEL, self.REPORT), ("missing", None)]).splitlines()
        assert len(LONG_LABEL) == 49
        assert [line[:49].rstrip() for line in lines] == [
            "system", "full (this system)", LONG_LABEL, "missing"]
        assert lines[0][49:] == LEADERBOARD_HEADER[40:]
        assert lines[1][49:] == leaderboard_row("", self.REPORT)[40:]
        assert {len(line) for line in lines} == {len(LEADERBOARD_HEADER) + 9}

    def test_grid_search_leaderboard_keeps_its_columns(self, synth_data, tmp_path):
        config = config_from_dict(base_config_doc(synth_data))
        grid_search(config, {"hyperparams.dim": [12], "hyperparams.learning_rate": [0.05]},
                    tmp_path)
        header, row = (tmp_path / "leaderboard.txt").read_text().splitlines()
        assert row.startswith(LONG_LABEL + " ")
        assert header == f"{'system':<49}" + LEADERBOARD_HEADER[40:]
        assert len(row) == len(header)


def test_package_version_is_pyproject_version():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.+)"$', pyproject, re.M).group(1) == kbcanon.__version__
