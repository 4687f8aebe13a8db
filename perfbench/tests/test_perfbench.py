"""The benchmark's own tests: pinned names, span arithmetic, and a tiny run
of every workload's code path through the real worker and output check.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import kbcanon
import pytest

import check
import layers
import run
import workloads
from spans import Span, Tracer, self_times, summarize

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(w: workloads.Workload) -> workloads.Workload:
    """The same config shape as ``w`` at a size that runs in about a
    second."""
    kb = dict(w.kb, n_entities=24, n_relations=6,
              n_triples=max(120, w.kb["n_triples"] // 100))
    hp = dict(w.config["hyperparams"], dim=min(16, w.config["hyperparams"]["dim"]),
              epochs=1)
    return dataclasses.replace(w, kb=kb, config=dict(w.config, hyperparams=hp),
                               distractor_vectors=200 if w.distractor_vectors else None)


def test_workload_names_are_pinned():
    assert workloads.NAMES == ("dense_triples", "sparse_vocab", "leaderboard")
    assert tuple(workloads.WORKLOADS) == workloads.NAMES
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_end_to_end_metric_names_are_pinned():
    assert run.END_TO_END == {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                              "np_mean_f1": "ratio", "rel_mean_f1": "ratio"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert better == {"pipeline_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower",
                      "np_mean_f1": "higher", "rel_mean_f1": "higher"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


PER_LAYER = [
    "embedding.train_s", "embedding.epoch_s", "embedding.batches",
    "embedding.make_batch_s", "embedding.step_s",
    "embedding.negatives_skipped_fraction", "embedding.touched_row_fraction",
    "embedding.init_s", "embedding.vector_rows",
    "embedding.vector_rows_useful_fraction", "embedding.save_s",
    "canonicalize.distance_matrix_s", "canonicalize.merge_history_s",
    "canonicalize.merge_history_calls", "canonicalize.merge_history_max_n",
    "canonicalize.threshold_hac_s", "canonicalize.cut_history_s",
    "canonicalize.choose_threshold_s", "canonicalize.cluster_phrases_s",
    "canonicalize.representatives_s", "canonicalize.rewrite_s", "canonicalize.save_s",
    "canonicalize.tied_merge_fraction", "canonicalize.np_clusters",
    "canonicalize.np_singleton_fraction", "canonicalize.duplicate_groups",
    "side_info.assemble_s", "side_info.idf_overlap_s", "side_info.morph_s",
    "side_info.entity_linking_s", "side_info.amie_s", "side_info.save_s",
    "side_info.pairs.idf_overlap", "side_info.pairs.morph",
    "side_info.pairs.entity_linking", "side_info.pairs.amie", "side_info.pairs.ppdb",
    "side_info.idf_candidate_bound", "side_info.idf_yield", "baselines.runs",
    "kb.load_triples_s", "kb.audit_s", "kb.split_validation_s", "kb.save_triples_s",
    "kb.triples", "kb.nps", "kb.rels", "metrics.evaluate_s", "metrics.evaluate_calls",
    "pipeline.stage.ingest_s", "pipeline.stage.split_s", "pipeline.stage.sideinfo_s",
    "pipeline.stage.embed_s", "pipeline.stage.thresholds_s", "pipeline.stage.cluster_s",
    "pipeline.stage.canonicalize_s", "pipeline.stage.evaluate_s",
    "pipeline.stage.baselines_s", "pipeline.unattributed_s", "trace_overhead_s",
]


def test_per_layer_metric_names_are_pinned():
    assert list(layers.DECLARED) == PER_LAYER
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER
    for m in SPEC["per_layer"]:
        assert m["unit"] == layers.DECLARED[m["name"]]
        assert m["unit"] == "s" or not m["name"].endswith("_s")
        assert m["better"] == ("higher" if m["name"] in layers.HIGHER_IS_BETTER
                               else "lower")
    assert "baselines.run_s" in layers.UNDECLARED
    assert not set(layers.DECLARED) & set(layers.UNDECLARED)


def test_self_time_on_a_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has children
    # c [1.5, 2.5] and d [2, 3] that overlap; b has child e [8, 12] that
    # runs past b's end.
    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 9.0},
        {"id": 3, "name": "c", "parent": 1, "start": 1.5, "end": 2.5},
        {"id": 4, "name": "d", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 5, "name": "e", "parent": 2, "start": 8.0, "end": 12.0},
    ]
    assert self_times(spans) == pytest.approx(
        {0: 10.0 - 3.0 - 4.0, 1: 3.0 - 1.5, 2: 4.0 - 1.0, 3: 1.0, 4: 1.0, 5: 4.0})


def test_summary_does_not_count_recursion_twice():
    spans = [
        {"id": 0, "name": "f", "parent": None, "start": 0.0, "end": 4.0},
        {"id": 1, "name": "f", "parent": 0, "start": 1.0, "end": 2.0},
        {"id": 2, "name": "g", "parent": 1, "start": 1.2, "end": 1.7},
    ]
    summary = summarize(spans)
    assert summary["f"]["calls"] == 2
    assert summary["f"]["total_s"] == pytest.approx(4.0)
    assert summary["f"]["self_s"] == pytest.approx(3.0 + 0.5)
    assert summary["g"] == pytest.approx({"calls": 1, "total_s": 0.5, "self_s": 0.5})


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner() + 1)
    assert outer() == 8
    assert [(s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
        ("outer", None, 0.0, 3.0), ("inner", 0, 1.0, 2.0)]
    assert isinstance(tracer.spans[0], Span)


def test_install_rebinds_every_binding_and_uninstall_restores():
    import kbcanon.baselines
    import kbcanon.canonicalize
    import kbcanon.pipeline

    original = kbcanon.canonicalize.hac_merge_history
    tracer = Tracer()
    undo = tracer.install()
    try:
        assert kbcanon.canonicalize.hac_merge_history is not original
        assert kbcanon.baselines.hac_merge_history is kbcanon.canonicalize.hac_merge_history
        assert kbcanon.pipeline.train is kbcanon.baselines.train
    finally:
        tracer.uninstall(undo)
    assert kbcanon.canonicalize.hac_merge_history is original
    assert kbcanon.baselines.hac_merge_history is original


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile([1.0] * 10) is None
    p, value = run.high_percentile([float(i) for i in range(1, 21)])
    assert p == pytest.approx(50.0)
    assert value == 10.0


def test_end_to_end_takes_medians_and_averages_quality_over_inputs():
    class FakeBench:
        inputs = [{"expected": {"np_mean_f1": 0.5, "rel_mean_f1": 0.25}},
                  {"expected": {"np_mean_f1": 0.7, "rel_mean_f1": 0.75}}]

    samples = [{"pipeline_s": p, "setup_s": p / 10, "peak_rss_mb": p * 20}
               for p in (2.0, 3.0, 9.0)]
    assert run.end_to_end(FakeBench(), samples) == pytest.approx({
        "pipeline_s": 3.0, "setup_s": 0.3, "peak_rss_mb": 60.0,
        "np_mean_f1": 0.6, "rel_mean_f1": 0.5})


def test_inputs_are_byte_identical_per_seed(tmp_path):
    w = tiny(workloads.WORKLOADS["leaderboard"])
    a = workloads.write_inputs(w, 5, tmp_path / "a")
    b = workloads.write_inputs(w, 5, tmp_path / "b")
    c = workloads.write_inputs(w, 6, tmp_path / "c")
    assert a == b
    assert set(a) == {"config.yaml", "gold_np.tsv", "gold_rel.tsv", "paraphrases.tsv",
                      "triples.jsonl", "vectors.txt"}
    assert a["triples.jsonl"] != c["triples.jsonl"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_runs_and_passes_the_output_check(name, tmp_path):
    bench = run.Bench(tmp_path, tiny(workloads.WORKLOADS[name]), seed=1,
                      trace=True)
    sample = bench.run_once(0)
    traced = bench.run_once(0, trace=True)
    assert bench.failed == 0, bench.failures
    assert traced["digests"] == sample["digests"]
    assert sample["setup_s"] > 0 and sample["peak_rss_mb"] > 0
    kb = kbcanon.load_triples(bench.inputs[0]["dir"] / "triples.jsonl")
    metrics = layers.layer_metrics(traced["spans"], traced["run_dir"], kb, 2,
                                   sample["pipeline_s"])
    assert set(metrics) == set(layers.DECLARED) | set(layers.UNDECLARED)
    assert metrics["embedding.train_s"] > 0
    assert metrics["kb.triples"] == len(kb.triples)
    assert (metrics["baselines.runs"] > 0) == (name == "leaderboard")


def test_output_check_rejects_a_broken_partition(tmp_path):
    bench = run.Bench(tmp_path, tiny(workloads.WORKLOADS["sparse_vocab"]),
                      seed=2, trace=True)
    traced = bench.run_once(0, trace=True)
    run_dir = Path(traced["run_dir"])
    lines = (run_dir / "clusters_np.jsonl").read_text(encoding="utf-8").splitlines()
    (run_dir / "clusters_np.jsonl").write_text("\n".join(lines[1:]) + "\n",
                                               encoding="utf-8")
    with pytest.raises(check.OutputCheckError, match="partition"):
        check.check_run(run_dir, bench.inputs[0]["dir"] / "triples.jsonl", 0)
