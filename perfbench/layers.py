"""Per-layer metrics of a traced run.

``Probe`` supplies the span observers that count work at layer boundaries
(rows a training batch touches, merge-history sizes and ties, word-vector
rows); ``layer_metrics`` turns the spans, the probe's counts and the run
directory into the named per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
from math import comb
from pathlib import Path

from kbcanon.side_info import build_df, tokenize

from spans import self_times, summarize
from workloads import LEADERBOARD_BASELINES

STAGES = ("ingest", "split", "sideinfo", "embed", "thresholds", "cluster",
          "canonicalize", "evaluate", "baselines")
SIDE_SOURCES = ("idf_overlap", "morph", "entity_linking", "amie", "ppdb")

ROOT_SPAN = "pipeline.run_pipeline"

# name -> unit for every per-layer metric BENCHMARK.json declares.
DECLARED = {
    "embedding.train_s": "s",
    "embedding.epoch_s": "s",
    "embedding.batches": "count",
    "embedding.make_batch_s": "s",
    "embedding.step_s": "s",
    "embedding.negatives_skipped_fraction": "ratio",
    "embedding.touched_row_fraction": "ratio",
    "embedding.init_s": "s",
    "embedding.vector_rows": "count",
    "embedding.vector_rows_useful_fraction": "ratio",
    "embedding.save_s": "s",
    "canonicalize.distance_matrix_s": "s",
    "canonicalize.merge_history_s": "s",
    "canonicalize.merge_history_calls": "count",
    "canonicalize.merge_history_max_n": "count",
    "canonicalize.threshold_hac_s": "s",
    "canonicalize.cut_history_s": "s",
    "canonicalize.choose_threshold_s": "s",
    "canonicalize.cluster_phrases_s": "s",
    "canonicalize.representatives_s": "s",
    "canonicalize.rewrite_s": "s",
    "canonicalize.save_s": "s",
    "canonicalize.tied_merge_fraction": "ratio",
    "canonicalize.np_clusters": "count",
    "canonicalize.np_singleton_fraction": "ratio",
    "canonicalize.duplicate_groups": "count",
    "side_info.assemble_s": "s",
    "side_info.idf_overlap_s": "s",
    "side_info.morph_s": "s",
    "side_info.entity_linking_s": "s",
    "side_info.amie_s": "s",
    "side_info.save_s": "s",
    **{f"side_info.pairs.{src}": "count" for src in SIDE_SOURCES},
    "side_info.idf_candidate_bound": "count",
    "side_info.idf_yield": "ratio",
    "baselines.runs": "count",
    "kb.load_triples_s": "s",
    "kb.audit_s": "s",
    "kb.split_validation_s": "s",
    "kb.save_triples_s": "s",
    "kb.triples": "count",
    "kb.nps": "count",
    "kb.rels": "count",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.unattributed_s": "s",
    "trace_overhead_s": "s",
}

# Per-layer metrics where a larger value means less wasted work or more
# evidence; for every other one, lower is better.
HIGHER_IS_BETTER = frozenset({
    "embedding.vector_rows_useful_fraction", "side_info.idf_yield",
    "canonicalize.duplicate_groups",
    *(f"side_info.pairs.{src}" for src in SIDE_SOURCES),
})

# Times of layers that some workloads never call. They would read 0 on
# every run of those workloads, so they are printed and written to the
# results file but not declared in BENCHMARK.json.
UNDECLARED = {
    "baselines.run_s": "s",
    "baselines.tune_threshold_s": "s",
    **{f"baselines.{name}_s": "s" for name in LEADERBOARD_BASELINES},
    "side_info.ppdb_s": "s",
    "embedding.load_word_vectors_s": "s",
}


class Probe:
    """Span observers that count work where it happens. ``attrs`` land on
    the span, so the counts are written out with the spans."""

    def __init__(self):
        self.kb = None
        self._side_rows: tuple[frozenset, frozenset] = (frozenset(), frozenset())
        self._kb_tokens: frozenset | None = None

    def observers(self) -> dict:
        return {
            "kb.load_triples": self._on_kb,
            "side_info.assemble_side_info": self._on_side,
            "embedding.make_batch": self._on_batch,
            "canonicalize.hac_merge_history": self._on_history,
            "embedding.load_word_vectors": self._on_vectors,
            "baselines.run_baseline": self._on_baseline,
        }

    def _on_kb(self, span, args, kwargs, kb):
        self.kb = kb

    def _on_side(self, span, args, kwargs, side):
        rows = []
        for sources in (side.np_sources, side.rel_sources):
            rows.append(frozenset(i for s in sources for pair in s.pairs for i in pair))
        self._side_rows = tuple(rows)

    def _on_batch(self, span, args, kwargs, batch):
        triples = list(batch.positives) + [t for g in batch.negatives for t in g]
        nps = {i for t in triples for i in (t.subject, t.object)}
        rels = {t.relation for t in triples}
        side_np, side_rel = self._side_rows
        touched = (len(side_np) + len(nps - side_np)
                   + len(side_rel) + len(rels - side_rel))
        span.attrs.update(touched_rows=touched, negatives=len(triples) - len(batch.positives))

    def _on_history(self, span, args, kwargs, history):
        heights = [h[0] for h in history]
        span.attrs.update(n=int(args[0].shape[0]), merges=len(heights),
                          ties=sum(a == b for a, b in zip(heights, heights[1:])))

    def _on_vectors(self, span, args, kwargs, result):
        vectors = result[0]
        if self._kb_tokens is None and self.kb is not None:
            self._kb_tokens = frozenset(
                tok for p in self.kb.np_vocab + self.kb.rel_vocab
                for tok in tokenize(p.text))
        span.attrs.update(rows=len(vectors),
                          useful=len(self._kb_tokens & vectors.keys())
                          if self._kb_tokens is not None else 0)

    @staticmethod
    def _on_baseline(span, args, kwargs, result):
        span.attrs["baseline"] = args[0].name.value


def idf_candidate_bound(kb) -> int:
    """Sum over content tokens of C(df, 2): the candidate pairs that
    blocking on a shared token can produce, counting a pair once per
    shared token."""
    return sum(comb(n, 2) for n in build_df(kb).df.values())


def _total(summary: dict, *names: str) -> float:
    return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)


def layer_metrics(spans: list[dict], run_dir, kb, negatives_per_positive: int,
                  untraced_pipeline_s: float) -> dict[str, float]:
    """Every DECLARED and UNDECLARED metric of one traced run."""
    run_dir = Path(run_dir)
    summary = summarize(spans)
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    # embedding
    log = [json.loads(line) for line in
           (run_dir / "training_log.jsonl").read_text(encoding="utf-8").splitlines()]
    batches = named("embedding.make_batch")
    train_s = _total(summary, "embedding.train")
    make_batch_s = _total(summary, "embedding.make_batch")
    n_rows = kb.n_nps + kb.n_rels
    offered = len(log) * len(kb.triples) * negatives_per_positive
    vectors = named("embedding.load_word_vectors")
    m.update({
        "embedding.train_s": train_s,
        "embedding.epoch_s": statistics.median(r["wall_time_s"] for r in log),
        "embedding.batches": len(batches),
        "embedding.make_batch_s": make_batch_s,
        "embedding.step_s": (train_s - make_batch_s) / len(batches),
        "embedding.negatives_skipped_fraction":
            sum(r["negatives_skipped"] for r in log) / offered,
        "embedding.touched_row_fraction": statistics.fmean(
            s["attrs"]["touched_rows"] / n_rows for s in batches),
        "embedding.init_s": _total(summary, "embedding.init_embeddings"),
        "embedding.vector_rows": vectors[0]["attrs"]["rows"] if vectors else 0,
        "embedding.vector_rows_useful_fraction":
            vectors[0]["attrs"]["useful"] / vectors[0]["attrs"]["rows"] if vectors else 0.0,
        "embedding.save_s": _total(summary, "embedding.save_embeddings"),
        "embedding.load_word_vectors_s": _total(summary, "embedding.load_word_vectors"),
    })

    # canonicalize
    histories = named("canonicalize.hac_merge_history")
    merges = sum(s["attrs"]["merges"] for s in histories)
    clusters = [json.loads(line) for line in
                (run_dir / "clusters_np.jsonl").read_text(encoding="utf-8").splitlines()]
    duplicates = json.loads((run_dir / "duplicates.json").read_text(encoding="utf-8"))
    m.update({
        "canonicalize.distance_matrix_s": _total(summary, "canonicalize.cosine_distance_matrix"),
        "canonicalize.merge_history_s": _total(summary, "canonicalize.hac_merge_history"),
        "canonicalize.merge_history_calls": len(histories),
        "canonicalize.merge_history_max_n": max((s["attrs"]["n"] for s in histories), default=0),
        "canonicalize.threshold_hac_s": _total(summary, "canonicalize.hac_from_distance_matrix"),
        "canonicalize.cut_history_s": _total(summary, "canonicalize.cut_history"),
        "canonicalize.choose_threshold_s": _total(summary, "canonicalize.choose_threshold"),
        "canonicalize.cluster_phrases_s": _total(summary, "canonicalize.cluster_phrases"),
        "canonicalize.representatives_s": _total(summary, "canonicalize.build_clustering"),
        "canonicalize.rewrite_s": _total(summary, "canonicalize.canonicalize_kb"),
        "canonicalize.save_s": _total(summary, "canonicalize.save_clusters",
                                      "canonicalize.save_canonicalized"),
        "canonicalize.tied_merge_fraction":
            sum(s["attrs"]["ties"] for s in histories) / max(merges - len(histories), 1),
        "canonicalize.np_clusters": len(clusters),
        "canonicalize.np_singleton_fraction":
            sum(len(c["members"]) == 1 for c in clusters) / len(clusters),
        "canonicalize.duplicate_groups": len(duplicates["duplicate_groups"]),
    })

    # side information
    side = json.loads((run_dir / "side_info.json").read_text(encoding="utf-8"))
    pairs = {s["source_name"]: len(s["pairs"])
             for s in side["np_sources"] + side["rel_sources"]}
    bound = idf_candidate_bound(kb)
    m.update({
        "side_info.assemble_s": _total(summary, "side_info.assemble_side_info"),
        "side_info.idf_overlap_s": _total(summary, "side_info.idf_equivalences"),
        "side_info.morph_s": _total(summary, "side_info.morph_equivalences"),
        "side_info.entity_linking_s": _total(summary, "side_info.entity_link_equivalences"),
        "side_info.amie_s": _total(summary, "side_info.amie_mine"),
        "side_info.ppdb_s": _total(summary, "side_info.ppdb_equivalences"),
        "side_info.save_s": _total(summary, "side_info.save_side_info"),
        **{f"side_info.pairs.{src}": pairs.get(src, 0) for src in SIDE_SOURCES},
        "side_info.idf_candidate_bound": bound,
        "side_info.idf_yield": pairs.get("idf_overlap", 0) / bound if bound else 0.0,
    })

    # baselines
    runs = named("baselines.run_baseline")
    m["baselines.runs"] = len(runs)
    m["baselines.run_s"] = _total(summary, "baselines.run_baseline")
    m["baselines.tune_threshold_s"] = _total(summary, "baselines.tune_threshold_on_matrix")
    for name in LEADERBOARD_BASELINES:
        m[f"baselines.{name}_s"] = sum(s["end"] - s["start"] for s in runs
                                       if s["attrs"]["baseline"] == name)

    # kb and metrics
    m.update({
        "kb.load_triples_s": _total(summary, "kb.load_triples"),
        "kb.audit_s": _total(summary, "kb.audit"),
        "kb.split_validation_s": _total(summary, "kb.split_validation"),
        "kb.save_triples_s": _total(summary, "kb.save_triples"),
        "kb.triples": len(kb.triples),
        "kb.nps": kb.n_nps,
        "kb.rels": kb.n_rels,
        "metrics.evaluate_s": _total(summary, "metrics.evaluate"),
        "metrics.evaluate_calls": summary.get("metrics.evaluate", {}).get("calls", 0),
    })

    # pipeline accounting
    timings = json.loads((run_dir / "timings.json").read_text(encoding="utf-8"))
    root = named(ROOT_SPAN)[0]
    for stage in STAGES:
        m[f"pipeline.stage.{stage}_s"] = timings[stage]
    m["pipeline.unattributed_s"] = selfs[root["id"]]
    m["trace_overhead_s"] = (root["end"] - root["start"]) - untraced_pipeline_s
    return m
