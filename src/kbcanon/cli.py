"""Command line interface.

The stage subcommands (`ingest`, `sideinfo`, `embed`, and `cluster` for
every stage after embed) run as separate processes against a shared run
directory: each loads the previous stage's artifact and calls the same
stage function as `run_pipeline`. Plus `pipeline` for the whole chain,
`evaluate` for scoring a cluster file, `grid-search` for hyperparameter
sweeps, and `synth` for generating a labeled benchmark KB with a matching
config file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import yaml

from .embedding import load_embeddings
from .errors import KBCanonError
from .kb import TripleFormat, load_triples, read_yaml, write_json, write_text
from .metrics import format_report
from .pipeline import (
    PipelineConfig,
    config_from_dict,
    embed_stage,
    evaluate_clusters_file,
    grid_search,
    ingest_stage,
    load_config,
    run_after_embed,
    run_pipeline,
    run_stage,
    sideinfo_stage,
    split_stage,
)
from .side_info import load_side_info
from .synth import make_synthetic_kb

logger = logging.getLogger(__name__)


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _load_run_config(args) -> PipelineConfig:
    if args.config:
        config = load_config(args.config)
    elif args.triples:
        config = config_from_dict({"triples_file": args.triples}, base_dir=".")
    else:
        raise KBCanonError("either --config or --triples is required")
    if args.triples:
        config.triples_file = str(Path(args.triples).resolve())
    if args.format:
        config.format = args.format
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.out_dir = str(Path(args.out).resolve())
    if not config.out_dir:
        raise KBCanonError("an output directory is required (--out or out_dir)")
    return config


def _stage_run(args) -> tuple[PipelineConfig, Path]:
    """The run config, its values checked, and its run directory, created
    if missing."""
    config = _load_run_config(args)
    config.check_values()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _load_kb(config: PipelineConfig, out: Path):
    """Stage commands prefer the ingested artifact so the chain operates
    on one snapshot; fall back to the configured source file."""
    kb_file = out / "kb.jsonl"
    if kb_file.is_file():
        return load_triples(kb_file, TripleFormat.JSONL)
    return load_triples(config.triples_file, TripleFormat(config.format))


def cmd_ingest(args) -> int:
    config, out = _stage_run(args)
    kb = ingest_stage(config, out)
    print(f"ingested {len(kb.triples)} triples "
          f"({kb.n_nps} noun phrases, {kb.n_rels} relation phrases) "
          f"-> {out / 'kb.jsonl'}")
    return 0


def cmd_sideinfo(args) -> int:
    config, out = _stage_run(args)
    sideinfo_stage(config, out, _load_kb(config, out))
    print((out / "coverage.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_embed(args) -> int:
    config, out = _stage_run(args)
    kb = _load_kb(config, out)
    side_file = out / "side_info.json"
    if not side_file.is_file():
        raise KBCanonError(
            f"side information file not found: {side_file} (run sideinfo first)"
        )
    emb, _ = embed_stage(config, out, kb, load_side_info(side_file, kb))
    print(f"trained {emb.dim}-dimensional embeddings for "
          f"{kb.n_nps} + {kb.n_rels} phrases -> {out / 'embeddings.npz'}")
    return 0


def cmd_cluster(args) -> int:
    config, out = _stage_run(args)
    kb = _load_kb(config, out)
    emb_file = out / "embeddings.npz"
    if not emb_file.is_file():
        raise KBCanonError(
            f"embeddings file not found: {emb_file} (run embed first)"
        )
    emb, _ = load_embeddings(emb_file, kb)
    timings: dict[str, float] = {}
    split = run_stage(timings, "split", split_stage, config, out, kb)
    np_clustering, rel_clustering = run_after_embed(config, out, kb, split, emb, timings)
    print(f"clustered at thresholds np={np_clustering.threshold_used} "
          f"rel={rel_clustering.threshold_used}: "
          f"{len(np_clustering.clusters)} noun phrase clusters, "
          f"{len(rel_clustering.clusters)} relation clusters")
    print((out / "metrics.txt").read_text(encoding="utf-8"))
    return 0


def cmd_evaluate(args) -> int:
    report = evaluate_clusters_file(args.clusters, args.gold)
    print(format_report(report))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "metrics.json", report.as_dict())
    return 0


def cmd_pipeline(args) -> int:
    config = _load_run_config(args)
    out = run_pipeline(config)
    print(f"pipeline complete -> {out}")
    print((out / "metrics.txt").read_text(encoding="utf-8"))
    return 0


def cmd_grid_search(args) -> int:
    config = _load_run_config(args)
    grid = read_yaml(args.grid)
    if not isinstance(grid, dict):
        raise KBCanonError("grid file must map config paths to value lists")
    best, rows = grid_search(config, grid, config.out_dir)
    print(f"searched {len(rows)} configurations")
    print(f"best overrides: {json.dumps(best, sort_keys=True)}")
    return 0


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synth = make_synthetic_kb(
        n_entities=args.entities,
        aliases_per_entity=args.aliases,
        n_relations=args.relations,
        paraphrases_per_relation=args.paraphrases,
        n_triples=args.triples,
        noise=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    # the side file first: its size checks refuse before any file is written
    n_true, n_false = synth.write_side_file(out / "side_ppdb.tsv", coverage=args.side_coverage,
                                            precision=args.side_precision)
    synth.write_triples(out / "triples.jsonl")
    synth.write_np_gold(out / "gold_np.tsv")
    synth.write_rel_gold(out / "gold_rel.tsv")
    config_doc = {
        "triples_file": "triples.jsonl",
        "gold_np_file": "gold_np.tsv",
        "gold_rel_file": "gold_rel.tsv",
        "seed": args.seed if args.seed is not None else 0,
        "out_dir": "run",
        "side": {"ppdb_np": True, "ppdb_file": "side_ppdb.tsv"},
    }
    write_text(out / "config.yaml", yaml.safe_dump(config_doc, sort_keys=True))
    print(f"synthetic KB: {len(synth.records)} triples, "
          f"{len(synth.np_gold)} noun phrases over {args.entities} entities, "
          f"{len(synth.rel_gold)} relation surfaces -> {out}")
    print(f"side file: {n_true} equivalence rows, {n_false} spurious rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbcanon",
        description="Canonicalize noun and relation phrases in an open KB",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="pipeline config YAML")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", help="run directory (overrides out_dir)")
        p.add_argument("--triples", help="triples file (overrides config)")
        p.add_argument("--format", choices=["jsonl", "json"],
                       help="triples file format")

    p = sub.add_parser("ingest", help="parse, validate, and snapshot a KB")
    add_common(p)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("sideinfo", help="collect equivalence evidence")
    add_common(p)
    p.set_defaults(fn=cmd_sideinfo)

    p = sub.add_parser("embed", help="train phrase embeddings")
    add_common(p)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("cluster", help="every stage after embed: split, thresholds, "
                                       "cluster, rewrite, evaluate, baselines")
    add_common(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("evaluate", help="score a cluster file against gold")
    p.add_argument("--clusters", required=True, help="cluster JSONL file")
    p.add_argument("--gold", required=True,
                   help="tab-separated `phrase<TAB>gold_id` file")
    p.add_argument("--out", help="also write metrics.json here")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    add_common(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("grid-search", help="sweep config values, rank by "
                                           "validation mean F1")
    add_common(p)
    p.add_argument("--grid", required=True,
                   help="YAML mapping dotted config paths to value lists")
    p.set_defaults(fn=cmd_grid_search)

    p = sub.add_parser("synth", help="generate a labeled synthetic KB")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--entities", type=int, default=20)
    p.add_argument("--aliases", type=int, default=3)
    p.add_argument("--relations", type=int, default=6)
    p.add_argument("--paraphrases", type=int, default=2)
    p.add_argument("--triples", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--side-coverage", type=float, default=0.5,
                   help="fraction of within-entity alias pairs in the side file")
    p.add_argument("--side-precision", type=float, default=1.0,
                   help="fraction of side rows that are genuine")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.fn(args)
    except (KBCanonError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
