#!/usr/bin/env python3
"""Benchmark harness for full-scale open KB canonicalization runs.

Published results on benchmarks such as ReVerb45K depend on the complete
dataset, external resources (entity-link annotations, a paraphrase
database, synset files, relation categories, pretrained word vectors),
and tuned hyperparameters that are not part of this repository.  This
script is the reproduction path: point it at those resource files and it

  1. optionally grid-searches hyperparameters and thresholds on the
     validation split,
  2. runs the full pipeline at the chosen setting alongside the baseline
     systems, and
  3. emits a leaderboard (one row per system, macro / micro / pairwise
     F1 as percentages) for side-by-side comparison with published
     numbers.

No target scores are asserted; the leaderboard documents whatever the
provided resources and settings achieve.

Example:
    python scripts/reproduce_reverb45k.py \\
        --triples reverb45k/triples.jsonl \\
        --gold-np reverb45k/gold_np.tsv \\
        --ppdb resources/ppdb_xl.tsv \\
        --vectors resources/glove.6B.300d.txt \\
        --grid grids/default.yaml \\
        --out runs/reverb45k
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from kbcanon import HyperParams, PipelineConfig, SideInfoConfig, run_pipeline
from kbcanon.kb import read_yaml
from kbcanon.pipeline import grid_search, load_config

log = logging.getLogger("reproduce")

ALWAYS_RUNNABLE_BASELINES = (
    "morph", "entlink", "idf_hac", "strsim_hac", "attr_hac", "hole_random",
)
PPDB_BASELINES = ("ppdb",)
VECTOR_BASELINES = ("wordvec_avg", "hole_pretrained")


def build_args() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]),
    )
    data = parser.add_argument_group("dataset")
    data.add_argument("--triples", type=Path, required=True,
                      help="triple file; entity-link annotations ride along "
                           "as entity_link_sub / entity_link_obj fields")
    data.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
    data.add_argument("--gold-np", type=Path, default=None,
                      help="gold NP clustering, text<TAB>cluster_id per line")
    data.add_argument("--gold-rel", type=Path, default=None,
                      help="gold relation clustering, same format")

    res = parser.add_argument_group("external resources (all optional)")
    res.add_argument("--ppdb", type=Path, default=None,
                     help="paraphrase pairs, phrase<TAB>phrase<TAB>confidence")
    res.add_argument("--wordnet", type=Path, default=None,
                     help="synsets, phrase<TAB>synset_id[,synset_id...]")
    res.add_argument("--kbp", type=Path, default=None,
                     help="relation category file, phrase<TAB>category")
    res.add_argument("--vectors", type=Path, default=None,
                     help="pretrained word vectors, a token and its floats "
                          "separated by single spaces per line")

    run = parser.add_argument_group("run")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--validation-fraction", type=float, default=0.2)
    run.add_argument("--baselines", nargs="*", default=None,
                     help="baseline systems to include; default: every "
                          "baseline the provided resources can support")
    run.add_argument("--grid", type=Path, default=None,
                     help="YAML mapping of dotted config fields to value "
                          "lists, e.g. hyperparams.lambda_side_default: "
                          "[0.1, 1.0]; searched before the final run")

    hp = parser.add_argument_group("hyperparameters (final run defaults)")
    hp.add_argument("--dim", type=int, default=300)
    hp.add_argument("--epochs", type=int, default=100)
    hp.add_argument("--batch-size", type=int, default=128)
    hp.add_argument("--learning-rate", type=float, default=0.01)
    hp.add_argument("--lambda-side", type=float, default=0.1)
    hp.add_argument("--np-threshold", type=float, default=None,
                    help="pin the NP cut distance instead of tuning it")
    hp.add_argument("--rel-threshold", type=float, default=None)
    return parser


def default_baselines(args: argparse.Namespace) -> tuple[str, ...]:
    names = list(ALWAYS_RUNNABLE_BASELINES)
    if args.ppdb is not None:
        names.extend(PPDB_BASELINES)
    if args.vectors is not None:
        names.extend(VECTOR_BASELINES)
    return tuple(names)


def make_config(args: argparse.Namespace) -> PipelineConfig:
    side = SideInfoConfig(
        ppdb_np=args.ppdb is not None,
        ppdb_rel=args.ppdb is not None,
        ppdb_file=str(args.ppdb) if args.ppdb else None,
        wordnet_np=args.wordnet is not None,
        wordnet_rel=args.wordnet is not None,
        wordnet_file=str(args.wordnet) if args.wordnet else None,
        kbp=args.kbp is not None,
        kbp_file=str(args.kbp) if args.kbp else None,
    )
    hyperparams = HyperParams(
        dim=args.dim,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        lambda_side_default=args.lambda_side,
    )
    config = PipelineConfig(
        triples_file=str(args.triples),
        format=args.format,
        gold_np_file=str(args.gold_np) if args.gold_np else None,
        gold_rel_file=str(args.gold_rel) if args.gold_rel else None,
        vectors_file=str(args.vectors) if args.vectors else None,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
        np_threshold=args.np_threshold,
        rel_threshold=args.rel_threshold,
        side=side,
        hyperparams=hyperparams,
    )
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_args().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    config = make_config(args)

    if args.grid is not None:
        grid = read_yaml(args.grid)
        if not isinstance(grid, dict) or not grid:
            raise SystemExit(f"grid file must be a non-empty mapping: {args.grid}")
        log.info("grid-searching %d fields: %s", len(grid), sorted(grid))
        best, rows = grid_search(config, grid, args.out / "grid")
        log.info("searched %d configurations; best overrides: %s", len(rows), best)
        config = load_config(args.out / "grid" / "best_config.yaml")

    baselines = tuple(args.baselines) if args.baselines is not None else default_baselines(args)
    config = dataclasses.replace(config, baselines=baselines)
    log.info("final run with baselines: %s", ", ".join(baselines) or "(none)")

    out = run_pipeline(config, args.out / "final")

    leaderboard = out / "leaderboard.txt"
    print()
    print(leaderboard.read_text(encoding="utf-8"))
    print(f"leaderboard: {leaderboard}")
    print(f"metrics:     {out / 'metrics.json'}")
    print(f"manifest:    {out / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
