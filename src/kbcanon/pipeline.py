"""End-to-end orchestration: ingest, validation split, side info,
training, threshold selection, clustering, canonicalization, evaluation
and baselines, plus hyperparameter grid search.

Each stage is one function, ``<stage>_stage(config, run_dir, *inputs)``,
that writes the stage's artifacts to the run directory and returns its
outputs. `run_pipeline` runs the stages in order and hands outputs on in
memory; the CLI subcommands call the same functions on artifacts read back
from the run directory, so a staged chain writes the same run directory.
A manifest records the resolved config, its hash, the seed, and library
versions; every run is single-threaded, so a re-run from the manifest
reproduces every artifact byte for byte.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
import itertools
import json
import logging
import platform
import time
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from . import __version__
from . import canonicalize as canon
from .baselines import VECTOR_BASELINES, BaselineConfig, BaselineName, run_baseline
from .canonicalize import DEFAULT_THRESHOLD_GRID, Clustering, choose_threshold
from .embedding import (
    EmbeddingSet,
    HyperParams,
    WordVectors,
    default_init_rng,
    init_embeddings,
    load_word_vectors,
    save_embeddings,
    train,
)
from .errors import ConfigError, ParseError, StageError
from .kb import (
    GoldClustering,
    OpenKB,
    PhraseKind,
    Triple,
    TripleFormat,
    audit,
    gold_from_triples,
    load_gold,
    load_triples,
    read_gold_lines,
    read_jsonl,
    read_yaml,
    save_triples,
    split_validation,
    write_json,
    write_text,
)
from .metrics import MetricsReport, evaluate, format_report
from .side_info import (
    NP_SOURCES,
    REL_SOURCES,
    SideInfoCollection,
    SideInfoConfig,
    assemble_side_info,
    coverage_report,
    save_side_info,
)

logger = logging.getLogger(__name__)

_INPUT_FIELDS = ("triples_file", "gold_np_file", "gold_rel_file", "vectors_file")
_PATH_FIELDS = _INPUT_FIELDS + ("out_dir",)
_SIDE_PATH_FIELDS = ("ppdb_file", "wordnet_file", "kbp_file")
# Top-level fields that grid_search reads once from the base config or
# never reads, so a grid over them would give identical rows.
_FIXED_GRID_FIELDS = ("triples_file", "format", "gold_np_file", "gold_rel_file",
                      "validation_fraction", "out_dir", "baselines",
                      "deterministic")
BASELINE_NAMES = tuple(b.value for b in BaselineName)


@dataclass
class PipelineConfig:
    """Everything a run needs; the master seed governs every stochastic
    component (splitting, initialization, shuffling, negative sampling)."""

    triples_file: str
    format: str = "jsonl"
    gold_np_file: str | None = None
    gold_rel_file: str | None = None
    vectors_file: str | None = None
    validation_fraction: float = 0.2
    seed: int = 0
    # Every run is single-threaded and byte-reproducible; the field stays
    # so that configs which set it still load, and true is its only valid
    # value.
    deterministic: bool = True
    out_dir: str | None = None
    np_threshold: float | None = None
    rel_threshold: float | None = None
    threshold_grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
    baselines: tuple[str, ...] = ()
    side: SideInfoConfig = field(default_factory=SideInfoConfig)
    hyperparams: HyperParams = field(default_factory=HyperParams)

    def effective_hyperparams(self) -> HyperParams:
        return dataclasses.replace(self.hyperparams, seed=self.seed)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["threshold_grid"] = list(self.threshold_grid)
        d["baselines"] = list(self.baselines)
        d["hyperparams"]["lambda_ent"] = dict(self.hyperparams.lambda_ent)
        d["hyperparams"]["lambda_rel"] = dict(self.hyperparams.lambda_rel)
        d["hyperparams"].pop("seed", None)
        return d

    def validate(self) -> None:
        """`check_values`, then that each configured input file exists."""
        self.check_values()
        for name in _INPUT_FIELDS:
            value = getattr(self, name)
            if value is not None and not Path(value).is_file():
                raise ConfigError(f"{name} does not exist: {value}")
        self.side.validate()

    def check_values(self) -> None:
        """Every check that opens no file. A staged command runs these
        before it writes anything and leaves each input file to the
        reader that opens it."""
        if not self.deterministic:
            raise ConfigError(
                "deterministic must be true: every run is single-threaded "
                "and byte-reproducible"
            )
        if self.format not in ("jsonl", "json"):
            raise ConfigError(f"format must be jsonl or json, got {self.format!r}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if not self.threshold_grid:
            raise ConfigError("threshold_grid is empty")
        for t in self.threshold_grid:
            if not 0.0 <= t <= 2.0:
                raise ConfigError(f"threshold_grid value out of [0, 2]: {t}")
        for name in ("np_threshold", "rel_threshold"):
            t = getattr(self, name)
            if t is not None and not 0.0 <= t <= 2.0:
                raise ConfigError(f"{name} out of [0, 2]: {t}")
        for b in self.baselines:
            if b not in BASELINE_NAMES:
                raise ConfigError(
                    f"unknown baseline {b!r}; valid: {BASELINE_NAMES}"
                )
        for table, sources in (("lambda_ent", NP_SOURCES), ("lambda_rel", REL_SOURCES)):
            unknown = sorted(set(getattr(self.hyperparams, table)) - set(sources))
            if unknown:
                raise ConfigError(f"unknown side-info source(s) in hyperparams.{table}: "
                                  f"{unknown}; valid: {sources}")
        self.side.check_values()
        self.effective_hyperparams().validate()


def _fits(value, hint) -> bool:
    """Whether a parsed config value has the field type ``hint``; a float
    field also takes an int and a tuple field a list, no number a bool."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if origin is collections.abc.Mapping:
        return isinstance(value, Mapping) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _check_section(cls, values, prefix: str = "", exclude: Sequence[str] = ()) -> None:
    """ConfigError for a config section whose keys are not fields of
    ``cls``, or for the dotted key of a value that does not fit its field."""
    if not isinstance(values, Mapping):
        raise ConfigError(f"config key {prefix[:-1]!r} must be a mapping, got {values!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted((k for k in values if k not in hints or k in exclude), key=str)
    if unknown:
        raise ConfigError(f"unknown config key(s) in {prefix[:-1] or 'config'}: {unknown}")
    for name, value in values.items():
        if not _fits(value, hints[name]):
            hint = ""
            if _fits(_floats_read(value), hints[name]):
                hint = ("; YAML reads a float without a dot, such as 1e-3, as a "
                        "string: write it with one, as in 1.0e-3")
            raise ConfigError(f"config key {prefix + name!r} must be "
                              f"{cls.__annotations__[name]}, got {value!r}{hint}")


def _floats_read(value):
    """``value`` with each string that ``float()`` parses, alone or in a
    list or a mapping, read as a float."""
    if isinstance(value, (list, tuple)):
        return [_floats_read(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _floats_read(v) for k, v in value.items()}
    try:
        return float(value) if isinstance(value, str) else value
    except ValueError:
        return value


def _resolve(base_dir: Path, value: str | None) -> str | None:
    if value is None:
        return None
    p = Path(value)
    return str(p if p.is_absolute() else (base_dir / p).resolve())


def config_from_dict(raw: Mapping, base_dir=".") -> PipelineConfig:
    """Build a config from a parsed document. Unknown keys anywhere are
    errors; relative paths resolve against ``base_dir``."""
    base_dir = Path(base_dir)
    if not isinstance(raw, Mapping):
        raise ConfigError("config document must be a mapping")
    kwargs = dict(raw)
    side_raw = kwargs.pop("side", None) or {}
    hp_raw = kwargs.pop("hyperparams", None) or {}
    _check_section(PipelineConfig, kwargs)
    if "triples_file" not in raw:
        raise ConfigError("config is missing required key 'triples_file'")

    _check_section(SideInfoConfig, side_raw, "side.")
    side = SideInfoConfig(**side_raw)
    for name in _SIDE_PATH_FIELDS:
        setattr(side, name, _resolve(base_dir, getattr(side, name)))

    if isinstance(hp_raw, Mapping):  # an empty lambda table may be written as null
        hp_raw = {k: {} if v is None and k in ("lambda_ent", "lambda_rel") else v
                  for k, v in hp_raw.items()}
    _check_section(HyperParams, hp_raw, "hyperparams.", exclude=("seed",))
    hyperparams = HyperParams(**hp_raw)

    if "threshold_grid" in kwargs:
        kwargs["threshold_grid"] = tuple(float(t) for t in kwargs["threshold_grid"])
    if "baselines" in kwargs:
        kwargs["baselines"] = tuple(kwargs["baselines"])
    config = PipelineConfig(side=side, hyperparams=hyperparams, **kwargs)
    for name in _PATH_FIELDS:
        setattr(config, name, _resolve(base_dir, getattr(config, name)))
    return config


def load_config(path) -> PipelineConfig:
    path = Path(path)
    raw = read_yaml(path)
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    return config_from_dict(raw, base_dir=path.parent)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: PipelineConfig) -> str:
    """sha256 of the config with each input path replaced by the sha256
    of its file and out_dir left out, so the same inputs hash alike
    wherever they live."""
    d = config.as_dict()
    del d["out_dir"]
    for node, names in ((d, _INPUT_FIELDS), (d["side"], _SIDE_PATH_FIELDS)):
        for name in names:
            if node[name] is not None:
                node[name] = _file_sha256(node[name])
    doc = json.dumps(d, sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# leaderboard formatting


def leaderboard_row(label: str, report: MetricsReport | None, width: int = 40) -> str:
    """One comparison-table row: the label padded to ``width``, then
    macro / micro / pairwise F1 as percentages to one decimal."""

    def cell(x: float | None) -> str:
        return "   --" if x is None else f"{100.0 * x:5.1f}"

    if report is None:
        return f"{label:<{width}} {'   --'}  {'   --'}  {'   --'}"
    return (
        f"{label:<{width}} {cell(report.macro_f1)}  {cell(report.micro_f1)}  "
        f"{cell(report.pair_f1)}"
    )


def leaderboard_header(width: int = 40) -> str:
    return f"{'system':<{width}} {'macro':>5}  {'micro':>5}  {'pair':>5}"


def leaderboard_text(rows: Sequence[tuple[str, MetricsReport | None]]) -> str:
    """The comparison table of (label, report) rows under its header. The
    label column fits the longest label, and is at least 40 wide."""
    width = max([40, *(len(label) for label, _ in rows)])
    return "\n".join([leaderboard_header(width)] + [
        leaderboard_row(label, report, width) for label, report in rows]) + "\n"


LEADERBOARD_HEADER = leaderboard_header()


# ---------------------------------------------------------------------------
# stages


def run_stage(timings: dict[str, float], name: str, fn, *args):
    """``fn(*args)`` with its wall time recorded under ``name``; a failure
    raises StageError naming the stage."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as e:
        raise StageError(name, e) from e
    timings[name] = time.perf_counter() - t0
    return result


def load_np_gold(kb: OpenKB, config: PipelineConfig) -> GoldClustering:
    if config.gold_np_file:
        gold = load_gold(config.gold_np_file, kb, PhraseKind.NP)
    else:
        gold = gold_from_triples(kb)
    if not gold.assignment:
        raise ConfigError(
            "no NP gold labels available (need gold_np_file or per-triple "
            "gold fields) for splitting and threshold selection"
        )
    return gold


@dataclass(frozen=True)
class Split:
    """The validation and test triples of the KB and, per kind, the
    ascending ids of the validation triples' phrases, which every
    threshold is tuned on, and the gold labels (empty without a gold
    file) restricted to them and to the test triples' phrases."""

    validation: tuple[Triple, ...]
    test: tuple[Triple, ...]
    validation_ids: Mapping[PhraseKind, list[int]]
    validation_gold: Mapping[PhraseKind, GoldClustering]
    test_gold: Mapping[PhraseKind, GoldClustering]


def make_split(kb: OpenKB, config: PipelineConfig) -> Split:
    """Load the gold labels and split the KB's triples by the config's
    validation fraction and seed."""
    np_gold = load_np_gold(kb, config)
    rel_gold = (load_gold(config.gold_rel_file, kb, PhraseKind.REL)
                if config.gold_rel_file else GoldClustering(PhraseKind.REL, {}))
    validation, test = split_validation(kb, np_gold, config.validation_fraction,
                                        config.seed)
    golds = {PhraseKind.NP: np_gold, PhraseKind.REL: rel_gold}
    val_ids = {kind: sorted(phrase_ids(validation, kind)) for kind in golds}
    return Split(validation, test, val_ids,
                 {kind: gold.restricted_to(val_ids[kind]) for kind, gold in golds.items()},
                 {kind: gold.restricted_to(phrase_ids(test, kind)) for kind, gold in golds.items()})


def phrase_ids(triples: Sequence[Triple], kind: PhraseKind) -> set[int]:
    """The ids of the phrases of one kind that occur in the triples."""
    if kind is PhraseKind.NP:
        return {i for t in triples for i in (t.subject, t.object)}
    return {t.relation for t in triples}


def select_thresholds(
    emb: EmbeddingSet, split: Split, config: PipelineConfig
) -> tuple[float, float, dict]:
    """NP and REL cutoffs. Fixed config values win; otherwise tune on the
    validation triples' phrases. Without relation gold the relation
    threshold falls back to the NP threshold. The detail records, per
    kind, the threshold, its source and the validation mean F1 at each
    grid value (None unless tuned)."""
    detail: dict = {"grid": list(config.threshold_grid)}
    for kind, fixed in ((PhraseKind.NP, config.np_threshold),
                        (PhraseKind.REL, config.rel_threshold)):
        key = kind.value.lower()
        ids, val_gold = split.validation_ids[kind], split.validation_gold[kind]
        scores = None
        if fixed is not None:
            t, source = fixed, "config"
        elif kind is PhraseKind.NP or val_gold:
            t, scores, _ = choose_threshold(ids, emb.vectors(kind)[ids], val_gold,
                                            config.threshold_grid)
            source = "validation"
        else:
            t, source = detail["np_threshold"], "np_threshold"
        detail[f"{key}_threshold"], detail[f"{key}_source"] = t, source
        detail[f"{key}_scores"] = scores
    return detail["np_threshold"], detail["rel_threshold"], detail


def _evaluate_or_none(clustering: Clustering, gold: GoldClustering) -> MetricsReport | None:
    return evaluate(clustering.member_sets(), gold.assignment) if gold else None


def ingest_stage(config: PipelineConfig, out: Path) -> OpenKB:
    """Parse and audit the source triples; snapshot them as kb.jsonl."""
    kb = load_triples(config.triples_file, TripleFormat(config.format))
    audit(kb)
    save_triples(kb, out / "kb.jsonl")
    logger.info("ingested %d triples, %d NPs, %d relation phrases",
                len(kb.triples), kb.n_nps, kb.n_rels)
    return kb


def split_stage(config: PipelineConfig, out: Path, kb: OpenKB) -> Split:
    split = make_split(kb, config)
    write_json(out / "split.json", {
        "validation_triple_ids": sorted(t.triple_id for t in split.validation),
        "test_triple_ids": sorted(t.triple_id for t in split.test),
    })
    return split


def sideinfo_stage(config: PipelineConfig, out: Path, kb: OpenKB) -> SideInfoCollection:
    side = assemble_side_info(kb, config.side)
    save_side_info(side, out / "side_info.json", kb)
    write_text(out / "coverage.txt", "\n".join(coverage_report(side, kb)) + "\n")
    return side


def embed_stage(config: PipelineConfig, out: Path, kb: OpenKB, side: SideInfoCollection,
                ) -> tuple[EmbeddingSet, WordVectors | None]:
    """Train from the word-vector initialization; returns the embeddings
    and the word-vector table, which the vector baselines read too."""
    h = config.effective_hyperparams()
    word_vectors = (load_word_vectors(config.vectors_file, kb)
                    if config.vectors_file else None)
    init = init_embeddings(kb, word_vectors, h.dim, default_init_rng(h.seed))
    emb = train(kb, side, h, init, log_file=out / "training_log.jsonl")
    save_embeddings(emb, out / "embeddings.npz", h.seed, kb)
    return emb, word_vectors


def thresholds_stage(config: PipelineConfig, out: Path, emb: EmbeddingSet,
                     split: Split) -> tuple[float, float]:
    np_t, rel_t, detail = select_thresholds(emb, split, config)
    write_json(out / "thresholds.json", detail)
    return np_t, rel_t


def cluster_stage(config: PipelineConfig, out: Path, kb: OpenKB, emb: EmbeddingSet,
                  np_t: float, rel_t: float) -> tuple[Clustering, Clustering]:
    np_clustering = canon.cluster_phrases(kb, PhraseKind.NP, emb.np_vectors, np_t)
    rel_clustering = canon.cluster_phrases(kb, PhraseKind.REL, emb.rel_vectors, rel_t)
    canon.save_clusters(np_clustering, kb, out / "clusters_np.jsonl")
    canon.save_clusters(rel_clustering, kb, out / "clusters_rel.jsonl")
    return np_clustering, rel_clustering


def canonicalize_stage(config: PipelineConfig, out: Path, kb: OpenKB,
                       np_clustering: Clustering,
                       rel_clustering: Clustering) -> canon.CanonicalizedKB:
    result = canon.canonicalize_kb(kb, np_clustering, rel_clustering)
    canon.save_canonicalized(result, out / "canonical_triples.jsonl")
    write_json(out / "duplicates.json",
               {"duplicate_groups": [list(g) for g in result.duplicate_groups]})
    return result


def evaluate_stage(config: PipelineConfig, out: Path, split: Split,
                   np_clustering: Clustering, rel_clustering: Clustering,
                   ) -> tuple[MetricsReport | None, MetricsReport | None]:
    """Score both clusterings on the test split's phrases."""
    report_np = _evaluate_or_none(np_clustering, split.test_gold[PhraseKind.NP])
    report_rel = _evaluate_or_none(rel_clustering, split.test_gold[PhraseKind.REL])
    write_json(out / "metrics.json", {
        "np": report_np.as_dict() if report_np else None,
        "rel": report_rel.as_dict() if report_rel else None,
    })
    text = []
    if report_np:
        text.append("NP clustering vs gold (test split)")
        text.append(format_report(report_np))
    if report_rel:
        text.append("")
        text.append("REL clustering vs gold (test split)")
        text.append(format_report(report_rel))
    write_text(out / "metrics.txt", "\n".join(text) + "\n")
    return report_np, report_rel


def baselines_stage(config: PipelineConfig, out: Path, kb: OpenKB, split: Split,
                    report_np: MetricsReport | None,
                    word_vectors: WordVectors | None = None) -> None:
    """Run the configured NP baselines and write the leaderboard, this
    system's test-split row first. Without a word-vector table, the
    vectors file is read when a configured baseline needs it."""
    if (word_vectors is None and config.vectors_file
            and VECTOR_BASELINES & {BaselineName(b) for b in config.baselines}):
        word_vectors = load_word_vectors(config.vectors_file, kb)
    rows = [("full (this system)", report_np)]
    for name in config.baselines:
        cfg = BaselineConfig(
            name=BaselineName(name),
            kind=PhraseKind.NP,
            ppdb_confidence_min=config.side.ppdb_confidence_min,
            hyperparams=(config.effective_hyperparams() if name.startswith("hole_")
                         else None),
            seed=config.seed,
        )
        clustering = run_baseline(
            cfg, kb,
            ppdb_file=config.side.ppdb_file,
            word_vectors=word_vectors,
            validation_gold=split.validation_gold[PhraseKind.NP],
            grid=config.threshold_grid,
            validation_ids=split.validation_ids[PhraseKind.NP],
        )
        report = _evaluate_or_none(clustering, split.test_gold[PhraseKind.NP])
        rows.append((name, report))
    write_text(out / "leaderboard.txt", leaderboard_text(rows))


def run_after_embed(config: PipelineConfig, out: Path, kb: OpenKB, split: Split,
                    emb: EmbeddingSet, timings: dict[str, float],
                    word_vectors: WordVectors | None = None,
                    ) -> tuple[Clustering, Clustering]:
    """Every stage after embed: thresholds, cluster, canonicalize,
    evaluate and baselines, then manifest.json and timings.json. Returns
    the NP and REL clusterings."""
    np_t, rel_t = run_stage(timings, "thresholds", thresholds_stage,
                            config, out, emb, split)
    np_clustering, rel_clustering = run_stage(
        timings, "cluster", cluster_stage, config, out, kb, emb, np_t, rel_t)
    run_stage(timings, "canonicalize", canonicalize_stage,
              config, out, kb, np_clustering, rel_clustering)
    report_np, _ = run_stage(timings, "evaluate", evaluate_stage,
                             config, out, split, np_clustering, rel_clustering)
    run_stage(timings, "baselines", baselines_stage, config, out, kb, split, report_np,
              word_vectors)
    write_json(out / "manifest.json", {
        "config": config.as_dict(),
        "config_hash": config_hash(config),
        "seed": config.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": __version__,
        },
        # timings.json differs on every run and may be left over from an
        # earlier run into this directory, so it is never listed.
        "artifacts": sorted(
            p.name for p in out.iterdir()
            if p.is_file() and p.name not in ("manifest.json", "timings.json")
        ),
    })
    write_json(out / "timings.json", {k: round(v, 6) for k, v in timings.items()})
    return np_clustering, rel_clustering


# ---------------------------------------------------------------------------
# the full pipeline


def run_pipeline(config: PipelineConfig, out_dir=None) -> Path:
    """Execute all stages, writing artifacts and a manifest. Returns the
    run directory. A stage failure raises StageError naming the stage;
    artifacts written before the failure are kept."""
    config.validate()
    out = Path(out_dir or config.out_dir or "")
    if str(out) in ("", "."):
        raise ConfigError("an output directory is required (out_dir)")
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    kb = run_stage(timings, "ingest", ingest_stage, config, out)
    split = run_stage(timings, "split", split_stage, config, out, kb)
    side = run_stage(timings, "sideinfo", sideinfo_stage, config, out, kb)
    emb, word_vectors = run_stage(timings, "embed", embed_stage, config, out, kb, side)
    run_after_embed(config, out, kb, split, emb, timings, word_vectors)
    return out


# ---------------------------------------------------------------------------
# grid search


def _apply_overrides(config: PipelineConfig, overrides: Mapping[str, object]) -> PipelineConfig:
    doc = config.as_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        node = doc
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"grid key {path!r} does not address a config field")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"grid key {path!r} does not address a config field")
        node[parts[-1]] = value
    return config_from_dict(doc, base_dir=".")


def grid_search(
    config: PipelineConfig, grid: Mapping[str, Sequence], out_dir
) -> tuple[dict, list[dict]]:
    """Exhaustive product over the grid, ranked by validation mean F1.

    Grid keys are dotted config paths (e.g. ``hyperparams.learning_rate``,
    ``side.idf_cutoff``, ``np_threshold``). The inputs, the validation
    split and the output settings come from the base config, so a key in
    ``_FIXED_GRID_FIELDS`` is a ConfigError. ``seed`` varies training
    only: every point is scored on the base seed's validation split.
    Side information is cached across points with an identical side
    section, each vectors file is read once, and trained embeddings are
    cached across points that differ only in clustering settings. Ties
    keep the first point in enumeration order. Returns (best overrides,
    leaderboard rows) and persists both plus the winning config, whose
    out_dir is left null so that a run from it needs its own directory.
    """
    if not grid:
        raise ConfigError("grid is empty")
    fixed = sorted(set(grid) & set(_FIXED_GRID_FIELDS))
    if fixed:
        raise ConfigError(
            f"grid key(s) {fixed} are fixed by the base config and cannot vary"
        )
    for key, value in grid.items():
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"grid key {key!r} needs a list of values, got {value!r}")
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = sorted(grid)
    values = [list(grid[k]) for k in keys]
    if any(not v for v in values):
        raise ConfigError("every grid key needs at least one value")

    kb = load_triples(config.triples_file, TripleFormat(config.format))
    split = make_split(kb, config)
    val_np_ids = split.validation_ids[PhraseKind.NP]
    val_gold = split.validation_gold[PhraseKind.NP]

    vectors_cache: dict[str | None, WordVectors | None] = {}
    side_cache: dict[str, SideInfoCollection] = {}
    emb_cache: dict[str, EmbeddingSet] = {}
    rows: list[dict] = []
    table: list[tuple[str, MetricsReport]] = []
    best: dict | None = None
    best_score = -1.0

    for combo in itertools.product(*values):
        overrides = dict(zip(keys, combo))
        point = _apply_overrides(config, overrides)
        point.validate()
        h = point.effective_hyperparams()

        side_key = json.dumps(dataclasses.asdict(point.side), sort_keys=True)
        if side_key not in side_cache:
            side_cache[side_key] = assemble_side_info(kb, point.side)
        side = side_cache[side_key]

        emb_key = json.dumps(
            {"h": dataclasses.asdict(h), "side": side_key,
             "vectors": point.vectors_file},
            sort_keys=True, default=str,
        )
        if emb_key not in emb_cache:
            if point.vectors_file not in vectors_cache:
                vectors_cache[point.vectors_file] = (load_word_vectors(point.vectors_file, kb)
                                                     if point.vectors_file else None)
            init = init_embeddings(kb, vectors_cache[point.vectors_file], h.dim,
                                   default_init_rng(h.seed))
            emb_cache[emb_key] = train(kb, side, h, init)
        emb = emb_cache[emb_key]

        # One validation NP merge history tunes the NP threshold (a fixed one
        # is a one-value grid) and scores its cut; select_thresholds sets REL's.
        np_t, _, report = choose_threshold(
            val_np_ids, emb.np_vectors[val_np_ids], val_gold,
            point.threshold_grid if point.np_threshold is None else (point.np_threshold,))
        _, rel_t, _ = select_thresholds(emb, split,
                                        dataclasses.replace(point, np_threshold=np_t))
        score = report.mean_f1()
        row = {
            "overrides": overrides,
            "np_threshold": np_t,
            "rel_threshold": rel_t,
            "validation_mean_f1": score,
            "macro_f1": report.macro_f1,
            "micro_f1": report.micro_f1,
            "pair_f1": report.pair_f1,
        }
        rows.append(row)
        label = ",".join(f"{k}={overrides[k]}" for k in keys)
        table.append((label, report))
        if score > best_score:
            best, best_score = row, score
        logger.info("grid point %s: validation mean F1 %.4f", overrides, score)

    write_text(out / "leaderboard.txt", leaderboard_text(table))
    write_json(out / "leaderboard.json", rows)
    best_config = dataclasses.replace(_apply_overrides(config, best["overrides"]), out_dir=None)
    write_text(out / "best_config.yaml", yaml.safe_dump(best_config.as_dict(), sort_keys=True))
    return best["overrides"], rows


# ---------------------------------------------------------------------------
# file-level evaluation (CLI evaluate stage)


def evaluate_clusters_file(clusters_path, gold_path) -> MetricsReport:
    """Score a cluster artifact (JSON lines with a ``members`` list of
    surface texts) against a `phrase <TAB> gold_id` file. Phrases without a
    gold id are not scored; a malformed line of either file, or a phrase
    listed twice, raises ParseError."""
    clusters: list[frozenset[str]] = []
    seen: set[str] = set()
    for line_no, rec in read_jsonl(clusters_path):
        members = rec.get("members") if isinstance(rec, dict) else None
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise ParseError(clusters_path, line_no, "expected a `members` list of texts")
        for m in members:
            if m in seen:
                raise ParseError(clusters_path, line_no, f"phrase {m!r} repeats")
            seen.add(m)
        clusters.append(frozenset(members))
    gold = {text: gold_id for _, text, gold_id in read_gold_lines(gold_path)
            if gold_id is not None}
    return evaluate(clusters, gold)
