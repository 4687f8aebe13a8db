"""Joint canonicalization of noun and relation phrases in open KBs.

The package learns phrase embeddings with a circular-correlation scoring
model, softly constrained by equivalence evidence gathered from the KB
itself and from external resources, then clusters phrases by complete-
linkage agglomeration over cosine distance and rewrites every triple with
its cluster representatives.
"""

from __future__ import annotations

# defined before the submodules are imported: the pipeline writes it into
# every manifest
__version__ = "0.1.0"

from .baselines import BaselineConfig, BaselineName, run_baseline
from .canonicalize import (
    Cluster,
    Clustering,
    choose_threshold,
    cluster_phrases,
    canonicalize_kb,
    hac_complete_linkage,
)
from .embedding import (
    EmbeddingSet,
    HyperParams,
    circular_correlation,
    init_embeddings,
    train,
)
from .errors import (
    ConfigError,
    EmptyKBError,
    InvariantViolation,
    KBCanonError,
    MetricsUndefinedError,
    ParseError,
    StageError,
    TrainingDivergedError,
    ZeroVectorError,
)
from .kb import (
    GoldClustering,
    OpenKB,
    Phrase,
    PhraseKind,
    Triple,
    build_kb,
    load_gold,
    load_triples,
    split_validation,
)
from .metrics import MetricsReport, evaluate
from .pipeline import PipelineConfig, grid_search, load_config, run_pipeline
from .side_info import (
    SideInfoCollection,
    SideInfoConfig,
    assemble_side_info,
    morph_normalize,
)
from .synth import SyntheticKB, make_synthetic_kb

__all__ = [
    "BaselineConfig",
    "BaselineName",
    "Cluster",
    "Clustering",
    "ConfigError",
    "EmbeddingSet",
    "EmptyKBError",
    "GoldClustering",
    "HyperParams",
    "InvariantViolation",
    "KBCanonError",
    "MetricsReport",
    "MetricsUndefinedError",
    "OpenKB",
    "ParseError",
    "Phrase",
    "PhraseKind",
    "PipelineConfig",
    "SideInfoCollection",
    "SideInfoConfig",
    "StageError",
    "SyntheticKB",
    "TrainingDivergedError",
    "Triple",
    "ZeroVectorError",
    "assemble_side_info",
    "build_kb",
    "canonicalize_kb",
    "choose_threshold",
    "circular_correlation",
    "cluster_phrases",
    "evaluate",
    "grid_search",
    "hac_complete_linkage",
    "init_embeddings",
    "load_config",
    "load_gold",
    "load_triples",
    "make_synthetic_kb",
    "morph_normalize",
    "run_baseline",
    "run_pipeline",
    "split_validation",
    "train",
    "__version__",
]
