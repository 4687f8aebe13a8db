"""Joint embedding of NPs and relation phrases.

Triples are scored holographically: eta = r_p . (e_s * e_o) where * is
circular correlation. Training minimizes a pairwise ranking hinge over
observed vs corrupted triples, plus squared-distance penalties pulling
side-information pairs together, plus L2 regularization:

    lambda_str * sum max(0, gamma + sig(eta_neg) - sig(eta_pos))
  + sum_sources  lambda_src / |Z_src| * sum_(v,v') ||e_v - e_v'||^2
  + lambda_reg * (sum ||e_v||^2 + sum ||r_u||^2)

sig is the logistic function. Because sig ranges in (0, 1), a margin
gamma >= 1 keeps the hinge permanently active; the default margin is
therefore 0.5 under the logistic hinge, while a raw-score hinge variant
(no sigmoid, margin 1.0) is available behind config.
"""

from __future__ import annotations

import json
import logging
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError, TrainingDivergedError
from .kb import OpenKB, PhraseKind, Triple, vocab_hash
from .side_info import SideInfoCollection, tokenize

logger = logging.getLogger(__name__)

HINGE_MODES = ("sigmoid", "raw")
PAIRING_MODES = ("per_positive", "cross_product")
NEGATIVE_RETRIES = 20


# ---------------------------------------------------------------------------
# circular correlation


def circular_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct evaluation of [a * b]_k = sum_i a_i b_((k+i) mod d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length 1-d vectors, got {a.shape} and {b.shape}")
    d = a.shape[0]
    idx = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d
    return b[idx] @ a


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class EmbeddingSet:
    """The optimization parameters: one d-vector per NP and per relation
    phrase, indexed by phrase id (ids are contiguous per kind)."""

    np_vectors: np.ndarray
    rel_vectors: np.ndarray
    dim: int

    def __post_init__(self):
        for name, arr in (("np_vectors", self.np_vectors),
                          ("rel_vectors", self.rel_vectors)):
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise ValueError(f"{name} must have shape (n, {self.dim})")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        self.np_vectors.setflags(write=False)
        self.rel_vectors.setflags(write=False)

    def vectors(self, kind: PhraseKind) -> np.ndarray:
        return self.np_vectors if kind is PhraseKind.NP else self.rel_vectors


@dataclass(frozen=True)
class HyperParams:
    """All training constants. ``margin`` defaults per hinge mode: 0.5 for
    the logistic hinge, 1.0 for the raw-score hinge."""

    dim: int = 300
    margin: float | None = None
    hinge: str = "sigmoid"
    pairing: str = "per_positive"
    lambda_str: float = 1.0
    lambda_ent: Mapping[str, float] = field(default_factory=dict)
    lambda_rel: Mapping[str, float] = field(default_factory=dict)
    lambda_side_default: float = 0.1
    lambda_reg: float = 1e-4
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 100
    negatives_per_positive: int = 2
    seed: int = 0
    # Training runs on one thread; the field stays so that configs which
    # set it still load, and 1 is its only valid value.
    threads: int = 1

    @property
    def effective_margin(self) -> float:
        if self.margin is not None:
            return self.margin
        return 0.5 if self.hinge == "sigmoid" else 1.0

    def lambda_for(self, kind: PhraseKind, source_name: str) -> float:
        table = self.lambda_ent if kind is PhraseKind.NP else self.lambda_rel
        return table.get(source_name, self.lambda_side_default)

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.effective_margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.effective_margin}")
        if self.hinge not in HINGE_MODES:
            raise ConfigError(f"hinge must be one of {HINGE_MODES}, got {self.hinge!r}")
        if self.pairing not in PAIRING_MODES:
            raise ConfigError(
                f"pairing must be one of {PAIRING_MODES}, got {self.pairing!r}"
            )
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0")
        if self.threads != 1:
            raise ConfigError(
                f"threads must be 1 (training runs on one thread), got {self.threads}"
            )
        for name, value in (("lambda_str", self.lambda_str),
                            ("lambda_reg", self.lambda_reg),
                            ("lambda_side_default", self.lambda_side_default)):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0")
        for table in (self.lambda_ent, self.lambda_rel):
            for src, value in table.items():
                if value < 0:
                    raise ConfigError(f"lambda for source {src!r} must be >= 0")


@dataclass(frozen=True)
class TrainingBatch:
    """Positive triples with negatives aligned per positive."""

    positives: tuple[Triple, ...]
    negatives: tuple[tuple[Triple, ...], ...]

    def __post_init__(self):
        if len(self.positives) != len(self.negatives):
            raise ValueError("negatives must align one list per positive")


# ---------------------------------------------------------------------------
# scoring and sampling


def score_triple(emb: EmbeddingSet, s: int, p: int, o: int) -> float:
    """eta = r_p . (e_s * e_o)."""
    corr = circular_correlation(emb.np_vectors[s], emb.np_vectors[o])
    return float(np.dot(emb.rel_vectors[p], corr))


def sample_negatives(kb: OpenKB, t: Triple, k: int, rng: np.random.Generator) -> list[Triple]:
    """Corrupt the subject or the object (uniform choice) with an NP drawn
    uniformly from the vocabulary; corruptions that exist in the KB are
    rejected and redrawn, and a slot is skipped after NEGATIVE_RETRIES
    draws. The relation is never corrupted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = kb.n_nps
    out: list[Triple] = []
    for _ in range(k):
        for _ in range(NEGATIVE_RETRIES):
            corrupt_subject = bool(rng.integers(0, 2))
            cand = int(rng.integers(0, n))
            if corrupt_subject:
                spo = (cand, t.relation, t.object)
            else:
                spo = (t.subject, t.relation, cand)
            if spo not in kb.triple_index:
                out.append(
                    Triple(triple_id=-1, subject=spo[0], relation=spo[1], object=spo[2])
                )
                break
    return out


def make_batch(
    kb: OpenKB, positives: Sequence[Triple], k: int, rng: np.random.Generator
) -> TrainingBatch:
    negs = tuple(
        tuple(sample_negatives(kb, t, k, rng)) if k >= 1 else ()
        for t in positives
    )
    return TrainingBatch(tuple(positives), negs)


# ---------------------------------------------------------------------------
# objective and gradient

# The objective family below evaluates the written objective exactly: the
# ranking term over the given batch, side and regularization terms at full
# weight over the whole vocabulary. ``gradient`` and ``train`` share one
# step function, ``_step``: gradient() calls it with the side terms at full
# weight and adds the L2 term; the trainer scales the side terms by the
# batch fraction, so that one epoch applies them at full weight exactly
# once, and folds L2 in as a multiplicative decay. The side terms of a
# kind arrive as one (ia, ib, w) pair array over all its sources, and
# ``_step`` keeps one gradient buffer per kind: every ranking and side
# piece is added into it in place with ``np.add.at`` on the flat view.


def _flatten_negatives(batch: TrainingBatch) -> tuple[list[Triple], list[int]]:
    negs = [t for group in batch.negatives for t in group]
    owner = [i for i, group in enumerate(batch.negatives) for _ in group]
    return negs, owner


def _spo_arrays(triples: Sequence[Triple]):
    s = np.fromiter((t.subject for t in triples), dtype=np.intp, count=len(triples))
    p = np.fromiter((t.relation for t in triples), dtype=np.intp, count=len(triples))
    o = np.fromiter((t.object for t in triples), dtype=np.intp, count=len(triples))
    return s, p, o


def _hinge_pair_indices(owner: list[int], b: int, pairing: str):
    """(pos index, neg index) arrays into the instance list (b positives,
    then the flattened negatives), one row per hinge pair."""
    m = len(owner)
    if pairing == "per_positive":
        return np.asarray(owner, dtype=np.intp), np.arange(b, b + m, dtype=np.intp)
    pos_idx = np.repeat(np.arange(b, dtype=np.intp), m)
    neg_idx = np.tile(np.arange(b, b + m, dtype=np.intp), b)
    return pos_idx, neg_idx


def _ranking_margins(
    E: np.ndarray, R: np.ndarray, batch: TrainingBatch, h: HyperParams
):
    """One forward pass over the batch: positives then flattened negatives
    as instances, each row transformed once by rfft. Returns
    ((s, p, o), (F_s, F_o, F_r, e_s * e_o), (pos index, neg index),
    per-hinge-pair margins, d sig(eta)/d eta per instance)."""
    negs, owner = _flatten_negatives(batch)
    b = len(batch.positives)
    s, p, o = _spo_arrays(batch.positives + tuple(negs))
    Fs, Fo, Fr = (np.fft.rfft(W[i], axis=1) for W, i in ((E, s), (E, o), (R, p)))
    corr_so = np.fft.irfft(np.conj(Fs) * Fo, n=E.shape[1], axis=1)
    eta = np.einsum("ij,ij->i", R[p], corr_so)
    pos_idx, neg_idx = _hinge_pair_indices(owner, b, h.pairing)
    gamma = h.effective_margin
    if h.hinge == "sigmoid":
        sig = _sigmoid(eta)
        margins = gamma + sig[neg_idx] - sig[pos_idx]
        slopes = sig * (1.0 - sig)
    else:
        margins = gamma + eta[neg_idx] - eta[pos_idx]
        slopes = np.ones_like(eta)
    return (s, p, o), (Fs, Fo, Fr, corr_so), (pos_idx, neg_idx), margins, slopes


def _side_pair_arrays(
    side: SideInfoCollection, kind: PhraseKind, h: HyperParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left ids, right ids, per-pair lambda/|Z|) over every source of
    ``kind`` with pairs and nonzero weight, concatenated in collection
    order."""
    sources = side.np_sources if kind is PhraseKind.NP else side.rel_sources
    pairs, weights = [], []
    for src in sources:
        lam = h.lambda_for(kind, src.source_name)
        if lam != 0.0 and src.pairs:
            pairs += sorted(src.pairs)
            weights += [lam / len(src.pairs)] * len(src.pairs)
    ia, ib = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    return ia, ib, np.asarray(weights, dtype=float)


def _side_loss(W: np.ndarray, terms) -> float:
    ia, ib, w = terms
    diff = W[ia] - W[ib]
    return float(w @ np.einsum("ij,ij->i", diff, diff))


def objective_terms(
    emb: EmbeddingSet, batch: TrainingBatch, side: SideInfoCollection, h: HyperParams
) -> dict[str, float]:
    """The four objective terms, separately."""
    E, R = emb.np_vectors, emb.rel_vectors
    margins = _ranking_margins(E, R, batch, h)[3]
    ranking = h.lambda_str * float(np.maximum(margins, 0.0).sum())
    side_np = _side_loss(E, _side_pair_arrays(side, PhraseKind.NP, h))
    side_rel = _side_loss(R, _side_pair_arrays(side, PhraseKind.REL, h))
    reg = h.lambda_reg * (float(np.sum(E * E)) + float(np.sum(R * R)))
    return {
        "ranking": ranking,
        "side_np": side_np,
        "side_rel": side_rel,
        "reg": reg,
        "total": ranking + side_np + side_rel + reg,
    }


def objective(
    emb: EmbeddingSet, batch: TrainingBatch, side: SideInfoCollection, h: HyperParams
) -> float:
    return objective_terms(emb, batch, side, h)["total"]


def _step(E, R, batch: TrainingBatch, h: HyperParams, np_terms, rel_terms,
          side_scale: float):
    """Loss and gradient of lambda_str * ranking + side_scale * side terms
    (no L2) from one forward pass. Hinge-active pairs contribute
    -sig'(eta_pos) through their positive and +sig'(eta_neg) through their
    negative (1 in raw mode) to d(loss)/d(eta); the subgradient at the
    kink is 0. With c that coefficient, g_r += c (e_s * e_o),
    g_es += c (r * e_o) and g_eo += c (r conv e_s). Each kind has one
    zeroed gradient buffer, and every ranking and side piece is added into
    it in place. Returns (ranking loss, g_np, g_rel, hinge-active mask)."""
    (s, p, o), (Fs, Fo, Fr, corr_so), (pos_idx, neg_idx), margins, slopes = (
        _ranking_margins(E, R, batch, h))
    active = margins > 0.0
    pa, na = pos_idx[active], neg_idx[active]
    coef = np.bincount(np.concatenate([pa, na]),
                       weights=np.concatenate([-slopes[pa], slopes[na]]), minlength=len(s))
    c = (h.lambda_str * coef)[:, None]
    corr_ro = np.fft.irfft(np.conj(Fr) * Fo, n=E.shape[1], axis=1)
    conv_rs = np.fft.irfft(Fr * Fs, n=E.shape[1], axis=1)
    for rows in (corr_so, corr_ro, conv_rs):
        rows *= c
    g_np, g_rel = np.zeros_like(E), np.zeros_like(R)
    pieces = [(g_np, s, corr_ro), (g_np, o, conv_rs), (g_rel, p, corr_so)]
    for g, W, (ia, ib, w) in ((g_np, E, np_terms), (g_rel, R, rel_terms)):
        diff = (2.0 * w * side_scale)[:, None] * (W[ia] - W[ib])
        pieces += [(g, ia, diff), (g, ib, -diff)]
    d = E.shape[1]
    for g, idx, rows in pieces:
        np.add.at(g.reshape(-1), (idx[:, None] * d + np.arange(d)).ravel(), rows.ravel())
    loss = h.lambda_str * float(np.maximum(margins, 0.0).sum())
    return loss, g_np, g_rel, active


def gradient(
    emb: EmbeddingSet, batch: TrainingBatch, side: SideInfoCollection, h: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``objective`` with respect to every vector;
    returns (d/d np_vectors, d/d rel_vectors)."""
    E, R = emb.np_vectors, emb.rel_vectors
    _, g_np, g_rel, _ = _step(E, R, batch, h, _side_pair_arrays(side, PhraseKind.NP, h),
                              _side_pair_arrays(side, PhraseKind.REL, h), 1.0)
    g_np += 2.0 * h.lambda_reg * E
    g_rel += 2.0 * h.lambda_reg * R
    return g_np, g_rel


# ---------------------------------------------------------------------------
# initialization


def default_init_rng(seed: int) -> np.random.Generator:
    """The initialization random stream. Training draws from separate
    streams ([seed, 1] for shuffling, [seed, 2] for negative sampling), so
    initialization consumption is identical across configurations that
    share a seed."""
    return np.random.default_rng([seed, 0])


def load_word_vectors(path) -> tuple[dict[str, np.ndarray], int]:
    """Read `token v_1 ... v_d` lines; all rows must share one dimension.
    Trailing whitespace is ignored, and a first line of exactly two
    integers is a word2vec / fastText `count dim` header whose dim the
    rows must match."""
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip().split(" ")
            if line_no == 1 and len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                dim, dim_from = int(parts[1]), "header"
                continue
            if len(parts) < 2:
                if not line.strip():
                    continue
                raise ParseError(path, line_no, "expected 'token v_1 ... v_d'")
            try:
                vec = np.asarray([float(x) for x in parts[1:]], dtype=float)
            except ValueError as e:
                raise ParseError(path, line_no, f"non-numeric vector entry: {e}") from e
            if dim is None:
                dim, dim_from = vec.shape[0], "first row"
            elif vec.shape[0] != dim:
                raise ParseError(
                    path, line_no, f"dimension {vec.shape[0]} != {dim_from}'s {dim}"
                )
            vectors[parts[0]] = vec
    if not vectors:
        raise ParseError(path, 1, "vectors file is empty")
    return vectors, dim


def wordvec_phrase_embedding(
    phrase: str, word_vectors: Mapping[str, np.ndarray], d: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mean of the phrase tokens' vectors over tokens present in the
    table; a phrase with no known token draws uniformly from
    [-0.1/sqrt(d), 0.1/sqrt(d)]."""
    found = [word_vectors[t] for t in tokenize(phrase) if t in word_vectors]
    if found:
        return np.mean(found, axis=0)
    bound = 0.1 / np.sqrt(d)
    return rng.uniform(-bound, bound, size=d)


def average_word_vectors(
    kb: OpenKB, word_vectors: Mapping[str, np.ndarray], d: int,
    rng: np.random.Generator,
) -> EmbeddingSet:
    """`wordvec_phrase_embedding` of every phrase. Phrases are visited in
    vocabulary order, NPs before relations, so the random stream is
    consumed deterministically."""

    def stack(vocab) -> np.ndarray:
        if not vocab:
            return np.zeros((0, d))
        return np.stack([wordvec_phrase_embedding(p.text, word_vectors, d, rng)
                         for p in vocab])

    return EmbeddingSet(np_vectors=stack(kb.np_vocab), rel_vectors=stack(kb.rel_vocab), dim=d)


def init_embeddings(
    kb: OpenKB, vectors_file, d: int, rng: np.random.Generator
) -> EmbeddingSet:
    """`average_word_vectors` over the vectors file's table, or over an
    empty table (every phrase drawn at random) when no file is given."""
    wv: dict[str, np.ndarray] = {}
    if vectors_file is not None:
        wv, file_dim = load_word_vectors(vectors_file)
        if file_dim != d:
            raise ConfigError(
                f"vectors file dimension {file_dim} does not match configured dim {d}"
            )
    return average_word_vectors(kb, wv, d, rng)


def save_embeddings(emb: EmbeddingSet, path, seed: int, kb: OpenKB) -> None:
    meta = {"version": 1, "dim": emb.dim, "seed": seed, "vocab_hash": vocab_hash(kb)}
    np.savez_compressed(
        path,
        np_vectors=emb.np_vectors,
        rel_vectors=emb.rel_vectors,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8),
    )


def load_embeddings(path, kb: OpenKB) -> tuple[EmbeddingSet, dict]:
    """Read a ``save_embeddings`` checkpoint trained on the KB's vocabulary
    (else a ConfigError); a damaged one raises ParseError naming the file."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            emb = EmbeddingSet(
                np_vectors=data["np_vectors"].copy(),
                rel_vectors=data["rel_vectors"].copy(),
                dim=int(meta["dim"]),
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, TypeError, ValueError) as e:
        raise ParseError(path, None, f"not an embeddings checkpoint: {e!r}") from e
    if meta.get("vocab_hash") != vocab_hash(kb):
        raise ConfigError(
            f"{path}: embedding checkpoint was trained on a different vocabulary "
            f"(hash {meta.get('vocab_hash')!r} != expected {vocab_hash(kb)!r})"
        )
    return emb, meta


# ---------------------------------------------------------------------------
# training


def train(
    kb: OpenKB,
    side: SideInfoCollection,
    h: HyperParams,
    init: EmbeddingSet,
    log_file=None,
) -> EmbeddingSet:
    """Seeded mini-batch gradient descent on the full objective.

    Each epoch shuffles the triples, samples fresh negatives per batch, and
    applies one SGD step per batch. The loss and gradient come from the
    same step function as ``gradient``: the ranking gradient enters at full
    weight; side and regularization gradients are scaled by the batch
    fraction so an epoch applies each exactly once (regularization is
    folded in as an equivalent multiplicative decay). Side penalties and
    regularization consume no randomness, so the random stream depends only
    on the KB and the sampling hyperparameters, and the run is
    bit-reproducible under a fixed seed.
    """
    h.validate()
    if init.np_vectors.shape[0] != kb.n_nps or init.rel_vectors.shape[0] != kb.n_rels:
        raise ConfigError("init embeddings do not cover the vocabulary")
    if init.dim != h.dim:
        raise ConfigError(f"init dim {init.dim} does not match hyperparams dim {h.dim}")
    E = init.np_vectors.copy()
    R = init.rel_vectors.copy()
    n = len(kb.triples)
    rng_shuffle = np.random.default_rng([h.seed, 1])
    rng_neg = np.random.default_rng([h.seed, 2])
    np_terms = _side_pair_arrays(side, PhraseKind.NP, h)
    rel_terms = _side_pair_arrays(side, PhraseKind.REL, h)
    lr = h.learning_rate
    log_fh = open(log_file, "w", encoding="utf-8") if log_file else None
    try:
        for epoch in range(h.epochs):
            t0 = time.perf_counter()
            order = rng_shuffle.permutation(n)
            ranking_loss = 0.0
            skipped = active_pairs = pairs = 0
            for start in range(0, n, h.batch_size):
                idx = order[start:start + h.batch_size]
                positives = [kb.triples[i] for i in idx]
                batch = make_batch(kb, positives, h.negatives_per_positive, rng_neg)
                skipped += sum(
                    h.negatives_per_positive - len(g) for g in batch.negatives
                )
                frac = len(positives) / n
                loss, g_np, g_rel, active = _step(E, R, batch, h, np_terms, rel_terms, frac)
                ranking_loss += loss
                active_pairs += int(active.sum())
                pairs += active.size
                decay = 1.0 - 2.0 * lr * h.lambda_reg * frac
                E *= decay
                R *= decay
                E -= lr * g_np
                R -= lr * g_rel
            side_np = _side_loss(E, np_terms)
            side_rel = _side_loss(R, rel_terms)
            reg = h.lambda_reg * (float(np.sum(E * E)) + float(np.sum(R * R)))
            total = ranking_loss + side_np + side_rel + reg
            if not np.isfinite(total) or not np.isfinite(E).all() or not np.isfinite(R).all():
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}: ranking={ranking_loss}, "
                    f"side_np={side_np}, side_rel={side_rel}, reg={reg}; "
                    "reduce the learning rate"
                )
            record = {
                "epoch": epoch,
                "ranking": ranking_loss,
                "side_np": side_np,
                "side_rel": side_rel,
                "reg": reg,
                "total": total,
                "negatives_skipped": skipped,
                "hinge_active_fraction": active_pairs / pairs if pairs else 0.0,
                "wall_time_s": round(time.perf_counter() - t0, 6),
            }
            if log_fh:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            logger.debug("epoch %d: loss %.6f", epoch, total)
    finally:
        if log_fh:
            log_fh.close()
    return EmbeddingSet(np_vectors=E, rel_vectors=R, dim=h.dim)
