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

The trainer holds every vector as its rfft coefficients from
initialization to the end of the run (Hayashi & Shimbo 2017, On the
Equivalence of Holographic and Complex Embeddings). There correlation and
convolution are pointwise products and the score a weighted real part, so
no step takes a transform; the vectors come back by irfft once per epoch,
for the logged loss and the divergence check, and once at the end.
"""

from __future__ import annotations

import json
import logging
import math
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ParseError, TrainingDivergedError
from .kb import (
    OpenKB,
    PhraseKind,
    Triple,
    atomic_open,
    index_contains,
    read_lines,
    triple_keys,
    vocab_hash,
)
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
        for name, value, bound in (
                ("margin", self.effective_margin, "> 0"),
                ("learning_rate", self.learning_rate, "> 0"),
                ("lambda_str", self.lambda_str, ">= 0"),
                ("lambda_reg", self.lambda_reg, ">= 0"),
                ("lambda_side_default", self.lambda_side_default, ">= 0"),
                *((f"{table}.{src}", v, ">= 0")
                  for table in ("lambda_ent", "lambda_rel")
                  for src, v in getattr(self, table).items())):
            if not math.isfinite(value) or value < 0 or (value == 0 and bound == "> 0"):
                raise ConfigError(f"{name} must be a finite number {bound}, got {value}")
        if self.hinge not in HINGE_MODES:
            raise ConfigError(f"hinge must be one of {HINGE_MODES}, got {self.hinge!r}")
        if self.pairing not in PAIRING_MODES:
            raise ConfigError(
                f"pairing must be one of {PAIRING_MODES}, got {self.pairing!r}"
            )
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be >= 0")
        if self.threads != 1:
            raise ConfigError(
                f"threads must be 1 (training runs on one thread), got {self.threads}"
            )


@dataclass(frozen=True, eq=False)
class TrainingBatch:
    """b positive triples and the negatives that corrupt them, as index
    arrays: ``spo`` holds the (subject, relation, object) columns of the
    positives and then of the negatives, and ``owner[j]`` is the positive
    that negative j corrupts. ``positives`` and ``negatives`` read them as
    Triples."""

    spo: np.ndarray
    owner: np.ndarray
    b: int

    @property
    def positives(self) -> tuple[Triple, ...]:
        return tuple(Triple(triple_id=-1, subject=s, relation=p, object=o)
                     for s, p, o in self.spo[:, :self.b].T.tolist())

    @property
    def negatives(self) -> tuple[tuple[Triple, ...], ...]:
        groups: list[list[Triple]] = [[] for _ in range(self.b)]
        for i, (s, p, o) in zip(self.owner.tolist(), self.spo[:, self.b:].T.tolist()):
            groups[i].append(Triple(triple_id=-1, subject=s, relation=p, object=o))
        return tuple(map(tuple, groups))


# ---------------------------------------------------------------------------
# negative sampling


def _lemire(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw from [0, n), 1 < n <= 2**32, on uint32 values
    u (Lemire 2019, Fast Random Integer Generation in an Interval): u
    maps to (u·n) >> 32, and is redrawn when (u·n) mod 2**32 < 2**32 mod n.
    Returns (values, accepted mask)."""
    m = np.multiply(u, n, dtype=np.uint64)
    return (m >> 32).view(np.int64), m.astype(np.uint32) >= 2**32 % n


def make_batch(
    kb: OpenKB, rows: Sequence[int] | np.ndarray, k: int, rng: np.random.Generator
) -> TrainingBatch:
    """The KB's triples at positions ``rows`` as positives, with k
    negatives per positive. A negative corrupts the subject or the
    object (a fair coin) with an NP drawn uniformly from the vocabulary; a
    corruption that exists in the KB is redrawn, and a slot is skipped
    after NEGATIVE_RETRIES draws. The relation is never corrupted.

    The draws are those of a scalar loop over the slots in order that,
    per try, calls rng.integers(0, 2) for the coin and then
    rng.integers(0, n_nps). numpy makes both from one stream of uint32
    values: the coin is u >> 31, and the NP comes from `_lemire`. They are
    read here in blocks of two values per open slot, which that loop
    reads in any case, so the generator is left where the loop leaves it.
    A block is one try per slot up to the first try that hits the KB or
    needs a redrawn NP; that try is read one value at a time, and the
    next block starts after it."""
    pos = kb.spo[:, rows]
    owner = np.repeat(np.arange(pos.shape[1]), max(k, 0))
    n, n_rels = kb.n_nps, kb.n_rels
    width = 2 if n > 1 else 1  # rng.integers(0, 1) reads no value
    s, p, o = pos[:, owner]
    # the keys of (0, p, o) and (s, p, 0): a corrupted subject c adds c·n_rels·n,
    # a corrupted object c adds c
    keys_s, keys_o = triple_keys(0, p, o, n, n_rels), triple_keys(s, p, 0, n, n_rels)
    subject = np.zeros(len(owner), dtype=bool)
    cand = np.zeros(len(owner), dtype=np.int64)
    found = np.zeros(len(owner), dtype=bool)
    buf, at = np.empty(0, dtype=np.uint32), 0  # drawn values; the next unread one

    def peek(count: int) -> np.ndarray:
        nonlocal buf, at
        if len(buf) - at < count:
            more = rng.integers(0, 2**32, count - len(buf) + at, dtype=np.uint32)
            buf, at = (np.concatenate([buf[at:], more]) if at < len(buf) else more), 0
        return buf[at:at + count]

    def tries(slots: slice, u: np.ndarray):
        """(corrupt the subject, NP, NP accepted, hit) of one try per slot."""
        if width == 2:
            c, ok = _lemire(u[:, 1], n)
        else:
            c, ok = np.zeros(len(u), dtype=np.int64), np.ones(len(u), dtype=bool)
        coin = u[:, 0] >= 2**31
        keys = np.where(coin, keys_s[slots] + c * (n_rels * n), keys_o[slots] + c)
        return coin, c, ok, index_contains(kb, keys)

    slot = failed = 0  # the first open slot, and its tries that hit the KB
    while slot < len(owner):
        coin, c, ok, hit = tries(slice(slot, None),
                                 peek(width * (len(owner) - slot)).reshape(-1, width))
        stop = ~ok | hit
        done = int(stop.argmax())
        done = done if stop[done] else len(stop)
        new = slice(slot, slot + done)
        subject[new], cand[new], found[new] = coin[:done], c[:done], True
        at += width * done
        slot, failed = slot + done, failed if done == 0 else 0
        if slot == len(owner):
            break
        if ok[done]:
            at += width
        else:  # numpy redraws the NP, one value at a time
            u = peek(width).copy()
            at += width
            while not _lemire(u[1:], n)[1][0]:
                u[1] = peek(1)[0]
                at += 1
            coin, c, _, hit = tries(slice(slot, slot + 1), u[None])
            done = 0
        failed += 1
        if not hit[done]:
            subject[slot], cand[slot], found[slot] = coin[done], c[done], True
        if not hit[done] or failed == NEGATIVE_RETRIES:
            slot, failed = slot + 1, 0
    neg = np.stack([np.where(subject, cand, s), p, np.where(subject, o, cand)])
    return TrainingBatch(np.concatenate([pos, neg[:, found]], axis=1), owner[found],
                         pos.shape[1])


# ---------------------------------------------------------------------------
# objective and gradient

# The objective family below evaluates the written objective exactly: the
# ranking term over the given batch, side and regularization terms at full
# weight over the whole vocabulary. ``gradient`` and ``train`` share one
# step function, ``_step``, which works on rfft coefficients F = rfft(W)
# (numpy's default norm). There circular correlation and convolution are
# pointwise: rfft(s * o) = conj(S)·O and rfft of r convolved with s is
# R·S. A score is the Parseval sum Re(R·conj(conj(S)·O)) @ w, with w from
# `_parseval_weights`. rfft is linear, so the rfft of each spatial
# gradient piece is a product of the same coefficients, with no extra
# weights. gradient() rffts its EmbeddingSet, calls ``_step`` with the side
# terms at full weight, irffts and adds the L2 term; the trainer scales the
# side terms by the batch fraction, so that one epoch applies them at full
# weight exactly once, folds L2 in as a multiplicative decay, and lets
# ``_step`` add the update straight into its coefficients. The side terms
# of a kind arrive as one (ia, ib, w) pair array over all its sources.


def _hinge_pair_indices(owner: np.ndarray, b: int, pairing: str):
    """(pos index, neg index) arrays into the instance list (b positives,
    then the negatives), one row per hinge pair."""
    m = len(owner)
    if pairing == "per_positive":
        return owner, np.arange(b, b + m)
    return np.repeat(np.arange(b), m), np.tile(np.arange(b, b + m), b)


def _parseval_weights(d: int) -> np.ndarray:
    """w over the d // 2 + 1 rfft coefficients with x . y = Re(X·conj(Y)) @ w
    for real d-vectors x, y: 1/d for the mean term and, when d is even,
    the Nyquist term; 2/d for every other term, which stands for itself
    and its conjugate twin."""
    w = np.full(d // 2 + 1, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    return w


def _forward(FE: np.ndarray, FR: np.ndarray, d: int, batch: TrainingBatch,
             h: HyperParams, work: np.ndarray | None = None):
    """One forward pass over the batch's instances (positives, then
    negatives) on the coefficients. Returns ((S, O, Rr) gathered rows,
    C = conj(S)·O, (pos index, neg index), per-hinge-pair margins,
    d sig(eta)/d eta per instance). S, O, Rr and C are written into
    ``work`` (4 × at least as many rows as instances) when given."""
    s, p, o = batch.spo
    if work is None:
        work = np.empty((4, len(s), FE.shape[1]), dtype=complex)
    S, O, Rr, C = work[:, :len(s)]
    # mode="clip" gathers straight into ``out`` ("raise" buffers it first),
    # so the ids are range-checked once here instead
    if s.size and (batch.spo.min() < 0 or max(s.max(), o.max()) >= len(FE)
                   or p.max() >= len(FR)):
        raise IndexError("a batch id is outside the embedding rows")
    np.take(FE, s, axis=0, out=S, mode="clip")
    np.take(FE, o, axis=0, out=O, mode="clip")
    np.take(FR, p, axis=0, out=Rr, mode="clip")
    np.conjugate(S, out=C)
    C *= O
    eta = (Rr.view(float) * C.view(float)) @ np.repeat(_parseval_weights(d), 2)
    pos_idx, neg_idx = _hinge_pair_indices(batch.owner, batch.b, h.pairing)
    gamma = h.effective_margin
    if h.hinge == "sigmoid":
        sig = _sigmoid(eta)
        margins = gamma + sig[neg_idx] - sig[pos_idx]
        slopes = sig * (1.0 - sig)
    else:
        margins = gamma + eta[neg_idx] - eta[pos_idx]
        slopes = np.ones_like(eta)
    return (S, O, Rr), C, (pos_idx, neg_idx), margins, slopes


def _ranking_margins(E: np.ndarray, R: np.ndarray, batch: TrainingBatch,
                     h: HyperParams):
    """`_forward` at the vectors E and R."""
    return _forward(np.fft.rfft(E), np.fft.rfft(R), E.shape[1], batch, h)


def _side_pair_arrays(
    side: SideInfoCollection, kind: PhraseKind, h: HyperParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left ids, right ids, per-pair lambda/|Z|) over every source of
    ``kind`` with pairs and nonzero weight, concatenated in collection
    order."""
    sources = side.np_sources if kind is PhraseKind.NP else side.rel_sources
    used = [(src.pairs, lam / len(src)) for src in sources
            if (lam := h.lambda_for(kind, src.source_name)) != 0.0 and len(src)]
    ia, ib = np.concatenate([np.empty((0, 2), dtype=np.intp), *(p for p, _ in used)]).T
    return ia, ib, np.repeat([w for _, w in used], [len(p) for p, _ in used])


def _penalties(E: np.ndarray, R: np.ndarray, terms, h: HyperParams) -> tuple[float, float, float]:
    """(side_np, side_rel, reg): the objective's full-vocabulary terms at
    the vectors E, R, with ``terms`` the NP and REL `_side_pair_arrays`."""
    side = []
    for W, (ia, ib, w) in zip((E, R), terms):
        diff = W[ia] - W[ib]
        side.append(float(w @ np.einsum("ij,ij->i", diff, diff)))
    return (*side, h.lambda_reg * (float(np.sum(E * E)) + float(np.sum(R * R))))


def objective_terms(
    emb: EmbeddingSet, batch: TrainingBatch, side: SideInfoCollection, h: HyperParams
) -> dict[str, float]:
    """The four objective terms, separately."""
    E, R = emb.np_vectors, emb.rel_vectors
    margins = _ranking_margins(E, R, batch, h)[3]
    ranking = h.lambda_str * float(np.maximum(margins, 0.0).sum())
    terms = [_side_pair_arrays(side, kind, h) for kind in (PhraseKind.NP, PhraseKind.REL)]
    side_np, side_rel, reg = _penalties(E, R, terms, h)
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


def _scatter(at, G: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``at`` (np.add.at or np.subtract.at) of each row into row idx of G."""
    m = G.shape[1]
    at(G.reshape(-1), (idx[:, None] * m + np.arange(m)).ravel(), rows.ravel())


def _step(FE, FR, d: int, batch: TrainingBatch, h: HyperParams, terms,
          side_scale: float, out, scale: float, decay: float = 1.0, work=None):
    """``scale`` times the rfft of the gradient of lambda_str * ranking +
    side_scale * side terms (no L2) at the coefficients FE, FR, added into
    out = (G_np, G_rel) after out is multiplied by ``decay``. Hinge-active
    pairs contribute -sig'(eta_pos) through their positive and
    +sig'(eta_neg) through their negative (1 in raw mode) to d(loss)/d(eta);
    the subgradient at the kink is 0. With c that coefficient, subject rows
    get c·conj(R)·O, object rows c·R·S and relation rows c·C; a side pair
    (a, b) of weight w gets 2·w·side_scale·(F[a] - F[b]) added at a and
    subtracted at b. The gathered rows become these pieces in place, and
    each is scattered once built. Everything is read before out is
    written, so out may be (FE, FR), which is the trainer's update.
    Returns (ranking loss, hinge-active mask)."""
    (S, O, Rr), C, (pos_idx, neg_idx), margins, slopes = _forward(FE, FR, d, batch, h, work)
    active = margins > 0.0
    pa, na = pos_idx[active], neg_idx[active]
    coef = np.bincount(np.concatenate([pa, na]),
                       weights=np.concatenate([-slopes[pa], slopes[na]]), minlength=len(C))
    c = (scale * h.lambda_str * coef)[:, None]
    G_np, G_rel = out
    sides = [(G, ia, ib, F[ia] - F[ib], 2.0 * scale * side_scale * w)
             for G, F, (ia, ib, w) in zip(out, (FE, FR), terms)]
    G_np *= decay
    G_rel *= decay
    s, p, o = batch.spo
    S *= Rr
    S *= c
    _scatter(np.add.at, G_np, o, S)
    np.conjugate(Rr, out=Rr)
    O *= Rr
    O *= c
    _scatter(np.add.at, G_np, s, O)
    C *= c
    _scatter(np.add.at, G_rel, p, C)
    for G, ia, ib, diff, w in sides:
        diff *= w[:, None]
        _scatter(np.add.at, G, ia, diff)
        _scatter(np.subtract.at, G, ib, diff)
    loss = h.lambda_str * float(np.maximum(margins, 0.0).sum())
    return loss, active


def gradient(
    emb: EmbeddingSet, batch: TrainingBatch, side: SideInfoCollection, h: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``objective`` with respect to every vector;
    returns (d/d np_vectors, d/d rel_vectors)."""
    E, R = emb.np_vectors, emb.rel_vectors
    FE, FR = np.fft.rfft(E), np.fft.rfft(R)
    G = (np.zeros_like(FE), np.zeros_like(FR))
    terms = [_side_pair_arrays(side, kind, h) for kind in (PhraseKind.NP, PhraseKind.REL)]
    _step(FE, FR, emb.dim, batch, h, terms, 1.0, G, 1.0)
    g_np, g_rel = (np.fft.irfft(g, n=emb.dim) for g in G)
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


WordVectors = tuple[dict[str, np.ndarray], int]
"""A word-vector table and its dimension, as `load_word_vectors` returns them."""


# Characters of vectors-file rows that numpy's C text reader
# (`np.loadtxt`) converts at once. It holds a chunk as 4-byte characters
# beside the chunk's strings: 1 MB chunks raised the loader's peak RSS by
# 3.6 MB, 64 KB chunks by 0.4 MB, and both ran as fast.
_VECTOR_CHUNK = 1 << 16
# The numpy reader strips these four separators around an entry as
# whitespace, where float() refuses the entry; a chunk holding one is
# parsed line by line.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def load_word_vectors(path, kb: OpenKB | None = None) -> WordVectors:
    """Read `token v_1 ... v_d` lines; all rows must share one dimension.
    Trailing whitespace is ignored, and a first line of exactly two
    integers is a word2vec / fastText `count dim` header whose count and
    dim the rows must match. Every row is parsed and checked; given a KB,
    only the rows whose token occurs in one of its phrases under
    `tokenize` (the only rows `wordvec_phrase_embedding` can look up) are
    kept. The entries are converted about ``_VECTOR_CHUNK`` characters of
    rows at a time by `np.loadtxt`, whose C reader calls the string to
    double routine of float(); a chunk it refuses, whose width is not the
    file's, or with a tab in a token is parsed one line at a time, with
    float()'s values and errors, so every entry float() accepts loads and
    every other one, or a tab in a token, is a ParseError naming its line."""
    keep = None if kb is None else {
        t for p in (*kb.np_vocab, *kb.rel_vocab) for t in tokenize(p.text)}
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    dim_from = ""
    count: int | None = None
    rows = 0
    chunk: list[tuple[int, str]] = []  # (line number, line without trailing whitespace)
    size = 0

    def convert() -> None:
        nonlocal dim, dim_from, rows
        tokens, _, entries = zip(*(line.partition(" ") for _, line in chunk))
        M = _loadtxt(entries)
        if M is None or dim is not None and M.shape[1] != dim or "\t" in "".join(tokens):
            M = []
            for line_no, line in chunk:
                vec = _vector_row(path, line_no, line)
                if dim is None:
                    dim, dim_from = len(vec), "first row"
                elif len(vec) != dim:
                    raise ParseError(path, line_no, f"dimension {len(vec)} != {dim_from}'s {dim}")
                M.append(vec)
            M = np.array(M)
        elif dim is None:
            dim, dim_from = M.shape[1], "first row"
        rows += len(M)
        if keep is not None:
            at = [k for k, t in enumerate(tokens) if t in keep]
            tokens, M = [tokens[k] for k in at], M[at]
        vectors.update(zip(tokens, M))
        chunk.clear()

    for line_no, line in read_lines(path):
        line = line.rstrip()
        if line_no == 1:
            parts = line.split(" ")
            if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                count, dim, dim_from = int(parts[0]), int(parts[1]), "header"
                continue
        if line:
            chunk.append((line_no, line))
            size += len(line)
            if size >= _VECTOR_CHUNK:
                convert()
                size = 0
    if chunk:
        convert()
    if not rows:
        raise ParseError(path, 1, "vectors file is empty")
    if count is not None and count != rows:
        raise ParseError(path, 1, f"the header counts {count} rows, the file holds {rows}")
    return vectors, dim


def _loadtxt(entries: Sequence[str]) -> np.ndarray | None:
    """The rows of ``entries`` (space-separated numbers) converted by
    numpy's C text reader, or None where it refuses them or where float()
    might refuse an entry it accepts."""
    text = "".join(entries)
    if not all(entries) or any(c in text for c in _NOT_FLOAT_SPACE):
        return None
    try:
        return np.loadtxt(entries, comments=None, delimiter=" ", ndmin=2)
    except ValueError:
        return None


def _vector_row(path, line_no: int, line: str) -> np.ndarray:
    """The vector of one `token v_1 ... v_d` line (trailing whitespace
    stripped), each entry converted by float(); a line with no entry, a
    tab in its token or an entry float() refuses is a ParseError naming it."""
    parts = line.split(" ")
    if len(parts) < 2 or "\t" in parts[0]:
        raise ParseError(path, line_no, "expected 'token v_1 ... v_d' separated by single spaces")
    try:
        # numpy converts each str with float(): same values, same errors
        return np.array(parts[1:], dtype=float)
    except ValueError as e:
        raise ParseError(path, line_no, f"non-numeric vector entry: {e}") from e


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
    kb: OpenKB, word_vectors: WordVectors | None, d: int, rng: np.random.Generator
) -> EmbeddingSet:
    """`average_word_vectors` over a `load_word_vectors` table, or over an
    empty table (every phrase drawn at random) when none is given."""
    table: Mapping[str, np.ndarray] = {}
    if word_vectors is not None:
        table, file_dim = word_vectors
        if file_dim != d:
            raise ConfigError(
                f"vectors file dimension {file_dim} does not match configured dim {d}"
            )
    return average_word_vectors(kb, table, d, rng)


def save_embeddings(emb: EmbeddingSet, path, seed: int, kb: OpenKB) -> None:
    meta = {"version": 1, "dim": emb.dim, "seed": seed, "vocab_hash": vocab_hash(kb)}
    # through a handle, so numpy writes the temporary file and adds no suffix
    with atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            np_vectors=emb.np_vectors,
            rel_vectors=emb.rel_vectors,
            meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                               dtype=np.uint8),
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
    applies one SGD step per batch to the rfft coefficients of the
    vectors. The loss and gradient come from the same step function as
    ``gradient``: the ranking gradient enters at full weight; side and
    regularization gradients are scaled by the batch fraction so an epoch
    applies each exactly once (regularization is folded in as an
    equivalent multiplicative decay). Side penalties and regularization
    consume no randomness, so the random stream depends only on the KB and
    the sampling hyperparameters, and the run is bit-reproducible under a
    fixed seed.
    """
    h.validate()
    if init.np_vectors.shape[0] != kb.n_nps or init.rel_vectors.shape[0] != kb.n_rels:
        raise ConfigError("init embeddings do not cover the vocabulary")
    if init.dim != h.dim:
        raise ConfigError(f"init dim {init.dim} does not match hyperparams dim {h.dim}")
    FE, FR = np.fft.rfft(init.np_vectors), np.fft.rfft(init.rel_vectors)
    n = len(kb.triples)
    k = h.negatives_per_positive
    rng_shuffle = np.random.default_rng([h.seed, 1])
    rng_neg = np.random.default_rng([h.seed, 2])
    terms = [_side_pair_arrays(side, kind, h) for kind in (PhraseKind.NP, PhraseKind.REL)]
    # the step's gathered rows, allocated once: a batch has at most this many instances
    work = np.empty((4, min(h.batch_size, n) * (1 + k), h.dim // 2 + 1), dtype=complex)
    lr = h.learning_rate
    log_fh = open(log_file, "w", encoding="utf-8") if log_file else None
    try:
        for epoch in range(h.epochs):
            t0 = time.perf_counter()
            order = rng_shuffle.permutation(n)
            ranking_loss = 0.0
            skipped = active_pairs = pairs = 0
            for start in range(0, n, h.batch_size):
                rows = order[start:start + h.batch_size]
                batch = make_batch(kb, rows, k, rng_neg)
                skipped += k * len(rows) - len(batch.owner)
                frac = len(rows) / n
                decay = 1.0 - 2.0 * lr * h.lambda_reg * frac
                loss, active = _step(FE, FR, h.dim, batch, h, terms, frac, (FE, FR), -lr,
                                     decay, work)
                ranking_loss += loss
                active_pairs += int(active.sum())
                pairs += active.size
            E, R = np.fft.irfft(FE, n=h.dim), np.fft.irfft(FR, n=h.dim)
            side_np, side_rel, reg = _penalties(E, R, terms, h)
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
    return EmbeddingSet(np_vectors=np.fft.irfft(FE, n=h.dim),
                        rel_vectors=np.fft.irfft(FR, n=h.dim), dim=h.dim)
