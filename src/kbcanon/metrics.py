"""Clustering-vs-gold evaluation: macro, micro, and pairwise P/R/F1.

Predicted clusters are collections of element ids and gold is a map from
element id to gold label. Elements without gold labels are dropped before
scoring, so the gold clusters are the labels of the elements that remain.
Every score is a ratio of integers counted off one contingency table of
predicted clusters against gold labels. Scores whose denominator is zero
(e.g. pairwise precision of an all-singleton clustering) are reported as
explicit None, never as a silent 0 or 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import InvariantViolation, MetricsUndefinedError


@dataclass(frozen=True)
class MetricsReport:
    macro_p: float | None
    macro_r: float | None
    macro_f1: float | None
    micro_p: float | None
    micro_r: float | None
    micro_f1: float | None
    pair_p: float | None
    pair_r: float | None
    pair_f1: float | None
    n_clusters: int
    n_gold: int
    n_elements: int

    def as_dict(self) -> dict:
        return asdict(self)

    def mean_f1(self) -> float:
        """Unweighted mean of the three F1 scores; undefined scores count
        as 0 so that degenerate clusterings rank below defined ones."""
        return sum(x if x is not None else 0.0
                   for x in (self.macro_f1, self.micro_f1, self.pair_f1)) / 3.0


def harmonic_mean(p: float | None, r: float | None) -> float | None:
    if p is None or r is None:
        return None
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def restrict_to_gold(
    clusters: Iterable[Collection[int]], gold: Mapping[int, str]
) -> list[frozenset[int]]:
    """Drop members without gold labels; drop clusters emptied by that."""
    out = []
    for c in clusters:
        kept = frozenset(x for x in c if x in gold)
        if kept:
            out.append(kept)
    return out


def evaluate(
    clusters: Iterable[Collection[int]], gold: Mapping[int, str]
) -> MetricsReport:
    """Restrict to gold-labeled elements, code the labels in first-seen
    order, and score the partition with `table_report`."""
    C = restrict_to_gold(clusters, gold)
    n = sum(len(c) for c in C)
    if not n:
        raise MetricsUndefinedError(
            "no gold-labeled elements present in the clustering"
        )
    if len(frozenset().union(*C)) != n:
        raise InvariantViolation(
            "predicted clustering is not a partition: an element repeats"
        )
    codes: dict[str, int] = {}
    labels = [codes.setdefault(gold[x], len(codes)) for c in C for x in c]
    return table_report(np.repeat(np.arange(len(C)), [len(c) for c in C]), labels)


def table_report(rows, labels) -> MetricsReport:
    """The report of the contingency table of predicted-cluster ids
    ``rows`` against gold-label codes ``labels`` (0..L-1), one entry of
    each per labelled element, at least one. Sorting ``rows * L + labels``
    lays out each cell as a run of elements and each row as a run of
    cells; every score is a ratio of Python ints, so its float does not
    depend on how the table was counted."""
    labels = np.asarray(labels, dtype=np.int64)
    L = int(labels.max()) + 1
    keys = np.sort(np.asarray(rows, dtype=np.int64) * L + labels)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    cells = np.diff(np.r_[starts, keys.size])
    cell_row, cell_label = np.divmod(keys[starts], L)
    row_starts = np.flatnonzero(np.r_[True, cell_row[1:] != cell_row[:-1]])
    label_top = np.zeros(L, dtype=np.int64)
    np.maximum.at(label_top, cell_label, cells)
    label_sizes = np.bincount(labels)

    def pairs(sizes: np.ndarray) -> int:
        return int((sizes * (sizes - 1) // 2).sum())

    n, n_rows, n_labels = keys.size, row_starts.size, int(np.count_nonzero(label_sizes))
    macro_p = int((np.diff(np.r_[row_starts, cells.size]) == 1).sum()) / n_rows
    macro_r = int((np.bincount(cell_label) == 1).sum()) / n_labels
    micro_p = int(np.maximum.reduceat(cells, row_starts).sum()) / n
    micro_r = int(label_top.sum()) / n
    hits, label_pairs = pairs(cells), pairs(label_sizes)
    row_pairs = pairs(np.add.reduceat(cells, row_starts))
    pair_p = hits / row_pairs if row_pairs else None
    pair_r = hits / label_pairs if label_pairs else None
    return MetricsReport(
        macro_p=macro_p, macro_r=macro_r, macro_f1=harmonic_mean(macro_p, macro_r),
        micro_p=micro_p, micro_r=micro_r, micro_f1=harmonic_mean(micro_p, micro_r),
        pair_p=pair_p, pair_r=pair_r, pair_f1=harmonic_mean(pair_p, pair_r),
        n_clusters=n_rows, n_gold=n_labels, n_elements=n,
    )


def format_report(report: MetricsReport) -> str:
    """Plain table for standard output."""

    def cell(x: float | None) -> str:
        return "   undef" if x is None else f"{x:8.4f}"

    lines = [
        "metric     precision   recall       F1",
        f"macro     {cell(report.macro_p)}  {cell(report.macro_r)}  {cell(report.macro_f1)}",
        f"micro     {cell(report.micro_p)}  {cell(report.micro_r)}  {cell(report.micro_f1)}",
        f"pairwise  {cell(report.pair_p)}  {cell(report.pair_r)}  {cell(report.pair_f1)}",
        f"clusters={report.n_clusters} gold={report.n_gold} elements={report.n_elements}",
    ]
    return "\n".join(lines)
