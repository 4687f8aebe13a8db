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

from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from math import comb
from typing import Collection, Iterable, Mapping

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
    """Restrict to gold-labeled elements and read all nine scores plus
    counts off one contingency table: a row per predicted cluster holding
    the count of each gold label among its members. A label's column is
    its nonzero cells across the rows."""
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
    rows = [Counter(gold[x] for x in c) for c in C]
    columns = defaultdict(list)
    for row in rows:
        for label, count in row.items():
            columns[label].append(count)
    return table_report(
        n=n, rows=len(rows), pure_rows=sum(len(row) == 1 for row in rows),
        labels=len(columns), solo_labels=sum(len(col) == 1 for col in columns.values()),
        row_max=sum(max(row.values()) for row in rows),
        label_max=sum(max(col) for col in columns.values()),
        hits=sum(comb(count, 2) for row in rows for count in row.values()),
        row_pairs=sum(comb(len(c), 2) for c in C),
        label_pairs=sum(comb(sum(col), 2) for col in columns.values()),
    )


def table_report(*, n: int, rows: int, pure_rows: int, labels: int, solo_labels: int,
                 row_max: int, label_max: int, hits: int, row_pairs: int,
                 label_pairs: int) -> MetricsReport:
    """The nine scores of a contingency table of ``n`` elements in ``rows``
    predicted clusters and ``labels`` gold labels (n > 0), as ratios of its
    integers: ``pure_rows`` rows hold one label, ``solo_labels`` labels sit
    in one row, ``row_max`` and ``label_max`` sum each row's and each
    label's largest cell, ``hits`` sums C(cell, 2), and ``row_pairs`` and
    ``label_pairs`` sum C(total, 2) over the rows and over the labels."""
    macro_p = pure_rows / rows
    macro_r = solo_labels / labels
    micro_p = row_max / n
    micro_r = label_max / n
    pair_p = hits / row_pairs if row_pairs else None
    pair_r = hits / label_pairs if label_pairs else None
    return MetricsReport(
        macro_p=macro_p, macro_r=macro_r, macro_f1=harmonic_mean(macro_p, macro_r),
        micro_p=micro_p, micro_r=micro_r, micro_f1=harmonic_mean(micro_p, micro_r),
        pair_p=pair_p, pair_r=pair_r, pair_f1=harmonic_mean(pair_p, pair_r),
        n_clusters=rows, n_gold=labels, n_elements=n,
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
