"""Cross-method comparison at ALPHA: Friedman test over per-dataset ranks and
the Nemenyi post-hoc critical difference for any number of methods, from
scipy.stats (imported on first use), with serializable diagram data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import DataFormatError, read_csv_rows

LOWER_BETTER = "lower"
HIGHER_BETTER = "higher"

ALPHA = 0.05  # the level of the Friedman test, the Nemenyi CD and the diagram groups


@dataclass(frozen=True)
class ResultTable:
    """Datasets x methods score table with a preferred direction."""

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    values: np.ndarray
    direction: str

    def __post_init__(self):
        if self.direction not in (LOWER_BETTER, HIGHER_BETTER):
            raise ValueError(f"unknown direction {self.direction!r}")
        n, k = self.values.shape
        if k != len(self.methods) or n != len(self.datasets):
            raise ValueError("values shape does not match method/dataset names")
        if k < 2 or n < 2:
            raise ValueError("need at least 2 methods and 2 datasets")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("missing or non-finite cells")

    @classmethod
    def from_csv(cls, path, direction: str) -> "ResultTable":
        """Read, through data.read_csv_rows, a table whose header names the methods
        after its first cell and whose other rows each give a dataset, named once,
        and one number per method; a refusal is a DataFormatError naming the file."""
        rows = read_csv_rows(path)
        methods, datasets, values = next(rows)[1:], [], []
        for lineno, row in rows:
            where = f"{path} line {lineno}"
            if row[0] in datasets:
                raise DataFormatError(f"{where}: dataset {row[0]!r} appears twice")
            datasets.append(row[0])
            try:
                values.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{where}: {exc}") from None
        if not values:
            raise DataFormatError(f"{path}: no data row after the header")
        try:
            return cls(methods=methods, datasets=tuple(datasets), values=np.array(values),
                       direction=direction)
        except ValueError as exc:  # too few methods or datasets, a non-finite cell
            raise DataFormatError(f"{path}: {exc}") from None


def average_ranks(table: ResultTable) -> np.ndarray:
    """Per-dataset midranks (1 = best in the table's direction), averaged."""
    from scipy.stats import rankdata  # on use: slower to import than distmlc
    vals = table.values if table.direction == LOWER_BETTER else -table.values
    return rankdata(vals, method="average", axis=1).mean(axis=0)


def friedman_test(table: ResultTable) -> tuple[float, bool]:
    """Friedman chi-square statistic over the rank table and its verdict at ALPHA."""
    from scipy.stats import chi2
    n, k = table.values.shape
    R = average_ranks(table) * n  # rank sums
    stat = 12.0 / (n * k * (k + 1)) * float((R**2).sum()) - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    critical = chi2.ppf(1.0 - ALPHA, df=k - 1)
    return stat, bool(stat > critical)


def nemenyi_cd(k: int, n: int) -> float:
    """Critical difference of average ranks at ALPHA for k methods over n datasets:
    q / sqrt(2) * sqrt(k (k + 1) / (6 n)), q the studentized range quantile."""
    from scipy.stats import studentized_range
    if k < 2:
        raise ValueError(f"k = {k}: the critical difference needs at least 2 methods")
    q = studentized_range.ppf(1.0 - ALPHA, k, np.inf) / math.sqrt(2.0)
    return float(q) * math.sqrt(k * (k + 1) / (6.0 * n))


def cd_diagram_data(table: ResultTable) -> dict:
    """Average ranks, CD value, and non-significant groups at ALPHA,
    JSON-serializable."""
    ranks = average_ranks(table)
    stat, reject = friedman_test(table)
    cd = nemenyi_cd(len(table.methods), len(table.datasets))
    order = np.argsort(ranks, kind="stable")
    r = ranks[order]
    # groups are maximal runs of rank-sorted methods whose rank spread is within
    # the CD. Run i ends at the last method within the CD of method i; as the
    # ends never decrease, a run is nested in run i - 1 unless it reaches past it
    ends = np.count_nonzero(r[None, :] - r[:, None] <= cd, axis=1) - 1
    groups = [order[i : ends[i] + 1] for i in np.flatnonzero(np.diff(ends, prepend=-1))]
    return {
        "alpha": ALPHA,
        "friedman_statistic": stat,
        "friedman_reject": reject,
        "critical_difference": cd,
        "methods": list(table.methods),
        "average_ranks": [float(r) for r in ranks],
        "groups": [[table.methods[i] for i in c] for c in groups],
    }


def write_diagram_json(diagram: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram, fh, indent=2)
        fh.write("\n")

