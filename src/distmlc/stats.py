"""Cross-method comparison: Friedman test over per-dataset ranks and the
Nemenyi post-hoc critical difference, with serializable diagram data.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import DataFormatError

LOWER_BETTER = "lower_better"
HIGHER_BETTER = "higher_better"

# studentized range quantiles / sqrt(2) at alpha = 0.05, k = 2..20
_Q_005 = {
    2: 1.9600, 3: 2.3437, 4: 2.5690, 5: 2.7278, 6: 2.8497,
    7: 2.9483, 8: 3.0309, 9: 3.1017, 10: 3.1637, 11: 3.2187,
    12: 3.2680, 13: 3.3127, 14: 3.3536, 15: 3.3912, 16: 3.4260,
    17: 3.4584, 18: 3.4887, 19: 3.5171, 20: 3.5438,
}


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
        """Read a table whose header names each method once and whose every
        other row is a dataset name and one number per method."""
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: no header row")
            methods = tuple(header[1:])
            for i, name in enumerate(methods):
                if name in methods[:i]:
                    raise DataFormatError(f"{path} line 1: method {name!r} appears twice")
            datasets = []
            rows = []
            for row in reader:
                if not row:
                    continue
                where = f"{path} line {reader.line_num}"
                if len(row) != len(header):
                    raise DataFormatError(f"{where}: {len(row)} cells, but the header has "
                                          f"{len(header)}")
                datasets.append(row[0])
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise DataFormatError(f"{where}: {exc}") from None
        return cls(
            methods=methods,
            datasets=tuple(datasets),
            values=np.array(rows),
            direction=direction,
        )


def average_ranks(table: ResultTable) -> np.ndarray:
    """Per-dataset midranks (1 = best in the table's direction), averaged."""
    from scipy.stats import rankdata  # on use: slower to import than distmlc
    vals = table.values if table.direction == LOWER_BETTER else -table.values
    ranks = np.vstack([rankdata(row, method="average") for row in vals])
    return ranks.mean(axis=0)


def friedman_test(table: ResultTable, alpha: float = 0.05) -> tuple[float, bool]:
    """Friedman chi-square statistic over the rank table and its alpha-level verdict."""
    from scipy.stats import chi2
    n, k = table.values.shape
    R = average_ranks(table) * n  # rank sums
    stat = 12.0 / (n * k * (k + 1)) * float((R**2).sum()) - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    critical = chi2.ppf(1.0 - alpha, df=k - 1)
    return stat, bool(stat > critical)


def nemenyi_cd(k: int, n: int) -> float:
    """Critical difference of average ranks at alpha = 0.05 for k methods over
    n datasets."""
    if k not in _Q_005:
        raise ValueError(f"k = {k} outside the embedded table range 2..20")
    return _Q_005[k] * math.sqrt(k * (k + 1) / (6.0 * n))


def _maximal_cliques(order: np.ndarray, ranks: np.ndarray, cd: float) -> list[list[int]]:
    # methods are points on the rank axis; groups are maximal runs of
    # consecutive methods whose rank spread is within the CD
    cliques = []
    k = len(order)
    for i in range(k):
        j = i
        while j + 1 < k and ranks[order[j + 1]] - ranks[order[i]] <= cd:
            j += 1
        if j > i:
            cliques.append(list(order[i : j + 1]))
    # drop cliques nested in an earlier (longer) one
    keep = []
    for c in cliques:
        if not any(set(c) < set(other) for other in cliques):
            keep.append(c)
    return keep


def cd_diagram_data(table: ResultTable) -> dict:
    """Average ranks, CD value, and non-significant groups at alpha = 0.05,
    JSON-serializable."""
    ranks = average_ranks(table)
    stat, reject = friedman_test(table)
    cd = nemenyi_cd(len(table.methods), len(table.datasets))
    order = np.argsort(ranks, kind="stable")
    cliques = _maximal_cliques(order, ranks, cd)
    singles = [
        [i] for i in range(len(table.methods)) if not any(i in c for c in cliques)
    ]
    groups = sorted(cliques + singles, key=lambda c: float(ranks[c[0]]))
    return {
        "alpha": 0.05,
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

