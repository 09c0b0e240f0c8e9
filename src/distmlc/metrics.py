"""Multi-label evaluation metrics.

Bipartition metrics take binary prediction/truth matrices; ranking
metrics take real-valued score matrices. Instances whose relevant or
irrelevant label set is empty are excluded from the ranking means.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    hamming_loss: float
    accuracy: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    ranking_loss: float
    coverage: float
    one_error: float
    average_precision: float

    def to_json(self) -> str:
        """The text of a report file: one JSON object and a newline."""
        return json.dumps(asdict(self), sort_keys=False) + "\n"

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def as_binary(a, name="labels") -> np.ndarray:
    """a as a float64 array; a ValueError unless every entry is 0 or 1."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError(f"{name} must be binary")
    return a


def _pair(pred, truth):
    pred = as_binary(pred, "pred")
    truth = as_binary(truth, "truth")
    if pred.shape != truth.shape:
        raise ValueError("pred and truth shapes differ")
    return pred, truth


def card(Y) -> float:
    """Mean number of relevant labels per instance."""
    Y = as_binary(Y)
    return float(Y.sum(axis=1).mean())


def dens(Y) -> float:
    """Label cardinality normalized by the number of labels."""
    Y = as_binary(Y)
    return card(Y) / Y.shape[1]


def hamming_loss(pred, truth) -> float:
    pred, truth = _pair(pred, truth)
    return float(np.mean(pred != truth))


def accuracy(pred, truth) -> float:
    """Mean Jaccard overlap; an instance with both sets empty counts as 1."""
    pred, truth = _pair(pred, truth)
    inter = (pred * truth).sum(axis=1)
    union = pred.sum(axis=1) + truth.sum(axis=1) - inter
    vals = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 1.0)
    return float(vals.mean())


def _counts(pred, truth):
    tp = (pred * truth).sum(axis=0)
    fp = (pred * (1.0 - truth)).sum(axis=0)
    fn = ((1.0 - pred) * truth).sum(axis=0)
    return tp, fp, fn


def _safe_div(num, den):
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


def _hmean(a: float, b: float) -> float:
    return 2.0 * a * b / (a + b) if (a + b) > 0 else 0.0


def micro_precision(pred, truth) -> float:
    tp, fp, _ = _counts(*_pair(pred, truth))
    return float(_safe_div(tp.sum(), tp.sum() + fp.sum()))


def micro_recall(pred, truth) -> float:
    tp, _, fn = _counts(*_pair(pred, truth))
    return float(_safe_div(tp.sum(), tp.sum() + fn.sum()))


def micro_f1(pred, truth) -> float:
    return _hmean(micro_precision(pred, truth), micro_recall(pred, truth))


def macro_precision(pred, truth) -> float:
    """Labels with no predicted positives contribute 0 and stay in the mean."""
    tp, fp, _ = _counts(*_pair(pred, truth))
    return float(_safe_div(tp, tp + fp).mean())


def macro_recall(pred, truth) -> float:
    tp, _, fn = _counts(*_pair(pred, truth))
    return float(_safe_div(tp, tp + fn).mean())


def macro_f1(pred, truth) -> float:
    return _hmean(macro_precision(pred, truth), macro_recall(pred, truth))


def _rankable(scores, truth, need_irrelevant: bool):
    scores = np.asarray(scores, dtype=np.float64)
    truth = as_binary(truth, "truth")
    if scores.shape != truth.shape:
        raise ValueError("scores and truth shapes differ")
    pos = truth.sum(axis=1)
    mask = pos > 0
    if need_irrelevant:
        mask &= pos < truth.shape[1]
    if not mask.any():
        raise ValueError("no instance usable for ranking metric")
    return scores[mask], truth[mask]


def ranking_loss(scores, truth) -> float:
    """Mean fraction of (relevant, irrelevant) pairs ranked strictly wrongly."""
    Z, G = _rankable(scores, truth, need_irrelevant=True)
    rel = G == 1.0
    # Sort each row by score, irrelevant before relevant on ties: a
    # relevant label is then violated by exactly the irrelevant labels
    # placed after it. O(L log L) per row, not O(L^2).
    order = np.lexsort((rel, Z), axis=-1)
    rel_sorted = np.take_along_axis(rel, order, axis=-1)
    n_rel = rel.sum(axis=1)
    n_irr = rel.shape[1] - n_rel
    irr_so_far = np.cumsum(~rel_sorted, axis=1)
    violations = ((n_irr[:, None] - irr_so_far) * rel_sorted).sum(axis=1)
    # fsum rounds once, so the mean does not depend on the order of the rows
    return math.fsum(violations / (n_rel * n_irr)) / violations.size


def coverage(scores, truth) -> float:
    """Ranking depth needed to capture every relevant label: the worst
    relevant label's rank minus one."""
    Z, G = _rankable(scores, truth, need_irrelevant=False)
    worst = np.where(G == 1.0, Z, np.inf).min(axis=1, keepdims=True)
    return float(np.count_nonzero(Z >= worst, axis=1).sum() - Z.shape[0]) / Z.shape[0]


def one_error(scores, truth) -> float:
    """Fraction of instances whose top-scored label is irrelevant."""
    Z, G = _rankable(scores, truth, need_irrelevant=False)
    top = np.argmax(Z, axis=1)
    return float(np.mean(G[np.arange(Z.shape[0]), top] == 0.0))


def average_precision(scores, truth) -> float:
    Z, G = _rankable(scores, truth, need_irrelevant=False)
    total = 0.0
    for z, rel in zip(Z, G == 1.0):
        # row j: which labels score at least as high as relevant label j
        above = z >= z[rel, None]
        total += float(np.mean(np.count_nonzero(above[:, rel], axis=1)
                               / np.count_nonzero(above, axis=1)))
    return total / Z.shape[0]


def evaluate(pred, scores, truth) -> EvalReport:
    """All twelve metrics for one (predictions, scores, truth) triple."""
    return EvalReport(
        hamming_loss=hamming_loss(pred, truth),
        accuracy=accuracy(pred, truth),
        micro_precision=micro_precision(pred, truth),
        micro_recall=micro_recall(pred, truth),
        micro_f1=micro_f1(pred, truth),
        macro_precision=macro_precision(pred, truth),
        macro_recall=macro_recall(pred, truth),
        macro_f1=macro_f1(pred, truth),
        ranking_loss=ranking_loss(scores, truth),
        coverage=coverage(scores, truth),
        one_error=one_error(scores, truth),
        average_precision=average_precision(scores, truth),
    )
