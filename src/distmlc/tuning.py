"""Closed-form leave-one-out tuning for the IDW-weighted predictor.

The ridge system is solved once; leverage values then give every
out-of-sample distance prediction directly, so the power-parameter grid
search and the cardinality-based threshold both reuse a single training
pass. The stored threshold is always this cardinality threshold; a fixed
one is applied when decoding (models.ml_mlm_predict's threshold).
"""
from __future__ import annotations

import numpy as np

from .linalg import RegularizedGram, SingularSystemError, leverages
from .metrics import ranking_loss
from . import models as _models

POWER_GRID_EXPONENTS = np.round(np.arange(0.0, 8.01, 0.1), 1)  # 81 values


class LeverageError(ValueError):
    """A leverage value is too close to 1 for the LOO formula."""


def loo_deltas(gram: RegularizedGram, Dx, Dy, B) -> np.ndarray:
    """Out-of-sample distance predictions for every training instance.

    Row i is the distance profile (one entry per column of Dy) that
    instance i would receive from a model trained without it, obtained
    from the leverage values of the ridge fit B (gram factors its Gram
    matrix) instead of retraining N times. Dx and Dy are float64 matrices,
    as models.fit returns them.
    """
    h = leverages(gram, Dx)
    bad = np.nonzero(h >= 1.0 - 1e-12)[0]
    if bad.size:
        raise LeverageError(
            f"leverage >= 1 for instance(s) {bad.tolist()}; "
            "increase alpha to keep the LOO formula well-defined"
        )
    loo = Dx @ B
    loo -= h[:, None] * Dy
    loo /= (1.0 - h)[:, None]
    return loo


def search_power(loo, Y, labels, counts) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Grid search P in {2^s : s = 0.0, 0.1, ..., 8.0} minimizing the LOO ranking loss.

    loo's columns go with the label vectors labels, each counted as in
    counts (a model's train_labels and label_counts); its rows, like Y's,
    are the training instances. Returns the winning P (ties go to the
    smallest grid point) and the full (P, LRL) curve.
    """
    log_d, weights = _models.log_distances(loo), _models.label_weights(labels, counts)
    curve = []
    for s in POWER_GRID_EXPONENTS:
        P = float(2.0**s)
        scores = _models.idw_scores(log_d, weights, P)
        curve.append((P, ranking_loss(scores, Y)))
    best_p = min(curve, key=lambda point: point[1])[0]  # first of equal minima
    return best_p, tuple(curve)


def cardinality_threshold(loo_scores, Y) -> float:
    """Global threshold matching the thresholded score cardinality to the labels'.

    Candidates are every observed score value plus {0, 1}; the candidate
    minimizing |Card(thresholded) - Card(Y)| wins, ties going to the
    larger threshold (fewer predicted labels).
    """
    S = np.asarray(loo_scores, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = S.shape[0]
    target = Y.sum() / Y.shape[0]
    flat = np.sort(S.ravel())
    candidates = np.unique(np.concatenate([flat, [0.0, 1.0]]))
    # labels predicted at threshold t: count of scores strictly above t
    above = flat.size - np.searchsorted(flat, candidates, side="right")
    card = above / n
    gap = np.abs(card - target)
    best = gap.min()
    return float(candidates[np.nonzero(gap == best)[0].max()])


def tune_ml_mlm(X, Y, alpha_mode="auto", power_mode="tuned", label_names=(),
                scale=False, feature_names=()) -> _models.TunedMlMlm:
    """Train the distance model and pick power and threshold in one LOO pass.

    power_mode is "tuned" or a fixed positive float; the threshold is the
    cardinality threshold of the leave-one-out scores at that power. The
    leave-one-out distances come from the factorization the fit already
    made. Tuning the power needs some row of Y with both a relevant and an
    irrelevant label.
    """
    Y = np.asarray(Y, dtype=np.float64)
    card = Y.sum(axis=-1)
    if power_mode == "tuned" and not ((card > 0) & (card < Y.shape[-1])).any():
        raise ValueError(
            "cannot tune the power: no training row has both a relevant and an "
            f"irrelevant label (L = {Y.shape[-1]}), so the leave-one-out ranking "
            "loss has nothing to rank; give a fixed power (--power) instead")
    model, Dx, Dy, gram = _models.fit(X, Y, alpha_mode=alpha_mode, label_names=label_names,
                                      scale=scale, feature_names=feature_names)
    if gram is None:
        raise SingularSystemError("U = Dx^T Dx + alpha*I is not positive definite")
    loo = loo_deltas(gram, Dx, Dy, model.coefficients)
    del Dx, Dy, gram  # the rest needs only the LOO matrix
    if power_mode == "tuned":
        power, curve = search_power(loo, Y, model.train_labels, model.label_counts)
    else:
        power, curve = float(power_mode), ()
    loo_scores = _models.idw_scores(_models.log_distances(loo), model.label_weights, power)
    threshold = cardinality_threshold(loo_scores, Y)
    return _models.TunedMlMlm(model=model, power=power, threshold=threshold, lrl_curve=curve)


def lrl_curve_csv(curve, path) -> None:
    """Write the (P, LRL) curve with its base-2 exponents as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s,P,LRL\n")
        for P, val in curve:
            fh.write(f"{np.log2(P):.1f},{P!r},{val!r}\n")
