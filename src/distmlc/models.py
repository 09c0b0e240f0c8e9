"""Distance-regression multi-label models.

The shared training step fits a linear map from input-space distance
profiles to label-space distance profiles. Four predictors consume the
predicted distances: IDW-weighted scoring (ml-mlm), nearest reference
lookup (nn-mlm), an anchor-linearized multilateration solve (lls-mlm),
and per-label closed-form cubic solves (br-mlm). A brute-force
enumerator over {0,1}^L is kept as a test oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import SingularSystemError, fit_ridge, pairwise_distances

SQRT2 = float(np.sqrt(2.0))

UNCERTAINTY_LOW = "low"
UNCERTAINTY_MEDIUM = "medium"
UNCERTAINTY_HIGH = "high"


@dataclass(frozen=True)
class DistanceModel:
    """Trained distance-regression model.

    references: K x M unique training inputs.
    coefficients: K x N map from input-distance profiles to label-space
        distance estimates against all N training label vectors.
    train_labels: N x L binary label matrix.
    """

    references: np.ndarray
    coefficients: np.ndarray
    alpha: float
    train_labels: np.ndarray
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.coefficients.shape[0] != self.references.shape[0]:
            raise ValueError("coefficient rows must equal reference count")
        if self.coefficients.shape[1] != self.train_labels.shape[0]:
            raise ValueError("coefficient cols must equal training instance count")

    @property
    def n_labels(self) -> int:
        return self.train_labels.shape[1]

    @property
    def n_features(self) -> int:
        return self.references.shape[1]


@dataclass(frozen=True)
class BrMlmModel:
    """Per-label scalar distance models sharing one input-space factorization.

    base: the joint distance model (used for nearest-reference cardinality).
    label_coefficients: L x K x N stack; slice l maps input distances to
        per-label output distances |y_l - t_l|.
    """

    base: DistanceModel
    label_coefficients: np.ndarray


@dataclass(frozen=True)
class Prediction:
    """Decoded output. For one query row: L scores and 0/1 labels, a float
    min_distance and a str uncertainty bucket; for a Q-row query matrix:
    Q x L scores and labels and length-Q arrays of the other two."""

    scores: np.ndarray
    labels: np.ndarray
    min_distance: float | np.ndarray
    uncertainty: str | np.ndarray


def _check_binary(Y: np.ndarray, name: str = "Y") -> np.ndarray:
    Y = np.asarray(Y, dtype=np.float64)
    if not np.all((Y == 0.0) | (Y == 1.0)):
        raise ValueError(f"{name} must be binary (entries in {{0,1}})")
    return Y


def auto_alpha(references) -> float:
    """Lower 1/1000-quantile of the positive pairwise reference distances.

    Self-distances are excluded; the quantile is taken over the unordered
    distinct pairs by sorting and indexing at floor(count/1000).
    """
    references = np.asarray(references, dtype=np.float64)
    if references.shape[0] < 2:
        raise ValueError("need at least 2 reference points")
    d = pairwise_distances(references, references)
    iu = np.triu_indices(d.shape[0], k=1)
    pair_dists = d[iu]
    pair_dists = pair_dists[pair_dists > 0.0]
    if pair_dists.size == 0:
        raise ValueError("all pairwise reference distances are zero")
    pair_dists.sort()
    return float(pair_dists[pair_dists.size // 1000])


def unique_rows(X: np.ndarray) -> np.ndarray:
    """Unique rows of X (exact float equality), keeping first-seen order."""
    _, idx = np.unique(X, axis=0, return_index=True)
    return X[np.sort(idx)]


def fit(X, Y, alpha_mode="auto", label_names=()):
    """Fit the distance-regression map on inputs X (N x M), labels Y (N x L).

    alpha_mode is "auto" (pairwise-distance quantile heuristic) or a
    fixed non-negative float. Returns (model, Dx, Dy, gram, B) so that the
    leave-one-out tuning and br-mlm reuse the one factorization: gram is
    fit_ridge's (None after its SVD fallback), B its solution.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = _check_binary(Y)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching row counts")
    references = unique_rows(X)
    if references.shape[0] < 2:
        raise ValueError("need at least 2 unique training inputs")
    if alpha_mode == "auto":
        alpha = auto_alpha(references)
    else:
        alpha = float(alpha_mode)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
    Dx = pairwise_distances(X, references)
    Dy = pairwise_distances(Y, Y)
    gram, B = fit_ridge(Dx, Dy, alpha)
    # C-contiguous so predictions stay bit-identical after a save/load cycle
    model = DistanceModel(
        references=references,
        coefficients=np.ascontiguousarray(B),
        alpha=alpha,
        train_labels=Y,
        label_names=tuple(label_names),
    )
    return model, Dx, Dy, gram, B


def train(X, Y, alpha_mode="auto", label_names=()) -> DistanceModel:
    """The model of fit(X, Y, alpha_mode, label_names)."""
    return fit(X, Y, alpha_mode=alpha_mode, label_names=label_names)[0]


def train_br(X, Y, alpha_mode="auto", label_names=()) -> BrMlmModel:
    """Fit the binary-relevance variant: one scalar output-distance map per label.

    The Gram factorization of the input distances is shared across labels;
    only the output distance matrix differs per label.
    """
    base, Dx, _, gram, _ = fit(X, Y, alpha_mode=alpha_mode, label_names=label_names)
    if gram is None:
        raise SingularSystemError("U = Dx^T Dx + alpha*I is not positive definite")
    projector = gram.solve(Dx.T)  # K x N, shared across labels
    del Dx, gram, _  # free the fit's matrices before the L x K x N stack
    Y = base.train_labels
    L = Y.shape[1]
    stacks = np.empty((L, base.references.shape[0], Y.shape[0]))
    for l in range(L):
        Dy_l = np.abs(Y[:, l][:, None] - Y[:, l][None, :])
        np.matmul(projector, Dy_l, out=stacks[l])
    return BrMlmModel(base=base, label_coefficients=stacks)


def _queries(x) -> tuple[np.ndarray, bool]:
    """x as a Q x M query matrix, and whether it was a single row."""
    x = np.asarray(x, dtype=np.float64)
    return np.atleast_2d(x), x.ndim == 1


def predict_deltas(model: DistanceModel, x) -> np.ndarray:
    """Raw (unclamped) predicted label-space distances: N for one query of
    M values, Q x N for a Q x M matrix of queries."""
    X, one_row = _queries(x)
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"query has {X.shape[1]} features, model expects {model.n_features}"
        )
    deltas = _rowwise_product(pairwise_distances(X, model.references), model.coefficients)
    return deltas[0] if one_row else deltas


def _rowwise_product(d: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """d @ coefficients by rows, so that a row gets the same bits in a batch as
    alone: a matrix product's round-off varies with the batch height, and at
    P = 256 the IDW weights turned 1e-14 in a delta into 1.4e-12 in a score."""
    out = np.empty((d.shape[0], coefficients.shape[1]))
    for i, row in enumerate(d):
        np.matmul(row, coefficients, out=out[i])
    return out


def clamp_deltas(deltas: np.ndarray) -> np.ndarray:
    """Negative predicted distances are treated as exact matches (0)."""
    return np.maximum(np.asarray(deltas, dtype=np.float64), 0.0)


def log_distances(deltas) -> np.ndarray:
    """log of the clamped deltas, with 0 where a delta is 0 (IDW weight 1)."""
    D = clamp_deltas(deltas)
    return np.log(np.where(D > 0.0, D, 1.0))


def idw_scores_from_log(log_deltas, train_labels, P: float) -> np.ndarray:
    """IDW scores from log_distances(deltas), before idw_scores bounds them by 1."""
    if P <= 0:
        raise ValueError("power parameter P must be positive")
    logw = -P * np.asarray(log_deltas, dtype=np.float64)
    logw -= logw.max(axis=-1, keepdims=True)
    W = np.exp(logw, out=logw)
    return (W @ np.asarray(train_labels, dtype=np.float64)) / W.sum(axis=-1, keepdims=True)


def idw_scores(deltas, train_labels, P: float) -> np.ndarray:
    """Inverse-distance-weighted convex combination of the training labels.

    deltas is one row of N predicted distances or a Q x N matrix, one row
    per query. Weights are delta^-P for positive deltas and 1 for zero
    deltas (negatives are clamped first). Computed in log space so that
    large P does not overflow; only weight ratios matter for the
    normalized score.
    """
    scores = idw_scores_from_log(log_distances(deltas), train_labels, P)
    # W @ Y and W.sum add in different orders, which can leave a score a
    # few ulps above 1
    return np.minimum(scores, 1.0, out=scores)


def categorize_uncertainty(min_distance):
    """Bucket predicted nearest distances: <1 low, [1, sqrt(2)] medium, above high.

    One distance gives a str, an array of them an array of str."""
    d = np.asarray(min_distance, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("min_distance must be non-negative")
    buckets = np.where(d < 1.0, UNCERTAINTY_LOW,
                       np.where(d <= SQRT2, UNCERTAINTY_MEDIUM, UNCERTAINTY_HIGH))
    return str(buckets) if buckets.ndim == 0 else buckets


def _finish(scores, labels, deltas, one_row: bool) -> Prediction:
    dmin = clamp_deltas(deltas).min(axis=1)
    uncertainty = categorize_uncertainty(dmin)
    labels = labels.astype(np.int64)
    if one_row:
        return Prediction(scores[0], labels[0], float(dmin[0]), str(uncertainty[0]))
    return Prediction(scores, labels, dmin, uncertainty)


def _finish_rank_cut(scores, model: DistanceModel, deltas, one_row: bool) -> Prediction:
    """Label each row's top k scores, k the label count of its nearest reference."""
    from .tuning import local_rcut

    nearest = np.argmin(clamp_deltas(deltas), axis=1)
    k_cut = model.train_labels[nearest].sum(axis=1).astype(np.int64)
    return _finish(scores, local_rcut(scores, k_cut), deltas, one_row)


def nn_mlm_predict(model: DistanceModel, x) -> Prediction:
    """Label vector of the reference with the smallest predicted distance.

    Ties at the minimum go to the smallest index.
    """
    X, one_row = _queries(x)
    deltas = predict_deltas(model, X)
    rows = model.train_labels[np.argmin(clamp_deltas(deltas), axis=1)]
    return _finish(rows, rows, deltas, one_row)


def ml_mlm_predict(tuned, x) -> Prediction:
    """IDW-scored prediction with the tuned power and global threshold."""
    X, one_row = _queries(x)
    deltas = predict_deltas(tuned.model, X)
    scores = idw_scores(deltas, tuned.model.train_labels, tuned.power)
    return _finish(scores, scores > tuned.threshold, deltas, one_row)


def ml_mlm_predict_rcut(tuned, x) -> Prediction:
    """IDW-scored prediction thresholded by the nearest-reference cardinality."""
    X, one_row = _queries(x)
    deltas = predict_deltas(tuned.model, X)
    scores = idw_scores(deltas, tuned.model.train_labels, tuned.power)
    return _finish_rank_cut(scores, tuned.model, deltas, one_row)


def multilateration_objective(y, targets, deltas) -> float:
    """J(y) = sum_k (||y - t_k||^2 - delta_k^2)^2."""
    y = np.asarray(y, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    sq = ((targets - y) ** 2).sum(axis=1)
    return float(((sq - deltas**2) ** 2).sum())


def brute_force_mlc(targets, deltas, L: int) -> np.ndarray:
    """Exhaustive minimizer of the multilateration objective over {0,1}^L.

    Ties go to the lexicographically smallest bit vector. Enumeration is
    capped at L <= 20.
    """
    if L > 20:
        raise ValueError("brute-force enumeration is limited to L <= 20")
    targets = np.asarray(targets, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    best = None
    best_val = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=L):
        y = np.array(bits)
        val = multilateration_objective(y, targets, deltas)
        if val < best_val:
            best_val = val
            best = y
    return best.astype(np.int64)


def lls_scores(model: DistanceModel, deltas) -> np.ndarray:
    """Real-valued label scores from the anchor-linearized multilateration system.

    deltas is one row of N predicted distances or a Q x N matrix. The
    anchor is the reference with the smallest (clamped) predicted
    distance; each remaining reference contributes one linear equation in
    y, solved in least squares (minimum-norm for rank-deficient systems),
    for all rows with that anchor at once.
    """
    D = clamp_deltas(deltas)
    rows = np.atleast_2d(D)
    T = model.train_labels
    tnorm = (T**2).sum(axis=1)
    anchors = np.argmin(rows, axis=1)
    out = np.empty((rows.shape[0], T.shape[1]))
    for b in np.unique(anchors):
        these = anchors == b
        mask = np.arange(T.shape[0]) != b
        A = 2.0 * (T[b][None, :] - T[mask])
        dk = rows[these][:, mask]
        rhs = (dk**2 - rows[these, b][:, None] ** 2) - (tnorm[mask] - tnorm[b])
        out[these] = np.linalg.lstsq(A, rhs.T, rcond=None)[0].T
    return out if D.ndim == 2 else out[0]


def lls_mlm_predict(model: DistanceModel, x) -> Prediction:
    """Multilateration solve with local rank-cut thresholding.

    The cut size is the cardinality of the nearest-reference prediction
    from the same distance model.
    """
    X, one_row = _queries(x)
    deltas = predict_deltas(model, X)
    return _finish_rank_cut(lls_scores(model, deltas), model, deltas, one_row)


def scalar_multilateration_scores(target_cols: np.ndarray, delta_cols: np.ndarray) -> np.ndarray:
    """Closed-form per-label minimizers of J_l(y) = sum_k ((y - t_kl)^2 - d_kl^2)^2.

    Stationarity gives a cubic in y; the real root with the least
    objective value wins (smallest root on ties). target_cols is K x L;
    delta_cols is K x L for one query (giving L scores) or Q x K x L for
    Q queries (giving Q x L).
    """
    T = np.asarray(target_cols, dtype=np.float64)
    d2 = clamp_deltas(delta_cols) ** 2
    K = T.shape[0]
    # dJ/dy = 4 * sum_k (y - t_k) * ((y - t_k)^2 - d_k^2)
    #       = 4 * (K y^3 + c2 y^2 + c1 y + c0)
    c2 = -3.0 * T.sum(axis=0)
    c1 = 3.0 * (T**2).sum(axis=0) - d2.sum(axis=-2)
    c0 = -((T**3).sum(axis=0)) + (d2 * T).sum(axis=-2)
    # roots are the eigenvalues of the companion matrices, as in np.roots
    companion = np.zeros(c1.shape + (3, 3))
    companion[..., 0, :] = np.stack(np.broadcast_arrays(c2, c1, c0), axis=-1) / -K
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    y = roots.real
    vals = np.stack([(((y[..., None, :, j] - T) ** 2 - d2) ** 2).sum(axis=-2)
                     for j in range(3)], axis=-1)
    vals[np.abs(roots.imag) >= 1e-8] = np.inf
    # symmetric instances give analytically equal minima that differ
    # only by root round-off; count those as ties
    low = vals.min(axis=-1, keepdims=True)
    return np.where(vals <= low + 1e-9 * (1.0 + low), y, np.inf).min(axis=-1)


def br_mlm_predict(model: BrMlmModel, x) -> Prediction:
    """Per-label cubic multilateration scores with local rank-cut thresholding."""
    X, one_row = _queries(x)
    base = model.base
    d = pairwise_distances(X, base.references)
    # per-label predicted output distances, L x Q x N, viewed as Q x N x L
    delta_cols = np.matmul(d, model.label_coefficients).transpose(1, 2, 0)
    scores = scalar_multilateration_scores(base.train_labels, delta_cols)
    return _finish_rank_cut(scores, base, _rowwise_product(d, base.coefficients), one_row)
