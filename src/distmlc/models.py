"""Distance-regression multi-label models.

The shared training step fits a linear map from input-space distance
profiles to label-space distance profiles. Four predictors consume the
predicted distances: IDW-weighted scoring (ml-mlm), nearest reference
lookup (nn-mlm), an anchor-linearized multilateration solve (lls-mlm),
and per-label closed-form cubic solves (br-mlm).

Training rows that share a label vector share their label-space distance
column, so the fit keeps each distinct label vector once, in first-seen
order, with its multiplicity. Every predictor weights a label vector by
its count, which gives exactly the predictions of a fit against all N
training rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SingularSystemError, _euclidean, fit_ridge, pairwise_distances

SQRT2 = float(np.sqrt(2.0))

UNCERTAINTY_LOW = "low"
UNCERTAINTY_MEDIUM = "medium"
UNCERTAINTY_HIGH = "high"


@dataclass(frozen=True)
class DistanceModel:
    """Trained distance-regression model.

    references: K x M unique training inputs, in first-seen order; they
        must be finite, so that queries need only their own rows checked.
    coefficients: K x U map from input-distance profiles to label-space
        distance estimates against the U unique training label vectors.
    train_labels: U x L binary matrix of the unique training label
        vectors, in first-seen order.
    label_counts: length-U float array, how many training rows carry each
        of them (they sum to N).
    """

    references: np.ndarray
    coefficients: np.ndarray
    alpha: float
    train_labels: np.ndarray
    label_counts: np.ndarray
    label_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.all(np.isfinite(self.references)):
            raise ValueError("references contain non-finite values")
        if self.coefficients.shape[0] != self.references.shape[0]:
            raise ValueError("coefficient rows must equal reference count")
        if self.coefficients.shape[1] != self.train_labels.shape[0]:
            raise ValueError("coefficient cols must equal unique label vector count")
        if self.label_counts.shape != (self.train_labels.shape[0],):
            raise ValueError("need one label count per unique label vector")

    @property
    def n_features(self) -> int:
        return self.references.shape[1]

    @cached_property
    def label_weights(self) -> np.ndarray:
        """label_weights(train_labels, label_counts), built once per model."""
        return label_weights(self.train_labels, self.label_counts)


@dataclass(frozen=True)
class BrMlmModel:
    """Per-label scalar distance models sharing one input-space factorization.

    base: the joint distance model (used for nearest-reference cardinality).
    label_coefficients: 2 x K x L stack; column l of slice t maps input
        distances to label l's output distance |y_l - t| against the
        training rows whose label l is t (0 or 1). For 0/1 labels those
        are the only two distances a label has to its training rows.
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


def auto_alpha(distances) -> float:
    """Lower 1/1000-quantile of the positive pairwise reference distances.

    distances is the K x K matrix of distances between the references.
    Self-distances are excluded; the quantile is the order statistic at
    floor(count/1000) over the unordered distinct pairs.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.shape[0] < 2:
        raise ValueError("need at least 2 reference points")
    iu = np.triu_indices(d.shape[0], k=1)
    pair_dists = d[iu]
    pair_dists = pair_dists[pair_dists > 0.0]
    if pair_dists.size == 0:
        raise ValueError("all pairwise reference distances are zero")
    k = pair_dists.size // 1000
    return float(np.partition(pair_dists, k)[k])


def first_seen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the unique rows of A (exact float equality) in first-seen
    order, and how many rows of A equal each of them."""
    _, idx, counts = np.unique(A, axis=0, return_index=True, return_counts=True)
    order = np.argsort(idx)
    return idx[order], counts[order]


def fit(X, Y, alpha_mode="auto", label_names=()):
    """Fit the distance-regression map on inputs X (N x M), labels Y (N x L).

    alpha_mode is "auto" (pairwise-distance quantile heuristic) or a
    fixed non-negative float. The output distances are taken to the U
    unique label vectors only: Dy is N x U. Returns (model, Dx, Dy, gram, B)
    so that the leave-one-out tuning and br-mlm reuse the one
    factorization: gram is fit_ridge's (None after its SVD fallback), B
    its K x U solution.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = _check_binary(Y)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching row counts")
    ref_idx, _ = first_seen(X)
    references = X[ref_idx]
    if references.shape[0] < 2:
        raise ValueError("need at least 2 unique training inputs")
    Dx = pairwise_distances(X, references)
    if alpha_mode == "auto":
        # the references are rows of X, so Dx already holds their distances
        alpha = auto_alpha(Dx[ref_idx])
    else:
        alpha = float(alpha_mode)  # fit_ridge refuses a negative alpha
    label_idx, counts = first_seen(Y)
    labels = Y[label_idx]
    Dy = pairwise_distances(Y, labels)
    gram, B = fit_ridge(Dx, Dy, alpha)
    # C-contiguous so predictions stay bit-identical after a save/load cycle
    model = DistanceModel(
        references=references,
        coefficients=np.ascontiguousarray(B),
        alpha=alpha,
        train_labels=labels,
        label_names=tuple(label_names),
        label_counts=counts.astype(np.float64),
    )
    return model, Dx, Dy, gram, B


def train(X, Y, alpha_mode="auto", label_names=()) -> DistanceModel:
    """The model of fit(X, Y, alpha_mode, label_names)."""
    return fit(X, Y, alpha_mode=alpha_mode, label_names=label_names)[0]


def train_br(X, Y, alpha_mode="auto", label_names=()) -> BrMlmModel:
    """Fit the binary-relevance variant: one scalar output-distance map per label.

    The Gram factorization of the input distances is shared across labels.
    Label l's output distance from training row n to a row whose label is
    t is |Y[n, l] - t|: Y[:, l] for t = 0 and 1 - Y[:, l] for t = 1, so
    one product gives every label's two maps.
    """
    base, Dx, _, gram, _ = fit(X, Y, alpha_mode=alpha_mode, label_names=label_names)
    if gram is None:
        raise SingularSystemError("U = Dx^T Dx + alpha*I is not positive definite")
    Y = np.asarray(Y, dtype=np.float64)  # fit checked it
    maps = gram.solve(Dx.T) @ np.stack([Y, 1.0 - Y])
    return BrMlmModel(base=base, label_coefficients=maps)


def _distances(model: DistanceModel, x) -> tuple[np.ndarray, bool]:
    """Q x K distances from the queries x (M values, or a Q x M matrix) to the
    model's references, and whether x was one row. Only x is checked here:
    the references were checked when the model was built."""
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)
    if X.ndim != 2:
        raise ValueError(f"query must be one row or a matrix, got shape {x.shape}")
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"query has {X.shape[1]} features, model expects {model.n_features}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("query contains non-finite entries")
    return _euclidean(X, model.references), x.ndim == 1


def predict_deltas(model: DistanceModel, x) -> np.ndarray:
    """Raw (unclamped) predicted distances to the U unique label vectors: U
    for one query of M values, Q x U for a Q x M matrix of queries."""
    d, one_row = _distances(model, x)
    deltas = _rowwise_product(d, model.coefficients)
    return deltas[0] if one_row else deltas


def _deltas(model: DistanceModel, x) -> tuple[np.ndarray, bool]:
    """predict_deltas(model, x) as a Q x U matrix, and whether x was one row."""
    return np.atleast_2d(predict_deltas(model, x)), np.ndim(x) == 1


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


def label_weights(train_labels, counts) -> np.ndarray:
    """The U x 2L matrix [c*Y | c*(1 - Y)] that idw_ratio scores against."""
    Y = np.asarray(train_labels, dtype=np.float64)
    return np.asarray(counts, dtype=np.float64)[:, None] * np.hstack([Y, 1.0 - Y])


def idw_ratio(log_deltas, weights, P: float) -> np.ndarray:
    """IDW scores from log_distances(deltas) and label_weights(labels, counts).
    Label l scores a / (a + b), the weights c * delta^-P (in log space, so large
    P cannot overflow) summed over label vectors with (a) and without (b) l: in
    [0, 1], and exactly 1 (0) when every vector of nonzero weight has (lacks) l."""
    if P <= 0:
        raise ValueError("power parameter P must be positive")
    logw = -P * np.asarray(log_deltas, dtype=np.float64)
    logw -= logw.max(axis=-1, keepdims=True)
    ab = np.exp(logw, out=logw) @ weights
    a, b = ab[..., :ab.shape[-1] // 2], ab[..., ab.shape[-1] // 2:]
    return a / (a + b)


def idw_scores(deltas, train_labels, P: float, counts) -> np.ndarray:
    """Inverse-distance-weighted convex combination of the training labels.

    deltas is one row of U predicted distances to the U rows of
    train_labels, or a Q x U matrix, one row per query; counts holds the
    U multiplicities of those rows (a trained model's label_counts, which
    go with its train_labels). A label vector's weight is its count times
    delta^-P, with delta^-P taken as 1 for a zero delta (negatives are
    clamped first). Scores lie in [0, 1], exactly 1 (0) for a label that
    every label vector of nonzero weight has (lacks); see idw_ratio.
    """
    return idw_ratio(log_distances(deltas), label_weights(train_labels, counts), P)


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
    """The unique label vector with the smallest predicted distance.

    Ties at the minimum go to the first seen in training.
    """
    deltas, one_row = _deltas(model, x)
    rows = model.train_labels[np.argmin(clamp_deltas(deltas), axis=1)]
    return _finish(rows, rows, deltas, one_row)


def ml_mlm_predict(tuned, x, threshold=None) -> Prediction:
    """IDW-scored prediction with the tuned power. threshold is None or
    "cardinality" (labels are scores above the tuned threshold), a float
    (scores above it), or "local-rcut" (each row's top k scores, k the label
    count of its nearest reference); the scores are the same in every case."""
    deltas, one_row = _deltas(tuned.model, x)
    scores = idw_ratio(log_distances(deltas), tuned.model.label_weights, tuned.power)
    if threshold == "local-rcut":
        return _finish_rank_cut(scores, tuned.model, deltas, one_row)
    if threshold in (None, "cardinality"):
        threshold = tuned.threshold
    elif isinstance(threshold, str):
        raise ValueError(f"threshold is cardinality, local-rcut or a float, not {threshold!r}")
    return _finish(scores, scores > threshold, deltas, one_row)


def lls_scores(model: DistanceModel, deltas) -> np.ndarray:
    """Real-valued label scores from the anchor-linearized multilateration system.

    deltas is one row of U predicted distances or a Q x U matrix. The
    anchor is the unique label vector with the smallest (clamped)
    predicted distance; each other one contributes one linear equation in
    y, weighted by the square root of its count, solved in least squares
    (minimum-norm for rank-deficient systems) for all rows with that
    anchor at once. This is the least-squares problem of one equation per
    training row: the anchor's own copies give all-zero equations.
    """
    D = clamp_deltas(deltas)
    rows = np.atleast_2d(D)
    T = model.train_labels
    root_c = np.sqrt(model.label_counts)
    tnorm = (T**2).sum(axis=1)
    anchors = np.argmin(rows, axis=1)
    out = np.empty((rows.shape[0], T.shape[1]))
    for b in np.unique(anchors):
        these = anchors == b
        mask = np.arange(T.shape[0]) != b
        A = 2.0 * (T[b][None, :] - T[mask]) * root_c[mask, None]
        dk = rows[these][:, mask]
        rhs = ((dk**2 - rows[these, b][:, None] ** 2) - (tnorm[mask] - tnorm[b])) * root_c[mask]
        out[these] = np.linalg.lstsq(A, rhs.T, rcond=None)[0].T
    return out if D.ndim == 2 else out[0]


def lls_mlm_predict(model: DistanceModel, x) -> Prediction:
    """Multilateration solve with local rank-cut thresholding.

    The cut size is the cardinality of the nearest-reference prediction
    from the same distance model.
    """
    deltas, one_row = _deltas(model, x)
    return _finish_rank_cut(lls_scores(model, deltas), model, deltas, one_row)


def scalar_multilateration_scores(target_cols: np.ndarray, delta_cols: np.ndarray,
                                  counts) -> np.ndarray:
    """Closed-form per-label minimizers of J_l(y) = sum_k c_kl ((y - t_kl)^2 - d_kl^2)^2.

    Stationarity gives a cubic in y; the real root with the least
    objective value wins (smallest root on ties). target_cols is K x L,
    or K x 1 when every label has the same targets; delta_cols is K x L
    for one query (giving L scores) or Q x K x L for Q queries (giving
    Q x L). counts holds the weights c_kl, a target row counted c_kl
    times: K of them shared by every label, or K x L.
    """
    T = np.asarray(target_cols, dtype=np.float64)
    d2 = clamp_deltas(delta_cols) ** 2
    c = np.asarray(counts, dtype=np.float64).reshape(T.shape[0], -1)
    cT = c * T
    # dJ/dy = 4 * sum_k c_k (y - t_k) * ((y - t_k)^2 - d_k^2)
    #       = 4 * (sum(c) y^3 + c2 y^2 + c1 y + c0)
    c2 = -3.0 * cT.sum(axis=0)
    c1 = 3.0 * (cT * T).sum(axis=0) - (c * d2).sum(axis=-2)
    c0 = -((cT * T**2).sum(axis=0)) + (d2 * cT).sum(axis=-2)
    # roots are the eigenvalues of the companion matrices, as in np.roots
    companion = np.zeros(c1.shape + (3, 3))
    companion[..., 0, :] = np.stack(np.broadcast_arrays(c2, c1, c0), axis=-1) \
        / -c.sum(axis=0)[:, None]
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    y = roots.real
    vals = np.stack([(c * ((y[..., None, :, j] - T) ** 2 - d2) ** 2).sum(axis=-2)
                     for j in range(3)], axis=-1)
    vals[np.abs(roots.imag) >= 1e-8] = np.inf
    # symmetric instances give analytically equal minima that differ
    # only by root round-off; count those as ties
    low = vals.min(axis=-1, keepdims=True)
    return np.where(vals <= low + 1e-9 * (1.0 + low), y, np.inf).min(axis=-1)


def br_mlm_predict(model: BrMlmModel, x) -> Prediction:
    """Per-label cubic multilateration scores with local rank-cut thresholding.

    Each label's cubic has two target rows, 0 and 1, weighted by how many
    training rows carry that value of the label.
    """
    base = model.base
    d, one_row = _distances(base, x)
    # each label's predicted distances to its 0- and 1-valued training rows,
    # 2 x Q x L, viewed as Q x 2 x L
    delta_cols = (d @ model.label_coefficients).transpose(1, 0, 2)
    n1 = base.label_counts @ base.train_labels
    counts = np.stack([base.label_counts.sum() - n1, n1])
    targets = np.array([[0.0], [1.0]])
    scores = scalar_multilateration_scores(targets, delta_cols, counts)
    return _finish_rank_cut(scores, base, _rowwise_product(d, base.coefficients), one_row)
