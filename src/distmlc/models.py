"""Distance-regression multi-label models.

The shared training step fits a linear map from input-space distance
profiles to label-space distance profiles. Four predictors consume the
predicted distances: IDW-weighted scoring (ml-mlm), nearest reference
lookup (nn-mlm), an anchor-linearized multilateration solve (lls-mlm),
and per-label closed-form cubic solves (br-mlm). Every method's trained model
is one DistanceModel record: it names its method, and carries ml-mlm's tuned
power and threshold or br-mlm's per-label maps besides the shared fit.

Training rows that share a label vector share their label-space distance
column, so the fit keeps each distinct label vector once, in first-seen
order, with its multiplicity. Every predictor weights a label vector by
its count, which gives exactly the predictions of a fit against all N
training rows.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial.distance import squareform

from .linalg import (SingularSystemError, euclidean, fit_ridge, integer_norms, integer_valued,
                     pairwise_distances)
from .metrics import as_binary

SQRT2 = float(np.sqrt(2.0))

UNCERTAINTY_LOW = "low"
UNCERTAINTY_MEDIUM = "medium"
UNCERTAINTY_HIGH = "high"

# the four decoders of the one record; a record names the one that reads it
METHODS = ("ml-mlm", "nn-mlm", "lls-mlm", "br-mlm")


@dataclass(frozen=True)
class DistanceModel:
    """Trained distance-regression model: the one record of every method.

    references: K x M unique training inputs, in first-seen order; they
        must be finite, so that queries need only their own rows checked.
        Training and modelio.load_model lay them out in reference_order.
    coefficients: K x U map from input-distance profiles to label-space
        distance estimates against the U unique training label vectors.
    train_labels: U x L binary matrix of the unique training label
        vectors, in first-seen order.
    label_counts: length-U float array, how many training rows carry each
        of them (they sum to N).
    scale: None, or the 2 x M min-max scaler (minima, spans > 0) that scaled
        the training features, and that scales every query before its distances.
    method: the method (one of METHODS) whose decoder reads the record.
    power, threshold: ml-mlm's tuned IDW power P (finite, > 0) and global
        threshold t (finite); lrl_curve the (P, LRL) curve of its power search.
    label_coefficients: br-mlm's 2 x K x L stack of per-label maps, sharing
        the fit's input-space factorization; column l of slice t maps input
        distances to label l's output distance |y_l - t| against the
        training rows whose label l is t (0 or 1). For 0/1 labels those are
        the only two distances a label has to its training rows.
    Building one, by training, by modelio.load_model or by hand, checks all of
    this, alpha (finite, >= 0), label_names (empty or L strings) and
    feature_names (empty or M strings); the method's own fields are checked
    for ml-mlm and br-mlm only.
    """

    references: np.ndarray
    coefficients: np.ndarray
    alpha: float
    train_labels: np.ndarray
    label_counts: np.ndarray
    label_names: tuple[str, ...] = ()
    scale: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()
    method: str = "nn-mlm"
    power: float | None = None
    threshold: float | None = None
    lrl_curve: tuple[tuple[float, float], ...] = ()
    label_coefficients: np.ndarray | None = None

    # perfbench/run.py reads a loaded model's .model.coefficients and
    # .base.coefficients; ROADMAP item 2a deletes both aliases
    model = property(lambda self: self)
    base = model

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if np.ndim(self.references) != 2 or np.ndim(self.train_labels) != 2:
            raise ValueError("references and train_labels must be matrices")
        if not _all_finite(self.references):
            raise ValueError("references contain non-finite values")
        as_binary(self.train_labels, "train_labels")
        (K, M), (U, L) = np.shape(self.references), np.shape(self.train_labels)
        _check_array(self.coefficients, "coefficients", (K, U), "K x U")
        if self.scale is not None:
            _check_array(self.scale, "scale", (2, M), "minima and spans of M features")
            if not np.all(self.scale[1] > 0.0):
                raise ValueError("scale spans must be > 0")
        c = np.asarray(self.label_counts)
        if c.shape != (U,) or not np.all(np.isfinite(c) & (c >= 1.0) & (c == np.round(c))):
            raise ValueError(f"label_counts must be {U} positive whole numbers")
        _check_number(self.alpha, "alpha", "a finite number >= 0", lambda v: v >= 0)
        for field, names, n in (("label_names", self.label_names, L),
                                ("feature_names", self.feature_names, M)):
            if not (isinstance(names, tuple) and len(names) in (0, n)
                    and all(isinstance(name, str) for name in names)):
                raise ValueError(f"{field} must be empty or {n} strings, got {names!r}")
        if self.method == "ml-mlm":
            _check_number(self.power, "power P", "a finite number > 0", lambda v: v > 0)
            _check_number(self.threshold, "threshold t")
        elif self.method == "br-mlm":
            _check_array(self.label_coefficients, "label_coefficients", (2, K, L), "2 x K x L")

    @property
    def n_features(self) -> int:
        return self.references.shape[1]

    @cached_property
    def label_weights(self) -> np.ndarray:
        """label_weights(train_labels, label_counts), built once per model."""
        return label_weights(self.train_labels, self.label_counts)

    @cached_property
    def reference_norms(self) -> tuple[np.ndarray, float] | None:
        """integer_norms(references), built once per model: None unless every
        reference entry is an integer, in which case queries may take the
        exact integer distance kernel (linalg.euclidean)."""
        return integer_norms(self.references)


@dataclass(frozen=True)
class Prediction:
    """Decoded output, shaped as the query: for one row of M values, L scores
    and 0/1 labels, an np.float64 min_distance and a str uncertainty bucket;
    for a Q x M matrix, Q x L scores and labels and length-Q arrays of the
    other two. Any other query rank is refused."""

    scores: np.ndarray
    labels: np.ndarray
    min_distance: float | np.ndarray
    uncertainty: str | np.ndarray


def _all_finite(a) -> bool:
    """np.all(np.isfinite(a)) without a boolean array of a's size: a NaN
    propagates to the min and the max, and an infinity is one of them."""
    return bool(np.isfinite(np.min(a, initial=0.0)) and np.isfinite(np.max(a, initial=0.0)))


def _check_array(a, name: str, shape: tuple, dims: str) -> None:
    if np.shape(a) != shape:
        raise ValueError(f"{name} are {np.shape(a)}, expected {shape} ({dims})")
    if not _all_finite(a):
        raise ValueError(f"{name} holds non-finite values")


def _check_number(value, name: str, expected: str = "a finite number", ok=lambda v: True) -> None:
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and np.isfinite(value) and ok(value)):
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def auto_alpha(distances) -> float:
    """Lower 1/1000-quantile of the positive pairwise reference distances.

    distances is the K x K matrix of distances between the references.
    Self-distances are excluded; the quantile is the order statistic at
    floor(count/1000) over the unordered distinct pairs.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.shape[0] < 2:
        raise ValueError("need at least 2 reference points")
    # the upper triangle row by row, as triu_indices orders it, without its
    # two index arrays; the lower triangle is not read
    pair_dists = squareform(d, checks=False)
    pair_dists = pair_dists[pair_dists > 0.0]
    if pair_dists.size == 0:
        raise ValueError("all pairwise reference distances are zero")
    k = pair_dists.size // 1000
    pair_dists.partition(k)
    return float(pair_dists[k])


def reference_order(entries: np.ndarray) -> str:
    """The memory order of a model's references, given them or only their
    nonzero entries: "F" (column-major) when every entry is an integer, since
    queries then take the exact kernel (linalg.euclidean), which gathers the
    references' columns; "C" (row-major) otherwise, since cdist copies any
    other layout. fit and modelio.load_model both lay references out so."""
    return "F" if integer_valued(entries) else "C"


def first_seen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the unique rows of a finite A (exact float equality) in
    first-seen order, and how many rows of A equal each of them."""
    seen = {}  # a row's bytes -> [its first index, its count], in first-seen order
    for i, row in enumerate(A + 0.0):  # + 0.0 makes -0.0 the 0.0 that it equals
        seen.setdefault(row.tobytes(), [i, 0])[1] += 1
    return tuple(np.array(list(seen.values()), dtype=np.intp).reshape(-1, 2).T)


def fit(X, Y, alpha_mode="auto", label_names=(), scale=False, feature_names=()):
    """Fit the distance-regression map on inputs X (N x M), labels Y (N x L).

    alpha_mode is "auto" (pairwise-distance quantile heuristic) or a
    fixed non-negative float. The model keeps label_names and feature_names
    (each empty, or one name per column). With scale, X first maps to [0, 1] as
    (X - min) / span (span 1 for a constant column), and the model keeps that
    scaler. The output distances are taken to the U unique label vectors
    only: Dy is N x U. Returns (model, Dx, Dy, gram) so that the leave-one-out
    tuning and br-mlm reuse the one factorization: gram is fit_ridge's (None
    after its SVD fallback), and model.coefficients its K x U solution.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = as_binary(Y, "Y")
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching row counts")
    bounds = None
    if scale:
        lo, hi = X.min(axis=0), X.max(axis=0)
        bounds = np.stack([lo, np.where(hi > lo, hi - lo, 1.0)])
        X = (X - bounds[0]) / bounds[1]
    ref_idx, _ = first_seen(X)
    # one copy, straight into reference_order, which X's entries decide: each
    # row of X is a reference ("clip" writes into out unbuffered; ref_idx is in range)
    references = np.empty((ref_idx.size, X.shape[1]), order=reference_order(X))
    np.take(X, ref_idx, axis=0, out=references, mode="clip")
    Dx = pairwise_distances(X, references)  # first, as it refuses a non-finite X
    if references.shape[0] < 2:
        raise ValueError("need at least 2 unique training inputs")
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
        scale=bounds,
        feature_names=tuple(feature_names),
    )
    return model, Dx, Dy, gram


def train(X, Y, alpha_mode="auto", label_names=(), scale=False, feature_names=(),
          method="nn-mlm") -> DistanceModel:
    """The model of fit(X, Y, alpha_mode, label_names, scale, feature_names),
    named for method: nn-mlm or lls-mlm, whose decoders read only the fit."""
    model = fit(X, Y, alpha_mode=alpha_mode, label_names=label_names, scale=scale,
                feature_names=feature_names)[0]
    return model if method == model.method else replace(model, method=method)


def train_br(X, Y, alpha_mode="auto", label_names=(), scale=False,
             feature_names=()) -> DistanceModel:
    """Fit the binary-relevance variant: one scalar output-distance map per label.

    The Gram factorization of the input distances is shared across labels.
    Label l's output distance from training row n to a row whose label is
    t is |Y[n, l] - t|: Y[:, l] for t = 0 and 1 - Y[:, l] for t = 1, so
    one product gives every label's two maps.
    """
    model, Dx, _, gram = fit(X, Y, alpha_mode=alpha_mode, label_names=label_names, scale=scale,
                             feature_names=feature_names)
    if gram is None:
        raise SingularSystemError("U = Dx^T Dx + alpha*I is not positive definite")
    Y = np.asarray(Y, dtype=np.float64)  # fit checked it
    maps = gram.solve(Dx.T) @ np.stack([Y, 1.0 - Y])
    return replace(model, method="br-mlm", label_coefficients=maps)


def _distances(model: DistanceModel, x) -> np.ndarray:
    """Distances from the query x, under the model's scaler, to its K references:
    K of them for one row of M values, Q x K for a Q x M matrix; any other rank
    is refused. This is the one place that looks at a query's rank or scales it;
    every later step works on the last axis, so a row alone and a row in a batch
    take the same code. Only the scaled x is checked here: the references were
    checked when the model was built."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"query must be one row or a matrix, got shape {x.shape}")
    if x.shape[-1] != model.n_features:
        raise ValueError(
            f"query has {x.shape[-1]} features, model expects {model.n_features}"
        )
    if model.scale is not None:
        with np.errstate(over="ignore"):  # the finite check refuses what overflows
            x = (x - model.scale[0]) / model.scale[1]
    if not np.all(np.isfinite(x)):
        raise ValueError("query contains non-finite entries")
    d = euclidean(np.atleast_2d(x), model.references, model.reference_norms)
    return d.reshape(*x.shape[:-1], d.shape[-1])


def predict_deltas(model: DistanceModel, x) -> np.ndarray:
    """Raw (unclamped) predicted distances to the U unique label vectors: U
    for one query of M values, Q x U for a Q x M matrix of queries; any other
    rank is refused. Every decoder starts here (br-mlm from _distances)."""
    return _rowwise_product(_distances(model, x), model.coefficients)


def _rowwise_product(d: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The K distances d, or Q x K rows of them, times a K x U matrix (U, or
    Q x U), or times each map of an S x K x U stack (S x U, or Q x S x U), one
    row at a time, so that a row gets the same bits in a batch as alone: a
    matrix product's round-off varies with the batch height, and at P = 256 the
    IDW weights turned 1e-14 in a delta into 1.4e-12 in a score. Each row is a
    1 x K matrix of a (stacked) matmul, which numpy runs through the
    vector-matrix loop that a lone 1-D row takes."""
    rows = d.reshape(*d.shape[:-1], *(1,) * (coefficients.ndim - 1), d.shape[-1])
    return np.matmul(rows, coefficients).squeeze(-2)


def clamp_deltas(deltas: np.ndarray) -> np.ndarray:
    """Negative predicted distances are treated as exact matches (0)."""
    return np.maximum(np.asarray(deltas, dtype=np.float64), 0.0)


def log_distances(deltas) -> np.ndarray:
    """log of the clamped deltas, with 0 where a delta is 0 (IDW weight 1)."""
    D = clamp_deltas(deltas)
    return np.log(np.where(D > 0.0, D, 1.0))


def label_weights(train_labels, counts) -> np.ndarray:
    """The U x 2L matrix [c*Y | c*(1 - Y)] that idw_scores scores against."""
    Y = np.asarray(train_labels, dtype=np.float64)
    return np.asarray(counts, dtype=np.float64)[:, None] * np.hstack([Y, 1.0 - Y])


def idw_scores(log_deltas, weights, P: float) -> np.ndarray:
    """Inverse-distance-weighted label scores from log_distances of U predicted
    distances to a model's unique label vectors (one row, or Q x U) and their
    label_weights. A vector weighs its count times delta^-P, taken as 1 for a
    zero delta (a negative one is clamped to 0). Label l scores a / (a + b), the
    weights (in log space, so large P cannot overflow) summed over the vectors
    with (a) and without (b) l: in [0, 1], and exactly 1 (0) when every vector
    of nonzero weight has (lacks) l."""
    if P <= 0:
        raise ValueError("power parameter P must be positive")
    logw = -P * np.asarray(log_deltas, dtype=np.float64)
    logw -= logw.max(axis=-1, keepdims=True)
    ab = np.exp(logw, out=logw) @ weights
    a, b = ab[..., :ab.shape[-1] // 2], ab[..., ab.shape[-1] // 2:]
    return a / (a + b)


def categorize_uncertainty(min_distance):
    """Bucket predicted nearest distances: <1 low, [1, sqrt(2)] medium, above high.

    One distance gives a str, an array of them an array of str."""
    d = np.asarray(min_distance, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("min_distance must be non-negative")
    buckets = np.where(d < 1.0, UNCERTAINTY_LOW,
                       np.where(d <= SQRT2, UNCERTAINTY_MEDIUM, UNCERTAINTY_HIGH))
    return str(buckets) if buckets.ndim == 0 else buckets


def _finish(scores, labels, deltas) -> Prediction:
    dmin = clamp_deltas(deltas).min(axis=-1)
    return Prediction(scores, labels.astype(np.int64), dmin, categorize_uncertainty(dmin))


def local_rcut(scores, k_cut) -> np.ndarray:
    """Keep the k_cut highest-scored labels; score ties go to smaller indices.

    scores is one row of L scores with an int k_cut, or a Q x L matrix
    with one k_cut per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    k_cut = np.asarray(k_cut)
    L = scores.shape[-1]
    if np.any((k_cut < 0) | (k_cut > L)):
        raise ValueError(f"k_cut must be in [0, {L}]")
    order = np.argsort(-scores, axis=-1, kind="stable")
    rank = np.argsort(order, axis=-1)  # each label's place in that order
    return (rank < k_cut[..., None]).astype(np.int64)


def _finish_rank_cut(scores, model: DistanceModel, deltas) -> Prediction:
    """Label each row's top k scores, k the label count of its nearest reference."""
    nearest = np.argmin(clamp_deltas(deltas), axis=-1)
    k_cut = model.train_labels[nearest].sum(axis=-1).astype(np.int64)
    return _finish(scores, local_rcut(scores, k_cut), deltas)


def nn_mlm_predict(model: DistanceModel, x) -> Prediction:
    """The unique label vector with the smallest predicted distance.

    Ties at the minimum go to the first seen in training.
    """
    deltas = predict_deltas(model, x)
    rows = model.train_labels[np.argmin(clamp_deltas(deltas), axis=-1)]
    return _finish(rows, rows, deltas)


def ml_mlm_predict(model: DistanceModel, x, threshold=None) -> Prediction:
    """IDW-scored prediction with the tuned power. threshold is None or
    "cardinality" (labels are scores above the tuned threshold), a float
    (scores above it), or "local-rcut" (each row's top k scores, k the label
    count of its nearest reference); the scores are the same in every case."""
    deltas = predict_deltas(model, x)
    scores = idw_scores(log_distances(deltas), model.label_weights, model.power)
    if threshold == "local-rcut":
        return _finish_rank_cut(scores, model, deltas)
    if threshold in (None, "cardinality"):
        threshold = model.threshold
    elif isinstance(threshold, str):
        raise ValueError(f"threshold is cardinality, local-rcut or a float, not {threshold!r}")
    return _finish(scores, scores > threshold, deltas)


def lls_scores(model: DistanceModel, deltas) -> np.ndarray:
    """Real-valued label scores from the anchor-linearized multilateration system.

    deltas is one row of U predicted distances or a Q x U matrix. The
    anchor is the unique label vector with the smallest (clamped)
    predicted distance. Each other one, t_k, gives one linear equation in
    the step z = y - anchor, |z + anchor - t_k|^2 - |z|^2 = d_k^2 - d_b^2,
    weighted by the square root of its count; the least-squares z of least
    norm is solved for all rows with that anchor at once, so a label that no
    equation fixes (one on which every label vector agrees) keeps the
    anchor's value. This is the least-squares problem of one equation per
    training row: the anchor's own copies give all-zero equations.
    """
    D = clamp_deltas(deltas)
    rows = np.atleast_2d(D)
    T = model.train_labels
    root_c = np.sqrt(model.label_counts)
    anchors = np.argmin(rows, axis=1)
    out = np.empty((rows.shape[0], T.shape[1]))
    for b in np.unique(anchors):
        these = anchors == b
        mask = np.arange(T.shape[0]) != b
        step = T[b] - T[mask]
        A = 2.0 * step * root_c[mask, None]
        dk = rows[these][:, mask]
        rhs = (dk**2 - rows[these, b][:, None] ** 2 - (step**2).sum(axis=1)) * root_c[mask]
        out[these] = T[b] + np.linalg.lstsq(A, rhs.T, rcond=None)[0].T
    return out if D.ndim == 2 else out[0]


def lls_mlm_predict(model: DistanceModel, x) -> Prediction:
    """Multilateration solve with local rank-cut thresholding.

    The cut size is the cardinality of the nearest-reference prediction
    from the same distance model.
    """
    deltas = predict_deltas(model, x)
    return _finish_rank_cut(lls_scores(model, deltas), model, deltas)


def _minimizer_candidates(A, B, C) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest real root of y^3 + A y^2 + B y + C,
    elementwise.

    They are the only candidates for the minimizer of a quartic whose
    derivative is a positive multiple of this cubic: with three real roots
    the middle one is a local maximum. With y = x - A/3 the cubic is
    x^3 + p x + q. Its discriminant (q/2)^2 + (p/3)^3 <= 0 with p < 0 means
    three real roots, taken in trigonometric form; otherwise there is one
    real root (or the triple root x = 0 when p = q = 0), taken in Cardano's
    form and given twice. Both forms are computed for every cubic and the
    sign picks one.
    """
    shift = A / 3.0
    p = B - A * shift
    q = (2.0 * shift * shift - B) * shift + C
    p3, q2 = p / 3.0, 0.5 * q
    disc = q2 * q2 + p3 * p3 * p3
    # three real roots 2m cos(theta - 2 pi k / 3), m = sqrt(-p/3), k = 0, 1, 2,
    # greatest at k = 0 and least at k = 2; theta is in [0, pi/3], so
    # sin(theta) = sqrt(1 - cos(theta)^2)
    m = np.sqrt(np.maximum(-p3, 0.0))
    m3 = m * m * m
    m3 = np.where(m3 > 0.0, m3, 1.0)  # p = 0, or so small that m^3 underflows
    cos = np.cos(np.arccos(np.clip(-q2 / m3, -1.0, 1.0)) / 3.0)
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0)) * np.sqrt(3.0)
    # one real root u - p / (3u), u^3 = -q/2 - sign(q) sqrt(disc): the sign
    # that keeps u away from 0 unless p = q = 0
    u = np.cbrt(-q2 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
    one = np.where(u != 0.0, u - p3 / np.where(u != 0.0, u, 1.0), 0.0)
    three = (p < 0.0) & (disc <= 0.0)
    return (np.where(three, -m * (cos + sin), one) - shift,
            np.where(three, 2.0 * m * cos, one) - shift)


def scalar_multilateration_scores(target_cols: np.ndarray, delta_cols: np.ndarray,
                                  counts) -> np.ndarray:
    """Closed-form per-label minimizers of J_l(y) = sum_k c_kl ((y - t_kl)^2 - d_kl^2)^2.

    Stationarity gives a cubic in y, solved in closed form; of its least
    and greatest real roots (the middle one is a local maximum) the one with
    the smaller objective value wins, the least on ties, and one Newton step
    polishes it. target_cols is K x L, or K x 1 when every label has the
    same targets; delta_cols is K x L for one query (giving L scores) or
    Q x K x L for Q queries (giving Q x L). counts holds the weights c_kl, a
    target row counted c_kl times: K of them shared by every label, or K x L.
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
    A, B, C = (coef / c.sum(axis=0) for coef in (c2, c1, c0))
    least, greatest = _minimizer_candidates(A, B, C)
    J_least, J_greatest = ((c * ((y[..., None, :] - T) ** 2 - d2) ** 2).sum(axis=-2)
                           for y in (least, greatest))
    # symmetric instances give analytically equal minima that differ
    # only by root round-off; count those as ties. J is flat at a minimum,
    # so the choice needs no polished roots: only the chosen one is polished
    low = np.minimum(J_least, J_greatest)
    y = np.where(J_least <= low + 1e-9 * (1.0 + low), least, greatest)
    # one Newton step, kept where it lowers the residual (not at a zero
    # slope, nor at a double root's round-off)
    f = ((y + A) * y + B) * y + C
    slope = (3.0 * y + 2.0 * A) * y + B
    stepped = y - f / np.where(slope != 0.0, slope, 1.0)
    return np.where(np.abs(((stepped + A) * stepped + B) * stepped + C) < np.abs(f), stepped, y)


def br_mlm_predict(model: DistanceModel, x) -> Prediction:
    """Per-label cubic multilateration scores with local rank-cut thresholding.

    Each label's cubic has two target rows, 0 and 1, weighted by how many
    training rows carry that value of the label.
    """
    d = _distances(model, x)
    # each label's predicted distances to its 0- and 1-valued training rows, Q x 2 x L
    delta_cols = _rowwise_product(d, model.label_coefficients)
    n1 = model.label_counts @ model.train_labels
    counts = np.stack([model.label_counts.sum() - n1, n1])
    targets = np.array([[0.0], [1.0]])
    scores = scalar_multilateration_scores(targets, delta_cols, counts)
    return _finish_rank_cut(scores, model, _rowwise_product(d, model.coefficients))
