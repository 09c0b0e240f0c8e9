"""Metamorphic properties of the distance-only construction.

The model sees its data only through distances, and every decoder treats
the label columns alike. So permuting the label columns permutes the
outputs, and permuting the feature columns, permuting the training rows or
translating features and queries by one constant leaves the predictions
unchanged. Scaling is not among them: auto-alpha is not scale-invariant.

Labels and uncertainty buckets must be equal and scores agree within 1e-9.
Where the exact integer kernel gives the transformed problem the same
distances (integer features permuted or moved by an integer), every output
must have the same bits.

Analytic ties are left out rather than the tolerance widened. A query is
left out when its two smallest predicted distances are within 1e-9 of each
other (nn-mlm's first-seen argmin, lls-mlm's anchor, the rank cut's nearest
reference), when its scores at the rank cut are (the smaller index wins),
when a score is within 1e-9 of ml-mlm's threshold, or when its nearest
distance is within 1e-9 of a bucket edge. ml-mlm's power search takes the
first of equal minima of a ranking loss over near-equal LOO scores, and
their rounding decides such ties in about 1 in 250 row-permuted problems of
this size, so the transformed ml-mlm model is trained at the baseline's power,
and test_loo_deltas_are_equivariant checks the LOO distances it searches.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distmlc import modelio, models, tuning

GAP = 1e-9
TRANSFORMS = ("labels", "features", "rows", "translation")


@st.composite
def problems(draw):
    """A small training set with repeated rows and repeated label vectors,
    some queries, and a constant to translate by."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    n, m, L, q = (draw(st.integers(*r)) for r in ((8, 24), (2, 5), (2, 5), (1, 6)))

    def features(rows):
        if integer:
            return rng.integers(0, 4, (rows, m)).astype(float)
        return rng.normal(size=(rows, m))

    X, Q = features(n), features(q)
    repeats = rng.integers(0, n, draw(st.integers(0, n // 3)))
    X[rng.integers(0, n, repeats.size)] = X[repeats]
    pool = (rng.random((draw(st.integers(2, n)), L)) < 0.4).astype(float)
    Y = pool[rng.integers(0, len(pool), n)]
    Y[0, :2] = (1.0, 0.0)  # a row with a relevant and an irrelevant label, for tuning
    assume(len(models.first_seen(X)[0]) >= 2)
    return X, Y, Q, draw(st.sampled_from([-3.0, 0.5, 2.0])), rng


def transform(kind, X, Y, Q, shift, rng):
    """The transformed problem and its permutation (of label columns,
    feature columns or training rows; None for a translation)."""
    if kind == "labels":
        perm = rng.permutation(Y.shape[1])
        return X, Y[:, perm], Q, perm
    if kind == "features":
        perm = rng.permutation(X.shape[1])
        return X[:, perm], Y, Q[:, perm], perm
    if kind == "rows":
        perm = rng.permutation(X.shape[0])
        return X[perm], Y[perm], Q, perm
    return X + shift, Y, Q + shift, None


def same_bits(kind, X, shift) -> bool:
    """Whether the exact integer kernel gives the transformed problem the
    baseline's distances."""
    return np.array_equal(X, np.rint(X)) and (
        kind == "features" or kind == "translation" and shift == np.rint(shift))


def fit_and_decode(method, X, Y, Q, power=None):
    train, decode = modelio.method_functions(method)
    model = train(X, Y, alpha_mode="auto", **({} if power is None else {"power_mode": power}))
    return model, decode(model, Q)


def untied_rows(method, model, Q, pred) -> np.ndarray:
    """The queries of pred whose outputs no analytic tie decides."""
    d = np.sort(models.clamp_deltas(models.predict_deltas(model, Q)), axis=1)
    ok = d.shape[1] < 2 or d[:, 1] - d[:, 0] > GAP * (1.0 + d[:, 0])
    for edge in (1.0, models.SQRT2):
        ok = ok & (np.abs(pred.min_distance - edge) > GAP)
    if method == "ml-mlm":
        return ok & (np.abs(pred.scores - model.threshold) > GAP).all(axis=1)
    # the rank cut: the last label kept against the first one dropped
    s = -np.sort(-pred.scores, axis=1)
    k = pred.labels.sum(axis=1)
    inner = (k > 0) & (k < s.shape[1])
    kept = np.take_along_axis(s, np.maximum(k - 1, 0)[:, None], axis=1)[:, 0]
    dropped = np.take_along_axis(s, np.minimum(k, s.shape[1] - 1)[:, None], axis=1)[:, 0]
    return ok & (~inner | (kept - dropped > GAP * (1.0 + np.abs(kept))))


@pytest.mark.parametrize("kind", TRANSFORMS)
@pytest.mark.parametrize("method", modelio.METHODS)
@given(problem=problems())
@settings(max_examples=25, deadline=None)
def test_predictions_are_invariant(method, kind, problem):
    X, Y, Q, shift, rng = problem
    model, base = fit_and_decode(method, X, Y, Q)
    X2, Y2, Q2, perm = transform(kind, X, Y, Q, shift, rng)
    _, moved = fit_and_decode(method, X2, Y2, Q2, getattr(model, "power", None))
    if kind == "labels":
        base = models.Prediction(base.scores[:, perm], base.labels[:, perm],
                                 base.min_distance, base.uncertainty)
    rows = untied_rows(method, model, Q, base)
    assume(rows.any())
    np.testing.assert_array_equal(moved.labels[rows], base.labels[rows])
    np.testing.assert_array_equal(moved.uncertainty[rows], base.uncertainty[rows])
    if kind == "labels" or same_bits(kind, X, shift):
        # the same deltas (labels are 0/1, so Dy is exact)
        np.testing.assert_array_equal(moved.min_distance.view(np.int64),
                                      base.min_distance.view(np.int64))
    if same_bits(kind, X, shift):
        np.testing.assert_array_equal(moved.scores.view(np.int64), base.scores.view(np.int64))
    np.testing.assert_allclose(moved.scores[rows], base.scores[rows], rtol=GAP, atol=GAP)
    np.testing.assert_allclose(moved.min_distance[rows], base.min_distance[rows],
                               rtol=GAP, atol=GAP)


def loo(X, Y):
    """The fit's model and its LOO distances, as tune_ml_mlm computes them."""
    model, Dx, Dy, gram = models.fit(X, Y)
    return model, tuning.loo_deltas(gram, Dx, Dy, model.coefficients)


@pytest.mark.parametrize("kind", TRANSFORMS)
@given(problem=problems())
@settings(max_examples=25, deadline=None)
def test_loo_deltas_are_equivariant(kind, problem):
    X, Y, Q, shift, rng = problem
    model, base = loo(X, Y)
    X2, Y2, _, perm = transform(kind, X, Y, Q, shift, rng)
    moved_model, moved = loo(X2, Y2)
    labels = model.train_labels[:, perm] if kind == "labels" else model.train_labels
    if kind == "rows":
        base = base[perm]
    # each baseline label vector's column in the transformed fit
    cols = [int(np.flatnonzero((moved_model.train_labels == v).all(axis=1))[0]) for v in labels]
    moved = moved[:, cols]
    if kind in ("labels", "rows") or same_bits(kind, X, shift):
        # auto-alpha reads the same pair distances
        assert moved_model.alpha == model.alpha
    if kind == "labels" or same_bits(kind, X, shift):
        # the same distances in the same order (labels are 0/1, so Dy is exact)
        np.testing.assert_array_equal(moved.view(np.int64), base.view(np.int64))
    np.testing.assert_allclose(moved, base, rtol=GAP, atol=GAP)
