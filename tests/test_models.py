from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distmlc import linalg, modelio, models, tuning
from distmlc.linalg import fit_ridge, pairwise_distances
from distmlc.models import TunedMlMlm, local_rcut
from distmlc.tuning import cardinality_threshold, search_power, tune_ml_mlm

from conftest import (
    brute_force_mlc,
    idw,
    loo_from_fit,
    multilateration_objective,
    random_problem,
    unique_rows,
)

# Counterexample instance showing the nearest-reference choice is not
# always the multilateration optimum: all corners of {0,1}^2 as targets.
CORNERS2 = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
DELTAS_CE = np.array([1.0, 10.0, 2.0, 2.0])


class TestTrain:
    def test_interpolates_at_training_points_alpha_zero(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = models.train(X, Y, alpha_mode=0.0)
        Dy = pairwise_distances(Y, Y)
        for i, x in enumerate(X):
            np.testing.assert_allclose(
                models.predict_deltas(model, x), Dy[i], atol=1e-8
            )

    def test_four_point_toy_set(self):
        X = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 2.0]])
        Y = CORNERS2
        model = models.train(X, Y, alpha_mode=0.0)
        assert model.references.shape == (4, 2)
        assert model.coefficients.shape == (4, 4)

    def test_residual_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(21)
        X, Y = random_problem(rng, n=30, m=5, l=4)
        alpha = 0.05
        model = models.train(X, Y, alpha_mode=alpha)
        Dx = pairwise_distances(X, model.references)
        Dy = pairwise_distances(Y, model.train_labels)
        U = Dx.T @ Dx + alpha * np.eye(Dx.shape[1])
        B_oracle = np.linalg.pinv(U) @ Dx.T @ Dy
        assert np.linalg.norm(Dx @ model.coefficients - Dy) == pytest.approx(
            np.linalg.norm(Dx @ B_oracle - Dy), abs=1e-8
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(4, 1), slice(None)], ids=["entry", "all"])
    def test_non_finite_input_refused(self, bad, where):
        # all bad, the rows are one row to first_seen: the refusal must still name it
        X, Y = random_problem(np.random.default_rng(22), n=10, m=3, l=2)
        X[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            models.fit(X, Y, alpha_mode=0.1)

    def test_one_unique_input_refused(self):
        with pytest.raises(ValueError, match="need at least 2 unique training inputs"):
            models.fit(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]), np.eye(3)[:, :2],
                       alpha_mode=0.1)

    def test_duplicate_rows_deduplicated(self):
        X = np.array([[0.0], [0.0], [1.0]])
        Y = np.array([[1.0], [1.0], [0.0]])
        model = models.train(X, Y, alpha_mode=0.1)
        assert model.references.shape == (2, 1)
        assert model.coefficients.shape == (2, 2)
        np.testing.assert_array_equal(model.label_counts, [2, 1])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            models.train(np.eye(3), np.eye(3) * 2.0, alpha_mode=0.1)

    def test_near_duplicate_inputs_alpha_zero(self):
        # Dx^T Dx is numerically singular: the plain model falls back to an
        # SVD solve, while br-mlm and the LOO tuning need the factorization
        from distmlc.linalg import SingularSystemError

        X = np.array([[0.0], [1e-9], [1.0], [2.0], [3.0]])
        Y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        model = models.train(X, Y, alpha_mode=0.0)
        assert np.all(np.isfinite(model.coefficients))
        with pytest.raises(SingularSystemError):
            models.train_br(X, Y, alpha_mode=0.0)
        with pytest.raises(SingularSystemError):
            tune_ml_mlm(X, Y, alpha_mode=0.0)

    def test_rejects_single_unique_input(self):
        with pytest.raises(ValueError):
            models.train(np.zeros((3, 2)), np.ones((3, 2)), alpha_mode=0.1)

    def test_rejects_negative_alpha(self):
        X, Y = random_problem(np.random.default_rng(25), n=8, m=3, l=2)
        with pytest.raises(ValueError, match="alpha must be non-negative"):
            models.train(X, Y, alpha_mode=-0.1)


class TestAutoAlpha:
    def test_two_points(self):
        pts = np.array([[0.0], [5.0]])
        assert models.auto_alpha(pairwise_distances(pts, pts)) == 5.0

    def test_equally_spaced_line(self):
        pts = np.arange(1000.0)[:, None]
        assert models.auto_alpha(pairwise_distances(pts, pts)) == 1.0

    def test_three_point_enumeration(self):
        pts = np.array([[0.0], [1.0], [3.0]])  # distances {1, 2, 3}
        assert models.auto_alpha(pairwise_distances(pts, pts)) == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            pts = np.zeros((3, 2))
            models.auto_alpha(pairwise_distances(pts, pts))


class TestPredictDeltas:
    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(22)
        X, Y = random_problem(rng, n=12, m=4, l=3)
        model = models.train(X, Y, alpha_mode=0.1)
        x = rng.normal(size=4)
        d = np.linalg.norm(x - model.references, axis=1)
        np.testing.assert_allclose(
            models.predict_deltas(model, x), d @ model.coefficients, atol=1e-12
        )

    def test_dimension_mismatch(self):
        X, Y = random_problem(np.random.default_rng(23), n=8, m=3, l=2)
        model = models.train(X, Y, alpha_mode=0.1)
        with pytest.raises(ValueError):
            models.predict_deltas(model, np.zeros(5))


class TestQueryContract:
    """A model's references are checked once, when it is built; each query
    then checks only its own rows, in the step that predict_deltas and every
    decoder share."""

    CALLS = {
        "deltas": lambda tuned, br, x: models.predict_deltas(tuned.model, x),
        "ml": lambda tuned, br, x: models.ml_mlm_predict(tuned, x),
        "ml-rcut": lambda tuned, br, x: models.ml_mlm_predict(tuned, x, threshold="local-rcut"),
        "nn": lambda tuned, br, x: models.nn_mlm_predict(tuned.model, x),
        "lls": lambda tuned, br, x: models.lls_mlm_predict(tuned.model, x),
        "br": lambda tuned, br, x: models.br_mlm_predict(br, x),
    }

    @pytest.fixture(scope="class")
    def fitted(self):
        X, Y = random_problem(np.random.default_rng(24), n=12, m=3, l=3)
        tuned = TunedMlMlm(model=models.train(X, Y, alpha_mode=0.1),
                           power=2.0, threshold=0.5, lrl_curve=())
        return tuned, models.train_br(X, Y, alpha_mode=0.1), X

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_finite_query_refused(self, fitted, call, bad):
        tuned, br, X = fitted
        self.CALLS[call](tuned, br, X[:4])
        for x in (X[0].copy(), X[:4].copy()):  # one row, then a matrix
            x.flat[-1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                self.CALLS[call](tuned, br, x)

    @pytest.mark.parametrize("call", CALLS)
    def test_wrong_shape_refused(self, fitted, call):
        tuned, br, _ = fitted
        with pytest.raises(ValueError, match="query has 5 features, model expects 3"):
            self.CALLS[call](tuned, br, np.zeros(5))
        for bad in (np.zeros((2, 2, 3)), 0.3):
            with pytest.raises(ValueError, match="one row or a matrix"):
                self.CALLS[call](tuned, br, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_refused(self, fitted, bad):
        model = fitted[0].model
        references = model.references.copy()
        references[1, 0] = bad
        with pytest.raises(ValueError, match="references contain non-finite"):
            replace(model, references=references)


class TestScaling:
    """fit(..., scale=True) keeps a min-max scaler in the record, which scales
    every query before its distances are taken."""

    def test_min_max(self):
        X = np.array([[0.0, 5.0], [10.0, 5.0]])
        model = models.train(X, np.array([[1.0], [0.0]]), alpha_mode=0.1, scale=True)
        # a constant column gets span 1, so it maps to 0
        np.testing.assert_array_equal(model.scale, [[0.0, 5.0], [10.0, 1.0]])
        np.testing.assert_array_equal(model.references, [[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(models.predict_deltas(model, X),
                                      models.predict_deltas(replace(model, scale=None),
                                                            model.references))

    @pytest.mark.parametrize("method", modelio.METHODS)
    def test_scaled_model_is_the_model_of_scaled_rows(self, method):
        rng = np.random.default_rng(27)
        X, Y = random_problem(rng, n=20, m=3, l=3)
        X = 7.0 * X - 3.0
        train, decode = modelio.method_functions(method)
        scaled = train(X, Y, alpha_mode=0.1, scale=True)
        lo, span = models.base_model(scaled).scale
        plain = train((X - lo) / span, Y, alpha_mode=0.1)
        a, b = decode(scaled, X[:6]), decode(plain, (X[:6] - lo) / span)
        for field in ("scores", "labels", "min_distance", "uncertainty"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_query_that_overflows_when_scaled_is_refused(self):
        X, Y = random_problem(np.random.default_rng(28), n=10, m=2, l=2)
        model = models.train(X * 1e-3, Y, alpha_mode=0.1, scale=True)
        with pytest.raises(ValueError, match="non-finite"):
            models.nn_mlm_predict(model, np.array([1e308, 0.0]))


def _with(array, index, value):
    out = np.array(array, dtype=np.float64)
    out[index] = value
    return out


class TestRecordsCheckThemselves:
    """Each record, built by hand as by training or load_model, refuses a broken field."""

    @pytest.fixture(scope="class")
    def records(self):
        X, Y = random_problem(np.random.default_rng(25), n=12, m=3, l=3)
        tuned = tune_ml_mlm(X, Y, alpha_mode=0.1, label_names=("a", "b", "c"))
        return tuned, models.train_br(X, Y, alpha_mode=0.1)

    @pytest.mark.parametrize("field, broken", [
        ("references", lambda m: m.references[0]),
        ("references", lambda m: _with(m.references, (0, 0), np.inf)),
        ("coefficients", lambda m: m.coefficients[:, :-1]),
        ("coefficients", lambda m: _with(m.coefficients, (1, 1), np.nan)),
        ("train_labels", lambda m: _with(m.train_labels, (0, 0), 0.5)),
        ("train_labels", lambda m: m.train_labels[0]),
        ("label_counts", lambda m: m.label_counts[:-1]),
        ("label_counts", lambda m: _with(m.label_counts, 0, 0.0)),
        ("label_counts", lambda m: _with(m.label_counts, 0, 1.5)),
        ("label_counts", lambda m: _with(m.label_counts, 0, np.inf)),
        ("label_counts", lambda m: _with(m.label_counts, 0, np.nan)),
        ("alpha", lambda m: -0.1),
        ("alpha", lambda m: np.nan),
        ("alpha", lambda m: np.inf),
        ("alpha", lambda m: None),
        ("alpha", lambda m: "x"),
        ("label_names", lambda m: 5),
        ("label_names", lambda m: ("a",)),
        ("label_names", lambda m: ("a", "b", 3)),
        ("label_names", lambda m: ["a", "b", "c"]),
        ("alpha", lambda m: True),
        ("scale", lambda m: np.ones((2, 2))),
        ("scale", lambda m: np.ones(3)),
        ("scale", lambda m: _with(np.ones((2, 3)), (0, 1), np.nan)),
        ("scale", lambda m: _with(np.ones((2, 3)), (1, 2), np.inf)),
        ("scale", lambda m: _with(np.ones((2, 3)), (1, 0), 0.0)),
        ("scale", lambda m: _with(np.ones((2, 3)), (1, 0), -1.0)),
    ])
    def test_distance_model(self, records, field, broken):
        model = records[0].model
        replace(model, label_names=())  # the untouched fields pass
        with pytest.raises(ValueError, match=field):
            replace(model, **{field: broken(model)})

    @pytest.mark.parametrize("broken", [
        lambda c: c[:, :, :-1],
        lambda c: c.transpose(0, 2, 1),
        lambda c: c[0],
        lambda c: _with(c, (1, 2, 0), np.nan),
    ])
    def test_br_mlm_model(self, records, broken):
        br = records[1]
        with pytest.raises(ValueError, match="label_coefficients"):
            replace(br, label_coefficients=broken(br.label_coefficients))

    @pytest.mark.parametrize("field, value", [
        *(("power", v) for v in (0.0, -1.0, np.nan, np.inf, None, "x")),
        *(("threshold", v) for v in (np.nan, -np.inf, None, "x")),
        ("power", True), ("threshold", False),
    ])
    def test_tuned_ml_mlm(self, records, field, value):
        with pytest.raises(ValueError, match=field):
            replace(records[0], **{field: value})

    def test_fixed_power_refused_by_the_scorer(self):
        X, Y = random_problem(np.random.default_rng(26), n=12, m=3, l=3)
        for power in (0.0, -1.0):
            with pytest.raises(ValueError, match="power parameter P must be positive"):
                tune_ml_mlm(X, Y, alpha_mode=0.1, power_mode=power)


class TestIdwScores:
    def test_uniform_weights_give_column_means(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scores = idw(np.full(3, 2.0), Y, P=3.0, counts=np.ones(3))
        np.testing.assert_allclose(scores, Y.mean(axis=0), atol=1e-12)

    def test_exact_match_dominates_at_large_p(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        scores = idw(np.array([0.0, 2.0, 3.0]), Y, P=200.0, counts=np.ones(3))
        np.testing.assert_allclose(scores, Y[0], atol=1e-12)

    def test_hand_arithmetic(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = idw(np.array([1.0, 2.0]), Y, P=1.0, counts=np.ones(2))
        np.testing.assert_allclose(scores, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_negative_deltas_clamped_to_exact_match(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = idw(np.array([-0.5, 2.0]), Y, P=50.0, counts=np.ones(2))
        np.testing.assert_allclose(scores, Y[0], atol=1e-12)

    def test_requires_positive_power(self):
        with pytest.raises(ValueError):
            idw(np.ones(2), np.eye(2), P=0.0, counts=np.ones(2))

    @given(
        deltas=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8),
        p=st.floats(0.5, 32.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_are_convex_combination(self, deltas, p):
        rng = np.random.default_rng(99)
        Y = (rng.random((len(deltas), 3)) < 0.5).astype(float)
        scores = idw(np.array(deltas), Y, P=p, counts=np.ones(len(deltas)))
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_loo_sized_matrix_scores_in_unit_interval(self):
        # a / (a + b) of nonnegative sums cannot round past 1; a quotient whose
        # numerator and denominator add in different orders put one of these
        # 21,000 scores 2.2e-16 above 1
        rng = np.random.default_rng(61)
        D = 2.0 * rng.random((1500, 1500))
        Y = (rng.random((1500, 14)) < 0.3).astype(float)
        scores = idw(D, Y, P=64.0, counts=np.ones(1500))
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    @pytest.mark.parametrize("P", [64.0, 256.0])
    def test_label_in_every_or_no_vector_scores_exactly_one_or_zero(self, P):
        rng = np.random.default_rng(61)  # the matrix of the test above
        D = 2.0 * rng.random((1500, 1500))
        Y = (rng.random((1500, 14)) < 0.3).astype(float)
        Y[:, 3], Y[:, 9] = 1.0, 0.0
        counts = rng.integers(1, 5, size=1500).astype(float)
        scores = idw(D, Y, P=P, counts=counts)
        assert (scores[:, 3] == 1.0).all() and (scores[:, 9] == 0.0).all()

    def test_weight_monotonicity(self):
        # closer reference gets strictly more weight for any positive power
        for P in (0.5, 1.0, 2.0, 8.0):
            Y = np.eye(2)
            scores = idw(np.array([1.0, 1.5]), Y, P=P, counts=np.ones(2))
            assert scores[0] > scores[1]


class TestNnMlm:
    def test_training_point_with_unique_labels(self):
        X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = models.train(X, Y, alpha_mode=0.0)
        pred = models.nn_mlm_predict(model, X[1])
        np.testing.assert_array_equal(pred.labels, Y[1].astype(int))

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(24)
        X, Y = random_problem(rng, n=15, m=4, l=3)
        model = models.train(X, Y, alpha_mode=0.1)
        # scan the predicted distances to all N training rows
        B = fit_ridge(pairwise_distances(X, model.references), pairwise_distances(Y, Y), 0.1)[1]
        for x in rng.normal(size=(5, 4)):
            deltas = np.maximum(np.linalg.norm(x - model.references, axis=1) @ B, 0.0)
            best = min(range(len(deltas)), key=lambda k: (deltas[k], k))
            pred = models.nn_mlm_predict(model, x)
            np.testing.assert_array_equal(pred.labels, Y[best].astype(int))

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        X, Y = random_problem(rng, n=10, m=3, l=3)
        model = models.train(X, Y, alpha_mode=0.1)
        x = rng.normal(size=3)
        p1 = models.nn_mlm_predict(model, x)
        p2 = models.nn_mlm_predict(model, x)
        assert (p1.scores == p2.scores).all()
        assert (p1.labels == p2.labels).all()
        assert p1.min_distance == p2.min_distance


class TestMultilaterationObjective:
    def test_counterexample_values(self):
        assert multilateration_objective([0, 0], CORNERS2, DELTAS_CE) == 9815.0
        assert multilateration_objective([1, 0], CORNERS2, DELTAS_CE) == 9629.0

    def test_exact_fit_is_zero(self):
        deltas = np.linalg.norm(CORNERS2 - CORNERS2[2], axis=1)
        assert multilateration_objective(CORNERS2[2], CORNERS2, deltas) < 1e-24


class TestBruteForce:
    def test_counterexample_beats_nearest_choice(self):
        np.testing.assert_array_equal(
            brute_force_mlc(CORNERS2, DELTAS_CE, 2), [1, 0]
        )

    def test_exact_deltas_recover_target(self):
        deltas = np.linalg.norm(CORNERS2 - CORNERS2[3], axis=1)
        np.testing.assert_array_equal(
            brute_force_mlc(CORNERS2, deltas, 2), [1, 1]
        )

    def test_agrees_with_objective_scan(self):
        rng = np.random.default_rng(26)
        L = 4
        targets = (rng.random((6, L)) < 0.5).astype(float)
        deltas = rng.random(6) * 2.0
        best = brute_force_mlc(targets, deltas, L)
        import itertools

        vals = {
            bits: multilateration_objective(np.array(bits), targets, deltas)
            for bits in itertools.product((0.0, 1.0), repeat=L)
        }
        assert vals[tuple(best.astype(float))] == min(vals.values())

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            brute_force_mlc(np.zeros((1, 21)), np.zeros(1), 21)


class TestLlsMlm:
    def test_exact_recovery_unit_cube_corners(self):
        L = 3
        corners = np.array(
            [[float(b) for b in np.binary_repr(i, L)] for i in range(2**L)]
        )
        target = corners[5]
        deltas = np.linalg.norm(corners - target, axis=1)
        model = models.DistanceModel(
            references=np.zeros((corners.shape[0], 2)),
            coefficients=np.zeros((corners.shape[0], corners.shape[0])),
            alpha=0.1,
            train_labels=corners,
            label_counts=np.ones(corners.shape[0]),
        )
        scores = models.lls_scores(model, deltas)
        np.testing.assert_allclose(scores, target, atol=1e-6)

    def test_degenerate_targets_finite(self):
        T = np.ones((4, 3))
        model = models.DistanceModel(
            references=np.zeros((4, 2)),
            coefficients=np.zeros((4, 4)),
            alpha=0.1,
            train_labels=T,
            label_counts=np.ones(4),
        )
        scores = models.lls_scores(model, np.array([0.5, 1.0, 1.5, 2.0]))
        # no equation fixes any label, so the scores are the anchor's
        np.testing.assert_array_equal(scores, T[0])

    @pytest.mark.parametrize("vectors", [[[1, 1, 1], [1, 0, 1]], [[1, 0, 1]]],
                             ids=["two-vectors", "one-vector"])
    def test_label_shared_by_every_vector_keeps_the_anchor_value(self, vectors):
        # labels 0 and 2 are 1 in every training row: no equation of the
        # anchor-linearized system fixes them, so they keep the anchor's 1
        X = np.random.default_rng(0).normal(size=(20, 3))
        Y = np.array(vectors * (20 // len(vectors)), dtype=np.float64)
        pred = models.lls_mlm_predict(models.train(X, Y, alpha_mode=0.1), X)
        np.testing.assert_array_equal(pred.scores[:, [0, 2]], 1.0)
        np.testing.assert_array_equal(pred.labels, Y)


class TestBrMlm:
    def test_all_zero_targets_exact(self):
        scores = models.scalar_multilateration_scores(
            np.zeros((4, 1)), np.zeros((4, 1)), np.ones(4)
        )
        np.testing.assert_allclose(scores, [0.0], atol=1e-9)

    def test_exact_one_recovery(self):
        t = np.array([[0.0], [1.0], [0.0], [1.0]])
        d = np.abs(1.0 - t)
        scores = models.scalar_multilateration_scores(t, d, np.ones(4))
        np.testing.assert_allclose(scores, [1.0], atol=1e-9)
        val = multilateration_objective(scores, t, d[:, 0])
        assert val < 1e-12

    def test_cubic_matches_grid_oracle(self):
        rng = np.random.default_rng(27)
        grid = np.arange(-1.0, 2.0, 1e-5)
        for _ in range(10):
            t = (rng.random(6) < 0.5).astype(float)[:, None]
            d = (rng.random(6) * 1.5)[:, None]
            score = models.scalar_multilateration_scores(t, d, np.ones(6))[0]
            sq = (grid[:, None] - t[:, 0][None, :]) ** 2
            vals = ((sq - (d[:, 0] ** 2)[None, :]) ** 2).sum(axis=1)
            best = grid[int(np.argmin(vals))]
            assert abs(score - best) < 1e-4

    def test_per_label_counts_match_expanded_rows(self):
        # targets 0 and 1 with a count per label give what the same problem
        # gives with one target row per count, each counted once
        rng = np.random.default_rng(28)
        for _ in range(10):
            Q, L = 3, 5
            d = rng.random((Q, 2, L)) * 1.5
            counts = rng.integers(1, 6, size=(2, L))
            counts[0, 0] = 0  # a label that every row carries
            scores = models.scalar_multilateration_scores(
                np.array([[0.0], [1.0]]), d, counts)
            for l in range(L):
                t = np.repeat([0.0, 1.0], counts[:, l])[:, None]
                d_l = np.repeat(d[:, :, l], counts[:, l], axis=1)[:, :, None]
                expanded = models.scalar_multilateration_scores(t, d_l, np.ones(len(t)))
                np.testing.assert_allclose(scores[:, l], expanded[:, 0], rtol=1e-9, atol=1e-9)


def cubic_oracle(t, d, c):
    """The least objective c-weighted sum of ((y - t)^2 - d^2)^2 at the real
    parts of np.roots' roots of its derivative (a superset of its minimizers),
    and those real parts with their objectives."""
    d2 = d**2
    coef = [c.sum(), -3.0 * (c * t).sum(), 3.0 * (c * t**2).sum() - (c * d2).sum(),
            -(c * t**3).sum() + (c * d2 * t).sum()]
    roots = np.roots(coef).real
    vals = np.array([(c * ((y - t) ** 2 - d2) ** 2).sum() for y in roots])
    return vals.min(), roots, vals


@st.composite
def cubic_batches(draw):
    """Q x K x L per-label cubic problems: random targets and deltas, zero
    counts, all-zero targets, and deltas that put a double or triple root in
    a label whose only counted targets are 0 and 1."""
    Q, K, L = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    T, c = np.zeros((K, L)), np.zeros((K, L))
    d = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=Q * K * L,
                               max_size=Q * K * L))).reshape(Q, K, L)
    for l in range(L):
        kind = draw(st.sampled_from(["random", "binary", "pair", "zero"]))
        counts = draw(st.lists(st.integers(0, 4), min_size=K, max_size=K))
        counts[0] += sum(counts) == 0
        c[:, l] = counts
        if kind == "random":
            T[:, l] = draw(st.lists(st.floats(-2.0, 2.0), min_size=K, max_size=K))
        elif kind == "binary":
            T[:, l] = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=K, max_size=K))
        elif kind == "pair":
            # targets 0 and 1 counted c0 and c1 times; every other row counts 0
            T[1, l], c[2:, l] = 1.0, 0.0
            c[1, l] += c[1, l] == 0
            n, a = c[:, l].sum(), c[1, l] / c[:, l].sum()
            for q in range(Q):
                shape = draw(st.sampled_from(["random", "double", "triple", "zero"]))
                if shape == "zero":
                    d[q, :, l] = 0.0
                if shape not in ("double", "triple") or c[0, l] == 0:
                    continue
                # roots r, r, s summing to 3a; with d1^2 and d0^2 >= 0 this
                # matches the cubic's y and constant coefficients
                r = draw(st.floats(-1.0, 2.0)) if shape == "double" else a
                s = 3.0 * a - 2.0 * r
                d1 = 1.0 - r * r * s / a
                d0 = (n * (3.0 * a - r * r - 2.0 * r * s) - c[1, l] * d1) / c[0, l]
                if min(d0, d1) < 0.0:  # no such deltas: take the triple root at a
                    d1 = 1.0 - a * a
                    d0 = n * a * (1.0 - a) * (2.0 - a) / c[0, l]
                d[q, :2, l] = np.sqrt([d0, d1])
                d[q, 2:, l] = draw(st.floats(0.0, 2.0))
        elif draw(st.booleans()):  # all-zero targets, with all-zero deltas or not
            d[:, :, l] = 0.0
    return T, d, c


class TestCubicRoots:
    @given(problem=cubic_batches())
    @settings(max_examples=300)
    def test_global_minimizer_matches_np_roots(self, problem):
        T, d, c = problem
        batch = models.scalar_multilateration_scores(T, d, c)
        assert batch.shape == (d.shape[0], d.shape[2]) and np.isfinite(batch).all()
        for q in range(d.shape[0]):
            alone = models.scalar_multilateration_scores(T, d[q], c)
            np.testing.assert_array_equal(alone, batch[q])
            for l in range(d.shape[2]):
                t, dq, cl, y = T[:, l], d[q, :, l], c[:, l], batch[q, l]
                low, roots, vals = cubic_oracle(t, dq, cl)
                assert (cl * ((y - t) ** 2 - dq**2) ** 2).sum() <= low + 1e-9 * (1.0 + low)
                best = roots[np.argmin(vals)]
                slope = np.polyval([3 * cl.sum(), -6 * (cl * t).sum(),
                                    3 * (cl * t**2).sum() - (cl * dq**2).sum()], best)
                others = vals[np.abs(roots - best) > 1e-6]
                if abs(slope) > 1e-3 * cl.sum() and (others > low + 1e-6 * (1.0 + low)).all():
                    # a simple root and the unique minimizer
                    assert abs(y - best) <= 1e-12 * (1.0 + abs(best))

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.75, 3.5])
    def test_triple_root_exact(self, t):
        # one target at distance 0: the cubic is (y - t)^3, so p = q = 0
        for K in (1, 3):
            score = models.scalar_multilateration_scores(
                np.full((K, 1), t), np.zeros((K, 1)), np.ones(K))
            assert score[0] == t


class TestCategorizeUncertainty:
    @pytest.mark.parametrize(
        "d,expected",
        [
            (0.5, "low"),
            (0.0, "low"),
            (1.0, "medium"),
            (np.sqrt(2.0), "medium"),
            (2.0, "high"),
        ],
    )
    def test_buckets(self, d, expected):
        assert models.categorize_uncertainty(d) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            models.categorize_uncertainty(-0.1)


class TestMlMlmThresholding:
    def _tuned(self, t):
        rng = np.random.default_rng(28)
        X, Y = random_problem(rng, n=12, m=3, l=3)
        model = models.train(X, Y, alpha_mode=0.1)
        return TunedMlMlm(model=model, power=2.0, threshold=t, lrl_curve=()), X

    def test_threshold_above_range_empty(self):
        tuned, X = self._tuned(1.0)
        assert models.ml_mlm_predict(tuned, X[0]).labels.sum() == 0

    def test_threshold_below_range_all(self):
        tuned, X = self._tuned(-0.1)
        pred = models.ml_mlm_predict(tuned, X[0])
        assert pred.labels.sum() == pred.labels.size


def test_exact_distances_all_predictors_agree():
    # with exact label-space distances, the nearest lookup, the brute-force
    # enumeration, and the rounded multilateration solve coincide
    rng = np.random.default_rng(29)
    L = 3
    corners = np.array(
        [[float(b) for b in np.binary_repr(i, L)] for i in range(2**L)]
    )
    for idx in (0, 3, 6):
        target = corners[idx]
        deltas = np.linalg.norm(corners - target, axis=1)
        model = models.DistanceModel(
            references=np.zeros((corners.shape[0], 2)),
            coefficients=np.zeros((corners.shape[0], corners.shape[0])),
            alpha=0.1,
            train_labels=corners,
            label_counts=np.ones(corners.shape[0]),
        )
        nn_row = corners[int(np.argmin(models.clamp_deltas(deltas)))]
        np.testing.assert_array_equal(nn_row, target)
        np.testing.assert_array_equal(
            brute_force_mlc(corners, deltas, L), target.astype(int)
        )
        lls = np.round(models.lls_scores(model, deltas))
        np.testing.assert_array_equal(lls, target)


def test_large_power_limit_matches_nearest_reference():
    # at P = 2^8, rank-cut thresholded IDW predictions coincide with the
    # nearest-reference predictions when the minimum delta is unique
    rng = np.random.default_rng(30)
    X, Y = random_problem(rng, n=20, m=4, l=4)
    model = models.train(X, Y, alpha_mode=0.1)
    tuned = TunedMlMlm(model=model, power=2.0**8, threshold=0.5, lrl_curve=())
    for x in rng.normal(size=(10, 4)):
        deltas = models.clamp_deltas(models.predict_deltas(model, x))
        d_sorted = np.sort(deltas)
        if d_sorted[0] == d_sorted[1]:
            continue
        nn = models.nn_mlm_predict(model, x)
        rcut = models.ml_mlm_predict(tuned, x, threshold="local-rcut")
        np.testing.assert_array_equal(rcut.labels, nn.labels)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("decoder", ["ml", "ml-rcut", "nn", "lls", "br"])
def test_matrix_query_matches_one_row_queries(decoder):
    rng = np.random.default_rng(27)
    X, Y = random_problem(rng, n=25, m=4, l=4)
    Q = rng.normal(size=(6, 4))
    # float features, then integer ones, which take the exact distance kernel
    for X, Q in ((X, Q), (np.round(2.0 * X), np.round(2.0 * Q))):
        _check_one_row_queries(decoder, X, Y, Q)


def _check_one_row_queries(decoder, X, Y, Q):
    tuned = tune_ml_mlm(X, Y, alpha_mode=0.1)
    call, model = {
        "ml": (models.ml_mlm_predict, tuned),
        "ml-rcut": (lambda m, x: models.ml_mlm_predict(m, x, threshold="local-rcut"), tuned),
        "nn": (models.nn_mlm_predict, tuned.model),
        "lls": (models.lls_mlm_predict, tuned.model),
        "br": (models.br_mlm_predict, models.train_br(X, Y, alpha_mode=0.1)),
    }[decoder]
    batch = call(model, Q)
    rows = [call(model, q) for q in Q]
    base = models.base_model(model)
    deltas = models.predict_deltas(base, Q)
    for q, batch_deltas in zip(Q, deltas):
        np.testing.assert_array_equal(_bits(models.predict_deltas(base, q)), _bits(batch_deltas))
    assert batch.scores.shape == (6, 4) and batch.labels.shape == (6, 4)
    scores = np.array([r.scores for r in rows], dtype=np.float64)
    if decoder in ("nn", "br"):
        np.testing.assert_array_equal(_bits(batch.scores), _bits(scores))
    else:  # idw_scores' @ weights and lls_scores' lstsq run on the whole batch
        np.testing.assert_allclose(batch.scores, scores, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(batch.labels, [r.labels for r in rows])
    np.testing.assert_array_equal(_bits(batch.min_distance),
                                  _bits([r.min_distance for r in rows]))
    assert list(batch.uncertainty) == [r.uncertainty for r in rows]
    assert all(isinstance(r.min_distance, float) and isinstance(r.uncertainty, str)
               for r in rows)
    # a lone row and a 1-row matrix take the same code, numpy's vector-matrix
    # loop included, so every field has the same bits
    for q, alone in zip(Q, rows):
        matrix = call(model, q[None])
        np.testing.assert_array_equal(_bits(alone.scores), _bits(matrix.scores[0]))
        np.testing.assert_array_equal(alone.labels, matrix.labels[0])
        assert _bits(alone.min_distance) == _bits(matrix.min_distance[0])
        assert alone.uncertainty == matrix.uncertainty[0]
    empty = call(model, Q[:0])
    assert empty.scores.shape == empty.labels.shape == (0, 4)
    assert empty.min_distance.shape == empty.uncertainty.shape == (0,)


@st.composite
def repeating_rows(draw):
    """Float matrices of 0 to 6 rows over a few values, so that rows repeat and
    some differ only in the sign of a zero; C- or F-ordered."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e300])
    A = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m)),
                 dtype=np.float64).reshape(n, m)
    return np.asfortranarray(A) if draw(st.booleans()) else A


SIGNED_ZEROS = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0]])


class TestFirstSeen:
    @given(A=repeating_rows())
    @example(A=SIGNED_ZEROS)
    @example(A=np.asfortranarray(SIGNED_ZEROS))
    @example(A=np.zeros((0, 3)))
    @example(A=np.ones((1, 3)))
    @example(A=np.ones((2, 3)))
    @settings(max_examples=200)
    def test_sorted_unique_in_first_seen_order(self, A):
        idx, counts = models.first_seen(A)
        _, oracle_idx, oracle_counts = np.unique(A, axis=0, return_index=True,
                                                 return_counts=True)
        order = np.argsort(oracle_idx)
        assert idx.dtype.kind == counts.dtype.kind == "i"
        np.testing.assert_array_equal(idx, oracle_idx[order])
        np.testing.assert_array_equal(counts, oracle_counts[order])


class TestUniqueLabelVectors:
    """The fit keeps each distinct label vector once, with its count. Every
    decoder and the tuning must give what a fit against all N training rows
    gives: the reference below solves for the full N x N Dy and decodes with
    unweighted formulas over the N rows."""

    ALPHA = 0.3

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(31)
        n, m, l = 90, 4, 5
        # more label vectors than labels, so that lls-mlm's system is overdetermined
        pool = np.array([[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 1],
                         [0, 0, 0, 1, 0], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1],
                         [0, 0, 1, 0, 1], [1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], dtype=float)
        Y = pool[rng.integers(len(pool), size=n)]
        X = Y @ rng.normal(size=(l, m)) + 0.7 * rng.normal(size=(n, m))
        X[7] = X[2]  # a repeated input too
        Q = Y[:12] @ rng.normal(size=(l, m)) + rng.normal(size=(12, m))
        return X, Y, Q

    @pytest.fixture(scope="class")
    def reference(self, problem):
        X, Y, Q = problem
        refs = unique_rows(X)
        Dx = pairwise_distances(X, refs)
        gram, B = fit_ridge(Dx, pairwise_distances(Y, Y), self.ALPHA)
        d = pairwise_distances(Q, refs)
        D = np.maximum(d @ B, 0.0)
        projector = gram.solve(Dx.T)
        br_cols = np.stack([d @ projector @ np.abs(Y[:, [l]] - Y[:, l])
                            for l in range(Y.shape[1])], axis=-1)
        first = [i for i in range(len(Y)) if not (Y[:i] == Y[i]).all(axis=1).any()]
        return {"refs": refs, "Dx": Dx, "B": B, "deltas": D, "br_cols": br_cols,
                "nearest": np.argmin(D, axis=1), "first": first}

    def test_first_seen_labels_and_counts(self, problem, reference):
        X, Y, _ = problem
        model = models.train(X, Y, alpha_mode=self.ALPHA)
        first = reference["first"]
        np.testing.assert_array_equal(model.train_labels, Y[first])
        np.testing.assert_array_equal(
            model.label_counts, [(Y == Y[i]).all(axis=1).sum() for i in first])
        assert model.coefficients.shape == (len(reference["refs"]), len(first))
        np.testing.assert_allclose(model.coefficients, reference["B"][:, first],
                                   rtol=1e-9, atol=1e-9)

    def test_tuning_matches_n_columns(self, problem, reference):
        X, Y, _ = problem
        model, Dx, Dy, gram = models.fit(X, Y, alpha_mode=self.ALPHA)
        loo = tuning.loo_deltas(gram, Dx, Dy, model.coefficients)
        loo_n = loo_from_fit(reference["Dx"], pairwise_distances(Y, Y), self.ALPHA)
        np.testing.assert_allclose(loo, loo_n[:, reference["first"]], rtol=1e-9, atol=1e-9)

        tuned = tune_ml_mlm(X, Y, alpha_mode=self.ALPHA)
        power, curve = search_power(loo_n, Y, Y, np.ones(len(Y)))
        assert tuned.power == power
        for (P, value), (P_n, _) in zip(tuned.lrl_curve, curve):
            assert P == P_n
            scores = models.idw_scores(models.log_distances(loo), model.label_weights, P)
            scores_n = idw(loo_n, Y, P, np.ones(len(Y)))
            np.testing.assert_allclose(scores, scores_n, rtol=1e-9, atol=1e-9)
            # scores that tie analytically are ordered by round-off, which the
            # two summation orders may break either way
            low, high = self.ranking_loss_bracket(scores_n, Y, 1e-9)
            assert low - 1e-12 <= value <= high + 1e-12, P
        threshold = cardinality_threshold(idw(loo_n, Y, power, np.ones(len(Y))), Y)
        assert tuned.threshold == pytest.approx(threshold, rel=1e-9, abs=1e-9)

    @staticmethod
    def ranking_loss_bracket(S, Y, eps):
        """Ranking loss with the pairs closer than eps all kept, then all violated."""
        rel = Y == 1.0
        keep = rel.any(axis=1) & ~rel.all(axis=1)
        S, rel = S[keep], rel[keep]
        pair = rel[:, :, None] & ~rel[:, None, :]
        gap = S[:, None, :] - S[:, :, None]  # irrelevant minus relevant score
        n_pairs = pair.sum(axis=(1, 2))
        return tuple(float((((gap > bound) & pair).sum(axis=(1, 2)) / n_pairs).mean())
                     for bound in (eps, -eps))

    @pytest.mark.parametrize("decoder", ["ml", "ml-rcut", "nn", "lls", "br"])
    def test_decoder_matches_n_columns(self, problem, reference, decoder):
        X, Y, Q = problem
        tuned = TunedMlMlm(model=models.train(X, Y, alpha_mode=self.ALPHA),
                           power=6.0, threshold=0.4, lrl_curve=())
        D, nearest = reference["deltas"], reference["nearest"]
        k_cut = Y[nearest].sum(axis=1).astype(int)
        if decoder in ("ml", "ml-rcut"):
            logw = -tuned.power * np.log(np.where(D > 0, D, 1.0))
            W = np.exp(logw - logw.max(axis=1, keepdims=True))
            scores = (W @ Y) / W.sum(axis=1, keepdims=True)
            labels = scores > tuned.threshold if decoder == "ml" else local_rcut(scores, k_cut)
            threshold = None if decoder == "ml" else "local-rcut"
            pred = models.ml_mlm_predict(tuned, Q, threshold=threshold)
        elif decoder == "nn":
            scores = labels = Y[nearest]
            pred = models.nn_mlm_predict(tuned.model, Q)
        elif decoder == "lls":
            # unit counts: the anchor-linearized system of one equation per row
            full = models.DistanceModel(references=reference["refs"], coefficients=reference["B"],
                                        alpha=self.ALPHA, train_labels=Y,
                                        label_counts=np.ones(len(Y)))
            scores = models.lls_scores(full, D)
            labels = local_rcut(scores, k_cut)
            pred = models.lls_mlm_predict(tuned.model, Q)
        else:
            scores = models.scalar_multilateration_scores(Y, reference["br_cols"], np.ones(len(Y)))
            labels = local_rcut(scores, k_cut)
            pred = models.br_mlm_predict(models.train_br(X, Y, alpha_mode=self.ALPHA), Q)
        np.testing.assert_allclose(pred.scores, scores, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(pred.labels, labels.astype(int))
        np.testing.assert_allclose(pred.min_distance, D.min(axis=1), rtol=1e-9, atol=1e-9)


class TestIntegerFeatures:
    """0/1 features take linalg's exact integer distance kernel for the fit's
    Dx and Dy and for every query. Each method's outputs must be those of a
    run forced through cdist, bit for bit, and a row alone must get its
    batch distances' bits."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(41)
        X = (rng.random((70, 60)) < 0.1).astype(np.float64)
        Q = (rng.random((20, 60)) < 0.1).astype(np.float64)
        Q[:3] = rng.random((3, 60)) < 0.7  # dense rows among the sparse ones
        _, Y = random_problem(rng, n=70, l=5)
        return X, Y, Q

    @staticmethod
    def fit_and_decode(method, X, Y, Q):
        train, decode = modelio.method_functions(method)
        model = train(X, Y, alpha_mode="auto", label_names=())
        return model, decode(model, Q)

    @pytest.mark.parametrize("method", modelio.METHODS)
    def test_same_bits_as_a_run_forced_through_cdist(self, problem, method, monkeypatch):
        X, Y, Q = problem
        with mock.patch.object(linalg, "cdist", side_effect=AssertionError("cdist ran")):
            kernel = self.fit_and_decode(method, X, Y, Q)[1]
        for module in (linalg, models):
            monkeypatch.setattr(module, "integer_norms", lambda A: None)
        forced = self.fit_and_decode(method, X, Y, Q)[1]
        for name in ("scores", "min_distance"):
            np.testing.assert_array_equal(getattr(kernel, name).view(np.int64),
                                          getattr(forced, name).view(np.int64))
        np.testing.assert_array_equal(kernel.labels, forced.labels)
        np.testing.assert_array_equal(kernel.uncertainty, forced.uncertainty)

    @pytest.mark.parametrize("method", modelio.METHODS)
    def test_a_row_alone_has_its_batch_distances(self, problem, method):
        X, Y, Q = problem
        model, batch = self.fit_and_decode(method, X, Y, Q)
        decode, base = modelio.method_functions(method)[1], models.base_model(model)
        deltas = models.predict_deltas(base, Q)
        for i, q in enumerate(Q):
            alone = decode(model, q)
            np.testing.assert_array_equal(models.predict_deltas(base, q).view(np.int64),
                                          deltas[i].view(np.int64))
            assert alone.min_distance == batch.min_distance[i]
            assert alone.uncertainty == batch.uncertainty[i]
            np.testing.assert_array_equal(alone.labels, batch.labels[i])
            # the decoders' own matrix products may round a batch differently
            np.testing.assert_allclose(alone.scores, batch.scores[i], rtol=1e-12, atol=1e-12)
