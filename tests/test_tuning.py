import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distmlc import models, tuning
from distmlc.linalg import pairwise_distances
from distmlc.metrics import ranking_loss

from conftest import idw, loo_from_fit, random_problem, unique_rows


def naive_loo_oracle(Dx, Dy, alpha, X, Y, refs):
    """Retrain without instance i, then predict its distance profile."""
    n = Dx.shape[0]
    out = np.zeros((n, Dy.shape[1]))
    K = Dx.shape[1]
    for i in range(n):
        keep = np.ones(n, dtype=bool)
        keep[i] = False
        U = Dx[keep].T @ Dx[keep] + alpha * np.eye(K)
        B = np.linalg.solve(U, Dx[keep].T @ Dy[keep])
        out[i] = Dx[i] @ B
    return out


class TestLooDeltas:
    def test_matches_retrain_oracle(self):
        rng = np.random.default_rng(41)
        X, Y = random_problem(rng, n=10, m=3, l=3)
        refs = unique_rows(X)
        Dx = pairwise_distances(X, refs)
        Dy = pairwise_distances(Y, Y)
        loo = loo_from_fit(Dx, Dy, 0.1)
        oracle = naive_loo_oracle(Dx, Dy, 0.1, X, Y, refs)
        assert np.abs(loo - oracle).max() < 1e-8

    def test_orthonormal_rows_uniform_shrinkage(self):
        # Dx with orthonormal rows: H = Dx (I*(1+a))^-1 Dx^T has constant
        # diagonal 1/(1+alpha); Eq reduces to a closed-form shrinkage
        n = 4
        Dx = np.eye(n)
        rng = np.random.default_rng(42)
        Dy = rng.random((n, 3))
        alpha = 1.0
        loo = loo_from_fit(Dx, Dy, alpha)
        h = 1.0 / (1.0 + alpha)
        expected = (h * Dy - h * Dy) / (1.0 - h)  # Dy_hat = H Dy = h*Dy
        np.testing.assert_allclose(loo, expected, atol=1e-12)

    def test_duplicated_instances_stay_finite(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        Y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        refs = unique_rows(X)
        Dx = pairwise_distances(X, refs)
        Dy = pairwise_distances(Y, Y)
        loo = loo_from_fit(Dx, Dy, 0.5)
        assert np.all(np.isfinite(loo))

    def test_leverage_near_one_reported(self):
        Dx = np.eye(3)
        Dy = np.eye(3)
        with pytest.raises(tuning.LeverageError) as err:
            loo_from_fit(Dx, Dy, 0.0)
        assert "0" in str(err.value)


class TestLrl:
    """The LOO ranking-loss curve of search_power, one LOO column per row of Y."""

    @staticmethod
    def curve(loo, Y):
        return [value for _, value in tuning.search_power(loo, Y, Y, np.ones(len(Y)))[1]]

    def test_perfect_ranking_zero(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # craft loo deltas: tiny distance to the matching training row
        loo = np.array([[0.01, 5.0], [5.0, 0.01]])
        assert self.curve(loo, Y) == [0.0] * 81

    def test_inverted_ranking_one(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loo = np.array([[5.0, 0.01], [0.01, 5.0]])
        assert self.curve(loo, Y) == [1.0] * 81

    def test_pair_enumeration(self):
        # one instance, scores [0.2, 0.5, 0.1] vs truth [1,0,0]:
        # pair (0,1) violated, pair (0,2) fine -> 0.5
        val = ranking_loss(
            np.array([[0.2, 0.5, 0.1]]), np.array([[1.0, 0.0, 0.0]])
        )
        assert val == 0.5

    def test_all_relevant_instances_skipped(self):
        Y = np.array([[1.0, 1.0], [1.0, 0.0]])
        loo = np.array([[1.0, 2.0], [2.0, 1.0]])
        # only instance 1 counts, and its relevant label ranks first
        assert self.curve(loo, Y) == [0.0] * 81

    def test_no_usable_instance_rejected(self):
        Y = np.ones((2, 2))
        with pytest.raises(ValueError):
            self.curve(np.ones((2, 2)), Y)

    def test_invariant_under_monotone_score_transform(self):
        # LRL depends only on pairwise score order
        rng = np.random.default_rng(43)
        Y = (rng.random((6, 4)) < 0.5).astype(float)
        Y[Y.sum(axis=1) == 0, 0] = 1.0
        Y[Y.sum(axis=1) == 4] = [1.0, 1.0, 1.0, 0.0]
        scores = rng.random((6, 4))
        a = ranking_loss(scores, Y)
        b = ranking_loss(np.exp(3.0 * scores) + 7.0, Y)
        assert a == b


class TestSearchPower:
    def test_grid_has_81_points(self):
        assert len(tuning.POWER_GRID_EXPONENTS) == 81
        rng = np.random.default_rng(44)
        X, Y = random_problem(rng, n=12, m=3, l=3)
        refs = unique_rows(X)
        Dx = pairwise_distances(X, refs)
        Dy = pairwise_distances(Y, Y)
        loo = loo_from_fit(Dx, Dy, 0.1)
        p, curve = tuning.search_power(loo, Y, Y, np.ones(len(Y)))
        assert len(curve) == 81
        assert p in {pp for pp, _ in curve}
        best = min(v for _, v in curve)
        assert dict(curve)[p] == best

    def test_degenerate_labels_tie_break_smallest(self):
        Y = np.tile([1.0, 0.0], (5, 1))
        loo = np.abs(np.random.default_rng(45).normal(size=(5, 5))) + 0.1
        p, curve = tuning.search_power(loo, Y, Y, np.ones(len(Y)))
        assert p == 1.0  # 2^0, all grid points tie at LRL 0

    def test_analytic_tie_at_one_is_no_violation(self):
        # the relevant label 0 and the irrelevant label 1 are in every label
        # vector, so both score 1 at every power: a tie, not a ranking error
        rng = np.random.default_rng(47)
        labels = (rng.random((9, 4)) < 0.5).astype(float)
        labels[:, :2] = 1.0
        loo = 0.1 + 2.0 * rng.random((30, 9))
        Y = np.tile([1.0, 0.0, 0.0, 0.0], (30, 1))
        counts = rng.integers(1, 5, size=9).astype(float)
        scores = idw(loo, labels, 256.0, counts)
        assert (scores[:, :2] == 1.0).all()
        _, curve = tuning.search_power(loo, Y, labels, counts)
        assert all(value == 0.0 for _, value in curve)

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        X, Y = random_problem(rng, n=10, m=3, l=3)
        refs = unique_rows(X)
        Dx = pairwise_distances(X, refs)
        Dy = pairwise_distances(Y, Y)
        loo = loo_from_fit(Dx, Dy, 0.1)
        ones = np.ones(len(Y))
        assert (tuning.search_power(loo, Y, Y, ones)
                == tuning.search_power(loo.copy(), Y.copy(), Y.copy(), ones))


class TestCardinalityThreshold:
    def test_perfect_scores_return_largest_valid(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = tuning.cardinality_threshold(Y, Y)
        # any t in (0,1) matches Card exactly; scan convention returns the
        # largest candidate below 1, i.e. the highest observed sub-1 value
        assert 0.0 <= t < 1.0
        card_pred = np.mean((Y > t).sum(axis=1))
        assert card_pred == 1.0

    def test_enumerated_example(self):
        Y = np.array([[1.0, 0.0], [1.0, 0.0]])  # Card = 1.0
        scores = np.array([[0.9, 0.2], [0.8, 0.3]])
        t = tuning.cardinality_threshold(scores, Y)
        assert np.mean((scores > t).sum(axis=1)) == 1.0
        assert t == 0.3  # largest threshold achieving cardinality 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(47)
        scores = rng.random((8, 5))
        cards = [
            np.mean((scores > t).sum(axis=1)) for t in np.linspace(0, 1, 23)
        ]
        assert all(a >= b for a, b in zip(cards, cards[1:]))


class TestLocalRcut:
    def test_full_cut(self):
        out = models.local_rcut(np.array([0.2, 0.9, 0.4]), 3)
        np.testing.assert_array_equal(out, [1, 1, 1])

    def test_empty_cut(self):
        out = models.local_rcut(np.array([0.2, 0.9, 0.4]), 0)
        np.testing.assert_array_equal(out, [0, 0, 0])

    def test_tie_break_smaller_index(self):
        out = models.local_rcut(np.array([0.3, 0.9, 0.3]), 2)
        np.testing.assert_array_equal(out, [1, 1, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            models.local_rcut(np.zeros(3), 4)

    @given(
        scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_cardinality_always_k_cut(self, scores, frac):
        scores = np.array(scores)
        k = int(round(frac * scores.size))
        assert models.local_rcut(scores, k).sum() == k


class TestTuneMlMlm:
    def test_end_to_end(self):
        rng = np.random.default_rng(48)
        X, Y = random_problem(rng, n=20, m=4, l=4)
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
        assert tuned.power > 0
        assert len(tuned.lrl_curve) == 81
        pred = models.ml_mlm_predict(tuned, X[0])
        assert pred.labels.shape == (4,)

    def test_fixed_power_stores_loo_cardinality_threshold(self):
        rng = np.random.default_rng(49)
        X, Y = random_problem(rng, n=15, m=3, l=3)
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1, power_mode=2.0)
        model, Dx, Dy, gram = models.fit(X, Y, alpha_mode=0.1)
        loo = tuning.loo_deltas(gram, Dx, Dy, model.coefficients)
        scores = models.idw_scores(models.log_distances(loo), model.label_weights, 2.0)
        assert (tuned.power, tuned.lrl_curve) == (2.0, ())
        assert tuned.threshold == tuning.cardinality_threshold(scores, Y)

    def test_curve_csv(self, tmp_path):
        rng = np.random.default_rng(50)
        X, Y = random_problem(rng, n=12, m=3, l=3)
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
        out = tmp_path / "curve.csv"
        tuning.lrl_curve_csv(tuned.lrl_curve, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,P,LRL"
        assert len(lines) == 82


class TestNothingToRank:
    """Tuning the power needs a row with a relevant and an irrelevant label."""

    @pytest.fixture
    def X(self):
        return np.random.default_rng(51).normal(size=(12, 3))

    @pytest.mark.parametrize("labels", ["one-label", "all-zero", "all-one"])
    def test_tuned_power_rejected_before_fitting(self, X, labels, monkeypatch):
        Y = {"one-label": (np.arange(12) % 2 == 0).astype(float)[:, None],
             "all-zero": np.zeros((12, 4)),
             "all-one": np.ones((12, 4))}[labels]

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the labels")

        monkeypatch.setattr(models, "fit", no_fit)
        with pytest.raises(ValueError, match="fixed power") as err:
            tuning.tune_ml_mlm(X, Y, alpha_mode=0.1)
        assert "no training row has both a relevant and an irrelevant label" in str(err.value)

    @pytest.mark.parametrize("labels", ["one-label", "all-zero"])
    def test_fixed_power_still_trains(self, X, labels):
        Y = (np.arange(12) % 2 == 0).astype(float)[:, None] if labels == "one-label" \
            else np.zeros((12, 4))
        tuned = tuning.tune_ml_mlm(X, Y, alpha_mode=0.1, power_mode=2.0)
        assert tuned.power == 2.0 and tuned.lrl_curve == ()
        pred = models.ml_mlm_predict(tuned, X[:3])
        assert pred.scores.shape == (3, Y.shape[1])
        assert np.isfinite(tuned.threshold)
