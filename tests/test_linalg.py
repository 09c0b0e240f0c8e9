import numpy as np
import pytest

from distmlc.linalg import (
    RegularizedGram,
    SingularSystemError,
    leverages,
    fit_ridge,
    pairwise_distances,
)

from conftest import naive_pairwise, pinv_ridge


class TestPairwiseDistances:
    def test_three_four_five(self):
        A = np.array([[0.0, 0.0], [3.0, 4.0]])
        expected = np.array([[0.0, 5.0], [5.0, 0.0]])
        np.testing.assert_array_equal(pairwise_distances(A, A), expected)

    def test_single_point(self):
        assert pairwise_distances([[1.0]], [[1.0]])[0, 0] == 0.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            pairwise_distances(A, B), naive_pairwise(A, B), atol=1e-12
        )

    def test_self_distances_zero_diagonal_symmetric(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 4))
        D = pairwise_distances(A, A)
        np.testing.assert_array_equal(np.diag(D), np.zeros(6))
        np.testing.assert_allclose(D, D.T, atol=0)
        assert (D >= 0).all()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_in_either_argument(self, bad):
        A = np.zeros((2, 3))
        A[1, 2] = bad
        for args in ((A, np.zeros((2, 3))), (np.zeros((2, 3)), A)):
            with pytest.raises(ValueError, match="non-finite"):
                pairwise_distances(*args)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(20, 6))
        d1 = pairwise_distances(A, A)
        d2 = pairwise_distances(A.copy(), A.copy())
        assert (d1 == d2).all()


class TestSolveRegularizedLs:
    def test_identity_system(self):
        I3 = np.eye(3)
        np.testing.assert_allclose(fit_ridge(I3, I3, 0.0)[1], I3, atol=1e-12)

    def test_shrinkage(self):
        I2 = np.eye(2)
        B = fit_ridge(I2, 2.0 * I2, 1.0)[1]
        np.testing.assert_allclose(B, I2, atol=1e-12)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(11)
        Dx = rng.normal(size=(20, 8))
        Dy = rng.normal(size=(20, 5))
        B = fit_ridge(Dx, Dy, 0.1)[1]
        expected = pinv_ridge(Dx, Dy, 0.1)
        assert np.linalg.norm(B - expected) < 1e-8

    def test_alpha_zero_full_rank_residual_orthogonality(self):
        rng = np.random.default_rng(12)
        Dx = rng.normal(size=(15, 4))
        Dy = rng.normal(size=(15, 3))
        B = fit_ridge(Dx, Dy, 0.0)[1]
        resid = Dx @ B - Dy
        assert np.abs(Dx.T @ resid).max() < 1e-8

    def test_rank_deficient_alpha_zero_falls_back(self):
        Dx = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        Dy = np.array([[1.0], [1.0], [2.0]])
        B = fit_ridge(Dx, Dy, 0.0)[1]
        assert np.all(np.isfinite(B))
        np.testing.assert_allclose(Dx @ B, Dy, atol=1e-10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(np.eye(2), np.eye(2), -1.0)[1]

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        Dx = rng.normal(size=(12, 5))
        Dy = rng.normal(size=(12, 4))
        B1 = fit_ridge(Dx, Dy, 0.5)[1]
        B2 = fit_ridge(Dx.copy(), Dy.copy(), 0.5)[1]
        assert (B1 == B2).all()


class TestHatMatrixRow:
    """Leverages: the diagonal of the hat matrix H = Dx U^{-1} Dx^T."""

    def test_leverages_in_unit_interval_for_positive_alpha(self):
        rng = np.random.default_rng(15)
        Dx = np.abs(rng.normal(size=(25, 10)))
        gram = RegularizedGram(Dx, 0.05)
        h = leverages(gram, Dx)
        assert (h >= 0).all() and (h < 1).all()


def test_gram_not_positive_definite_raises():
    Dx = np.zeros((3, 2))
    with pytest.raises(SingularSystemError):
        RegularizedGram(Dx, 0.0)
