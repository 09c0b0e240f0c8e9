import os
import subprocess
import sys
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from distmlc import linalg
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


def exact_limit(M: int) -> int:
    """The largest m with 4*M*m**2 < 2**53: integer entries up to m take the kernel."""
    return isqrt((2**53 - 1) // (4 * M))


@st.composite
def integer_pairs(draw, over_limit=False):
    """Integer-valued A (Q x M, Q may be 0) and B (K x M): small or near-limit
    values of either sign, dense or sparse rows, some all-zero columns. With
    over_limit, one entry is one past exact_limit(M)."""
    M = draw(st.integers(1, 12))
    Q, K = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = exact_limit(M) if draw(st.booleans()) else 3
    A = rng.integers(-top, top, size=(Q, M), endpoint=True).astype(np.float64)
    B = rng.integers(-top, top, size=(K, M), endpoint=True).astype(np.float64)
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    A[rng.random(A.shape) >= density] = 0.0
    B[rng.random(B.shape) >= density] = 0.0
    zero_cols = rng.random(M) < 0.25
    A[:, zero_cols] = B[:, zero_cols] = 0.0
    edge = B if Q == 0 or draw(st.booleans()) else A
    i, j = rng.integers(edge.shape[0]), rng.integers(M)
    edge[i, j] = (exact_limit(M) + over_limit) * draw(st.sampled_from([-1.0, 1.0]))
    return A, B


def distances_and_cdist_calls(A, B):
    with mock.patch.object(linalg, "cdist", wraps=cdist) as spy:
        D = pairwise_distances(A, B)
    return D, spy.call_count


class TestIntegerKernel:
    """Integer-valued inputs within the bound take sqrt(|a|^2 + |b|^2 - 2a.b),
    which must equal cdist bit for bit (so a row gets the same bits alone and
    in any batch, as cdist's rows do); anything else must take cdist."""

    @given(integer_pairs())
    def test_equals_cdist_bit_for_bit(self, pair):
        A, B = pair
        D, calls = distances_and_cdist_calls(A, B)
        assert calls == 0
        assert D.shape == (A.shape[0], B.shape[0])
        np.testing.assert_array_equal(D.view(np.int64), cdist(A, B).view(np.int64))

    @given(integer_pairs(over_limit=True))
    def test_over_the_limit_takes_cdist(self, pair):
        D, calls = distances_and_cdist_calls(*pair)
        assert calls == 1

    @given(integer_pairs(), st.sampled_from("AB"), st.integers(0, 2**32 - 1))
    def test_a_non_integer_entry_takes_cdist(self, pair, where, seed):
        A, B = pair
        rng = np.random.default_rng(seed)
        M = A if where == "A" and A.shape[0] else B
        M[rng.integers(M.shape[0]), rng.integers(M.shape[1])] += 0.5
        D, calls = distances_and_cdist_calls(A, B)
        assert calls == 1
        np.testing.assert_array_equal(D.view(np.int64), cdist(A, B).view(np.int64))

    def test_same_bits_at_one_and_two_blas_threads(self):
        """The integer kernel's GEMM is exact, so its bits do not depend on how
        BLAS splits the product; each thread count runs in a child process."""
        script = (
            "import hashlib, numpy as np\n"
            "from distmlc import linalg\n"
            "rng = np.random.default_rng(5)\n"
            "A = rng.integers(-3, 4, size=(300, 400)).astype(float)\n"
            "B = rng.integers(-3, 4, size=(200, 400)).astype(float)\n"
            "cdist, linalg.cdist = linalg.cdist, None  # the kernel must not fall back\n"
            "for D in (linalg.pairwise_distances(A, B), cdist(A, B)):\n"
            "    print(hashlib.sha256(D.tobytes()).hexdigest())\n"
        )
        src = str(Path(linalg.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            digests += out.stdout.split()
        assert len(digests) == 4 and len(set(digests)) == 1


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
