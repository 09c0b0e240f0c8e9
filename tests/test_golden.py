"""Golden outputs of every decoder and of the ml-mlm tuning on a seeded problem.

tests/golden/make_golden.py made the .npz files; these tests recompute
everything with the same functions and compare. Floats may move by
round-off when a summation order changes (within 1e-9); labels,
uncertainty buckets and the chosen power must not move at all.
"""
from pathlib import Path

import numpy as np
import pytest

from golden import make_golden

GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-9
DECODERS = ("ml-mlm", "ml-mlm-rcut", "nn-mlm", "lls-mlm", "br-mlm")


@pytest.fixture(scope="module")
def problem():
    with np.load(GOLDEN / "problem.npz") as f:
        return dict(f)


@pytest.fixture(scope="module")
def expected():
    with np.load(GOLDEN / "expected.npz") as f:
        return dict(f)


def assert_close(actual, want):
    np.testing.assert_allclose(actual, want, rtol=TOL, atol=TOL)


def test_problem_reproduced_from_seed(problem):
    made = make_golden.make_problem()
    assert sorted(made) == sorted(problem)
    for key, arr in problem.items():
        np.testing.assert_array_equal(made[key], arr)


def test_ml_mlm_tuning(problem, expected):
    actual = make_golden.tuning_outputs(problem)
    assert actual["ml_power"] == expected["ml_power"]
    for key in ("ml_alpha", "ml_threshold", "ml_curve", "ml_loo"):
        assert_close(actual[key], expected[key])


@pytest.mark.parametrize("source", ["api", "cli"])
def test_decoders(problem, expected, source, tmp_path):
    if source == "api":
        actual = make_golden.api_outputs(problem)
    else:
        actual = make_golden.cli_outputs(problem, tmp_path)
    for name in DECODERS:
        key = f"{source}_{name}_"
        assert_close(actual[key + "scores"], expected[key + "scores"])
        assert_close(actual[key + "min_distance"], expected[key + "min_distance"])
        np.testing.assert_array_equal(actual[key + "labels"], expected[key + "labels"])
        np.testing.assert_array_equal(
            actual[key + "uncertainty"], expected[key + "uncertainty"])
