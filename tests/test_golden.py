"""Golden outputs of every decoder and of the ml-mlm tuning on a seeded problem.

tests/golden/make_golden.py made the .npz files; these tests recompute
everything with the same functions and compare. Floats may move by
round-off when a summation order changes (within 1e-9); labels,
uncertainty buckets and the chosen power must not move at all. The same
tolerances hold between runs at different BLAS thread counts, whose bytes
may differ.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distmlc
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


# Writes the CLI and tuning outputs of the golden problem argv[1] to argv[2].
CHILD = """
import sys, tempfile
from pathlib import Path
import numpy as np
from golden import make_golden
with np.load(sys.argv[1]) as f:
    problem = dict(f)
out = make_golden.tuning_outputs(problem)
with tempfile.TemporaryDirectory() as tmp:
    out.update(make_golden.cli_outputs(problem, Path(tmp)))
np.savez(sys.argv[2], **out)
"""


def test_blas_thread_counts_agree(tmp_path):
    """OPENBLAS_NUM_THREADS 1 and 2 change the round-off of the matrix products
    (cli scores by about 1e-13, the LOO matrix by about 1e-12), not the
    chosen power, the labels or the buckets."""
    path = os.pathsep.join([str(Path(distmlc.__file__).parents[1]), str(Path(__file__).parent)])
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", CHILD, str(GOLDEN / "problem.npz"), str(out)],
                       env=env, check=True)
        with np.load(out) as f:
            runs.append(dict(f))
    one, two = runs
    assert sorted(one) == sorted(two)
    for key in one:
        if key == "ml_power" or key.endswith(("_labels", "_uncertainty")):
            np.testing.assert_array_equal(two[key], one[key], err_msg=key)
        else:
            assert_close(two[key], one[key])
