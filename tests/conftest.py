import os
import re
from pathlib import Path

import numpy as np
import pytest

# Mulan-style benchmark files are looked up under $DISTMLC_DATA (default:
# <repo>/data). Layout per dataset: <name>-train.arff, <name>-test.arff,
# <name>.xml. The desk-scale reproduction tests skip when absent.
DATA_DIR = Path(os.environ.get("DISTMLC_DATA", Path(__file__).resolve().parents[1] / "data"))


def mulan_paths(name):
    train = DATA_DIR / f"{name}-train.arff"
    test = DATA_DIR / f"{name}-test.arff"
    xml = DATA_DIR / f"{name}.xml"
    if not (train.exists() and test.exists() and xml.exists()):
        pytest.skip(
            f"benchmark dataset '{name}' not found under {DATA_DIR} "
            "(see README for download instructions)"
        )
    return train, test, xml


def random_problem(rng, n=None, m=None, l=None):
    n = n or int(rng.integers(5, 31))
    m = m or int(rng.integers(2, 7))
    l = l or int(rng.integers(2, 6))
    X = rng.normal(size=(n, m))
    Y = (rng.random((n, l)) < 0.4).astype(float)
    # keep at least one relevant and one irrelevant label per instance
    for i in range(n):
        if Y[i].sum() == 0:
            Y[i, int(rng.integers(l))] = 1.0
        if Y[i].sum() == l:
            Y[i, int(rng.integers(l))] = 0.0
    return X, Y


def naive_pairwise(A, B):
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    out = np.zeros((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            s = 0.0
            for c in range(A.shape[1]):
                diff = A[i, c] - B[j, c]
                s += diff * diff
            out[i, j] = np.sqrt(s)
    return out


def loo_from_fit(Dx, Dy, alpha):
    """tuning.loo_deltas on the ridge fit of Dx, Dy at alpha."""
    from distmlc.linalg import fit_ridge
    from distmlc.tuning import loo_deltas

    gram, B = fit_ridge(Dx, Dy, alpha)
    return loo_deltas(gram, Dx, Dy, B)


def pinv_ridge(Dx, Dy, alpha):
    K = Dx.shape[1]
    U = Dx.T @ Dx + alpha * np.eye(K)
    return np.linalg.pinv(U) @ Dx.T @ Dy


# One summary line per acceptance criterion. Several tests may share a
# criterion number; the worst outcome wins (FAIL > SKIP > PASS).
_CRITERION_NAMES = {
    1: "multilateration counterexample, exact objective values",
    2: "closed-form LOO matches retrain-without-i oracle (< 1e-8)",
    3: "twelve metrics match naive-loop oracles (< 1e-12)",
    4: "benchmark split reproduction within +/- 0.02",
    5: "tuned power exponents within +/- 0.5, unimodal search curve",
    6: "large-P rank-cut predictions identical to nearest-neighbor",
    7: "exact recovery: anchor linearization and per-label cubic",
    8: "byte-identical benchmark CSV, bit-identical save/load",
    9: "Friedman rejection and Nemenyi separation on published table",
}
_CRITERION_RESULTS = {}
_OUTCOME_RANK = {"PASS": 0, "SKIP": 1, "FAIL": 2}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    m = re.search(r"criterion_(\d+)", report.nodeid)
    if m is None:
        return
    if report.when == "call":
        outcome = "PASS" if report.passed else (
            "SKIP" if report.skipped else "FAIL"
        )
    elif report.when == "setup" and (report.skipped or report.failed):
        outcome = "SKIP" if report.skipped else "FAIL"
    else:
        return
    num = int(m.group(1))
    prev = _CRITERION_RESULTS.get(num)
    if prev is None or _OUTCOME_RANK[outcome] > _OUTCOME_RANK[prev]:
        _CRITERION_RESULTS[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):
        outcome = _CRITERION_RESULTS[num]
        terminalreporter.write_line(
            f"criterion {num}: {outcome} - {_CRITERION_NAMES[num]}"
        )
