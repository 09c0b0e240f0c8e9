import csv
import itertools
import json
import os
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# pytest --hypothesis-profile=ci runs every property test on a fixed example
# sequence with no per-example deadline, so a CI failure reproduces.
settings.register_profile("ci", derandomize=True, deadline=None)

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


def multilateration_objective(y, targets, deltas) -> float:
    """J(y) = sum_k (||y - t_k||^2 - delta_k^2)^2."""
    y = np.asarray(y, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    sq = ((targets - y) ** 2).sum(axis=1)
    return float(((sq - deltas**2) ** 2).sum())


def brute_force_mlc(targets, deltas, L: int) -> np.ndarray:
    """Exhaustive minimizer of the multilateration objective over {0,1}^L.

    Ties go to the lexicographically smallest bit vector. Enumeration is
    capped at L <= 20.
    """
    if L > 20:
        raise ValueError("brute-force enumeration is limited to L <= 20")
    best, best_val = None, np.inf
    for bits in itertools.product((0.0, 1.0), repeat=L):
        y = np.array(bits)
        val = multilateration_objective(y, targets, deltas)
        if val < best_val:
            best_val, best = val, y
    return best.astype(np.int64)


def export_csv(ds, features_path, labels_path) -> None:
    """Write a Dataset out as a CSV pair (round-trips bit-exactly)."""
    for path, names, mat in (
        (features_path, ds.feature_names, ds.features),
        (labels_path, ds.label_names, ds.labels),
    ):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(names)
            for row in mat:
                w.writerow([repr(float(v)) for v in row])


def write_result_table(table, path) -> None:
    """Write a stats.ResultTable in the CSV layout ResultTable.from_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", *table.methods])
        for name, row in zip(table.datasets, table.values):
            w.writerow([name, *[repr(float(v)) for v in row]])


def significantly_different(diagram: dict, a: str, b: str) -> bool:
    """True when methods a and b share no group in the diagram data."""
    ia = diagram["methods"].index(a)
    ib = diagram["methods"].index(b)
    gap = abs(diagram["average_ranks"][ia] - diagram["average_ranks"][ib])
    return gap > diagram["critical_difference"]


def idw(deltas, labels, P, counts):
    """models.idw_scores of raw deltas to label vectors counted as in counts."""
    from distmlc import models

    return models.idw_scores(models.log_distances(deltas), models.label_weights(labels, counts), P)


def unique_rows(X):
    """Unique rows of X (exact float equality), keeping first-seen order."""
    from distmlc.models import first_seen

    return X[first_seen(X)[0]]


def loo_from_fit(Dx, Dy, alpha):
    """tuning.loo_deltas on the ridge fit of Dx, Dy at alpha."""
    from distmlc.linalg import fit_ridge
    from distmlc.tuning import loo_deltas

    gram, B = fit_ridge(Dx, Dy, alpha)
    return loo_deltas(gram, Dx, Dy, B)


def rewrite(path, edit) -> None:
    """Rewrite a saved model file after edit(manifest, arrays) changed them in place.
    arrays holds every blob by name, shaped as "dimensions" says; CSR references
    are their three 1-D blobs (references_indptr, _indices and _values), and
    "dimensions" keeps their K x M shape."""
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        dims = manifest["dimensions"]
        arrays = {}
        for member in zf.namelist():
            if member.endswith(".f64"):
                name = member.removesuffix(".f64")
                a = np.frombuffer(zf.read(member), dtype="<f8")
                arrays[name] = (a.reshape(dims[name]) if name in dims else a).copy()
    edit(manifest, arrays)
    manifest["dimensions"] = {"references": manifest["dimensions"]["references"],
                              **{name: list(a.shape) for name, a in arrays.items()
                                 if not name.startswith("references_")}}
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, a in arrays.items():
            zf.writestr(name + ".f64", a.astype("<f8").tobytes())


def rewrite_manifest(path, edit) -> None:
    """Rewrite a saved model file's manifest after edit(manifest) changed it in
    place, keeping every blob as stored."""
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        blobs = {name: zf.read(name) for name in zf.namelist() if name != "manifest.json"}
    edit(manifest)
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, raw in blobs.items():
            zf.writestr(name, raw)


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
