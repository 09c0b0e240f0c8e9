"""Regenerate the golden inputs and outputs that tests/test_golden.py checks.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Writes two files next to this script:

problem.npz   a seeded synthetic problem: X_train (120 x 6) with one
              duplicated row, Y_train (120 x 6), X_test (20 x 6) and
              Y_test; some label rows are all-zero, so the ranking-loss
              code has rows to skip.
expected.npz  what distmlc computes on it:
              ml_alpha, ml_power, ml_threshold, ml_curve (81 x 2 of P, LRL)
              and ml_loo (the 120 x 120 leave-one-out distance matrix);
              for each decoder (ml-mlm, ml-mlm-rcut, nn-mlm, lls-mlm,
              br-mlm) and each source (api: the one-row functions, one
              call per test row; cli: `distmlc train` then `distmlc
              predict`) the arrays <source>_<decoder>_scores, _labels,
              _min_distance and _uncertainty.

tests/test_golden.py recomputes the outputs with the functions below
and compares them with these files. Running this script prints each
output's largest change against the expected.npz it replaces, then
rewrites the files: do that only to make new goldens on purpose, never
to make a failing golden test pass.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from distmlc import cli, models, tuning
from distmlc.linalg import fit_ridge, pairwise_distances

HERE = Path(__file__).resolve().parent
SEED = 20230509
N_TRAIN, N_TEST, M, L = 120, 20, 6, 6


def make_problem() -> dict:
    rng = np.random.default_rng(SEED)
    n = N_TRAIN + N_TEST
    Y = (rng.random((n, L)) < 0.3).astype(float)
    A = rng.normal(size=(L, M))
    X = np.round(Y @ A + rng.normal(size=(n, M)), 6)
    X[1] = X[0]  # a repeated input: fewer references than training rows
    return {"X_train": X[:N_TRAIN], "Y_train": Y[:N_TRAIN],
            "X_test": X[N_TRAIN:], "Y_test": Y[N_TRAIN:]}


def write_csv_pair(X, Y, prefix: Path) -> str:
    feat, lab = Path(f"{prefix}_features.csv"), Path(f"{prefix}_labels.csv")
    feat.write_text(",".join(f"f{j}" for j in range(X.shape[1])) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in X))
    lab.write_text(",".join(f"y{j}" for j in range(Y.shape[1])) + "\n" + "".join(
        ",".join(str(int(v)) for v in row) + "\n" for row in Y))
    return f"{feat};{lab}"


def stack(preds) -> dict:
    return {
        "scores": np.array([p["scores"] for p in preds], dtype=np.float64),
        "labels": np.array([p["labels"] for p in preds], dtype=np.int64),
        "min_distance": np.array([p["min_distance"] for p in preds], dtype=np.float64),
        "uncertainty": np.array([p["uncertainty"] for p in preds]),
    }


def api_outputs(problem: dict) -> dict:
    X, Y = problem["X_train"], problem["Y_train"]
    tuned = tuning.tune_ml_mlm(X, Y)
    base = models.train(X, Y)
    br = models.train_br(X, Y)
    calls = {
        "ml-mlm": lambda x: models.ml_mlm_predict(tuned, x),
        "ml-mlm-rcut": lambda x: models.ml_mlm_predict(tuned, x, threshold="local-rcut"),
        "nn-mlm": lambda x: models.nn_mlm_predict(base, x),
        "lls-mlm": lambda x: models.lls_mlm_predict(base, x),
        "br-mlm": lambda x: models.br_mlm_predict(br, x),
    }
    out = {}
    for name, call in calls.items():
        preds = [vars(call(x)) for x in problem["X_test"]]
        for field, arr in stack(preds).items():
            out[f"api_{name}_{field}"] = arr
    return out


def cli_outputs(problem: dict, work: Path) -> dict:
    train = write_csv_pair(problem["X_train"], problem["Y_train"], work / "train")
    test = write_csv_pair(problem["X_test"], problem["Y_test"], work / "test")
    runs = {"ml-mlm": ("ml-mlm", []), "ml-mlm-rcut": ("ml-mlm", ["--threshold", "local-rcut"]),
            "nn-mlm": ("nn-mlm", []), "lls-mlm": ("lls-mlm", []), "br-mlm": ("br-mlm", [])}
    out = {}
    for name, (method, flags) in runs.items():
        model = work / f"{method}.dmlm"
        if not model.exists():
            if cli.main(["train", train, "--method", method, "--out", str(model)]) != 0:
                raise SystemExit(f"train {method} failed")
        pred = work / f"{name}.jsonl"
        if cli.main(["predict", str(model), test, "--out", str(pred), *flags]) != 0:
            raise SystemExit(f"predict {name} failed")
        preds = [json.loads(line) for line in pred.read_text().splitlines()]
        for field, arr in stack(preds).items():
            out[f"cli_{name}_{field}"] = arr
    return out


def tuning_outputs(problem: dict) -> dict:
    X, Y = problem["X_train"], problem["Y_train"]
    tuned = tuning.tune_ml_mlm(X, Y)
    Dx = pairwise_distances(X, tuned.references)
    Dy = pairwise_distances(Y, Y)
    gram, B = fit_ridge(Dx, Dy, tuned.alpha)
    loo = tuning.loo_deltas(gram, Dx, Dy, B)
    return {
        "ml_alpha": np.float64(tuned.alpha),
        "ml_power": np.float64(tuned.power),
        "ml_threshold": np.float64(tuned.threshold),
        "ml_curve": np.array(tuned.lrl_curve, dtype=np.float64),
        "ml_loo": loo,
    }


def print_changes(expected: dict) -> None:
    """Print each output's largest change against the expected.npz on disk."""
    path = HERE / "expected.npz"
    if not path.exists():
        return
    with np.load(path) as f:
        old = dict(f)
    for key in sorted(set(old) | set(expected)):
        if key not in old or key not in expected:
            print(f"{key}: {'added' if key in expected else 'removed'}")
        elif old[key].shape != expected[key].shape:
            print(f"{key}: shape {old[key].shape} -> {expected[key].shape}")
        elif old[key].dtype.kind in "fi":
            print(f"{key}: max change {np.abs(expected[key] - old[key]).max(initial=0.0):.3g}")
        else:
            print(f"{key}: {np.count_nonzero(expected[key] != old[key])} entries differ")


def main() -> int:
    problem = make_problem()
    expected = tuning_outputs(problem)
    expected.update(api_outputs(problem))
    with tempfile.TemporaryDirectory() as tmp:
        expected.update(cli_outputs(problem, Path(tmp)))
    print_changes(expected)
    np.savez(HERE / "problem.npz", **problem)
    np.savez(HERE / "expected.npz", **expected)
    print(f"wrote {len(problem)} inputs and {len(expected)} outputs to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
