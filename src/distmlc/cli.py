"""Command-line interface.

Subcommands: train, predict, evaluate, benchmark, stats.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
All data outputs are byte-deterministic for identical inputs and flags.

Dataset specs (data.load_dataset); a single file is read as CSV when its
name ends in .csv and as ARFF otherwise:
  features.csv;labels.csv        CSV pair with header rows
  data.arff@labels.xml           one file with a Mulan XML label manifest
  data.arff                      one file with --labels-last L

train, evaluate and benchmark read the whole spec. predict reads the
features file of a CSV pair, or every column of a single file that is not
one of the model's labels (an @labels.xml suffix is ignored), and applies the
min-max scaler that train --scale stored in the model. A header-only input
predicts to an empty output. predict alone writes the per-row outputs and
sets a fixed threshold; train stores the LOO cardinality threshold.

modelio.method_functions maps a method name to its trainer and decoder; this
module keeps only the rules for the ml-mlm-only flags (--power, --threshold,
and --curve-out, which also needs a tuned power) and predict's row chunking.
benchmark --methods names each method once.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as dataio
from . import metrics as metricsmod
from . import models, stats, tuning
from .linalg import SingularSystemError
from .modelio import METHODS, ModelFileError, base_model, load_model, method_functions, save_model

# the keys of a prediction record, in file order
PREDICTION_FIELDS = ("scores", "labels", "min_distance", "uncertainty")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def apply_scale(X, scale):
    """X under a min-max scaler from data.min_max_bounds; None leaves X as it is."""
    return X if scale is None else (X - np.asarray(scale["min"])) / np.asarray(scale["span"])


def load_features(spec, manifest):
    """The feature columns of a predict input, under the model's scaler: the
    features file of a CSV pair, whole, or the columns of a single file that
    are not the model's labels."""
    if ";" in spec:
        _, X = dataio.read_csv_matrix(spec.split(";", 1)[0])
    else:
        names, values = dataio.read_table(spec.rsplit("@", 1)[0])
        labels = set(manifest["label_names"])
        X = values[:, [i for i, name in enumerate(names) if name not in labels]]
    return apply_scale(X, manifest["scale"])


def fit_method(method, ds, alpha="auto", power=None):
    """Train one model of the requested kind on a Dataset; alpha is "auto" or
    a float, power None (the ml-mlm default), "tuned" or a float."""
    if method != "ml-mlm" and power is not None:
        raise UsageError(f"--power applies to ml-mlm only, not to {method}")
    train = method_functions(method)[0]
    extra = {} if power is None else {"power_mode": power}
    return train(ds.features, ds.labels, alpha_mode=alpha, label_names=ds.label_names, **extra)


# Rows per predict_dataset chunk: this budget over the bytes of one row's K input
# distances and U predicted distances, K references and U unique label vectors.
# A chunk's temporaries then stay within a few MB.
PREDICT_CHUNK_BYTES = 1 << 20


def predict_dataset(method, model, X, threshold=None) -> models.Prediction:
    """Batch predictions (Q-row arrays) for every row of X, in row chunks; an
    ml-mlm threshold is None or "cardinality" (the model's), "local-rcut" or a float."""
    if threshold is not None and method != "ml-mlm":
        raise UsageError(f"--threshold applies to ml-mlm only, not to {method}")
    decode = method_functions(method)[1]
    extra = {} if threshold is None else {"threshold": threshold}
    K, U = base_model(model).coefficients.shape
    step = max(1, PREDICT_CHUNK_BYTES // (8 * (K + U)))
    # a 0-row X decodes once, to an empty Prediction
    parts = [decode(model, X[i:i + step], **extra) for i in range(0, max(X.shape[0], 1), step)]
    return models.Prediction(*(np.concatenate([getattr(p, name) for p in parts])
                               for name in PREDICTION_FIELDS))


def write_predictions(preds, path) -> None:
    """One JSON line per row of a batch Prediction."""
    rows = zip(*(getattr(preds, name).tolist() for name in PREDICTION_FIELDS))
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(PREDICTION_FIELDS, row))) + "\n")


def read_predictions(path):
    """The scores and labels of a predictions file, each an N x L array; every
    record holds finite scores and 0/1 labels, as many as the first record's scores."""
    scores, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                s, y = (np.array(rec[field], dtype=np.float64) for field in ("scores", "labels"))
                if s.ndim != 1 or y.ndim != 1:
                    raise ValueError("scores and labels must be lists of numbers")
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise dataio.DataFormatError(
                    f"{path} line {n}: not a prediction record "
                    f"({type(exc).__name__}: {exc})") from None
            if not scores:
                first, width = n, s.size
            for field, size in (("scores", s.size), ("labels", y.size)):
                if size != width:
                    raise dataio.DataFormatError(
                        f"{path} line {n}: {size} {field}, but line {first} has {width} scores")
            if not np.all(np.isfinite(s)):
                raise dataio.DataFormatError(f"{path} line {n}: a score is not finite")
            if not np.all((y == 0.0) | (y == 1.0)):
                raise dataio.DataFormatError(f"{path} line {n}: a label is not 0 or 1")
            scores.append(s)
            labels.append(y)
    if not scores:
        raise dataio.DataFormatError(f"{path}: no prediction records")
    return np.array(scores), np.array(labels)


# ---------------------------------------------------------------- commands

def cmd_train(args) -> int:
    if args.curve_out and (args.method != "ml-mlm" or args.power not in (None, "tuned")):
        fixed = "" if args.power is None else f" with --power {args.power}"
        raise UsageError(f"--curve-out needs ml-mlm with a tuned power; "
                         f"{args.method}{fixed} searches no power")
    ds = dataio.load_dataset(args.data, args.labels_last)
    scale = dataio.min_max_bounds(ds.features) if args.scale == "minmax" else None
    model = fit_method(
        args.method, replace(ds, features=apply_scale(ds.features, scale)),
        alpha=args.alpha, power=args.power,
    )
    save_model(args.out, model, args.method, scale)
    if args.curve_out:
        tuning.lrl_curve_csv(model.lrl_curve, args.curve_out)
    return EXIT_OK


def cmd_predict(args) -> int:
    model, manifest = load_model(args.model)
    X = load_features(args.data, manifest)
    write_predictions(predict_dataset(manifest["method"], model, X, args.threshold), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    scores, labels = read_predictions(args.predictions)
    truth = dataio.load_dataset(args.truth, args.labels_last)
    if labels.shape != truth.labels.shape:
        raise dataio.DataFormatError(
            "predictions {} are {} x {} but the truth labels of {} are {} x {}".format(
                args.predictions, *labels.shape, args.truth, *truth.labels.shape))
    report = metricsmod.evaluate(labels, scores, truth.labels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return EXIT_OK


def _parse_dataset_arg(entry: str):
    parts = entry.split(",")
    if len(parts) != 3:
        raise UsageError(
            f"--dataset expects 'name,trainspec,testspec', got {entry!r}"
        )
    return parts[0], parts[1], parts[2]


def cmd_benchmark(args) -> int:
    methods = args.methods.split(",")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise UsageError(f"--methods names {m} twice")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names, rows = [], []
    for entry in args.dataset:
        name, train_spec, test_spec = _parse_dataset_arg(entry)
        train_ds = dataio.load_dataset(train_spec, args.labels_last)
        test_ds = dataio.load_dataset(test_spec, args.labels_last)
        # test rows are scaled by the training bounds, as train and predict do
        scale = dataio.min_max_bounds(train_ds.features) if args.scale == "minmax" else None
        train_ds = replace(train_ds, features=apply_scale(train_ds.features, scale))
        test_X = apply_scale(test_ds.features, scale)
        names.append(name)
        per_method = {}
        for method in methods:
            model = fit_method(method, train_ds)
            preds = predict_dataset(method, model, test_X)
            report = metricsmod.evaluate(
                preds.labels.astype(np.float64), preds.scores, test_ds.labels
            )
            per_method[method] = report
            with open(out_dir / f"report_{name}_{method}.json", "w",
                      encoding="utf-8") as fh:
                fh.write(report.to_json())
                fh.write("\n")
        rows.append(per_method)

    metric_names = metricsmod.EvalReport.field_names()
    with open(out_dir / "reports.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "method", *metric_names])
        for name, per_method in zip(names, rows):
            for method in methods:
                rep = per_method[method]
                w.writerow(
                    [name, method, *[repr(getattr(rep, f)) for f in metric_names]]
                )
    for metric in metric_names:
        with open(out_dir / f"table_{metric}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["dataset", *methods])
            for name, per_method in zip(names, rows):
                w.writerow(
                    [name, *[repr(getattr(per_method[m], metric)) for m in methods]]
                )
    return EXIT_OK


def cmd_stats(args) -> int:
    direction = (
        stats.LOWER_BETTER if args.direction == "lower" else stats.HIGHER_BETTER
    )
    table = stats.ResultTable.from_csv(args.table, direction)
    diagram = stats.cd_diagram_data(table)
    stats.write_diagram_json(diagram, args.out)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _word_or_float(words, check, expected):
    """An argparse type: one of words as given, or a finite float passing check."""
    def convert(text):
        if text in words:
            return text
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if np.isfinite(value) and check(value):
            return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _positive_int(text):
    """An argparse type: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value >= 1:
        return value
    raise argparse.ArgumentTypeError(f"expected an int >= 1, got {text!r}")


def _add_labels_last(p):
    p.add_argument("--labels-last", type=_positive_int, default=None,
                   help="treat the last L columns of a single-file dataset as labels")


def _add_data_flags(p):
    _add_labels_last(p)
    p.add_argument("--scale", choices=("off", "minmax"), default="off",
                   help="min-max scale features by the training bounds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmlc",
        description="Distance-regression multi-label classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a model file")
    p.add_argument("data", help="training dataset spec")
    p.add_argument("--method", choices=METHODS, default="ml-mlm")
    p.add_argument("--alpha", default="auto",
                   type=_word_or_float(("auto",), lambda v: v >= 0, "auto or a float >= 0"),
                   help="auto or a fixed float >= 0")
    p.add_argument("--power", default=None,
                   type=_word_or_float(("tuned",), lambda v: v > 0, "tuned or a float > 0"),
                   help="ml-mlm only: tuned (the default) or a fixed float > 0")
    p.add_argument("--out", required=True)
    p.add_argument("--curve-out", default=None,
                   help="ml-mlm with a tuned power only: write the power-search curve as CSV")
    _add_data_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a dataset with a model file")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--threshold", default=None,
                   type=_word_or_float(("cardinality", "local-rcut"), lambda v: True,
                                       "cardinality, local-rcut or a float"),
                   help="ml-mlm only: cardinality (the default), local-rcut, or a float")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("predictions", help="JSON-lines predictions file")
    p.add_argument("truth", help="ground-truth dataset spec")
    p.add_argument("--out", required=True)
    _add_labels_last(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="train/predict/evaluate over datasets")
    p.add_argument("--dataset", action="append", required=True,
                   metavar="NAME,TRAIN,TEST")
    p.add_argument("--methods", default="ml-mlm")
    p.add_argument("--out-dir", required=True)
    _add_data_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("stats", help="Friedman/Nemenyi analysis of a result table")
    p.add_argument("table", help="CSV: first column dataset names, header methods")
    p.add_argument("--direction", choices=("lower", "higher"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, dataio.SpecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularSystemError, tuning.LeverageError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (dataio.DataFormatError, ModelFileError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
