"""End-to-end acceptance checks.

Each numbered criterion below is a self-contained check with its own
tolerance; the terminal summary (see conftest) prints one pass/fail line
per criterion. Criteria 4-6 need the Mulan benchmark splits on disk and
skip with download instructions when absent.
"""
import math
import time

import numpy as np
import pytest

from distmlc import cli, data as dataio, metrics, models, stats, tuning
from distmlc.linalg import pairwise_distances

from conftest import (
    brute_force_mlc,
    loo_from_fit,
    multilateration_objective,
    mulan_paths,
    random_problem,
    significantly_different,
    unique_rows,
)
from test_metrics import (
    oracle_accuracy,
    oracle_average_precision,
    oracle_counts,
    oracle_coverage,
    oracle_hamming,
    oracle_macro_f1,
    oracle_micro_f1,
    oracle_one_error,
    oracle_ranking_loss,
    random_eval_instance,
)
from test_tuning import naive_loo_oracle

# ------------------------------------------------------------- shared data

# published single-split results, ML-MLM with cardinality thresholding
MLMLM_EXPECTED = {
    #           RL     Cov    OE     AP     Acc    HL     miF1   maF1
    "medical":  (0.030, 2.026, 0.146, 0.882, 0.762, 0.013, 0.765, 0.315),
    "emotions": (0.142, 1.743, 0.257, 0.827, 0.609, 0.186, 0.715, 0.703),
    "scene":    (0.065, 0.426, 0.195, 0.883, 0.764, 0.078, 0.781, 0.789),
    "yeast":    (0.166, 6.022, 0.234, 0.767, 0.568, 0.195, 0.678, 0.406),
}
# nearest-neighbor variant: bipartition metrics only
NNMLM_EXPECTED = {
    #           Acc    HL     miF1   maF1
    "medical":  (0.775, 0.011, 0.794, 0.307),
    "emotions": (0.586, 0.202, 0.693, 0.681),
    "scene":    (0.770, 0.077, 0.778, 0.783),
    "yeast":    (0.553, 0.193, 0.663, 0.423),
}
TUNED_EXPONENTS = {"emotions": 2.9, "scene": 2.0, "yeast": 3.2, "medical": 7.8}


def load_split(name):
    train_p, test_p, xml_p = mulan_paths(name)
    train = dataio.load_dataset(f"{train_p}@{xml_p}")
    test = dataio.load_dataset(f"{test_p}@{xml_p}")
    return train, test


_TUNED_CACHE = {}


def tuned_on(name, scale=False):
    """The tuned model of a split's raw training rows, and the raw splits; with
    scale, the model min-max scales every row by the training bounds."""
    key = (name, scale)
    if key not in _TUNED_CACHE:
        train, test = load_split(name)
        _TUNED_CACHE[key] = (tuning.tune_ml_mlm(train.features, train.labels, scale=scale),
                             train, test)
    return _TUNED_CACHE[key]


def mlmlm_report(name, scale=False):
    tuned, train, test = tuned_on(name, scale)
    scores = np.vstack([
        models.ml_mlm_predict(tuned, x).scores for x in test.features
    ])
    labels = (scores > tuned.threshold).astype(float)
    return metrics.evaluate(labels, scores, test.labels), tuned


# ------------------------------------------------------------- criterion 1

class TestCriterion1:
    def test_criterion_1_counterexample_exact(self):
        targets = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        deltas = np.array([1.0, 10.0, 2.0, 2.0])
        start = time.perf_counter()
        j00 = multilateration_objective(np.array([0.0, 0.0]), targets, deltas)
        j10 = multilateration_objective(np.array([1.0, 0.0]), targets, deltas)
        best = brute_force_mlc(targets, deltas, 2)
        elapsed = time.perf_counter() - start
        assert j00 == 9815.0
        assert j10 == 9629.0
        np.testing.assert_array_equal(best, [1.0, 0.0])
        assert elapsed < 1e-3


# ------------------------------------------------------------- criterion 2

class TestCriterion2:
    def test_criterion_2_press_oracle(self):
        rng = np.random.default_rng(201)
        alphas = (0.01, 0.1, 1.0)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(8, 51))
            m = int(rng.integers(2, 9))
            l = int(rng.integers(2, 6))
            X, Y = random_problem(rng, n=n, m=m, l=l)
            alpha = alphas[trial % 3]
            refs = unique_rows(X)
            Dx = pairwise_distances(X, refs)
            Dy = pairwise_distances(Y, Y)
            loo = loo_from_fit(Dx, Dy, alpha)
            oracle = naive_loo_oracle(Dx, Dy, alpha, X, Y, refs)
            worst = max(worst, float(np.abs(loo - oracle).max()))
        elapsed = time.perf_counter() - start
        assert worst < 1e-8
        assert elapsed < 30.0


# ------------------------------------------------------------- criterion 3

def oracle_micro_precision(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    den = sum(tp) + sum(fp)
    return sum(tp) / den if den else 0.0


def oracle_micro_recall(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    den = sum(tp) + sum(fn)
    return sum(tp) / den if den else 0.0


def oracle_macro_precision(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    l = len(tp)
    return sum(
        tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0 for j in range(l)
    ) / l


def oracle_macro_recall(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    l = len(tp)
    return sum(
        tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0 for j in range(l)
    ) / l


class TestCriterion3:
    def test_criterion_3_metric_oracles(self):
        rng = np.random.default_rng(202)
        pairs = [
            (metrics.hamming_loss, oracle_hamming, "pred"),
            (metrics.accuracy, oracle_accuracy, "pred"),
            (metrics.micro_precision, oracle_micro_precision, "pred"),
            (metrics.micro_recall, oracle_micro_recall, "pred"),
            (metrics.micro_f1, oracle_micro_f1, "pred"),
            (metrics.macro_precision, oracle_macro_precision, "pred"),
            (metrics.macro_recall, oracle_macro_recall, "pred"),
            (metrics.macro_f1, oracle_macro_f1, "pred"),
            (metrics.ranking_loss, oracle_ranking_loss, "score"),
            (metrics.coverage, oracle_coverage, "score"),
            (metrics.one_error, oracle_one_error, "score"),
            (metrics.average_precision, oracle_average_precision, "score"),
        ]
        assert len(pairs) == 12
        start = time.perf_counter()
        for _ in range(200):
            pred, scores, truth = random_eval_instance(rng)
            for fn, oracle, kind in pairs:
                arg = pred if kind == "pred" else scores
                assert abs(fn(arg, truth) - oracle(arg, truth)) < 1e-12
        assert time.perf_counter() - start < 5.0


# ------------------------------------------------------------- criterion 4

def _within(got, expected, tol=0.02):
    return [abs(g - e) <= tol for g, e in zip(got, expected)]


@pytest.mark.parametrize("name", sorted(MLMLM_EXPECTED))
class TestCriterion4:
    def test_criterion_4_mlmlm_reproduction(self, name):
        expected = MLMLM_EXPECTED[name]
        report, _ = mlmlm_report(name)
        got = (report.ranking_loss, report.coverage, report.one_error,
               report.average_precision, report.accuracy, report.hamming_loss,
               report.micro_f1, report.macro_f1)
        if not all(_within(got, expected)):
            report_s, _ = mlmlm_report(name, scale=True)
            got_s = (report_s.ranking_loss, report_s.coverage,
                     report_s.one_error, report_s.average_precision,
                     report_s.accuracy, report_s.hamming_loss,
                     report_s.micro_f1, report_s.macro_f1)
            print(f"{name}: unscaled {got}, min-max scaled {got_s}")
            assert all(_within(got_s, expected)), (
                f"{name}: outside tolerance both unscaled {got} "
                f"and scaled {got_s}, expected {expected}"
            )

    def test_criterion_4_nnmlm_reproduction(self, name):
        expected = NNMLM_EXPECTED[name]
        for scale in (False, True):
            _, train, test = tuned_on(name, scale)
            model = models.train(train.features, train.labels, scale=scale)
            labels = np.vstack([
                models.nn_mlm_predict(model, x).labels for x in test.features
            ])
            got = (
                metrics.accuracy(labels, test.labels),
                metrics.hamming_loss(labels, test.labels),
                metrics.micro_f1(labels, test.labels),
                metrics.macro_f1(labels, test.labels),
            )
            if all(_within(got, expected)):
                return
            print(f"{name} scale={scale}: {got} vs {expected}")
        pytest.fail(f"{name}: bipartition metrics outside tolerance")


# ------------------------------------------------------------- criterion 5

class TestCriterion5:
    @pytest.mark.parametrize("name", sorted(TUNED_EXPONENTS))
    def test_criterion_5_tuned_exponent(self, name):
        tuned, _, _ = tuned_on(name)
        exponent = math.log2(tuned.power)
        assert abs(exponent - TUNED_EXPONENTS[name]) <= 0.5, (
            f"{name}: tuned 2^{exponent:.2f}, expected near "
            f"2^{TUNED_EXPONENTS[name]}"
        )

    def test_criterion_5_yeast_curve_unimodal(self):
        tuned, _, _ = tuned_on("yeast")
        vals = np.array([v for _, v in tuned.lrl_curve])
        i = int(np.argmin(vals))
        noise = 0.01
        assert np.all(np.diff(vals[: i + 1]) <= noise), "not decreasing to minimum"
        assert np.all(np.diff(vals[i:]) >= -noise), "not non-decreasing after minimum"


# ------------------------------------------------------------- criterion 6

class TestCriterion6:
    def test_criterion_6_large_p_rcut_equals_nn(self):
        tuned, train, test = tuned_on("medical")
        nn_model = models.train(train.features, train.labels)
        rcut = np.vstack([
            models.ml_mlm_predict(tuned, x, threshold="local-rcut").labels for x in test.features
        ])
        nn = np.vstack([
            models.nn_mlm_predict(nn_model, x).labels for x in test.features
        ])
        for fn in (metrics.accuracy, metrics.hamming_loss, metrics.micro_f1,
                   metrics.macro_f1):
            assert fn(rcut, test.labels) == fn(nn, test.labels)


# ------------------------------------------------------------- criterion 7

class TestCriterion7:
    def test_criterion_7_lls_exact_recovery(self):
        corners = np.array([
            [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
            [0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0],
            [1.0, 1.0, 0.0], [1.0, 1.0, 1.0],
        ])
        target = np.array([1.0, 0.0, 1.0])
        deltas = np.linalg.norm(corners - target, axis=1)
        model = models.DistanceModel(
            references=np.zeros((corners.shape[0], 2)),
            coefficients=np.zeros((corners.shape[0], corners.shape[0])),
            alpha=0.1,
            train_labels=corners,
            label_counts=np.ones(corners.shape[0]),
        )
        y = models.lls_scores(model, deltas)
        assert float(np.abs(y - target).max()) < 1e-6

    def test_criterion_7_cubic_matches_grid(self):
        rng = np.random.default_rng(203)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            t = (rng.random(k) < 0.5).astype(float)
            if t.sum() == 0:
                t[0] = 1.0
            deltas = np.abs(rng.normal(0.8, 0.5, size=k))
            # single-label instance: t is the column of training indicators
            score = models.scalar_multilateration_scores(
                t[:, None], deltas[:, None], np.ones(k)
            )[0]
            span = float(deltas.max()) + 1.0
            grid = np.arange(-span, 1.0 + span, 1e-5)
            obj = (((grid[:, None] - t[None, :]) ** 2
                    - deltas[None, :] ** 2) ** 2).sum(axis=1)
            # ties (symmetric minima) resolve to the smallest position,
            # mirroring the closed-form root selection
            low = obj.min()
            best = float(grid[obj <= low + 1e-9 * (1.0 + low)].min())
            assert abs(score - best) < 1e-4


# ------------------------------------------------------------- criterion 8

class TestCriterion8:
    def test_criterion_8_determinism(self, tmp_path):
        rng = np.random.default_rng(204)
        Xtr, Ytr = random_problem(rng, n=16, m=3, l=3)
        Xte, Yte = random_problem(rng, n=6, m=3, l=3)

        def spec(X, Y, prefix):
            f = tmp_path / f"{prefix}_f.csv"
            l = tmp_path / f"{prefix}_l.csv"
            f.write_text("a,b,c\n" + "\n".join(
                ",".join(repr(float(v)) for v in row) for row in X) + "\n")
            l.write_text("x,y,z\n" + "\n".join(
                ",".join(str(int(v)) for v in row) for row in Y) + "\n")
            return f"{f};{l}"

        train = spec(Xtr, Ytr, "tr")
        test = spec(Xte, Yte, "te")
        argv = ["benchmark", "--dataset", f"toy,{train},{test}",
                "--methods", "ml-mlm,nn-mlm", "--out-dir"]
        assert cli.main(argv + [str(tmp_path / "r1")]) == 0
        assert cli.main(argv + [str(tmp_path / "r2")]) == 0
        assert ((tmp_path / "r1" / "reports.csv").read_bytes()
                == (tmp_path / "r2" / "reports.csv").read_bytes())

        model_path = tmp_path / "m.dmlm"
        assert cli.main(["train", train, "--out", str(model_path)]) == 0
        p1 = tmp_path / "p1.jsonl"
        p2 = tmp_path / "p2.jsonl"
        cli.main(["predict", str(model_path), test, "--out", str(p1)])
        cli.main(["predict", str(model_path), test, "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------- criterion 9

class TestCriterion9:
    def test_criterion_9_stats_pipeline(self):
        methods = ("BR", "CC", "HOMER", "RF-PCT", "ML-kNN", "BR-MLM",
                   "ML-MLM", "LLS-MLM")
        datasets = ("Medical", "Emotions", "Enron", "Scene", "Yeast",
                    "Corel5k", "Bibtex", "Delicious", "Tmc2007", "Mediamill")
        # published single-split ranking loss per method
        cols = {
            "BR":      [0.021, 0.246, 0.084, 0.060, 0.164, 0.117, 0.068, 0.114, 0.003, 0.061],
            "CC":      [0.019, 0.245, 0.083, 0.064, 0.170, 0.118, 0.067, 0.117, 0.003, 0.062],
            "HOMER":   [0.090, 0.297, 0.183, 0.119, 0.205, 0.352, 0.255, 0.379, 0.028, 0.177],
            "RF-PCT":  [0.024, 0.151, 0.079, 0.072, 0.167, 0.117, 0.093, 0.106, 0.006, 0.047],
            "ML-kNN":  [0.045, 0.283, 0.093, 0.093, 0.172, 0.130, 0.217, 0.129, 0.031, 0.055],
            "BR-MLM":  [0.024, 0.146, 0.089, 0.066, 0.167, 0.184, 0.080, 0.132, 0.000, 0.061],
            "ML-MLM":  [0.030, 0.142, 0.081, 0.065, 0.166, 0.115, 0.078, 0.118, 0.000, 0.051],
            "LLS-MLM": [0.029, 0.155, 0.111, 0.068, 0.174, 0.194, 0.089, 0.148, 0.000, 0.082],
        }
        table = stats.ResultTable(
            methods=methods, datasets=datasets,
            values=np.column_stack([cols[m] for m in methods]),
            direction=stats.LOWER_BETTER,
        )
        stat, reject = stats.friedman_test(table)
        assert reject, f"Friedman statistic {stat} did not reject"
        diagram = stats.cd_diagram_data(table)
        assert significantly_different(diagram, "ML-MLM", "ML-kNN")
        assert significantly_different(diagram, "ML-MLM", "HOMER")
