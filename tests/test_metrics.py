import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distmlc import metrics


# ------------------------------------------------------------ naive oracles

def oracle_hamming(pred, truth):
    n, l = pred.shape
    bad = 0
    for i in range(n):
        for j in range(l):
            bad += int(pred[i, j] != truth[i, j])
    return bad / (n * l)


def oracle_accuracy(pred, truth):
    vals = []
    for p, g in zip(pred, truth):
        inter = sum(1 for a, b in zip(p, g) if a == 1 and b == 1)
        union = int(p.sum() + g.sum() - inter)
        vals.append(1.0 if union == 0 else inter / union)
    return float(np.mean(vals))


def oracle_counts(pred, truth):
    l = pred.shape[1]
    tp = [0] * l
    fp = [0] * l
    fn = [0] * l
    for j in range(l):
        for i in range(pred.shape[0]):
            if pred[i, j] == 1 and truth[i, j] == 1:
                tp[j] += 1
            elif pred[i, j] == 1:
                fp[j] += 1
            elif truth[i, j] == 1:
                fn[j] += 1
    return tp, fp, fn


def oracle_micro_f1(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    p = sum(tp) / (sum(tp) + sum(fp)) if sum(tp) + sum(fp) else 0.0
    r = sum(tp) / (sum(tp) + sum(fn)) if sum(tp) + sum(fn) else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def oracle_macro_f1(pred, truth):
    tp, fp, fn = oracle_counts(pred, truth)
    l = len(tp)
    prec = sum(
        tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0 for j in range(l)
    ) / l
    rec = sum(
        tp[j] / (tp[j] + fn[j]) if tp[j] + fn[j] else 0.0 for j in range(l)
    ) / l
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def oracle_ranking_loss(scores, truth):
    vals = []
    for z, g in zip(scores, truth):
        rel = [j for j in range(len(g)) if g[j] == 1]
        irr = [j for j in range(len(g)) if g[j] == 0]
        if not rel or not irr:
            continue
        bad = sum(1 for j in rel for k in irr if z[j] < z[k])
        vals.append(bad / (len(rel) * len(irr)))
    return float(np.mean(vals))


def oracle_coverage(scores, truth):
    vals = []
    for z, g in zip(scores, truth):
        rel = [j for j in range(len(g)) if g[j] == 1]
        if not rel:
            continue
        worst = min(z[j] for j in rel)
        vals.append(sum(1 for v in z if v >= worst) - 1)
    return float(np.mean(vals))


def oracle_one_error(scores, truth):
    vals = []
    for z, g in zip(scores, truth):
        if g.sum() == 0:
            continue
        top = int(np.argmax(z))
        vals.append(0.0 if g[top] == 1 else 1.0)
    return float(np.mean(vals))


def oracle_average_precision(scores, truth):
    vals = []
    for z, g in zip(scores, truth):
        rel = [j for j in range(len(g)) if g[j] == 1]
        if not rel:
            continue
        acc = 0.0
        for j in rel:
            num = sum(1 for m in rel if z[j] <= z[m])
            den = sum(1 for k in range(len(g)) if z[j] <= z[k])
            acc += num / den
        vals.append(acc / len(rel))
    return float(np.mean(vals))


def loop_coverage(scores, truth):
    """coverage as a row loop summing each row's depth (the reference for
    the vectorised form, which must give the same bits)."""
    Z, G = metrics._rankable(scores, truth, need_irrelevant=False)
    total = 0.0
    for z, g in zip(Z, G):
        worst = z[g == 1.0].min()
        total += np.count_nonzero(z >= worst) - 1
    return total / Z.shape[0]


def loop_average_precision(scores, truth):
    """average_precision with a loop over each row's relevant labels, summed in
    label order (the vectorised form sums them pairwise, within 1e-12)."""
    Z, G = metrics._rankable(scores, truth, need_irrelevant=False)
    total = 0.0
    for z, g in zip(Z, G):
        rel = np.nonzero(g == 1.0)[0]
        acc = 0.0
        for j in rel:
            acc += np.count_nonzero(z[rel] >= z[j]) / np.count_nonzero(z >= z[j])
        total += acc / rel.size
    return total / Z.shape[0]


def random_eval_instance(rng):
    n = int(rng.integers(1, 21))
    l = int(rng.integers(2, 7))
    truth = (rng.random((n, l)) < 0.4).astype(float)
    for i in range(n):
        if truth[i].sum() == 0:
            truth[i, int(rng.integers(l))] = 1.0
        if truth[i].sum() == l:
            truth[i, int(rng.integers(l))] = 0.0
    pred = (rng.random((n, l)) < 0.4).astype(float)
    scores = rng.random((n, l))
    return pred, scores, truth


# ------------------------------------------------------------------- tests

class TestCardDens:
    def test_hand_sum(self):
        assert metrics.card(np.array([[1.0, 0.0], [1.0, 1.0]])) == 1.5

    def test_all_zero(self):
        assert metrics.card(np.zeros((3, 4))) == 0.0

    def test_dens(self):
        assert metrics.dens(np.array([[1.0, 0.0], [1.0, 1.0]])) == 0.75
        assert metrics.dens(np.ones((2, 5))) == 1.0


class TestBipartition:
    def test_hamming_identical_and_complement(self):
        a = np.array([[1.0, 0.0, 1.0]])
        assert metrics.hamming_loss(a, a) == 0.0
        assert metrics.hamming_loss(a, 1.0 - a) == 1.0

    def test_hamming_hand(self):
        assert metrics.hamming_loss(
            np.array([[1.0, 0.0, 1.0]]), np.array([[1.0, 1.0, 0.0]])
        ) == pytest.approx(2 / 3)

    def test_hamming_symmetric(self):
        rng = np.random.default_rng(61)
        a = (rng.random((6, 4)) < 0.5).astype(float)
        b = (rng.random((6, 4)) < 0.5).astype(float)
        assert metrics.hamming_loss(a, b) == metrics.hamming_loss(b, a)

    def test_accuracy_cases(self):
        a = np.array([[1.0, 0.0, 1.0]])
        assert metrics.accuracy(a, a) == 1.0
        assert metrics.accuracy(
            a, np.array([[1.0, 1.0, 0.0]])
        ) == pytest.approx(1 / 3)
        assert metrics.accuracy(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        ) == 0.0

    def test_accuracy_empty_empty_is_one(self):
        assert metrics.accuracy(np.zeros((1, 3)), np.zeros((1, 3))) == 1.0

    def test_f1_identical_is_one(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert metrics.micro_f1(a, a) == 1.0
        assert metrics.macro_f1(a, a) == 1.0

    def test_f1_hand_counts(self):
        # label 0: TP=1 FP=1 FN=0; label 1: TP=0 FP=0 FN=1
        pred = np.array([[1.0, 0.0], [1.0, 0.0]])
        truth = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert metrics.micro_precision(pred, truth) == 0.5
        assert metrics.micro_recall(pred, truth) == 0.5
        assert metrics.micro_f1(pred, truth) == 0.5
        assert metrics.macro_f1(pred, truth) == pytest.approx(1 / 3)


class TestRanking:
    def test_ranking_loss_cases(self):
        g = np.array([[1.0, 0.0, 0.0]])
        assert metrics.ranking_loss(np.array([[0.9, 0.5, 0.1]]), g) == 0.0
        assert metrics.ranking_loss(np.array([[0.1, 0.5, 0.9]]), g) == 1.0
        assert metrics.ranking_loss(np.array([[0.2, 0.5, 0.1]]), g) == 0.5

    def test_coverage_cases(self):
        assert metrics.coverage(
            np.array([[0.9, 0.5, 0.1]]), np.array([[1.0, 0.0, 0.0]])
        ) == 0.0
        assert metrics.coverage(
            np.array([[0.1, 0.5, 0.9]]), np.array([[1.0, 0.0, 0.0]])
        ) == 2.0
        assert metrics.coverage(
            np.array([[0.9, 0.5, 0.1]]), np.array([[1.0, 0.0, 1.0]])
        ) == 2.0

    def test_one_error_cases(self):
        g = np.array([[1.0, 0.0, 0.0]])
        assert metrics.one_error(np.array([[0.9, 0.5, 0.1]]), g) == 0.0
        assert metrics.one_error(np.array([[0.2, 0.5, 0.1]]), g) == 1.0

    def test_average_precision_cases(self):
        assert metrics.average_precision(
            np.array([[0.9, 0.1]]), np.array([[1.0, 0.0]])
        ) == 1.0
        assert metrics.average_precision(
            np.array([[0.1, 0.9]]), np.array([[1.0, 0.0]])
        ) == 0.5
        assert metrics.average_precision(
            np.array([[0.9, 0.8, 0.1]]), np.array([[1.0, 1.0, 0.0]])
        ) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(62)
        _, scores, truth = random_eval_instance(rng)
        warped = np.tanh(scores * 2.0) + 3.0
        for fn in (metrics.ranking_loss, metrics.coverage, metrics.one_error,
                   metrics.average_precision):
            assert fn(scores, truth) == fn(warped, truth)


class TestOracleSuite:
    def test_200_random_instances(self):
        rng = np.random.default_rng(63)
        pairs = [
            (metrics.hamming_loss, oracle_hamming, "pred"),
            (metrics.accuracy, oracle_accuracy, "pred"),
            (metrics.micro_f1, oracle_micro_f1, "pred"),
            (metrics.macro_f1, oracle_macro_f1, "pred"),
            (metrics.ranking_loss, oracle_ranking_loss, "score"),
            (metrics.coverage, oracle_coverage, "score"),
            (metrics.one_error, oracle_one_error, "score"),
            (metrics.average_precision, oracle_average_precision, "score"),
        ]
        for _ in range(200):
            pred, scores, truth = random_eval_instance(rng)
            for fn, oracle, kind in pairs:
                arg = pred if kind == "pred" else scores
                assert abs(fn(arg, truth) - oracle(arg, truth)) < 1e-12


class TestLoopReferences:
    @pytest.mark.parametrize("seed", range(3))
    def test_coverage_and_average_precision_match_row_loops(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n, l = int(rng.integers(1, 30)), int(rng.integers(2, 25))
            # few distinct scores give ties; many relevant labels a row give
            # rows that numpy sums pairwise
            levels = int(rng.integers(2, 2 * l))
            scores = rng.integers(0, levels, (n, l)) / levels
            truth = (rng.random((n, l)) < rng.uniform(0.1, 0.9)).astype(float)
            truth[0, 0] = 1.0
            assert metrics.coverage(scores, truth) == loop_coverage(scores, truth)
            ap = metrics.average_precision(scores, truth)
            assert abs(ap - loop_average_precision(scores, truth)) <= 1e-12
            assert type(ap) is float and type(metrics.coverage(scores, truth)) is float


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), l=st.integers(2, 8),
       ties=st.booleans())
@settings(max_examples=100)
def test_ranking_loss_ignores_row_order(seed, n, l, ties):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 3, (n, l)) / 3 if ties else rng.random((n, l))
    truth = (rng.random((n, l)) < 0.5).astype(float)
    truth[0, :2] = (1.0, 0.0)
    perm = rng.permutation(n)
    assert metrics.ranking_loss(scores[perm], truth[perm]) == metrics.ranking_loss(scores, truth)


class TestEvalReport:
    def test_serialization_round_trip(self):
        rng = np.random.default_rng(64)
        pred, scores, truth = random_eval_instance(rng)
        report = metrics.evaluate(pred, scores, truth)
        rec = json.loads(report.to_json())
        assert set(rec) == set(metrics.EvalReport.field_names())

    def test_all_values_finite_and_bounded(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            pred, scores, truth = random_eval_instance(rng)
            r = metrics.evaluate(pred, scores, truth)
            for name in ("hamming_loss", "accuracy", "micro_f1", "macro_f1",
                         "ranking_loss", "one_error", "average_precision"):
                v = getattr(r, name)
                assert 0.0 <= v <= 1.0
            assert 0.0 <= r.coverage <= truth.shape[1] - 1
