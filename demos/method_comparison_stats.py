"""Compare the four classifier variants over several synthetic datasets
and feed the per-dataset ranking losses through the Friedman test and
the Nemenyi critical-difference grouping.

With only a handful of small synthetic datasets the test will usually
(and correctly) fail to reject; the point is the pipeline, the same one
the `distmlc stats` subcommand exposes for published result tables.

Run: python3 demos/method_comparison_stats.py
"""
import numpy as np

from distmlc import metrics, modelio, stats

METHOD_NAMES = modelio.METHODS


def make_problem(rng, n, m, l):
    X = rng.normal(size=(n, m))
    W = rng.normal(size=(m, l))
    Y = ((X @ W + 0.5 * rng.normal(size=(n, l))) > 0.3).astype(float)
    Y[Y.sum(axis=1) == 0, 0] = 1.0
    Y[Y.sum(axis=1) == l, -1] = 0.0
    return X, Y


def ranking_scores(method, Xtr, Ytr, Xte):
    train, decode = modelio.method_functions(method)
    return decode(train(Xtr, Ytr), Xte).scores


rng = np.random.default_rng(17)
dataset_names = []
rows = []
for d in range(6):
    n = int(rng.integers(60, 120))
    m = int(rng.integers(3, 7))
    l = int(rng.integers(3, 6))
    X, Y = make_problem(rng, n, m, l)
    split = int(0.7 * n)
    row = []
    for method in METHOD_NAMES:
        scores = ranking_scores(method, X[:split], Y[:split], X[split:])
        row.append(metrics.ranking_loss(scores, Y[split:]))
    dataset_names.append(f"synth{d}")
    rows.append(row)
    print(f"synth{d} (n={n}, m={m}, l={l}): "
          + "  ".join(f"{m_}={v:.3f}" for m_, v in zip(METHOD_NAMES, row)))

table = stats.ResultTable(
    methods=METHOD_NAMES,
    datasets=tuple(dataset_names),
    values=np.array(rows),
    direction=stats.LOWER_BETTER,
)
diagram = stats.cd_diagram_data(table)
print(f"\nFriedman statistic {diagram['friedman_statistic']:.3f}, "
      f"reject at 0.05: {diagram['friedman_reject']}")
print(f"critical difference {diagram['critical_difference']:.3f}")
for method, rank in sorted(zip(diagram["methods"], diagram["average_ranks"]),
                           key=lambda t: t[1]):
    print(f"  {method:8s} average rank {rank:.2f}")
print(f"indistinguishable groups: {diagram['groups']}")
