"""Train, tune and evaluate the distance-regression classifiers on a
synthetic multi-label problem.

The generator plants three Gaussian blobs in feature space and assigns
each blob a characteristic label pattern, plus some label noise, so the
distance structure actually carries label information.

Run: python3 demos/synthetic_walkthrough.py
"""
import numpy as np

from distmlc import metrics, models, tuning


def make_blobs(rng, n_per_blob=60):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]])
    patterns = np.array([
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 0],
    ], dtype=float)
    X, Y = [], []
    for c, p in zip(centers, patterns):
        X.append(c + rng.normal(scale=0.7, size=(n_per_blob, 2)))
        block = np.tile(p, (n_per_blob, 1))
        flip = rng.random(block.shape) < 0.05
        block[flip] = 1.0 - block[flip]
        Y.append(block)
    X = np.vstack(X)
    Y = np.vstack(Y)
    order = rng.permutation(len(X))
    return X[order], Y[order]


rng = np.random.default_rng(0)
X, Y = make_blobs(rng)
split = int(0.7 * len(X))
Xtr, Ytr = X[:split], Y[:split]
Xte, Yte = X[split:], Y[split:]

print(f"train {Xtr.shape}, test {Xte.shape}, "
      f"Card {metrics.card(Ytr):.3f}, Dens {metrics.dens(Ytr):.3f}")

# tuned variant: LOO power search + cardinality threshold
tuned = tuning.tune_ml_mlm(Xtr, Ytr)
print(f"\ntuned P = {tuned.power:.3f} (2^{np.log2(tuned.power):.2f}), "
      f"threshold t = {tuned.threshold:.4f}, alpha = {tuned.model.alpha:.4g}")

pred = models.ml_mlm_predict(tuned, Xte)
report = metrics.evaluate(pred.labels, pred.scores, Yte)
print("\nIDW variant with cardinality thresholding:")
print(f"  ranking loss      {report.ranking_loss:.4f}")
print(f"  hamming loss      {report.hamming_loss:.4f}")
print(f"  accuracy          {report.accuracy:.4f}")
print(f"  micro F1          {report.micro_f1:.4f}")
print(f"  average precision {report.average_precision:.4f}")

# the predicted distance to the closest reference doubles as an
# uncertainty estimate; bucket counts tell how far test data sits
# from the training set
buckets = {b: int(np.count_nonzero(pred.uncertainty == b)) for b in ("low", "medium", "high")}
print(f"\nuncertainty buckets: {buckets}")

# nearest-reference variant for comparison (bipartition metrics only,
# its degenerate scores carry no ranking information)
nn_model = models.train(Xtr, Ytr)
nn_labels = models.nn_mlm_predict(nn_model, Xte).labels
print("\nnearest-reference variant:")
print(f"  hamming loss      {metrics.hamming_loss(nn_labels, Yte):.4f}")
print(f"  accuracy          {metrics.accuracy(nn_labels, Yte):.4f}")
print(f"  micro F1          {metrics.micro_f1(nn_labels, Yte):.4f}")
