"""Plot (as text) the leave-one-out ranking loss against the IDW power
parameter P, the curve the tuner minimizes.

The LOO distance estimates come from the hat-matrix identity, so the
whole 81-point grid costs one factorization, not 81 retrains. They are
distances to the U unique training label vectors, which the IDW scores
weight by how many training rows carry each.

Run: python3 demos/power_curve.py
"""
import numpy as np

from distmlc import models, tuning

rng = np.random.default_rng(3)
n, m, l = 120, 5, 6
X = rng.normal(size=(n, m))
W = rng.normal(size=(m, l))
Y = ((X @ W + 0.3 * rng.normal(size=(n, l))) > 0.4).astype(float)
Y[Y.sum(axis=1) == 0, 0] = 1.0
Y[Y.sum(axis=1) == l, -1] = 0.0

model, Dx, Dy, gram = models.fit(X, Y)  # auto alpha
alpha = model.alpha
loo = tuning.loo_deltas(gram, Dx, Dy, model.coefficients)  # N instances x U label vectors
best_p, curve = tuning.search_power(loo, Y, model.train_labels, model.label_counts)

values = np.array([v for _, v in curve])
lo, hi = values.min(), values.max()
print(f"{len(Y)} rows, {len(model.train_labels)} unique label vectors")
print(f"alpha = {alpha:.4g}, best P = {best_p:.3f} "
      f"(exponent {np.log2(best_p):.1f}), LRL = {lo:.4f}\n")
print(" s     P        LRL")
for (p, v) in curve[::8]:
    bar = "#" * int(round(40 * (v - lo) / (hi - lo + 1e-15)))
    print(f"{np.log2(p):4.1f}  {p:7.2f}  {v:.4f} {bar}")
