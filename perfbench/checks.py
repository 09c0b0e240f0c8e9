"""Independent checks of distmlc's outputs.

Everything here recomputes from the training file's arrays with the
benchmark's own numerics (numpy and LAPACK directly, no distmlc code):
distances, the ridge solve (Dx^T Dx + alpha I) B = Dx^T Dy, inverse-distance
weighting, closed-form and explicit leave-one-out rows, the per-label
quartic minimizers of br-mlm, and the quality metrics. Each check returns
``(name, ok, detail)``.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

CHUNK = 32           # query rows per block in the direct distance loop
SCORE_SAMPLE = 64    # test rows whose ml-mlm scores are recomputed
REFIT_SAMPLE = 3     # training rows refitted explicitly for the LOO check
BR_SAMPLE = 16       # test rows whose br-mlm scores are recomputed


def first_seen_unique(X: np.ndarray) -> np.ndarray:
    seen, keep = set(), []
    for i, row in enumerate(X):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return X[keep]


def distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances from summed squared differences, in row blocks."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(0, A.shape[0], CHUNK):
        diff = A[i:i + CHUNK, None, :] - B[None, :, :]
        out[i:i + CHUNK] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def binary_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between 0/1 rows: sqrt of the Hamming count (exact)."""
    ham = A @ (1.0 - B).T + (1.0 - A) @ B.T
    return np.sqrt(ham)


class Ridge:
    """Lower Cholesky factor of U = Dx^T Dx + alpha I, with triangular solves."""

    def __init__(self, Dx: np.ndarray, alpha: float):
        U = Dx.T @ Dx
        U[np.diag_indices_from(U)] += alpha
        self.U = U
        self.L = np.linalg.cholesky(U)

    def solve(self, R: np.ndarray) -> np.ndarray:
        Z = solve_triangular(self.L, R, lower=True)
        return solve_triangular(self.L.T, Z, lower=False)


def idw(deltas: np.ndarray, Y: np.ndarray, P: float) -> np.ndarray:
    """Row-wise IDW scores: weight delta^-P, weight 1 for a clamped zero delta."""
    D = np.maximum(deltas, 0.0)
    pos = D > 0.0
    logw = np.zeros_like(D)
    logw[pos] = -P * np.log(D[pos])
    logw -= logw.max(axis=1, keepdims=True)
    W = np.exp(logw)
    return (W @ Y) / W.sum(axis=1, keepdims=True)


def ranking_loss_bracket(S: np.ndarray, Y: np.ndarray, eps: float):
    """Ranking loss counted with pairs closer than eps taken as violated or not.

    Returns (low, high, near): the loss is low if no near pair is violated
    and high if all are; near counts the pairs within eps. Rows with all
    or no labels relevant are left out.
    """
    rel = Y == 1.0
    keep = rel.any(axis=1) & ~rel.all(axis=1)
    S, rel = S[keep], rel[keep]
    pair = rel[:, :, None] & ~rel[:, None, :]
    gap = S[:, None, :] - S[:, :, None]          # irrelevant minus relevant
    n_pairs = pair.sum(axis=(1, 2))
    low = ((gap > eps) & pair).sum(axis=(1, 2)) / n_pairs
    high = ((gap > -eps) & pair).sum(axis=(1, 2)) / n_pairs
    near = int(((np.abs(gap) <= eps) & pair).sum())
    return float(low.mean()), float(high.mean()), near


def ranking_loss(S: np.ndarray, Y: np.ndarray) -> float:
    low, _, _ = ranking_loss_bracket(S, Y, 0.0)
    return low


def micro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = float((pred * truth).sum())
    fp = float((pred * (1.0 - truth)).sum())
    fn = float(((1.0 - pred) * truth).sum())
    return 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """0/1 vector of the k highest scores; equal scores go to the smaller index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    out = np.zeros(scores.size)
    out[order[:k]] = 1.0
    return out


def _rel_err(a, b) -> float:
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def check_ml_mlm(split, alpha, P, t, curve, scores, labels, rng):
    X, Y = split.X_train, split.Y_train
    refs = first_seen_unique(X)
    Dx = distances(X, refs)
    Dy = binary_distances(Y, Y)
    ridge = Ridge(Dx, alpha)
    rhs = Dx.T @ Dy
    B = ridge.solve(rhs)
    out = []

    rows = np.sort(rng.choice(split.X_test.shape[0], SCORE_SAMPLE, replace=False))
    own = idw(distances(split.X_test[rows], refs) @ B, Y, P)
    err = float(np.abs(own - scores[rows]).max())
    out.append(("ml-mlm scores match own solve (1e-6)", err <= 1e-6, f"max err {err:.2e}"))
    # IDW scores are convex combinations of 0/1 labels; distmlc's rounding can
    # leave them a few ulps above 1 (see CHANGES.md), so the bound allows 1e-12
    # and the detail counts the scores outside the exact interval.
    outside = int(((scores < 0) | (scores > 1)).sum())
    out.append(("scores in [0, 1] (1e-12)",
                 bool(((scores >= -1e-12) & (scores <= 1 + 1e-12)).all()),
                 f"{outside} of {scores.size} outside [0, 1] by at most "
                 f"{max(0.0, float(scores.max()) - 1, -float(scores.min())):.1e}"))
    out.append(("labels are score > t", bool((labels == (scores > t)).all()), f"t={t!r}"))

    proj = ridge.solve(Dx.T)
    h = np.einsum("ij,ji->i", Dx, proj)
    loo = (Dx @ B - h[:, None] * Dy) / (1.0 - h)[:, None]
    worst = 0.0
    for i in rng.choice(X.shape[0], REFIT_SAMPLE, replace=False):
        xi = Dx[i]
        z = np.linalg.solve(ridge.U - np.outer(xi, xi), xi)
        refit = z @ rhs - (z @ xi) * Dy[i]
        worst = max(worst, _rel_err(loo[i], refit))
    out.append(("closed-form LOO rows match explicit refits (1e-6)", worst <= 1e-6,
                f"max rel err {worst:.2e}"))

    grid = {round(s, 1): (p, v) for s, p, v in curve}
    best = min(v for _, v in grid.values())
    first = min(p for p, v in grid.values() if v == best)
    out.append(("P is the curve minimum, smallest P on ties", first == P,
                f"P={P!r}, curve min at {first!r}"))
    s_star = round(float(np.log2(P)), 1)
    bad = []
    for s in (s_star - 0.1, s_star, s_star + 0.1):
        s = round(s, 1)
        if s not in grid:
            continue
        p, v = grid[s]
        low, high, near = ranking_loss_bracket(idw(loo, Y, p), Y, 1e-9)
        if not low - 1e-9 <= v <= high + 1e-9:
            bad.append(f"s={s}: curve {v!r} outside [{low!r}, {high!r}] ({near} near pairs)")
    out.append(("LOO ranking loss at P and its neighbours matches the curve (1e-9)",
                not bad, "; ".join(bad)))
    return out


def _quartic_min(t: np.ndarray, d2: np.ndarray) -> float:
    """Least value of J(y) = sum_k ((y - t_k)^2 - d2_k)^2 over the reals."""
    K = t.size
    # J'(y)/4 = K y^3 - 3 S1 y^2 + (3 S2 - sum d2) y - S3 + sum d2 t
    coef = [-(t**3).sum() + (d2 * t).sum(), 3.0 * (t**2).sum() - d2.sum(),
            -3.0 * t.sum(), float(K)]
    roots = np.polynomial.polynomial.polyroots(coef)
    real = roots.real[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))]
    if real.size == 0:  # round-off hid the real root of a real cubic
        real = roots.real[[np.argmin(np.abs(roots.imag))]]
    return float(min(_quartic(y, t, d2) for y in real))


def _quartic(y: float, t: np.ndarray, d2: np.ndarray) -> float:
    return float((((y - t) ** 2 - d2) ** 2).sum())


def check_br_mlm(split, alpha, scores, labels, rng):
    X, Y = split.X_train, split.Y_train
    refs = first_seen_unique(X)
    Dx = binary_distances(X, refs)
    ridge = Ridge(Dx, alpha)
    proj = ridge.solve(Dx.T)
    B = proj @ binary_distances(Y, Y)
    rows = np.sort(rng.choice(split.X_test.shape[0], BR_SAMPLE, replace=False))
    d = binary_distances(split.X_test[rows], refs)
    Z = d @ proj
    ZY, Zs = Z @ Y, Z.sum(axis=1)
    joint = np.maximum(d @ B, 0.0)
    worst, bad_k = 0.0, []
    for r, row in enumerate(rows):
        # |y_l - t_nl| is 1 exactly where training row n disagrees on label l
        delta = np.maximum(np.where(Y == 1.0, Zs[r] - ZY[r], ZY[r]), 0.0)
        for l in range(Y.shape[1]):
            d2 = delta[:, l] ** 2
            jmin = _quartic_min(Y[:, l], d2)
            excess = (_quartic(scores[row, l], Y[:, l], d2) - jmin) / (1.0 + jmin)
            worst = max(worst, excess)
        near = joint[r] <= joint[r].min() + 1e-9 * (1.0 + joint[r].min())
        cards = {int(c) for c in Y[near].sum(axis=1)}
        k = int(labels[row].sum())
        if k not in cards or not (labels[row] == top_k(scores[row], k)).all():
            bad_k.append(int(row))
    out = [("br-mlm scores are global quartic minimizers (1e-9)", worst <= 1e-9,
            f"max relative excess {worst:.2e}"),
           ("br-mlm labels are the top-k scores, k from the nearest row", not bad_k,
            f"rows {bad_k}" if bad_k else "")]
    return out


def check_quality(scores, labels, truth, report):
    rl = ranking_loss(scores, truth)
    f1 = micro_f1(labels, truth)
    ok = abs(rl - report["ranking_loss"]) <= 1e-12 and abs(f1 - report["micro_f1"]) <= 1e-12
    return rl, f1, [("quality metrics match distmlc evaluate (1e-12)", ok,
                     f"ranking loss {rl!r} vs {report['ranking_loss']!r}, "
                     f"micro-F1 {f1!r} vs {report['micro_f1']!r}")]
