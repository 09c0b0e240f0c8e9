"""Seeded synthetic inputs shaped like the Yeast and Medical datasets.

Each workload is a fixed generating process plus a seeded sample from it.
The process (label frequencies, the label-vector pool, the feature map or
the topic words) comes from ``STRUCTURE_SEED``; the run's ``--seed`` draws
the rows: which label vector each row gets, the feature noise and the
train/test split. The Medical shape keeps a fixed sample instead, because
its quality figures move by 15-30 % from one sample of 333 test rows to
the next; there the seed only shuffles the order of the training and of
the test rows. Either way every seed gives other files, the same seed
gives byte-identical files, and the program under test sees only them.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    method: str
    n_train: int
    n_test: int
    n_features: int
    n_labels: int
    card: float          # mean relevant labels per row
    pool: int | None     # distinct label vectors to draw from; None = unique
    sparse: bool
    fixed_sample: bool   # rows from STRUCTURE_SEED; the seed only orders them


WORKLOADS = {
    "yeast-pooled": Shape("yeast-pooled", "ml-mlm", 1500, 917, 103, 14, 4.2, 200, False, False),
    "yeast-unique": Shape("yeast-unique", "ml-mlm", 1500, 917, 103, 14, 4.2, None, False, False),
    "medical-br": Shape("medical-br", "br-mlm", 645, 333, 1449, 45, 1.25, 94, True, True),
}

# Feature noise relative to the label signal. Chosen so that quality is
# neither trivial nor hopeless: ranking loss well above 0, micro-F1 well
# below 1 (see README for the figures).
YEAST_NOISE = 8.0
# Medical-like bag of words: each label owns a block of "topic" words that
# a relevant row switches on with this probability; every row also gets
# background words drawn uniformly from the whole vocabulary.
MEDICAL_TOPIC_WORDS = 24
MEDICAL_TOPIC_P = 0.20
MEDICAL_BACKGROUND = 30


@dataclass(frozen=True)
class Split:
    X_train: np.ndarray
    Y_train: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray


STRUCTURE_SEED = 20230509


def _label_vector(rng, L: int, card: float, freq: np.ndarray) -> np.ndarray:
    """One label vector: 1..L-1 relevant labels, drawn with label frequency freq."""
    k = int(np.clip(rng.poisson(card - 1.0) + 1, 1, L - 1))
    y = np.zeros(L)
    y[rng.choice(L, size=k, replace=False, p=freq)] = 1.0
    return y


def _distinct_vectors(rng, shape: Shape, count: int, freq: np.ndarray) -> np.ndarray:
    rows, seen = [], set()
    while len(rows) < count:
        y = _label_vector(rng, shape.n_labels, shape.card, freq)
        if y.tobytes() not in seen:
            seen.add(y.tobytes())
            rows.append(y)
    return np.array(rows)


def _label_matrix(srng, rng, shape: Shape, n: int, freq: np.ndarray) -> np.ndarray:
    if shape.pool is None:
        # near-unique regime: no two rows share a label vector
        return _distinct_vectors(rng, shape, n, freq)
    pool = _distinct_vectors(srng, shape, shape.pool, freq)
    # Zipf-like popularity, as in the real label-set distributions, with the
    # sets whose size is nearest the target cardinality the most popular.
    # The counts are fixed (largest remainders); the seed shuffles the rows.
    pool = pool[np.argsort(np.abs(pool.sum(axis=1) - shape.card), kind="stable")]
    weight = 1.0 / np.arange(1, shape.pool + 1) ** 0.9
    quota = n * weight / weight.sum()
    counts = np.floor(quota).astype(int)
    counts[np.argsort(counts - quota, kind="stable")[: n - counts.sum()]] += 1
    return pool[rng.permutation(np.repeat(np.arange(shape.pool), counts))]


def make_split(shape: Shape, seed: int) -> Split:
    srng = np.random.default_rng([STRUCTURE_SEED, list(WORKLOADS).index(shape.name)])
    rng = np.random.default_rng(seed)
    draw = srng if shape.fixed_sample else rng
    L, M = shape.n_labels, shape.n_features
    n = shape.n_train + shape.n_test
    freq = srng.dirichlet(np.full(L, 2.0))
    Y = _label_matrix(srng, draw, shape, n, freq)
    if shape.sparse:
        topics = srng.permutation(M)[: L * MEDICAL_TOPIC_WORDS].reshape(L, -1)
        X = (draw.random((n, M)) < MEDICAL_BACKGROUND / M).astype(np.float64)
        for i, j in zip(*np.nonzero(Y)):
            X[i, topics[j][draw.random(MEDICAL_TOPIC_WORDS) < MEDICAL_TOPIC_P]] = 1.0
    else:
        A = srng.normal(size=(L, M))
        X = Y @ A + YEAST_NOISE * draw.normal(size=(n, M))
        # six decimals, as in the published files; repr() round-trips exactly
        X = np.round(X, 6)
    t = shape.n_train
    if shape.fixed_sample:
        order = np.concatenate([rng.permutation(t), t + rng.permutation(n - t)])
        X, Y = X[order], Y[order]
    return Split(X[:t], Y[:t], X[t:], Y[t:])


def _header(shape: Shape, relation: str) -> list[str]:
    out = [f"@relation {relation}", ""]
    kind = "{0,1}" if shape.sparse else "numeric"
    out += [f"@attribute f{j} {kind}" for j in range(shape.n_features)]
    out += [f"@attribute l{j} {{0,1}}" for j in range(shape.n_labels)]
    out += ["", "@data"]
    return out


def _rows(shape: Shape, X: np.ndarray, Y: np.ndarray) -> list[str]:
    M = shape.n_features
    if shape.sparse:
        rows = []
        for x, y in zip(X, Y):
            idx = np.concatenate([np.nonzero(x)[0], M + np.nonzero(y)[0]])
            rows.append("{" + ",".join(f"{i} 1" for i in idx) + "}")
        return rows
    feats = [",".join(map(repr, r)) for r in X.tolist()]
    labs = [",".join("1" if v else "0" for v in r) for r in Y.tolist()]
    return [f + "," + l for f, l in zip(feats, labs)]


def write_inputs(shape: Shape, split: Split, out_dir: Path) -> dict[str, Path]:
    """Write train.arff, test.arff and labels.xml; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": out_dir / "train.arff",
        "test": out_dir / "test.arff",
        "xml": out_dir / "labels.xml",
    }
    for key, X, Y in (("train", split.X_train, split.Y_train),
                      ("test", split.X_test, split.Y_test)):
        lines = _header(shape, f"{shape.name}-{key}") + _rows(shape, X, Y)
        paths[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels = "".join(f'<label name="l{j}"></label>' for j in range(shape.n_labels))
    paths["xml"].write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        f'<labels xmlns="http://mulan.sourceforge.net/labels">{labels}</labels>\n',
        encoding="utf-8",
    )
    return paths
