"""Span tracing of distmlc's public functions, installed from outside.

``Tracer.install`` wraps every public function of every ``distmlc``
module at run time and rebinds the wrapper in each module namespace that
binds the original, so calls between modules (``tuning`` calling
``linalg.pairwise_distances``, say) get spans too. Names that no longer
exist simply get no span. Spans stay in memory until ``dump``.

A span is ``(id, parent, op, name, start_ns, end_ns, peak, width)``:
``op`` names the operation (command or query) that caused it; ``peak``
(a tracemalloc peak in bytes) and ``width`` (the column count of the
returned matrix) are recorded only by the few spans listed below, and
are None elsewhere.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

# Spans whose tracemalloc peak is recorded (bytes allocated inside them).
MEMORY_SPANS = frozenset({"models.train_br", "tuning.loo_deltas", "modelio.load_model"})
# Spans that record the column count of the matrix they return.
WIDTH_SPANS = frozenset({"tuning.loo_deltas"})


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = ""
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        memory = name in MEMORY_SPANS
        width = name in WIDTH_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            own_malloc = memory and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                peak = None
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            cols = int(result.shape[1]) if width else None
            spans.append((sid, parent, self.op, name, start, end, peak, cols))
            return result

        return traced

    def install(self, package: str = "distmlc") -> None:
        """Wrap every public function and class method of the imported package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers: dict[int, object] = {}   # id of the original function -> wrapper
        classes: set[int] = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or not owner.startswith(package + "."):
                    continue
                short = owner[len(package) + 1:]
                if inspect.isfunction(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(f"{short}.{obj.__name__}", obj)
                    setattr(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and id(obj) not in classes:
                    classes.add(id(obj))
                    self._wrap_class(short, obj)

    def _wrap_class(self, short: str, cls) -> None:
        # Dataclasses and exceptions only hold data; only classes that do work
        # in their constructor or methods (RegularizedGram, say) get spans.
        if hasattr(cls, "__dataclass_fields__") or issubclass(cls, BaseException):
            return
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr != "__init__"):
                continue
            name = f"{short}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            setattr(cls, attr, self.wrap(name, fn))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_cost_ns(calls: int = 20000) -> float:
    """Measured cost of one span: a traced no-op call minus a plain one."""
    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer().wrap("probe.noop", noop)):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter_ns() - t0)
    return max(0.0, (elapsed[1] - elapsed[0]) / calls)


# Per-layer metrics read from the spans. Scopes: "train" is one train
# command and "predict" one predict command (each the median over its
# repetitions in the run); "both" is the two added. Kinds: "s" sums span
# durations, "count" counts spans, "peak_mb" is the largest tracemalloc
# peak, "width" the largest recorded result width. A name the code no
# longer has reads 0.
PER_LAYER = [
    ("cli.predict_dataset_s", "s", "cli.predict_dataset", "s", "predict"),
    ("cli.write_predictions_s", "s", "cli.write_predictions", "s", "predict"),
    ("data.parse_s", "s", "data.parse_arff", "s", "both"),
    ("linalg.pairwise_distances_s", "s", "linalg.pairwise_distances", "s", "both"),
    ("linalg.pairwise_distances_calls", "count", "linalg.pairwise_distances", "count", "train"),
    ("linalg.gram_factorizations", "count", "linalg.RegularizedGram", "count", "train"),
    ("linalg.gram_s", "s", "linalg.RegularizedGram", "s", "train"),
    ("models.train_s", "s", "models.train", "s", "train"),
    ("models.auto_alpha_s", "s", "models.auto_alpha", "s", "train"),
    ("models.train_br_s", "s", "models.train_br", "s", "train"),
    ("models.train_br_peak_mb", "MB", "models.train_br", "peak_mb", "train"),
    ("models.predict_deltas_s", "s", "models.predict_deltas", "s", "predict"),
    ("models.idw_scores_s", "s", "models.idw_scores", "s", "predict"),
    ("models.multilateration_s", "s", "models.scalar_multilateration_scores", "s", "predict"),
    ("tuning.loo_deltas_s", "s", "tuning.loo_deltas", "s", "train"),
    ("tuning.loo_deltas_peak_mb", "MB", "tuning.loo_deltas", "peak_mb", "train"),
    ("tuning.search_power_s", "s", "tuning.search_power", "s", "train"),
    ("tuning.lrl_calls", "count", "tuning.lrl", "count", "train"),
    ("tuning.loo_columns", "count", "tuning.loo_deltas", "width", "train"),
    ("tuning.cardinality_threshold_s", "s", "tuning.cardinality_threshold", "s", "train"),
    ("tuning.local_rcut_s", "s", "tuning.local_rcut", "s", "predict"),
    ("modelio.save_s", "s", "modelio.save_model", "s", "train"),
    ("modelio.load_s", "s", "modelio.load_model", "s", "predict"),
    ("modelio.load_peak_mb", "MB", "modelio.load_model", "peak_mb", "predict"),
]
# Busy time of each module: the self time of all its spans (train + predict).
MODULES = ("cli", "data", "linalg", "models", "tuning", "modelio")


def summarize(spans) -> dict:
    """Per op: {name: [total_ns, count, max_peak, max_width]} and {module: self_ns}."""
    child_ns: dict[tuple, int] = {}
    for sid, parent, op, name, start, end, _, _ in spans:
        if parent >= 0:
            child_ns[(op, parent)] = child_ns.get((op, parent), 0) + end - start
    by_op: dict[str, dict] = {}
    self_by_op: dict[str, dict] = {}
    for sid, parent, op, name, start, end, peak, width in spans:
        rec = by_op.setdefault(op, {}).setdefault(name, [0, 0, 0, 0])
        rec[0] += end - start
        rec[1] += 1
        rec[2] = max(rec[2], peak or 0)
        rec[3] = max(rec[3], width or 0)
        module = name.split(".", 1)[0]
        own = end - start - child_ns.get((op, sid), 0)
        mods = self_by_op.setdefault(op, {})
        mods[module] = mods.get(module, 0) + own
    return {"names": by_op, "self": self_by_op}


def _value(rec, kind: str) -> float:
    if rec is None:
        return 0.0
    total, count, peak, width = rec
    return {"s": total / 1e9, "count": count, "peak_mb": peak / 2**20,
            "width": width}[kind]


def layer_metrics(summary: dict, train_ops: list[str], predict_ops: list[str]) -> dict:
    names, selfs = summary["names"], summary["self"]

    def median(ops, get) -> float:
        return float(np.median([get(op) for op in ops]))

    out = {}
    for metric, unit, name, kind, scope in PER_LAYER:
        train = median(train_ops, lambda op: _value(names.get(op, {}).get(name), kind))
        pred = median(predict_ops, lambda op: _value(names.get(op, {}).get(name), kind))
        out[metric] = ({"train": train, "predict": pred, "both": train + pred}[scope], unit)
    for mod in MODULES:
        train = median(train_ops, lambda op: selfs.get(op, {}).get(mod, 0) / 1e9)
        pred = median(predict_ops, lambda op: selfs.get(op, {}).get(mod, 0) / 1e9)
        out[f"{mod}.self_s"] = (train + pred, "s")
    return out
