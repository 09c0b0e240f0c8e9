"""End-to-end benchmark of distmlc: fit, batch predict and one-row queries.

    python3 perfbench/run.py --workload yeast-pooled --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The program sees only the seeded ARFF
files this script writes; it is driven from outside, the way its users
drive it: ``train`` and ``predict`` go through ``distmlc.cli.main`` in
child processes of their own (so their peak memory is theirs alone),
``evaluate`` and the one-row library queries run in this process on the
loaded model. Every output is then checked against the benchmark's own
computations (checks.py), outside the timed phases.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work with every public distmlc function wrapped in spans (tracing.py) and
prints the per-layer metrics instead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import os

# Measured choice, see README: two OpenBLAS threads on the 2-CPU machine.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zipfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3                                  # input writes per run
TRAIN_REPS = {"ml-mlm": 2, "br-mlm": 3}         # train commands per run
PREDICT_REPS = {"ml-mlm": 5, "br-mlm": 1}       # predict commands per run
QUERY_ROUND = 100                               # test rows per query round
WARMUP_QUERIES = 20
CHILD_TIMEOUT_S = 170
TIMINGS = ("setup_s", "train_s", "predict_rows_per_s", "query_ms_p50")


class BenchError(RuntimeError):
    pass


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child(cfg: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_jsonl(path: Path):
    recs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return (np.array([r["scores"] for r in recs]),
            np.array([r["labels"] for r in recs], dtype=np.float64))


def read_manifest(model_path: Path) -> dict:
    with zipfile.ZipFile(model_path) as zf:
        return json.loads(zf.read("manifest.json"))


def read_curve(path: Path):
    """(s, P, LRL) rows of --curve-out. Under numpy 2 the file holds values as
    ``np.float64(x)`` reprs (see CHANGES.md), so that wrapper is stripped."""
    def num(tok: str) -> float:
        return float(tok.removeprefix("np.float64(").removesuffix(")"))

    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [tuple(num(v) for v in row.split(",")) for row in rows]


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.shape = workloads.WORKLOADS[workload]
        self.work = HERE / "_work" / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.info: list[str] = []

    def command(self, argvs: list[list[str]], trace_name: str) -> dict:
        trace_out = str(self.work / f"{trace_name}.spans.json") if self.trace else None
        out = child({"argvs": argvs, "trace_out": trace_out}, self.env)
        self.attempted += len(argvs)
        self.failed += sum(rc != 0 for rc in out["rc"])
        if any(rc != 0 for rc in out["rc"]):
            raise BenchError(f"{argvs[0][0]} exited with {out['rc']}")
        if trace_out:
            out["spans"] = json.loads(Path(trace_out).read_text())
        return out

    def execute(self) -> dict:
        shape, work = self.shape, self.work
        work.mkdir(parents=True)
        t_phase = {"start": time.perf_counter()}

        # -- set-up, part one: make and write the seeded inputs. Part two is
        # the import of distmlc, timed inside each fresh worker process.
        write_s, digests = [], set()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            split = workloads.make_split(shape, self.seed)
            paths = workloads.write_inputs(shape, split, work / "inputs")
            write_s.append(time.perf_counter() - t0)
            digests.add(tuple(sha256(p) for p in paths.values()))
        self.checks.append(("inputs written from one seed are byte-identical",
                            len(digests) == 1, ""))
        t_phase["setup"] = time.perf_counter()
        train_spec = f"{paths['train']}@{paths['xml']}"
        test_spec = f"{paths['test']}@{paths['xml']}"

        # -- train command
        model_path, curve_path = work / "model.dmlm", work / "curve.csv"
        argv = ["train", train_spec, "--method", shape.method, "--out", str(model_path)]
        if shape.method == "ml-mlm":
            argv += ["--curve-out", str(curve_path)]
        train = self.command([argv] * TRAIN_REPS[shape.method], "train")
        t_phase["train"] = time.perf_counter()

        # -- predict commands
        k = PREDICT_REPS[shape.method]
        preds = [work / f"pred{i}.jsonl" for i in range(k)]
        predict = self.command(
            [["predict", str(model_path), test_spec, "--out", str(p)] for p in preds], "predict")
        t_phase["predict"] = time.perf_counter()

        # -- this process: evaluate, then one-row queries on a loaded model
        sys.path.insert(0, str(self.root / "src"))
        import distmlc
        from distmlc import cli, modelio, models

        if not Path(distmlc.__file__).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"imported distmlc from {distmlc.__file__}, not the checkout")
        tracer = None
        if self.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.op = "evaluate#0"
        report_path = work / "report.json"
        self.attempted += 1
        rc = cli.main(["evaluate", str(preds[0]), test_spec, "--out", str(report_path)])
        if rc != 0:
            self.failed += 1
            raise BenchError(f"evaluate exited with {rc}")

        if tracer is not None:
            tracer.op = "load#0"
        model, manifest = modelio.load_model(model_path)
        predict_one = {"ml-mlm": models.ml_mlm_predict,
                       "br-mlm": models.br_mlm_predict}[manifest["method"]]
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(split.X_test.shape[0])[:QUERY_ROUND]
        lat, first_round = [], {}
        clock = time.perf_counter_ns

        def query(j: int, op: str):
            """One timed query; returns its latency in ns, or None if it raised."""
            if tracer is not None:
                tracer.op = op
            self.attempted += 1
            t0 = clock()
            try:
                pred = predict_one(model, split.X_test[j])
            except Exception as exc:  # a failed query is counted, not fatal
                self.failed += 1
                self.info.append(f"query failed on test row {j}: {exc!r}")
                return None
            elapsed = clock() - t0
            first_round.setdefault(int(j), pred.scores)
            return elapsed

        for j in order[:WARMUP_QUERIES]:
            query(j, "warmup")
        # whole rounds until --seconds have passed
        t_end = time.perf_counter() + self.seconds
        while not lat or time.perf_counter() < t_end:
            lat += [query(j, f"query#{len(lat)}") for j in order]
        lat_ms = np.array([t for t in lat if t is not None]) / 1e6
        t_phase["queries"] = time.perf_counter()
        coef_bytes = model.base.coefficients.nbytes + model.label_coefficients.nbytes \
            if manifest["method"] == "br-mlm" else model.model.coefficients.nbytes
        del model

        # -- checks against the benchmark's own computations
        scores, labels = read_jsonl(preds[0])
        for p in preds[1:]:
            self.checks.append((f"{p.name} identical to {preds[0].name}",
                                sha256(p) == sha256(preds[0]), ""))
        rows = sorted(first_round)
        q_err = float(np.abs(np.array([first_round[j] for j in rows]) - scores[rows]).max())
        self.checks.append(("one-row queries match the predict command (1e-12)",
                            q_err <= 1e-12, f"max err {q_err:.2e}"))
        own = read_manifest(model_path)
        crng = np.random.default_rng([self.seed, 1])
        if shape.method == "ml-mlm":
            self.checks += checks.check_ml_mlm(
                split, own["alpha"], own["P"], own["t"], read_curve(curve_path),
                scores, labels, crng)
        else:
            self.checks += checks.check_br_mlm(split, own["alpha"], scores, labels, crng)
        report = json.loads(report_path.read_text())
        rl, f1, qual = checks.check_quality(scores, labels, split.Y_test, report)
        self.checks += qual
        self.check_hashes(digests.pop(), sha256(model_path), sha256(preds[0]))

        t_phase["checks"] = time.perf_counter()
        # The tail is printed, not a metric: it moved by 35-76 % of its median
        # between runs (README). Shown is the highest of these percentiles
        # with at least ten samples beyond it.
        tail = next((p for p in (99, 95, 90) if lat_ms.size * (100 - p) >= 1000), None)
        self.info.append(f"query samples: {lat_ms.size} timed after {WARMUP_QUERIES} warm-up"
                         + (f"; p{tail} {np.percentile(lat_ms, tail):.4g} ms" if tail else ""))
        marks = list(t_phase.items())
        self.info.append("phase walls: " + ", ".join(
            f"{name} {t - prev:.2f} s" for (_, prev), (name, t) in zip(marks, marks[1:])))
        n_test = split.X_test.shape[0]
        end_to_end = {
            "setup_s": (statistics.median(write_s)
                        + statistics.median([train["import_s"], predict["import_s"]]), "s"),
            "train_s": (statistics.median(train["seconds"]), "s"),
            "predict_rows_per_s": (n_test / statistics.median(predict["seconds"]), "rows/s"),
            "query_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "model_bytes": (model_path.stat().st_size, "B"),
            "train_peak_rss_mb": (train["peak_rss_mb"], "MB"),
            "predict_peak_rss_mb": (predict["peak_rss_mb"], "MB"),
            "test_ranking_loss": (rl, "ratio"),
            "test_micro_f1": (f1, "ratio"),
        }
        if not self.trace:
            return end_to_end
        # traced timings only serve to give the tracing overhead
        self.info.append("under tracing: " + ", ".join(
            f"{n} = {v:.6g} {u}" for n, (v, u) in end_to_end.items() if n in TIMINGS))
        spans = train["spans"] + predict["spans"] + tracer.spans
        out_dir = HERE / "_results"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{shape.name}-seed{self.seed}-spans.json").write_text(json.dumps(spans))
        return self.layer_metrics(spans, coef_bytes)

    def layer_metrics(self, spans, coef_bytes) -> dict:
        method = self.shape.method
        out = tracing.layer_metrics(
            tracing.summarize(spans),
            [f"train#{i}" for i in range(TRAIN_REPS[method])],
            [f"predict#{i}" for i in range(PREDICT_REPS[method])])
        shape = self.shape
        cells = (shape.n_train + shape.n_test) * (shape.n_features + shape.n_labels)
        parse_s = out["data.parse_s"][0]
        out["data.values_per_s"] = (cells / parse_s if parse_s else 0.0, "values/s")
        out["models.coef_bytes_per_query"] = (coef_bytes, "B")
        cost = tracing.span_cost_ns()
        out["trace.overhead_s"] = (len(spans) * cost / 1e9, "s")
        self.info.append(f"trace: {len(spans)} spans at {cost:.0f} ns each; "
                         "models.coef_bytes_per_query is computed from array sizes")
        return out

    def check_hashes(self, inputs: tuple, model_hash: str, pred_hash: str) -> None:
        """Same inputs and same source must give byte-identical files in every run."""
        src = hashlib.sha256("".join(inputs).encode())
        for f in sorted((self.root / "src" / "distmlc").glob("*.py")):
            src.update(f.read_bytes())
        key = f"{self.shape.name}:{self.seed}:{src.hexdigest()[:16]}"
        ledger_path = HERE / "_work" / "hashes.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        now = {"model": model_hash, "predictions": pred_hash}
        before = ledger.setdefault(key, now)
        self.checks.append(("model and prediction hashes equal earlier runs on these inputs",
                            before == now, f"model {model_hash[:16]} predictions {pred_hash[:16]}"))
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, ledger_path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "distmlc" / "__init__.py").is_file():
        print(f"no distmlc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.execute()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    correct = all(ok for _, ok, _ in run.checks)
    for name, ok, detail in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for line in run.info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
