"""Child process that runs distmlc commands; prints one JSON line and exits.

    python3 perfbench/worker.py '{"argvs": [[...], ...], "trace_out": null}'

Imports distmlc, then runs each argv through distmlc.cli.main and times
it. Reports the import time (from this file's first statement), exit
codes, seconds per command and the peak resident memory of this process,
which runs nothing but those commands.

The parent puts the checkout's ``src`` on PYTHONPATH and fixes the BLAS
thread count in the environment.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_cli(cfg: dict) -> dict:
    from distmlc import cli

    import_s = time.perf_counter() - _T0
    tracer = None
    if cfg.get("trace_out"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes, seconds = [], []
    for i, argv in enumerate(cfg["argvs"]):
        if tracer is not None:
            tracer.op = f"{argv[0]}#{i}"
        t0 = time.perf_counter()
        codes.append(cli.main(argv))
        seconds.append(time.perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(cfg["trace_out"])
    return {"import_s": import_s, "rc": codes, "seconds": seconds,
            "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    print(json.dumps(run_cli(json.loads(sys.argv[1]))))
