"""Short runs of every benchmark workload with all their checks.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced with ``--seconds 1``;
the run must pass every correctness check with no failed operation and
print exactly the metrics BENCHMARK.json lists. The benchmark must also
refuse to run where there are no distmlc sources. Run from the root of a
checkout; a full pass takes a few minutes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert out["correct"], [line for line in lines if "FAIL" in line]
    assert out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
