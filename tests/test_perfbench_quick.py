"""Smoke run of the benchmark harness in --quick mode.

One traced limit-laws run on tiny inputs, as ``perfbench/run.py``
documents.  It checks the shape of the result line only: every op passes
its check and every per-layer metric named in BENCHMARK.json is reported.
The layer microbenchmarks import the one-point limit solvers, so this also
guards those names.  There is no timing bound.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_traced_run_reports_every_layer_metric():
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", "limit-laws", "--seed", "3", "--seconds", "1",
        "--trace", "1", "--quick",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [n for n in names if n not in result["metrics"]] == []
