"""Smoke runs of the benchmark harness in --quick mode.

One traced limit-laws run on tiny inputs, as ``perfbench/run.py``
documents.  It checks the shape of the result line only: every op passes
its check and every per-layer metric named in BENCHMARK.json is reported.
The layer microbenchmarks import the one-point limit solvers, so this also
guards those names.  One untraced simulation run carries every MC and
calibration op end to end.  There is no timing bound.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_run(workload: str, trace: int) -> dict:
    """The result line of a --quick harness run; every op passes its check."""
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--quick",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_quick_simulation_run_passes_every_op():
    _quick_run("simulation", 0)


def test_quick_traced_run_reports_every_layer_metric():
    result = _quick_run("limit-laws", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [n for n in names if n not in result["metrics"]] == []
