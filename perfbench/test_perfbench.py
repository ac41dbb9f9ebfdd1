"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_shape(result: dict, metric_specs: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in metric_specs}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
        assert metric["unit"] == expected[name], name


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_untraced_output_shape(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--quick"))
    _assert_shape(res, SPEC["end_to_end"])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(WORKLOADS[workload])


def test_quick_traced_output_shape():
    res = _result(_run("--workload", "simulation", "--seed", "3", "--seconds", "1", "--trace", "1", "--quick"))
    _assert_shape(res, SPEC["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "limit-laws", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _no_default_op(seed=0):
    (op,) = [op for op in WORKLOADS["simulation"] if op.label == "no_default_k_scan"]
    return child.resolve_ops([op], seed, quick=False)


def test_reference_pass_counts_no_failure(tmp_path):
    from portloss import cli

    (rec,), _, _ = child.run_ops(cli, _no_default_op(), str(tmp_path))
    assert rec["ok"], rec["error"]


def test_perturbed_reference_value_fails_the_op(tmp_path):
    from portloss import cli

    ref_dir = tmp_path / "ref"
    ref = check.load_reference("no_default_k_scan")
    art = ref["artifacts"]["no_default.csv"]
    art["rows"][5][-1] *= 1.0 + 1e-4  # well beyond RTOL
    check.save_reference("no_default_k_scan", ref["artifacts"], str(ref_dir))
    (rec,), _, _ = child.run_ops(cli, _no_default_op(), str(tmp_path / "out"), ref_dir=str(ref_dir))
    assert not rec["ok"]
    assert rec["error"].startswith("check failed")


def test_extra_columns_and_files_are_ignored(tmp_path):
    ref = {"keys": ["l1"], "values": ["density"], "rows": [[0.25, 1.0], [0.75, 2.0]]}
    (tmp_path / "a.csv").write_text("# provenance\nl1,density,mass\n0.25,1.0,9\n0.75,2.0000000001,9\n")
    (tmp_path / "a.json").write_text("{}")
    check._compare_artifact("a.csv", ref, str(tmp_path), shape_only=False)
    (tmp_path / "a.csv").write_text("l1,density\n0.25,1.0\n0.75,2.1\n")
    with pytest.raises(check.CheckFailure):
        check._compare_artifact("a.csv", ref, str(tmp_path), shape_only=False)


def test_reference_files_cover_every_analytic_op():
    for ops in WORKLOADS.values():
        for op in ops:
            if op.analytic:
                with gzip.open(check.reference_path(op.label), "rt") as fh:
                    assert json.load(fh)["artifacts"], op.label
