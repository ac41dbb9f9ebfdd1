"""The analytic benchmark ops against their stored reference outputs.

Each of the benchmark's analytic ops runs once in process, at its bundled
size, and ``perfbench/check.py`` compares its artifacts with
``perfbench/reference`` as a benchmark pass does.  The test only reads
``perfbench/``: its modules are imported without writing bytecode, and
every artifact goes to a temporary directory.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_analytic_benchmark_ops_match_their_references(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import child
    from check import REFERENCE_DIR
    from workloads import ALL_OPS

    from portloss import cli

    ops = [op for op in ALL_OPS if op.analytic]
    assert len(ops) == 10
    assert all(os.path.exists(os.path.join(REFERENCE_DIR, f"{op.label}.json.gz")) for op in ops)
    records, _, _ = child.run_ops(cli, child.resolve_ops(ops, 0, quick=False), str(tmp_path))
    assert [r["op"] for r in records] == [op.label for op in ops]
    assert {r["op"]: r["error"] for r in records if not r["ok"]} == {}
