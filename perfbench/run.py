"""portloss benchmark: end-to-end and per-layer metrics of ``portloss run``.

    python3 perfbench/run.py --workload limit-laws --seed 0 --seconds 30 --trace 0

Every op is one ``portloss run`` of a bundled scenario through
``portloss.cli.main`` with PORTLOSS_WORKERS=1 and no ``--workers`` flag.
Each pass over a workload's ops runs in a fresh interpreter (child.py).

--trace 0 runs extra setup-only processes and then passes until the time
budget is spent (at least two), and reports wall_s, setup_s, peak_rss_mb
and success_rate.  --trace 1 runs one untraced pass of
the workload, one traced pass of every workload and the layer
microbenchmarks, and reports the per-layer metrics.  --quick shrinks every
op and checks only the output shape.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full report, with the environment, every
op's timings and cost estimates, and the raw samples, is written to
``.perfbench_out/<workload>-trace<0|1>.json`` under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3  # setup-only processes per untraced run, besides each pass's own setup
MIN_PASSES = 2
HARD_LIMIT_S = 150.0  # no pass starts that would end past this, whatever the budget


class BenchError(Exception):
    pass


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, workload: str, seed: int, work_dir: str, quick: bool):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.quick = quick
        self.count = 0
        self.env = dict(os.environ, PORTLOSS_WORKERS="1")
        self.env.pop("PYTHONPATH", None)

    def child(self, timeout: float, mode: str, workload: str | None = None) -> dict:
        self.count += 1
        out = os.path.join(self.work_dir, f"p{self.count}")
        os.makedirs(out)
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
                "--workload", workload or self.workload, "--seed", str(self.seed), "--out", out]
        argv += ["--quick"] * self.quick
        log_path = os.path.join(out, "log.txt")
        with open(log_path, "w") as log:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(argv + ["--t0", repr(t0)], stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, cwd=ROOT, timeout=max(timeout, 10.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"benchmark process timed out after {timeout:.0f} s; log {log_path}") from None
        result_path = os.path.join(out, "result.json")
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"benchmark process exited {proc.returncode}:\n{tail}")
        with open(result_path) as fh:
            res = json.load(fh)
        res["process_s"] = time.monotonic() - t0
        return res


def run_untraced(runner: Runner, seconds: float) -> tuple:
    start = time.monotonic()
    probes = [runner.child(HARD_LIMIT_S, "setup")["setup_s"]
              for _ in range(1 if runner.quick else SETUP_PROBES)]
    passes = []
    while True:
        elapsed = time.monotonic() - start
        passes.append(runner.child(HARD_LIMIT_S - elapsed, "pass"))
        elapsed = time.monotonic() - start
        next_end = elapsed + statistics.median([p["process_s"] for p in passes])
        if runner.quick or next_end > HARD_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and next_end > seconds:
            break
    # a pass's wall time, estimated op by op: the sum of each op's median
    # over passes, so a transient slowdown of one op in one pass drops out
    op_medians = [statistics.median(rs) for rs in zip(*([r["wall_s"] for r in p["records"]] for p in passes))]
    metrics = {
        "wall_s": (sum(op_medians), "s"),
        "setup_s": (statistics.median(probes + [p["setup_s"] for p in passes]), "s"),
        # the allocator adds up to ~20 MB to some passes' peaks; the smallest
        # peak is the memory the workload needs
        "peak_rss_mb": (min(p["peak_rss_mb"] for p in passes), "MB"),
    }
    raw = {"setup_probes_s": probes}
    return passes, metrics, raw


def run_traced(runner: Runner) -> tuple:
    """One untraced pass of the workload, one traced pass of every workload
    (so every layer and op is measured on every run), then the layer
    microbenchmarks on this workload's parameters."""
    start = time.monotonic()

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - start)

    plain = runner.child(remaining(), "pass")
    traced = {w: runner.child(remaining(), "trace", w) for w in WORKLOADS}
    micro = runner.child(remaining(), "micro")
    own = traced[runner.workload]
    records = [r for t in traced.values() for r in t["records"]]
    m = {f"scenarios.op.{r['op']}.wall_s": (r["wall_s"], "s") for r in records}
    m["scenarios.resolve_ms"] = (1e3 * own["resolve_s"], "ms")
    ratios = [max(r["est_seconds"] / r["wall_s"], r["wall_s"] / r["est_seconds"]) for r in records]
    m["scenarios.cost_estimate_ratio"] = (max(ratios), "ratio")

    layers, self_s, coverage = {}, {}, {}
    for t in traced.values():
        for name, sec in t["layers"].items():
            layers[name] = layers.get(name, 0.0) + sec
        for name, sec in t["self"].items():
            self_s[name] = self_s.get(name, 0.0) + sec
        coverage.update(t["coverage"])
    work = {k: sum(r["work"][k] for r in records) for k in ("cells", "node_evals", "mc_samples")}
    grid_s = layers.get("engine.grid", 0.0)
    m["grids.to_csv_s"] = (layers.get("grids.to_csv", 0.0), "s")
    m["grids.cells_written"] = (work["cells"], "count")
    m["engine.grid_s"] = (grid_s, "s")
    m["engine.node_evals"] = (work["node_evals"], "count")
    m["engine.grid_ns_per_node_eval"] = (1e9 * grid_s / work["node_evals"] if work["node_evals"] else 0.0, "ns")
    m["engine.cell_masses_s"] = (layers.get("engine.cell_masses", 0.0), "s")
    m["engine.small_ops_s"] = (layers.get("engine.small_ops", 0.0), "s")
    m["limits.grid_s"] = (layers.get("limits.grid", 0.0), "s")
    m["mc.estimate_s"] = (layers.get("mc.estimate", 0.0), "s")
    m["mc.samples"] = (work["mc_samples"], "count")
    m["calibration.fit_ms"] = (1e3 * layers.get("calibration.fit", 0.0), "ms")
    m.update((name, tuple(vu)) for name, vu in micro["micro"].items())
    m["process.cpu_s"] = (plain["cpu_s"], "s")
    m["trace.overhead_pct"] = (100.0 * (own["wall_s"] - plain["wall_s"]) / plain["wall_s"], "%")
    m["trace.coverage_min_pct"] = (100.0 * min(coverage.values()), "%")
    spans = {}
    for w, t in traced.items():
        with open(t["spans"]) as fh:
            spans[w] = json.load(fh)
    spans_path = os.path.join(OUT_ROOT, f"{runner.workload}-spans.json")
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
    raw = {
        "op_cost": {r["op"]: {"est_seconds": r["est_seconds"], "measured_s": r["wall_s"]} for r in records},
        "coverage": coverage,
        "layers_s": layers,
        "self_s": self_s,
        "micro_s": micro["micro_s"],
        "spans_file": spans_path,
    }
    return [plain, *traced.values()], m, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, shape checks only")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "portloss", "__init__.py")):
        print(f"no portloss sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = os.path.join(OUT_ROOT, f"work-{os.getpid()}")
    runner = Runner(args.workload, args.seed, work_dir, args.quick)
    try:
        if args.trace:
            passes, metrics, raw = run_traced(runner)
        else:
            passes, metrics, raw = run_untraced(runner, args.seconds)
        records = [r for p in passes for r in p["records"]]
        attempted = len(records)
        failed = sum(not r["ok"] for r in records)
        if not args.trace:
            metrics["success_rate"] = ((attempted - failed) / attempted, "share")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = dict(passes[0]["env"], nproc=os.cpu_count(), git_sha=_git_sha())
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "labels": {"grids.cells_written": "computed", "engine.node_evals": "computed",
                   "mc.samples": "computed",
                   "engine.grid_ns_per_node_eval": "derived: engine.grid_s / engine.node_evals",
                   "quadrature.negligible_node_share": "computed",
                   "quadrature.negligible_node_mass": "computed",
                   "mc.loss_eval_share": "derived: 1 - estimate_samples_per_s / draw_samples_per_s"},
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "records")} for p in passes],
        **raw,
    }
    report_path = os.path.join(OUT_ROOT, f"{args.workload}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
    for r in records:
        if not r["ok"]:
            print(f"op {r['op']} failed: {r['error']}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"report {report_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
