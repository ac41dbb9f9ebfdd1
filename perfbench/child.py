"""One benchmark process: set up, then run one pass of a workload and check
it, or run the layer microbenchmarks.

Started by run.py in a fresh interpreter for every pass, so each pass pays
the imports and cold caches a command-line user pays.  Writes its result
as JSON to ``<out>/result.json``; stdout and stderr go to the caller's log.

Setup time runs from ``--t0`` (the caller's CLOCK_MONOTONIC reading just
before it started this process) until portloss is imported and the
workload's documents are resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = _blas_threads()
    except OSError as exc:
        blas = f"unknown ({exc})"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "portloss_workers": os.environ.get("PORTLOSS_WORKERS"),
    }


def resolve_ops(ops, seed: int, quick: bool) -> list:
    """(op, overrides, resolved document) for every op of the workload."""
    from portloss.scenarios import apply_overrides, bundled_scenarios, resolve_scenario
    from workloads import quick_overrides, seed_value

    bundled = bundled_scenarios()
    out = []
    for op in ops:
        sets = op.overrides(seed_value(seed))
        resolved = resolve_scenario(apply_overrides(bundled[op.scenario], sets))
        if quick:
            sets += quick_overrides(resolved)
            resolved = resolve_scenario(apply_overrides(bundled[op.scenario], sets))
        out.append((op, sets, resolved))
    return out


def run_ops(cli, resolved_ops, out_dir: str, tracer=None, ref_dir=None, shape_only=False) -> tuple:
    """Run each op through ``cli.main``, then check its artifacts.

    Returns (records, pass wall seconds, pass cpu seconds).  An op fails on
    a nonzero exit, an exception, or a failed check.
    """
    from check import REFERENCE_DIR, CheckFailure, check_op
    from spans import OP_SPAN

    records = []
    cpu0 = _cpu_seconds()
    t_pass = time.perf_counter()
    for op, sets, _ in resolved_ops:
        op_dir = os.path.join(out_dir, op.label)
        argv = ["run", op.scenario, "--out-dir", op_dir]
        for s in sets:
            argv += ["--set", s]
        rec = {"op": op.label, "error": None}
        if tracer is not None:
            tracer.op = op.label
        t = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(OP_SPAN):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
            if rc != 0:
                rec["error"] = f"exit code {rc}"
        except (Exception, SystemExit):
            rec["error"] = traceback.format_exc(limit=-3)
        rec["wall_s"] = time.perf_counter() - t
        records.append(rec)
    wall = time.perf_counter() - t_pass
    cpu = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.op = None
    for (op, _, _), rec in zip(resolved_ops, records):
        if rec["error"] is None:
            try:
                check_op(op, os.path.join(out_dir, op.label), ref_dir or REFERENCE_DIR, shape_only)
            except (CheckFailure, OSError, ValueError, KeyError) as exc:
                rec["error"] = f"check failed: {exc}"
        rec["ok"] = rec["error"] is None
    return records, wall, cpu


MODES = ("setup", "pass", "trace", "micro")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=MODES,
                        help="setup only; an untraced pass; a traced pass; or the layer microbenchmarks")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from spans import Tracer, layer_totals, op_coverage, self_times
    from workloads import WORKLOADS

    tracer = Tracer() if args.mode == "trace" else None
    import portloss
    import portloss.cli as cli

    if os.path.dirname(os.path.abspath(portloss.__file__)) != os.path.join(SRC, "portloss"):
        print(f"portloss was imported from {portloss.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.install(portloss)
    resolved_ops = resolve_ops(WORKLOADS[args.workload], args.seed, args.quick)
    setup_s = time.monotonic() - args.t0

    os.makedirs(args.out, exist_ok=True)
    result = {"setup_s": setup_s, "env": environment()}
    if args.mode == "micro":
        import micro

        t = time.perf_counter()
        result["micro"] = micro.run([r for _, _, r in resolved_ops], args.seed)
        result["micro_s"] = time.perf_counter() - t
    elif args.mode != "setup":
        from portloss.scenarios import validate_scenario
        from workloads import work_counts

        if tracer is not None:
            result["resolve_s"] = layer_totals(tracer.spans).get("scenarios.resolve", 0.0)
        records, wall, cpu = run_ops(cli, resolved_ops, args.out, tracer, shape_only=args.quick)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_totals(tracer.spans)
            result["self"] = self_times(tracer.spans)
            result["coverage"] = op_coverage(tracer.spans)
            result["spans"] = os.path.join(args.out, "spans.json")
            tracer.dump(result["spans"])
        for (op, sets, resolved), rec in zip(resolved_ops, records):
            rec["est_seconds"] = validate_scenario(resolved)["cost"]["est_seconds"]
            rec["work"] = work_counts(resolved)
        result.update(records=records, wall_s=wall, cpu_s=cpu)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
