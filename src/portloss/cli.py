"""Command-line front end: run, validate and list scenario files.

Exit codes: 0 success, 2 schema/domain rejection, 3 numeric failure at run
time.  ``run`` reports any other exception as exit 3 too, with its
traceback in the error report.  Exit 3 leaves a machine-readable error
report that lists the artifacts written before the failure, unless the
report itself cannot be written, which stderr then says.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .errors import PortlossError, ScenarioError
from .scenarios import (
    apply_overrides,
    bundled_scenarios,
    run_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_NUMERIC = 3


def _load_document(ref: str) -> dict:
    """A scenario reference is either a bundled id or a JSON file path."""
    bundled = bundled_scenarios()
    if ref in bundled:
        return bundled[ref]
    if not os.path.exists(ref):
        raise ScenarioError(
            f"{ref!r} is neither a bundled scenario id nor a readable file; "
            f"try the list-scenarios subcommand",
        )
    try:
        with open(ref, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {ref!r} as UTF-8 JSON: {exc}") from exc


def _print_rejection(exc: ScenarioError, stream=None) -> None:
    stream = stream or sys.stderr
    diag = {
        "error": "scenario_rejected",
        "pointer": getattr(exc, "pointer", "") or "",
        "message": str(exc),
    }
    print(json.dumps(diag, sort_keys=True), file=stream)


def _write_error_report(out_dir: str, exc: Exception, trace=None) -> str:
    report = {
        "error": type(exc).__name__,
        "message": str(exc),
        "partial_artifacts": [
            dict(a, partial=True) for a in getattr(exc, "partial_artifacts", [])
        ],
    }
    if trace is not None:
        report["traceback"] = trace
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "error_report.json")
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=1))
        fh.write("\n")
    return path


def _numeric_failure(out_dir: str, exc: Exception, trace=None) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    try:
        print(f"report: {_write_error_report(out_dir, exc, trace)}", file=sys.stderr)
    except OSError as report_exc:
        print(f"report not written: {report_exc}", file=sys.stderr)
    return EXIT_NUMERIC


def _cmd_run(args) -> int:
    try:
        doc = _load_document(args.scenario)
        doc = apply_overrides(doc, args.set or [])
    except ScenarioError as exc:
        _print_rejection(exc)
        return EXIT_REJECTED
    try:
        artifacts = run_scenario(doc, out_dir=args.out_dir)
    except ScenarioError as exc:
        _print_rejection(exc)
        return EXIT_REJECTED
    except PortlossError as exc:
        return _numeric_failure(args.out_dir, exc)
    except Exception as exc:  # a defect: report it, never a bare traceback
        return _numeric_failure(args.out_dir, exc, traceback.format_exc())
    for art in artifacts:
        print(f"wrote {art['path']} [{art['kind']}] {art['summary']}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        doc = _load_document(args.scenario)
        doc = apply_overrides(doc, args.set or [])
        report = validate_scenario(doc)
    except ScenarioError as exc:
        _print_rejection(exc)
        return EXIT_REJECTED
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def _cmd_list(args) -> int:
    bundled = bundled_scenarios()
    width = max(len(k) for k in bundled)
    for name in sorted(bundled):
        title = bundled[name].get("title", "")
        print(f"{name:<{width}}  {title}")
    return EXIT_OK


# built once per process: parse_args leaves the parser as it is
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portloss",
        description=(
            "Analytic and Monte Carlo loss distributions for credit "
            "portfolios with fluctuating asset correlations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="execute a scenario and write its artifacts",
        description=(
            "Execute a scenario and write its artifacts.  Exit codes: 0 "
            "success, 2 scenario rejected, 3 numeric failure or internal "
            "error (an error_report.json is written to the artifact "
            "directory)."
        ),
    )
    run_p.add_argument("scenario", help="bundled scenario id or JSON file path")
    run_p.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a scenario leaf via a dotted path (repeatable)",
    )
    run_p.add_argument("--out-dir", default=".", help="artifact directory")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser(
        "validate", help="check a scenario and estimate its cost without running"
    )
    val_p.add_argument("scenario", help="bundled scenario id or JSON file path")
    val_p.add_argument("--set", action="append", metavar="PATH=VALUE")
    val_p.set_defaults(func=_cmd_validate)

    list_p = sub.add_parser("list-scenarios", help="list bundled scenario ids")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
