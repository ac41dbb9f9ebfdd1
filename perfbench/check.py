"""Correctness checks for benchmark ops.

Analytic ops are compared with reference outputs stored under
``perfbench/reference`` (one gzipped JSON file per op).  Each artifact's
value columns are matched row by row, keyed by its loss coordinates, and
must satisfy

    |actual - reference| <= RTOL * |reference| + ATOL * max|reference column|

Columns and files that the reference does not list are ignored, so an
artifact may gain columns or sidecars without failing.  Seeded ops check
the program's own verdicts instead.

Regenerate the references (only when the numbers are meant to change):

    python3 perfbench/check.py --regenerate
"""

from __future__ import annotations

import gzip
import json
import os
import sys

RTOL = 1e-6
ATOL = 1e-9
KEY_DIGITS = 12  # loss coordinates are matched after rounding to this many digits

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# leading CSV columns that are coordinates, not values
_KEY_COLUMNS = ("l1", "l2", "mu", "c", "k_obligors")


class CheckFailure(Exception):
    pass


def read_csv(path: str) -> tuple:
    """Header and float rows of an artifact CSV; ``#`` lines are skipped."""
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if header is None:
                header = cells
            else:
                rows.append([float(c) for c in cells])
    if header is None:
        raise CheckFailure(f"{os.path.basename(path)}: no header")
    return header, rows


def _key(values) -> tuple:
    return tuple(float(f"{v:.{KEY_DIGITS}g}") for v in values)


def extract(out_dir: str) -> dict:
    """Reference record of every CSV artifact in an op's output directory."""
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        header, rows = read_csv(os.path.join(out_dir, name))
        keys = [c for c in header if c in _KEY_COLUMNS]
        values = [c for c in header if c not in _KEY_COLUMNS]
        order = [header.index(c) for c in keys + values]
        artifacts[name] = {
            "keys": keys,
            "values": values,
            "rows": [[row[i] for i in order] for row in rows],
        }
    return artifacts


def reference_path(label: str, ref_dir: str = REFERENCE_DIR) -> str:
    return os.path.join(ref_dir, f"{label}.json.gz")


def load_reference(label: str, ref_dir: str = REFERENCE_DIR) -> dict:
    with gzip.open(reference_path(label, ref_dir), "rt") as fh:
        return json.load(fh)


def save_reference(label: str, artifacts: dict, ref_dir: str = REFERENCE_DIR) -> None:
    os.makedirs(ref_dir, exist_ok=True)
    doc = {"op": label, "rtol": RTOL, "atol": ATOL, "artifacts": artifacts}
    # mtime=0 keeps the file byte-stable across regenerations
    with open(reference_path(label, ref_dir), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def _compare_artifact(name: str, ref: dict, out_dir: str, shape_only: bool) -> None:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise CheckFailure(f"{name}: artifact missing")
    header, rows = read_csv(path)
    missing = [c for c in ref["keys"] + ref["values"] if c not in header]
    if missing:
        raise CheckFailure(f"{name}: columns missing: {missing}")
    if shape_only:
        if not rows:
            raise CheckFailure(f"{name}: no rows")
        return
    nk = len(ref["keys"])
    key_idx = [header.index(c) for c in ref["keys"]]
    val_idx = [header.index(c) for c in ref["values"]]
    actual = {_key(row[i] for i in key_idx): [row[i] for i in val_idx] for row in rows}
    peaks = [max((abs(r[nk + j]) for r in ref["rows"]), default=0.0) for j in range(len(val_idx))]
    for r in ref["rows"]:
        key = _key(r[:nk])
        got = actual.get(key)
        if got is None:
            raise CheckFailure(f"{name}: row {dict(zip(ref['keys'], key))} missing")
        for j, (a, want) in enumerate(zip(got, r[nk:])):
            if not (abs(a - want) <= RTOL * abs(want) + ATOL * peaks[j]):
                raise CheckFailure(
                    f"{name}: {ref['values'][j]} at {dict(zip(ref['keys'], key))} "
                    f"is {a!r}, reference {want!r}"
                )


def _reports(out_dir: str) -> list:
    found = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                found.append((name, json.load(fh).get("report", {})))
    if not found:
        raise CheckFailure("no JSON report written")
    return found


def _check_verdicts(out_dir: str, shape_only: bool) -> None:
    for name, rep in _reports(out_dir):
        if "agreement" in rep:  # mc-validate
            for key in ("agreement", "subordination_violations"):
                if key not in rep:
                    raise CheckFailure(f"{name}: {key} missing")
            if shape_only:
                continue
            if rep["agreement"] is not True:
                raise CheckFailure(
                    f"{name}: agreement is {rep['agreement']!r} "
                    f"(max|z| {rep.get('max_abs_z')!r}, no-default z {rep.get('no_default', {}).get('z')!r})"
                )
            if rep["subordination_violations"] != 0:
                raise CheckFailure(f"{name}: {rep['subordination_violations']} subordination violations")
        elif "boundary" in rep:  # calibrate
            if not shape_only and rep["boundary"] is not False:
                raise CheckFailure(f"{name}: fit ended on the grid boundary")
        else:
            raise CheckFailure(f"{name}: no verdict to check")


def check_op(op, out_dir: str, ref_dir: str = REFERENCE_DIR, shape_only: bool = False) -> None:
    """Raise CheckFailure unless the op's artifacts in out_dir are correct.

    With ``shape_only`` (the quick mode, whose inputs are shrunk) only the
    presence of the expected files, columns and verdict fields is checked.
    """
    if op.analytic:
        ref = load_reference(op.label, ref_dir)
        for name, art in sorted(ref["artifacts"].items()):
            _compare_artifact(name, art, out_dir, shape_only)
    else:
        _check_verdicts(out_dir, shape_only)


def _regenerate() -> int:
    import contextlib
    import io
    import tempfile

    here = os.path.dirname(os.path.abspath(__file__))
    scratch = os.path.join(os.path.dirname(here), ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from portloss import cli
    from workloads import ALL_OPS

    for op in ALL_OPS:
        if not op.analytic:
            continue
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            argv = ["run", op.scenario, "--out-dir", tmp]
            for s in op.overrides(0):
                argv += ["--set", s]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                print(f"{op.label}: exit {rc}", file=sys.stderr)
                return 1
            save_reference(op.label, extract(tmp))
        print(f"wrote {reference_path(op.label)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    os.environ["PORTLOSS_WORKERS"] = "1"
    sys.exit(_regenerate())
