"""Span recording around portloss layer entry points.

The tracer patches module attributes from outside the package; the
scenario runners import their engine, limits, mc and calibration entry
points at call time, so the patched attributes sit on the real path.
Spans carry name, start, end, parent index and op id; they stay in memory
and are written once when the benchmark process ends.
"""

from __future__ import annotations

import functools
import json
import time

# span name -> (module, attribute path) of every wrapped entry point
ENTRY_POINTS = {
    "scenarios.cli": [
        ("cli", "build_parser"),
        ("cli", "_load_document"),
        ("cli", "apply_overrides"),
    ],
    "scenarios.run": [("cli", "run_scenario")],
    "scenarios.resolve": [("scenarios", "resolve_scenario")],
    "scenarios.write": [
        ("scenarios", "_write_grid"),
        ("scenarios", "_write_table"),
        ("scenarios", "_write_json"),
    ],
    "grids.to_csv": [("grids", "DensityGrid.to_csv")],
    "engine.grid": [
        ("engine", "density_grid_subordinated"),
        ("engine", "density_grid_nosub"),
    ],
    "engine.cell_masses": [
        ("engine", "subordinated_cell_masses"),
        ("engine", "nosub_cell_masses"),
    ],
    "engine.small_ops": [
        ("engine", "loss_correlation"),
        ("engine", "no_default_probability"),
        ("engine", "tail_probability"),
    ],
    "limits.grid": [
        ("limits", "limit_grid_subordinated"),
        ("limits", "limit_curve_equal_infinite"),
        ("limits", "limit_grid_finite_vs_infinite"),
        ("limits", "limit_grid_two_markets"),
    ],
    "mc.estimate": [("mc", "estimate")],
    "calibration.fit": [("calibration", "fit_n")],
}

OP_SPAN = "scenarios.op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.op = None
        self._stack = []
        self._patched = []

    def span(self, name: str):
        """Context manager recording one span under the current one."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap every entry point of ENTRY_POINTS in ``package``'s modules."""
        import importlib

        for name, targets in ENTRY_POINTS.items():
            for module_name, attr_path in targets:
                owner = importlib.import_module(f"{package.__name__}.{module_name}")
                *parents, attr = attr_path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._stack.pop()
        return False


def layer_totals(spans: list) -> dict:
    """Seconds per span name, counting only spans with no ancestor of the
    same name (a nested call into the same group is not counted twice)."""
    totals = {}
    for s in spans:
        name, start, end, parent, _ = s
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_times(spans: list) -> dict:
    """Seconds per span name spent outside that span's child spans."""
    own = {}
    for s in spans:
        own[s[0]] = own.get(s[0], 0.0) + (s[2] - s[1])
        if s[3] is not None:
            parent = spans[s[3]][0]
            own[parent] = own.get(parent, 0.0) - (s[2] - s[1])
    return own


def op_coverage(spans: list) -> dict:
    """Share of each op span's wall time covered by its direct child spans."""
    child_time = {}
    for s in spans:
        if s[3] is not None and spans[s[3]][0] == OP_SPAN:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    return {
        s[4]: child_time.get(i, 0.0) / (s[2] - s[1])
        for i, s in enumerate(spans)
        if s[0] == OP_SPAN
    }
