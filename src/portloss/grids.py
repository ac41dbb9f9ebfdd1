"""Density grid container and the CSV writer.

A DensityGrid holds density values sampled at cell centers on one or two
loss axes, with optional solver quality flags.
Written files are deterministic: a grid carries no creation time or
other run-dependent state, so re-running a scenario yields byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ParameterError

SCHEMA_VERSION = "1"


def canonical_json(obj) -> str:
    """Stable, compact JSON used for hashing and artifact embedding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_fingerprint(resolved: dict) -> str:
    """Hex digest identifying a resolved scenario, independent of where its
    outputs are written."""
    content = {k: v for k, v in resolved.items() if k != "outputs"}
    return hashlib.sha256(canonical_json(content).encode()).hexdigest()[:16]


def write_csv(path, comments, header, columns) -> None:
    """Write ``# comment`` lines, a header and equal-length columns as CSV
    with Unix newlines.  A column of floats is written at full round-trip
    precision ('%.17g'), any other column as str ('%s'); the whole body is
    one '%' over the row format."""
    row = ",".join(
        "%.17g" if all(map(isinstance, col, repeat(float))) else "%s" for col in columns
    )
    cells = tuple(chain.from_iterable(zip(*columns)))
    with open(path, "w", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        fh.write((row + "\n") * len(columns[0]) % cells)


@dataclass
class DensityGrid:
    """Density values at cell centers, with optional solver quality flags.

    axes : tuple of one or two strictly increasing center arrays
    values : array of matching shape, nonnegative and not NaN, per unit loss
        (or loss^2)
    quality : same-shape float array, 0 = clean, 1 = near-singular solve
    """

    axes: tuple
    values: np.ndarray
    quality: np.ndarray | None = None

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        if len(self.axes) not in (1, 2):
            raise ParameterError("DensityGrid supports 1 or 2 axes")
        for a in self.axes:
            if a.ndim != 1 or len(a) < 2 or np.any(np.diff(a) <= 0):
                raise ParameterError("each axis must be strictly increasing")
        self.values = np.asarray(self.values, dtype=float)
        expected = tuple(len(a) for a in self.axes)
        if self.values.shape != expected:
            raise ParameterError(
                f"values shape {self.values.shape} does not match axes {expected}"
            )
        # NaN fails every comparison, so it is refused here too
        if not np.all(self.values >= -1e-12):
            raise ParameterError("densities must be nonnegative numbers, not NaN")
        self.values = np.maximum(self.values, 0.0)
        if self.quality is not None:
            self.quality = np.asarray(self.quality, dtype=float)
            if self.quality.shape != self.values.shape:
                raise ParameterError("quality shape must match values")

    def to_csv(self, path, comments=()) -> None:
        """Write rows of (l1[, l2], density[, quality]) at full round-trip
        precision with Unix newlines.  Optional comment lines ("# ..." before
        the header) let artifacts embed provenance without breaking parsers
        that skip comments."""
        header = ["l1", "l2"][: len(self.axes)] + ["density"]
        # each axis value is formatted once and repeated along the other axis
        cols = [("%.17g\n" * len(a) % tuple(a.tolist())).splitlines() for a in self.axes]
        if len(cols) == 2:
            n1, n2 = self.values.shape
            cols = [[x for x in cols[0] for _ in range(n2)], cols[1] * n1]
        cols.append(self.values.ravel().tolist())
        if self.quality is not None:
            header.append("quality")
            cols.append(self.quality.ravel().tolist())
        write_csv(path, comments, header, cols)


def cell_centers(n_cells: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Centers of n_cells equal cells spanning [lo, hi].  A center is half
    of one edge plus half of the next, the halved sum bit for bit but at
    subnormal edges, so it cannot overflow."""
    if n_cells < 2:
        raise ParameterError("need at least 2 cells")
    edges = np.linspace(lo, hi, n_cells + 1)
    return 0.5 * edges[:-1] + 0.5 * edges[1:]
