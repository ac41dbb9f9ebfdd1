"""Scenario documents: schema, validation, bundled recipes and the runner.

A scenario is a JSON document selecting one computation mode plus its
parameter blocks.  Each mode is declared once, in ``_MODES``: its mode
function, its required blocks and its blocks in schema order, each with
its default where it has one; ``MODES``, each mode's document schema and
its defaults all derive from that table.  Resolving a document merges the
mode defaults under it, checks it against the mode schema and then builds
it: the mode function turns the document into the domain objects it needs
and returns its jobs, each a zero-argument callable that computes one
artifact, writes it and returns its record, and its work, the cost report
of ``validate``, counted from the objects it has just built.  A mode is
costed in its mode function and nowhere else.  The mode schemas are JSON
Schema dicts, checked by ``_schema_check``, which knows only the keywords
they use and reports the first fault in a fixed order.  The schema states
only types for a block that becomes a domain object, whose constructor
owns every range.  ``validate`` and ``run`` share one build: ``validate``
drops its jobs, so it builds exactly what ``run`` builds and computes
nothing, and ``run`` runs the jobs of the build that validated the
document.  A domain error is reported at the JSON pointer of the block
that supplied the value.  The CSV/JSON artifacts embed the resolved
document and its fingerprint so a rerun can be checked byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import re
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaincc

from . import calibration, engine, limits, mc
from .engine import NoSubScenario, SubordinatedScenario, _check_grid, _class_counts, _whole_counts
from .errors import ParameterError, SamplerBudgetError, ScenarioError, SingularCovarianceError
from .grids import (
    SCHEMA_VERSION,
    DensityGrid,
    canonical_json,
    scenario_fingerprint,
    write_csv,
)
from .limits import _check_ridge_faces, _check_ridge_support, _open_unit_centers
from .mc import _WISHART_EPOCH, McConfig, _check_wishart_budget, _wishart_dof
from .params import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    SubordinationSpec,
    check_face_ratio,
    distance_field,
)
from .quadrature import QuadratureSpec

__all__ = [
    "MODES",
    "validate_scenario",
    "resolve_scenario",
    "apply_overrides",
    "bundled_scenarios",
    "run_scenario",
]

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "minimum": 1}
_FRAC = {"type": "number", "minimum": 0, "maximum": 1}


def _block(props: dict, required=()) -> dict:
    """Schema of an object with exactly these properties."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": props,
        "required": list(required),
    }


def _numbers(cls, required: bool) -> dict:
    """Schema of a block of the numeric fields of ``cls``."""
    names = [f.name for f in dataclasses.fields(cls)]
    return _block(dict.fromkeys(names, _NUM), names if required else ())


# Blocks that become a domain object state types only: MarketParams,
# SubordinationSpec, OverlapSpec, QuadratureSpec, McConfig and the scenario
# dataclasses own their ranges, and the builders report their errors.
_MARKET_SCHEMA = _numbers(MarketParams, required=False)
_TRANCHES_SCHEMA = _numbers(SubordinationSpec, required=True)
_OVERLAP_SCHEMA = _numbers(OverlapSpec, required=True)
_QUAD_SCHEMA = _block(
    {"z_nodes": _INT, "u_nodes": _INT, "mode": {"enum": ["fixed", "adaptive"]}, "rel_tol": _NUM}
)
_MC_SCHEMA = _block(
    {
        "n_samples": _INT,
        "rng_seed": _INT,
        "sampler": {"enum": ["compound", "wishart"]},
        "n_bins": _INT,
        "chunk_size": _INT,
    }
)
_K_ONE_OR_MANY = {"oneOf": [_INT, {"type": "array", "items": _INT, "minItems": 1}]}


def _plain_portfolio_schema(k_obligors: dict) -> dict:
    """The ``portfolio`` block of the nosub and mc-validate modes."""
    return _block(
        {
            "k_obligors": k_obligors,
            "face": _NUM,
            "layout": {"enum": ["single", "halves", "overlap"]},
            "overlap": _OVERLAP_SCHEMA,
        },
        ["k_obligors"],
    )


_GRID_SCHEMA = _block(
    {"n_cells": {"type": "integer", "minimum": 2, "maximum": 2001}, "lo": _NONNEG, "hi": _POS}
)


_DEFAULT_MARKET = {
    "mu": 0.17,
    "rho": 0.35,
    "c": 0.28,
    "n_fluct": 6,
    "t_mat": 1.0,
    "v0": 100.0,
}


def _with_field_defaults(cls, schema: dict) -> tuple:
    """``schema`` paired with the dataclass defaults of the fields it lets
    a document set."""
    fields = dataclasses.fields(cls)
    return schema, {f.name: f.default for f in fields if f.name in schema["properties"]}


# blocks that several modes declare, each a (schema, default) pair
_MARKET = (_MARKET_SCHEMA, _DEFAULT_MARKET)
_GRID = (_GRID_SCHEMA, {"n_cells": 101, "lo": 0.0, "hi": 1.0})
_QUAD = _with_field_defaults(QuadratureSpec, _QUAD_SCHEMA)
_MC = _with_field_defaults(McConfig, _MC_SCHEMA)


def _outputs(**paths) -> tuple:
    """The ``outputs`` block of a mode whose artifacts are ``paths``: each
    key a required non-empty string, with ``paths`` as its default."""
    return _block({k: {"type": "string", "minLength": 1} for k in paths}, paths), paths


def _deep_merge(base, over):
    """Defaults-under-document merge; dict values merge recursively, all
    other values (including lists) are taken from the document."""
    if not isinstance(base, dict) or not isinstance(over, dict):
        return copy.deepcopy(over)
    # each block is copied on its own, so blocks that share one default
    # dict (market_one and market_two) do not stay one object
    out = {key: copy.deepcopy(val) for key, val in base.items()}
    for key, val in over.items():
        out[key] = _deep_merge(out[key], val) if key in out else copy.deepcopy(val)
    return out


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def _first_non_finite(node, path=()):
    """Path to the first NaN or infinite number in a JSON document, or
    None; JSON has no such numbers, so no artifact could embed them."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return None
    for key, val in items:
        found = _first_non_finite(val, path + (key,))
        if found is not None:
            return found
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a JSON Schema type: a bool is not a number, and an integral float such as
# 20.0 is an integer (inf and NaN are not)
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# keyword -> (fails(value, bound), message); a schema sets a keyword only
# next to the type it applies to, and every enum lists strings, so ``in``
# never matches a bool to a number.  A range fails only on a true
# comparison, so NaN passes it and reaches the builders.
_KEYWORDS = {
    "enum": (lambda v, b: v not in b, "is not one of {}"),
    "minimum": (lambda v, b: v < b, "is less than the minimum of {}"),
    "maximum": (lambda v, b: v > b, "is greater than the maximum of {}"),
    "exclusiveMinimum": (lambda v, b: v <= b, "is less than or equal to the minimum of {}"),
    "minLength": (lambda v, b: len(v) < b, "is shorter than {}"),
    "pattern": (lambda v, b: not re.search(b, v), "does not match {!r}"),
    "minItems": (lambda v, b: len(v) < b, "has fewer than {} items"),
}


def _schema_check(value, schema: dict, path=()):
    """Raise a ScenarioError at the first place where ``value`` breaks
    ``schema``.  At an object, unknown keys come first, then missing
    required keys, then the properties in schema order; array items go in
    index order.  A ``oneOf`` is checked against the branch of the value's
    type."""

    def fault(message):
        raise ScenarioError(message, pointer=_pointer(path))

    if "oneOf" in schema:
        shapes = [s for s in schema["oneOf"] if _TYPES[s["type"]](value)]
        if not shapes:
            fault(f"{value!r} is not of type {' or '.join(s['type'] for s in schema['oneOf'])}")
        schema = shapes[0]
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        fault(f"{value!r} is not of type {kind!r}")
    for key, (fails, message) in _KEYWORDS.items():
        if key in schema and fails(value, schema[key]):
            fault(f"{value!r} " + message.format(schema[key]))
    if kind == "array":
        for i, item in enumerate(value):
            _schema_check(item, schema["items"], path + (i,))
    if kind == "object":
        props = schema["properties"]
        unknown = [key for key in value if key not in props]
        if unknown:
            fault(f"unexpected properties: {', '.join(map(repr, unknown))}")
        missing = [key for key in schema["required"] if key not in value]
        if missing:
            fault(f"{missing[0]!r} is a required property")
        for key, sub in props.items():
            if key in value:
                _schema_check(value[key], sub, path + (key,))


def _resolve(doc: dict, out_dir: str = ""):
    """The resolved document and the jobs and work of its one build, whose
    jobs write under ``out_dir``; see :func:`resolve_scenario`."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object", pointer="/")
    mode = doc.get("mode")
    if mode not in MODES:
        raise ScenarioError(
            f"mode must be one of {', '.join(MODES)}", pointer="/mode"
        )
    if "schema_version" in doc and doc["schema_version"] != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {doc['schema_version']!r}",
            pointer="/schema_version",
        )
    schema, defaults = _DOCUMENTS[mode]
    merged = _deep_merge(defaults, doc)
    merged.setdefault("schema_version", SCHEMA_VERSION)
    merged.setdefault("id", "custom")
    _schema_check(merged, schema)
    jobs, work = _MODES[mode].build(merged, out_dir)
    bad = _first_non_finite(merged)
    if bad is not None:
        raise ScenarioError("numbers must be finite", pointer=_pointer(bad))
    return merged, jobs, work


def resolve_scenario(doc: dict) -> dict:
    """Validate a scenario document and fill defaults.

    Merges the mode defaults under the document, checks it against the
    mode schema, builds it with the mode function, dropping the jobs that
    ``run_scenario`` runs, and rejects non-finite numbers.  Returns a new
    fully populated document; raises ScenarioError with a JSON pointer for
    schema violations, for domain errors (at the block that supplied the
    value) and for non-finite numbers.
    """
    return _resolve(doc)[0]


def validate_scenario(doc: dict) -> dict:
    """Resolve the document and report, as its ``cost``, the work of the
    build that validated it, without running."""
    resolved, _, work = _resolve(doc)
    return {
        "valid": True,
        "id": resolved["id"],
        "mode": resolved["mode"],
        "fingerprint": scenario_fingerprint(resolved),
        "cost": work,
    }


# ---------------------------------------------------------------------------
# building
#
# Each mode is one function, ``_<mode>(sc, out_dir="")``: it turns a
# resolved document into the domain objects the mode needs and returns the
# mode's jobs and its work (see :func:`_work`), counted from those objects.
# A job is a zero-argument callable that computes one artifact, writes it
# under ``out_dir`` and returns its record; nothing is computed outside a
# job.  _resolve calls the mode function once per document:
# resolve_scenario drops the jobs and run_scenario runs them, so
# ``validate`` accepts exactly what ``run`` builds, and a run builds its
# document once.  A mode function adds only the checks that no domain
# constructor makes, and makes them in a fixed order, so a document with
# several faults is always rejected at the same pointer.  Jobs look up the
# engine, limits, mc and calibration entry points as module attributes when
# they run.  The mode functions are declared in ``_MODES``, after them.


def _build(pointer: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a domain error turned into a
    ScenarioError at ``pointer``, or at the field below it that the error
    names."""
    try:
        return make(*args, **kwargs)
    except (ParameterError, SamplerBudgetError, SingularCovarianceError) as exc:
        field = getattr(exc, "field", "")
        raise ScenarioError(str(exc), pointer=f"{pointer}/{field}" if field else pointer) from exc


# Seconds per unit of work, fitted by least squares in log(estimate /
# measured) to the median time of every bundled op in one 36 s benchmark
# run per workload (perfbench, 2 CPUs): est/measured then ran 0.61-1.47
# over the 14 ops.  _FIT_S was refit to the op medians of twelve 36 s
# `simulation` runs after the fit's grid moved to a thread pool (est/
# measured 1.01).  _SAMPLE_S and the Wishart factor were refit to the
# untraced op medians of three 36 s `simulation` runs after the compound
# sampler began to draw only the defaulted shocks: est/measured 0.92 on
# the halves and 1.08 on the tranched K = 200 mc-validate op.  The
# Wishart bill, 1.1 (1 + N / M) _SAMPLE_S per obligor and sample, was
# refit the same way after one drawn covariance came to serve an epoch of
# M = 8 samples; that host ran about 1.5 times slower, so its one factor
# was fitted to the halves op, which bills the same _SAMPLE_S (est/
# measured 0.68 on both there).  No bundled op runs the adaptive rule,
# whose rate is from an 81x81 grid at K = 2000.
_FIXED_S = 0.0081  # resolve, quadrature rules, artifact provenance
_WRITE_S = 2.3e-7  # one CSV row of a grid
_TERM_S = 4e-10  # one mixture term: one grid point at one quadrature node
_TABLE_S = 1.9e-7  # the moment kernels at one node of a node table
_ADAPTIVE_CELL_S = 1e-3  # the crossing and u-root solves of one adaptive cell
_SCAN_S = 6.8e-8  # one scan point of one ridge cell
_ROOT_S = 6.7e-7  # one implicit u solve of a limit law at one (loss, z) pair
_SAMPLE_S = 5.8e-9  # one obligor of one MC sample; x 1.1 (1 + N / M) for the Wishart sampler
_FIT_S = 6e-9  # one return sample at one fit grid point, per (K + 40) assets


def _work(points, nodes, seconds, samples=0) -> dict:
    """The cost report of a build: its evaluation points, quadrature nodes
    per point and MC samples, and ``est_seconds``, the wall-clock guess
    ``_FIXED_S`` plus ``seconds``, the time of the mode's dominant work."""
    return {
        "grid_points": int(points),
        "quad_nodes_per_point": int(nodes),
        "mc_samples": int(samples),
        "est_seconds": round(_FIXED_S + seconds, 3),
    }


def _grid_s(points, nodes, node_s=_TERM_S) -> float:
    """Seconds of ``points`` written grid points of ``nodes`` terms each,
    at ``node_s`` seconds a term."""
    return points * (nodes * node_s + _WRITE_S)


def _check_increasing(block: dict, lo: str, hi: str, where: str, message: str):
    """Require ``block[hi] > block[lo]``; a non-finite bound is rejected at
    its own pointer first, since every comparison with NaN is false."""
    for key in (lo, hi):
        if not math.isfinite(block[key]):
            raise ScenarioError("numbers must be finite", pointer=f"{where}/{key}")
    if not block[hi] > block[lo]:
        raise ScenarioError(message, pointer=f"{where}/{hi}")


def _filled_market(block: dict) -> dict:
    """A ``markets`` entry with the default market under its fields."""
    filled = dict(_DEFAULT_MARKET)
    filled.update({k: v for k, v in block.items() if k != "k_obligors"})
    return filled


def _quad(sc: dict) -> QuadratureSpec:
    """The QuadratureSpec of a mode that runs the fixed rule only, which is
    every mode but subordinated: the adaptive rule is refused at
    ``/quadrature/mode`` rather than replaced by the fixed one."""
    quad = _build("/quadrature", QuadratureSpec, **sc["quadrature"])
    if quad.mode == "adaptive":
        raise ScenarioError(
            f"mode {sc['mode']!r} runs the fixed rule only; quadrature.mode "
            "'adaptive' applies to the subordinated mode",
            pointer="/quadrature/mode",
        )
    return quad


def _grid(sc: dict) -> dict:
    """The ``n_cells``, ``lo`` and ``hi`` keywords of the grid functions."""
    grid = sc["grid"]
    _check_increasing(grid, "lo", "hi", "/grid", "grid needs hi > lo")
    return dict(grid, n_cells=int(grid["n_cells"]))


def _k_list(value):
    """Obligor counts as ints: one count or a list of counts, where an
    integer of the schema may be an integral float such as 20.0."""
    return [int(k) for k in (value if isinstance(value, list) else [value])]


def _output(sc: dict, key: str, out_dir: str) -> str:
    return os.path.join(out_dir, sc["outputs"][key])


def _density_paths(sc: dict, ks, out_dir: str) -> list:
    """One ``outputs.density`` path per obligor count in ``ks``."""
    template = sc["outputs"]["density"]
    if len(ks) > 1 and "{k}" not in template:
        raise ScenarioError(
            "outputs.density needs a {k} placeholder for multiple sizes",
            pointer="/outputs/density",
        )
    return [os.path.join(out_dir, template.replace("{k}", str(k))) for k in ks]


def _halves(face, pointer: str) -> OverlapSpec:
    """Two equal disjoint halves of a pool whose obligors have face ``face``."""
    return _build(pointer, OverlapSpec, r1=0.5, r12=0.0, gamma=0.5, f0=face)


def _check_tranche_faces(tranches: SubordinationSpec, params: MarketParams):
    """Refuse a tranche face whose v0/face the kernels cannot hold."""
    for field in ("f_senior", "f_junior"):
        _build(f"/tranches/{field}", check_face_ratio, getattr(tranches, field), params)


def _plain_scenarios(sc: dict, params: MarketParams) -> list:
    """A NoSubScenario per obligor count of a nosub or mc-validate
    ``portfolio`` block."""
    port = sc["portfolio"]
    layout = port["layout"]
    if layout == "overlap" and "overlap" not in port:
        raise ScenarioError(
            "overlap layout needs a portfolio.overlap block", pointer="/portfolio/overlap"
        )
    if layout != "overlap" and "overlap" in port:
        raise ScenarioError(
            "portfolio.overlap requires layout = overlap", pointer="/portfolio/layout"
        )
    if layout == "single":
        holding = {"face": port["face"]}
    elif layout == "halves":
        holding = {"overlap": _halves(port["face"], "/portfolio/face")}
    else:
        holding = {"overlap": _build("/portfolio/overlap", OverlapSpec, **port["overlap"])}
    scens = []
    for k in _k_list(port["k_obligors"]):
        if layout == "halves" and k % 2:
            raise ScenarioError(
                f"halves layout needs an even obligor count, got {k}",
                pointer="/portfolio/k_obligors",
            )
        scens.append(_build("/portfolio", NoSubScenario, k_obligors=k, params=params, **holding))
    face = "/portfolio/overlap/f0" if layout == "overlap" else "/portfolio/face"
    _build(face, check_face_ratio, scens[0].obligor_face, params)
    return scens


# Values in the largest array a document may make its run allocate: 2**27,
# 1 GiB of float64.  It bounds what still grows with the document - an MC
# chunk's asset values, the calibration returns and covariance, and a
# multi-market node table with its build, whose nodes grow like
# u_nodes^beta; the analytic kernels that read a table work in fixed-size
# blocks.
_MEMORY_BUDGET = 2**27


def _count(n: int) -> str:
    """A count in at most four significant digits, also beyond float range."""
    from decimal import Decimal

    return f"{Decimal(n):.4g}"


def _check_memory(elements: int, what: str, pointer: str):
    """Refuse an array of more than ``_MEMORY_BUDGET`` values at ``pointer``."""
    if elements > _MEMORY_BUDGET:
        raise ScenarioError(
            f"{what} would hold {_count(elements)} values, over the memory budget of "
            f"{_MEMORY_BUDGET} (1 GiB of float64)",
            pointer=pointer,
        )


def _check_sampling(scen, config: McConfig, k_pointer: str, counts_pointer: str):
    """Refuse what ``mc.estimate`` refuses: a Wishart sampler without an
    integer fluctuation strength, with one above a chunk's sample count or
    beyond its obligor budget, and class counts too large for an int64 or
    overlap fractions that are not whole firm counts; and a chunk whose
    asset values, rows x K, exceed the memory budget.  The estimate holds
    only a block of those values at a time, so this refusal is
    conservative: the compound sampler holds a block's defaulted shocks,
    at most its samples x K, and for the Wishart sampler it also bounds
    one epoch's N x K G panel, since N <= rows.  Returns the seconds the
    samples take, ``_SAMPLE_S`` per obligor and sample.  The compound
    sampler draws each class's default count and then only the defaulted
    shocks, so its true cost follows the default rate; the rate is fitted
    at the bundled market, where about 0.1 of the obligors default.  The
    Wishart sampler draws an (N, K) panel of normals per epoch of
    ``_WISHART_EPOCH`` = M samples and every obligor's return, which it
    tests against the default bound: per obligor and sample, N / M panel
    normals and the return, at 1.1 ``_SAMPLE_S`` each."""
    rows = min(config.chunk_size, config.n_samples)
    obligor_s = _SAMPLE_S
    if config.sampler == "wishart":
        _build("/market/n_fluct", _wishart_dof, scen.params.n_fluct, rows)
        _build(k_pointer, _check_wishart_budget, scen.k_obligors)
        obligor_s *= 1.1 * (1.0 + scen.params.n_fluct / _WISHART_EPOCH)
    if isinstance(scen, NoSubScenario):
        _build(k_pointer, _class_counts, scen)
        _build(counts_pointer, _whole_counts, scen)
    _check_memory(
        rows * scen.k_obligors,
        f"an MC chunk of {rows} samples of {scen.k_obligors} obligors "
        "(lower mc.chunk_size to shrink it)",
        k_pointer,
    )
    return config.n_samples * scen.k_obligors * obligor_s


def _check_ridge(tranches: SubordinationSpec, params: MarketParams, cells: dict):
    """Refuse what the senior/junior crossing solve refuses: f_senior = 0
    or a junior face too thin to solve for; and an N whose ridge is thinner
    than a cell of the grid, which the crossings of the ridge and of the
    adaptive rule would miss."""
    field = "f_senior" if tranches.f_senior == 0 else "f_junior"
    _build(f"/tranches/{field}", _check_ridge_faces, tranches)
    _build("/market", _check_ridge_support, tranches, params, **cells)


def _subordinated(sc, out_dir=""):
    params = _build("/market", MarketParams, **sc["market"])
    tranches = _build("/tranches", SubordinationSpec, **sc["tranches"])
    _check_tranche_faces(tranches, params)
    ks = _k_list(sc["portfolio"]["k_obligors"])
    scens = [
        _build("/portfolio", SubordinatedScenario, k_obligors=k, tranches=tranches, params=params)
        for k in ks
    ]
    quad = _build("/quadrature", QuadratureSpec, **sc["quadrature"])
    cells = _grid(sc)
    nodes, points = quad.z_nodes * quad.u_nodes, len(ks) * cells["n_cells"] ** 2
    seconds = 0.0
    if quad.mode == "adaptive":  # its crossing solve is the ridge's
        _check_ridge(tranches, params, cells)
        # each cell builds its own table of 10x16 z by 6x16 u nodes
        # after a crossing and u-root solve
        nodes = 160 * 96
        seconds = _ADAPTIVE_CELL_S * points
    seconds += len(ks) * nodes * _TABLE_S + _grid_s(points, nodes)
    jobs = [
        _grid_job(sc, path, lambda s=scen: engine.density_grid_subordinated(s, quad, **cells))
        for path, scen in zip(_density_paths(sc, ks, out_dir), scens)
    ]
    return jobs, _work(points, nodes, seconds)


def _nosub(sc, out_dir=""):
    scens = _plain_scenarios(sc, _build("/market", MarketParams, **sc["market"]))
    for scen in scens:
        _build("/portfolio/overlap", _check_grid, scen)
    paths = _density_paths(sc, [scen.k_obligors for scen in scens], out_dir)
    quad, cells = _quad(sc), _grid(sc)
    nodes = quad.z_nodes * quad.u_nodes
    points = len(scens) * cells["n_cells"] ** scens[0].n_creditors
    jobs = [
        _grid_job(sc, path, lambda s=scen: engine.density_grid_nosub(s, quad, **cells))
        for path, scen in zip(paths, scens)
    ]
    return jobs, _work(points, nodes, len(scens) * nodes * _TABLE_S + _grid_s(points, nodes))


def _multimarket(sc, out_dir=""):
    blocks = tuple(
        (_build(f"/markets/{i}", MarketParams, **_filled_market(blk)), blk["k_obligors"])
        for i, blk in enumerate(sc["markets"])
    )
    if len(blocks) > 4:
        raise ScenarioError(
            f"analytic tensor quadrature supports at most 4 markets, got "
            f"{len(blocks)}; use the mc-validate mode for larger block counts",
            pointer="/markets",
        )
    params = _build("/markets", MultiMarketParams, blocks)
    creditors = 1 if sc["creditors"] == "total" else params.beta
    scen = _build(
        "/face", NoSubScenario,
        k_obligors=params.k_total, params=params, face=sc["face"], creditors=creditors,
    )
    for market, _ in params.blocks:
        _build("/face", check_face_ratio, sc["face"], market)
    _build("/creditors", _check_grid, scen)
    tails = sc["tails"] if creditors == 1 else []
    quad, cells = _quad(sc), _grid(sc)
    nodes = quad.z_nodes * quad.u_nodes**params.beta
    _check_memory(
        engine._table_values(nodes, creditors),
        f"the node table of {_count(nodes)} nodes, z_nodes x u_nodes^{params.beta}, with its "
        "build (lower quadrature.u_nodes to shrink it)",
        "/quadrature/u_nodes",
    )
    grid_job = _grid_job(
        sc, _output(sc, "density", out_dir),
        lambda: engine.density_grid_nosub(scen, quad, **cells),
    )

    def job():
        art = grid_job()
        if tails:
            stats = [f"P(L>{t:g})={engine.tail_probability(t, scen, quad):.3e}" for t in tails]
            art["summary"] += " " + " ".join(stats)
        return art

    # a block's moments depend on (z, u_block) alone: z x u per block
    table_s = params.beta * quad.z_nodes * quad.u_nodes * _TABLE_S
    points = cells["n_cells"] ** scen.n_creditors
    return [job], _work(points, nodes, table_s + _grid_s(points, nodes))


def _limit_subordinated(sc, out_dir=""):
    tranches = _build("/tranches", SubordinationSpec, **sc["tranches"])
    params = _build("/market", MarketParams, **sc["market"])
    cells, n_scan = _grid(sc), int(sc["scan"]["n_scan"])
    _check_tranche_faces(tranches, params)
    _check_ridge(tranches, params, cells)
    job = _grid_job(
        sc, _output(sc, "density", out_dir),
        lambda: limits.limit_grid_subordinated(tranches, params, n_scan=n_scan, **cells),
    )
    points = cells["n_cells"] ** 2
    return [job], _work(points, n_scan, _grid_s(points, n_scan, _SCAN_S))


def _limit_equal(sc, out_dir=""):
    params = _build("/market", MarketParams, **sc["market"])
    _build("/face", check_face_ratio, sc["face"], params)
    cells = _grid(sc)
    _build("/grid", _open_unit_centers, **cells)
    quad = _quad(sc)
    job = _grid_job(
        sc, _output(sc, "curve", out_dir),
        lambda: limits.limit_curve_equal_infinite(sc["face"], params, quad, **cells),
        kind="density_curve",
    )
    points = cells["n_cells"]
    return [job], _work(points, quad.z_nodes, _grid_s(points, quad.z_nodes, _ROOT_S))


def _limit_fin_vs_inf(sc, out_dir=""):
    params = _build("/market", MarketParams, **sc["market"])
    _build("/face", check_face_ratio, sc["face"], params)
    quad, cells = _quad(sc), _grid(sc)
    job = _grid_job(
        sc, _output(sc, "density", out_dir),
        lambda: limits.limit_grid_finite_vs_infinite(
            sc["r_one"], sc["face"], params, quad, **cells
        ),
    )
    # one u solve per infinite side, loss and z node
    n, nodes = cells["n_cells"], quad.z_nodes
    return [job], _work(n**2, nodes, n * nodes * _ROOT_S + _grid_s(n**2, nodes))


def _limit_two_markets(sc, out_dir=""):
    one = _build("/market_one", MarketParams, **sc["market_one"])
    two = _build("/market_two", MarketParams, **sc["market_two"])
    # the two markets share one scale variable, as market blocks do
    _build("/market_two/n_fluct", MultiMarketParams, ((one, 1), (two, 1)))
    _build("/face_one", check_face_ratio, sc["face_one"], one)
    _build("/face_two", check_face_ratio, sc["face_two"], two)
    quad, cells = _quad(sc), _grid(sc)
    job = _grid_job(
        sc, _output(sc, "density", out_dir),
        lambda: limits.limit_grid_two_markets(
            sc["face_one"], sc["face_two"], one, two, quad, **cells
        ),
    )
    n, nodes = cells["n_cells"], quad.z_nodes
    return [job], _work(n**2, nodes, 2 * n * nodes * _ROOT_S + _grid_s(n**2, nodes))


def _no_default(sc, out_dir=""):
    base = _build("/market", MarketParams, **sc["market"])
    _build("/face", check_face_ratio, sc["face"], base)
    markets = []
    for i, mu in enumerate(sc.get("mu_values", [base.mu])):
        try:
            markets.append(dataclasses.replace(base, mu=mu))
        except ParameterError as exc:  # whatever field it names, mu_values[i] changed
            raise ScenarioError(str(exc), pointer=f"/mu_values/{i}") from exc
    quad, ks, path = _quad(sc), _k_list(sc["k_values"]), _output(sc, "table", out_dir)

    def job():
        rows = [
            (float(params.mu), int(k), engine.no_default_probability(k, sc["face"], params, quad))
            for params in markets
            for k in ks
        ]
        _write_table(rows, ["mu", "k_obligors", "p_no_default"], sc, path)
        lo, hi = rows[-1][2], rows[0][2]
        return _artifact(path, "table", f"rows={len(rows)} p_nd range [{lo:.4g}, {hi:.4g}]")

    points, nodes = len(markets) * len(ks), quad.z_nodes * quad.u_nodes
    return [job], _work(points, nodes, points * nodes * _TERM_S)


def _check_defaults(scens, quad: QuadratureSpec):
    """Refuse a market in which a creditor's loss variance, as
    :func:`engine.loss_correlation` finds it for a sweep cell in ``scens``,
    is at or below its floor, so that the correlation is undefined, at the
    field :func:`distance_field` finds."""
    for scen in scens:
        variance = min(engine._analytic_pair_stats(scen, quad)[1:])
        if not variance > engine._VAR_FLOOR:
            raise ParameterError(
                f"a creditor's loss variance is {variance:.3g} at {scen.k_obligors} obligors, "
                f"at or below {engine._VAR_FLOOR:g}, so the loss correlation is undefined",
                field=distance_field(scen.obligor_face, scen.params),
            )


# The largest chance that the samples of an mc sweep cell show no default
# in one half, whose sampled loss variance would then vanish and leave the
# correlation undefined.
_SILENT_HALF_MAX = 1e-9


def _check_sampled_defaults(k: int, face: float, params: MarketParams, quad, n_samples: int):
    """Refuse an mc sweep cell of ``k`` obligors whose ``n_samples`` show no
    default in one half with a chance, P(no default among k // 2)^n_samples,
    above ``_SILENT_HALF_MAX``."""
    chance = engine.no_default_probability(k // 2, face, params, quad) ** n_samples
    if chance > _SILENT_HALF_MAX:
        raise ScenarioError(
            f"{n_samples} samples show no default in a half of {k // 2} obligors at "
            f"c = {params.c:g} with probability {chance:.3g}, above {_SILENT_HALF_MAX:g}, "
            "and the sampled loss correlation is then undefined; raise mc.n_samples",
            pointer="/mc/n_samples",
        )


def _correlation_sweep(sc, out_dir=""):
    base = _build("/market", MarketParams, **sc["market"])
    halves = _halves(sc["portfolio"]["face"], "/portfolio/face")
    _build("/portfolio/face", check_face_ratio, halves.f0, base)
    config = _build("/mc", McConfig, **sc["mc"])
    quad, path = _quad(sc), _output(sc, "table", out_dir)
    ks = _k_list(sc["portfolio"]["k_values"])
    _build("/market", _check_defaults, [
        _build("/portfolio/k_values", NoSubScenario, k_obligors=k, params=base, overlap=halves)
        for k in ks
    ], quad)
    # one (c, k, scenario, McConfig or None) cell per pair of c and k values
    cells, samples, seconds = [], 0, 0.0
    for i, c in enumerate(sc["c_values"]):
        params = _build(f"/c_values/{i}", dataclasses.replace, base, c=c)
        for k in ks:
            scen = _build(
                "/portfolio/k_values", NoSubScenario, k_obligors=k, params=params, overlap=halves
            )
            cfg = None
            if sc["method"] == "mc":
                seed = config.rng_seed + int(round(1000 * c)) * 1000 + k
                cfg = dataclasses.replace(config, rng_seed=seed)
                seconds += _check_sampling(scen, cfg, "/portfolio/k_values", "/portfolio/k_values")
                _check_sampled_defaults(k, halves.f0, params, quad, cfg.n_samples)
                samples += cfg.n_samples
            cells.append((c, k, scen, cfg))
    nodes = quad.z_nodes * quad.u_nodes
    if sc["method"] == "analytic":
        seconds = len(cells) * nodes * _TABLE_S

    def job():
        rows = []
        for c, k, scen, cfg in cells:
            if cfg is None:
                corr = engine.loss_correlation(scen, method="analytic", quad=quad)
            else:
                corr = engine.loss_correlation(scen, method="mc", mc_config=cfg)
            rows.append((float(c), int(k), float(corr)))
        _write_table(rows, ["c", "k_obligors", "loss_correlation"], sc, path)
        corrs = [r[2] for r in rows]
        return _artifact(
            path, "table", f"rows={len(rows)} corr range [{min(corrs):.4f}, {max(corrs):.4f}]"
        )

    return [job], _work(len(cells), nodes, seconds, samples)


def _calibrate(sc, out_dir=""):
    src = sc["source"]
    params = _build("/source/market", MarketParams, **src["market"])
    if src["kind"] == "csv" and "path" not in src:
        raise ScenarioError("csv source needs a path", pointer="/source/path")
    fit_block = sc["fit"]
    _check_increasing(fit_block, "grid_lo", "grid_hi", "/fit", "fit grid needs grid_hi > grid_lo")
    grid = np.geomspace(fit_block["grid_lo"], fit_block["grid_hi"], int(fit_block["grid_points"]))
    path = _output(sc, "report", out_dir)
    if src["kind"] == "synthetic":
        m, k = int(src["m_samples"]), int(src["k_assets"])
        # the M x K returns and their K x K covariance, at the larger factor
        _check_memory(
            max(m, k) * k, f"the {_count(m)} x {_count(k)} synthetic returns and their covariance",
            "/source/k_assets" if k >= m else "/source/m_samples",
        )
    else:
        m, k = _returns_csv_shape(src["path"])
        _check_memory(
            max(m, k) * k, f"the {_count(m)} x {_count(k)} returns of {src['path']!r} and their "
            "covariance", "/source/path",
        )

    def job():
        if src["kind"] == "synthetic":
            rng = np.random.default_rng(int(src["rng_seed"]))
            data = mc.sample_compound_returns(
                params, int(src["k_assets"]), int(src["m_samples"]), rng
            )
            truth = {"n_fluct": params.n_fluct, "c": params.c}
        else:
            data = _load_returns_csv(src["path"])
            truth = None
        sample = calibration.ReturnSample(data)
        fit = calibration.fit_n(sample, grid=grid)
        c_hat = calibration.effective_correlation(sample.sigma_hat) if sample.k_assets > 1 else None
        payload = {
            "n_hat": fit.n_hat,
            "c_hat": c_hat,
            "loglik": fit.loglik,
            "boundary": fit.boundary,
            "rank_deficient": fit.rank_deficient,
            "m_samples": sample.m_samples,
            "k_assets": sample.k_assets,
            "profile": {"grid": list(fit.grid), "loglik": list(fit.profile)},
        }
        if truth is not None:
            payload["truth"] = truth
        _write_json(payload, sc, path)
        c_txt = "n/a" if c_hat is None else f"{c_hat:.4f}"
        return _artifact(path, "fit_report", f"n_hat={fit.n_hat:.3f} c_hat={c_txt}")

    # one return sample at one fit grid point, per (K + 40) assets
    points = len(grid) * m
    return [job], _work(points, k, points * (k + 40) * _FIT_S)


# expected count from which a count's between-epoch variance is used; a
# cell's own is noise at small counts, where one empty cell read |z| = sqrt(n)
_WELL_FILLED = 200


def _mc_validate(sc, out_dir=""):
    params = _build("/market", MarketParams, **sc["market"])
    (scen,) = _plain_scenarios(sc, params)
    if "tranches" in sc:
        tranches = _build("/tranches", SubordinationSpec, **sc["tranches"])
        _check_tranche_faces(tranches, params)
        scen = _build(
            "/portfolio", SubordinatedScenario,
            k_obligors=scen.k_obligors, tranches=tranches, params=params,
        )
    config = _build("/mc", McConfig, **sc["mc"])
    sampling_s = _check_sampling(scen, config, "/portfolio/k_obligors", "/portfolio/overlap")
    quad, min_mass, path = _quad(sc), sc["min_mass"], _output(sc, "report", out_dir)

    def job():
        run = mc.estimate(scen, config)
        edges = np.linspace(0.0, 1.0, config.n_bins + 1)
        edges[-1] = np.inf
        # McRun histograms are already normalized to probabilities
        if isinstance(scen, SubordinatedScenario):
            analytic = engine.subordinated_cell_masses(scen, edges, edges, quad)
        elif scen.n_creditors == 2:
            analytic = engine.nosub_cell_masses(scen, edges, edges, quad)
        else:
            analytic = engine.nosub_cell_masses(scen, edges, quad=quad)
        p_mc = np.asarray(run.hist_2d if analytic.ndim == 2 else run.hist_1d[0], dtype=float)
        # the first row and column hold the atoms that the continuous law smears
        interior = np.ones_like(analytic, dtype=bool)
        interior[0] = False
        if analytic.ndim == 2:
            interior[:, 0] = False
        n = config.n_samples
        compare = interior & (analytic > min_mass)
        # samples of one Wishart epoch are dependent: standard errors grow
        # by the design effect pooled over the well-filled compared cells,
        # and by the atom's own where the no-default count is well filled
        pooled = compare & (analytic * n >= _WELL_FILLED)
        deff = run.design_effect(pooled)
        p_nd = engine.no_default_probability(
            scen.k_obligors, scen.obligor_face, scen.params, quad
        )
        deff_nd = run.design_effect() if min(p_nd, 1.0 - p_nd) * n >= _WELL_FILLED else deff
        se = np.sqrt(np.maximum(analytic * (1.0 - analytic), 1e-30) / n) * math.sqrt(deff)
        z = np.zeros_like(analytic)
        z[compare] = (p_mc[compare] - analytic[compare]) / se[compare]
        max_abs_z = float(np.max(np.abs(z))) if np.any(compare) else 0.0
        # sum of z^2 against chi^2 with a degree of freedom per compared cell
        chi2, dof = float(np.sum(z[compare] ** 2)), int(np.sum(compare))
        chi2_p = float(gammaincc(dof / 2, chi2 / 2)) if dof else 1.0
        se_nd = max(run.p_no_default_se, 1e-15) * math.sqrt(deff_nd)
        z_nd = (run.p_no_default - p_nd) / se_nd
        payload = {
            "n_samples": n,
            "n_cells_compared": dof,
            "min_mass": min_mass,
            "max_abs_z": max_abs_z,
            "mean_abs_z": float(np.mean(np.abs(z[compare]))) if np.any(compare) else 0.0,
            "chi2": {"stat": chi2, "dof": dof, "p_value": chi2_p},
            "analytic_mass_compared": float(np.sum(analytic[compare])),
            "mc_mass_compared": float(np.sum(p_mc[compare])),
            "no_default": {
                "analytic": p_nd,
                "mc": run.p_no_default,
                "mc_se": run.p_no_default_se * math.sqrt(deff_nd),
                "z": float(z_nd),
            },
            "loss_correlation_mc": run.corr,
            "loss_correlation_mc_se": run.corr_se,
            "subordination_violations": run.subordination_violations,
            "agreement": bool(max_abs_z <= 5.0 and abs(z_nd) <= 5.0),
            "epoch_samples": run.epoch_samples,
            "design_effect": None if run.epoch_samples == 1 else {
                "cells": deff,
                "pooled_over": np.argwhere(pooled).tolist(),
                "no_default": deff_nd,
            },
        }
        _write_json(payload, sc, path)
        summary = f"max|z|={max_abs_z:.2f} over {dof} cells "
        if run.epoch_samples > 1:
            summary += f"deff={deff:.3f} "
        return _artifact(path, "agreement_report", summary + f"agree={payload['agreement']}")

    points, nodes = config.n_bins**2, quad.z_nodes * quad.u_nodes
    seconds = nodes * (_TABLE_S + points * _TERM_S) + sampling_s
    return [job], _work(points, nodes, seconds, config.n_samples)


class _Mode(NamedTuple):
    """One scenario mode: its mode function, which returns the jobs and the
    work of a build (see ``_work``), the blocks a document must
    give, and its blocks in schema order, each a schema or a (schema,
    default) pair.  A required block has no default, which would always
    meet the requirement."""

    build: Callable
    required: tuple
    blocks: dict


def _mode(build, *required, **blocks) -> _Mode:
    return _Mode(build, required, blocks)


_MODES = {
    "subordinated": _mode(
        _subordinated, "portfolio", "tranches",
        market=_MARKET,
        portfolio=_block({"k_obligors": _K_ONE_OR_MANY}, ["k_obligors"]),
        tranches=_TRANCHES_SCHEMA,
        grid=_GRID,
        quadrature=_QUAD,
        outputs=_outputs(density="subordinated_density_k{k}.csv"),
    ),
    "nosub": _mode(
        _nosub,
        market=_MARKET,
        portfolio=(_plain_portfolio_schema(_K_ONE_OR_MANY), {"face": 75.0, "layout": "halves"}),
        grid=_GRID,
        quadrature=_QUAD,
        outputs=_outputs(density="nosub_density_k{k}.csv"),
    ),
    "nosub-multimarket": _mode(
        _multimarket, "markets",
        markets={
            "type": "array",
            "items": _block(dict(_MARKET_SCHEMA["properties"], k_obligors=_INT), ["k_obligors"]),
        },
        face=(_NUM, 75.0),
        creditors=({"enum": ["total", "per-market"]}, "per-market"),
        tails=({"type": "array", "items": _FRAC}, []),
        grid=_GRID,
        quadrature=(_QUAD_SCHEMA, dict(_QUAD[1], u_nodes=24)),
        outputs=_outputs(density="multimarket_density.csv"),
    ),
    "limit-subordinated": _mode(
        _limit_subordinated, "tranches",
        market=_MARKET,
        tranches=_TRANCHES_SCHEMA,
        scan=(_block({"n_scan": {"type": "integer", "minimum": 16, "maximum": 1024}}),
              {"n_scan": 96}),
        grid=_GRID,
        outputs=_outputs(density="limit_subordinated.csv"),
    ),
    "limit-equal": _mode(
        _limit_equal, "face",
        market=_MARKET,
        face=_POS,
        grid=(_GRID_SCHEMA, {"n_cells": 201, "lo": 1e-3, "hi": 1.0 - 1e-3}),
        quadrature=_QUAD,
        outputs=_outputs(curve="limit_equal_curve.csv"),
    ),
    "limit-finite-vs-infinite": _mode(
        _limit_fin_vs_inf, "face", "r_one",
        market=_MARKET,
        face=_POS,
        r_one={"type": "integer", "minimum": 2},
        grid=_GRID,
        quadrature=_QUAD,
        outputs=_outputs(density="limit_finite_vs_infinite.csv"),
    ),
    "limit-two-markets": _mode(
        _limit_two_markets, "face_one", "face_two",
        market_one=_MARKET,
        market_two=_MARKET,
        face_one=_POS,
        face_two=_POS,
        grid=_GRID,
        quadrature=_QUAD,
        outputs=_outputs(density="limit_two_markets.csv"),
    ),
    "no-default": _mode(
        _no_default, "face", "k_values",
        market=_MARKET,
        face=_POS,
        k_values={"type": "array", "items": _POSINT, "minItems": 1},
        mu_values={"type": "array", "items": _NUM, "minItems": 1},
        quadrature=_QUAD,
        outputs=_outputs(table="no_default.csv"),
    ),
    "correlation-sweep": _mode(
        _correlation_sweep, "c_values",
        market=_MARKET,
        portfolio=(
            _block(
                {"k_values": {"type": "array", "items": _INT, "minItems": 1}, "face": _NUM},
                ["k_values"],
            ),
            {"face": 75.0},
        ),
        c_values={"type": "array", "items": _NUM, "minItems": 1},
        method=({"enum": ["analytic", "mc"]}, "analytic"),
        mc=_MC,
        quadrature=_QUAD,
        outputs=_outputs(table="correlation_sweep.csv"),
    ),
    "calibrate": _mode(
        _calibrate,
        source=(
            _block(
                {
                    "kind": {"enum": ["synthetic", "csv"]},
                    "market": _MARKET_SCHEMA,
                    "k_assets": {"type": "integer", "minimum": 1},
                    "m_samples": {"type": "integer", "minimum": 10},
                    "rng_seed": {"type": "integer", "minimum": 0},
                    "path": {"type": "string"},
                },
                ["kind"],
            ),
            {"market": _DEFAULT_MARKET, "k_assets": 20, "m_samples": 5000, "rng_seed": 0},
        ),
        fit=(
            _block(
                {
                    "grid_lo": _POS,
                    "grid_hi": _POS,
                    "grid_points": {"type": "integer", "minimum": 3, "maximum": 512},
                }
            ),
            {"grid_lo": 1.0, "grid_hi": 128.0, "grid_points": 57},
        ),
        outputs=_outputs(report="calibration_report.json"),
    ),
    "mc-validate": _mode(
        _mc_validate,
        market=_MARKET,
        portfolio=(_plain_portfolio_schema(_INT), {"face": 75.0, "layout": "halves"}),
        tranches=_TRANCHES_SCHEMA,
        min_mass=(_POS, 1e-5),
        mc=_MC,
        quadrature=_QUAD,
        outputs=_outputs(report="mc_validation.json"),
    ),
}

MODES = tuple(_MODES)


def _document(entry: _Mode) -> tuple:
    """The document schema and the defaults of a mode."""
    props = {
        # _resolve has already refused every other version
        "schema_version": {},
        "id": {"type": "string", "pattern": r"^[A-Za-z0-9_\-]+$"},
        "title": {"type": "string"},
        "mode": {"enum": list(MODES)},
    }
    defaults = {}
    for key, block in entry.blocks.items():
        if isinstance(block, tuple):
            block, defaults[key] = block
        props[key] = block
    return _block(props, ["schema_version", "mode", *entry.required]), defaults


# mode -> (document schema, defaults), derived once from _MODES
_DOCUMENTS = {mode: _document(entry) for mode, entry in _MODES.items()}


def _array_index(node: list, key: str, path: str) -> int:
    """``key`` as an index into the array ``node``; ScenarioError naming
    the override ``path`` when it is not one."""
    if not (key.isdecimal() and int(key) < len(node)):
        raise ScenarioError(
            f"override {path!r}: {key!r} is not an index of a {len(node)}-item array"
        )
    return int(key)


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply ``path.to.leaf=json-value`` overrides to a copy of the document.

    Path components index into arrays, where they must be integers below
    the array's length; values are parsed as JSON with a bare-string
    fallback.
    """
    out = copy.deepcopy(doc)
    for item in assignments:
        if "=" not in item:
            raise ScenarioError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for i, key in enumerate(keys[:-1]):
            if isinstance(node, list):
                node = node[_array_index(node, key, path)]
            else:
                node = node.setdefault(key, {})
            if not isinstance(node, (dict, list)):
                raise ScenarioError(
                    f"cannot descend through scalar at {'.'.join(keys[: i + 1])}"
                )
        last = keys[-1]
        if isinstance(node, list):
            node[_array_index(node, last, path)] = value
        else:
            node[last] = value
    return out


# ---------------------------------------------------------------------------
# bundled recipes


def bundled_scenarios() -> dict:
    """Checked-in scenario documents keyed by id (deep copies)."""
    return copy.deepcopy(_BUNDLED)


_BUNDLED = {
    "nosub_equal_halves_trio": {
        "schema_version": SCHEMA_VERSION,
        "id": "nosub_equal_halves_trio",
        "title": "Joint loss density of two equal disjoint halves at three portfolio sizes",
        "mode": "nosub",
        "portfolio": {"k_obligors": [10, 20, 100], "face": 75.0, "layout": "halves"},
        "grid": {"n_cells": 61, "lo": 0.0, "hi": 0.6},
        "outputs": {"density": "nosub_halves_k{k}.csv"},
    },
    "correlation_sweep_full": {
        "schema_version": SCHEMA_VERSION,
        "id": "correlation_sweep_full",
        "title": "Loss correlation of equal halves against asset correlation and size",
        "mode": "correlation-sweep",
        "portfolio": {"k_values": [10, 100], "face": 75.0},
        "c_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "method": "analytic",
    },
    "subordinated_k200": {
        "schema_version": SCHEMA_VERSION,
        "id": "subordinated_k200",
        "title": "Senior/junior joint loss density, 200 obligors, split face 37/38",
        "mode": "subordinated",
        "portfolio": {"k_obligors": 200},
        "tranches": {"f_senior": 37.0, "f_junior": 38.0},
        "grid": {"n_cells": 81, "lo": 0.0, "hi": 0.8},
        "outputs": {"density": "subordinated_k200.csv"},
    },
    "nosub_halves_k100": {
        "schema_version": SCHEMA_VERSION,
        "id": "nosub_halves_k100",
        "title": "Joint loss density of two equal disjoint halves, 100 obligors",
        "mode": "nosub",
        "portfolio": {"k_obligors": 100, "face": 75.0, "layout": "halves"},
        "grid": {"n_cells": 81, "lo": 0.0, "hi": 0.8},
        "outputs": {"density": "nosub_halves_k100.csv"},
    },
    "limit_subordinated_ridge": {
        "schema_version": SCHEMA_VERSION,
        "id": "limit_subordinated_ridge",
        "title": "Infinite-portfolio senior/junior density concentrated on its ridge",
        "mode": "limit-subordinated",
        "tranches": {"f_senior": 37.0, "f_junior": 38.0},
        "grid": {"n_cells": 61, "lo": 0.0, "hi": 0.6},
    },
    "limit_equal_loss_curve": {
        "schema_version": SCHEMA_VERSION,
        "id": "limit_equal_loss_curve",
        "title": "Infinite-portfolio loss density along the equal-loss diagonal",
        "mode": "limit-equal",
        "face": 75.0,
    },
    "limit_small_vs_large_r10": {
        "schema_version": SCHEMA_VERSION,
        "id": "limit_small_vs_large_r10",
        "title": "Ten-obligor portfolio against an infinite one, joint limit density",
        "mode": "limit-finite-vs-infinite",
        "face": 75.0,
        "r_one": 10,
        "grid": {"n_cells": 61, "lo": 0.0, "hi": 0.6},
    },
    "limit_two_markets_base": {
        "schema_version": SCHEMA_VERSION,
        "id": "limit_two_markets_base",
        "title": "Two infinite portfolios in independent markets, joint limit density",
        "mode": "limit-two-markets",
        "face_one": 75.0,
        "face_two": 75.0,
        "grid": {"n_cells": 61, "lo": 0.0, "hi": 0.6},
    },
    "no_default_k_scan": {
        "schema_version": SCHEMA_VERSION,
        "id": "no_default_k_scan",
        "title": "No-default probability against portfolio size and drift",
        "mode": "no-default",
        "face": 75.0,
        "k_values": [1, 2, 5, 10, 20, 50, 100],
        "mu_values": [0.05, 0.17, 0.30],
    },
    "multimarket_split_pair": {
        "schema_version": SCHEMA_VERSION,
        "id": "multimarket_split_pair",
        "title": "Total loss of a portfolio split across two independent markets",
        "mode": "nosub-multimarket",
        "markets": [{"k_obligors": 20}, {"k_obligors": 20}],
        "face": 75.0,
        "creditors": "total",
        "tails": [0.1, 0.3, 0.5],
        "grid": {"n_cells": 201, "lo": 0.0, "hi": 1.0},
    },
    "calibrate_synthetic_base": {
        "schema_version": SCHEMA_VERSION,
        "id": "calibrate_synthetic_base",
        "title": "Round-trip fit of fluctuation strength and mean correlation",
        "mode": "calibrate",
        "source": {"kind": "synthetic", "k_assets": 20, "m_samples": 5000, "rng_seed": 0},
    },
    "mc_validate_halves_k100": {
        "schema_version": SCHEMA_VERSION,
        "id": "mc_validate_halves_k100",
        "title": "Histogram agreement between the analytic density and simulation",
        "mode": "mc-validate",
        "portfolio": {"k_obligors": 100, "face": 75.0, "layout": "halves"},
        "mc": {"n_samples": 200_000, "rng_seed": 0, "n_bins": 20},
    },
}


# ---------------------------------------------------------------------------
# running


def _provenance(sc: dict):
    return (
        f"schema_version: {sc['schema_version']}",
        f"fingerprint: {scenario_fingerprint(sc)}",
        f"scenario: {canonical_json(sc)}",
    )


def _write_grid(grid: DensityGrid, sc: dict, path: str) -> None:
    grid.to_csv(path, comments=_provenance(sc))


def _write_json(payload: dict, sc: dict, path: str) -> None:
    env = {
        "schema_version": sc["schema_version"],
        "fingerprint": scenario_fingerprint(sc),
        "scenario": sc,
        "report": payload,
    }
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(env, sort_keys=True, indent=1, default=float))
        fh.write("\n")


def _write_table(rows, header, sc: dict, path: str) -> None:
    write_csv(path, _provenance(sc), header, list(zip(*rows)))


def _artifact(path, kind, summary):
    return {"path": path, "kind": kind, "summary": summary}


def _grid_summary(grid: DensityGrid) -> str:
    mass = float(grid.values.sum())
    for axis in grid.axes:
        mass *= float(axis[1] - axis[0])
    summary = f"peak={grid.values.max():.6g} mass~{mass:.4f}"
    if grid.quality is not None:
        summary += f" flagged_cells={int(np.sum(grid.quality > 0))}"
    return summary


def _grid_job(sc: dict, path: str, make, kind: str = "density_grid"):
    """The job that computes the DensityGrid ``make()``, writes it to
    ``path`` and returns its record."""

    def job():
        grid = make()
        _write_grid(grid, sc, path)
        return _artifact(path, kind, _grid_summary(grid))

    return job


def _header_rows(first_line: str) -> int:
    """1 when the first line of a returns CSV is a header, that is, holds a
    field that is not a number; else 0."""

    def _numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    return 0 if all(_numeric(t) for t in first_line.strip().split(",") if t) else 1


def _unreadable(path: str, exc: Exception) -> ScenarioError:
    return ScenarioError(f"cannot read returns from {path!r}: {exc}", pointer="/source/path")


def _returns_csv_shape(path: str) -> tuple:
    """(data rows M, columns K) of a returns CSV, read line by line without
    parsing its numbers: the lines after the header (see
    :func:`_header_rows`) that hold anything but a comment, and the fields
    of the first of them."""
    m = k = 0
    try:
        with open(path) as fh:
            first = fh.readline()
            for line in fh if _header_rows(first) else chain([first], fh):
                data = line.split("#", 1)[0]
                if data.strip():
                    m += 1
                    k = k or len(data.split(","))
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from exc
    return m, k


def _load_returns_csv(path: str) -> np.ndarray:
    """The returns matrix of a CSV file with an optional header row; a file
    that cannot be read as numbers is rejected at ``/source/path``."""
    try:
        with open(path) as fh:
            skip = _header_rows(fh.readline())
        return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from exc


def run_scenario(doc: dict, out_dir: str = ".") -> list:
    """Resolve and execute a scenario; returns artifact records.

    Each record has path, kind and a one-line summary.  Artifacts embed the
    resolved scenario and its fingerprint; reruns are byte-identical.  An
    exception raised by a job carries the records of the jobs that
    finished before it as ``partial_artifacts``.  An ``out_dir`` that
    cannot be made a directory raises ScenarioError before any job runs.
    """
    jobs = _resolve(doc, out_dir)[1]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use {out_dir!r} as the artifact directory: {exc}") from exc
    artifacts = []
    try:
        for job in jobs:
            artifacts.append(job())
    except Exception as exc:
        exc.partial_artifacts = artifacts
        raise
    return artifacts
