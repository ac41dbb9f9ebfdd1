"""Scenario documents: schema, validation, bundled recipes and the runner.

A scenario is a JSON document selecting one computation mode plus its
parameter blocks.  Validation is strict (unknown fields rejected, errors
carry a JSON pointer); running a resolved scenario writes CSV/JSON
artifacts that embed the resolved document and its fingerprint so a rerun
can be checked byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os

import numpy as np
import jsonschema

from .errors import ParameterError, SamplerBudgetError, ScenarioError
from .grids import SCHEMA_VERSION, DensityGrid, canonical_json, scenario_fingerprint
from .mc import McConfig, _check_wishart_budget, _wishart_dof
from .params import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    SubordinationSpec,
)
from .quadrature import QuadratureSpec

__all__ = [
    "MODES",
    "validate_scenario",
    "resolve_scenario",
    "estimate_cost",
    "apply_overrides",
    "bundled_scenarios",
    "run_scenario",
]

MODES = (
    "subordinated",
    "nosub",
    "nosub-multimarket",
    "limit-subordinated",
    "limit-equal",
    "limit-finite-vs-infinite",
    "limit-two-markets",
    "no-default",
    "correlation-sweep",
    "calibrate",
    "mc-validate",
)

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "minimum": 1}
_FRAC = {"type": "number", "minimum": 0, "maximum": 1}

_MARKET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mu": _NUM,
        "rho": _POS,
        "c": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "n_fluct": _POS,
        "t_mat": _POS,
        "v0": _POS,
    },
}

_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_cells": {"type": "integer", "minimum": 2, "maximum": 2001},
        "lo": _NONNEG,
        "hi": _POS,
    },
}

_QUAD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "z_nodes": {"type": "integer", "minimum": 4, "maximum": 512},
        "u_nodes": {"type": "integer", "minimum": 4, "maximum": 512},
        "mode": {"enum": ["fixed", "adaptive"]},
        "rel_tol": _POS,
    },
}

_MC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_samples": {"type": "integer", "minimum": 10000},
        "rng_seed": {"type": "integer", "minimum": 0},
        "sampler": {"enum": ["compound", "wishart"]},
        "antithetic": {"type": "boolean"},
        "n_bins": {"type": "integer", "minimum": 2, "maximum": 1000},
        "chunk_size": {"type": "integer", "minimum": 128},
    },
}

_OVERLAP_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "r1": _FRAC,
        "r12": _FRAC,
        "gamma": _FRAC,
        "f0": _POS,
    },
    "required": ["r1", "r12", "gamma", "f0"],
}

_K_ONE_OR_MANY = {
    "oneOf": [
        _POSINT,
        {"type": "array", "items": _POSINT, "minItems": 1},
    ]
}


def _out_schema(*keys):
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": {k: {"type": "string", "minLength": 1} for k in keys},
        "required": list(keys),
    }


def _doc_schema(extra_props, required):
    props = {
        "schema_version": {"const": SCHEMA_VERSION},
        "id": {"type": "string", "pattern": r"^[A-Za-z0-9_\-]+$"},
        "title": {"type": "string"},
        "mode": {"enum": list(MODES)},
    }
    props.update(extra_props)
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": props,
        "required": ["schema_version", "mode"] + list(required),
    }


_MODE_SCHEMAS = {
    "subordinated": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "portfolio": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"k_obligors": _K_ONE_OR_MANY},
                "required": ["k_obligors"],
            },
            "tranches": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"f_senior": _NONNEG, "f_junior": _POS},
                "required": ["f_senior", "f_junior"],
            },
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["portfolio", "tranches"],
    ),
    "nosub": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "portfolio": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "k_obligors": _K_ONE_OR_MANY,
                    "face": _POS,
                    "layout": {"enum": ["single", "halves", "overlap"]},
                    "overlap": _OVERLAP_SCHEMA,
                },
                "required": ["k_obligors"],
            },
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["portfolio"],
    ),
    "nosub-multimarket": _doc_schema(
        {
            "markets": {
                "type": "array",
                "minItems": 1,
                "maxItems": 8,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": dict(
                        _MARKET_SCHEMA["properties"], k_obligors=_POSINT
                    ),
                    "required": ["k_obligors"],
                },
            },
            "face": _POS,
            "creditors": {"enum": ["total", "per-market"]},
            "tails": {"type": "array", "items": _FRAC},
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["markets"],
    ),
    "limit-subordinated": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "tranches": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"f_senior": _NONNEG, "f_junior": _POS},
                "required": ["f_senior", "f_junior"],
            },
            "scan": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"n_scan": {"type": "integer", "minimum": 16, "maximum": 1024}},
            },
            "grid": _GRID_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["tranches"],
    ),
    "limit-equal": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "face": _POS,
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("curve"),
        },
        ["face"],
    ),
    "limit-finite-vs-infinite": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "face": _POS,
            "r_one": {"type": "integer", "minimum": 2},
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["face", "r_one"],
    ),
    "limit-two-markets": _doc_schema(
        {
            "market_one": _MARKET_SCHEMA,
            "market_two": _MARKET_SCHEMA,
            "face_one": _POS,
            "face_two": _POS,
            "grid": _GRID_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("density"),
        },
        ["face_one", "face_two"],
    ),
    "no-default": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "face": _POS,
            "k_values": {"type": "array", "items": _POSINT, "minItems": 1},
            "mu_values": {"type": "array", "items": _NUM, "minItems": 1},
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("table"),
        },
        ["face", "k_values"],
    ),
    "correlation-sweep": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "portfolio": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "k_values": {"type": "array", "items": _POSINT, "minItems": 1},
                    "face": _POS,
                },
                "required": ["k_values"],
            },
            "c_values": {
                "type": "array",
                "items": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "minItems": 1,
            },
            "method": {"enum": ["analytic", "mc"]},
            "mc": _MC_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("table"),
        },
        ["portfolio", "c_values"],
    ),
    "calibrate": _doc_schema(
        {
            "source": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["synthetic", "csv"]},
                    "market": _MARKET_SCHEMA,
                    "k_assets": {"type": "integer", "minimum": 1},
                    "m_samples": {"type": "integer", "minimum": 10},
                    "rng_seed": {"type": "integer", "minimum": 0},
                    "path": {"type": "string"},
                },
                "required": ["kind"],
            },
            "fit": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "grid_lo": _POS,
                    "grid_hi": _POS,
                    "grid_points": {"type": "integer", "minimum": 3, "maximum": 512},
                },
            },
            "outputs": _out_schema("report"),
        },
        ["source"],
    ),
    "mc-validate": _doc_schema(
        {
            "market": _MARKET_SCHEMA,
            "portfolio": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "k_obligors": _POSINT,
                    "face": _POS,
                    "layout": {"enum": ["single", "halves", "overlap"]},
                    "overlap": _OVERLAP_SCHEMA,
                },
                "required": ["k_obligors"],
            },
            "tranches": {
                "type": "object",
                "additionalProperties": False,
                "properties": {"f_senior": _NONNEG, "f_junior": _POS},
                "required": ["f_senior", "f_junior"],
            },
            "min_mass": _POS,
            "mc": _MC_SCHEMA,
            "quadrature": _QUAD_SCHEMA,
            "outputs": _out_schema("report"),
        },
        ["portfolio"],
    ),
}

_DEFAULT_MARKET = {
    "mu": 0.17,
    "rho": 0.35,
    "c": 0.28,
    "n_fluct": 6,
    "t_mat": 1.0,
    "v0": 100.0,
}
_DEFAULT_GRID = {"n_cells": 101, "lo": 0.0, "hi": 1.0}


def _field_defaults(cls, schema: dict) -> dict:
    """The dataclass defaults of the fields a document may set."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name in schema["properties"]}


_DEFAULT_QUAD = _field_defaults(QuadratureSpec, _QUAD_SCHEMA)
_DEFAULT_MC = _field_defaults(McConfig, _MC_SCHEMA)

_MODE_DEFAULTS = {
    "subordinated": {
        "market": _DEFAULT_MARKET,
        "grid": _DEFAULT_GRID,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"density": "subordinated_density_k{k}.csv"},
    },
    "nosub": {
        "market": _DEFAULT_MARKET,
        "portfolio": {"face": 75.0, "layout": "halves"},
        "grid": _DEFAULT_GRID,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"density": "nosub_density_k{k}.csv"},
    },
    "nosub-multimarket": {
        "face": 75.0,
        "creditors": "per-market",
        "tails": [],
        "grid": _DEFAULT_GRID,
        "quadrature": dict(_DEFAULT_QUAD, u_nodes=24),
        "outputs": {"density": "multimarket_density.csv"},
    },
    "limit-subordinated": {
        "market": _DEFAULT_MARKET,
        "scan": {"n_scan": 96},
        "grid": {"n_cells": 101, "lo": 0.0, "hi": 1.0},
        "outputs": {"density": "limit_subordinated.csv"},
    },
    "limit-equal": {
        "market": _DEFAULT_MARKET,
        "grid": {"n_cells": 201, "lo": 1e-3, "hi": 1.0 - 1e-3},
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"curve": "limit_equal_curve.csv"},
    },
    "limit-finite-vs-infinite": {
        "market": _DEFAULT_MARKET,
        "grid": _DEFAULT_GRID,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"density": "limit_finite_vs_infinite.csv"},
    },
    "limit-two-markets": {
        "market_one": _DEFAULT_MARKET,
        "market_two": _DEFAULT_MARKET,
        "grid": _DEFAULT_GRID,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"density": "limit_two_markets.csv"},
    },
    "no-default": {
        "market": _DEFAULT_MARKET,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"table": "no_default.csv"},
    },
    "correlation-sweep": {
        "market": _DEFAULT_MARKET,
        "portfolio": {"face": 75.0},
        "method": "analytic",
        "mc": _DEFAULT_MC,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"table": "correlation_sweep.csv"},
    },
    "calibrate": {
        "source": {
            "market": _DEFAULT_MARKET,
            "k_assets": 20,
            "m_samples": 5000,
            "rng_seed": 0,
        },
        "fit": {"grid_lo": 1.0, "grid_hi": 128.0, "grid_points": 57},
        "outputs": {"report": "calibration_report.json"},
    },
    "mc-validate": {
        "market": _DEFAULT_MARKET,
        "portfolio": {"face": 75.0, "layout": "halves"},
        "min_mass": 1e-5,
        "mc": _DEFAULT_MC,
        "quadrature": _DEFAULT_QUAD,
        "outputs": {"report": "mc_validation.json"},
    },
}


def _deep_merge(base, over):
    """Defaults-under-document merge; dict values merge recursively, all
    other values (including lists) are taken from the document."""
    if not isinstance(base, dict) or not isinstance(over, dict):
        return copy.deepcopy(over)
    out = copy.deepcopy(base)
    for key, val in over.items():
        if key in out:
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
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


def _schema_check(doc, schema):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise ScenarioError(err.message, pointer=_pointer(err.absolute_path))


def resolve_scenario(doc: dict) -> dict:
    """Validate a scenario document and fill defaults.

    Returns a new fully populated document; raises ScenarioError with a
    JSON pointer for schema violations, infeasible parameter blocks and
    non-finite numbers.
    """
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
    merged = _deep_merge(_MODE_DEFAULTS[mode], doc)
    merged.setdefault("schema_version", SCHEMA_VERSION)
    merged.setdefault("id", "custom")
    _schema_check(merged, _MODE_SCHEMAS[mode])
    _feasibility(merged)
    bad = _first_non_finite(merged)
    if bad is not None:
        raise ScenarioError("numbers must be finite", pointer=_pointer(bad))
    return merged


def validate_scenario(doc: dict) -> dict:
    """Resolve the document and report its estimated cost without running."""
    resolved = resolve_scenario(doc)
    return {
        "valid": True,
        "id": resolved["id"],
        "mode": resolved["mode"],
        "fingerprint": scenario_fingerprint(resolved),
        "cost": estimate_cost(resolved),
    }


def _market_params(block: dict) -> MarketParams:
    return MarketParams(
        mu=block["mu"],
        rho=block["rho"],
        c=block["c"],
        n_fluct=block["n_fluct"],
        t_mat=block["t_mat"],
        v0=block["v0"],
    )


def _filled_market(block: dict) -> dict:
    """A ``markets`` entry with the default market under its fields."""
    filled = dict(_DEFAULT_MARKET)
    filled.update({k: v for k, v in block.items() if k != "k_obligors"})
    return filled


def _k_list(value):
    return [int(k) for k in (value if isinstance(value, list) else [value])]


def _feasibility(sc: dict):
    """Cross-field checks that the flat schema cannot express."""
    mode = sc["mode"]
    if "grid" in sc:
        _check_increasing(sc["grid"], "lo", "hi", "/grid", "grid needs hi > lo")
    for key in ("market", "market_one", "market_two"):
        if key in sc:
            _build(_market_params, sc[key], f"/{key}")
    if "market" in sc.get("source", {}):
        _build(_market_params, sc["source"]["market"], "/source/market")
    for i, blk in enumerate(sc.get("markets", ())):
        _build(_market_params, _filled_market(blk), f"/markets/{i}")
    if "quadrature" in sc:
        _build(_quad_spec, sc, "/quadrature")
    if mode in ("nosub", "mc-validate"):
        port = sc["portfolio"]
        layout = port.get("layout", "halves")
        if layout == "overlap" and "overlap" not in port:
            raise ScenarioError(
                "overlap layout needs a portfolio.overlap block",
                pointer="/portfolio/overlap",
            )
        if layout != "overlap" and "overlap" in port:
            raise ScenarioError(
                "portfolio.overlap requires layout = overlap",
                pointer="/portfolio/layout",
            )
        if "overlap" in port:
            ov = port["overlap"]
            if ov["r1"] + ov["r12"] > 1.0:
                raise ScenarioError(
                    "overlap fractions exceed 1: r1 + r12 must be <= 1",
                    pointer="/portfolio/overlap",
                )
            _build(lambda blk: OverlapSpec(**blk), ov, "/portfolio/overlap")
        for k in _k_list(port["k_obligors"]):
            if layout == "halves" and k % 2 != 0:
                raise ScenarioError(
                    f"halves layout needs an even obligor count, got {k}",
                    pointer="/portfolio/k_obligors",
                )
    if mode == "nosub-multimarket":
        beta = len(sc["markets"])
        if beta > 4:
            raise ScenarioError(
                f"analytic tensor quadrature supports at most 4 markets, got "
                f"{beta}; use the mc-validate mode for larger block counts",
                pointer="/markets",
            )
        n0 = sc["markets"][0].get("n_fluct", _DEFAULT_MARKET["n_fluct"])
        for i, blk in enumerate(sc["markets"]):
            if blk.get("n_fluct", _DEFAULT_MARKET["n_fluct"]) != n0:
                raise ScenarioError(
                    "all market blocks must share n_fluct",
                    pointer=f"/markets/{i}/n_fluct",
                )
    if mode == "calibrate":
        src = sc["source"]
        if src["kind"] == "csv" and "path" not in src:
            raise ScenarioError("csv source needs a path", pointer="/source/path")
        _check_increasing(sc["fit"], "grid_lo", "grid_hi", "/fit", "fit grid needs grid_hi > grid_lo")
    if mode == "mc-validate":
        mc = sc["mc"]
        if mc["antithetic"] and (mc["n_samples"] % 2 or mc["chunk_size"] % 2):
            raise ScenarioError(
                "antithetic sampling needs even n_samples and chunk_size",
                pointer="/mc/antithetic",
            )
    if "mc" in sc:
        config = _build(lambda mc: McConfig(**mc), sc["mc"], "/mc")
        samples = mode == "mc-validate" or sc.get("method") == "mc"
        if samples and config.sampler == "wishart":
            _build(_wishart_dof, sc["market"]["n_fluct"], "/market/n_fluct")
            key = "k_obligors" if mode == "mc-validate" else "k_values"
            for k in _k_list(sc["portfolio"][key]):
                _build(_check_wishart_budget, k, f"/portfolio/{key}")


def _check_increasing(block: dict, lo: str, hi: str, where: str, message: str):
    """Require ``block[hi] > block[lo]``; a non-finite bound is rejected at
    its own pointer first, since every comparison with NaN is false."""
    for key in (lo, hi):
        if not math.isfinite(block[key]):
            raise ScenarioError("numbers must be finite", pointer=f"{where}/{key}")
    if not block[hi] > block[lo]:
        raise ScenarioError(message, pointer=f"{where}/{hi}")


def _build(make, arg, pointer: str):
    """``make(arg)``, with a domain ParameterError or SamplerBudgetError
    turned into a ScenarioError at ``pointer``."""
    try:
        return make(arg)
    except (ParameterError, SamplerBudgetError) as exc:
        raise ScenarioError(str(exc), pointer=pointer) from exc


def estimate_cost(sc: dict) -> dict:
    """Crude work estimate: evaluation points, quadrature nodes per point,
    MC samples and a wall-clock guess."""
    mode = sc["mode"]
    grid = sc.get("grid", {"n_cells": 1})
    n_cells = grid.get("n_cells", 101)
    quad = sc.get("quadrature", _DEFAULT_QUAD)
    nodes = quad.get("z_nodes", 64) * quad.get("u_nodes", 64)
    points = 0
    mc_samples = 0
    if mode in ("subordinated", "nosub"):
        ks = _k_list(sc["portfolio"]["k_obligors"])
        two_d = mode == "subordinated" or sc["portfolio"].get("layout", "halves") != "single"
        points = len(ks) * (n_cells ** 2 if two_d else n_cells)
    elif mode == "nosub-multimarket":
        beta = len(sc["markets"])
        nodes = quad.get("z_nodes", 64) * quad.get("u_nodes", 24) ** beta
        points = n_cells ** 2 if (beta == 2 and sc["creditors"] == "per-market") else n_cells
    elif mode == "limit-subordinated":
        points = n_cells ** 2
        nodes = sc["scan"]["n_scan"]
    elif mode == "limit-equal":
        points = n_cells
        nodes = quad.get("z_nodes", 64)
    elif mode in ("limit-finite-vs-infinite", "limit-two-markets"):
        points = n_cells ** 2
        nodes = quad.get("z_nodes", 64)
    elif mode == "no-default":
        points = len(sc["k_values"]) * len(sc.get("mu_values", [0]))
    elif mode == "correlation-sweep":
        points = len(sc["c_values"]) * len(sc["portfolio"]["k_values"])
        if sc["method"] == "mc":
            mc_samples = points * sc["mc"]["n_samples"]
    elif mode == "calibrate":
        src = sc["source"]
        points = sc["fit"]["grid_points"] * src.get("m_samples", 5000)
        nodes = 1
    elif mode == "mc-validate":
        points = sc["mc"]["n_bins"] ** 2
        mc_samples = sc["mc"]["n_samples"]
    seconds = 4e-9 * points * nodes + 2.5e-6 * mc_samples + 0.05
    return {
        "grid_points": int(points),
        "quad_nodes_per_point": int(nodes),
        "mc_samples": int(mc_samples),
        "est_seconds": round(seconds, 3),
    }


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply ``path.to.leaf=json-value`` overrides to a copy of the document.

    Path components that parse as integers index into arrays; values are
    parsed as JSON with a bare-string fallback.
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
                node = node[int(key)]
            else:
                node = node.setdefault(key, {})
            if not isinstance(node, (dict, list)):
                raise ScenarioError(
                    f"cannot descend through scalar at {'.'.join(keys[: i + 1])}"
                )
        last = keys[-1]
        if isinstance(node, list):
            node[int(last)] = value
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


def _quad_spec(sc: dict) -> QuadratureSpec:
    q = sc["quadrature"]
    return QuadratureSpec(
        z_nodes=q["z_nodes"], u_nodes=q["u_nodes"], mode=q["mode"], rel_tol=q["rel_tol"]
    )


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
    with open(path, "w", newline="\n") as fh:
        for line in _provenance(sc):
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _artifact(path, kind, summary):
    return {"path": path, "kind": kind, "summary": summary}


def _grid_summary(grid: DensityGrid) -> str:
    vals = np.asarray(grid.values)
    if len(grid.axes) == 1:
        dx = float(grid.axes[0][1] - grid.axes[0][0]) if len(grid.axes[0]) > 1 else 1.0
        mass = float(vals.sum() * dx)
    else:
        dx = float(grid.axes[0][1] - grid.axes[0][0])
        dy = float(grid.axes[1][1] - grid.axes[1][0])
        mass = float(vals.sum() * dx * dy)
    return f"peak={vals.max():.6g} mass~{mass:.4f}"


def _nosub_scenario_for(sc: dict, k: int, params=None):
    from .engine import NoSubScenario

    port = sc["portfolio"]
    layout = port.get("layout", "halves")
    face = port.get("face", 75.0)
    params = params if params is not None else _market_params(sc["market"])
    if layout == "single":
        return NoSubScenario(k_obligors=k, params=params, face=face)
    if layout == "halves":
        ov = OverlapSpec(r1=0.5, r12=0.0, gamma=0.5, f0=face)
    else:
        blk = port["overlap"]
        ov = OverlapSpec(r1=blk["r1"], r12=blk["r12"], gamma=blk["gamma"], f0=blk["f0"])
    return NoSubScenario(k_obligors=k, params=params, overlap=ov)


def _run_subordinated(sc, out_dir):
    from .engine import SubordinatedScenario, density_grid_subordinated

    quad = _quad_spec(sc)
    tr = SubordinationSpec(f_senior=sc["tranches"]["f_senior"], f_junior=sc["tranches"]["f_junior"])
    params = _market_params(sc["market"])
    grid_cfg = sc["grid"]
    arts = []
    ks = _k_list(sc["portfolio"]["k_obligors"])
    template = sc["outputs"]["density"]
    if len(ks) > 1 and "{k}" not in template:
        raise ScenarioError(
            "outputs.density needs a {k} placeholder for multiple sizes",
            pointer="/outputs/density",
        )
    for k in ks:
        scen = SubordinatedScenario(k_obligors=k, tranches=tr, params=params)
        grid = density_grid_subordinated(
            scen, quad, n_cells=grid_cfg["n_cells"], lo=grid_cfg["lo"], hi=grid_cfg["hi"]
        )
        path = os.path.join(out_dir, template.replace("{k}", str(k)))
        _write_grid(grid, sc, path)
        arts.append(_artifact(path, "density_grid", _grid_summary(grid)))
    return arts


def _run_nosub(sc, out_dir):
    from .engine import density_grid_nosub

    quad = _quad_spec(sc)
    grid_cfg = sc["grid"]
    arts = []
    ks = _k_list(sc["portfolio"]["k_obligors"])
    template = sc["outputs"]["density"]
    if len(ks) > 1 and "{k}" not in template:
        raise ScenarioError(
            "outputs.density needs a {k} placeholder for multiple sizes",
            pointer="/outputs/density",
        )
    for k in ks:
        scen = _nosub_scenario_for(sc, k)
        grid = density_grid_nosub(
            scen, quad, n_cells=grid_cfg["n_cells"], lo=grid_cfg["lo"], hi=grid_cfg["hi"]
        )
        path = os.path.join(out_dir, template.replace("{k}", str(k)))
        _write_grid(grid, sc, path)
        arts.append(_artifact(path, "density_grid", _grid_summary(grid)))
    return arts


def _run_multimarket(sc, out_dir):
    from .engine import NoSubScenario, density_grid_nosub, tail_probability

    quad = _quad_spec(sc)
    blocks = []
    for blk in sc["markets"]:
        blocks.append((_market_params(_filled_market(blk)), blk["k_obligors"]))
    params = MultiMarketParams(blocks=tuple(blocks))
    creditors = 1 if sc["creditors"] == "total" else params.beta
    scen = NoSubScenario(
        k_obligors=params.k_total, params=params, face=sc["face"], creditors=creditors
    )
    grid_cfg = sc["grid"]
    grid = density_grid_nosub(
        scen, quad, n_cells=grid_cfg["n_cells"], lo=grid_cfg["lo"], hi=grid_cfg["hi"]
    )
    path = os.path.join(out_dir, sc["outputs"]["density"])
    _write_grid(grid, sc, path)
    arts = [_artifact(path, "density_grid", _grid_summary(grid))]
    if sc["tails"] and creditors == 1:
        stats = [f"P(L>{t:g})={tail_probability(t, scen, quad):.3e}" for t in sc["tails"]]
        arts[0]["summary"] += " " + " ".join(stats)
    return arts


def _run_limit_subordinated(sc, out_dir):
    from .limits import limit_grid_subordinated

    tr = SubordinationSpec(f_senior=sc["tranches"]["f_senior"], f_junior=sc["tranches"]["f_junior"])
    params = _market_params(sc["market"])
    g = sc["grid"]
    grid = limit_grid_subordinated(
        tr, params, n_cells=g["n_cells"], lo=g["lo"], hi=g["hi"], n_scan=sc["scan"]["n_scan"]
    )
    path = os.path.join(out_dir, sc["outputs"]["density"])
    _write_grid(grid, sc, path)
    flagged = int(np.sum(np.asarray(grid.quality) > 0)) if grid.quality is not None else 0
    return [_artifact(path, "density_grid", _grid_summary(grid) + f" flagged_cells={flagged}")]


def _run_limit_equal(sc, out_dir):
    from .limits import limit_curve_equal_infinite

    params = _market_params(sc["market"])
    g = sc["grid"]
    grid = limit_curve_equal_infinite(
        sc["face"], params, _quad_spec(sc), n_cells=g["n_cells"], lo=g["lo"], hi=g["hi"]
    )
    path = os.path.join(out_dir, sc["outputs"]["curve"])
    _write_grid(grid, sc, path)
    return [_artifact(path, "density_curve", _grid_summary(grid))]


def _run_limit_fin_vs_inf(sc, out_dir):
    from .limits import limit_grid_finite_vs_infinite

    params = _market_params(sc["market"])
    g = sc["grid"]
    grid = limit_grid_finite_vs_infinite(
        sc["r_one"], sc["face"], params, _quad_spec(sc),
        n_cells=g["n_cells"], lo=g["lo"], hi=g["hi"],
    )
    path = os.path.join(out_dir, sc["outputs"]["density"])
    _write_grid(grid, sc, path)
    return [_artifact(path, "density_grid", _grid_summary(grid))]


def _run_limit_two_markets(sc, out_dir):
    from .limits import limit_grid_two_markets

    g = sc["grid"]
    grid = limit_grid_two_markets(
        sc["face_one"], sc["face_two"],
        _market_params(sc["market_one"]), _market_params(sc["market_two"]),
        _quad_spec(sc), n_cells=g["n_cells"], lo=g["lo"], hi=g["hi"],
    )
    path = os.path.join(out_dir, sc["outputs"]["density"])
    _write_grid(grid, sc, path)
    return [_artifact(path, "density_grid", _grid_summary(grid))]


def _run_no_default(sc, out_dir):
    from .engine import no_default_probability

    quad = _quad_spec(sc)
    mus = sc.get("mu_values", [sc["market"]["mu"]])
    rows = []
    for mu in mus:
        market = dict(sc["market"])
        market["mu"] = mu
        params = _market_params(market)
        for k in sc["k_values"]:
            rows.append((float(mu), int(k), no_default_probability(k, sc["face"], params, quad)))
    path = os.path.join(out_dir, sc["outputs"]["table"])
    _write_table(rows, ["mu", "k_obligors", "p_no_default"], sc, path)
    lo, hi = rows[-1][2], rows[0][2]
    return [_artifact(path, "table", f"rows={len(rows)} p_nd range [{lo:.4g}, {hi:.4g}]")]


def _run_correlation_sweep(sc, out_dir):
    from .engine import loss_correlation

    quad = _quad_spec(sc)
    rows = []
    for c in sc["c_values"]:
        market = dict(sc["market"])
        market["c"] = c
        for k in sc["portfolio"]["k_values"]:
            scen = _nosub_scenario_for(
                {"portfolio": {"face": sc["portfolio"]["face"], "layout": "halves"}},
                k,
                params=_market_params(market),
            )
            if sc["method"] == "analytic":
                corr = loss_correlation(scen, method="analytic", quad=quad)
            else:
                seed = sc["mc"]["rng_seed"] + int(round(1000 * c)) * 1000 + k
                cfg = McConfig(**dict(sc["mc"], rng_seed=seed))
                corr = loss_correlation(scen, method="mc", mc_config=cfg)
            rows.append((float(c), int(k), float(corr)))
    path = os.path.join(out_dir, sc["outputs"]["table"])
    _write_table(rows, ["c", "k_obligors", "loss_correlation"], sc, path)
    return [_artifact(path, "table", f"rows={len(rows)} corr range [{min(r[2] for r in rows):.4f}, {max(r[2] for r in rows):.4f}]")]


def _load_returns_csv(path: str) -> np.ndarray:
    """The returns matrix of a CSV file with an optional header row; a file
    that cannot be read as numbers is rejected at ``/source/path``."""

    def _numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    try:
        with open(path) as fh:
            first = fh.readline()
        skip = 0 if all(_numeric(t) for t in first.strip().split(",") if t) else 1
        return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ScenarioError(
            f"cannot read returns from {path!r}: {exc}", pointer="/source/path"
        ) from exc


def _run_calibrate(sc, out_dir):
    from . import mc as mcmod
    from .calibration import ReturnSample, effective_correlation, fit_n

    src = sc["source"]
    if src["kind"] == "synthetic":
        params = _market_params(src.get("market", _DEFAULT_MARKET))
        rng = np.random.default_rng(src["rng_seed"])
        data = mcmod.sample_compound_returns(params, src["k_assets"], src["m_samples"], rng)
        truth = {"n_fluct": params.n_fluct, "c": params.c}
    else:
        data = _load_returns_csv(src["path"])
        truth = None
    sample = ReturnSample(data)
    fit_cfg = sc["fit"]
    grid = np.geomspace(fit_cfg["grid_lo"], fit_cfg["grid_hi"], fit_cfg["grid_points"])
    fit = fit_n(sample, grid=grid)
    c_hat = effective_correlation(sample.sigma_hat) if sample.k_assets > 1 else None
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
    path = os.path.join(out_dir, sc["outputs"]["report"])
    _write_json(payload, sc, path)
    c_txt = "n/a" if c_hat is None else f"{c_hat:.4f}"
    return [_artifact(path, "fit_report", f"n_hat={fit.n_hat:.3f} c_hat={c_txt}")]


def _run_mc_validate(sc, out_dir):
    from . import mc as mcmod
    from .engine import (
        SubordinatedScenario,
        no_default_probability,
        nosub_cell_masses,
        subordinated_cell_masses,
    )

    quad = _quad_spec(sc)
    config = McConfig(**sc["mc"])
    k = sc["portfolio"]["k_obligors"]
    if "tranches" in sc:
        tr = SubordinationSpec(
            f_senior=sc["tranches"]["f_senior"], f_junior=sc["tranches"]["f_junior"]
        )
        scen = SubordinatedScenario(
            k_obligors=k, tranches=tr, params=_market_params(sc["market"])
        )
    else:
        scen = _nosub_scenario_for(sc, k)
    run = mcmod.estimate(scen, config)
    edges = np.linspace(0.0, 1.0, config.n_bins + 1)
    edges_open = edges.copy()
    edges_open[-1] = np.inf
    # McRun histograms are already normalized to probabilities
    if "tranches" in sc:
        analytic = subordinated_cell_masses(scen, edges_open, edges_open, quad)
        p_mc = np.asarray(run.hist_2d, dtype=float)
        interior = np.ones_like(analytic, dtype=bool)
        interior[0, :] = False
        interior[:, 0] = False
    elif scen.n_creditors == 2:
        analytic = nosub_cell_masses(scen, edges_open, edges_open, quad)
        p_mc = np.asarray(run.hist_2d, dtype=float)
        interior = np.ones_like(analytic, dtype=bool)
        interior[0, :] = False
        interior[:, 0] = False
    else:
        analytic = nosub_cell_masses(scen, edges_open, quad=quad)
        p_mc = np.asarray(run.hist_1d[0], dtype=float)
        interior = np.ones_like(analytic, dtype=bool)
        interior[0] = False
    n = config.n_samples
    compare = interior & (analytic > sc["min_mass"])
    se = np.sqrt(np.maximum(analytic * (1.0 - analytic), 1e-30) / n)
    z = np.zeros_like(analytic)
    z[compare] = (p_mc[compare] - analytic[compare]) / se[compare]
    max_abs_z = float(np.max(np.abs(z))) if np.any(compare) else 0.0
    p_nd = no_default_probability(k, scen.obligor_face, scen.params, quad)
    z_nd = (run.p_no_default - p_nd) / max(run.p_no_default_se, 1e-15)
    payload = {
        "n_samples": n,
        "n_cells_compared": int(np.sum(compare)),
        "min_mass": sc["min_mass"],
        "max_abs_z": max_abs_z,
        "mean_abs_z": float(np.mean(np.abs(z[compare]))) if np.any(compare) else 0.0,
        "analytic_mass_compared": float(np.sum(analytic[compare])),
        "mc_mass_compared": float(np.sum(p_mc[compare])),
        "no_default": {
            "analytic": p_nd,
            "mc": run.p_no_default,
            "mc_se": run.p_no_default_se,
            "z": float(z_nd),
        },
        "loss_correlation_mc": run.corr,
        "loss_correlation_mc_se": run.corr_se,
        "subordination_violations": run.subordination_violations,
        "agreement": bool(max_abs_z <= 5.0 and abs(z_nd) <= 5.0),
    }
    path = os.path.join(out_dir, sc["outputs"]["report"])
    _write_json(payload, sc, path)
    return [
        _artifact(
            path,
            "agreement_report",
            f"max|z|={max_abs_z:.2f} over {int(np.sum(compare))} cells "
            f"agree={payload['agreement']}",
        )
    ]


_RUNNERS = {
    "subordinated": _run_subordinated,
    "nosub": _run_nosub,
    "nosub-multimarket": _run_multimarket,
    "limit-subordinated": _run_limit_subordinated,
    "limit-equal": _run_limit_equal,
    "limit-finite-vs-infinite": _run_limit_fin_vs_inf,
    "limit-two-markets": _run_limit_two_markets,
    "no-default": _run_no_default,
    "correlation-sweep": _run_correlation_sweep,
    "calibrate": _run_calibrate,
    "mc-validate": _run_mc_validate,
}


def run_scenario(doc: dict, out_dir: str = ".") -> list:
    """Resolve and execute a scenario; returns artifact records.

    Each record has path, kind and a one-line summary.  Artifacts embed the
    resolved scenario and its fingerprint; reruns are byte-identical.
    """
    sc = resolve_scenario(doc)
    os.makedirs(out_dir, exist_ok=True)
    return _RUNNERS[sc["mode"]](sc, out_dir)
