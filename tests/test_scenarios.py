"""Scenario documents: validation, defaults, overrides, and the runners."""

import copy
import json
import math
import warnings

import numpy as np
import pytest

from portloss import calibration, engine, limits, mc
from portloss.errors import ScenarioError
from portloss.grids import SCHEMA_VERSION, scenario_fingerprint
from portloss.scenarios import (
    _DOCUMENTS,
    _KEYWORDS,
    _MODES,
    MODES,
    _schema_check,
    apply_overrides,
    bundled_scenarios,
    resolve_scenario,
    run_scenario,
    validate_scenario,
)

EXPECTED_IDS = {
    "nosub_equal_halves_trio",
    "correlation_sweep_full",
    "subordinated_k200",
    "nosub_halves_k100",
    "limit_subordinated_ridge",
    "limit_equal_loss_curve",
    "limit_small_vs_large_r10",
    "limit_two_markets_base",
    "no_default_k_scan",
    "multimarket_split_pair",
    "calibrate_synthetic_base",
    "mc_validate_halves_k100",
}


def test_bundled_set_is_complete_and_valid():
    docs = bundled_scenarios()
    assert set(docs) == EXPECTED_IDS
    for sid, doc in docs.items():
        rep = validate_scenario(doc)
        assert rep["valid"] is True
        assert rep["id"] == sid
        assert rep["mode"] in MODES
        fp = rep["fingerprint"]
        assert len(fp) == 16 and all(ch in "0123456789abcdef" for ch in fp)
        cost = rep["cost"]
        assert cost["grid_points"] > 0 and cost["est_seconds"] > 0


# fingerprints of the resolved bundled documents; a refactor of the
# scenario layer must leave every one of them unchanged
BUNDLED_FINGERPRINTS = {
    "calibrate_synthetic_base": "6c7d015fd9c656d2",
    "correlation_sweep_full": "7983746ed415d0f6",
    "limit_equal_loss_curve": "379e14d31bebaaef",
    "limit_small_vs_large_r10": "11b45571dca97e03",
    "limit_subordinated_ridge": "4e93f3b2321f9cb7",
    "limit_two_markets_base": "7ea3176ad9fabedd",
    "mc_validate_halves_k100": "e6cc468a9875b7f0",
    "multimarket_split_pair": "4597062a685604e7",
    "no_default_k_scan": "2e4143b834f5aae7",
    "nosub_equal_halves_trio": "9bdd46c7f8171f17",
    "nosub_halves_k100": "e24a16d56f17c12a",
    "subordinated_k200": "9dbe3556e53cffb6",
}


def test_bundled_fingerprints_are_pinned():
    got = {sid: validate_scenario(doc)["fingerprint"]
           for sid, doc in bundled_scenarios().items()}
    assert got == BUNDLED_FINGERPRINTS


def test_bundled_returns_copies():
    a = bundled_scenarios()
    a["no_default_k_scan"]["k_values"] = [1]
    assert bundled_scenarios()["no_default_k_scan"]["k_values"] != [1]


def test_defaults_are_injected():
    sc = resolve_scenario({"mode": "nosub", "portfolio": {"k_obligors": 10}})
    assert sc["id"] == "custom"
    assert sc["schema_version"] == SCHEMA_VERSION
    assert sc["market"] == {
        "mu": 0.17, "rho": 0.35, "c": 0.28, "n_fluct": 6, "t_mat": 1.0,
        "v0": 100.0,
    }
    assert sc["portfolio"]["layout"] == "halves"
    assert sc["quadrature"]["z_nodes"] == 64
    # document values win over defaults
    sc2 = resolve_scenario(
        {"mode": "nosub", "portfolio": {"k_obligors": 10}, "market": {"c": 0.5}})
    assert sc2["market"]["c"] == 0.5 and sc2["market"]["mu"] == 0.17


def test_fingerprint_stable_under_output_renames():
    doc = {"mode": "nosub", "portfolio": {"k_obligors": 10}}
    a = resolve_scenario(doc)
    b = resolve_scenario(
        dict(doc, outputs={"density": "renamed_{k}.csv"}))
    assert scenario_fingerprint(a) == scenario_fingerprint(b)
    c = resolve_scenario(
        {"mode": "nosub", "portfolio": {"k_obligors": 12}})
    assert scenario_fingerprint(a) != scenario_fingerprint(c)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"mode": "frobnicate"}, "/mode"),
        ({}, "/mode"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10},
          "schema_version": "v999"}, "/schema_version"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 11}},
         "/portfolio/k_obligors"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10, "layout": "overlap"}},
         "/portfolio/overlap"),
        ({"mode": "nosub", "portfolio": {
            "k_obligors": 10,
            "overlap": {"r1": 0.5, "r12": 0.0, "gamma": 0.5, "f0": 75.0}}},
         "/portfolio/layout"),
        ({"mode": "subordinated", "portfolio": {"k_obligors": 10},
          "tranches": {"f_senior": 37.0, "f_junior": 38.0},
          "grid": {"lo": 0.5, "hi": 0.5}}, "/grid/hi"),
        # antithetic sampling is retired: its key is an unknown property
        ({"mode": "mc-validate", "portfolio": {"k_obligors": 100},
          "mc": {"antithetic": True, "n_samples": 200_001}}, "/mc"),
        ({"mode": "calibrate", "source": {"kind": "csv"}}, "/source/path"),
        # the schema check: a bool is not a number
        ({"mode": "nosub", "portfolio": {"k_obligors": 10}, "market": {"mu": True}},
         "/market/mu"),
        # a bad item of a one-or-many list is reported at the item
        ({"mode": "nosub", "portfolio": {"k_obligors": [10, 2.5]}},
         "/portfolio/k_obligors/1"),
        ({"mode": "no-default", "face": 75.0, "k_values": []}, "/k_values"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10}, "id": "a b"}, "/id"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10}, "outputs": {"density": ""}},
         "/outputs/density"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10}, "market": {"bogus": 1}},
         "/market"),
        # two faults: the first in schema order wins (grid comes before
        # quadrature), and at one object an unknown key comes first
        ({"mode": "nosub", "portfolio": {"k_obligors": 10},
          "quadrature": {"mode": "x"}, "grid": {"n_cells": 2.5}}, "/grid/n_cells"),
        ({"mode": "nosub", "portfolio": {"k_obligors": 10},
          "market": {"mu": "x", "bogus": 1}}, "/market"),
        # only the subordinated mode runs the adaptive rule; the others
        # refuse it rather than run the fixed rule
        ({"mode": "nosub", "portfolio": {"k_obligors": 10},
          "quadrature": {"mode": "adaptive"}}, "/quadrature/mode"),
        ({"mode": "mc-validate", "portfolio": {"k_obligors": 100},
          "tranches": {"f_senior": 37.0, "f_junior": 38.0},
          "quadrature": {"mode": "adaptive"}}, "/quadrature/mode"),
    ],
)
def test_rejections_carry_a_pointer(doc, fragment):
    with pytest.raises(ScenarioError) as err:
        resolve_scenario(doc)
    assert err.value.pointer == fragment


_MC_DOC = {"mode": "mc-validate", "portfolio": {"k_obligors": 100}}


@pytest.mark.parametrize(
    "block, pointer",
    [
        ({"quadrature": {"z_nodes": 513}}, "/quadrature"),
        ({"quadrature": {"u_nodes": 7}}, "/quadrature"),
        ({"mc": {"n_samples": 9999}}, "/mc"),
        ({"mc": {"chunk_size": 127}}, "/mc"),
        ({"mc": {"n_bins": 1001}}, "/mc"),
        ({"mc": {"rng_seed": -1}}, "/mc"),
        ({"market": {"c": 1.0}}, "/market"),
        ({"tranches": {"f_senior": 37.0, "f_junior": 0.0}}, "/tranches/f_junior"),
        ({"portfolio": {"k_obligors": 100, "layout": "overlap",
                        "overlap": {"r1": 0.6, "r12": 0.5, "gamma": 0.5, "f0": 75.0}}},
         "/portfolio/overlap"),
        ({"portfolio": {"k_obligors": 0, "layout": "single"}}, "/portfolio"),
        ({"tranches": {"f_senior": -1.0, "f_junior": 1.0}}, "/tranches/f_senior"),
    ],
)
def test_constructor_ranges_reject_at_the_block(block, pointer):
    # the schema states types only; each range belongs to the constructor
    # of the block's domain object
    with pytest.raises(ScenarioError) as err:
        resolve_scenario(dict(_MC_DOC, **block))
    assert err.value.pointer == pointer


@pytest.mark.parametrize(
    "sid, sets",
    [
        ("no_default_k_scan", ["k_values=[10.0]", "quadrature.u_nodes=16.0"]),
        ("limit_subordinated_ridge", ["scan.n_scan=16.0", "grid.n_cells=4.0"]),
        ("calibrate_synthetic_base",
         ["fit.grid_points=9.0", "source.m_samples=200.0", "source.rng_seed=1.0"]),
    ],
)
def test_integral_floats_count_as_integers(tmp_path, sid, sets):
    # JSON Schema counts 16.0 as an integer, so validate accepts it and
    # run must too
    arts = run_scenario(apply_overrides(bundled_scenarios()[sid], sets), str(tmp_path))
    assert arts and all((tmp_path / a["path"]).exists() for a in arts)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError) as err:
        resolve_scenario(
            {"mode": "nosub", "portfolio": {"k_obligors": 10}, "bogus": 1})
    assert "bogus" in str(err.value)


def test_schemas_use_only_the_checker_keywords():
    # _schema_check ignores a keyword it does not know and treats every
    # object as closed, so the schemas must stay within what it checks
    known = set(_KEYWORDS) | {"type", "oneOf", "items", "properties", "required",
                              "additionalProperties"}

    def walk(schema):
        assert set(schema) <= known, set(schema) - known
        if schema.get("type") == "object":
            assert schema["additionalProperties"] is False
        subs = list(schema.get("properties", {}).values()) + schema.get("oneOf", [])
        for sub in subs + ([schema["items"]] if "items" in schema else []):
            walk(sub)

    for schema, _ in _DOCUMENTS.values():
        walk(schema)


def test_mode_table_defaults_fit_their_blocks():
    # a default passes its block's schema, less the block's own required
    # keys, which the document supplies; a required block has no default,
    # since the merged default would always satisfy the requirement
    for mode, entry in _MODES.items():
        assert set(entry.required) <= set(entry.blocks), mode
        for key, block in entry.blocks.items():
            if isinstance(block, tuple):
                schema, default = block
                assert key not in entry.required, (mode, key)
                _schema_check(default, dict(schema, required=[]), (mode, key))


# every leaf of a resolved bundled document is set, in turn, to each value
_LEAF_VALUES = [0, -1, 1e-9, 1e9, 1e300, -1e300, 0.5, 2.5, 7, "x", True, None, [], {}, [1, 2],
                1.7e308, 5e-324, math.nan]


def _leaves(node, path=()):
    """Paths to the leaves of a JSON document: its scalars and its empty
    lists and dicts, inside lists item by item."""
    if not isinstance(node, (dict, list)) or not node:
        yield path
        return
    for key, val in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(val, path + (key,))


def test_validate_refuses_every_single_leaf_change_cleanly():
    # 4,824 documents: validate accepts each or raises ScenarioError, with
    # no other exception and no RuntimeWarning
    count = 0
    for doc in bundled_scenarios().values():
        resolved = resolve_scenario(doc)
        for path in _leaves(resolved):
            for value in _LEAF_VALUES:
                changed = copy.deepcopy(resolved)
                node = changed
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        validate_scenario(changed)
                    except ScenarioError:
                        pass
                count += 1
    assert count == 4824


def test_default_blocks_are_separate_copies():
    # limit-two-markets fills market_one and market_two from one default
    # dict; setting one must leave the other alone
    sc = resolve_scenario(bundled_scenarios()["limit_two_markets_base"])
    out = apply_overrides(sc, ["market_two.rho=0.5"])
    assert out["market_two"]["rho"] == 0.5
    assert out["market_one"]["rho"] == 0.35


def test_too_many_markets_points_at_mc_fallback():
    doc = {"mode": "nosub-multimarket",
           "markets": [{"k_obligors": 2} for _ in range(5)]}
    with pytest.raises(ScenarioError) as err:
        resolve_scenario(doc)
    assert err.value.pointer == "/markets"
    assert "mc-validate" in str(err.value)


def test_overrides_dotted_paths():
    doc = bundled_scenarios()["nosub_halves_k100"]
    out = apply_overrides(
        doc,
        ["market.mu=0.25", "portfolio.k_obligors=[10,20]",
         "outputs.density=renamed.csv"],
    )
    assert out["market"]["mu"] == 0.25
    assert out["portfolio"]["k_obligors"] == [10, 20]
    assert out["outputs"]["density"] == "renamed.csv"
    assert "market" not in doc  # original untouched


def test_overrides_list_index_and_errors():
    doc = bundled_scenarios()["multimarket_split_pair"]
    out = apply_overrides(doc, ["markets.1.k_obligors=50"])
    assert out["markets"][1]["k_obligors"] == 50
    assert out["markets"][0]["k_obligors"] == 20
    with pytest.raises(ScenarioError):
        apply_overrides(doc, ["no-equals-sign"])
    with pytest.raises(ScenarioError):
        apply_overrides(doc, ["mode.deeper=1"])


def test_estimate_cost_scales_with_samples():
    base = bundled_scenarios()["mc_validate_halves_k100"]
    more = apply_overrides(base, ["mc.n_samples=400000"])
    assert (validate_scenario(more)["cost"]["mc_samples"]
            == 2 * validate_scenario(base)["cost"]["mc_samples"])


def _est(sid, *sets):
    doc = apply_overrides(bundled_scenarios()[sid], list(sets))
    return validate_scenario(doc)["cost"]["est_seconds"]


def _returns_csv(tmp_path):
    """A returns CSV of 300 samples of 7 assets under a header row."""
    rows = ",".join(["0.01"] * 7) + "\n"
    csv = tmp_path / "returns.csv"
    csv.write_text("a,b,c,d,e,f,g\n" + rows * 300)
    return str(csv)


# (grid_points, quad_nodes_per_point, mc_samples) of each build's cost
# report: the work counted from what the mode function built
_COUNTED_WORK = {
    "calibrate_synthetic_base": (285000, 20, 0),
    "correlation_sweep_full": (20, 4096, 0),
    "limit_equal_loss_curve": (201, 64, 0),
    "limit_small_vs_large_r10": (3721, 64, 0),
    "limit_subordinated_ridge": (3721, 96, 0),
    "limit_two_markets_base": (3721, 64, 0),
    "mc_validate_halves_k100": (400, 4096, 200000),
    "multimarket_split_pair": (201, 36864, 0),
    "no_default_k_scan": (21, 4096, 0),
    "nosub_equal_halves_trio": (11163, 4096, 0),
    "nosub_halves_k100": (6561, 4096, 0),
    "subordinated_k200": (6561, 4096, 0),
    "adaptive": (6561, 160 * 96, 0),
    "csv": (57 * 300, 7, 0),
    "mc_sweep": (20, 4096, 20 * 200000),
}


def test_each_build_reports_the_work_it_counted(tmp_path):
    docs = bundled_scenarios()
    docs["adaptive"] = apply_overrides(docs["subordinated_k200"], ['quadrature.mode="adaptive"'])
    docs["csv"] = {"mode": "calibrate", "source": {"kind": "csv", "path": _returns_csv(tmp_path)}}
    docs["mc_sweep"] = apply_overrides(docs["correlation_sweep_full"], ['method="mc"'])
    got = {}
    for name, doc in docs.items():
        cost = validate_scenario(doc)["cost"]
        got[name] = (cost["grid_points"], cost["quad_nodes_per_point"], cost["mc_samples"])
    assert got == _COUNTED_WORK


def test_validate_reads_a_returns_csv_once(tmp_path, monkeypatch):
    import builtins

    path, opened = _returns_csv(tmp_path), []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if str(file) == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    validate_scenario({"mode": "calibrate", "source": {"kind": "csv", "path": path}})
    assert len(opened) == 1


def _step(sid, path, a, b, *sets):
    """Change of the estimate when the leaf at ``path`` goes from a to b."""
    return _est(sid, f"{path}={b}", *sets) - _est(sid, f"{path}={a}", *sets)


def test_mc_cost_scales_with_samples_times_k():
    sid, n = "mc_validate_halves_k100", "mc.n_samples"
    step = _step(sid, n, 400000, 800000)
    assert step > 0
    assert _step(sid, n, 800000, 1600000) == pytest.approx(2 * step, rel=1e-2)
    assert _step(sid, n, 400000, 800000, "portfolio.k_obligors=300") == pytest.approx(
        3 * step, rel=1e-2
    )


def test_wishart_cost_scales_with_n_fluct_times_samples_times_k():
    sid, n, wishart = "mc_validate_halves_k100", "market.n_fluct", 'mc.sampler="wishart"'
    # at 2e6 samples a step is about 1 s, so est_seconds' rounding to 1 ms
    # stays far inside the tolerance
    big = "mc.n_samples=2000000"
    step = _step(sid, n, 6, 12, wishart, big)
    assert step > 0
    assert _step(sid, n, 12, 18, wishart, big) == pytest.approx(step, rel=1e-2)
    assert _step(sid, n, 6, 12, wishart, "mc.n_samples=4000000") == pytest.approx(2 * step, rel=1e-2)
    assert _step(sid, n, 6, 12, wishart, big, "portfolio.k_obligors=200") == pytest.approx(
        2 * step, rel=1e-2
    )
    # the compound sampler's cost does not depend on N
    assert _step(sid, n, 6, 12) == 0


def test_calibration_cost_scales_with_k_times_m_times_grid_points():
    sid, grid, k = "calibrate_synthetic_base", "fit.grid_points", "source.k_assets"
    big = "source.m_samples=50000"
    step = _step(sid, grid, 50, 100, big)
    assert step > 0
    assert _step(sid, grid, 100, 200, big) == pytest.approx(2 * step, rel=1e-2)
    assert _step(sid, grid, 50, 100, "source.m_samples=100000") == pytest.approx(2 * step, rel=1e-2)
    # linear in K, with a slope proportional to M x grid points
    step = _step(sid, k, 20, 120, big)
    assert step > 0
    assert _step(sid, k, 120, 220, big) == pytest.approx(step, rel=1e-2)
    assert _step(sid, k, 20, 120, "source.m_samples=100000") == pytest.approx(2 * step, rel=1e-2)
    assert _step(sid, k, 20, 120, big, "fit.grid_points=114") == pytest.approx(2 * step, rel=1e-2)


def test_csv_calibration_cost_reads_the_file_shape(tmp_path):
    # 300 returns of 7 assets, priced at the file's shape and not at the
    # synthetic source's defaults
    csv = _returns_csv(tmp_path)
    cost = validate_scenario({"mode": "calibrate", "source": {"kind": "csv", "path": csv}})
    assert cost["cost"]["grid_points"] == 57 * 300
    assert cost["cost"]["quad_nodes_per_point"] == 7


def test_adaptive_cost_counts_localized_tables():
    # an 81x81 adaptive grid at K = 2000 takes about 5.6 s on 2 CPUs; the
    # estimate must land within 3x of that
    doc = apply_overrides(
        bundled_scenarios()["subordinated_k200"],
        ['quadrature.mode="adaptive"', "portfolio.k_obligors=2000"],
    )
    cost = validate_scenario(doc)["cost"]
    assert cost["quad_nodes_per_point"] == 160 * 96
    assert 1.9 <= cost["est_seconds"] <= 16.8


_COMPUTING_ENTRY_POINTS = {
    engine: (
        "density_grid_subordinated", "density_grid_nosub", "subordinated_cell_masses",
        "nosub_cell_masses", "loss_correlation", "no_default_probability", "tail_probability",
    ),
    limits: (
        "limit_grid_subordinated", "limit_curve_equal_infinite",
        "limit_grid_finite_vs_infinite", "limit_grid_two_markets",
    ),
    mc: ("estimate", "sample_compound_returns"),
    calibration: ("fit_n",),
}


def test_validate_computes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate must not compute")

    for module, names in _COMPUTING_ENTRY_POINTS.items():
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    for sid, doc in bundled_scenarios().items():
        assert validate_scenario(doc)["valid"] is True, sid


@pytest.mark.parametrize("sign", [1, -1])
def test_runs_at_the_market_bounds_warn_of_nothing(tmp_path, sign):
    # log-drift +-LOG_SCALE_MAX with the horizon variance at LOG_SCALE_MAX,
    # and v0/face at V0_FACE_MIN; this suite turns a RuntimeWarning into
    # an error
    from portloss.params import LOG_SCALE_MAX, V0_FACE_MIN

    t_mat = LOG_SCALE_MAX / 0.35**2
    market = f'market={{"mu":{sign * LOG_SCALE_MAX / t_mat + 0.35**2 / 2!r},"t_mat":{t_mat!r}}}'
    floor = f'market={{"v0":{75 * V0_FACE_MIN!r}}}'
    for sid, sets in [
        ("nosub_halves_k100", ["grid.n_cells=8"]),
        ("limit_equal_loss_curve", ["grid.n_cells=8"]),
        ("mc_validate_halves_k100", ["mc.n_samples=20000"]),
    ]:
        for over in (market, floor):
            doc = apply_overrides(bundled_scenarios()[sid], sets + [over])
            assert run_scenario(doc, out_dir=str(tmp_path / sid))


def test_run_builds_the_document_once(monkeypatch, tmp_path):
    # the jobs come from the build that validated the document
    calls = []
    entry = _MODES["no-default"]

    def counted(*args):
        calls.append(args)
        return entry.build(*args)

    monkeypatch.setitem(_MODES, "no-default", entry._replace(build=counted))
    run_scenario(bundled_scenarios()["no_default_k_scan"], out_dir=str(tmp_path))
    assert len(calls) == 1


def test_run_is_byte_identical(tmp_path):
    doc = bundled_scenarios()["no_default_k_scan"]
    arts1 = run_scenario(doc, out_dir=str(tmp_path / "a"))
    arts2 = run_scenario(doc, out_dir=str(tmp_path / "b"))
    assert len(arts1) == len(arts2) == 1
    assert arts1[0]["kind"] == arts2[0]["kind"]
    b1 = (tmp_path / "a" / "no_default.csv").read_bytes()
    b2 = (tmp_path / "b" / "no_default.csv").read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("# schema_version")
    assert "fingerprint" in text


def test_no_default_table_contents(tmp_path):
    arts = run_scenario(
        bundled_scenarios()["no_default_k_scan"], out_dir=str(tmp_path))
    lines = [ln for ln in (tmp_path / "no_default.csv").read_text().splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 7 * 3
    ik = header.index("k_obligors")
    imu = header.index("mu")
    ip = header.index("p_no_default")
    by_mu = {}
    for row in rows:
        by_mu.setdefault(float(row[imu]), []).append(
            (int(row[ik]), float(row[ip])))
    for mu, pairs in by_mu.items():
        pairs.sort()
        ps = [p for _, p in pairs]
        assert all(0 < p < 1 for p in ps)
        assert all(b < a for a, b in zip(ps, ps[1:]))  # decreasing in K


def test_mc_validate_runner_agrees(tmp_path):
    arts = run_scenario(
        bundled_scenarios()["mc_validate_halves_k100"], out_dir=str(tmp_path))
    assert arts[0]["kind"] == "agreement_report"
    env = json.loads((tmp_path / "mc_validation.json").read_text())
    rep = env["report"]
    assert rep["agreement"] is True
    assert rep["max_abs_z"] <= 5.0
    assert rep["n_cells_compared"] > 0
    assert rep["subordination_violations"] == 0
    assert abs(rep["no_default"]["z"]) <= 5.0
    assert env["fingerprint"] == scenario_fingerprint(env["scenario"])
    # compound samples are independent: no design effect
    assert rep["epoch_samples"] == 1 and rep["design_effect"] is None
    assert "deff" not in arts[0]["summary"]


def test_mc_validate_inflates_wishart_z_by_the_design_effect(tmp_path, monkeypatch):
    """A Wishart run's cell z is the binomial z over sqrt(deff), deff pooled
    over the compared cells with an expected count of at least 200, and
    the no-default z is over the atom's own design effect, which is well
    filled here."""
    seen = {}
    estimate, cell_masses = mc.estimate, engine.nosub_cell_masses
    monkeypatch.setattr(mc, "estimate", lambda *a: seen.setdefault("run", estimate(*a)))
    monkeypatch.setattr(
        engine, "nosub_cell_masses", lambda *a: seen.setdefault("analytic", cell_masses(*a)))
    doc = apply_overrides(bundled_scenarios()["mc_validate_halves_k100"],
                          ['mc.sampler="wishart"', "mc.n_samples=40000"])
    (art,) = run_scenario(doc, out_dir=str(tmp_path))
    rep = json.loads((tmp_path / "mc_validation.json").read_text())["report"]
    run, analytic = seen["run"], seen["analytic"]
    n = run.n
    compare = analytic > rep["min_mass"]
    compare[0] = compare[:, 0] = False
    z = (run.hist_2d - analytic)[compare] / np.sqrt(analytic * (1.0 - analytic) / n)[compare]
    pooled = compare & (analytic * n >= 200)
    deff, deff_nd = run.design_effect(pooled), run.design_effect()
    assert rep["epoch_samples"] == mc._WISHART_EPOCH
    assert rep["design_effect"] == {
        "cells": deff, "pooled_over": np.argwhere(pooled).tolist(), "no_default": deff_nd}
    assert deff > 1.0 and deff_nd > 1.0
    assert rep["max_abs_z"] == pytest.approx(np.max(np.abs(z)) / math.sqrt(deff), rel=1e-12)
    z_nd = (run.p_no_default - rep["no_default"]["analytic"]) / run.p_no_default_se
    assert rep["no_default"]["z"] == pytest.approx(z_nd / math.sqrt(deff_nd), rel=1e-12)
    assert f"deff={deff:.3f}" in art["summary"]
    assert rep["chi2"]["stat"] == pytest.approx(np.sum(z**2) / deff, rel=1e-12)


def test_mc_validate_reports_chi_square_over_compared_cells(tmp_path):
    """Sum of z^2 over the compared cells, one degree of freedom per cell,
    and its upper-tail p-value, that of scipy.stats.chi2; the agreement
    rule does not read it."""
    from scipy.stats import chi2

    doc = apply_overrides(bundled_scenarios()["mc_validate_halves_k100"],
                          ["mc.n_samples=20000", "mc.n_bins=20"])
    run_scenario(doc, out_dir=str(tmp_path))
    rep = json.loads((tmp_path / "mc_validation.json").read_text())["report"]
    stat, dof, p_value = rep["chi2"]["stat"], rep["chi2"]["dof"], rep["chi2"]["p_value"]
    assert dof == rep["n_cells_compared"] > 0
    assert rep["max_abs_z"] ** 2 <= stat <= dof * rep["max_abs_z"] ** 2
    assert 0.0 < p_value < 1.0
    assert p_value == pytest.approx(chi2.sf(stat, dof), rel=1e-12)


def test_calibrate_runner_report(tmp_path):
    arts = run_scenario(
        bundled_scenarios()["calibrate_synthetic_base"], out_dir=str(tmp_path))
    env = json.loads((tmp_path / "calibration_report.json").read_text())
    rep = env["report"]
    assert rep["truth"] == {"n_fluct": 6, "c": 0.28}
    assert 5.0 <= rep["n_hat"] <= 7.0
    assert abs(rep["c_hat"] - 0.28) < 0.05
    assert rep["boundary"] is False
