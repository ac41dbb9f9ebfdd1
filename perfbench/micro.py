"""Layer microbenchmarks for the traced pass.

Each one times a public entry point of one layer on the workload's own
market parameters and tranche faces.  Work counts and waste ratios that
follow from the inputs alone are labelled "computed".
"""

from __future__ import annotations

import statistics
import time

import numpy as np

RIDGE = "limit_subordinated_ridge"  # source of the (target, z) grid the solvers are timed on
Z0_PAIR = (0.02, 0.2)  # a (senior, junior) loss pair on the limit ridge, where solve_z0 has a root
NEGLIGIBLE_WEIGHT = 1e-16
MC_K = 100

UNITS = {
    "quadrature.rule_build_ms": "ms",
    "quadrature.negligible_node_share": "share",
    "quadrature.negligible_node_mass": "share",
    "moments.scalar_call_us": "us",
    "moments.scalar_du_call_us": "us",
    "moments.vector_ns_per_elem": "ns",
    "engine.table_build_ms": "ms",
    "limits.solve_u_us": "us",
    "limits.noroot_share": "share",
    "limits.solve_u_plain_us": "us",
    "limits.solve_z0_ms": "ms",
    "mc.draw_samples_per_s": "1/s",
    "mc.wishart_samples_per_s": "1/s",
    "mc.estimate_samples_per_s": "1/s",
    "mc.loss_eval_share": "share",
}


def _median_time(fn, repeat: int) -> float:
    """Median wall seconds of ``repeat`` calls."""
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _per_call(fn, calls: int) -> float:
    t = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t) / calls


def workload_params(docs: list):
    """Market, tranche faces and untranched face of a workload's documents,
    falling back to the bundled ridge scenario's where a workload has none."""
    from portloss import MarketParams, SubordinationSpec
    from portloss.scenarios import bundled_scenarios, resolve_scenario

    ridge = resolve_scenario(bundled_scenarios()[RIDGE])
    market = next((d["market"] for d in docs if "market" in d), ridge["market"])
    tr = next((d["tranches"] for d in docs if "tranches" in d), ridge["tranches"])
    face = next((d["portfolio"]["face"] for d in docs if "face" in d.get("portfolio", {})), 75.0)
    params = MarketParams(**market)
    faces = SubordinationSpec(f_senior=tr["f_senior"], f_junior=tr["f_junior"])
    return params, faces, face, ridge


def run(docs: list, seed: int) -> dict:
    """Metric name -> (value, unit) of every microbenchmark."""
    from portloss import (
        McConfig,
        NoSubScenario,
        OverlapSpec,
        SubordinatedScenario,
        estimate,
        moments,
        quadrature,
        sample_compound,
        sample_wishart,
    )
    from portloss.engine import gaussian_moment_terms
    from portloss.errors import NoRootError
    from portloss.grids import cell_centers
    from portloss.limits import solve_u_plain, solve_u_senior, solve_z0, z_bracket

    params, faces, face, ridge = workload_params(docs)
    n = params.n_fluct
    out = {}

    # quadrature: rule build (uncached) and the weight mass of negligible nodes
    chi2_build = getattr(quadrature.chi2_nodes, "__wrapped__", quadrature.chi2_nodes)
    gauss_build = getattr(quadrature.gauss_nodes, "__wrapped__", quadrature.gauss_nodes)
    out["quadrature.rule_build_ms"] = 1e3 * _median_time(lambda: (chi2_build(n, 64), gauss_build(n, 64)), 7)
    z, wz = quadrature.chi2_nodes(n, 64)
    u, wu = quadrature.gauss_nodes(n, 64)
    w = np.outer(wz, wu)
    small = w < NEGLIGIBLE_WEIGHT
    out["quadrature.negligible_node_share"] = float(small.mean())
    out["quadrature.negligible_node_mass"] = float(w[small].sum())

    # moments: scalar kernel calls and the vectorised kernel on 64x64 nodes
    zz, uu = np.repeat(z, len(u)), np.tile(u, len(z))
    z_mid, u_mid = float(n), 0.1
    out["moments.scalar_call_us"] = 1e6 * _per_call(
        lambda: moments.moment_senior(1, z_mid, u_mid, faces, params), 2000)
    out["moments.scalar_du_call_us"] = 1e6 * _per_call(
        lambda: moments.junior_mean_target_du(z_mid, u_mid, faces, params), 1000)
    out["moments.vector_ns_per_elem"] = 1e9 * _median_time(
        lambda: moments.moment_senior(2, zz, uu, faces, params), 15) / zz.size

    # engine: node-table build for the K=200 tranched portfolio
    scen = SubordinatedScenario(k_obligors=200, tranches=faces, params=params)
    out["engine.table_build_ms"] = 1e3 * _median_time(lambda: gaussian_moment_terms(zz, uu, scen), 9)

    # limits: u roots over the ridge's (target, z) pairs, plain roots on the
    # chi-square nodes, and one z0 solve
    g = ridge["grid"]
    targets = [float(x) for x in cell_centers(g["n_cells"], g["lo"], g["hi"])]
    zs = [float(x) for x in np.linspace(*z_bracket(params), ridge["scan"]["n_scan"])]
    noroot = 0
    t = time.perf_counter()
    for target in targets:
        for zi in zs:
            try:
                solve_u_senior(target, zi, faces, params)
            except NoRootError:
                noroot += 1
    pairs = len(targets) * len(zs)
    out["limits.solve_u_us"] = 1e6 * (time.perf_counter() - t) / pairs
    out["limits.noroot_share"] = noroot / pairs
    t = time.perf_counter()
    for target in targets:
        for zi in z:
            try:
                solve_u_plain(target, float(zi), face, params)
            except NoRootError:
                pass
    out["limits.solve_u_plain_us"] = 1e6 * (time.perf_counter() - t) / (len(targets) * len(z))
    out["limits.solve_z0_ms"] = 1e3 * _median_time(lambda: solve_z0(*Z0_PAIR, faces, params), 3)

    # mc: draw rates of both samplers and the full streamed estimate
    rng = np.random.default_rng(seed)
    halves = NoSubScenario(
        k_obligors=MC_K, params=params, overlap=OverlapSpec(r1=0.5, r12=0.0, gamma=0.5, f0=face))
    cfg = McConfig(n_samples=6 * 8192, rng_seed=seed)
    chunks = [cfg.chunk_size] * (cfg.n_samples // cfg.chunk_size)  # the chunks estimate() draws
    out["mc.draw_samples_per_s"] = cfg.n_samples / _median_time(
        lambda: [sample_compound(params, m, rng, MC_K) for m in chunks], 3)
    out["mc.wishart_samples_per_s"] = 2 * cfg.chunk_size / _median_time(
        lambda: [sample_wishart(params, m, rng, MC_K) for m in chunks[:2]], 3)
    out["mc.estimate_samples_per_s"] = cfg.n_samples / _median_time(lambda: estimate(halves, cfg), 3)
    out["mc.loss_eval_share"] = 1.0 - out["mc.estimate_samples_per_s"] / out["mc.draw_samples_per_s"]
    return {name: (value, UNITS[name]) for name, value in out.items()}

