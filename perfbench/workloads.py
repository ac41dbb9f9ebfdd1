"""Workload definitions for the portloss benchmark.

Each workload is a closed loop: one client runs its ops in order, each op
one ``portloss run`` of a bundled scenario with optional ``--set``
overrides.  The benchmark seed reaches only the RNG seeds of the seeded
simulation ops; every other op is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBORDINATED_K200 = ("portfolio.k_obligors=200", 'tranches={"f_senior":37.0,"f_junior":38.0}')


@dataclass(frozen=True)
class Op:
    label: str  # unique within the benchmark; used in metric names
    scenario: str  # bundled scenario id
    sets: tuple = ()  # fixed ``--set`` overrides
    seed_key: str | None = None  # dotted path that receives the benchmark seed
    analytic: bool = True  # checked against stored reference outputs

    def overrides(self, seed: int) -> list:
        out = list(self.sets)
        if self.seed_key is not None:
            out.append(f"{self.seed_key}={seed}")
        return out


def _mc(label: str, sets: tuple = ()) -> Op:
    return Op(label, "mc_validate_halves_k100", sets, seed_key="mc.rng_seed", analytic=False)


WORKLOADS = {
    "limit-laws": (
        Op("limit_subordinated_ridge", "limit_subordinated_ridge"),
        Op("limit_equal_loss_curve", "limit_equal_loss_curve"),
        Op("limit_small_vs_large_r10", "limit_small_vs_large_r10"),
        Op("limit_two_markets_base", "limit_two_markets_base"),
    ),
    "finite-grids": (
        Op("subordinated_k200", "subordinated_k200"),
        Op("nosub_halves_k100", "nosub_halves_k100"),
        Op("nosub_equal_halves_trio", "nosub_equal_halves_trio"),
        Op("multimarket_split_pair", "multimarket_split_pair"),
    ),
    "simulation": (
        _mc("mc_validate_halves_k100"),
        _mc("mc_validate_halves_k100.wishart", ('mc.sampler="wishart"',)),
        _mc("mc_validate_halves_k100.sub_k200", SUBORDINATED_K200),
        Op("calibrate_synthetic_base", "calibrate_synthetic_base",
           seed_key="source.rng_seed", analytic=False),
        Op("correlation_sweep_full", "correlation_sweep_full"),
        Op("no_default_k_scan", "no_default_k_scan"),
    ),
}

ALL_OPS = tuple(op for ops in WORKLOADS.values() for op in ops)


def seed_value(seed: int) -> int:
    """Map any integer benchmark seed onto the non-negative RNG seed range."""
    return int(seed) % (2**32)


def quick_overrides(resolved: dict) -> list:
    """Shrinking overrides for the quick mode: the same code paths on tiny
    inputs, so a smoke run checks wiring and output shape in seconds."""
    sets = []
    if "grid" in resolved:
        sets.append("grid.n_cells=4")
    if "scan" in resolved:
        sets.append("scan.n_scan=16")
    if "quadrature" in resolved:
        sets += ["quadrature.z_nodes=8", "quadrature.u_nodes=8"]
    if "mc" in resolved:
        sets += ["mc.n_samples=10000", "mc.n_bins=4"]
    if resolved["mode"] == "calibrate":
        sets += ["source.m_samples=200", "fit.grid_points=9"]
    return sets


def _k_list(value) -> list:
    return [int(k) for k in (value if isinstance(value, list) else [value])]


def work_counts(resolved: dict) -> dict:
    """Work an op implies, computed from its resolved document alone.

    cells: density cells written to CSV.  node_evals: nominal mixture
    evaluations of the finite-portfolio grids (cells x quadrature nodes,
    before any pruning).  mc_samples: Monte Carlo draws.
    """
    mode = resolved["mode"]
    n = resolved.get("grid", {}).get("n_cells", 0)
    quad = resolved.get("quadrature", {})
    nodes = quad.get("z_nodes", 0) * quad.get("u_nodes", 0)
    cells = node_evals = samples = 0
    if mode in ("subordinated", "nosub"):
        ks = _k_list(resolved["portfolio"]["k_obligors"])
        two_d = mode == "subordinated" or resolved["portfolio"].get("layout") != "single"
        cells = len(ks) * (n * n if two_d else n)
        node_evals = cells * nodes
    elif mode == "nosub-multimarket":
        beta = len(resolved["markets"])
        two_d = beta == 2 and resolved["creditors"] == "per-market"
        cells = n * n if two_d else n
        node_evals = cells * quad["z_nodes"] * quad["u_nodes"] ** beta
    elif mode == "limit-equal":
        cells = n
    elif mode.startswith("limit-"):
        cells = n * n
    elif mode == "mc-validate":
        samples = resolved["mc"]["n_samples"]
    return {"cells": cells, "node_evals": node_evals, "mc_samples": samples}
