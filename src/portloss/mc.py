"""Monte Carlo oracle for the fluctuating-correlation loss model.

Two independent sampling routes generate terminal asset values: the
compound route draws the scale variable and common factor directly
(z ~ chi^2_N, u ~ N(0, z/N), idiosyncratic N(0,1)), while the Wishart
route draws an explicit random covariance matrix W W^T around the mean
covariance and Gaussian returns on top of it.  The two are equal in law;
keeping both lets every analytic result be validated against a sampler
that shares no code with the closed forms.

Estimation is streamed in fixed-size chunks with one spawned RNG stream
per chunk, so results are bit-identical for a given McConfig regardless
of how the chunks are scheduled.  Atom bookkeeping (zero-loss origin,
axis lines, wipeout lattice) classifies samples by integer default counts,
never by floating-point equality of losses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import SubordinatedScenario, _creditor_weights
from .errors import ParameterError, SamplerBudgetError, UndefinedCorrelationError
from .grids import SCHEMA_VERSION
from .params import MarketParams, MultiMarketParams

__all__ = [
    "McConfig",
    "McRun",
    "sample_compound",
    "sample_compound_returns",
    "sample_wishart",
    "wishart_covariances",
    "estimate",
    "ks_compare",
]

_WISHART_K_BUDGET = 500


@dataclass(frozen=True)
class McConfig:
    """Simulation settings; the full config (seed included) is echoed into
    every serialized output so runs are reproducible."""

    n_samples: int = 200_000
    rng_seed: int = 0
    sampler: str = "compound"
    antithetic: bool = False
    n_bins: int = 50
    chunk_size: int = 8192
    tail_thresholds: tuple = (0.1, 0.3, 0.5)
    keep_samples: bool = False

    def __post_init__(self):
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 1):
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.sampler not in ("compound", "wishart"):
            raise ParameterError(f"sampler must be 'compound' or 'wishart', got {self.sampler!r}")
        if not (isinstance(self.n_bins, (int, np.integer)) and self.n_bins >= 2):
            raise ParameterError("n_bins must be >= 2")
        if not (isinstance(self.chunk_size, (int, np.integer)) and self.chunk_size >= 2):
            raise ParameterError("chunk_size must be >= 2")
        if self.antithetic and (self.n_samples % 2 or self.chunk_size % 2):
            raise ParameterError("antithetic sampling needs even n_samples and chunk_size")
        object.__setattr__(self, "tail_thresholds", tuple(float(t) for t in self.tail_thresholds))
        if any(not (0.0 < t < 1.0) for t in self.tail_thresholds):
            raise ParameterError("tail thresholds must lie in (0, 1)")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


# ---------------------------------------------------------------------------
# samplers


def _compound_returns_single(params: MarketParams, k: int, m: int, rng, antithetic=False):
    """Centered log-returns (m, k) for one market; antithetic pairs share z
    and mirror (u, eps)."""
    base = m // 2 if antithetic else m
    z = rng.chisquare(params.n_fluct, size=base)
    u = rng.standard_normal(base) * np.sqrt(z / params.n_fluct)
    eps = rng.standard_normal((base, k))
    if antithetic:
        z = np.concatenate([z, z])
        u = np.concatenate([u, -u])
        eps = np.concatenate([eps, -eps])
    sq = params.rho * np.sqrt(z * (1.0 - params.c) * params.t_mat / params.n_fluct)
    r = (
        -math.sqrt(params.c * params.t_mat) * params.rho * u[:, None]
        + sq[:, None] * eps
    )
    return r


def _compound_returns_multi(params: MultiMarketParams, m: int, rng, antithetic=False):
    """Centered log-returns (m, k_total) with a shared z and one common
    factor per market block."""
    n = params.n_fluct
    base = m // 2 if antithetic else m
    z = rng.chisquare(n, size=base)
    u = rng.standard_normal((base, params.beta)) * np.sqrt(z / n)[:, None]
    eps = rng.standard_normal((base, params.k_total))
    if antithetic:
        z = np.concatenate([z, z])
        u = np.concatenate([u, -u])
        eps = np.concatenate([eps, -eps])
    out = np.empty((m, params.k_total))
    col = 0
    for idx, (mkt, k_l) in enumerate(params.blocks):
        sq = mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n)
        out[:, col : col + k_l] = (
            -math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, idx : idx + 1]
            + sq[:, None] * eps[:, col : col + k_l]
        )
        col += k_l
    return out


def _returns_to_values(r, params):
    if isinstance(params, MultiMarketParams):
        v = np.empty_like(r)
        col = 0
        for mkt, k_l in params.blocks:
            v[:, col : col + k_l] = mkt.v0 * np.exp(
                mkt.drift_adj * mkt.t_mat + r[:, col : col + k_l]
            )
            col += k_l
        return v
    return params.v0 * np.exp(params.drift_adj * params.t_mat + r)


def sample_compound(params, n: int, rng, k_obligors: Optional[int] = None):
    """Terminal asset values (n, K) via the compound representation.

    For single-market params ``k_obligors`` is required; multi-market
    params carry their own block sizes.
    """
    if isinstance(params, MultiMarketParams):
        r = _compound_returns_multi(params, n, rng)
    else:
        if k_obligors is None:
            raise ParameterError("k_obligors required with single-market params")
        r = _compound_returns_single(params, k_obligors, n, rng)
    return _returns_to_values(r, params)


def sample_compound_returns(params: MarketParams, k: int, n: int, rng):
    """Centered log-returns (n, k) for one market; the calibration module
    fits on exactly these."""
    return _compound_returns_single(params, k, n, rng)


def _wishart_dof(n_fluct) -> int:
    """Columns of the Wishart factor W: the fluctuation strength, which
    must be a positive integer for this sampler."""
    n_int = int(n_fluct)
    if n_int != n_fluct or n_int < 1:
        raise ParameterError("the Wishart sampler needs an integer fluctuation parameter")
    return n_int


def _check_wishart_budget(k_obligors: int) -> None:
    """The Wishart sampler draws a (K, N) block per sample, so it is
    refused beyond ``_WISHART_K_BUDGET`` obligors; the compound sampler has
    the same law."""
    if k_obligors > _WISHART_K_BUDGET:
        raise SamplerBudgetError(
            f"K = {k_obligors} exceeds the Wishart budget of {_WISHART_K_BUDGET}; "
            "use the compound sampler (identical in law)"
        )


def _wishart_returns(params: MarketParams, k: int, m: int, rng, antithetic=False):
    """Centered log-returns via an explicit Wishart covariance draw.

    W has independent columns of covariance Sigma/N, where Sigma is the
    mean return covariance rho^2 T [(1-c) I + c e e^T]; given W the return
    is Gaussian with covariance W W^T.  Computed as Sigma^(1/2) G eta with
    G a (k, N) standard normal block, using that Sigma^(1/2) acts by
    sqrt(1-c) off the uniform direction and sqrt(1-c+cK) along it.
    """
    n_fl = params.n_fluct
    n_int = _wishart_dof(n_fl)
    base = m // 2 if antithetic else m
    g = rng.standard_normal((base, k, n_int))
    eta = rng.standard_normal((base, n_int))
    if antithetic:
        eta = np.concatenate([eta, -eta])
        g = np.concatenate([g, g])
    x = np.einsum("mkn,mn->mk", g, eta)
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    proj = x.mean(axis=1, keepdims=True)
    y = lam_perp * x + (lam_e - lam_perp) * proj
    scale = params.rho * math.sqrt(params.t_mat) / math.sqrt(n_fl)
    return scale * y


def sample_wishart(params: MarketParams, n: int, rng, k_obligors: int):
    """Terminal asset values (n, K) via the explicit Wishart-ensemble
    route; raises SamplerBudgetError beyond the K budget (use the compound
    sampler there, it is the same law)."""
    if isinstance(params, MultiMarketParams):
        raise ParameterError("Wishart route implemented per market; use sample_compound")
    _check_wishart_budget(k_obligors)
    r = _wishart_returns(params, k_obligors, n, rng)
    return _returns_to_values(r, params)


def wishart_covariances(params: MarketParams, k: int, n: int, rng):
    """Raw W W^T draws (n, k, k); test hook for ensemble-mean checks."""
    _check_wishart_budget(k)
    n_int = int(params.n_fluct)
    g = rng.standard_normal((n, k, n_int))
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    proj = g.mean(axis=1, keepdims=True)
    w = (lam_perp * g + (lam_e - lam_perp) * proj) * (
        params.rho * math.sqrt(params.t_mat) / math.sqrt(params.n_fluct)
    )
    return np.einsum("mkn,mln->mkl", w, w)


# ---------------------------------------------------------------------------
# loss evaluation


def _obligor_faces(scenario) -> np.ndarray:
    if isinstance(scenario, SubordinatedScenario):
        return np.full(scenario.k_obligors, scenario.tranches.f_total)
    if scenario.faces is not None:
        return np.asarray(scenario.faces, dtype=float).sum(axis=0)
    return np.full(scenario.k_obligors, scenario.obligor_face)


def _portfolio_losses(v, scenario):
    """(losses (m, B), n_defaults (m,), n_full (m,)) from asset values.

    n_full counts obligors whose value fell below the senior face
    (subordinated scenarios only; zero otherwise).
    """
    if isinstance(scenario, SubordinatedScenario):
        tr = scenario.tranches
        if tr.f_senior > 0:
            ls = np.maximum(1.0 - v / tr.f_senior, 0.0)
            n_full = (v < tr.f_senior).sum(axis=1)
        else:
            ls = np.zeros_like(v)
            n_full = np.zeros(v.shape[0], dtype=np.int64)
        lj = np.clip((tr.f_total - v) / tr.f_junior, 0.0, 1.0)
        n_def = (v < tr.f_total).sum(axis=1)
        losses = np.column_stack([ls.mean(axis=1), lj.mean(axis=1)])
        return losses, n_def, n_full
    faces = _obligor_faces(scenario)
    l_ob = np.maximum(1.0 - v / faces[None, :], 0.0)
    n_def = (v < faces[None, :]).sum(axis=1)
    wts = _creditor_weights(scenario)
    losses = l_ob @ wts.T
    return losses, n_def, np.zeros(v.shape[0], dtype=np.int64)


# ---------------------------------------------------------------------------
# streamed estimation


@dataclass
class McRun:
    """Estimates and diagnostics from one simulation run.

    Standard errors are sample std / sqrt(n) over independent draws; with
    antithetic pairing they use pair averages as the independent unit.
    Atom masses are sample fractions classified by default counts.
    """

    config: McConfig
    labels: tuple
    n: int
    mean: np.ndarray
    mean_se: np.ndarray
    cov: np.ndarray
    corr: Optional[float]
    corr_se: Optional[float]
    p_no_default: float
    p_no_default_se: float
    atom_axis: np.ndarray
    hist_edges: np.ndarray
    hist_1d: np.ndarray
    hist_2d: Optional[np.ndarray]
    tails: dict
    subordination_violations: int
    lattice_offenders: int
    samples: Optional[np.ndarray] = None

    def loss_correlation(self) -> float:
        if self.corr is None:
            raise UndefinedCorrelationError(
                "a sampled loss variance vanished; correlation is undefined "
                "(losses are almost surely zero at these parameters)"
            )
        return self.corr

    def origin_excess_mass(self, n_cells: int) -> float:
        """Sample mass in the origin-adjacent cells of an n_cells grid,
        excluding the exact-zero origin atom; input to mass_accounting."""
        if self.config.n_bins % n_cells:
            raise ParameterError("n_cells must divide the histogram bin count")
        f = self.config.n_bins // n_cells
        if self.hist_2d is not None:
            h = self.hist_2d.reshape(n_cells, f, n_cells, f).sum(axis=(1, 3))
            region = h[0, :].sum() + h[1:, 0].sum()
        else:
            h = self.hist_1d[0].reshape(n_cells, f).sum(axis=1)
            region = h[0]
        return float(region - self.p_no_default)

    def to_json(self, path=None):
        env = {
            "schema_version": SCHEMA_VERSION,
            "kind": "mc_run",
            "config": {
                "n_samples": self.config.n_samples,
                "rng_seed": self.config.rng_seed,
                "sampler": self.config.sampler,
                "antithetic": self.config.antithetic,
                "n_bins": self.config.n_bins,
                "chunk_size": self.config.chunk_size,
                "tail_thresholds": list(self.config.tail_thresholds),
            },
            "labels": list(self.labels),
            "n": self.n,
            "mean": self.mean.tolist(),
            "mean_se": self.mean_se.tolist(),
            "cov": self.cov.tolist(),
            "corr": self.corr,
            "corr_se": self.corr_se,
            "p_no_default": self.p_no_default,
            "p_no_default_se": self.p_no_default_se,
            "atom_axis": self.atom_axis.tolist(),
            "hist_edges": self.hist_edges.tolist(),
            "hist_1d": self.hist_1d.tolist(),
            "hist_2d": None if self.hist_2d is None else self.hist_2d.tolist(),
            "tails": {k: v for k, v in sorted(self.tails.items())},
            "subordination_violations": self.subordination_violations,
            "lattice_offenders": self.lattice_offenders,
        }
        text = json.dumps(env, sort_keys=True, indent=1) + "\n"
        if path is not None:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        return text

    def hist_to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            cols = ["bin_lo", "bin_hi"] + [f"fraction_{lab}" for lab in self.labels]
            fh.write(",".join(cols) + "\n")
            for i in range(len(self.hist_edges) - 1):
                row = [f"{self.hist_edges[i]:.17g}", f"{self.hist_edges[i + 1]:.17g}"]
                row += [f"{self.hist_1d[b][i]:.17g}" for b in range(len(self.labels))]
                fh.write(",".join(row) + "\n")


def _labels(scenario):
    if isinstance(scenario, SubordinatedScenario):
        return ("senior", "junior")
    if scenario.n_creditors == 1:
        return ("total",)
    return tuple(f"creditor_{i + 1}" for i in range(scenario.n_creditors))


def _draw_chunk(scenario, cfg, chunk_index, m):
    rng = _chunk_rng(cfg.rng_seed, chunk_index)
    params = scenario.params
    if cfg.sampler == "wishart":
        if isinstance(params, MultiMarketParams):
            raise ParameterError("Wishart sampling is single-market; use the compound sampler")
        r = _wishart_returns(params, scenario.k_obligors, m, rng, cfg.antithetic)
    elif isinstance(params, MultiMarketParams):
        r = _compound_returns_multi(params, m, rng, cfg.antithetic)
    else:
        r = _compound_returns_single(params, scenario.k_obligors, m, rng, cfg.antithetic)
    return _returns_to_values(r, params)


def estimate(scenario, config: McConfig = McConfig()) -> McRun:
    """Streamed Monte Carlo estimates for a scenario.

    Chunk boundaries and per-chunk RNG streams depend only on the config,
    so outputs are bit-identical across runs and scheduling choices.
    """
    if config.n_samples < 10_000:
        raise ParameterError(
            "estimates need n_samples >= 10000 to be acceptance-grade"
        )
    if config.sampler == "wishart":
        _check_wishart_budget(scenario.k_obligors)
    labels = _labels(scenario)
    b = len(labels)
    nb = config.n_bins
    edges = np.linspace(0.0, 1.0, nb + 1)
    sum1 = np.zeros(b)
    sum2 = np.zeros((b, b))
    pair_sum = np.zeros(b)
    pair_sumsq = np.zeros(b)
    hist1 = np.zeros((b, nb), dtype=np.int64)
    hist2 = np.zeros((nb, nb), dtype=np.int64) if b == 2 else None
    axis_zero = np.zeros(b, dtype=np.int64)
    n_origin = 0
    n_sub_viol = 0
    n_lattice_bad = 0
    tail_counts = {t: np.zeros(b, dtype=np.int64) for t in config.tail_thresholds}
    kept = [] if config.keep_samples else None
    n = config.n_samples
    cs = config.chunk_size
    n_chunks = (n + cs - 1) // cs
    for ci in range(n_chunks):
        m = min(cs, n - ci * cs)
        v = _draw_chunk(scenario, config, ci, m)
        losses, n_def, n_full = _portfolio_losses(v, scenario)
        sum1 += losses.sum(axis=0)
        sum2 += losses.T @ losses
        if config.antithetic:
            pa = 0.5 * (losses[: m // 2] + losses[m // 2 :])
        else:
            pa = losses
        pair_sum += pa.sum(axis=0)
        pair_sumsq += (pa * pa).sum(axis=0)
        for bi in range(b):
            hist1[bi] += np.histogram(losses[:, bi], bins=edges)[0]
        if hist2 is not None:
            hist2 += np.histogram2d(losses[:, 0], losses[:, 1], bins=(edges, edges))[0].astype(np.int64)
        # a portfolio loss is exactly 0.0 iff no held obligor defaulted
        # (sums of strictly positive terms cannot round to zero here)
        axis_zero += (losses == 0.0).sum(axis=0)
        n_origin += int((n_def == 0).sum())
        for t in config.tail_thresholds:
            tail_counts[t] += (losses > t).sum(axis=0)
        if isinstance(scenario, SubordinatedScenario):
            n_sub_viol += int((losses[:, 0] > losses[:, 1]).sum())
            on_lattice = (n_def - n_full) == 0
            k = scenario.k_obligors
            expected = n_full / k
            n_lattice_bad += int(
                (on_lattice & (losses[:, 1] != expected)).sum()
            )
        if kept is not None:
            kept.append(losses)
    mean = sum1 / n
    cov = sum2 / n - np.outer(mean, mean)
    n_units = n // 2 if config.antithetic else n
    unit_mean = pair_sum / n_units
    unit_var = np.maximum(pair_sumsq / n_units - unit_mean**2, 0.0)
    mean_se = np.sqrt(unit_var / n_units)
    corr = corr_se = None
    if b == 2:
        v1, v2 = cov[0, 0], cov[1, 1]
        if v1 > 0.0 and v2 > 0.0:
            corr = float(cov[0, 1] / math.sqrt(v1 * v2))
            corr_se = (1.0 - corr**2) / math.sqrt(n_units)
    p_nd = n_origin / n
    return McRun(
        config=config,
        labels=labels,
        n=n,
        mean=mean,
        mean_se=mean_se,
        cov=cov,
        corr=corr,
        corr_se=corr_se,
        p_no_default=p_nd,
        p_no_default_se=math.sqrt(max(p_nd * (1.0 - p_nd), 0.0) / n),
        atom_axis=axis_zero / n,
        hist_edges=edges,
        hist_1d=hist1 / n,
        hist_2d=None if hist2 is None else hist2 / n,
        tails={t: (tail_counts[t] / n).tolist() for t in config.tail_thresholds},
        subordination_violations=n_sub_viol,
        lattice_offenders=n_lattice_bad,
        samples=None if kept is None else np.vstack(kept),
    )


def ks_compare(scenario, n: int = 100_000, seed: int = 0, n_bins: int = 50) -> dict:
    """Two-sample Kolmogorov-Smirnov comparison of the compound and
    Wishart samplers on the same scenario; one statistic per creditor."""
    from scipy.stats import ks_2samp

    out = {}
    runs = {}
    for sampler in ("compound", "wishart"):
        cfg = McConfig(
            n_samples=n, rng_seed=seed, sampler=sampler, n_bins=n_bins, keep_samples=True
        )
        runs[sampler] = estimate(scenario, cfg)
    labels = runs["compound"].labels
    for bi, lab in enumerate(labels):
        res = ks_2samp(
            runs["compound"].samples[:, bi], runs["wishart"].samples[:, bi]
        )
        out[lab] = {"statistic": float(res.statistic), "pvalue": float(res.pvalue)}
    return out
