"""Monte Carlo oracle for the fluctuating-correlation loss model.

Two independent sampling routes generate terminal asset values: the
compound route draws the scale variable and common factor directly
(z ~ chi^2_N, u ~ N(0, z/N), idiosyncratic N(0,1)), while the Wishart
route draws an explicit random covariance matrix W W^T around the mean
covariance and Gaussian returns on top of it.  The two are equal in law;
keeping both lets every analytic result be validated against a sampler
that shares no code with the closed forms.  The Wishart route draws its
(K, N) factor blocks in panels of rows // N samples, so a panel holds no
more elements than a chunk's asset values.

Estimation is streamed in fixed-size chunks with one spawned RNG stream
per chunk.  The chunks run on a thread pool: one thread per CPU, capped
so that the chunks in flight hold at most ``engine._CHUNK_ELEMENTS``
asset values, and never fewer than one.  Each chunk draws into scratch
buffers that the calling thread allocated and computes its losses in
place, and the partial statistics are reduced in chunk order, so results
are bit-identical for a given McConfig whatever the thread count or
scheduling.  Atom bookkeeping (zero-loss origin, axis lines, wipeout
lattice) classifies samples by integer default counts, never by
floating-point equality of losses.
"""

from __future__ import annotations

import json
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import _CHUNK_ELEMENTS, SubordinatedScenario, _creditor_weights, _whole_counts
from .errors import ParameterError, SamplerBudgetError, UndefinedCorrelationError
from .grids import SCHEMA_VERSION
from .params import MarketParams, MultiMarketParams, block_market

__all__ = [
    "McConfig",
    "McRun",
    "sample_compound",
    "sample_compound_returns",
    "sample_wishart",
    "estimate",
    "ks_compare",
]

_WISHART_K_BUDGET = 500


@dataclass(frozen=True)
class McConfig:
    """Simulation settings; the full config (seed included) is echoed into
    every serialized output so runs are reproducible.

    The constructor owns every range: ``n_samples`` >= 10000 (fewer draws
    are not acceptance-grade), ``rng_seed`` >= 0, ``n_bins`` in [2, 1000],
    ``chunk_size`` >= 128, and even ``n_samples`` and ``chunk_size`` with
    antithetic pairs.  Scenario documents state only the types, so an
    ``mc`` block is accepted exactly when this constructor accepts it.
    """

    n_samples: int = 200_000
    rng_seed: int = 0
    sampler: str = "compound"
    antithetic: bool = False
    n_bins: int = 50
    chunk_size: int = 8192
    tail_thresholds: tuple = (0.1, 0.3, 0.5)
    keep_samples: bool = False

    def __post_init__(self):
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 10_000):
            raise ParameterError(
                "n_samples must be an integer >= 10000 to be acceptance-grade, "
                f"got {self.n_samples}"
            )
        if not (isinstance(self.rng_seed, (int, np.integer)) and self.rng_seed >= 0):
            raise ParameterError(f"rng_seed must be an integer >= 0, got {self.rng_seed}")
        if self.sampler not in ("compound", "wishart"):
            raise ParameterError(f"sampler must be 'compound' or 'wishart', got {self.sampler!r}")
        if not (isinstance(self.n_bins, (int, np.integer)) and 2 <= self.n_bins <= 1000):
            raise ParameterError(f"n_bins must be an integer in [2, 1000], got {self.n_bins}")
        if not (isinstance(self.chunk_size, (int, np.integer)) and self.chunk_size >= 128):
            raise ParameterError(f"chunk_size must be an integer >= 128, got {self.chunk_size}")
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
#
# Every sampler writes into a caller-owned (m, K) array and draws its
# normals straight into it, so drawing a chunk allocates nothing of size
# (m, K).  With antithetic pairs the first half is drawn and the second
# half is its exact mirror image: the pairs share z (and the Wishart G
# block) and negate everything else.


def _compound_returns(out, markets: MultiMarketParams, rng, antithetic=False):
    """Fill ``out`` (m, k_total) with centered log-returns, with a shared z
    and one common factor per market block."""
    n = markets.n_fluct
    base = out.shape[0] // 2 if antithetic else out.shape[0]
    z = rng.chisquare(n, size=base)
    u = rng.standard_normal((base, markets.beta)) * np.sqrt(z / n)[:, None]
    eps = rng.standard_normal(out=out[:base])
    col = 0
    for idx, (mkt, k_l) in enumerate(markets.blocks):
        r = eps[:, col : col + k_l]
        r *= (mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n))[:, None]
        r += -math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, idx : idx + 1]
        col += k_l
    return _mirrored(out, base)


def _mirrored(out, base):
    """``out`` with rows ``base:`` set to minus rows ``:base``; without
    antithetic pairs base is the row count and nothing changes."""
    if base < out.shape[0]:
        np.negative(out[:base], out=out[base:])
    return out


def _values_in_place(r, markets: MultiMarketParams):
    """Turn centered log-returns into terminal asset values, in place."""
    ks = [k_l for _, k_l in markets.blocks]
    r += np.repeat([mkt.drift_adj * mkt.t_mat for mkt, _ in markets.blocks], ks)
    np.exp(r, out=r)
    r *= np.repeat([mkt.v0 for mkt, _ in markets.blocks], ks)
    return r


def sample_compound(params, n: int, rng, k_obligors: Optional[int] = None):
    """Terminal asset values (n, K) via the compound representation.

    For single-market params ``k_obligors`` is required; multi-market
    params carry their own block sizes.
    """
    markets = block_market(params, k_obligors)
    r = _compound_returns(np.empty((n, markets.k_total)), markets, rng)
    return _values_in_place(r, markets)


def sample_compound_returns(params: MarketParams, k: int, n: int, rng):
    """Centered log-returns (n, k) for one market; the calibration module
    fits on exactly these."""
    return _compound_returns(np.empty((n, k)), block_market(params, k), rng)


def _wishart_dof(n_fluct, rows: int) -> int:
    """Columns of the Wishart factor W: the fluctuation strength, which
    must be a positive integer for this sampler.  An N above the ``rows``
    samples of a chunk leaves a panel of rows // N samples empty, so it
    raises SamplerBudgetError; the compound sampler has the same law."""
    n_int = int(n_fluct)
    if n_int != n_fluct or n_int < 1:
        raise ParameterError("the Wishart sampler needs an integer fluctuation parameter")
    if n_int > rows:
        raise SamplerBudgetError(
            f"N = {n_int} exceeds the {rows} samples of a Wishart chunk; "
            "use the compound sampler (identical in law)"
        )
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


def _wishart_returns(out, panel, params: MarketParams, rng, antithetic=False):
    """Fill ``out`` (m, k) with centered log-returns via an explicit
    Wishart covariance draw; ``panel`` is (p, k, N) scratch for G.

    W has independent columns of covariance Sigma/N, where Sigma is the
    mean return covariance rho^2 T [(1-c) I + c e e^T]; given W the return
    is Gaussian with covariance W W^T.  Computed as Sigma^(1/2) G eta with
    G a (k, N) standard normal block per sample.  All of eta is drawn
    first, then G p samples at a time into ``panel``, each panel
    contracted into its rows of ``out``; one stream drawn in panels gives
    the same G as one draw of every block.
    """
    base = out.shape[0] // 2 if antithetic else out.shape[0]
    p, _, dof = panel.shape
    eta = rng.standard_normal((base, dof))
    for lo in range(0, base, p):
        hi = min(lo + p, base)
        g = rng.standard_normal(out=panel[: hi - lo])
        np.einsum("mkn,mn->mk", g, eta[lo:hi], out=out[lo:hi])
    _sigma_half_in_place(out[:base], params)
    return _mirrored(out, base)


def _sigma_half_in_place(x, params: MarketParams):
    """Map x to Sigma^(1/2) x / sqrt(N) in place, with Sigma acting on
    axis 1, the obligor axis: sqrt(1-c) off the uniform direction and
    sqrt(1-c+cK) along it, times rho sqrt(T)."""
    k = x.shape[1]
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    proj = x.mean(axis=1, keepdims=True)
    x *= lam_perp
    x += (lam_e - lam_perp) * proj
    x *= params.rho * math.sqrt(params.t_mat) / math.sqrt(params.n_fluct)


def _wishart_panel(rows: int, k: int, dof: int) -> np.ndarray:
    """Scratch for the G blocks of rows // N samples: no more elements
    than ``rows`` samples of K asset values."""
    return np.empty((rows // dof, k, dof))


def sample_wishart(params: MarketParams, n: int, rng, k_obligors: int):
    """Terminal asset values (n, K) via the explicit Wishart-ensemble
    route; raises SamplerBudgetError beyond the K budget or for N above n
    (use the compound sampler there, it is the same law)."""
    if isinstance(params, MultiMarketParams):
        raise ParameterError("Wishart route implemented per market; use sample_compound")
    _check_wishart_budget(k_obligors)
    panel = _wishart_panel(n, k_obligors, _wishart_dof(params.n_fluct, n))
    r = _wishart_returns(np.empty((n, k_obligors)), panel, params, rng)
    return _values_in_place(r, block_market(params, k_obligors))


# ---------------------------------------------------------------------------
# loss evaluation


def _obligor_faces(scenario) -> np.ndarray:
    """Face of each obligor of a plain scenario, shape (k_obligors,)."""
    faces = [face for _, face, _ in scenario.holdings.classes]
    return np.repeat(np.asarray(faces, dtype=float), _whole_counts(scenario))


def _portfolio_losses(v, scenario, spare, mask):
    """(losses (m, B), n_defaults (m,), n_full (m,)) from asset values.

    Works in place: ``v`` is overwritten, and ``spare`` (float) and
    ``mask`` (bool) are scratch of the same shape.  n_full counts obligors
    whose value fell below the senior face (subordinated scenarios only;
    zero otherwise).  The weighted sums use einsum, not BLAS: BLAS worker
    threads keep spinning after each call and take cores from the chunk
    threads.
    """
    m = v.shape[0]
    if isinstance(scenario, SubordinatedScenario):
        tr = scenario.tranches
        if tr.f_senior > 0:
            n_full = np.less(v, tr.f_senior, out=mask).sum(axis=1)
            ls = np.divide(v, tr.f_senior, out=spare)
            np.subtract(1.0, ls, out=ls)
            l_senior = np.maximum(ls, 0.0, out=ls).mean(axis=1)
        else:
            n_full = np.zeros(m, dtype=np.int64)
            l_senior = np.zeros(m)
        n_def = np.less(v, tr.f_total, out=mask).sum(axis=1)
        lj = np.subtract(tr.f_total, v, out=v)
        lj /= tr.f_junior
        l_junior = np.clip(lj, 0.0, 1.0, out=lj).mean(axis=1)
        return np.column_stack([l_senior, l_junior]), n_def, n_full
    faces = _obligor_faces(scenario)
    n_def = np.less(v, faces, out=mask).sum(axis=1)
    l_ob = np.divide(v, faces, out=v)
    np.subtract(1.0, l_ob, out=l_ob)
    np.maximum(l_ob, 0.0, out=l_ob)
    losses = np.einsum("mk,bk->mb", l_ob, _creditor_weights(scenario))
    return losses, n_def, np.zeros(m, dtype=np.int64)


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


def _labels(scenario):
    if isinstance(scenario, SubordinatedScenario):
        return ("senior", "junior")
    if scenario.n_creditors == 1:
        return ("total",)
    return tuple(f"creditor_{i + 1}" for i in range(scenario.n_creditors))


class _Scratch:
    """One worker slot's buffers for a chunk of up to ``rows`` samples;
    with a Wishart ``wishart_dof`` N, ``block`` is the G panel of
    rows // N samples, no larger than ``values``."""

    def __init__(self, rows: int, k: int, wishart_dof: int):
        self.values = np.empty((rows, k))
        self.spare = np.empty((rows, k))
        self.mask = np.empty((rows, k), dtype=bool)
        self.block = _wishart_panel(rows, k, wishart_dof) if wishart_dof else None


def _draw_chunk(scenario, cfg, chunk_index, m, scratch):
    """Asset values (m, K) of one chunk, drawn into ``scratch.values``."""
    rng = _chunk_rng(cfg.rng_seed, chunk_index)
    markets = block_market(scenario.params, scenario.k_obligors)
    out = scratch.values[:m]
    if cfg.sampler == "wishart":
        r = _wishart_returns(out, scratch.block, scenario.params, rng, cfg.antithetic)
    else:
        r = _compound_returns(out, markets, rng, cfg.antithetic)
    return _values_in_place(r, markets)


def _chunk_stats(scenario, cfg, chunk_index, m, scratch, edges):
    """Partial statistics of one chunk, as a dict of summable counts and
    sums, and its losses (m, B)."""
    v = _draw_chunk(scenario, cfg, chunk_index, m, scratch)
    losses, n_def, n_full = _portfolio_losses(v, scenario, scratch.spare[:m], scratch.mask[:m])
    pa = 0.5 * (losses[: m // 2] + losses[m // 2 :]) if cfg.antithetic else losses
    b = losses.shape[1]
    stats = {
        "sum1": losses.sum(axis=0),
        "sum2": np.einsum("mb,mc->bc", losses, losses),
        "pair_sum": pa.sum(axis=0),
        "pair_sumsq": (pa * pa).sum(axis=0),
        "hist1": np.array([np.histogram(col, bins=edges)[0] for col in losses.T]),
        # a portfolio loss is exactly 0.0 iff no held obligor defaulted
        # (sums of strictly positive terms cannot round to zero here)
        "axis_zero": (losses == 0.0).sum(axis=0),
        "n_origin": int((n_def == 0).sum()),
        "tails": (losses > np.array(cfg.tail_thresholds)[:, None, None]).sum(axis=1),
        "n_sub_viol": 0,
        "n_lattice_bad": 0,
    }
    if b == 2:
        stats["hist2"] = np.histogram2d(
            losses[:, 0], losses[:, 1], bins=(edges, edges)
        )[0].astype(np.int64)
    if isinstance(scenario, SubordinatedScenario):
        stats["n_sub_viol"] = int((losses[:, 0] > losses[:, 1]).sum())
        on_lattice = (n_def - n_full) == 0
        expected = n_full / scenario.k_obligors
        stats["n_lattice_bad"] = int((on_lattice & (losses[:, 1] != expected)).sum())
    return stats, losses


def _pool_size(draw_elements: int, n_chunks: int) -> int:
    """Chunk threads for ``estimate``: one per usable CPU, no more than
    there are chunks, and no more than fit ``_CHUNK_ELEMENTS`` draw
    elements in flight; at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_chunks, int(_CHUNK_ELEMENTS // draw_elements)))


def estimate(scenario, config: McConfig = McConfig()) -> McRun:
    """Streamed Monte Carlo estimates for a scenario.

    Chunk boundaries and per-chunk RNG streams depend only on the config,
    and the chunks' partial statistics are summed in chunk order on the
    calling thread, so outputs are bit-identical across runs and thread
    counts.  Chunks run on a thread pool, since numpy's generators and
    large ufuncs release the GIL.  The calling thread allocates each pool
    thread's scratch once, so that freed chunk temporaries do not pile up
    in per-thread allocator arenas.
    """
    k = scenario.k_obligors
    n = config.n_samples
    rows = min(config.chunk_size, n)
    wishart_dof = 0
    if config.sampler == "wishart":
        _check_wishart_budget(k)
        if isinstance(scenario.params, MultiMarketParams):
            raise ParameterError("Wishart sampling is single-market; use the compound sampler")
        wishart_dof = _wishart_dof(scenario.params.n_fluct, rows)
    labels = _labels(scenario)
    b = len(labels)
    edges = np.linspace(0.0, 1.0, config.n_bins + 1)
    n_chunks = (n + rows - 1) // rows
    n_threads = _pool_size(rows * k, n_chunks)
    slots = queue.SimpleQueue()
    for _ in range(n_threads):
        slots.put(_Scratch(rows, k, wishart_dof))

    def run_chunk(ci):
        scratch = slots.get()
        try:
            return _chunk_stats(scenario, config, ci, min(rows, n - ci * rows), scratch, edges)
        finally:
            slots.put(scratch)

    totals = {}
    kept = [] if config.keep_samples else None
    pool = ThreadPoolExecutor(max_workers=n_threads, thread_name_prefix="portloss-mc")
    try:
        for stats, losses in pool.map(run_chunk, range(n_chunks)):
            for key, val in stats.items():
                totals[key] = totals[key] + val if key in totals else val
            if kept is not None:
                kept.append(losses)
    finally:
        pool.shutdown(cancel_futures=True)
    mean = totals["sum1"] / n
    cov = totals["sum2"] / n - np.outer(mean, mean)
    n_units = n // 2 if config.antithetic else n
    unit_mean = totals["pair_sum"] / n_units
    unit_var = np.maximum(totals["pair_sumsq"] / n_units - unit_mean**2, 0.0)
    mean_se = np.sqrt(unit_var / n_units)
    corr = corr_se = None
    if b == 2:
        v1, v2 = cov[0, 0], cov[1, 1]
        if v1 > 0.0 and v2 > 0.0:
            corr = float(cov[0, 1] / math.sqrt(v1 * v2))
            corr_se = (1.0 - corr**2) / math.sqrt(n_units)
    p_nd = totals["n_origin"] / n
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
        atom_axis=totals["axis_zero"] / n,
        hist_edges=edges,
        hist_1d=totals["hist1"] / n,
        hist_2d=totals["hist2"] / n if b == 2 else None,
        tails={t: (totals["tails"][i] / n).tolist() for i, t in enumerate(config.tail_thresholds)},
        subordination_violations=totals["n_sub_viol"],
        lattice_offenders=totals["n_lattice_bad"],
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
