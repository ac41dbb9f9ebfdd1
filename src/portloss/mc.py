"""Monte Carlo oracle for the fluctuating-correlation loss model.

Two independent sampling routes generate terminal asset values: the
compound route draws the scale variable and common factor directly
(z ~ chi^2_N, u ~ N(0, z/N), idiosyncratic N(0,1)), while the Wishart
route draws an explicit random covariance matrix W W^T around the mean
covariance and Gaussian returns on top of it.  The two are equal in law;
keeping both lets every analytic result be validated against a sampler
that shares no code with the closed forms.

Estimation is streamed in fixed-size chunks with one spawned RNG stream
per chunk, on a thread pool of one thread per CPU, no more than there
are chunks.  Within a chunk, samples are drawn, turned into asset values
and reduced to losses a block at a time, in scratch buffers that the
calling thread allocated once per pool thread: at most
``_BLOCK_ELEMENTS`` = 2^17 values each, Wishart G panels included, or
one sample where a sample alone holds more.  Each chunk's stream is an
SFC64 generator spawned from the seed and the chunk index; it feeds
numpy's ziggurat normals faster than PCG64 does.  Only the chunk's (m, B)
losses and (m,) default counts are held whole.  Block size changes
no draw and no loss, and the partial statistics are reduced in chunk
order, so results are bit-identical for a given McConfig whatever the
block size, thread count or scheduling.  Atom bookkeeping (zero-loss
origin, wipeout lattice) classifies samples by integer default counts,
never by floating-point equality of losses.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import SubordinatedScenario, _creditor_weights, _whole_counts
from .errors import ParameterError, SamplerBudgetError, UndefinedCorrelationError
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
_BLOCK_ELEMENTS = 2**17  # values per block array of a chunk's scratch: 1 MiB


@dataclass(frozen=True)
class McConfig:
    """Simulation settings; the ``mc-validate`` artifact records them, seed
    included, in the resolved scenario document it embeds.

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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


# ---------------------------------------------------------------------------
# samplers
#
# Each route draws its small per-sample variables first and then its
# (m, K) idiosyncratic normals, or its (m, N, K) Wishart G panels, a block
# of samples at a time from the same stream into caller-owned scratch;
# one stream drawn in blocks gives the same numbers as one draw.  A route
# is a generator of (first sample, returns) per block, and the caller
# consumes each block before the next is drawn over it.


def _compound_blocks(markets: MultiMarketParams, rng, base: int, out):
    """Centered log-returns of ``base`` samples, with a shared z and one
    common factor per market block, drawn len(out) samples at a time into
    ``out``."""
    n = markets.n_fluct
    z = rng.chisquare(n, size=base)
    u = rng.standard_normal((base, markets.beta)) * np.sqrt(z / n)[:, None]
    cols, col = [], 0
    for idx, (mkt, k_l) in enumerate(markets.blocks):
        scale = (mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n))[:, None]
        shift = -math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, idx : idx + 1]
        cols.append((slice(col, col + k_l), scale, shift))
        col += k_l
    for lo in range(0, base, len(out)):
        hi = min(lo + len(out), base)
        eps = rng.standard_normal(out=out[: hi - lo])
        for cs, scale, shift in cols:
            r = eps[:, cs]
            r *= scale[lo:hi]
            r += shift[lo:hi]
        yield lo, eps


def _value_rows(markets: MultiMarketParams):
    """(log-drift nu T, initial value v0) of each obligor, shape (K,) each."""
    ks = [k_l for _, k_l in markets.blocks]
    drift = np.repeat([mkt.drift_adj * mkt.t_mat for mkt, _ in markets.blocks], ks)
    return drift, np.repeat([mkt.v0 for mkt, _ in markets.blocks], ks)


def _values_in_place(r, drift, v0):
    """Turn centered log-returns into terminal asset values, in place."""
    r += drift
    np.exp(r, out=r)
    r *= v0
    return r


def _one_block(blocks):
    """The returns of a route whose scratch holds all its samples."""
    (_, r), = blocks
    return r


def sample_compound(params, n: int, rng, k_obligors: Optional[int] = None):
    """Terminal asset values (n, K) via the compound representation.

    For single-market params ``k_obligors`` is required; multi-market
    params carry their own block sizes.
    """
    markets = block_market(params, k_obligors)
    r = _one_block(_compound_blocks(markets, rng, n, np.empty((n, markets.k_total))))
    return _values_in_place(r, *_value_rows(markets))


def sample_compound_returns(params: MarketParams, k: int, n: int, rng):
    """Centered log-returns (n, k) for one market; the calibration module
    fits on exactly these."""
    return _one_block(_compound_blocks(block_market(params, k), rng, n, np.empty((n, k))))


def _wishart_dof(n_fluct, rows: int) -> int:
    """Columns of the Wishart factor W: the fluctuation strength, which
    must be a positive integer for this sampler.  An N above the ``rows``
    samples of a chunk raises SamplerBudgetError: the memory refusal
    bounds a chunk's rows x K values, and N <= rows keeps one sample's
    (N, K) G panel, the least a block holds, within it.  The compound
    sampler has the same law."""
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
    """The Wishart sampler draws an (N, K) panel per sample, so it is
    refused beyond ``_WISHART_K_BUDGET`` obligors; the compound sampler has
    the same law."""
    if k_obligors > _WISHART_K_BUDGET:
        raise SamplerBudgetError(
            f"K = {k_obligors} exceeds the Wishart budget of {_WISHART_K_BUDGET}; "
            "use the compound sampler (identical in law)"
        )


def _wishart_blocks(params: MarketParams, rng, base: int, out, g):
    """Centered log-returns of ``base`` samples via an explicit Wishart
    covariance draw, len(out) samples at a time into ``out``; ``g`` is
    (len(out), N, K) scratch for the samples' G panels.

    W has independent columns of covariance Sigma/N, where Sigma is the
    mean return covariance rho^2 T [(1-c) I + c e e^T]; given W the return
    is Gaussian with covariance W W^T.  Computed as Sigma^(1/2) G^T eta
    with G an (N, K) standard normal panel per sample, obligors along the
    contiguous axis, so the contraction over N adds whole rows of G; all
    of eta is drawn before the first panel.
    """
    eta = rng.standard_normal((base, g.shape[1]))
    for lo in range(0, base, len(out)):
        hi = min(lo + len(out), base)
        gb = rng.standard_normal(out=g[: hi - lo])
        r = np.einsum("mnk,mn->mk", gb, eta[lo:hi], out=out[: hi - lo])
        _sigma_half_in_place(r, params)
        yield lo, r


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


def sample_wishart(params: MarketParams, n: int, rng, k_obligors: int):
    """Terminal asset values (n, K) via the explicit Wishart-ensemble
    route; raises SamplerBudgetError beyond the K budget or for N above n
    (use the compound sampler there, it is the same law)."""
    if isinstance(params, MultiMarketParams):
        raise ParameterError("Wishart route implemented per market; use sample_compound")
    _check_wishart_budget(k_obligors)
    dof = _wishart_dof(params.n_fluct, n)
    rows = _block_rows(n, k_obligors, dof)
    r = np.empty((n, k_obligors))
    for lo, block in _wishart_blocks(
        params, rng, n, np.empty((rows, k_obligors)), np.empty((rows, dof, k_obligors))
    ):
        r[lo : lo + len(block)] = block
    return _values_in_place(r, *_value_rows(block_market(params, k_obligors)))


# ---------------------------------------------------------------------------
# loss evaluation


def _obligor_faces(scenario) -> np.ndarray:
    """Face of each obligor of a plain scenario, shape (k_obligors,)."""
    faces = [face for _, face, _ in scenario.holdings.classes]
    return np.repeat(np.asarray(faces, dtype=float), _whole_counts(scenario))


class _Portfolio:
    """What every block of one ``estimate`` shares, computed once: the
    market blocks, the drift and v0 rows that turn returns into asset
    values, and the tranche faces or else each obligor's face and the
    creditor weights."""

    def __init__(self, scenario):
        self.markets = block_market(scenario.params, scenario.k_obligors)
        self.drift, self.v0 = _value_rows(self.markets)
        self.tranches = scenario.tranches if isinstance(scenario, SubordinatedScenario) else None
        if self.tranches is None:
            self.faces = _obligor_faces(scenario)
            self.weights = _creditor_weights(scenario)


def _portfolio_losses(r, pf: _Portfolio, spare, mask, losses, n_def, n_full):
    """Write the losses (m, B), default counts (m,) and, for subordinated
    scenarios, senior-face counts (m,) of the m samples whose centered
    log-returns are ``r``.

    Works in place: ``r`` is overwritten, and ``spare`` (float) and
    ``mask`` (bool) are scratch of the same shape.  n_full counts obligors
    whose value fell below the senior face; it is left as given otherwise.
    The weighted sums use einsum, not BLAS: BLAS worker threads keep
    spinning after each call and take cores from the chunk threads.
    """
    v = _values_in_place(r, pf.drift, pf.v0)
    tr = pf.tranches
    if tr is not None:
        if tr.f_senior > 0:
            n_full[:] = np.less(v, tr.f_senior, out=mask).sum(axis=1)
            ls = np.divide(v, tr.f_senior, out=spare)
            np.subtract(1.0, ls, out=ls)
            losses[:, 0] = np.maximum(ls, 0.0, out=ls).mean(axis=1)
        else:
            losses[:, 0] = 0.0
        n_def[:] = np.less(v, tr.f_total, out=mask).sum(axis=1)
        lj = np.subtract(tr.f_total, v, out=v)
        lj /= tr.f_junior
        losses[:, 1] = np.clip(lj, 0.0, 1.0, out=lj).mean(axis=1)
        return
    n_def[:] = np.less(v, pf.faces, out=mask).sum(axis=1)
    l_ob = np.divide(v, pf.faces, out=v)
    np.subtract(1.0, l_ob, out=l_ob)
    np.maximum(l_ob, 0.0, out=l_ob)
    np.einsum("mk,bk->mb", l_ob, pf.weights, out=losses)


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
    hist_1d: np.ndarray
    hist_2d: Optional[np.ndarray]
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


def _labels(scenario):
    if isinstance(scenario, SubordinatedScenario):
        return ("senior", "junior")
    if scenario.n_creditors == 1:
        return ("total",)
    return tuple(f"creditor_{i + 1}" for i in range(scenario.n_creditors))


def _block_rows(rows: int, k: int, wishart_dof: int) -> int:
    """Samples per block: as many of ``rows`` as keep each block array,
    (m, K) values or (m, N, K) G panels, within ``_BLOCK_ELEMENTS``, and
    one at least."""
    return min(rows, max(1, _BLOCK_ELEMENTS // (k * max(wishart_dof, 1))))


class _Scratch:
    """One worker slot's block buffers for chunks of up to ``rows``
    samples: the returns that become asset values, their antithetic
    mirror image, float and boolean loss scratch and, with a Wishart N,
    the samples' (N, K) G panels; each holds one block of ``_block_rows``
    samples."""

    def __init__(self, rows: int, k: int, wishart_dof: int):
        m = _block_rows(rows, k, wishart_dof)
        self.values = np.empty((m, k))
        self.mirror = np.empty((m, k))
        self.spare = np.empty((m, k))
        self.mask = np.empty((m, k), dtype=bool)
        self.g = np.empty((m, wishart_dof, k)) if wishart_dof else None


def _chunk_losses(scenario, cfg, chunk_index, m, scratch, pf):
    """(losses (m, B), n_defaults (m,), n_full (m,)) of one chunk, drawn
    and evaluated one block of samples at a time.  With antithetic pairs
    the blocks cover the first m // 2 samples, and each block's mirror
    image, its negated returns, gives the same rows of the second half."""
    rng = _chunk_rng(cfg.rng_seed, chunk_index)
    base = m // 2 if cfg.antithetic else m
    if cfg.sampler == "wishart":
        blocks = _wishart_blocks(scenario.params, rng, base, scratch.values, scratch.g)
    else:
        blocks = _compound_blocks(pf.markets, rng, base, scratch.values)
    losses = np.empty((m, len(_labels(scenario))))
    n_def = np.empty(m, dtype=np.int64)
    n_full = np.zeros(m, dtype=np.int64)
    for lo, r in blocks:
        rows = len(r)
        spare, mask = scratch.spare[:rows], scratch.mask[:rows]
        if base < m:
            mirror = np.negative(r, out=scratch.mirror[:rows])
            out = slice(base + lo, base + lo + rows)
            _portfolio_losses(mirror, pf, spare, mask, losses[out], n_def[out], n_full[out])
        out = slice(lo, lo + rows)
        _portfolio_losses(r, pf, spare, mask, losses[out], n_def[out], n_full[out])
    return losses, n_def, n_full


def _chunk_stats(scenario, cfg, chunk_index, m, scratch, pf, edges):
    """Partial statistics of one chunk, as a dict of summable counts and
    sums, and its losses (m, B)."""
    losses, n_def, n_full = _chunk_losses(scenario, cfg, chunk_index, m, scratch, pf)
    pa = 0.5 * (losses[: m // 2] + losses[m // 2 :]) if cfg.antithetic else losses
    b = losses.shape[1]
    stats = {
        "sum1": losses.sum(axis=0),
        "sum2": np.einsum("mb,mc->bc", losses, losses),
        "pair_sum": pa.sum(axis=0),
        "pair_sumsq": (pa * pa).sum(axis=0),
        "hist1": np.array([np.histogram(col, bins=edges)[0] for col in losses.T]),
        "n_origin": int((n_def == 0).sum()),
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


def _pool_size(n_tasks: int) -> int:
    """Threads for a pool of ``n_tasks`` independent tasks, the chunks of
    ``estimate`` or the grid points of ``calibration.fit_n``: one per
    usable CPU and no more than there are tasks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


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
    pf = _Portfolio(scenario)
    n_chunks = (n + rows - 1) // rows
    n_threads = _pool_size(n_chunks)
    slots = queue.SimpleQueue()
    for _ in range(n_threads):
        slots.put(_Scratch(rows, k, wishart_dof))

    def run_chunk(ci):
        scratch = slots.get()
        try:
            return _chunk_stats(scenario, config, ci, min(rows, n - ci * rows), scratch, pf, edges)
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
            corr = float(cov[0, 1] / (math.sqrt(v1) * math.sqrt(v2)))
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
        hist_1d=totals["hist1"] / n,
        hist_2d=totals["hist2"] / n if b == 2 else None,
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
