"""Monte Carlo oracle for the fluctuating-correlation loss model.

Two independent sampling routes share the model's law.  The compound
route draws the two mixing variables of each sample (z ~ chi^2_N and one
common factor u ~ N(0, z/N) per market block), given which the obligors
are independent: each holdings class c defaults D_c ~ Binomial(n_c,
Phi(t_c)) times, and only the shocks of the defaulted obligors are drawn,
from the normal law below the default threshold t_c, as Phi^-1(U
Phi(t_c)).  The Wishart route draws an explicit random covariance matrix
W W^T around the mean covariance and Gaussian returns of every obligor on
top of it, the per-obligor check of the compound route.  The routes
differ only in how they find a block's defaulted obligors: the compound
route draws them, and the Wishart route tests every return against its
class bound.  Both hand them, as the same sparse block, to one
evaluation step, which reads default counts, class sums and losses from
each one's log excess x = min(r - b, 0), r its centered log-return and
b = log(face/v0) - nu T its class's default bound.  As in a
non-stationary market, whose covariance is fixed within an epoch while
the random-matrix ensemble stands for the covariances of successive
epochs, one drawn covariance serves an epoch of ``_WISHART_EPOCH``
consecutive samples of a chunk: each sample has the model's law, but the
samples of one epoch are dependent, so the Wishart route's standard
errors, and the design effects it reports, treat the epoch as the
independent unit.  Compound samples are independent draws.  The public
samplers still give every obligor's value or return.

Estimation is streamed in fixed-size chunks with one spawned RNG stream
per chunk, on a thread pool of one thread per CPU, no more than there
are chunks.  Within a chunk the per-sample variables (z, u and the
default counts, or eta) are drawn first, and then the defaulted shocks,
or the Wishart G panels epoch by epoch and the returns, a block of
samples at a time, in scratch buffers that the calling thread allocated
once per pool thread: at most ``_BLOCK_ELEMENTS`` = 2^17 values each,
or one sample where a sample alone holds more.  A Wishart block's
returns and G panels share that budget, and the block holds whole
epochs, or lies within one.  Each
chunk's stream is an SFC64 generator spawned from the seed and the chunk
index; it feeds numpy's ziggurat normals faster than PCG64 does.  Only
the chunk's (m, B) losses and (m,) default counts are held whole; the
histograms and the epoch sums read one binning of the losses.
Blocks take their draws from the stream in sample and epoch order, so
the block size changes no draw and no loss, and the partial statistics
are reduced in chunk order, so results are bit-identical for a given
McConfig whatever the block size, thread count or scheduling.  Atom
bookkeeping (zero-loss origin, wipeout lattice) classifies samples by
integer default counts, never by floating-point equality of losses.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .engine import SubordinatedScenario, _whole_counts
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
# Wishart samples per drawn covariance; at 8 the between-epoch variance of
# a well-filled cell count is 1.03-1.09 times its binomial variance
_WISHART_EPOCH = 8


def _epochs(rows: int) -> int:
    """Wishart epochs of ``rows`` consecutive samples that start an epoch."""
    return -(-rows // _WISHART_EPOCH)


@dataclass(frozen=True)
class McConfig:
    """Simulation settings; the ``mc-validate`` artifact records them, seed
    included, in the resolved scenario document it embeds.

    The constructor owns every range: ``n_samples`` >= 10000 (fewer draws
    are not acceptance-grade), ``rng_seed`` >= 0, ``n_bins`` in [2, 1000]
    and ``chunk_size`` >= 128.  Scenario documents state only the types,
    so an ``mc`` block is accepted exactly when this constructor accepts
    it.  Compound samples are independent draws; Wishart samples come in
    epochs of ``_WISHART_EPOCH`` that share one drawn covariance, each
    sample with the same law.
    """

    n_samples: int = 200_000
    rng_seed: int = 0
    sampler: str = "compound"
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


# ---------------------------------------------------------------------------
# samplers
#
# Each route draws its small per-sample variables first and then its
# defaulted shocks, or its Wishart G panels and returns.  The Wishart
# route draws them a block of samples at a time from the same
# stream into caller-owned scratch, which gives the same numbers as one
# draw: it is a generator of (first sample, returns) per block, and the
# caller consumes each block before the next is drawn over it.


def _mixing(markets: MultiMarketParams, rng, m: int):
    """Scale and shift (m, beta) of every market block: given the
    shared z ~ chi^2_N and the block's common factor u ~ N(0, z/N), an
    obligor of block b has the centered log-return shift_b + scale_b eps
    with an independent shock eps ~ N(0, 1)."""
    n = markets.n_fluct
    z = rng.chisquare(n, size=m)
    u = rng.standard_normal((m, markets.beta)) * np.sqrt(z / n)[:, None]
    scale, shift = np.empty_like(u), np.empty_like(u)
    for idx, (mkt, _) in enumerate(markets.blocks):
        scale[:, idx] = mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n)
        shift[:, idx] = -math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, idx]
    return scale, shift


def _compound_returns(markets: MultiMarketParams, rng, n: int):
    """Centered log-returns (n, K) of every obligor of n samples, with a
    shared z and one common factor per market block."""
    scale, shift = _mixing(markets, rng, n)
    bounds = np.cumsum([0] + [k_l for _, k_l in markets.blocks])
    eps = rng.standard_normal((n, markets.k_total))
    for idx in range(markets.beta):
        r = eps[:, bounds[idx] : bounds[idx + 1]]
        r *= scale[:, idx : idx + 1]
        r += shift[:, idx : idx + 1]
    return eps


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


def sample_compound(params, n: int, rng, k_obligors: Optional[int] = None):
    """Terminal asset values (n, K) via the compound representation.

    For single-market params ``k_obligors`` is required; multi-market
    params carry their own block sizes.
    """
    markets = block_market(params, k_obligors)
    return _values_in_place(_compound_returns(markets, rng, n), *_value_rows(markets))


def sample_compound_returns(params: MarketParams, k: int, n: int, rng):
    """Centered log-returns (n, k) for one market; the calibration module
    fits on exactly these."""
    return _compound_returns(block_market(params, k), rng, n)


def _wishart_dof(n_fluct, rows: int) -> int:
    """Columns of the Wishart factor W: the fluctuation strength, which
    must be a positive integer for this sampler.  An N above the ``rows``
    samples of a chunk raises SamplerBudgetError: the memory refusal
    bounds a chunk's rows x K values, and N <= rows keeps one epoch's
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
    """The Wishart sampler draws an (N, K) panel per epoch and every
    obligor's return per sample, so it is refused beyond
    ``_WISHART_K_BUDGET`` obligors; the compound sampler has the same
    law."""
    if k_obligors > _WISHART_K_BUDGET:
        raise SamplerBudgetError(
            f"K = {k_obligors} exceeds the Wishart budget of {_WISHART_K_BUDGET}; "
            "use the compound sampler (identical in law)"
        )


def _wishart_blocks(params: MarketParams, rng, base: int, out, g):
    """Centered log-returns of ``base`` samples via explicit Wishart
    covariance draws, len(out) samples at a time into ``out``; ``g`` is
    scratch for the G panels of a block's epochs, ``_epochs(len(out))``
    of shape (N, K).

    W has independent columns of covariance Sigma/N, where Sigma is the
    mean return covariance rho^2 T [(1-c) I + c e e^T]; given W the return
    is Gaussian with covariance W W^T.  One covariance serves an epoch of
    ``_WISHART_EPOCH`` consecutive samples, the last epoch of ``base``
    shorter when ``base`` is not a multiple of it: each return is
    (Sigma^(1/2) G^T / sqrt(N)) eta with G the epoch's (N, K) standard
    normal panel, mapped once when drawn, obligors along the contiguous
    axis, and eta the sample's own N normals.  All of eta is drawn
    first, then the panels in epoch order: a block of whole epochs draws
    all its panels, and a block within an epoch (``_block_rows`` gives
    one or the other) draws the panel if it starts the epoch and reuses
    it otherwise.  Each sample's law is that of an independent draw.
    """
    eta = rng.standard_normal((base, g.shape[1]))
    for lo in range(0, base, len(out)):
        hi = min(lo + len(out), base)
        if lo % _WISHART_EPOCH == 0:
            _sigma_half_in_place(rng.standard_normal(out=g[: _epochs(hi - lo)]), params)
        r = out[: hi - lo]
        n_full = len(r) // _WISHART_EPOCH
        whole = n_full * _WISHART_EPOCH
        np.einsum(
            "emn,enk->emk",
            eta[lo : lo + whole].reshape(n_full, _WISHART_EPOCH, g.shape[1]),
            g[:n_full],
            out=r[:whole].reshape(n_full, _WISHART_EPOCH, g.shape[2]),
        )
        if whole < len(r):
            np.einsum("mn,nk->mk", eta[lo + whole : hi], g[n_full], out=r[whole:])
        yield lo, r


def _sigma_half_in_place(x, params: MarketParams):
    """Map x to Sigma^(1/2) x / sqrt(N) in place, with Sigma acting on
    the last axis, the obligor axis of a stack of G panels: sqrt(1-c) off
    the uniform direction and sqrt(1-c+cK) along it, times rho sqrt(T)."""
    k = x.shape[-1]
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    proj = x.mean(axis=-1, keepdims=True)
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
        params, rng, n, np.empty((rows, k_obligors)), np.empty((_epochs(rows), dof, k_obligors))
    ):
        r[lo : lo + len(block)] = block
    return _values_in_place(r, *_value_rows(block_market(params, k_obligors)))


# ---------------------------------------------------------------------------
# loss evaluation


class _Portfolio:
    """What every block of one ``estimate`` shares, computed once: the
    market blocks, and how losses are formed from them.

    One entry per holdings class (one class at the f_total face for a
    tranched pool): its market block, its obligor count (the obligors of
    a class are contiguous, class by class) and its default bound
    log(face/v0) - nu T, the log-return below which an obligor defaults;
    and the weight (B, C) of a class's loss sum in each creditor's
    loss.  A tranched pool keeps its tranches, the senior bound
    log(f_senior/f_total) (-inf without a senior face) and the junior
    payoff scale f_total/f_junior.
    """

    def __init__(self, scenario):
        self.markets = block_market(scenario.params, scenario.k_obligors)
        self.tranches = scenario.tranches if isinstance(scenario, SubordinatedScenario) else None
        if self.tranches is None:
            _, classes, shares = scenario.holdings
            self.counts = _whole_counts(scenario)
            self.class_weights = shares / (shares * self.counts).sum(axis=1, keepdims=True)
        else:
            tr = self.tranches
            classes = [(0, tr.f_total, scenario.k_obligors)]
            self.counts = np.array([scenario.k_obligors])
            self.senior_bound = math.log(tr.f_senior / tr.f_total) if tr.f_senior > 0 else -math.inf
            self.junior_scale = tr.f_total / tr.f_junior
        self.class_block = np.array([blk for blk, _, _ in classes])
        mkts = [self.markets.blocks[blk][0] for blk, _, _ in classes]
        self.bounds = np.array([
            math.log(face / mkt.v0) - mkt.drift_adj * mkt.t_mat
            for mkt, (_, face, _) in zip(mkts, classes)
        ])


def _excess_losses(pf: _Portfolio, cells, x, scratch, losses, n_def, n_full):
    """Write the losses (rows, B), default counts (rows,) and, for a
    tranched pool, senior-hit counts (rows,) of a block of rows from its
    defaulted obligors alone, the one evaluation step of both routes:
    their log excesses x <= 0 in row and obligor order, and their cells
    row * C + class.  ``x`` is overwritten, and so are the spare and mask
    buffers of the block's ``scratch``.  A row's default count and its
    class sums are bincounts over the cells, each class summed in obligor
    order.  An obligor loses -expm1(x) = (1 - V/F)^+, and a plain loss
    weighs the class sums.  A tranched loss is a class sum / K, as a row
    mean is, of -expm1(min(x - h, 0)) at the senior bound h, and of
    min(-expm1(x) f_total/f_junior, 1), exactly 1 for a senior hit x < h.
    The senior sum reads the hits alone: every other term is -expm1(0) =
    -0.0, which adds nothing to a sum.  The weighted sums use einsum, not
    BLAS: BLAS worker threads keep spinning after each call and take cores
    from the chunk threads."""
    rows, n_cls = len(losses), len(pf.counts)
    n_def[:] = np.bincount(cells, minlength=rows * n_cls).reshape(rows, n_cls).sum(axis=1)

    def cell_sums(w):
        return np.bincount(cells, weights=w, minlength=rows * n_cls).reshape(rows, n_cls)

    if pf.tranches is None:
        np.expm1(x, out=x)
        np.negative(x, out=x)
        np.einsum("mc,bc->mb", cell_sums(x), pf.class_weights, out=losses)
        return
    k = pf.counts[0]
    hits = np.flatnonzero(np.less(x, pf.senior_bound, out=scratch.mask.reshape(-1)[: len(x)]))
    hit_rows = cells[hits]  # a tranched pool is one class
    n_full[:] = np.bincount(hit_rows, minlength=rows)
    ls = np.take(x, hits, out=scratch.spare.reshape(-1)[: len(hits)])
    ls -= pf.senior_bound
    np.expm1(ls, out=ls)
    np.negative(ls, out=ls)
    losses[:, 0] = np.bincount(hit_rows, weights=ls, minlength=rows) / k
    np.expm1(x, out=x)
    x *= -pf.junior_scale
    np.minimum(x, 1.0, out=x)
    x[hits] = 1.0
    losses[:, 1] = cell_sums(x)[:, 0] / k


# ndtri(1) is inf; a shock drawn at a default probability no higher than
# this stays finite (at most 8.2), and its law moves by at most 2^-53
_P_SHOCK_MAX = float(np.nextafter(1.0, 0.0))


def _conditional_defaults(pf: _Portfolio, rng, m, scratch):
    """The defaulted obligors of m compound samples, a block of rows at a
    time: (rows, cells, x) for :func:`_excess_losses`.

    The mixing variables (z, u) of all m rows come first.  Given them,
    every row draws the default count of each class, all rows in row
    order, and then, a block of rows at a time, a uniform U in (0, 1] per
    defaulted obligor in row and class order.  Its shock eps =
    Phi^-1(U Phi(t)) lies below the class threshold t = a / scale, a the
    class bound less the row's shift, and its log excess is x = scale eps
    - a.  Where z is 0 the scale is 0 and t is +-inf: each class defaults
    all or none, with x = -a.  A tranched pool's one class defaults at
    f_total.
    """
    scale, shift = _mixing(pf.markets, rng, m)
    scale = scale[:, pf.class_block]
    a = pf.bounds - shift[:, pf.class_block]
    with np.errstate(over="ignore"):  # a / scale past the float range is t = +-inf too
        t = np.divide(a, scale, out=np.where(a > 0, np.inf, -np.inf), where=scale > 0)
    p = ndtr(t)
    counts = rng.binomial(pf.counts, p)
    np.minimum(p, _P_SHOCK_MAX, out=p)
    n_cls = counts.shape[1]
    step = len(scratch.values)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        cells = np.repeat(np.arange((hi - lo) * n_cls), counts[lo:hi].ravel())
        x = rng.random(out=scratch.values.reshape(-1)[: len(cells)])
        spare = scratch.spare.reshape(-1)[: len(cells)]
        np.subtract(1.0, x, out=x)
        x *= np.take(p[lo:hi].ravel(), cells, out=spare)
        ndtri(x, out=x)
        x *= np.take(scale[lo:hi].ravel(), cells, out=spare)
        x -= np.take(a[lo:hi].ravel(), cells, out=spare)
        yield slice(lo, hi), cells, np.minimum(x, 0.0, out=x)


def _wishart_defaults(pf: _Portfolio, rng, m, scratch):
    """The defaulted obligors of m Wishart samples of the one market, a
    block of returns r (:func:`_wishart_blocks`) at a time: (rows, cells,
    x) for :func:`_excess_losses`.  An obligor defaults where its return
    lies below its class bound b, with log excess x = r - b < 0.  Its
    cell, obligor and x are written into the slot's scratch; a block
    allocates only the flat indices of its defaults."""
    bounds = np.repeat(pf.bounds, pf.counts)
    obligor_class = np.repeat(np.arange(len(pf.counts)), pf.counts)
    for lo, r in _wishart_blocks(pf.markets.blocks[0][0], rng, m, scratch.values, scratch.g):
        idx = np.flatnonzero(np.less(r, bounds, out=scratch.mask[: len(r)]))
        n = len(idx)
        x = np.take(r.reshape(-1), idx, out=scratch.excess[:n])
        cells, obligor = np.divmod(idx, len(bounds), out=(scratch.cells[:n], scratch.obligor[:n]))
        x -= np.take(bounds, obligor, out=scratch.spare.reshape(-1)[:n])
        cells *= len(pf.counts)
        cells += np.take(obligor_class, obligor, out=idx)
        yield slice(lo, lo + len(r)), cells, x


# ---------------------------------------------------------------------------
# streamed estimation


@dataclass
class McRun:
    """Estimates and diagnostics from one simulation run.

    Standard errors of the means are sample std / sqrt(n) for compound
    runs, whose n draws are independent.  A Wishart run draws one
    covariance per epoch of ``epoch_samples`` samples, so its ``mean_se``
    comes from the variance between epochs, and ``corr_se`` uses the
    effective count n / deff, deff the largest design effect of the means.
    ``p_no_default_se`` is binomial; ``design_effect`` gives the factor by
    which a count's variance grows, from the between-epoch sums of
    squares ``cell_cluster_ss`` (of the compared histogram's cells) and
    ``no_default_cluster_ss``.  Each design effect is floored at 1.
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
    epoch_samples: int = 1
    cell_cluster_ss: Optional[np.ndarray] = None
    no_default_cluster_ss: Optional[float] = None

    def design_effect(self, cells=None) -> float:
        """Between-epoch variance of a count over its binomial variance,
        floored at 1: of the no-default count, or pooled over the cells of
        the compared histogram (``hist_2d``, else ``hist_1d[0]``) that the
        boolean mask ``cells`` selects.  1 for independent samples, and
        where the selected counts have no binomial variance."""
        if self.epoch_samples == 1:
            return 1.0
        if cells is None:
            ss, share = self.no_default_cluster_ss, self.p_no_default
        else:
            hist = self.hist_2d if self.hist_2d is not None else self.hist_1d[0]
            ss, share = self.cell_cluster_ss[cells], hist[cells]
        binomial = self.n * float(np.sum(share * (1.0 - share)))
        return max(1.0, float(np.sum(ss)) / binomial) if binomial > 0.0 else 1.0

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
    """Samples per block: as many of ``rows`` as keep a block's (m, K)
    values within ``_BLOCK_ELEMENTS``, and one at least.  With a Wishart
    N the block's returns and the (N, K) G panels of its epochs share
    that budget, (1 + N / M) K values per sample, and a block below
    ``rows`` holds whole epochs, or one sample where that is over the
    budget, so that no block crosses an epoch boundary mid-block."""
    if not wishart_dof:
        return min(rows, max(1, _BLOCK_ELEMENTS // k))
    m = _BLOCK_ELEMENTS * _WISHART_EPOCH // (k * (_WISHART_EPOCH + wishart_dof))
    return min(rows, max(1, m - m % _WISHART_EPOCH))


class _Scratch:
    """One worker slot's block buffers for chunks of up to ``rows``
    samples, each holding one block of ``_block_rows`` samples: float and
    boolean scratch for the block's values (the compound route's
    defaulted shocks, at most K per sample, or the Wishart route's
    returns) and, with a Wishart N, the (N, K) G panels of the block's
    epochs, one per ``_WISHART_EPOCH`` samples, and the log excesses,
    cells and obligors of the block's defaulted obligors, at most K per
    sample, so that no block allocates arrays of its default count."""

    def __init__(self, rows: int, k: int, wishart_dof: int):
        m = _block_rows(rows, k, wishart_dof)
        self.values = np.empty((m, k))
        self.spare = np.empty((m, k))
        self.mask = np.empty((m, k), dtype=bool)
        self.g = self.excess = self.cells = self.obligor = None
        if wishart_dof:
            self.g = np.empty((_epochs(m), wishart_dof, k))
            self.excess = np.empty(m * k)
            self.cells, self.obligor = np.empty((2, m * k), dtype=np.int64)


def _chunk_losses(scenario, cfg, chunk_index, m, scratch, pf):
    """(losses (m, B), n_defaults (m,), n_full (m,)) of one chunk, a block
    of samples at a time: the compound route
    (:func:`_conditional_defaults`) or the Wishart one
    (:func:`_wishart_defaults`) finds each block's defaulted obligors, and
    :func:`_excess_losses` evaluates them."""
    rng = _chunk_rng(cfg.rng_seed, chunk_index)
    losses = np.empty((m, len(_labels(scenario))))
    n_def = np.empty(m, dtype=np.int64)
    n_full = np.zeros(m, dtype=np.int64)
    route = _conditional_defaults if cfg.sampler == "compound" else _wishart_defaults
    for out, cells, x in route(pf, rng, m, scratch):
        _excess_losses(pf, cells, x, scratch, losses[out], n_def[out], n_full[out])
    return losses, n_def, n_full


def _histograms(losses, edges):
    """Bin a chunk's losses (m, B) once on ``edges`` from 0 to 1: each
    sample's cell (m,) in the compared histogram, i * bins + j with two
    losses, else the first loss's bin; the counts ``hist1`` (B, bins) and,
    with two losses, ``hist2`` (bins, bins), else None.  A loss falls in
    the bin [e_i, e_i+1), the last bin closed: np.histogram's and
    np.histogram2d's rule.  Losses lie in [0, 1]; a value outside, which
    only rounding could yield, counts in the nearest end bin, where
    np.histogram would drop it."""
    b, n_bins = losses.shape[1], len(edges) - 1
    bins = np.searchsorted(edges, losses, "right") - 1
    np.clip(bins, 0, n_bins - 1, out=bins)
    hist1 = np.bincount((bins + n_bins * np.arange(b)).ravel(), minlength=b * n_bins)
    hist1 = hist1.reshape(b, n_bins)
    if b != 2:
        return bins[:, 0], hist1, None
    cell = bins[:, 0] * n_bins + bins[:, 1]
    return cell, hist1, np.bincount(cell, minlength=n_bins**2).reshape(n_bins, n_bins)


def _chunk_stats(scenario, cfg, chunk_index, m, scratch, pf, edges):
    """Partial statistics of one chunk, as a dict of summable counts and
    sums, and its losses (m, B), binned once for the histograms and the
    Wishart epoch sums alike."""
    losses, n_def, n_full = _chunk_losses(scenario, cfg, chunk_index, m, scratch, pf)
    cell, hist1, hist2 = _histograms(losses, edges)
    stats = {
        "sum1": losses.sum(axis=0),
        "sum2": np.einsum("mb,mc->bc", losses, losses),
        "sumsq": (losses * losses).sum(axis=0),
        "hist1": hist1,
        "n_origin": int((n_def == 0).sum()),
        "n_sub_viol": 0,
        "n_lattice_bad": 0,
    }
    if hist2 is not None:
        stats["hist2"] = hist2
    if isinstance(scenario, SubordinatedScenario):
        stats["n_sub_viol"] = int((losses[:, 0] > losses[:, 1]).sum())
        on_lattice = (n_def - n_full) == 0
        expected = n_full / scenario.k_obligors
        stats["n_lattice_bad"] = int((on_lattice & (losses[:, 1] != expected)).sum())
    if cfg.sampler == "wishart":
        n_cells = hist1.shape[1] if hist2 is None else hist2.size
        stats.update(_epoch_stats(losses, n_def, cell, n_cells))
    return stats, losses


def _epoch_stats(losses, n_def, cell, n_cells) -> dict:
    """Sums over the Wishart epochs of one chunk, from which ``estimate``
    forms between-epoch variances: ``ep_mm``, the sum of m_e^2 over the
    epoch sizes m_e, and over the epochs' sums y_e of the losses, of the
    no-default indicator and of each compared cell's indicator, the sums
    of y_e^2 and of m_e y_e.  ``cell`` is each sample's cell, of
    ``n_cells``, in the compared histogram (:func:`_histograms`); cell
    counts come from the chunk's unique (epoch, cell) keys, in O(m)."""
    m = len(losses)
    starts = np.arange(0, m, _WISHART_EPOCH)
    size = np.diff(starts, append=m)
    keys, y = np.unique(np.repeat(np.arange(len(size)) * n_cells, size) + cell, return_counts=True)
    cells, y_m = keys % n_cells, y * size[keys // n_cells]
    sums = np.add.reduceat(losses, starts)
    n_nd = np.add.reduceat((n_def == 0).astype(np.int64), starts)
    return {
        "ep_mm": int(size @ size),
        "ep_loss_sq": np.einsum("eb,eb->b", sums, sums),
        "ep_loss_m": np.einsum("e,eb->b", size, sums),
        "ep_nd_sq": int(n_nd @ n_nd),
        "ep_nd_m": int(size @ n_nd),
        "ep_cell_sq": np.bincount(cells, weights=y * y, minlength=n_cells),
        "ep_cell_m": np.bincount(cells, weights=y_m, minlength=n_cells),
    }


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
    var = np.maximum(totals["sumsq"] / n - mean**2, 0.0)
    mean_se = np.sqrt(var / n)
    p_nd = totals["n_origin"] / n
    epoch = {}
    deff = 1.0
    if config.sampler == "wishart":
        def cluster_ss(key, share):
            """Sum over epochs of (y_e - m_e share)^2, y_e the epochs' sums."""
            sq, m_y = totals[f"ep_{key}_sq"], totals[f"ep_{key}_m"]
            return np.maximum(sq - 2.0 * share * m_y + share**2 * totals["ep_mm"], 0.0)

        # the means' design effects, floored at 1
        deff_mean = np.divide(cluster_ss("loss", mean), n * var, out=np.ones(b), where=var > 0.0)
        np.maximum(deff_mean, 1.0, out=deff_mean)
        mean_se *= np.sqrt(deff_mean)
        deff = float(deff_mean.max())
        hist = totals["hist2"] if b == 2 else totals["hist1"][0]
        epoch = {
            "epoch_samples": _WISHART_EPOCH,
            "cell_cluster_ss": cluster_ss("cell", hist.ravel() / n).reshape(hist.shape),
            "no_default_cluster_ss": float(cluster_ss("nd", p_nd)),
        }
    corr = corr_se = None
    if b == 2:
        v1, v2 = cov[0, 0], cov[1, 1]
        if v1 > 0.0 and v2 > 0.0:
            corr = float(cov[0, 1] / (math.sqrt(v1) * math.sqrt(v2)))
            corr_se = (1.0 - corr**2) / math.sqrt(n / deff)
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
        **epoch,
    )


def ks_compare(scenario, n: int = 100_000, seed: int = 0, n_bins: int = 50) -> dict:
    """Two-sample Kolmogorov-Smirnov comparison of the compound and
    Wishart samplers on the same scenario; one statistic per creditor.
    The Wishart samples come in epochs of ``_WISHART_EPOCH`` that share a
    covariance, so the p-value, which takes every sample as independent,
    leans slightly low."""
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
