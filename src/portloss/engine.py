"""Portfolio loss densities, cell masses and correlations.

Losses conditioned on the scale variable z and the common factor u are sums
of many independent obligor losses, so each conditional slice is treated as
Gaussian with the exact conditional mean and covariance; the unconditional
objects are mixtures of those slices over the (z, u) quadrature rule.

Two scenario flavours are supported.  A subordinated scenario tracks the
joint (senior, junior) loss of one tranched portfolio.  A plain scenario
tracks one or more untranched creditors through its holdings: a block
market (a single market is the one-block market), classes of identical
obligors, each with a block, a face and a count, and the face each
creditor holds in each class.  Overlapping portfolios and one creditor
per market block are both holdings of this form.  Given (z, u) the
classes are independent, so every plain consumer - node table,
singularity check, sampler weights, no-default mass - is one loop over
classes or blocks.

Both flavours share one node table format, built once per (scenario,
quadrature) and cached: weights w (n,), the conditional means of the B
tracked losses (B, n) and their conditional covariances (B, B, n).  A
tranched scenario has B = 2 (senior, junior).

The table is pruned where it is built: the lightest nodes whose weights
sum to at most ``_PRUNE_MASS`` = 1e-14 are dropped and the rest are not
renormalised.  Each slice is a probability law, so every cell mass, and
the total mass, moves by at most 1e-14, and so do the means and second
moments of losses in [0, 1].  At the default 64 x 64 rule about a quarter
of the nodes remain.

Every density - one point, a 1-D or 2-D grid, a marginal, fixed rule or
adaptive - is a call of the mixture kernel :func:`_mixture_density` on a
node table.  The kernel takes one 1-D array of loss values per tracked
loss and returns the density on their cartesian product; a point is a
call with one-element axes.  The adaptive rule of a tranched scenario
builds one small table per grid cell, localized where the slice means
cross that cell, in the same format; all cells of a grid share one
batched crossing solve (:func:`_adaptive_density`).  For
B = 2 each slice factors as w phi(x) phi(y | x): the x factor is computed
once per (x, node), and each x row then evaluates the conditional slices
over all y and contracts them with that row's factors.  Pairs whose x
factor underflows to exactly 0 are skipped, so each row evaluates only
the slices whose window contains its x; a skipped term is below the
smallest subnormal times its slice's conditional peak 1/sqrt(2 pi vc).
Every intermediate holds at most ``_CHUNK_ELEMENTS`` elements, which
bounds peak memory for any grid and rule size.  Cell masses, moments and
correlations read the same table.

Numerical care points, all load-bearing:
  * densities are evaluated in log space and nodes whose conditional
    covariance collapses are masked (they carry a delta slice that a point
    density cannot represent);
  * cell masses use a probability-space substitution per slice, so
    arbitrarily narrow slices are integrated exactly and total mass is
    conserved to machine precision, apart from the pruned weight;
  * second moments never subtract nearly equal numbers: the exact
    conditional decomposition E[L_a L_b] = E[M1_a M1_b + Cov_ab] is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.special import gammaincinv, ndtr, ndtri

from .errors import (
    ParameterError,
    SingularCovarianceError,
    UndefinedCorrelationError,
)
from .grids import DensityGrid, cell_centers
from .moments import (
    junior_mean_target_du,
    moment_junior,
    moment_plain,
    moment_senior,
    moment_senior_du,
)
from .params import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    SubordinationSpec,
    block_market,
)
from .quadrature import QuadratureSpec, chi2_log_weight, chi2_nodes, gauss_nodes

__all__ = [
    "SubordinatedScenario",
    "NoSubScenario",
    "GaussianMomentTerms",
    "gaussian_moment_terms",
    "density_subordinated",
    "subordinated_cell_masses",
    "density_grid_subordinated",
    "marginal_density",
    "alphas",
    "density_nosub",
    "density_nosub_multimarket",
    "nosub_cell_masses",
    "density_grid_nosub",
    "no_default_probability",
    "tail_probability",
    "loss_correlation",
    "mass_accounting",
]

_VAR_FLOOR = 1e-300
_LOG_CLIP = 700.0
_CHUNK_ELEMENTS = 4.0e6  # elements per kernel intermediate
_PRUNE_MASS = 1e-14  # node weight dropped from every node table, at most
_GL_POINTS = 8  # Gauss-Legendre points per x cell in bivariate cell masses

AnyParams = Union[MarketParams, MultiMarketParams]


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class SubordinatedScenario:
    """Homogeneous portfolio of ``k_obligors`` identical firms whose debt is
    split into a senior and a junior tranche."""

    k_obligors: int
    tranches: SubordinationSpec
    params: MarketParams

    def __post_init__(self):
        if not (isinstance(self.k_obligors, (int, np.integer)) and self.k_obligors >= 1):
            raise ParameterError(f"k_obligors must be a positive integer, got {self.k_obligors}")
        if not isinstance(self.tranches, SubordinationSpec):
            raise ParameterError("tranches must be a SubordinationSpec")
        if not isinstance(self.params, MarketParams):
            raise ParameterError("params must be MarketParams")

    @property
    def obligor_face(self) -> float:
        """Total face per firm, senior plus junior."""
        return self.tranches.f_total

    @property
    def tracked_losses(self) -> dict:
        """``which`` key of each tracked loss, in node-table order, mapped
        to its label."""
        return {"senior": "senior", "junior": "junior"}

    @property
    def accuracy_warning(self) -> bool:
        """Below ~8 obligors the Gaussian slice approximation is dubious."""
        return self.k_obligors < 8


class Holdings(NamedTuple):
    """Who holds which obligors in a plain scenario.

    ``markets`` is the block market of the obligors.  ``classes`` lists
    groups of identical obligors as (block index, face, count); a count
    may be fractional for an analytic overlap layout, and a class without
    obligors is left out.  ``shares`` (creditors, classes) is the face
    each creditor holds in each obligor of a class, in a unit common to
    the creditor's row, so creditor b's portfolio weight in class c is
    shares[b, c] count_c / sum_c' shares[b, c'] count_c'.  Obligors are
    ordered class by class, and the classes of a block are contiguous and
    in block order.
    """

    markets: MultiMarketParams
    classes: tuple
    shares: np.ndarray


@dataclass(frozen=True)
class NoSubScenario:
    """Untranched portfolio seen by one or more creditors.

    The constructor takes one of two layouts:

    * ``overlap`` set: single market, two creditors sharing ``k_obligors``
      identical firms of face ``overlap.f0``: the classes held by creditor
      one only, by both (creditor one holding ``gamma`` of each face) and
      by creditor two only.
    * otherwise: homogeneous face ``face`` for every firm, one class per
      market block.  With multi-market params ``creditors`` may be 1
      (total loss) or the number of markets (one creditor per block);
      single-market params are the one-block market with one creditor.

    Every consumer reads the layout only through :attr:`holdings`.
    """

    k_obligors: int
    params: AnyParams
    face: Optional[float] = None
    overlap: Optional[OverlapSpec] = None
    creditors: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.k_obligors, (int, np.integer)) and self.k_obligors >= 1):
            raise ParameterError(f"k_obligors must be a positive integer, got {self.k_obligors}")
        multi = isinstance(self.params, MultiMarketParams)
        if not multi and not isinstance(self.params, MarketParams):
            raise ParameterError("params must be MarketParams or MultiMarketParams")
        block_market(self.params, self.k_obligors)  # refuses blocks not totalling k_obligors
        if self.overlap is not None:
            if multi:
                raise ParameterError("overlap layout requires single-market params")
            if self.face is not None and self.face != self.overlap.f0:
                raise ParameterError("face conflicts with overlap.f0")
            if self.creditors not in (None, 2):
                raise ParameterError("overlap layout has exactly 2 creditors")
            if not (self.overlap.share_one > 0 and self.overlap.share_two > 0):
                raise ParameterError("each creditor needs a positive share of the pool")
        else:
            if self.face is None or not (self.face > 0):
                raise ParameterError("homogeneous layout needs face > 0")
            allowed = (1, self.params.beta) if multi else (1,)
            if self.creditors is None:
                object.__setattr__(self, "creditors", allowed[-1])
            elif self.creditors not in allowed:
                raise ParameterError(
                    f"creditors must be one of {sorted(set(allowed))} for this layout"
                )

    @cached_property
    def holdings(self) -> Holdings:
        """The layout as classes of identical obligors and each creditor's
        face in them."""
        k = self.k_obligors
        markets = block_market(self.params, k)
        if self.overlap is not None:
            ov = self.overlap
            counts = (ov.r1 * k, ov.r12 * k, (1.0 - ov.r1 - ov.r12) * k)
            classes = [(0, ov.f0, n) for n in counts]
            shares = [(1.0, ov.gamma, 0.0), (0.0, 1.0 - ov.gamma, 1.0)]
        else:
            classes = [(b, self.face, k_b) for b, (_, k_b) in enumerate(markets.blocks)]
            shares = np.eye(len(classes)) if self.creditors > 1 else np.ones((1, len(classes)))
        # empty classes come from r12 = 0, or from r1 + r12 inside the
        # rounding slack OverlapSpec allows above 1
        kept = [c for c, (_, _, n) in enumerate(classes) if n > 0]
        shares = np.ascontiguousarray(np.asarray(shares, dtype=float)[:, kept])
        shares.flags.writeable = False
        return Holdings(markets, tuple(classes[c] for c in kept), shares)

    @property
    def n_creditors(self) -> int:
        return len(self.holdings.shares)

    @property
    def obligor_face(self) -> float:
        """Common face per firm."""
        return self.face if self.overlap is None else self.overlap.f0

    @property
    def tracked_losses(self) -> dict:
        """Creditor number of each tracked loss, in node-table order, mapped
        to its label."""
        return {b: f"creditor_{b}" for b in range(1, self.n_creditors + 1)}

    @property
    def accuracy_warning(self) -> bool:
        return self.k_obligors < 8


class GaussianMomentTerms(NamedTuple):
    """Conditional mean/covariance of the (senior, junior) portfolio pair at
    fixed (z, u); the cross term is the exact conditional covariance."""

    mean_senior: np.ndarray
    var_senior: np.ndarray
    mean_junior: np.ndarray
    var_junior: np.ndarray
    cross: np.ndarray


# ---------------------------------------------------------------------------
# node tables


def _multi_nodes(params: MultiMarketParams, quad: QuadratureSpec):
    """Shared-z nodes with a tensor Gauss grid over the per-market factors.

    Returns flat arrays: z (n,), u (beta, n), w (n,)."""
    beta = params.beta
    n = params.n_fluct
    z, wz = chi2_nodes(n, quad.z_nodes)
    u1, wu1 = gauss_nodes(n, quad.u_nodes)
    grids = np.meshgrid(*([u1] * beta), indexing="ij")
    u_flat = np.stack([g.ravel() for g in grids])  # (beta, nu^beta)
    wu = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([wu1] * beta), indexing="ij")]),
        axis=0,
    )
    nu = u_flat.shape[1]
    zz = np.repeat(z, nu)
    uu = np.tile(u_flat, len(z))
    ww = np.repeat(wz, nu) * np.tile(wu, len(z))
    return zz, uu, ww


def gaussian_moment_terms(z, u, scenario: SubordinatedScenario) -> GaussianMomentTerms:
    """All five conditional aggregates of the tranched portfolio at (z, u).

    For the homogeneous portfolio with per-firm weight 1/K the senior and
    junior means equal the single-firm means while the (co)variances shrink
    by 1/K.  The junior mean includes the total-wipeout contribution; the
    cross covariance is m1_senior (1 - m0_senior - m1_junior_band) / K,
    which is exact because a firm whose senior tranche loses anything has
    junior loss exactly 1 minus the band part.
    """
    faces, params, k = scenario.tranches, scenario.params, scenario.k_obligors
    m0s = moment_senior(0, z, u, faces, params)
    m1s = moment_senior(1, z, u, faces, params)
    m2s = moment_senior(2, z, u, faces, params)
    m1j = moment_junior(1, z, u, faces, params)
    m2j = moment_junior(2, z, u, faces, params)
    mean_s = m1s
    var_s = np.maximum(m2s - m1s * m1s, 0.0) / k
    mean_j = m0s + m1j
    var_j = np.maximum(m0s + m2j - mean_j * mean_j, 0.0) / k
    cross = m1s * (1.0 - m0s - m1j) / k
    cap = np.sqrt(var_s * var_j)
    cross = np.clip(cross, -cap, cap)
    return GaussianMomentTerms(mean_s, var_s, mean_j, var_j, cross)


def _tranche_table(z, u, w, scenario: SubordinatedScenario):
    """Node table of a tranched scenario on the nodes (z, u) with weights w."""
    t = gaussian_moment_terms(z, u, scenario)
    means = np.stack([t.mean_senior, t.mean_junior])
    cov = np.array([[t.var_senior, t.cross], [t.cross, t.var_junior]])
    return w, means, cov


def _unpruned_table(scenario, quad: QuadratureSpec):
    """The mixture of conditional Gaussian slices over the flat node list:
    weights w (n,), means of the tracked losses (B, n) and their covariance
    components (B, B, n).

    A plain scenario evaluates the single-firm moments once per distinct
    (block, face) of its holdings; its classes are independent given
    (z, u), so the means are W m1 and the covariances
    sum_c W_bc W_b'c var_c / count_c, with W the class weights."""
    if isinstance(scenario, SubordinatedScenario):
        z, u, w = _multi_nodes(block_market(scenario.params, scenario.k_obligors), quad)
        return _tranche_table(z, u[0], w, scenario)
    markets, classes, _ = scenario.holdings
    z, u, w = _multi_nodes(markets, quad)
    slices = {}  # (m1, var) per distinct (block, face)
    for block, face, _ in classes:
        if (block, face) not in slices:
            mkt = markets.blocks[block][0]
            m1 = moment_plain(1, z, u[block], face, mkt)
            m2 = moment_plain(2, z, u[block], face, mkt)
            slices[block, face] = m1, np.maximum(m2 - m1 * m1, 0.0)
    m1, var = (np.stack(a) for a in zip(*(slices[b, f] for b, f, _ in classes)))
    wts, counts = _class_weights(scenario)
    means = wts @ m1
    cov = np.einsum("bl,cl,ln->bcn", wts, wts, var / counts[:, None])
    return w, means, cov


def _class_weights(scenario: NoSubScenario):
    """Each creditor's portfolio weight in each holdings class (B, C), and
    the class counts (C,)."""
    _, classes, shares = scenario.holdings
    counts = np.array([n for _, _, n in classes], dtype=float)
    held = shares * counts
    return held / held.sum(axis=1, keepdims=True), counts


@lru_cache(maxsize=16)
def _pruned_table(scenario, quad: QuadratureSpec):
    """The node table without its lightest nodes, whose weights sum to at
    most ``_PRUNE_MASS``, and a record of what was dropped.  The kept
    weights are not renormalised."""
    w, means, cov = _unpruned_table(scenario, quad)
    order = np.argsort(w, kind="stable")
    light = order[np.cumsum(w[order]) <= _PRUNE_MASS]
    keep = np.ones(len(w), dtype=bool)
    keep[light] = False
    record = {
        "nodes_used": int(keep.sum()),
        "nodes_pruned": len(light),
        "pruned_mass": float(w[light].sum()),
    }
    return (w[keep], means[:, keep], cov[:, :, keep]), record


def _node_table(scenario, quad: QuadratureSpec):
    """The pruned node table (w, means, cov) of a scenario."""
    return _pruned_table(scenario, quad)[0]


# ---------------------------------------------------------------------------
# safe Gaussian building blocks


def norm_cdf_safe(x, mean, sigma):
    """Normal CDF that degrades to a unit step when sigma == 0."""
    sigma = np.asarray(sigma, dtype=float)
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    pos = sigma > 0.0
    denom = np.where(pos, sigma, 1.0)
    with np.errstate(invalid="ignore"):
        body = ndtr((x - mean) / denom)
    step = (x >= mean).astype(float)
    return np.where(pos, body, step)


def _norm_log_density(dx, var_x):
    var_x = np.asarray(var_x, dtype=float)
    valid = var_x > _VAR_FLOOR
    vx = np.where(valid, var_x, 1.0)
    logp = -0.5 * math.log(2.0 * math.pi) - 0.5 * np.log(vx) - 0.5 * dx * dx / vx
    return np.minimum(logp, _LOG_CLIP), valid


def _mixture_cell_masses(w, mean_x, var_x, mean_y, var_y, cov, edges_x, edges_y):
    """Exact cell masses of a bivariate-normal mixture on a rectangular grid.

    Per slice the x integral is substituted into probability space
    t = Phi((x - mean)/sigma), which turns any slice, however narrow, into a
    smooth integrand on [0, 1]; the y direction is then a difference of
    conditional CDFs.  Column totals per slice sum to the slice's x-cell
    probabilities exactly, so total mass is conserved by construction.
    Outermost edges may be +-inf to capture everything.
    """
    edges_x = np.asarray(edges_x, dtype=float)
    edges_y = np.asarray(edges_y, dtype=float)
    nx, ny = len(edges_x) - 1, len(edges_y) - 1
    tq, twq = np.polynomial.legendre.leggauss(_GL_POINTS)
    tq = 0.5 * (tq + 1.0)
    twq = 0.5 * twq
    out = np.zeros((nx, ny))
    chunk = max(1, int(2.5e6 / max(1, nx * _GL_POINTS * (ny + 1))))
    n_nodes = len(w)
    for s in range(0, n_nodes, chunk):
        e = min(n_nodes, s + chunk)
        wk = w[s:e, None, None]
        mx = np.asarray(mean_x)[s:e, None, None]
        vx = np.asarray(var_x)[s:e, None, None]
        my = np.asarray(mean_y)[s:e, None, None]
        vy = np.asarray(var_y)[s:e, None, None]
        cv = np.asarray(cov)[s:e, None, None]
        sx = np.sqrt(vx)
        # x-cell probabilities and in-cell probability nodes
        t_edges = norm_cdf_safe(edges_x[None, :, None], mx, sx)
        t_lo = t_edges[:, :-1, :]
        p_cell = t_edges[:, 1:, :] - t_lo
        t_nodes = t_lo + p_cell * tq[None, None, :]
        t_clip = np.clip(t_nodes, 1e-300, 1.0 - 1e-16)
        x_nodes = mx + sx * ndtri(t_clip)
        degen = vx <= _VAR_FLOOR
        slope = np.where(degen, 0.0, cv / np.where(degen, 1.0, vx))
        var_c = np.maximum(vy - slope * cv, 0.0)
        sc = np.sqrt(var_c)
        mu_c = my + slope * (x_nodes - mx)
        # (chunk, nx, q, ny_edges) conditional CDFs at y edges
        y_cdf = norm_cdf_safe(
            edges_y[None, None, None, :], mu_c[..., None], sc[..., None]
        )
        y_mass = np.diff(y_cdf, axis=-1)
        contrib = np.einsum("cxq,q,cxqy->xy", p_cell * wk, twq, y_mass)
        out += contrib
    return out


def _univariate_cell_masses(w, mean_x, var_x, edges_x):
    sx = np.sqrt(np.asarray(var_x, dtype=float))[:, None]
    mx = np.asarray(mean_x, dtype=float)[:, None]
    cdf = norm_cdf_safe(edges_x[None, :], mx, sx)
    return np.asarray(w) @ np.diff(cdf, axis=1)


def _cell_masses(table, edges_one, edges_two):
    """Cell masses of a node table: 1-D for one tracked loss, otherwise 2-D
    over the first two."""
    w, means, cov = table
    edges_one = np.asarray(edges_one, dtype=float)
    if len(means) == 1:
        return _univariate_cell_masses(w, means[0], cov[0, 0], edges_one)
    return _mixture_cell_masses(
        w, means[0], cov[0, 0], means[1], cov[1, 1], cov[0, 1],
        edges_one, np.asarray(edges_two, dtype=float),
    )


def _mixture_density(axes, w, means, cov):
    """Mixture density on the cartesian product of ``axes``, one 1-D array
    of loss values per tracked loss; returns shape ``tuple(len(a) for a in
    axes)``.

    B = 2 uses the correlated bivariate slice, factored as
    w phi(x) phi(y | x).  Otherwise the slice log-densities are summed over
    b, which is exact for B = 1 and for the per-market layout (the only one
    with B > 2, at single points), whose conditional covariance is diagonal.
    """
    axes = [np.atleast_1d(np.asarray(a, dtype=float)) for a in axes]
    if len(axes) == 2:
        return _pair_density(axes[0], axes[1], w, means, cov)
    shape = tuple(len(a) for a in axes)
    out = np.empty(shape)
    chunk = max(1, int(_CHUNK_ELEMENTS / max(1, len(w) * math.prod(shape[1:]))))
    for s in range(0, shape[0], chunk):
        logp, valid = 0.0, True
        for b, a in enumerate(axes):
            part = a[s : s + chunk] if b == 0 else a
            logp_b, valid_b = _norm_log_density(part[:, None] - means[b], cov[b, b])
            # axis b of the product grid, nodes last
            logp_b = logp_b.reshape([len(part) if d == b else 1 for d in range(len(axes))] + [-1])
            logp, valid = logp + logp_b, valid & valid_b
        with np.errstate(under="ignore"):
            out[s : s + chunk] = np.where(valid, np.exp(logp), 0.0) @ w
    return out


def _pair_density(xs, ys, w, means, cov):
    """Bivariate mixture density on xs x ys.  The x factors w phi(x) come
    once per (x, node); each x row then contracts its nonzero factors with
    the conditional slices phi(y | x) over all of ys."""
    vx, vy, cxy = cov[0, 0], cov[1, 1], cov[0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(vx > _VAR_FLOOR, cxy / np.where(vx > 0, vx, 1.0), 0.0)
        vc = vy - slope * cxy
    valid = (vx > _VAR_FLOOR) & (vc > _VAR_FLOOR)
    w, mx, my, vx, vc, slope = (a[valid] for a in (w, means[0], means[1], vx, vc, slope))
    log_norm_x = -0.5 * np.log(2.0 * math.pi * vx)
    log_norm_c = -0.5 * np.log(2.0 * math.pi * vc)
    out = np.zeros((len(xs), len(ys)))
    rows = max(1, int(_CHUNK_ELEMENTS / max(1, len(w))))
    for s in range(0, len(xs), rows):
        dx = xs[s : s + rows, None] - mx
        with np.errstate(under="ignore"):
            ax = w * np.exp(log_norm_x - 0.5 * dx * dx / vx)
        for i in range(len(dx)):
            live = np.flatnonzero(ax[i])
            if not len(live):
                continue
            mean_c = my[live] + slope[live] * dx[i, live]
            half_prec = 0.5 / vc[live]
            cols = max(1, int(_CHUNK_ELEMENTS / len(live)))
            for t in range(0, len(ys), cols):
                res = ys[t : t + cols, None] - mean_c
                with np.errstate(under="ignore"):
                    slices = np.exp(log_norm_c[live] - res * res * half_prec)
                out[s + i, t : t + cols] = slices @ ax[i, live]
    return out


def _point_density(point, scenario, quad):
    return float(_mixture_density(point, *_node_table(scenario, quad)).ravel()[0])


def _as_point(l, b):
    arr = np.atleast_1d(np.asarray(l, dtype=float))
    if arr.shape != (b,):
        raise ParameterError(f"expected {b} loss component(s), got shape {arr.shape}")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ParameterError(f"loss fractions must lie in [0, 1], got {arr}")
    return arr


# ---------------------------------------------------------------------------
# subordinated densities


def _gl_panels(edges):
    """16-point Gauss-Legendre nodes and weights on the panels between
    consecutive entries of ``edges`` along its last axis, flattened per
    leading index."""
    x, wx = np.polynomial.legendre.leggauss(16)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    # an explicit width, since there may be no leading rows
    shape = edges.shape[:-1] + (len(x) * (edges.shape[-1] - 1),)
    return (0.5 * (a + b) + 0.5 * (b - a) * x).reshape(shape), (0.5 * (b - a) * wx).reshape(shape)


def _adaptive_density(xs, ys, scenario, quad):
    """Joint density on xs x ys from node tables localized where the
    slice means cross each cell, which is where all the mass of a large
    portfolio sits.

    One crossing solve covers every cell.  At a cell's crossing (z0, u0)
    the slice widths map to sig_u in u through the mean Jacobians, and to
    sig_z = sig_u / |separation slope| in z.  The cell's table has 10
    Gauss-Legendre z panels on z0 +- 10 sig_z and, at each z node whose
    senior and junior u roots lie within 100 sig_u, 6 u panels on the roots
    +- 10 sig_u, weighted by the chi-square and Gaussian densities.  Cells
    without a unique crossing, with a vanishing Jacobian or an empty z
    window are dominated by slice tails and take the dense fixed rule.
    """
    from .limits import _FOUND, _sub_crossings, _sub_u_roots  # limits imports engine

    faces, params = scenario.tranches, scenario.params
    n = params.n_fluct
    span = 10.0
    cr = _sub_crossings(xs, ys, faces, params, 96)
    ci, cj = np.nonzero(cr.status == _FOUND)
    z0 = cr.z0[ci, cj]
    u0 = 0.5 * (cr.u_s[ci, cj] + cr.u_j[ci, cj])
    t0 = gaussian_moment_terms(z0, u0, scenario)
    du_s = np.abs(moment_senior_du(1, z0, u0, faces, params))
    du_j = np.abs(junior_mean_target_du(z0, u0, faces, params))
    slope = np.abs(cr.slope[ci, cj])
    with np.errstate(divide="ignore", invalid="ignore"):
        sig_u = np.sqrt(t0.var_senior / du_s**2 + t0.var_junior / du_j**2)
        # a zero or NaN slope leaves z unlocalized
        sig_z = np.where(slope > 1e-300, sig_u / slope, np.inf)
    # up to the chi-square(n) quantile at 1 - 1e-12; fmax and fmin pass
    # over a NaN bound
    z_lo = np.fmax(1e-8, z0 - span * sig_z)
    z_hi = np.fmin(float(2.0 * gammaincinv(n / 2.0, 1.0 - 1e-12)), z0 + span * sig_z)
    local = ~(du_s < 1e-300) & ~(du_j < 1e-300) & (z_hi > z_lo)
    ci, cj, sig_u = ci[local], cj[local], sig_u[local]
    zc, zw = _gl_panels(np.linspace(z_lo[local], z_hi[local], 11, axis=-1))
    u_s, u_j = _sub_u_roots(xs[ci, None], ys[cj, None], zc, faces, params)
    # nodes where a root is missing (NaN) or the slices sit far apart add nothing
    with np.errstate(invalid="ignore"):
        near = np.abs(u_s - u_j) <= 100.0 * sig_u[:, None]

    vals = np.zeros((len(xs), len(ys)))
    log_gauss_norm = 0.5 * math.log(n / (2.0 * math.pi))
    for c, (i, j) in enumerate(zip(ci, cj)):
        z, wz, us, uj = (a[c, near[c]] for a in (zc, zw, u_s, u_j))
        u, wu = _gl_panels(np.linspace(
            np.minimum(us, uj) - span * sig_u[c], np.maximum(us, uj) + span * sig_u[c], 7, axis=-1
        ))
        log_wt = chi2_log_weight(z, n)[:, None] + log_gauss_norm - 0.5 * n * u * u
        with np.errstate(under="ignore"):
            w = wz[:, None] * wu * np.exp(log_wt)
        z = np.broadcast_to(z[:, None], u.shape)
        table = _tranche_table(z.ravel(), u.ravel(), w.ravel(), scenario)
        vals[i, j] = _mixture_density((xs[i : i + 1], ys[j : j + 1]), *table)[0, 0]

    dense = np.ones(vals.shape, dtype=bool)
    dense[ci, cj] = False
    if dense.any():
        rule = QuadratureSpec(z_nodes=max(quad.z_nodes, 128), u_nodes=max(quad.u_nodes, 128))
        vals[dense] = _mixture_density((xs, ys), *_node_table(scenario, rule))[dense]
    return vals


def density_subordinated(
    l_senior: float,
    l_junior: float,
    scenario: SubordinatedScenario,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Joint density of the (senior, junior) loss pair at one point.

    The value is per unit senior loss per unit junior loss; the origin atom
    (no defaults at all) is not part of the density and is reported by
    :func:`no_default_probability`.
    """
    point = _as_point((l_senior, l_junior), 2)
    if quad.mode == "adaptive":
        return float(_adaptive_density(point[:1], point[1:], scenario, quad)[0, 0])
    return _point_density(point, scenario, quad)


def subordinated_cell_masses(
    scenario: SubordinatedScenario,
    edges_senior,
    edges_junior,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Probability mass of the continuous approximation in each grid cell.

    Outermost edges may be +-inf; with edges (-inf, ..., +inf) on both axes
    the masses sum to 1 within ``_PRUNE_MASS``.
    """
    return _cell_masses(_node_table(scenario, quad), edges_senior, edges_junior)


def density_grid_subordinated(
    scenario: SubordinatedScenario,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 101,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityGrid:
    """Joint density sampled at the centers of an n_cells x n_cells grid.

    Adaptive mode builds a localized node table per cell; one crossing
    solve and one u-root solve serve the whole grid.
    """
    centers = cell_centers(n_cells, lo, hi)
    pruning = {}
    if quad.mode == "adaptive":
        vals = _adaptive_density(centers, centers, scenario, quad)
    else:
        table, pruning = _pruned_table(scenario, quad)
        vals = _mixture_density((centers, centers), *table)
    meta = {
        "kind": "subordinated_joint",
        "k_obligors": scenario.k_obligors,
        "accuracy_warning": scenario.accuracy_warning,
        "quadrature": {
            "z_nodes": quad.z_nodes,
            "u_nodes": quad.u_nodes,
            "mode": quad.mode,
        },
        **pruning,
    }
    return DensityGrid(axes=(centers, centers), values=vals, metadata=meta)


def marginal_density(
    which,
    scenario,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 201,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityGrid:
    """Marginal density of one tracked loss on a 1-D grid.

    ``which`` is 'senior' or 'junior' for a tranched scenario and the
    creditor number for a plain scenario.  Integrating the conditional
    slice over the other coordinates is exact, so each marginal is the
    mixture of that slice's own Gaussian.
    """
    keys = tuple(scenario.tracked_losses)
    if which not in keys:
        raise ParameterError(f"which must be one of {keys}, got {which!r}")
    b = keys.index(which)
    (w, means, cov), pruning = _pruned_table(scenario, quad)
    centers = cell_centers(n_cells, lo, hi)
    vals = _mixture_density((centers,), w, means[b : b + 1], cov[b : b + 1, b : b + 1])
    meta = {
        "kind": f"marginal_{scenario.tracked_losses[which]}",
        "k_obligors": scenario.k_obligors,
        "accuracy_warning": scenario.accuracy_warning,
        **pruning,
    }
    return DensityGrid(axes=(centers,), values=vals, metadata=meta)


# ---------------------------------------------------------------------------
# plain (untranched) portfolios


def alphas(overlap: OverlapSpec):
    """Covariance inflation factors (a1, a12, a2) for two creditors sharing
    an overlap pattern; the pair covariance of the creditor losses is
    (single-firm loss variance / K) times [[a1, a12], [a12, a2]].

    Disjoint equal halves give (2, 0, 2); full overlap gives (1, 1, 1).
    """
    s1 = overlap.share_one
    s2 = overlap.share_two
    a1 = (overlap.r1 + overlap.gamma**2 * overlap.r12) / s1**2
    a12 = overlap.gamma * (1.0 - overlap.gamma) * overlap.r12 / (s1 * s2)
    r2 = 1.0 - overlap.r1 - overlap.r12
    a2 = (r2 + (1.0 - overlap.gamma) ** 2 * overlap.r12) / s2**2
    return float(a1), float(a12), float(a2)


def _class_counts(scenario: NoSubScenario) -> np.ndarray:
    """Obligor count of each holdings class, as floats; a count that is
    not finite or is 2**53 or more, beyond what a float or an int64 holds
    exactly, is refused."""
    counts = np.array([n for _, _, n in scenario.holdings.classes], dtype=float)
    if not np.all(np.abs(counts) < 2.0**53):
        raise ParameterError(
            f"class counts must be finite and below 2**53, got {np.max(np.abs(counts)):.3g}"
        )
    return counts


def _whole_counts(scenario: NoSubScenario) -> np.ndarray:
    """Obligor count of each holdings class as an integer, as simulation
    needs; fractional overlap counts are refused."""
    counts = _class_counts(scenario)
    whole = np.rint(counts)
    if np.any(np.abs(counts - whole) > 1e-9):
        raise ParameterError(
            "overlap fractions must resolve to whole firm counts for "
            f"k_obligors={scenario.k_obligors}"
        )
    return whole.astype(int)


def _creditor_weights(scenario: NoSubScenario) -> np.ndarray:
    """Per-firm portfolio weights, shape (creditors, k_obligors)."""
    per_firm = np.repeat(scenario.holdings.shares, _whole_counts(scenario), axis=1)
    return per_firm / per_firm.sum(axis=1, keepdims=True)


def _check_gram(scenario: NoSubScenario):
    """Refuse a creditor pair whose Gram matrix W diag(1/count) W^T, the
    covariance up to the single-firm variance, is singular."""
    if scenario.n_creditors != 2:
        return
    wts, counts = _class_weights(scenario)
    g = (wts / counts) @ wts.T
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    if det <= 1e-14 * g[0, 0] * g[1, 1]:
        raise SingularCovarianceError(
            "the two creditor portfolios are proportional, so their joint "
            "density is singular; model the common loss with a single "
            "creditor (equal-loss parametrization) instead"
        )


def _check_grid(scenario: NoSubScenario):
    """Refuse a scenario that has no density grid: more than 2 creditors,
    or a singular creditor pair."""
    if scenario.n_creditors > 2:
        raise ParameterError("grids supported for at most 2 creditors")
    _check_gram(scenario)


def density_nosub(
    l,
    scenario: NoSubScenario,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Density of the creditor loss (scalar) or loss pair for a
    single-market untranched scenario.

    Raises SingularCovarianceError when the two creditor portfolios are
    proportional, in which case the pair has no two-dimensional density.
    """
    if isinstance(scenario.params, MultiMarketParams):
        raise ParameterError("use density_nosub_multimarket for multi-market scenarios")
    _check_gram(scenario)
    return _point_density(_as_point(l, scenario.n_creditors), scenario, quad)


def density_nosub_multimarket(
    l,
    scenario: NoSubScenario,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Density of the total loss (one creditor) or the per-market creditor
    loss vector for a block multi-market scenario."""
    if not isinstance(scenario.params, MultiMarketParams):
        raise ParameterError("scenario does not carry multi-market params")
    return _point_density(_as_point(l, scenario.n_creditors), scenario, quad)


def nosub_cell_masses(
    scenario: NoSubScenario,
    edges_one,
    edges_two=None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Cell masses of the continuous approximation for a plain scenario;
    1-D when the scenario has a single creditor."""
    if edges_two is None:
        edges_two = edges_one
    return _cell_masses(_node_table(scenario, quad), edges_one, edges_two)


def density_grid_nosub(
    scenario: NoSubScenario,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 101,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityGrid:
    """Creditor loss density on a grid (1-D or 2-D with two creditors)."""
    centers = cell_centers(n_cells, lo, hi)
    _check_grid(scenario)
    b = scenario.n_creditors
    table, pruning = _pruned_table(scenario, quad)
    vals = _mixture_density((centers,) * b, *table)
    meta = {
        "kind": "plain_joint" if b == 2 else "plain_total",
        "k_obligors": scenario.k_obligors,
        "accuracy_warning": scenario.accuracy_warning,
        **pruning,
    }
    return DensityGrid(axes=(centers,) * b, values=vals, metadata=meta)


# ---------------------------------------------------------------------------
# probabilities and correlations


def no_default_probability(
    k_obligors: int,
    face: float,
    params: AnyParams,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Probability that none of the firms defaults by maturity.

    This is exact (no Gaussian approximation): conditionally on (z, u) the
    firms default independently with probability m0, so the no-default mass
    is the mixture of (1 - m0)^K.
    """
    if not (isinstance(k_obligors, (int, np.integer)) and k_obligors >= 1):
        raise ParameterError(f"k_obligors must be a positive integer, got {k_obligors}")
    markets = block_market(params, k_obligors)
    z, u, w = _multi_nodes(markets, quad)
    log_surv = np.zeros(len(w))
    for b, (mkt, k_b) in enumerate(markets.blocks):
        m0 = moment_plain(0, z, u[b], face, mkt)
        log_surv += k_b * np.log1p(-np.minimum(m0, 1.0 - 1e-16))
    with np.errstate(under="ignore"):
        return float(np.dot(w, np.exp(log_surv)))


def tail_probability(
    threshold: float,
    scenario: NoSubScenario,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """P(total portfolio loss > threshold) for a single-creditor scenario,
    computed as a mixture of Gaussian tail masses."""
    if scenario.n_creditors != 1:
        raise ParameterError("tail_probability applies to single-creditor scenarios")
    w, means, cov = _node_table(scenario, quad)
    sx = np.sqrt(cov[0, 0])
    tail = 1.0 - norm_cdf_safe(threshold, means[0], sx)
    return float(np.dot(w, tail))


def _analytic_pair_stats(scenario, quad):
    """(means, second moments, cross moment) of the tracked loss pair using
    the exact conditional decomposition."""
    w, means, cov = _node_table(scenario, quad)
    if len(means) != 2:
        raise ParameterError("loss_correlation needs a pair of tracked losses")
    e1 = float(np.dot(w, means[0]))
    e2 = float(np.dot(w, means[1]))
    s1 = float(np.dot(w, means[0] ** 2 + cov[0, 0]))
    s2 = float(np.dot(w, means[1] ** 2 + cov[1, 1]))
    cross = float(np.dot(w, means[0] * means[1] + cov[0, 1]))
    return (e1, e2), (s1, s2), cross


def loss_correlation(
    scenario,
    method: str = "mc",
    quad: QuadratureSpec = QuadratureSpec(),
    mc_config=None,
) -> float:
    """Correlation of the tracked loss pair (senior/junior for a tranched
    scenario, the two creditors otherwise).

    method 'analytic' uses exact mixture moments; 'mc' (default) estimates
    from simulated portfolios and is the validation path.

    Raises UndefinedCorrelationError when a marginal variance vanishes
    (e.g. faces so small relative to firm value that nobody ever defaults
    at working precision).
    """
    if method == "analytic":
        (e1, e2), (s1, s2), cross = _analytic_pair_stats(scenario, quad)
        v1 = s1 - e1 * e1
        v2 = s2 - e2 * e2
        if v1 <= 1e-300 or v2 <= 1e-300:
            raise UndefinedCorrelationError(
                "a marginal loss variance vanishes; correlation is undefined"
            )
        return float((cross - e1 * e2) / math.sqrt(v1 * v2))
    if method != "mc":
        raise ParameterError(f"method must be 'mc' or 'analytic', got {method!r}")
    from . import mc as _mc

    cfg = mc_config if mc_config is not None else _mc.McConfig()
    run = _mc.estimate(scenario, cfg)
    return run.loss_correlation()


def mass_accounting(
    scenario,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 50,
    mc_origin_excess_mass: float = 0.0,
) -> dict:
    """Normalization audit of the continuous approximation.

    The true law splits into the origin atom (no defaults), line masses
    along the axes (one tracked loss exactly zero, plus tiny wipeout
    lattice lines), and a continuous rest.  The mixture approximates the
    whole law, smearing the atoms into the origin-adjacent cells (first
    row/column).  The audit sums the mixture mass away from those cells,
    the exact no-default probability, and the MC-estimated true mass
    inside the origin-adjacent region beyond the exact-zero atom
    (``mc_origin_excess_mass``: line masses plus small genuine losses),
    and reports the drift from 1.  The drift measures the quality of the
    second-order approximation, not of the quadrature.
    """
    edges_ext = np.linspace(0.0, 1.0, n_cells + 1)
    edges_ext[0] = -np.inf
    edges_ext[-1] = np.inf
    masses = _cell_masses(_node_table(scenario, quad), edges_ext, edges_ext)
    if masses.ndim == 1:
        origin = float(masses[0])
        away = float(masses[1:].sum())
    else:
        origin = float(masses[0, :].sum() + masses[1:, 0].sum())
        away = float(masses[1:, 1:].sum())
    p_nd = no_default_probability(
        scenario.k_obligors, scenario.obligor_face, scenario.params, quad
    )
    total = away + p_nd + mc_origin_excess_mass
    return {
        "continuous_mass_away_from_origin": away,
        "origin_region_mass": origin,
        "no_default_probability": p_nd,
        "mc_origin_excess_mass": mc_origin_excess_mass,
        "mixture_total": away + origin,
        "account_total": total,
        "abs_error": abs(total - 1.0),
    }
