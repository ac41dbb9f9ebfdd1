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
tracked losses (B, n) and their conditional covariances (B, B, n).  Its
nodes are the mixing variables on their natural scale, s = z / N and
v = sqrt(N) u (see :mod:`portloss.moments`), so the rule and the moments
stay O(1) at every N.  A tranched scenario has B = 2 (senior, junior), and
:func:`_moment_terms` returns its (means, cov) at any (s, v).

The table is pruned where it is built: the lightest nodes whose weights
sum to at most ``_PRUNE_MASS`` = 1e-14 are dropped and the rest are not
renormalised.  Each slice is a probability law, so every cell mass, and
the total mass, moves by at most 1e-14, and so do the means and second
moments of losses in [0, 1].  At the default 64 x 64 rule about a quarter
of the nodes remain.

One kernel, :func:`_mixture`, reads a table for every density - a 1-D
or 2-D grid, or the one point of :func:`density_subordinated`, fixed rule
or adaptive - and for every cell mass.  It reads each axis through an
axis law, and the two uses differ only in that law: a normal density at
points (:class:`_DensityLaw`), or a normal probability between
consecutive edges (:class:`_MassLaw`).  A point is a density law of one
point.  The adaptive rule of a tranched scenario builds one small table
per grid cell, localized where the slice means cross that cell, in the
same format; all cells of a grid share one batched crossing solve
(:func:`_adaptive_density`).  Moments and correlations read the table
directly.

A single loss is its per-slice factors contracted with w.  A pair
is split once, in :func:`_mixture`, as w phi(x) phi(y | x), where
phi(y | x) is centred on my + slope (x - mx) with slope = cov_xy / var_x;
the table itself fixes the split, never the scenario.  Slices of slope
exactly 0 are separable: disjoint creditors, whose losses are independent
given (z, u), and slices that are a point mass in x.  They are
w phi(x) phi(y), so all of them together are one matrix product of
per-axis factors, (w phi_x) phi_y^T or (w P_x) P_y^T: (nx + ny) factors
per slice instead of nx ny.  Every other slice - tranched and
overlapping layouts - takes one row loop (:func:`_coupled_rows`).  For
each output row the x law gives the slices that reach it, with their
x positions and weights - the point itself and the slice's weighted
density there, or ``_GL_POINTS`` nodes inside the cell and their share
of the slice's weighted cell probability - and the y law gives the
conditional slices' factors over all of y.

Every mixture exponential goes through :func:`_floored_exp`: exp(e) for
e above ``_EXP_FLOOR`` = -707 and exactly 0 at or below it.  numpy's exp
is about 15 times slower where its result underflows to 0 and 100 times
slower where it is subnormal, and a matrix product fed subnormals about
50 times slower; in the bundled grids a third to two thirds of the terms
are that small.  A weight enters its x factor as log w in the
exponent, so weighted factors stay out of the subnormal range too.  A
dropped factor is below e^-707 ~ 1e-307, so a density moves by at most
that times the peak of the factor it multiplies, per node.

The kernel works in blocks: each intermediate holds at most
``_CHUNK_ELEMENTS`` = 2**15 float64 values (256 KiB), or a single row
where one row is larger, so peak memory is a few blocks whatever the grid
and rule size.  The kernel keeps a handful of intermediates live at once,
and at this size they fit a core's L2 cache together (2 MiB on the
2-CPU Xeon the benchmark ran on); 2 MiB blocks spilled every pass to L3.

Numerical care points, all load-bearing:
  * densities are evaluated in log space, and nodes whose variance or
    conditional variance is at or below ``_VAR_FLOOR`` are dropped (they
    carry a delta slice that a point density cannot represent), whatever
    their means; cell masses keep them as steps;
  * cell masses of a coupled slice use a probability-space substitution,
    so arbitrarily narrow slices are integrated exactly; a separable slice
    is a product of exact cell probabilities; total mass is conserved to
    machine precision, apart from the pruned weight;
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
from .moments import _natural, junior_band_moments, plain_moments, senior_moments
from .params import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    SubordinationSpec,
    block_market,
)
from .quadrature import QuadratureSpec, _normal_rule, _scale_rule, chi2_log_weight

__all__ = [
    "SubordinatedScenario",
    "NoSubScenario",
    "gaussian_moment_terms",
    "density_subordinated",
    "subordinated_cell_masses",
    "density_grid_subordinated",
    "nosub_cell_masses",
    "density_grid_nosub",
    "no_default_probability",
    "tail_probability",
    "loss_correlation",
    "mass_accounting",
]

_VAR_FLOOR = 1e-300
_EXP_FLOOR = -707.0  # exp(-707) ~ 1e-307: np.exp's fast path ends just below
_CHUNK_ELEMENTS = 2**15  # float64 values per kernel intermediate: 256 KiB, L2-sized
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


# ---------------------------------------------------------------------------
# node tables


def _multi_nodes(params: MultiMarketParams, quad: QuadratureSpec):
    """Shared-s nodes with a tensor Gauss grid over the per-market factors,
    in the natural variables of :mod:`portloss.moments`.

    Returns the s rule (ns,), the v rule (nv,) that every block shares, and
    the weights (ns * nv**beta,) of the flat tensor nodes (s, v_1, ...,
    v_beta) in C order; :func:`_on_tensor` spreads a function of (s, v_b)
    over them."""
    beta = params.beta
    s, ws = _scale_rule(params.n_fluct, quad.z_nodes)
    v1, wv1 = _normal_rule(quad.u_nodes)
    wv = np.prod(
        np.stack([g.ravel() for g in np.meshgrid(*([wv1] * beta), indexing="ij")]),
        axis=0,
    )
    return s, v1, (ws[:, None] * wv).ravel()


def _on_tensor(values, b, beta):
    """``values`` (ns, nv) of a function of (s, v_b) as a view that
    broadcasts over the tensor nodes of :func:`_multi_nodes`, shape
    (ns, nv, ..., nv): a sum over the nodes adds it into a tensor-shaped
    view of a flat array in place, so no full-length copy is made."""
    ns, nv = values.shape
    shape = [ns] + [1] * beta
    shape[1 + b] = nv
    return values.reshape(shape)


def gaussian_moment_terms(z, u, scenario: SubordinatedScenario):
    """The node table of the tranched portfolio at the model's (z, u),
    without its weights: the conditional (senior, junior) means (2, ...)
    and their covariance (2, 2, ...); see :func:`_moment_terms`."""
    return _moment_terms(*_natural(z, u, scenario.params), scenario)


def _moment_terms(s, v, scenario: SubordinatedScenario):
    """The node table of the tranched portfolio at (s, v), without its
    weights: the conditional (senior, junior) means (2, ...) and their
    covariance (2, 2, ...).

    For the homogeneous portfolio with per-firm weight 1/K the senior and
    junior means equal the single-firm means while the (co)variances shrink
    by 1/K.  The junior mean includes the total-wipeout contribution; the
    cross covariance is m1_senior (1 - m0_senior - m1_junior_band) / K,
    which is exact because a firm whose senior tranche loses anything has
    junior loss exactly 1 minus the band part.
    """
    faces, params, k = scenario.tranches, scenario.params, scenario.k_obligors
    m0s, m1s, m2s = senior_moments(2, s, v, faces, params)[0]
    _, m1j, m2j = junior_band_moments(2, s, v, faces, params)[0]
    mean_j = m0s + m1j
    var_s = np.maximum(m2s - m1s * m1s, 0.0) / k
    var_j = np.maximum(m0s + m2j - mean_j * mean_j, 0.0) / k
    cap = np.sqrt(var_s * var_j)
    cross = np.clip(m1s * (1.0 - m0s - m1j) / k, -cap, cap)
    return np.stack([m1s, mean_j]), np.array([[var_s, cross], [cross, var_j]])


def _unpruned_table(scenario, quad: QuadratureSpec):
    """The mixture of conditional Gaussian slices over the flat node list:
    weights w (n,), means of the tracked losses (B, n) and their covariance
    components (B, B, n).

    A plain scenario evaluates the single-firm moments once per distinct
    (block, face) of its holdings; its classes are independent given
    (s, v), so the means are W m1 and the covariances
    sum_c W_bc W_b'c var_c / count_c, with W the class weights.  Each
    covariance term is a (s, v_block) table added class by class into a
    tensor-shaped view, and the means are one matrix product over the
    classes' m1, so the build holds the table and the classes' m1 and no
    other full-length array (:func:`_table_values`)."""
    if isinstance(scenario, SubordinatedScenario):
        s, v, w = _multi_nodes(block_market(scenario.params, scenario.k_obligors), quad)
        s, v = (a.ravel() for a in np.broadcast_arrays(s[:, None], v))
        return (w, *_moment_terms(s, v, scenario))
    markets, classes, _ = scenario.holdings
    s, v, w = _multi_nodes(markets, quad)
    wts, counts = _class_weights(scenario)
    tracked, beta = len(wts), markets.beta
    tensor = (len(s),) + (len(v),) * beta
    cov = np.zeros((tracked, tracked, *tensor))
    slices = {}  # (m1, var) per distinct (block, face)
    m1s = []  # each class's m1 as a view over the tensor nodes
    for c, (block, face, _) in enumerate(classes):
        if (block, face) not in slices:
            mkt = markets.blocks[block][0]
            # a block's moments depend on (s, v_block) alone
            _, m1, m2 = plain_moments(2, s[:, None], v, face, mkt)[0]
            slices[block, face] = m1, np.maximum(m2 - m1 * m1, 0.0)
        m1, var = slices[block, face]
        m1s.append(np.broadcast_to(_on_tensor(m1, block, beta), tensor))
        for b, wt in enumerate(wts[:, c]):
            for b2, wt2 in enumerate(wts[:, c]):
                cov[b, b2] += _on_tensor(wt * wt2 * (var / counts[c]), block, beta)
    means = wts @ np.stack(m1s).reshape(len(classes), -1)
    return w, means, cov.reshape(tracked, tracked, -1)


def _table_values(nodes: int, tracked: int) -> int:
    """Values a node table of ``nodes`` nodes and ``tracked`` losses holds
    at the peak of its build: the unpruned table (w, means, cov), 1 +
    tracked + tracked^2 values per node, its pruned copy, and one more
    array for the pruning's sort (:func:`_node_table`).  The build itself
    holds less: the unpruned table and the m1 of each class, one value per
    node for each of at most 4 markets' classes."""
    return nodes * (2 * (1 + tracked + tracked * tracked) + 1)


def _class_weights(scenario: NoSubScenario):
    """Each creditor's portfolio weight in each holdings class (B, C), and
    the class counts (C,)."""
    _, classes, shares = scenario.holdings
    counts = np.array([n for _, _, n in classes], dtype=float)
    held = shares * counts
    return held / held.sum(axis=1, keepdims=True), counts


@lru_cache(maxsize=16)
def _node_table(scenario, quad: QuadratureSpec):
    """The node table (w, means, cov) of a scenario without its lightest
    nodes, whose weights sum to at most ``_PRUNE_MASS``.  The kept weights
    are not renormalised."""
    w, means, cov = _unpruned_table(scenario, quad)
    order = np.argsort(w, kind="stable")
    keep = np.sort(order[np.cumsum(w[order]) > _PRUNE_MASS])
    return w[keep], means[:, keep], cov[:, :, keep]


# ---------------------------------------------------------------------------
# safe Gaussian building blocks


def _block_rows(width) -> int:
    """Rows of ``width`` elements that fit one ``_CHUNK_ELEMENTS`` block;
    at least one."""
    return max(1, int(_CHUNK_ELEMENTS // max(1, width)))


@lru_cache(maxsize=None)
def _leggauss(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    rule = np.polynomial.legendre.leggauss(count)
    for a in rule:
        a.flags.writeable = False
    return rule


def norm_cdf_safe(x, mean, sigma):
    """Normal CDF of float arrays that degrades to a unit step when
    sigma == 0."""
    pos = sigma > 0.0
    denom = np.where(pos, sigma, 1.0)
    with np.errstate(invalid="ignore"):
        body = ndtr((x - mean) / denom)
    step = (x >= mean).astype(float)
    return np.where(pos, body, step)


def _floored_exp(e):
    """exp(e) in place: ``np.exp`` above ``_EXP_FLOOR``, exactly 0 at or
    below it, NaN for NaN.  Results never go subnormal, so neither the
    exponential nor a matrix product it feeds leaves its fast path."""
    keep = e > _EXP_FLOOR
    np.maximum(e, _EXP_FLOOR, out=e)
    np.exp(e, out=e)
    e *= keep
    return e


def _separable_sum(out, x_law, y_law, fx, fy):
    """Add sum_k fx_k fy_k^T into ``out`` for slices that factor per axis,
    from the axis tables of their weighted x factors and of their y
    factors; each block of nodes is one matrix product, added in row
    blocks."""
    nodes = _block_rows(max(out.shape) + 1)
    rows = _block_rows(out.shape[1])
    for s in range(0, fx.shape[1], nodes):
        ax = x_law.factors(fx[:, s : s + nodes])
        ay = y_law.factors(fy[:, s : s + nodes]).T
        for r in range(0, len(out), rows):
            out[r : r + rows] += ax[r : r + rows] @ ay
    return out


class _DensityLaw:
    """Normal densities at ``points`` along one axis.

    A slice's constants are (mean, 1 / (2 var), log w - log sqrt(2 pi
    var)): a weight enters as log w in the exponent, so a zero weight
    gives factors of exactly 0.  Slices with a variance at or below
    ``_VAR_FLOOR`` are delta slices, which a density cannot represent:
    they are dropped, so they add exactly 0 whatever their means (NaN
    included)."""

    def __init__(self, points):
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        self.size = len(self.points)

    @staticmethod
    def keep(var):
        return var > _VAR_FLOOR

    @staticmethod
    def axis(mean, var, w=None):
        """Per-slice constants (3, slices), built once per kernel call."""
        with np.errstate(divide="ignore"):
            log_w = 0.0 if w is None else np.log(w)
        return np.stack([mean, 0.5 / var, log_w - 0.5 * np.log(2.0 * math.pi * var)])

    def factors(self, axis, lo=0, hi=None):
        """Factors (points lo:hi, slices), through :func:`_floored_exp`."""
        mean, half_prec, log_norm = axis
        e = self.points[lo:hi, None] - mean
        e *= e
        e *= half_prec
        return _floored_exp(np.subtract(log_norm, e, out=e))

    def rows(self, axis):
        """Per point: its index, the slices of nonzero factor there, the
        point, and those factors (live, 1)."""
        rows = _block_rows(axis.shape[1])
        for s in range(0, self.size, rows):
            ax = self.factors(axis, s, s + rows)
            for i in range(len(ax)):
                live = np.flatnonzero(ax[i])
                yield s + i, live, self.points[s + i], ax[i, live, None]


class _MassLaw:
    """Normal probabilities of the cells between consecutive ``edges``
    along one axis; outermost edges may be +-inf.

    A slice's constants are (mean, sd, w), and a delta slice is kept as a
    unit step.  A slice's cell probabilities add up to its probability of
    the whole axis, so total mass is conserved by construction."""

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=float)
        self.size = len(self.edges) - 1

    @staticmethod
    def keep(var):
        return np.ones(var.shape, dtype=bool)

    @staticmethod
    def axis(mean, var, w=None):
        w = np.ones_like(mean) if w is None else w
        return np.stack([mean, np.sqrt(np.maximum(var, 0.0)), w])

    def factors(self, axis, lo=0, hi=None):
        """Weighted cell probabilities (cells lo:hi, slices)."""
        edges = self.edges[lo : self.size + 1 if hi is None else hi + 1]
        mean, sd, w = axis
        return np.diff(norm_cdf_safe(edges[:, None], mean, sd), axis=0) * w

    def rows(self, axis):
        """Per cell: its index, the slices of nonzero weighted probability
        there, their ``_GL_POINTS`` Gauss-Legendre nodes in the cell, and
        the nodes' weights (live, ``_GL_POINTS``).  The nodes come from the
        probability-space substitution t = Phi((x - mean) / sd), which
        turns a slice of any width into a smooth integrand on the cell's
        t interval."""
        tq, twq = _leggauss(_GL_POINTS)
        tq, twq = 0.5 * (tq + 1.0), 0.5 * twq
        mean, sd, w = axis
        rows = _block_rows(axis.shape[1])
        for s in range(0, self.size, rows):
            t_edges = norm_cdf_safe(self.edges[s : s + rows + 1, None], mean, sd)
            p_cell = np.diff(t_edges, axis=0)
            for i in range(len(p_cell)):
                mass = w * p_cell[i]
                live = np.flatnonzero(mass)
                t_nodes = t_edges[i, live, None] + p_cell[i, live, None] * tq
                x = mean[live, None] + sd[live, None] * ndtri(np.clip(t_nodes, 1e-300, 1.0 - 1e-16))
                yield s + i, live, x, mass[live, None] * twq


def _mixture(table, x_law, y_law=None):
    """The mixture of a node table's slices on one or two axes, each read
    through an axis law: densities at points (:class:`_DensityLaw`) or
    cell probabilities (:class:`_MassLaw`).  A table of one tracked loss
    gives a 1-D result of ``x_law.size``; otherwise the first two tracked
    losses give (``x_law.size``, ``y_law.size``), and ``y_law`` defaults
    to ``x_law``.

    A single loss is its per-slice factors contracted with w.  Each slice
    of a pair is w phi(x) phi(y | x), with the slope cov_xy / var_x of the
    conditional mean, 0 where var_x is at or below ``_VAR_FLOOR`` (a
    point mass in x) or NaN, and the conditional variance var_y - slope
    cov_xy.  The slices of slope exactly 0 are one matrix product of
    per-axis factors (:func:`_separable_sum`), and every other slice goes
    through the row loop of :func:`_coupled_rows`.  The x axis carries the
    weights, and the y axis the conditional slices.
    """
    w, means, cov = table
    if len(means) == 1:
        keep = x_law.keep(cov[0, 0])
        fx, w = x_law.axis(means[0, keep], cov[0, 0, keep]), w[keep]
        out = np.zeros(x_law.size)
        rows = _block_rows(len(w))
        for s in range(0, len(out), rows):
            out[s : s + rows] = x_law.factors(fx, s, s + rows) @ w
        return out
    y_law = x_law if y_law is None else y_law
    wide = cov[0, 0] > _VAR_FLOOR
    slope = np.where(wide, cov[0, 1] / np.where(wide, cov[0, 0], 1.0), 0.0)
    vc = cov[1, 1] - slope * cov[0, 1]
    keep = x_law.keep(cov[0, 0]) & y_law.keep(vc)
    fx = x_law.axis(means[0, keep], cov[0, 0, keep], w[keep])
    fy, slope = y_law.axis(means[1, keep], vc[keep]), slope[keep]
    out = np.zeros((x_law.size, y_law.size))
    sep = slope == 0.0
    if sep.any():
        _separable_sum(out, x_law, y_law, fx[:, sep], fy[:, sep])
    if not sep.all():
        _coupled_rows(out, x_law, y_law, fx[:, ~sep], fy[:, ~sep], slope[~sep])
    return out


def _coupled_rows(out, x_law, y_law, fx, fy, slope):
    """Add correlated slices into ``out``, one output row at a time, from
    the axis tables of their weighted x factors and of their conditional
    slices.  For each row the x law gives the slices that reach it, their
    x positions (the point itself, or nodes inside the cell) and their
    weights; the y law gives the conditional slices' factors, centred on
    my + slope (x - mx), over all of the y axis, a block of y at a time."""
    for i, live, x, wts in x_law.rows(fx):
        if not len(live):
            continue
        centre = fy[0, live, None] + slope[live, None] * (x - fx[0, live, None])
        cond = fy.take(np.repeat(live, centre.shape[1]), axis=1)
        cond[0] = centre.ravel()
        wts = wts.ravel()
        cols = _block_rows(len(wts))
        for t in range(0, y_law.size, cols):
            out[i, t : t + cols] += y_law.factors(cond, t, t + cols) @ wts
    return out


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
    x, wx = _leggauss(16)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    # an explicit width, since there may be no leading rows
    shape = edges.shape[:-1] + (len(x) * (edges.shape[-1] - 1),)
    return (0.5 * (a + b) + 0.5 * (b - a) * x).reshape(shape), (0.5 * (b - a) * wx).reshape(shape)


def _adaptive_density(xs, ys, scenario, quad):
    """Joint density on xs x ys from node tables localized where the
    slice means cross each cell, which is where all the mass of a large
    portfolio sits.

    One crossing solve covers every cell.  At a cell's crossing (s0, v0)
    the slice widths map to sig_v in v through the mean Jacobians, and to
    sig_s = sig_v / |separation slope| in s.  The cell's table has 10
    Gauss-Legendre s panels on s0 +- 10 sig_s and, at each s node whose
    senior and junior v roots lie within 100 sig_v, 6 v panels on the roots
    +- 10 sig_v, weighted by the densities of s and v.  Cells without a
    unique crossing, with a vanishing Jacobian or an empty s window are
    dominated by slice tails and take the dense fixed rule.
    """
    # limits imports engine
    from .limits import _FOUND, _sub_crossings, _sub_v_roots

    faces, params = scenario.tranches, scenario.params
    n = params.n_fluct
    span = 10.0
    cr = _sub_crossings(xs, ys, faces, params, 96)
    ci, cj = np.nonzero(cr.status == _FOUND)
    s0, v0, dv_s, dv_j = (a[ci, cj] for a in (cr.s, cr.v, cr.jac_senior, cr.jac_junior))
    _, cov0 = _moment_terms(s0, v0, scenario)
    slope = np.abs(cr.slope[ci, cj])
    with np.errstate(divide="ignore", invalid="ignore"):
        sig_v = np.sqrt(cov0[0, 0] / dv_s**2 + cov0[1, 1] / dv_j**2)
        # a zero or NaN slope leaves s unlocalized
        sig_s = np.where(slope > 1e-300, sig_v / slope, np.inf)
    # up to the Gamma(N/2, 2/N) quantile at 1 - 1e-12; fmax and fmin pass
    # over a NaN bound
    s_lo = np.fmax(1e-8 / n, s0 - span * sig_s)
    s_hi = np.fmin(float(gammaincinv(n / 2.0, 1.0 - 1e-12) / (n / 2.0)), s0 + span * sig_s)
    local = ~(dv_s < 1e-300) & ~(dv_j < 1e-300) & (s_hi > s_lo)
    ci, cj, sig_v = ci[local], cj[local], sig_v[local]
    sc, sw = _gl_panels(np.linspace(s_lo[local], s_hi[local], 11, axis=-1))
    v_s, v_j = _sub_v_roots(xs[ci, None], ys[cj, None], sc, faces, params)
    # nodes where a root is missing (NaN) or the slices sit far apart add nothing
    with np.errstate(invalid="ignore"):
        near = np.abs(v_s - v_j) <= 100.0 * sig_v[:, None]

    vals = np.zeros((len(xs), len(ys)))
    for c, (i, j) in enumerate(zip(ci, cj)):
        s, ws, vs, vj = (a[c, near[c]] for a in (sc, sw, v_s, v_j))
        v, wv = _gl_panels(np.linspace(
            np.minimum(vs, vj) - span * sig_v[c], np.maximum(vs, vj) + span * sig_v[c], 7, axis=-1
        ))
        # the densities of s = z / N and of v: N chi2(N s) and phi(v)
        log_wt = (math.log(n) + chi2_log_weight(n * s, n))[:, None] - 0.5 * (
            math.log(2.0 * math.pi) + v * v
        )
        with np.errstate(under="ignore"):
            w = ws[:, None] * wv * np.exp(log_wt)
        s = np.broadcast_to(s[:, None], v.shape)
        table = _moment_terms(s.ravel(), v.ravel(), scenario)
        vals[i, j] = _mixture((w.ravel(), *table), _DensityLaw(xs[i : i + 1]),
                              _DensityLaw(ys[j : j + 1]))[0, 0]

    dense = np.ones(vals.shape, dtype=bool)
    dense[ci, cj] = False
    if dense.any():
        rule = QuadratureSpec(z_nodes=max(quad.z_nodes, 128), u_nodes=max(quad.u_nodes, 128))
        vals[dense] = _mixture(_node_table(scenario, rule), _DensityLaw(xs), _DensityLaw(ys))[dense]
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
    x, y = _as_point((l_senior, l_junior), 2)[:, None]
    if quad.mode == "adaptive":
        return float(_adaptive_density(x, y, scenario, quad)[0, 0])
    return float(_mixture(_node_table(scenario, quad), _DensityLaw(x), _DensityLaw(y))[0, 0])


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
    return _mixture(_node_table(scenario, quad), _MassLaw(edges_senior), _MassLaw(edges_junior))


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
    if quad.mode == "adaptive":
        vals = _adaptive_density(centers, centers, scenario, quad)
    else:
        vals = _mixture(_node_table(scenario, quad), _DensityLaw(centers))
    return DensityGrid(axes=(centers, centers), values=vals)


# ---------------------------------------------------------------------------
# plain (untranched) portfolios


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


def _check_grid(scenario: NoSubScenario):
    """Refuse a scenario that has no density grid: more than 2 creditors,
    or a creditor pair whose Gram matrix W diag(1/count) W^T, the
    covariance up to the single-firm variance, is singular."""
    if scenario.n_creditors > 2:
        raise ParameterError("grids supported for at most 2 creditors")
    if scenario.n_creditors == 1:
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


def nosub_cell_masses(
    scenario: NoSubScenario,
    edges_one,
    edges_two=None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Cell masses of the continuous approximation for a plain scenario;
    1-D when the scenario has a single creditor."""
    return _mixture(_node_table(scenario, quad), _MassLaw(edges_one),
                    None if edges_two is None else _MassLaw(edges_two))


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
    vals = _mixture(_node_table(scenario, quad), _DensityLaw(centers))
    return DensityGrid(axes=(centers,) * b, values=vals)


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
    s, v, w = _multi_nodes(markets, quad)
    log_surv = np.zeros((len(s),) + (len(v),) * markets.beta)
    for b, (mkt, k_b) in enumerate(markets.blocks):
        (m0,), _, _ = plain_moments(0, s[:, None], v, face, mkt)
        log_surv += _on_tensor(k_b * np.log1p(-np.minimum(m0, 1.0 - 1e-16)), b, markets.beta)
    with np.errstate(under="ignore"):
        return float(np.dot(w, np.exp(log_surv.ravel())))


def tail_probability(
    threshold: float,
    scenario: NoSubScenario,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """P(total portfolio loss > threshold) for a single-creditor scenario,
    computed as the mixture's mass in the cell [threshold, inf)."""
    if scenario.n_creditors != 1:
        raise ParameterError("tail_probability applies to single-creditor scenarios")
    return float(_mixture(_node_table(scenario, quad), _MassLaw([threshold, np.inf]))[0])


def _analytic_pair_stats(scenario, quad):
    """(covariance, variance one, variance two) of the tracked loss pair
    using the exact conditional decomposition."""
    w, means, cov = _node_table(scenario, quad)
    if len(means) != 2:
        raise ParameterError("loss_correlation needs a pair of tracked losses")
    e1 = float(np.dot(w, means[0]))
    e2 = float(np.dot(w, means[1]))
    s1 = float(np.dot(w, means[0] ** 2 + cov[0, 0]))
    s2 = float(np.dot(w, means[1] ** 2 + cov[1, 1]))
    cross = float(np.dot(w, means[0] * means[1] + cov[0, 1]))
    return cross - e1 * e2, s1 - e1 * e1, s2 - e2 * e2


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
        covariance, v1, v2 = _analytic_pair_stats(scenario, quad)
        if v1 <= _VAR_FLOOR or v2 <= _VAR_FLOOR:
            raise UndefinedCorrelationError(
                "a marginal loss variance vanishes; correlation is undefined"
            )
        return float(covariance / (math.sqrt(v1) * math.sqrt(v2)))
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
    masses = _mixture(_node_table(scenario, quad), _MassLaw(edges_ext))
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
