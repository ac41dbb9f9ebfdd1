"""Infinite-portfolio limit densities.

As the number of obligors grows, the conditional Gaussian slices sharpen
into delta constraints: each tracked loss pins the conditional mean, and
the remaining density is the (z, u) weight transported through the implicit
functions that solve mean = loss.  Evaluating a limit density therefore
means root solving, not integration in u; only a z integral (at most)
survives.

Every one-dimensional implicit equation goes through one solver,
:func:`newton_bisect`: bracketed Newton steps with the exact closed-form
derivatives of the conditional means, safeguarded by bisection.  It solves
many independent equations at once, one per lane of its array brackets,
and each step evaluates only the lanes still open.  It takes f and f' from
one callable, so a conditional mean and its v-slope come from one pass of
the moment kernels.  A lane stops where a rejected Newton correction is
already at the rounding floor of f, rather than bisecting on the signs of
rounding noise.  A lane is one (target loss, s) pair, so the v roots of a
whole grid are one call on a (targets x s) table.

Every solve works in the mixing variables on their natural scale (see
:mod:`portloss.moments`): s = z / N, a Gamma variable with mean 1 and
variance 2/N, and v = sqrt(N) u, a standard normal.  A root is then O(1)
at every N, and its step tolerance is relative to it.  The senior/junior
crossings of a subordinated grid are bracketed by an s scan of the v-root
tables and then solved in (s, v) jointly, one 2x2 Newton system per
(cell, crossing) lane.  A lane closes where both residuals are within
tolerance and its step is below 1e-12 relative or failed to halve the one
before it: like a :func:`newton_bisect` lane, it stops at the rounding
floor of the means.  A root's one verified pass also gives what is read
at it: the crossing record keeps each cell's (s, v), mean Jacobians and
separation slope.  Roots are searched on v in [-12, 12] and s in
[1e-6 / N, Gamma quantile 1 - 1e-10]; outside these brackets the weights
are below anything that could move a six-digit result, and the density is
treated as exactly zero.  From the n_fluct floor up, that quantile is at
least 13 / N, so the s bracket is never empty.  At large N the crossings gather on the curve s = 1, the ridge's
support grows thinner than a grid cell, and a cell-centre grid of its
density would miss it: :func:`_check_ridge_support` refuses such an N.

A lane whose target is out of reach holds NaN as its root and adds density
0.  The one-point solvers raise NoRootError there instead; otherwise
``solve_u_senior`` and ``solve_u_plain`` return the u root as a float and
``solve_z0`` returns (z0, u0, separation_slope), all in the model's
(z, u).  Losses out of range raise ParameterError.  ConvergenceError is
raised when a u-root lane exceeds the iteration budget or leaves a
residual above 1e-10, and when ``solve_z0`` or
``density_limit_subordinated`` meets a crossing that the joint solve
cannot close: a density there is unknown, not 0.  Both raise
MultipleRootsError when the senior and junior roots cross at several z.
The subordinated grid writes density 0 with quality 1 for a cell with
several crossings or an unclosed one, and the run's summary counts it
among the flagged cells.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammainccinv, gammaincinv

from .errors import (
    ConvergenceError,
    MultipleRootsError,
    NoRootError,
    ParameterError,
)
from .engine import _DensityLaw, _mixture
from .grids import DensityGrid, cell_centers
from .moments import junior_mean_target, norm_pdf, plain_moments, senior_moments
from .params import MarketParams, SubordinationSpec, distance_field
from .quadrature import QuadratureSpec, _scale_rule, chi2_log_weight

__all__ = [
    "z_bracket",
    "newton_bisect",
    "solve_u_senior",
    "solve_u_plain",
    "solve_z0",
    "density_limit_subordinated",
    "limit_grid_subordinated",
    "limit_curve_equal_infinite",
    "limit_grid_finite_vs_infinite",
    "limit_grid_two_markets",
]

_JAC_FLOOR = 1e-14
_RESID_TOL = 1e-10
_MIN_JUNIOR_SHARE = 1e-5  # of f_total; see _check_ridge_faces
_JOINT_STEPS = 8  # see _joint_newton
_V_HALF = 12.0  # the v bracket is [-_V_HALF, _V_HALF]


def z_bracket(params: MarketParams):
    # the chi-square(N) quantile at 1 - 1e-10, as scipy.stats.chi2.ppf
    # computes it, without importing scipy.stats; it stays finite up to the
    # largest float N
    return 1e-6, float(2.0 * gammaincinv(params.n_fluct / 2.0, 1.0 - 1e-10))


def _s_bracket(params: MarketParams):
    """The s bracket of the crossing scan: :func:`z_bracket` over N."""
    return tuple(z / params.n_fluct for z in z_bracket(params))


def newton_bisect(fdf, lo, hi, f_lo=None, f_hi=None, args=(), tol=1e-12, max_iter=200):
    """Roots of f on the lanes of [lo, hi] by Newton steps safeguarded with
    bisection.

    ``lo`` and ``hi``, and ``f_lo`` and ``f_hi`` when given, broadcast to
    an array of independent lanes; ``args`` are lane data that broadcast to
    the same shape.  ``fdf(x, *args)`` returns the pair (f, f') at lane
    points x with the matching slices of args, from one pass, since the
    slope of a conditional mean reuses most of its value's terms.  Each
    lane keeps its own bracket, Newton-or-bisect choice and convergence
    test, and each step evaluates only the lanes still open, as one flat
    array.  A lane that has stopped is never evaluated again, so the work
    is the brackets plus the sum of the lanes' iterations.

    A Newton proposal that leaves the bracket, or fails to halve the
    previous step, is replaced by bisection, so termination is guaranteed.
    A lane closes when its step or its bracket falls below
    tol * max(1, |x|), when f is exactly 0, or when a rejected Newton
    correction |f / f'| is already below 16 tol * max(1, |x|).  That last
    correction is at the rounding floor of f: its sign carries no
    information, and bisecting on it would only wander inside the noise
    band, so the lane keeps its current iterate.

    The result is the (roots, iterations) arrays of the lane shape.  A lane
    without a sign change, or where f turns NaN, has root NaN.
    ConvergenceError is raised when any lane is still open after
    ``max_iter`` steps.
    """
    lo, hi = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    shape = lo.shape
    args = [np.broadcast_to(a, shape) for a in args]
    f_lo, f_hi = (
        np.broadcast_to(fdf(end, *args)[0] if f is None else f, shape).ravel()
        for end, f in ((lo, f_lo), (hi, f_hi))
    )
    lo, hi = lo.ravel(), hi.ravel()
    at_lo, at_hi = f_lo == 0.0, f_hi == 0.0
    sign_change = ((f_lo < 0.0) & (f_hi > 0.0)) | ((f_lo > 0.0) & (f_hi < 0.0))
    lost = ~at_lo & ~at_hi & ~sign_change
    roots = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
    iters = np.zeros(roots.shape, dtype=int)
    # the open lanes' state, compacted as lanes close; f keeps the sign it
    # has at hi on every point that replaces hi
    lanes = np.flatnonzero(~at_lo & ~at_hi & sign_change)
    x, lo, hi, rising = roots[lanes], lo[lanes], hi[lanes], f_hi[lanes] > 0.0
    step_prev = np.abs(hi - lo)
    args = [np.ravel(a)[lanes] for a in args]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iter + 1):
            if not lanes.size:
                break
            fx, dfx = (np.broadcast_to(v, lanes.shape) for v in fdf(x, *args))
            nan = np.isnan(fx)
            if nan.any():
                lost[lanes[nan]] = True
                lanes, x, lo, hi, rising, step_prev, fx, dfx, *args = (
                    a[~nan] for a in (lanes, x, lo, hi, rising, step_prev, fx, dfx, *args)
                )
            iters[lanes] = it
            move = fx != 0.0
            to_hi = move & ((fx > 0.0) == rising)
            hi, lo = np.where(to_hi, x, hi), np.where(move & ~to_hi, x, lo)
            step = fx / dfx
            x_new = x - step
            # reject steps that leave the bracket or stall
            newton = (
                (dfx != 0.0) & (lo < x_new) & (x_new < hi) & ~(np.abs(step) > 0.5 * step_prev)
            )
            # a rejected correction at the rounding floor of f ends the lane
            stop = ~move | (~newton & (np.abs(step) <= 16.0 * tol * np.maximum(1.0, np.abs(x))))
            mid = 0.5 * (lo + hi)
            step = np.where(newton, step, mid - x)
            x = np.where(stop, x, np.where(newton, x_new, mid))
            step_prev = np.abs(step)
            width = tol * np.maximum(1.0, np.abs(x))
            going = ~stop & ~((step_prev < width) | ((hi - lo) < width))
            if not going.all():
                roots[lanes[~going]] = x[~going]
                lanes, x, lo, hi, rising, step_prev, *args = (
                    a[going] for a in (lanes, x, lo, hi, rising, step_prev, *args)
                )
    if lanes.size:
        raise ConvergenceError(
            f"root iteration did not converge in {max_iter} steps",
            best_estimate=float(x[0]),
            error_bound=float(hi[0] - lo[0]),
        )
    return np.where(lost, np.nan, roots).reshape(shape), iters.reshape(shape)


# ---------------------------------------------------------------------------
# u roots


# A conditional mean loss is a callable ``mean(s, v, dv=False, ds=False)``
# that returns the triple (m, dm/dv, dm/ds) from one pass per (payoff,
# boundary), a slope None unless asked for.


def _order_one(moments):
    """The order-1 entries of a moment family's (values, dv, ds)."""
    return tuple(None if m is None else m[1] for m in moments)


def _senior_mean(faces, params) -> Callable:
    return lambda s, v, dv=False, ds=False: _order_one(
        senior_moments(1, s, v, faces, params, dv, ds)
    )


def _junior_mean(faces, params) -> Callable:
    """Junior mean (wipeout + band)."""
    return lambda s, v, dv=False, ds=False: junior_mean_target(s, v, faces, params, dv, ds)


def _plain_mean(face, params) -> Callable:
    return lambda s, v, dv=False, ds=False: _order_one(
        plain_moments(1, s, v, face, params, dv, ds)
    )


def _v_roots(mean: Callable, target, s, at_root=None):
    """v solving mean(s, v) = target on every lane of broadcast (target, s).
    The mean is nondecreasing in v, so the root is unique where it exists;
    lanes whose target lies outside the attainable range on the v bracket
    hold NaN.  ``at_root(s, v)``, a tuple whose first entry is the mean,
    replaces ``mean`` in the pass that checks the residual at the roots,
    and is returned with v."""
    s = np.asarray(s, dtype=float)
    # the means at the bracket ends depend on s alone
    m_lo, m_hi = mean(s, -_V_HALF)[0], mean(s, _V_HALF)[0]
    target, s = np.broadcast_arrays(np.asarray(target, dtype=float), s)
    f_lo, f_hi = m_lo - target, m_hi - target
    attainable = ((f_lo < 0.0) & (0.0 <= f_hi)) | ((f_lo <= 0.0) & (0.0 < f_hi))

    def fdf(v, s, target):
        m, dv, _ = mean(s, v, dv=True)
        return m - target, dv

    v, _ = newton_bisect(
        fdf,
        np.full(s.shape, -_V_HALF),
        np.full(s.shape, _V_HALF),
        np.where(attainable, f_lo, np.nan),
        np.where(attainable, f_hi, np.nan),
        args=(s, target),
    )
    final = (at_root or mean)(s, v)
    resid = np.abs(final[0] - target)
    if np.any(resid > _RESID_TOL):
        k = np.flatnonzero(resid > _RESID_TOL)[0]
        raise ConvergenceError(
            f"u root residual {resid.flat[k]:.2e} above tolerance at target "
            f"{target.flat[k]}, s={s.flat[k]}",
            best_estimate=float(v.flat[k]),
            error_bound=float(resid.flat[k]),
        )
    return v if at_root is None else (v, final)


def _solve_u(mean: Callable, target, z, params, label) -> float:
    """One-lane u root at the model's z; NoRootError where the target is
    out of reach."""
    if not (z > 0):
        raise ParameterError(f"z must be > 0, got {z}")
    v = _v_roots(mean, target, z / params.n_fluct)
    if np.isnan(v):
        raise NoRootError(
            f"{label} target {target} outside the attainable range at z={z}; "
            "the limit density is 0 there"
        )
    return float(v) / math.sqrt(params.n_fluct)


def solve_u_senior(
    l_senior: float, z: float, faces: SubordinationSpec, params: MarketParams
) -> float:
    """u root of mean senior loss = l_senior at fixed z.

    The senior conditional mean is strictly increasing in u, so the root is
    unique when it exists; targets outside the attainable range raise
    NoRootError (the limit density is zero there).
    """
    return _solve_u(_senior_mean(faces, params), l_senior, z, params, "senior mean")


def solve_u_plain(l: float, z: float, face: float, params: MarketParams) -> float:
    """u root of mean untranched loss = l at fixed z."""
    return _solve_u(_plain_mean(face, params), l, z, params, "plain mean")


def _plain_factor(targets, s, face, params, order=1):
    """Plain-factor kernel on the (targets x s) table.

    Returns the implicit weight phi(v) / |d mean / dv| at the v root of
    mean plain loss = target on each lane, and the plain moments of orders
    0..``order`` at that root, all from the one pass that checks the
    residual.  Lanes without a root, and rows whose target is outside
    (0, 1), have weight 0 and NaN moments; lanes whose Jacobian is below
    1e-300 have weight 0.
    """
    targets = np.asarray(targets, dtype=float)
    inside = (targets > 0.0) & (targets < 1.0)

    def at_root(s, v):
        values, dv, _ = plain_moments(order, s, v, face, params, dv=True)
        return values[1], dv[1], values

    v, (_, dv, values) = _v_roots(
        _plain_mean(face, params), np.where(inside, targets, np.nan)[:, None],
        np.asarray(s, dtype=float)[None, :], at_root=at_root,
    )
    dv = np.abs(dv)
    with np.errstate(invalid="ignore", under="ignore"):
        weight = np.where(dv >= 1e-300, norm_pdf(v) / dv, 0.0)
    return weight, values


# ---------------------------------------------------------------------------
# senior/junior crossings


def _sub_v_roots(l_senior, l_junior, s, faces, params):
    """Senior and junior v roots on the lanes of broadcast (l_senior, s) and
    (l_junior, s); NaN where a target is out of reach."""
    v_s = _v_roots(_senior_mean(faces, params), l_senior, s)
    v_j = _v_roots(_junior_mean(faces, params), l_junior, s)
    return v_s, v_j


def _dv_ds(dm_dv, dm_ds):
    """Implicit-function slope dv/ds along mean(s, v(s)) = const."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(dm_dv) < 1e-300, np.inf, -dm_ds / dm_dv)


_NONE, _LOST, _MULTIPLE, _FOUND = range(4)


class _Crossings(NamedTuple):
    """Per-cell outcome of the subordinated kernel, arrays of shape
    (len(xs), len(ys)).  ``status`` is _NONE (no bracketed crossing),
    _LOST (the joint solve could not close a bracketed crossing), _MULTIPLE
    (several distinct crossings, listed in ``roots`` by cell) or _FOUND.
    Only a found cell holds numbers: its crossing (s, v), the |dm/dv| of
    each mean and the slope d/ds of v_senior(s) - v_junior(s) there."""

    status: np.ndarray
    s: np.ndarray
    v: np.ndarray
    jac_senior: np.ndarray
    jac_junior: np.ndarray
    slope: np.ndarray
    roots: dict


def _check_ridge_faces(faces: SubordinationSpec):
    """Refuse f_senior = 0: the senior loss is then identically 0, so the
    pair has no joint limit density.  Refuse f_junior below
    ``_MIN_JUNIOR_SHARE`` of f_total: the junior mean carries a rounding
    error of about (f_total / f_junior) 2.2e-16, which meets the u-root
    tolerance ``_RESID_TOL`` near f_junior / f_total = 2e-6."""
    if faces.f_senior == 0:
        raise ParameterError(
            "f_senior = 0 leaves the senior loss identically 0, so the pair "
            "has no joint limit density"
        )
    if faces.f_junior < _MIN_JUNIOR_SHARE * faces.f_total:
        raise ParameterError(
            f"f_junior must be at least {_MIN_JUNIOR_SHARE:g} of f_total: a thinner "
            "junior tranche rounds its mean loss beyond the root tolerance, got "
            f"f_junior / f_total = {faces.f_junior / faces.f_total:.6g}"
        )


def _check_ridge_support(faces: SubordinationSpec, params: MarketParams, n_cells, lo, hi):
    """Refuse an N at which the ridge's support is thinner than one grid
    cell.  A cell-centre density is the weight of s at the crossing over
    the Jacobians; beyond the Gamma(N/2, 2/N) quantiles at the smallest
    normal double that weight is not representable, so the support is the
    image of that s range.  At each v of the bracket the (senior, junior)
    mean pair moves across the support as s spans the range; where even
    the widest such move is below the cell width (hi - lo) / n_cells, the
    cell centres miss the ridge but for a row or two, and the grid would be
    zeros.  The test is on cells, not on a fixed N, since the support
    narrows like 1/sqrt(N).  A market that saturates the means, which then
    do not move across the v bracket at s = 1 at any N, is refused at the
    field :func:`distance_field` finds."""
    half = params.n_fluct / 2.0
    tiny = sys.float_info.min
    ends = np.array([gammaincinv(half, tiny), gammainccinv(half, tiny)]) / half
    s = np.append(np.fmax(ends, _s_bracket(params)[0]), 1.0)[:, None]
    v = np.linspace(-_V_HALF, _V_HALF, 97)
    means = [mean(s, v)[0] for mean in (_senior_mean(faces, params), _junior_mean(faces, params))]
    width = max(float(np.max(np.abs(m[1] - m[0]))) for m in means)
    cell = (hi - lo) / n_cells
    if width >= cell:
        return
    if not any(np.ptp(m[2]) > 0.0 for m in means):
        raise ParameterError(
            "the market saturates the senior and junior means: across the v bracket at "
            "s = 1 neither moves, so the ridge has no support",
            field=distance_field(faces.f_total, params),
        )
    raise ParameterError(
        f"n_fluct = {params.n_fluct:.6g} leaves the ridge a support {width:.3g} wide, "
        f"thinner than one grid cell of {cell:.3g}: a grid of cell-centre densities "
        "would miss it",
        field="n_fluct",
    )


def _edge_share(p, d, lo, hi):
    """The share of the step from p to p - d to take: 1 where p - d stays in
    [lo, hi], else half the share that reaches the edge; NaN for a NaN step."""
    reach = np.maximum((p - lo) / d, (p - hi) / d)
    return np.where((d == 0.0) | (reach >= 1.0), 1.0, 0.5 * np.maximum(reach, 0.0))


def _joint_newton(x, y, s, v, s_a, s_b, faces, params):
    """Newton steps on (m_senior(s, v) - x, m_junior(s, v) - y) = 0, one 2x2
    system per crossing lane, from the start (s, v) inside (s_a, s_b).

    Returns (s, v, slopes, ok).  A step's size is the larger of |ds| / max(1,
    |s|) and |dv| / max(1, |v|).  A lane is ok at a point whose two
    residuals are at most ``_RESID_TOL`` where the step that reached it was
    below 1e-12 or failed to halve the step before it: such a step is at
    the rounding floor of the means.  A step out of [s_a, s_b] or the v
    bracket goes half the way to its edge.  A lane that starts on a bracket
    end (an exact zero of the scanned gap), cannot move or is still open
    after ``_JOINT_STEPS`` steps is not ok.  An ok lane's ``slopes`` column,
    dm_s/dv, dm_s/ds, dm_j/dv and dm_j/ds, is from the pass that marked it,
    at its (s, v).  Each step evaluates only the open lanes.
    """
    senior, junior = _senior_mean(faces, params), _junior_mean(faces, params)
    s, v = s.copy(), v.copy()
    ok = np.zeros(s.shape, dtype=bool)
    slopes = np.full((4, *s.shape), np.nan)
    # the sizes of the step that reached each point and of the one before;
    # NaN before the first step, which has nothing to halve
    step, prev = np.full(s.shape, np.nan), np.full(s.shape, np.nan)
    lanes = np.flatnonzero((s_a < s) & (s < s_b))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_JOINT_STEPS + 1):
            sl, vl = s[lanes], v[lanes]
            m_s, s_v, s_s = senior(sl, vl, dv=True, ds=True)
            m_j, j_v, j_s = junior(sl, vl, dv=True, ds=True)
            r_s, r_j = m_s - x[lanes], m_j - y[lanes]
            floor = (step[lanes] <= 1e-12) | (step[lanes] > 0.5 * prev[lanes])
            done = floor & (np.abs(r_s) <= _RESID_TOL) & (np.abs(r_j) <= _RESID_TOL)
            ok[lanes[done]] = True
            slopes[:, lanes[done]] = s_v[done], s_s[done], j_v[done], j_s[done]
            lanes, sl, vl, r_s, r_j, s_v, j_v, s_s, j_s = (
                a[~done] for a in (lanes, sl, vl, r_s, r_j, s_v, j_v, s_s, j_s)
            )
            if it == _JOINT_STEPS or not lanes.size:
                break
            det = s_s * j_v - s_v * j_s
            ds, dv = (j_v * r_s - s_v * r_j) / det, (s_s * r_j - j_s * r_s) / det
            # a step out of the brackets goes half the way to their edge
            cut = np.minimum(
                _edge_share(sl, ds, s_a[lanes], s_b[lanes]), _edge_share(vl, dv, -_V_HALF, _V_HALF)
            )
            sl, vl = sl - cut * ds, vl - cut * dv
            s[lanes], v[lanes], prev[lanes] = sl, vl, step[lanes]
            step[lanes] = cut * np.maximum(
                np.abs(ds) / np.maximum(1.0, np.abs(sl)), np.abs(dv) / np.maximum(1.0, np.abs(vl))
            )
            # a lane that cannot move, or whose step is NaN, is dropped
            lanes = lanes[cut > 0.0]
    return s, v, slopes, ok


def _sub_crossings(xs, ys, faces, params, n_scan) -> _Crossings:
    """Subordinated kernel: the s where the senior v root of xs[i] meets the
    junior v root of ys[j], for every cell (i, j).

    v_senior(s) - v_junior(s) is tabulated on an n_scan-point s scan from
    the two v tables, and every bracketed sign change becomes a lane.  Each
    lane solves m_senior = xs[i] and m_junior = ys[j] jointly in (s, v) by
    Newton steps (:func:`_joint_newton`), from the crossing interpolated in
    its bracket, and a found cell keeps the v and the slopes of the pass
    that verified its root.  Counting its lanes decides a cell: none is
    _NONE, one the joint solve cannot close makes it _LOST, and several
    closed ones make it _MULTIPLE.  An exact zero of the scanned gap flags
    the lanes on both sides of its node, which start on their bracket ends
    and so are never closed: the cell is _LOST.
    """
    _check_ridge_faces(faces)
    s_lo, s_hi = _s_bracket(params)
    xs, ys = np.atleast_1d(np.asarray(xs, dtype=float)), np.atleast_1d(np.asarray(ys, dtype=float))
    ss = np.linspace(s_lo, s_hi, n_scan)
    vs_tab, vj_tab = _sub_v_roots(xs[:, None], ys[:, None], ss, faces, params)
    # sign changes between feasible scan neighbours, one senior row at a
    # time so that no array is sized cells x s
    lanes = []
    for i, row in enumerate(vs_tab):
        gap = row - vj_tab
        feasible = ~np.isnan(gap)
        j, k = np.nonzero(
            feasible[:, :-1] & feasible[:, 1:] & (np.sign(gap[:, :-1]) != np.sign(gap[:, 1:]))
        )
        lanes.append((np.full(len(j), i), j, k, gap[j, k], gap[j, k + 1]))
    li, lj, lk, fa, fb = (np.concatenate(c) for c in zip(*lanes))
    x, y, s_a, s_b = xs[li], ys[lj], ss[lk], ss[lk + 1]

    # start from the crossing interpolated in the scan bracket
    t = fa / (fa - fb)
    v_a, v_b = vs_tab[li, lk], vs_tab[li, lk + 1]
    s_root, v_root, slopes, joined = _joint_newton(
        x, y, s_a + t * (s_b - s_a), v_a + t * (v_b - v_a), s_a, s_b, faces, params
    )
    s_root[~joined] = np.nan

    shape, n_cells = (len(xs), len(ys)), len(xs) * len(ys)
    cell = li * len(ys) + lj
    lanes_in = np.bincount(cell, minlength=n_cells)
    lost_in = np.bincount(cell[~joined], minlength=n_cells)
    status = np.select(
        [lost_in > 0, lanes_in > 1, lanes_in == 1], [_LOST, _MULTIPLE, _FOUND], _NONE
    ).reshape(shape)
    source = np.zeros(shape, dtype=int)  # the lane of a found cell's root
    source.flat[cell] = np.arange(len(cell))
    roots = {
        divmod(int(c), len(ys)): tuple(params.n_fluct * s_root[cell == c])
        for c in np.flatnonzero(status == _MULTIPLE)
    }

    found = status == _FOUND
    sep = _dv_ds(*slopes[:2]) - _dv_ds(*slopes[2:])
    per_lane = np.array((s_root, v_root, np.abs(slopes[0]), np.abs(slopes[2]), sep))
    cells = np.full((len(per_lane), *shape), np.nan)
    cells[:, found] = per_lane[:, source[found]]
    return _Crossings(status, *cells, roots)


def _single_crossing(l_senior, l_junior, faces, params, n_scan) -> _Crossings:
    """The crossing record of one loss pair that has exactly one root."""
    cr = _sub_crossings(l_senior, l_junior, faces, params, n_scan)
    status = cr.status[0, 0]
    if status == _MULTIPLE:
        roots = cr.roots[(0, 0)]
        raise MultipleRootsError(
            f"{len(roots)} crossing points found for losses "
            f"({l_senior}, {l_junior}); uniqueness assumption violated",
            roots=roots,
        )
    if status == _LOST:
        raise ConvergenceError(
            f"the crossing solve could not close the crossing of losses ({l_senior}, "
            f"{l_junior}) to its residual tolerance {_RESID_TOL:g}",
            best_estimate=math.nan,
            error_bound=math.inf,
        )
    if status != _FOUND:
        raise NoRootError(
            f"u roots never coincide for losses ({l_senior}, {l_junior}) on the "
            "z bracket; limit density is 0 there"
        )
    return cr


def solve_z0(
    l_senior: float,
    l_junior: float,
    faces: SubordinationSpec,
    params: MarketParams,
    n_scan: int = 96,
) -> tuple:
    """(z0, u0, separation_slope): the z at which the senior and junior u
    roots coincide, their common u root there, and the slope d/dz of
    u_senior(z) - u_junior(z) at z0.

    Scans the z bracket, refines every sign change of u_senior(z) -
    u_junior(z), and demands exactly one root: several roots raise
    MultipleRootsError (anomaly, never silently resolved), none raise
    NoRootError (the limit density is zero at that loss pair), and one
    that the joint solve cannot close raises ConvergenceError.
    """
    cr = _single_crossing(l_senior, l_junior, faces, params, n_scan)
    n = params.n_fluct
    # z = N s and u = v / sqrt(N), so d(u_s - u_j)/dz = N^-1.5 d(v_s - v_j)/ds
    return n * float(cr.s[0, 0]), float(cr.v[0, 0]) / math.sqrt(n), float(cr.slope[0, 0]) / n**1.5


# ---------------------------------------------------------------------------
# limit densities


def _density_at_crossing(cr: _Crossings, found, params):
    """(density, quality) arrays at the found cells of a crossing record:
    the (s, v) weight over the three Jacobian factors, which is the (z, u)
    weight over theirs in the model's variables."""
    s, v, jac_s, jac_j = (a[found] for a in (cr.s, cr.v, cr.jac_senior, cr.jac_junior))
    slope = np.abs(cr.slope[found])
    denom = jac_s * jac_j * slope
    n = params.n_fluct
    # the density of s = z / N is N times that of z; v is standard normal
    log_w = math.log(n) + chi2_log_weight(n * s, n) - 0.5 * (v * v + math.log(2.0 * math.pi))
    with np.errstate(divide="ignore", under="ignore"):
        density = np.where(denom == 0.0, np.inf, np.exp(log_w) / denom)
    near_singular = np.minimum(np.minimum(jac_s, jac_j), slope) < _JAC_FLOOR
    return density, np.where(near_singular | (denom == 0.0), 1.0, 0.0)


def density_limit_subordinated(
    l_senior: float,
    l_junior: float,
    faces: SubordinationSpec,
    params: MarketParams,
    n_scan: int = 96,
) -> float:
    """Limit of the joint (senior, junior) density for an infinitely large
    homogeneous portfolio.

    Both delta constraints collapse, leaving the (z, u) weight divided by
    the three Jacobian factors at the solved crossing point.  Zero where
    the losses cannot be realized; a crossing that the joint solve cannot
    close raises ConvergenceError rather than reading 0.  Near-singular
    Jacobians are reported through the grid quality flag, never clipped.
    """
    if not (0.0 <= l_senior <= 1.0 and 0.0 <= l_junior <= 1.0):
        raise ParameterError("loss fractions must lie in [0, 1]")
    try:
        cr = _single_crossing(l_senior, l_junior, faces, params, n_scan)
    except NoRootError:
        return 0.0
    return float(_density_at_crossing(cr, cr.status == _FOUND, params)[0][0])


# ---------------------------------------------------------------------------
# grid builders


def limit_grid_subordinated(
    faces: SubordinationSpec,
    params: MarketParams,
    n_cells: int = 101,
    lo: float = 0.0,
    hi: float = 1.0,
    n_scan: int = 96,
) -> DensityGrid:
    centers = cell_centers(n_cells, lo, hi)
    cr = _sub_crossings(centers, centers, faces, params, n_scan)
    found = cr.status == _FOUND
    vals = np.zeros(found.shape)
    qual = np.where((cr.status == _LOST) | (cr.status == _MULTIPLE), 1.0, 0.0)
    vals[found], qual[found] = _density_at_crossing(cr, found, params)
    return DensityGrid(axes=(centers, centers), values=vals, quality=qual)


def _open_unit_centers(n_cells: int, lo: float, hi: float) -> np.ndarray:
    """Cell centers of the equal-loss curve, all strictly inside (0, 1)."""
    centers = cell_centers(n_cells, lo, hi)
    if not np.all((centers > 0.0) & (centers < 1.0)):
        raise ParameterError("loss must lie strictly inside (0, 1)")
    return centers


def limit_curve_equal_infinite(
    face: float,
    params: MarketParams,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 201,
    lo: float = 1e-3,
    hi: float = 1.0 - 1e-3,
) -> DensityGrid:
    """Univariate limit density of the common loss of equal infinite
    portfolios in one market, on the centers of n_cells cells of [lo, hi],
    all strictly inside (0, 1).

    The bivariate limit object is this density supported on the equal-loss
    line l1 = l2: the portfolio losses become perfectly correlated, and no
    overlap parameter survives in the formula.
    """
    centers = _open_unit_centers(n_cells, lo, hi)
    s, ws = _scale_rule(params.n_fluct, quad.z_nodes)
    # ws carries the weight of s, the kernel the Gaussian v factor
    return DensityGrid(axes=(centers,), values=_plain_factor(centers, s, face, params)[0] @ ws)


def limit_grid_finite_vs_infinite(
    r_one: int,
    face: float,
    params: MarketParams,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 101,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityGrid:
    """Joint density of a finite disjoint portfolio of ``r_one`` obligors
    (loss on the first axis) against an infinite one (loss on the second
    axis) in the same market, on an n_cells x n_cells grid.

    Only the infinite side collapses to a delta; the finite side keeps a
    Gaussian slice of width shrinking like 1/sqrt(r_one) around the
    conditional mean, which the delta pins to the infinite side's loss.
    """
    if r_one < 2:
        raise ParameterError(f"finite portfolio needs at least 2 obligors, got {r_one}")
    centers = cell_centers(n_cells, lo, hi)
    s, ws = _scale_rule(params.n_fluct, quad.z_nodes)
    weight, (_, m1, m2) = _plain_factor(centers, s, face, params, order=2)
    var = np.maximum(m2 - m1 * m1, 0.0) / r_one
    # lanes without a root add exactly 0; the kernel masks degenerate slices
    w_eff = np.where(weight > 0.0, weight * ws, 0.0)
    vals = np.empty((len(centers), len(w_eff)))
    # one infinite-side loss at a time, so that no array is sized cells x s
    for j in range(len(w_eff)):
        vals[:, j] = _mixture((w_eff[j], m1[j][None], var[j][None, None]), _DensityLaw(centers))
    return DensityGrid(axes=(centers, centers), values=vals)


def limit_grid_two_markets(
    face_one: float,
    face_two: float,
    params_one: MarketParams,
    params_two: MarketParams,
    quad: QuadratureSpec = QuadratureSpec(),
    n_cells: int = 101,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityGrid:
    """Joint limit density of two infinite disjoint portfolios, one per
    market, coupled only through the shared scale variable, on an
    n_cells x n_cells grid.  Two equal (face, market) pairs share one
    plain-factor table."""
    if params_one.n_fluct != params_two.n_fluct:
        raise ParameterError("both markets must share the fluctuation parameter")
    centers = cell_centers(n_cells, lo, hi)
    s, ws = _scale_rule(params_one.n_fluct, quad.z_nodes)
    w_one = _plain_factor(centers, s, face_one, params_one)[0]
    same = (face_one, params_one) == (face_two, params_two)
    w_two = w_one if same else _plain_factor(centers, s, face_two, params_two)[0]
    return DensityGrid(axes=(centers, centers), values=np.einsum("ik,jk,k->ij", w_one, w_two, ws))
