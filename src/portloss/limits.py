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
one callable, so a conditional mean and its u-slope come from one pass of
the moment kernels.  A lane stops where a rejected Newton correction is
already at the rounding floor of f, rather than bisecting on the signs of
rounding noise.  A lane is one (target loss, z) pair, so the u roots of a
whole grid are one call on a (targets x z) table.  The senior/junior
crossings of a subordinated grid are bracketed by a z scan of those tables
and then solved in (z, u) jointly, one 2x2 Newton system per (cell,
crossing) lane; a lane that leaves its bracket or misses the residual
tolerance falls back to an outer :func:`newton_bisect` in z whose inner u
solves run on the lanes' current z.  Roots are searched on u in
[-12, 12]/sqrt(N) and z in [1e-6, chi2 quantile 1 - 1e-10]; outside these
brackets the weights are below anything that could move a six-digit
result, and the density is treated as exactly zero.  Near the n_fluct
floor that quantile is not above 1e-6: the crossing solve refuses it.

A lane whose target is out of reach holds NaN as its root and adds density
0.  The one-point solvers raise NoRootError there instead; otherwise
``solve_u_senior`` and ``solve_u_plain`` return the u root as a float and
``solve_z0`` returns (z0, u0, separation_slope).  Losses out of range raise
ParameterError.  ConvergenceError is raised when any lane exceeds the
iteration budget or leaves a residual above 1e-10.  ``solve_z0`` and
``density_limit_subordinated`` raise MultipleRootsError when the senior
and junior roots cross at several z; the subordinated grid writes density
0 with quality 1 for such a cell, and for a cell whose refinement loses a
root.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import gammaincinv

from .errors import (
    ConvergenceError,
    MultipleRootsError,
    NoRootError,
    ParameterError,
)
from .engine import _mixture_density
from .grids import DensityGrid, cell_centers
from .moments import (
    junior_mean_target,
    junior_mean_target_and_du,
    junior_mean_target_du,
    junior_mean_target_dz,
    moment_plain,
    moment_plain_and_du,
    moment_senior,
    moment_senior_and_du,
    moment_senior_du,
    moment_senior_dz,
)
from .params import MarketParams, SubordinationSpec
from .quadrature import QuadratureSpec, chi2_log_weight, chi2_nodes

__all__ = [
    "u_bracket",
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


def u_bracket(params: MarketParams):
    half = 12.0 / math.sqrt(params.n_fluct)
    return -half, half


def z_bracket(params: MarketParams):
    # the chi-square(N) quantile at 1 - 1e-10, as scipy.stats.chi2.ppf
    # computes it, without importing scipy.stats
    return 1e-6, float(2.0 * gammaincinv(params.n_fluct / 2.0, 1.0 - 1e-10))


def _gauss_log_weight(u, n_fluct):
    return 0.5 * math.log(n_fluct / (2.0 * math.pi)) - 0.5 * n_fluct * u * u


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


class _Mean(NamedTuple):
    """A conditional mean loss m(z, u): its value, the pair (value, dm/du)
    from one pass, and its exact dm/dz."""

    value: Callable
    value_du: Callable
    dz: Optional[Callable] = None


def _senior_mean(faces, params) -> _Mean:
    return _Mean(
        lambda z, u: moment_senior(1, z, u, faces, params),
        lambda z, u: moment_senior_and_du(1, z, u, faces, params),
        lambda z, u: moment_senior_dz(1, z, u, faces, params),
    )


def _junior_mean(faces, params) -> _Mean:
    """Junior mean (wipeout + band)."""
    return _Mean(
        lambda z, u: junior_mean_target(z, u, faces, params),
        lambda z, u: junior_mean_target_and_du(z, u, faces, params),
        lambda z, u: junior_mean_target_dz(z, u, faces, params),
    )


def _plain_mean(face, params) -> _Mean:
    return _Mean(
        lambda z, u: moment_plain(1, z, u, face, params),
        lambda z, u: moment_plain_and_du(1, z, u, face, params),
    )


def _u_roots(mean: _Mean, target, z, params, with_slope=False):
    """u solving mean(z, u) = target on every lane of broadcast (target, z).
    The mean is nondecreasing in u, so the root is unique where it exists;
    lanes whose target lies outside the attainable range on the u bracket
    hold NaN.  ``with_slope`` returns the pair (u, dm/du at u) instead, the
    slope from the same pass that checks the residual."""
    lo, hi = u_bracket(params)
    z = np.asarray(z, dtype=float)
    # the means at the bracket ends depend on z alone
    m_lo, m_hi = mean.value(z, lo), mean.value(z, hi)
    target, z = np.broadcast_arrays(np.asarray(target, dtype=float), z)
    f_lo, f_hi = m_lo - target, m_hi - target
    attainable = ((f_lo < 0.0) & (0.0 <= f_hi)) | ((f_lo <= 0.0) & (0.0 < f_hi))

    def fdf(u, z, target):
        m, du = mean.value_du(z, u)
        return m - target, du

    u, _ = newton_bisect(
        fdf,
        np.full(z.shape, lo),
        np.full(z.shape, hi),
        np.where(attainable, f_lo, np.nan),
        np.where(attainable, f_hi, np.nan),
        args=(z, target),
    )
    if with_slope:
        m, du = mean.value_du(z, u)
    else:
        m = mean.value(z, u)
    resid = np.abs(m - target)
    if np.any(resid > _RESID_TOL):
        k = np.flatnonzero(resid > _RESID_TOL)[0]
        raise ConvergenceError(
            f"u root residual {resid.flat[k]:.2e} above tolerance at target "
            f"{target.flat[k]}, z={z.flat[k]}",
            best_estimate=float(u.flat[k]),
            error_bound=float(resid.flat[k]),
        )
    return (u, du) if with_slope else u


def _solve_u(mean: _Mean, target, z, params, label) -> float:
    """One-lane u root; NoRootError where the target is out of reach."""
    if not (z > 0):
        raise ParameterError(f"z must be > 0, got {z}")
    u = _u_roots(mean, target, z, params)
    if np.isnan(u):
        raise NoRootError(
            f"{label} target {target} outside the attainable range at z={z}; "
            "the limit density is 0 there"
        )
    return float(u)


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


def _plain_factor(targets, z, face, params):
    """Plain-factor kernel on the (targets x z) table.

    Returns the u roots of mean plain loss = target and the implicit weight
    exp(gauss log weight of u) / |d mean / du| of each lane.  Lanes without
    a root, and rows whose target is outside (0, 1), hold u NaN and weight
    0; so do lanes whose Jacobian is below 1e-300.
    """
    targets = np.asarray(targets, dtype=float)
    inside = (targets > 0.0) & (targets < 1.0)
    mean = _plain_mean(face, params)
    z = np.asarray(z, dtype=float)[None, :]
    u, du = _u_roots(mean, np.where(inside, targets, np.nan)[:, None], z, params, with_slope=True)
    du = np.abs(du)
    with np.errstate(invalid="ignore", under="ignore"):
        weight = np.where(
            du >= 1e-300, np.exp(_gauss_log_weight(u, params.n_fluct)) / du, 0.0
        )
    return u, weight


# ---------------------------------------------------------------------------
# senior/junior crossings


def _sub_u_roots(l_senior, l_junior, z, faces, params):
    """Senior and junior u roots on the lanes of broadcast (l_senior, z) and
    (l_junior, z); NaN where a target is out of reach."""
    u_s = _u_roots(_senior_mean(faces, params), l_senior, z, params)
    u_j = _u_roots(_junior_mean(faces, params), l_junior, z, params)
    return u_s, u_j


def _du_dz(mean: _Mean, z, u):
    """Implicit-function slope du/dz along mean(z, u(z)) = const."""
    den = mean.value_du(z, u)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) < 1e-300, np.inf, -mean.dz(z, u) / den)


_NONE, _LOST, _MULTIPLE, _FOUND = range(4)


class _Crossings(NamedTuple):
    """Per-cell outcome of the subordinated kernel, arrays of shape
    (len(xs), len(ys)).  ``status`` is _NONE (no bracketed crossing),
    _LOST (a u root vanished during refinement), _MULTIPLE (several
    distinct crossings, listed in ``roots`` by cell) or _FOUND."""

    status: np.ndarray
    z0: np.ndarray
    u_s: np.ndarray
    u_j: np.ndarray
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


def _check_z_bracket(params: MarketParams):
    """The z bracket of the crossing scan, refused where it is empty: near
    the n_fluct floor its upper end, a chi-square quantile, underflows."""
    z_lo, z_hi = z_bracket(params)
    if not z_hi > z_lo:
        raise ParameterError(
            f"n_fluct = {params.n_fluct:.6g} leaves the crossing scan no z range: "
            f"its chi-square quantile {z_hi:.6g} is not above {z_lo:g}",
            field="n_fluct",
        )
    return z_lo, z_hi


def _joint_newton(x, y, z, u, z_a, z_b, faces, params):
    """Newton steps on (m_senior(z, u) - x, m_junior(z, u) - y) = 0, one 2x2
    system per crossing lane, from the start (z, u) inside (z_a, z_b).

    Returns (z, ok).  A lane is ok when a step below 1e-12 relative
    in both z and u (the step tolerance of :func:`newton_bisect`) lands on
    a point whose two residuals are at most ``_RESID_TOL``, and every
    iterate stayed in [z_a, z_b] and in the u bracket.  A lane that starts
    on a bracket end (an exact zero of the scanned gap), leaves the
    brackets or is still open after ``_JOINT_STEPS`` steps is not ok.  Each
    step evaluates only the open lanes.
    """
    senior, junior = _senior_mean(faces, params), _junior_mean(faces, params)
    u_lo, u_hi = u_bracket(params)
    z, u = z.copy(), u.copy()
    ok = np.zeros(z.shape, dtype=bool)
    small = np.zeros(z.shape, dtype=bool)  # the step that reached the point was below 1e-12
    lanes = np.flatnonzero((z_a < z) & (z < z_b))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_JOINT_STEPS + 1):
            zl, ul = z[lanes], u[lanes]
            (m_s, s_u), (m_j, j_u) = senior.value_du(zl, ul), junior.value_du(zl, ul)
            r_s, r_j = m_s - x[lanes], m_j - y[lanes]
            done = small[lanes] & (np.abs(r_s) <= _RESID_TOL) & (np.abs(r_j) <= _RESID_TOL)
            ok[lanes[done]] = True
            lanes, zl, ul, r_s, r_j, s_u, j_u = (
                a[~done] for a in (lanes, zl, ul, r_s, r_j, s_u, j_u)
            )
            if it == _JOINT_STEPS or not lanes.size:
                break
            s_z, j_z = senior.dz(zl, ul), junior.dz(zl, ul)
            det = s_z * j_u - s_u * j_z
            dz, du = (j_u * r_s - s_u * r_j) / det, (s_z * r_j - j_z * r_s) / det
            zl, ul = zl - dz, ul - du
            z[lanes], u[lanes] = zl, ul
            small[lanes] = (np.abs(dz) <= 1e-12 * np.maximum(1.0, np.abs(zl))) & (
                np.abs(du) <= 1e-12 * np.maximum(1.0, np.abs(ul))
            )
            # NaN iterates fail these tests too
            inside = (z_a[lanes] <= zl) & (zl <= z_b[lanes]) & (u_lo <= ul) & (ul <= u_hi)
            lanes = lanes[inside]
    return z, ok


def _nested_crossings(x, y, z_a, z_b, f_a, f_b, faces, params):
    """The crossing z of each lane by a Newton solve in z on the bracket
    [z_a, z_b] with gap values f_a, f_b at its ends: the gap u_senior(z) -
    u_junior(z) comes from inner u solves at the lanes' current z.
    Returns z; NaN where a u root is lost on the way."""
    senior, junior = _senior_mean(faces, params), _junior_mean(faces, params)

    def sep(z, x, y):
        u_s, u_j = _sub_u_roots(x, y, z, faces, params)
        return u_s - u_j, _du_dz(senior, z, u_s) - _du_dz(junior, z, u_j)

    return newton_bisect(sep, z_a, z_b, f_a, f_b, args=(x, y))[0]


def _sub_crossings(xs, ys, faces, params, n_scan) -> _Crossings:
    """Subordinated kernel: the z where the senior u root of xs[i] meets the
    junior u root of ys[j], for every cell (i, j).

    u_senior(z) - u_junior(z) is tabulated on an n_scan-point z scan from
    the two u tables, and every bracketed sign change becomes a lane.  Each
    lane solves m_senior = xs[i] and m_junior = ys[j] jointly in (z, u) by
    Newton steps (:func:`_joint_newton`), from the crossing interpolated in
    its bracket.  Lanes that fail the joint solve's tests fall back to
    :func:`_nested_crossings`.
    """
    _check_ridge_faces(faces)
    z_lo, z_hi = _check_z_bracket(params)
    xs, ys = np.atleast_1d(np.asarray(xs, dtype=float)), np.atleast_1d(np.asarray(ys, dtype=float))
    senior, junior = _senior_mean(faces, params), _junior_mean(faces, params)
    zs = np.linspace(z_lo, z_hi, n_scan)
    us_tab, uj_tab = _sub_u_roots(xs[:, None], ys[:, None], zs, faces, params)
    # sign changes between feasible scan neighbours, one senior row at a
    # time so that no array is sized cells x z
    lanes = []
    for i, row in enumerate(us_tab):
        gap = row - uj_tab
        feasible = ~np.isnan(gap)
        j, k = np.nonzero(
            feasible[:, :-1] & feasible[:, 1:] & (np.sign(gap[:, :-1]) != np.sign(gap[:, 1:]))
        )
        lanes.append((np.full(len(j), i), j, k, gap[j, k], gap[j, k + 1]))
    li, lj, lk, fa, fb = (np.concatenate(c) for c in zip(*lanes))
    x, y, z_a, z_b = xs[li], ys[lj], zs[lk], zs[lk + 1]

    # start from the crossing interpolated in the scan bracket
    t = fa / (fa - fb)
    u_a, u_b = us_tab[li, lk], us_tab[li, lk + 1]
    z_root, joined = _joint_newton(
        x, y, z_a + t * (z_b - z_a), u_a + t * (u_b - u_a), z_a, z_b, faces, params
    )
    rest = ~joined
    z_root[rest] = _nested_crossings(
        x[rest], y[rest], z_a[rest], z_b[rest], fa[rest], fb[rest], faces, params
    )

    shape = (len(xs), len(ys))
    status = np.full(shape, _NONE)
    z0 = np.full(shape, np.nan)
    kept = {}
    for i, j, z in zip(li, lj, z_root):
        cell = kept.setdefault((i, j), [])
        if np.isnan(z):
            status[i, j] = _LOST
        # an exact zero at a scan node flags both neighbours; keep one
        elif not cell or abs(z - cell[-1]) > 1e-9 * (z_hi - z_lo):
            cell.append(z)
    roots = {}
    for (i, j), cell in kept.items():
        if status[i, j] == _LOST:
            continue
        if len(cell) > 1:
            status[i, j] = _MULTIPLE
            roots[(i, j)] = tuple(cell)
        else:
            status[i, j], z0[i, j] = _FOUND, cell[0]

    found = status == _FOUND
    u_s, u_j, slope = (np.full(shape, np.nan) for _ in range(3))
    fi, fj = np.nonzero(found)
    u_s[found], u_j[found] = _sub_u_roots(xs[fi], ys[fj], z0[found], faces, params)
    slope[found] = _du_dz(senior, z0[found], u_s[found]) - _du_dz(junior, z0[found], u_j[found])
    status[found & (np.isnan(u_s) | np.isnan(u_j))] = _LOST
    return _Crossings(status, z0, u_s, u_j, slope, roots)


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
    NoRootError (the limit density is zero at that loss pair).
    """
    cr = _sub_crossings(l_senior, l_junior, faces, params, n_scan)
    status = cr.status[0, 0]
    if status == _MULTIPLE:
        roots = cr.roots[(0, 0)]
        raise MultipleRootsError(
            f"{len(roots)} crossing points found for losses "
            f"({l_senior}, {l_junior}); uniqueness assumption violated",
            roots=roots,
        )
    if status != _FOUND:
        raise NoRootError(
            f"u roots never coincide for losses ({l_senior}, {l_junior}) on the "
            "z bracket; limit density is 0 there"
        )
    z0, u_s, u_j, slope = (float(a[0, 0]) for a in (cr.z0, cr.u_s, cr.u_j, cr.slope))
    return z0, 0.5 * (u_s + u_j), slope


# ---------------------------------------------------------------------------
# limit densities


def _density_at_crossing(z0, u0, slope, faces, params):
    """(density, quality) arrays at solved senior/junior crossing points:
    the (z, u) weight over the three Jacobian factors."""
    du_s = np.abs(moment_senior_du(1, z0, u0, faces, params))
    du_j = np.abs(junior_mean_target_du(z0, u0, faces, params))
    slope = np.abs(slope)
    denom = du_s * du_j * slope
    log_w = chi2_log_weight(z0, params.n_fluct) + _gauss_log_weight(u0, params.n_fluct)
    with np.errstate(divide="ignore", under="ignore"):
        density = np.where(denom == 0.0, np.inf, np.exp(log_w) / denom)
    near_singular = np.minimum(np.minimum(du_s, du_j), slope) < _JAC_FLOOR
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
    the losses cannot be realized; near-singular Jacobians are reported
    through the grid quality flag, never clipped.
    """
    if not (0.0 <= l_senior <= 1.0 and 0.0 <= l_junior <= 1.0):
        raise ParameterError("loss fractions must lie in [0, 1]")
    try:
        z0, u0, slope = solve_z0(l_senior, l_junior, faces, params, n_scan=n_scan)
    except NoRootError:
        return 0.0
    density, _ = _density_at_crossing(z0, u0, slope, faces, params)
    return float(density)


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
    vals[found], qual[found] = _density_at_crossing(
        cr.z0[found], 0.5 * (cr.u_s[found] + cr.u_j[found]), cr.slope[found], faces, params
    )
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
    z, wz = chi2_nodes(params.n_fluct, quad.z_nodes)
    # wz carries the chi2 weight, the kernel the Gaussian u factor
    return DensityGrid(axes=(centers,), values=_plain_factor(centers, z, face, params)[1] @ wz)


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
    z, wz = chi2_nodes(params.n_fluct, quad.z_nodes)
    u, weight = _plain_factor(centers, z, face, params)
    m1 = moment_plain(1, z[None, :], u, face, params)
    m2 = moment_plain(2, z[None, :], u, face, params)
    var = np.maximum(m2 - m1 * m1, 0.0) / r_one
    # lanes without a root add exactly 0; the kernel masks degenerate slices
    w_eff = np.where(weight > 0.0, weight * wz, 0.0)
    vals = np.empty((len(centers), len(w_eff)))
    # one infinite-side loss at a time, so that no array is sized cells x z
    for j in range(len(w_eff)):
        vals[:, j] = _mixture_density((centers,), w_eff[j], m1[j][None], var[j][None, None])
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
    market, coupled only through the shared scale variable z, on an
    n_cells x n_cells grid."""
    if params_one.n_fluct != params_two.n_fluct:
        raise ParameterError("both markets must share the fluctuation parameter")
    centers = cell_centers(n_cells, lo, hi)
    z, wz = chi2_nodes(params_one.n_fluct, quad.z_nodes)
    w_one = _plain_factor(centers, z, face_one, params_one)[1]
    w_two = _plain_factor(centers, z, face_two, params_two)[1]
    return DensityGrid(axes=(centers, centers), values=np.einsum("ik,jk,k->ij", w_one, w_two, wz))
