"""Infinite-portfolio limit densities: root solving, frozen values, and
the grid builders against independent per-point references."""

import dataclasses
import math

import numpy as np
import pytest

from portloss import (
    ConvergenceError,
    MarketParams,
    NoRootError,
    ParameterError,
    QuadratureSpec,
    SubordinationSpec,
    density_limit_subordinated,
    limit_curve_equal_infinite,
    limit_grid_finite_vs_infinite,
    limit_grid_subordinated,
    limit_grid_two_markets,
)
from portloss.limits import (
    _check_ridge_support,
    _junior_mean,
    _senior_mean,
    _sub_v_roots,
    newton_bisect,
    solve_u_plain,
    solve_u_senior,
    solve_z0,
)
from portloss.moments import _natural, junior_mean_target, moment_senior, plain_moments

# points on the ridge where senior and junior losses co-move, frozen from a
# fine scan of the pointwise function
RIDGE_POINTS = {
    (0.0062, 0.3): 9.18467316367283,
    (0.0155, 0.4): 1.557831040079727,
    (0.0313, 0.5): 0.3036546692799409,
    (0.0566, 0.6): 0.05936685316640431,
}


def _one_lane(x):
    return np.array([x], dtype=float)


def test_newton_bisect_cubic():
    fdf = lambda x: (x**3 - 2.0, 3.0 * x**2)
    root, iters = newton_bisect(fdf, _one_lane(0.0), _one_lane(4.0))
    assert root[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
    assert iters[0] < 60
    # stays inside the bracket even when newton steps want to escape
    root2, _ = newton_bisect(
        lambda x: (np.tanh(20 * (x - 0.3)), 20 / np.cosh(20 * (x - 0.3)) ** 2),
        _one_lane(0.0), _one_lane(1.0),
    )
    assert root2[0] == pytest.approx(0.3, abs=1e-10)
    # no sign change: the lane holds NaN, and _solve_u turns that into NoRootError
    root3, _ = newton_bisect(fdf, _one_lane(3.0), _one_lane(4.0))
    assert np.isnan(root3[0])


def test_solve_u_plain_inverts_the_mean(market):
    z = 2.0
    u = solve_u_plain(0.25, z, 75.0, market)
    got = float(plain_moments(1, *_natural(z, u, market), 75.0, market)[0][1])
    assert got == pytest.approx(0.25, abs=1e-10)


def test_solve_u_senior_junior_invert(market, faces):
    # targets chosen inside the reachable range at this scale (the senior
    # mean tops out near 0.058 at z = 1.5)
    z = 1.5
    u_s = solve_u_senior(0.02, z, faces, market)
    assert float(moment_senior(1, z, u_s, faces, market)) == pytest.approx(0.02, abs=1e-10)
    s = z / market.n_fluct
    _, v_j = _sub_v_roots(0.02, 0.4, s, faces, market)
    assert float(junior_mean_target(s, v_j, faces, market)[0]) == pytest.approx(0.4, abs=1e-10)
    with pytest.raises(NoRootError):
        solve_u_senior(0.1, z, faces, market)


def test_solve_u_out_of_range_raises(market):
    with pytest.raises(NoRootError):
        solve_u_plain(1.5, 1.0, 75.0, market)


def test_limit_subordinated_frozen_ridge(market, faces):
    for (ls, lj), want in RIDGE_POINTS.items():
        got = density_limit_subordinated(ls, lj, faces, market)
        assert got == pytest.approx(want, rel=1e-9)


def test_limit_subordinated_off_ridge_is_zero(market, faces):
    # senior loss far above what any scale supports at this junior loss
    assert density_limit_subordinated(0.5, 0.1, faces, market) == 0.0


def test_limit_subordinated_refuses_zero_senior_face(market):
    # the senior loss is then identically 0: no joint limit density exists
    no_senior = SubordinationSpec(f_senior=0.0, f_junior=75.0)
    with pytest.raises(ParameterError):
        density_limit_subordinated(0.0, 0.1, no_senior, market)
    with pytest.raises(ParameterError):
        limit_grid_subordinated(no_senior, market, n_cells=4)


def test_limit_subordinated_junior_face_floor(market):
    # f_junior / f_total = 1e-5 still solves on the ridge grid; at 3e-6 the
    # junior mean's rounding error exceeds the u-root tolerance, so such a
    # face is refused up front instead of failing mid-grid
    at_floor = SubordinationSpec(f_senior=60.0, f_junior=60.0 * 1e-5 / (1.0 - 1e-5))
    grid = limit_grid_subordinated(at_floor, market, n_cells=8, lo=0.0, hi=0.6)
    assert np.all(np.isfinite(grid.values)) and grid.values.max() > 0.0
    thin = SubordinationSpec(f_senior=60.0, f_junior=60.0 * 3e-6 / (1.0 - 3e-6))
    with pytest.raises(ParameterError):
        limit_grid_subordinated(thin, market, n_cells=8, lo=0.0, hi=0.6)


def test_solve_z0_locates_the_crossing(market, faces):
    z0, u0, _ = solve_z0(0.0155, 0.4, faces, market)
    v_s, v_j = _sub_v_roots(0.0155, 0.4, z0 / market.n_fluct, faces, market)
    u_s, u_j = (v / math.sqrt(market.n_fluct) for v in (v_s, v_j))
    assert u_s == pytest.approx(u_j, abs=1e-8)
    assert u0 == pytest.approx(u_s, abs=1e-8)


def test_limit_grid_subordinated_matches_points(market, faces):
    grid = limit_grid_subordinated(faces, market, n_cells=12, lo=0.0, hi=0.6)
    xs, ys = grid.axes
    checked = 0
    for i in range(12):
        for j in range(12):
            if grid.values[i, j] > 0:
                want = density_limit_subordinated(float(xs[i]), float(ys[j]), faces, market)
                assert grid.values[i, j] == pytest.approx(want, rel=1e-9)
                checked += 1
    assert checked >= 5


def _plain_limit_terms(targets, face, params, quad):
    """Reference terms of the plain limit laws on the chi-square rule: the
    nodes z and weights wz, the u root of m1(z, u) = target by brentq, one
    (target, z) pair at a time, and the implicit weight phi_N(u) / |dm1/du|
    at the root, 0 where there is none."""
    from portloss.quadrature import chi2_nodes

    z, wz = chi2_nodes(params.n_fluct, quad.z_nodes)
    mean = lambda zz, uu: plain_moments(1, *_natural(zz, uu, params), face, params)[0][1]
    n = params.n_fluct
    u = _brentq_table(mean, targets, z, 12.0 / math.sqrt(n))
    found = ~np.isnan(u)
    weight = np.zeros(u.shape)
    # d/du = sqrt(N) d/dv
    zf = np.broadcast_to(z, u.shape)[found]
    slope = math.sqrt(n) * np.abs(plain_moments(1, *_natural(zf, u[found], params), face, params,
                                                dv=True)[1][1])
    weight[found] = math.sqrt(n / (2.0 * math.pi)) * np.exp(-0.5 * n * u[found] ** 2) / slope
    return z, wz, u, weight


def test_limit_equal_infinite_frozen(market):
    # three cells on [0.2, 0.4] put the middle centre at 0.3
    curve = limit_curve_equal_infinite(75.0, market, n_cells=3, lo=0.2, hi=0.4)
    assert curve.axes[0][1] == pytest.approx(0.3, abs=1e-15)
    assert curve.values[1] == pytest.approx(0.009084694610398904, rel=1e-10)
    # a centre at or beyond either end of (0, 1) is refused
    for lo, hi in ((-0.1, 0.1), (0.9, 1.1)):
        with pytest.raises(ParameterError):
            limit_curve_equal_infinite(75.0, market, n_cells=3, lo=lo, hi=hi)


def test_limit_equal_density_matches_direct_simulation(market):
    # the infinite-portfolio loss is the conditional mean loss m1(z, u);
    # its window probabilities can be simulated directly, which checks the
    # root-and-Jacobian construction of the density end to end
    rng = np.random.default_rng(42)
    n = 400_000
    z = rng.chisquare(market.n_fluct, n)
    u = rng.normal(0.0, math.sqrt(1.0 / market.n_fluct), n)
    m1 = np.asarray(plain_moments(1, *_natural(z, u, market), 75.0, market)[0][1])
    a, b = 0.05, 0.5
    p_mc = float(np.mean((m1 > a) & (m1 < b)))
    se = math.sqrt(p_mc * (1.0 - p_mc) / n)
    # midpoint rule over 900 cells of the window
    curve = limit_curve_equal_infinite(75.0, market, n_cells=900, lo=a, hi=b)
    p_an = float(curve.values.sum()) * (b - a) / 900
    assert abs(p_an - p_mc) < 4.0 * se + 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_equal_loss_curve_at_the_largest_n_is_the_one_point_law():
    # at N = 1.7e308 the law of s = z / N is the point s = 1, so the curve
    # is phi(v*) / |dm1/dv(1, v*)| at the root of m1(1, v*) = loss, with no
    # integral over s; in (z, u) N / g overflowed and the mean read 0
    from scipy.optimize import brentq

    from portloss.limits import _plain_mean
    from portloss.moments import norm_pdf

    market = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=1.7e308, t_mat=1.0, v0=100.0)
    curve = limit_curve_equal_infinite(75.0, market, n_cells=9, lo=0.05, hi=0.5)
    mean = _plain_mean(75.0, market)
    for loss, got in zip(curve.axes[0], curve.values):
        v = brentq(lambda v: float(mean(1.0, v)[0]) - loss, -12.0, 12.0, xtol=1e-15, rtol=1e-15)
        want = float(norm_pdf(v)) / abs(float(mean(1.0, v, dv=True)[1]))
        assert got == pytest.approx(want, rel=1e-10)


def test_finite_vs_infinite_frozen_and_scaling(market):
    # three cells on [0.2, 0.4] put the middle centre at (0.3, 0.3)
    v10, v40 = (
        limit_grid_finite_vs_infinite(r, 75.0, market, n_cells=3, lo=0.2, hi=0.4).values[1, 1]
        for r in (10, 40)
    )
    assert v10 == pytest.approx(0.05049362434479736, rel=1e-10)
    # on the diagonal the Gaussian peak height scales like sqrt(r_one)
    assert v40 == pytest.approx(2.0 * v10, rel=1e-10)
    with pytest.raises(ParameterError):
        limit_grid_finite_vs_infinite(1, 75.0, market, n_cells=3, lo=0.2, hi=0.4)


def test_finite_vs_infinite_grid_matches_points(market, quad):
    # the finite side is a Gaussian slice around m1 at the infinite side's
    # u root, weighted by that root's implicit weight
    grid = limit_grid_finite_vs_infinite(10, 75.0, market, quad, n_cells=9, lo=0.0, hi=0.6)
    xs, ys = grid.axes
    z, wz, u, weight = _plain_limit_terms(ys[[3, 5]], 75.0, market, quad)
    for row, j in enumerate((3, 5)):
        live = weight[row] > 0.0
        zl, ul = z[live], u[row, live]
        _, m1, m2 = plain_moments(2, *_natural(zl, ul, market), 75.0, market)[0]
        var = (m2 - m1 * m1) / 10
        for i in (2, 4):
            phi = np.exp(-0.5 * (xs[i] - m1) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
            want = float(np.sum(wz[live] * weight[row, live] * phi))
            assert grid.values[i, j] == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_two_markets_frozen_and_symmetry(market):
    # three cells on [0.2, 0.4] put the middle centre at (0.3, 0.3)
    grid = limit_grid_two_markets(75.0, 75.0, market, market, n_cells=3, lo=0.2, hi=0.4)
    assert grid.values[1, 1] == pytest.approx(0.0008682534896672346, rel=1e-10)
    # two cells on [0.1, 0.5] centre at 0.2 and 0.4
    pair = limit_grid_two_markets(75.0, 75.0, market, market, n_cells=2, lo=0.1, hi=0.5)
    assert pair.values[0, 1] == pytest.approx(pair.values[1, 0], rel=1e-10)
    other = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=8, t_mat=1.0, v0=100.0)
    with pytest.raises(ParameterError):
        limit_grid_two_markets(75.0, 75.0, market, other, n_cells=3)


def test_two_markets_grid_matches_points(market, quad):
    # given z the two markets are independent: the density is the z mixture
    # of the product of both implicit weights; unequal faces tell the axes
    # apart
    grid = limit_grid_two_markets(75.0, 60.0, market, market, quad, n_cells=9, lo=0.0, hi=0.6)
    xs, ys = grid.axes
    _, wz, _, w_one = _plain_limit_terms(xs[[2, 6]], 75.0, market, quad)
    _, _, _, w_two = _plain_limit_terms(ys[[3, 7]], 60.0, market, quad)
    for a, i in enumerate((2, 6)):
        for b, j in enumerate((3, 7)):
            want = float(np.sum(wz * w_one[a] * w_two[b]))
            assert grid.values[i, j] == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_ridge_density_drops_away_from_crest(market, faces):
    # moving senior loss off the crest at fixed junior loss loses density
    crest = density_limit_subordinated(0.0155, 0.4, faces, market)
    assert density_limit_subordinated(0.0125, 0.4, faces, market) < crest
    assert density_limit_subordinated(0.0185, 0.4, faces, market) < crest


# ---------------------------------------------------------------------------
# batched solver against an independent per-lane reference


def _brentq_table(mean, targets, zs, half):
    """Roots u of mean(z, u) = target on [-half, half] by scipy's brentq,
    one (target, z) pair at a time; NaN where the target is outside the
    attainable range."""
    from scipy.optimize import brentq

    lo, hi = -half, half
    out = np.full((len(targets), len(zs)), np.nan)
    for i, target in enumerate(targets):
        for k, z in enumerate(zs):
            f = lambda u: float(mean(float(z), u)) - float(target)
            f_lo, f_hi = f(lo), f(hi)
            if f_lo < 0.0 <= f_hi or f_lo <= 0.0 < f_hi:
                out[i, k] = brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return out


def _bundled_v_tables(market, faces):
    """(mean, targets, ss) of the bundled ridge scenario's 61 x 96 senior
    and junior tables and the equal-loss curve's 201 targets on 64 nodes of
    the rule for s."""
    from portloss.grids import cell_centers
    from portloss.limits import _junior_mean, _plain_mean, _s_bracket, _senior_mean
    from portloss.quadrature import _scale_rule

    ridge_targets = cell_centers(61, 0.0, 0.6)
    ridge_ss = np.linspace(*_s_bracket(market), 96)
    curve_targets = cell_centers(201, 1e-3, 1.0 - 1e-3)
    curve_ss, _ = _scale_rule(market.n_fluct, 64)
    return [
        (_senior_mean(faces, market), ridge_targets, ridge_ss),
        (_junior_mean(faces, market), ridge_targets, ridge_ss),
        (_plain_mean(75.0, market), curve_targets, curve_ss),
    ]


def test_batched_u_tables_match_scalar_loop(market, faces):
    from portloss.limits import _v_roots

    for mean, targets, ss in _bundled_v_tables(market, faces):
        want = _brentq_table(lambda s, v: mean(s, v)[0], targets, ss, 12.0)
        got = _v_roots(mean, targets[:, None], ss)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert 0 < np.isnan(want).sum() < want.size
        found = ~np.isnan(want)
        assert np.max(np.abs(got[found] - want[found])) <= 1e-12


def test_u_tables_close_every_lane_in_a_few_steps(market, faces, monkeypatch):
    # a lane whose Newton correction sits at the rounding floor of the mean
    # stops there instead of bisecting on the signs of rounding noise
    from portloss import limits

    steps = []

    def counted(*args, **kwargs):
        roots, iters = newton_bisect(*args, **kwargs)
        steps.append(iters)
        return roots, iters

    monkeypatch.setattr(limits, "newton_bisect", counted)
    for mean, targets, ss in _bundled_v_tables(market, faces):
        steps.clear()
        limits._v_roots(mean, targets[:, None], ss)
        (iters,) = steps
        assert iters.shape == (len(targets), len(ss))
        assert 0 < iters.max() <= 15


def test_newton_bisect_stops_at_the_noise_floor():
    # f = 0.03 (x - r) plus noise of 1e-13, so every root lies within the
    # band |x - r| <= 3.3e-12; a correction inside the band is rejected
    # whenever it fails to halve the last step, and the lane then keeps its
    # iterate instead of bisecting to the 1e-12 tolerance (about 40 steps)
    r = np.linspace(0.2, 0.8, 64)

    def fdf(x, r):
        return 0.03 * (x - r) + 1e-13 * np.sin(1e15 * x), np.full_like(x, 0.03)

    roots, iters = newton_bisect(fdf, np.zeros_like(r), np.ones_like(r), args=(r,))
    assert np.max(np.abs(roots - r)) <= 1e-13 / 0.03 * (1.0 + 1e-3)
    assert iters.max() <= 10


def test_newton_bisect_lanes_match_scalar_calls():
    c = np.array([2.0, 0.5, 27.0, 10.0, 1e-3])
    fdf = lambda x, c: (x**3 - c, 3.0 * x**2)
    # c = 27 puts its root exactly on the upper bracket end
    roots, iters = newton_bisect(fdf, np.zeros_like(c), np.full_like(c, 3.0), args=(c,))
    assert roots[2] == 3.0 and iters[2] == 0
    for ci, root, it in zip(c, roots, iters):
        want, want_it = newton_bisect(fdf, _one_lane(0.0), _one_lane(3.0), args=(_one_lane(ci),))
        assert root == want[0] and it == want_it[0]
    # a lane without a sign change holds NaN instead of raising
    roots, _ = newton_bisect(fdf, 0.0, np.array([3.0, 3.0]), args=(np.array([2.0, 30.0]),))
    assert roots[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12) and np.isnan(roots[1])


def test_newton_bisect_evaluates_only_open_lanes():
    # c = 27 closes on the bracket end and c = 30 has no sign change, so
    # neither is iterated; the others close after different step counts
    c = np.array([2.0, 0.5, 27.0, 10.0, 1e-3, 30.0, 8.0])
    points = 0

    def fdf(x, c):
        nonlocal points
        points += np.size(x)
        return x**3 - c, 3.0 * x**2

    roots, iters = newton_bisect(fdf, 0.0, np.full_like(c, 3.0), args=(c,))
    # both bracket ends once, then one (f, f') pass per open lane and step
    assert points == 2 * c.size + iters.sum()
    assert iters[2] == iters[5] == 0 and len(set(iters[iters > 0])) > 1
    assert roots[2] == 3.0 and np.isnan(roots[5])
    found = ~np.isnan(roots)
    np.testing.assert_allclose(roots[found] ** 3, c[found], rtol=1e-12)


def test_newton_bisect_budget_reports_an_open_lane():
    # lane 0 hits its root at the first midpoint and closes; lane 1 is
    # still open after three steps
    fdf = lambda x, c: (x**3 - c, 3.0 * x**2)
    with pytest.raises(ConvergenceError) as lanes:
        newton_bisect(fdf, np.zeros(2), np.full(2, 2.0), args=(np.array([1.0, 2.0]),), max_iter=3)
    with pytest.raises(ConvergenceError) as one:
        newton_bisect(fdf, _one_lane(0.0), _one_lane(2.0), args=(_one_lane(2.0),), max_iter=3)
    assert lanes.value.best_estimate == one.value.best_estimate != 1.0
    assert lanes.value.error_bound == one.value.error_bound > 0.0


def test_joint_crossings_match_nested_fallback(market, faces, monkeypatch):
    from portloss import limits
    from portloss.grids import cell_centers

    centers = cell_centers(21, 0.0, 0.6)
    # (s, v) points at which the crossing solve evaluates the senior mean
    # with its v-slope
    points = []
    senior_moments = limits.senior_moments

    def counted(k, s, v, faces, params, dv=False, ds=False):
        if dv:
            points.append(np.broadcast(s, v).size)
        return senior_moments(k, s, v, faces, params, dv, ds)

    monkeypatch.setattr(limits, "senior_moments", counted)

    def solve():
        points.clear()
        cr = limits._sub_crossings(centers, centers, faces, market, 96)
        evaluated = sum(points)
        return cr, evaluated, limit_grid_subordinated(faces, market, n_cells=21, lo=0.0, hi=0.6)

    joint, joint_points, joint_grid = solve()
    # every lane fails the joint solve and takes the nested one
    monkeypatch.setattr(
        limits, "_joint_newton",
        lambda x, y, s, v, s_a, s_b, faces, params: (
            s, v, np.full((4, *s.shape), np.nan), np.zeros(s.shape, dtype=bool)
        ),
    )
    nested, nested_points, nested_grid = solve()
    assert np.array_equal(joint.status, nested.status)
    assert np.count_nonzero(joint.status == limits._FOUND) > 10
    assert np.array_equal(joint_grid.quality, nested_grid.quality)
    assert joint_points < nested_points
    found = joint.status == limits._FOUND
    np.testing.assert_allclose(joint.s[found], nested.s[found], rtol=1e-10)
    np.testing.assert_allclose(joint_grid.values, nested_grid.values, rtol=1e-10, atol=0.0)


def test_crossing_record_matches_separate_u_solves(market, faces):
    # the record's v, Jacobians and slope come from the joint Newton pass
    # that verified each root; the same numbers by separate v solves at s0,
    # the implicit slope of each mean at its own root and the Jacobians at
    # the mean of the two roots, v within the root tolerance of 1e-12
    # max(1, |v|)
    from portloss import limits
    from portloss.grids import cell_centers

    centers = cell_centers(61, 0.0, 0.6)
    cr = limits._sub_crossings(centers, centers, faces, market, 96)
    found = cr.status == limits._FOUND
    assert np.count_nonzero(found) > 400
    fi, fj = np.nonzero(found)
    s0 = cr.s[found]
    v_s, v_j = _sub_v_roots(centers[fi], centers[fj], s0, faces, market)
    v0 = 0.5 * (v_s + v_j)
    senior, junior = limits._senior_mean(faces, market), limits._junior_mean(faces, market)

    def dv_ds(mean, v):
        _, den, num = mean(s0, v, dv=True, ds=True)
        return np.where(np.abs(den) < 1e-300, np.inf, -num / den)

    assert np.all(np.abs(cr.v[found] - v0) <= 1e-12 * np.maximum(1.0, np.abs(v0)))
    want = {
        "jac_senior": np.abs(senior(s0, v0, dv=True)[1]),
        "jac_junior": np.abs(junior(s0, v0, dv=True)[1]),
        "slope": dv_ds(senior, v_s) - dv_ds(junior, v_j),
    }
    for field, ref in want.items():
        np.testing.assert_allclose(getattr(cr, field)[found], ref, rtol=1e-12, atol=0.0,
                                   err_msg=field)


def test_z_bracket_without_scipy_stats():
    # importing the package must not pull in scipy.stats (about 0.9 s), and
    # the chi-square quantile that replaces chi2.ppf must be the same number
    import os
    import subprocess
    import sys

    import portloss
    from scipy.stats import chi2

    from portloss.limits import z_bracket

    src = os.path.dirname(os.path.dirname(portloss.__file__))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, portloss.cli; print('scipy.stats' in sys.modules, "
         "'jsonschema' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    # nor jsonschema: the scenario checker is the package's own
    assert probe.stdout.strip() == "False False"
    for n in (1, 2, 3.5, 6, 6.5, 12, 40, 100.25):
        params = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=n, t_mat=1.0, v0=100.0)
        assert z_bracket(params)[1] == chi2.ppf(1.0 - 1e-10, n)


@pytest.mark.parametrize(
    "change, field",
    [({}, None), ({"n_fluct": 3e7}, "n_fluct"),
     ({"mu": 50.0}, "mu"), ({"mu": -50.0}, "mu"), ({"v0": 3.8e-299}, "v0")],
)
def test_ridge_refusal_tells_a_saturating_market_from_a_large_n(market, faces, change, field):
    # in (s, v) the means do not depend on N, so at s = 1 they sweep the
    # same range across the v bracket at every N; a market that saturates
    # them leaves that range 0, and the refusal names its field
    params = dataclasses.replace(market, **change)
    v = np.linspace(-12.0, 12.0, 97)
    spans = [float(np.ptp(mean(1.0, v)[0])) for mean in (_senior_mean(faces, params),
                                                          _junior_mean(faces, params))]
    if field in (None, "n_fluct"):
        assert spans == pytest.approx([0.66, 1.0], abs=0.01)
    else:
        assert spans == [0.0, 0.0]
    if field is None:
        _check_ridge_support(faces, params, n_cells=61, lo=0.0, hi=0.6)
        return
    with pytest.raises(ParameterError) as err:
        _check_ridge_support(faces, params, n_cells=61, lo=0.0, hi=0.6)
    assert err.value.field == field
