"""Finite-portfolio density engine: frozen oracle values, internal
consistency, and agreement with simulation at statistical tolerance."""

import dataclasses

import numpy as np
import pytest

from portloss import (
    MarketParams,
    McConfig,
    MultiMarketParams,
    NoSubScenario,
    OverlapSpec,
    ParameterError,
    QuadratureSpec,
    SingularCovarianceError,
    SubordinatedScenario,
    SubordinationSpec,
    UndefinedCorrelationError,
    density_grid_nosub,
    density_grid_subordinated,
    density_subordinated,
    loss_correlation,
    mass_accounting,
    no_default_probability,
    nosub_cell_masses,
    subordinated_cell_masses,
    tail_probability,
)
from portloss import mc
from portloss.engine import gaussian_moment_terms


def _alphas(overlap: OverlapSpec):
    """Reference: the covariance inflation factors (a1, a12, a2) of two
    creditors sharing an overlap pattern; the pair covariance of the
    creditor losses is (single-firm loss variance / K) times
    [[a1, a12], [a12, a2]]."""
    s1, s2 = overlap.share_one, overlap.share_two
    a1 = (overlap.r1 + overlap.gamma**2 * overlap.r12) / s1**2
    a12 = overlap.gamma * (1.0 - overlap.gamma) * overlap.r12 / (s1 * s2)
    r2 = 1.0 - overlap.r1 - overlap.r12
    a2 = (r2 + (1.0 - overlap.gamma) ** 2 * overlap.r12) / s2**2
    return a1, a12, a2


def _mk(c, market):
    return MarketParams(mu=market.mu, rho=market.rho, c=c,
                        n_fluct=market.n_fluct, t_mat=market.t_mat, v0=market.v0)


# ---------------------------------------------------------------------------
# no-default probability

def test_no_default_frozen_values(market):
    assert no_default_probability(50, 75.0, market) == pytest.approx(
        0.21122016781017616, rel=1e-12)
    assert no_default_probability(1, 75.0, market) == pytest.approx(
        0.8847074179250195, rel=1e-12)


def test_no_default_single_firm_is_complement_of_default_moment(market, quad):
    # K = 1 reduces to 1 - E[m0]; the mixture and the moment must agree
    from portloss.moments import plain_moments
    from portloss.quadrature import _normal_rule, _scale_rule

    s, ws = _scale_rule(market.n_fluct, quad.z_nodes)
    v, wv = _normal_rule(quad.u_nodes)
    (m0,), _, _ = plain_moments(0, s[:, None], v[None, :], 75.0, market)
    want = 1.0 - float(ws @ m0 @ wv)
    assert no_default_probability(1, 75.0, market) == pytest.approx(want, rel=1e-12)


def test_no_default_decreases_with_size_and_face(market):
    vals = [no_default_probability(k, 75.0, market) for k in (1, 2, 5, 20, 100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert no_default_probability(10, 60.0, market) > no_default_probability(10, 75.0, market)


def test_no_default_multimarket_matches_singleton_block(market):
    mm = MultiMarketParams(blocks=((market, 30),))
    got = no_default_probability(30, 75.0, mm)
    want = no_default_probability(30, 75.0, market)
    assert got == pytest.approx(want, rel=1e-10)
    with pytest.raises(ParameterError):
        no_default_probability(10, 75.0, MultiMarketParams(blocks=((market, 30),)))


# ---------------------------------------------------------------------------
# overlap weights

def test_alphas_for_standard_layouts(halves):
    # the reference reproduces the paper's factors: disjoint equal halves
    # give (2, 0, 2)
    assert _alphas(halves) == pytest.approx((2.0, 0.0, 2.0))
    # identical portfolios: both own every obligor's face half each
    same = OverlapSpec(r1=0.0, r12=1.0, gamma=0.5, f0=75.0)
    a1, a12, a2 = _alphas(same)
    assert a1 == pytest.approx(a12) and a12 == pytest.approx(a2)


@pytest.mark.parametrize(
    "r1, r12, gamma, k",
    [(0.5, 0.0, 0.5, 100), (0.3, 0.4, 0.3, 100), (0.333, 0.2, 0.5, 7), (0.0, 1.0, 0.5, 50)],
)
def test_overlap_table_matches_alphas(market, quad, r1, r12, gamma, k):
    # the class-by-class covariance reproduces the paper's inflation factors
    from portloss.engine import _unpruned_table
    from portloss.moments import plain_moments
    from portloss.quadrature import _normal_rule, _scale_rule

    ov = OverlapSpec(r1=r1, r12=r12, gamma=gamma, f0=75.0)
    cov = _unpruned_table(NoSubScenario(k_obligors=k, params=market, overlap=ov), quad)[2]
    s, _ = _scale_rule(market.n_fluct, quad.z_nodes)
    v, _ = _normal_rule(quad.u_nodes)
    ss, vv = np.repeat(s, len(v)), np.tile(v, len(s))
    _, m1, m2 = plain_moments(2, ss, vv, 75.0, market)[0]
    var = np.maximum(m2 - m1 * m1, 0.0)
    a1, a12, a2 = _alphas(ov)
    want = np.array([[a1, a12], [a12, a2]])[:, :, None] * var / k
    np.testing.assert_allclose(cov, want, rtol=1e-14, atol=0.0)


def test_single_market_is_a_one_block_market(market, quad, assert_same_run):
    from portloss.engine import _node_table

    single = NoSubScenario(k_obligors=40, params=market, face=75.0)
    one_block = MultiMarketParams(blocks=((market, 40),))
    twin = NoSubScenario(k_obligors=40, params=one_block, face=75.0, creditors=1)
    for a, b in zip(_node_table(single, quad), _node_table(twin, quad)):
        np.testing.assert_array_equal(a, b)
    assert no_default_probability(40, 75.0, market, quad) == no_default_probability(
        40, 75.0, one_block, quad)
    assert tail_probability(0.3, single, quad) == tail_probability(0.3, twin, quad)
    np.testing.assert_array_equal(
        density_grid_nosub(single, quad, n_cells=21).values,
        density_grid_nosub(twin, quad, n_cells=21).values,
    )
    for antithetic in (False, True):
        cfg = McConfig(n_samples=20_000, chunk_size=2048, rng_seed=7, antithetic=antithetic)
        assert_same_run(mc.estimate(single, cfg), mc.estimate(twin, cfg), f"antithetic={antithetic}")


def test_identical_portfolios_have_no_bivariate_density(market):
    same = OverlapSpec(r1=0.0, r12=1.0, gamma=0.5, f0=75.0)
    sc = NoSubScenario(k_obligors=50, params=market, overlap=same)
    with pytest.raises(SingularCovarianceError):
        density_grid_nosub(sc, n_cells=4)
    # the correlation is still defined, and is exactly 1
    assert loss_correlation(sc, method="analytic") == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("r1, r12, gamma", [(0.0, 0.0, 0.5), (1.0, 0.0, 0.5), (0.3, 0.7, 1.0)])
def test_overlap_creditor_needs_a_positive_share(market, r1, r12, gamma):
    # a creditor that holds nothing has a loss of identically 0
    empty = OverlapSpec(r1=r1, r12=r12, gamma=gamma, f0=75.0)
    with pytest.raises(ParameterError):
        NoSubScenario(k_obligors=50, params=market, overlap=empty)


# ---------------------------------------------------------------------------
# loss correlation

def test_correlation_frozen_values(market, market_c0, halves):
    cases = [
        (market_c0, 100, 0.7162315461874394),
        (market, 100, 0.9207348155333518),
        (market_c0, 10, 0.20153304951371245),
        (market, 10, 0.5373771355415867),
    ]
    for par, k, want in cases:
        sc = NoSubScenario(k_obligors=k, params=par, overlap=halves)
        assert loss_correlation(sc, method="analytic") == pytest.approx(want, rel=1e-10)


def test_correlation_increases_with_c_and_k(market, halves):
    cs = [0.0, 0.2, 0.4, 0.6, 0.8]
    vals = [
        loss_correlation(
            NoSubScenario(k_obligors=100, params=_mk(c, market), overlap=halves),
            method="analytic",
        )
        for c in cs
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    small = loss_correlation(
        NoSubScenario(k_obligors=10, params=market, overlap=halves), method="analytic")
    big = loss_correlation(
        NoSubScenario(k_obligors=100, params=market, overlap=halves), method="analytic")
    assert big > small


def test_correlation_mc_agrees_with_analytic(market, halves):
    sc = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    run = mc.estimate(sc, McConfig(n_samples=200_000, rng_seed=3))
    want = loss_correlation(sc, method="analytic")
    assert abs(run.corr - want) < 4.0 * run.corr_se


def test_correlation_undefined_for_riskless_faces(market):
    # face so small nobody can default at working precision
    ov = OverlapSpec(r1=0.5, r12=0.0, gamma=0.5, f0=1e-60)
    sc = NoSubScenario(k_obligors=10, params=market, overlap=ov)
    with pytest.raises(UndefinedCorrelationError):
        loss_correlation(sc, method="analytic")
    with pytest.raises(ParameterError):
        loss_correlation(sc, method="bootstrap")


def test_correlation_subordinated_positive(market, faces):
    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    r = loss_correlation(sc, method="analytic")
    assert 0.0 < r < 1.0


# ---------------------------------------------------------------------------
# subordinated density

def test_subordinated_masses_normalize(market, faces, quad):
    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    edges = np.array([-np.inf, 0.02, 0.1, 0.5, np.inf])
    m = subordinated_cell_masses(sc, edges, edges, quad)
    assert m.shape == (4, 4)
    assert np.all(m >= -1e-12)
    assert m.sum() == pytest.approx(1.0, abs=1e-9)


def test_subordinated_density_matches_cell_mass(market, faces, quad):
    # integrate the pointwise density over one smooth cell by midpoint
    # refinement and compare with the closed-form cell mass
    # cell in the bulk, wide relative to the conditional slice width, so
    # the midpoint rule resolves the integrand
    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    lo_s, hi_s, lo_j, hi_j = 0.004, 0.008, 0.09, 0.11
    mass = subordinated_cell_masses(
        sc, np.array([lo_s, hi_s]), np.array([lo_j, hi_j]), quad)[0, 0]
    n = 24
    xs = lo_s + (np.arange(n) + 0.5) * (hi_s - lo_s) / n
    ys = lo_j + (np.arange(n) + 0.5) * (hi_j - lo_j) / n
    vals = [density_subordinated(x, y, sc, quad) for x in xs for y in ys]
    approx = np.mean(vals) * (hi_s - lo_s) * (hi_j - lo_j)
    assert approx == pytest.approx(mass, rel=1e-2)


@pytest.mark.parametrize(
    "quad", [QuadratureSpec(), QuadratureSpec(mode="adaptive")], ids=["fixed", "adaptive"]
)
def test_subordinated_grid_matches_points(market, faces, quad):
    # in adaptive mode cells (0, 5) and (1, 8) cross on the ridge and get
    # localized tables; the other four take the dense fallback
    sc = SubordinatedScenario(k_obligors=100, tranches=faces, params=market)
    grid = density_grid_subordinated(sc, n_cells=10, lo=0.0, hi=0.5, quad=quad)
    xs, ys = grid.axes
    for i in (0, 1, 2, 5):
        for j in (3, 5, 7, 8):
            want = density_subordinated(float(xs[i]), float(ys[j]), sc, quad)
            assert grid.values[i, j] == pytest.approx(want, rel=1e-12)


def test_conditional_junior_dominates_senior(market, faces):
    # the junior tranche absorbs losses first, so its conditional mean
    # loss fraction is at least the senior one everywhere
    for z in (0.5, 1.0, 4.0, 10.0):
        for u in (-0.5, 0.0, 0.8):
            means, _ = gaussian_moment_terms(z, u, SubordinatedScenario(
                k_obligors=100, tranches=faces, params=market))
            assert float(means[1]) >= float(means[0]) - 1e-15


def test_adaptive_and_fixed_density_agree(market, faces):
    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    # bulk point: the default fixed rule is converged there
    fixed = density_subordinated(0.005, 0.1, sc, QuadratureSpec())
    adaptive = density_subordinated(
        0.005, 0.1, sc, QuadratureSpec(mode="adaptive", rel_tol=1e-6))
    assert adaptive == pytest.approx(fixed, rel=1e-3)
    # tail point: judge adaptive against a refined fixed rule instead
    fine = density_subordinated(0.02, 0.1, sc, QuadratureSpec(z_nodes=160, u_nodes=160))
    adaptive_tail = density_subordinated(
        0.02, 0.1, sc, QuadratureSpec(mode="adaptive", rel_tol=1e-7))
    assert adaptive_tail == pytest.approx(fine, rel=2e-3)


@pytest.mark.parametrize("k, point, want", [
    # the acceptance-07 ridge points
    (2000, (0.0062, 0.3), 9.100816162673265),
    (2000, (0.0155, 0.4), 1.5491668094616429),
    (2000, (0.0313, 0.5), 0.30273919908886315),
    (2000, (0.0566, 0.6), 0.05931387504355434),
    # a crossing, and two points without one (dense fallback)
    (200, (0.005, 0.1), 5.732671994328228),
    (200, (0.0, 0.05), 17999.833834610385),
    (200, (0.3, 0.2), 2.202143798943894e-106),
])
def test_adaptive_density_frozen_values(market, faces, k, point, want):
    # reference values of the earlier per-point integrator
    sc = SubordinatedScenario(k_obligors=k, tranches=faces, params=market)
    got = density_subordinated(*point, sc, QuadratureSpec(mode="adaptive"))
    assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# untranched density

def test_nosub_masses_normalize_1d_and_2d(market, halves, quad):
    one = NoSubScenario(k_obligors=50, params=market, face=75.0)
    e = np.array([-np.inf, 0.05, 0.2, np.inf])
    assert nosub_cell_masses(one, e, quad=quad).sum() == pytest.approx(1.0, abs=1e-9)
    two = NoSubScenario(k_obligors=50, params=market, overlap=halves)
    assert nosub_cell_masses(two, e, e, quad=quad).sum() == pytest.approx(1.0, abs=1e-9)


def test_mass_accounting_close_for_large_pools(market, halves):
    sc = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    run = mc.estimate(sc, McConfig(n_samples=100_000, rng_seed=7, n_bins=50))
    audit = mass_accounting(sc, n_cells=50,
                            mc_origin_excess_mass=run.origin_excess_mass(50))
    assert audit["abs_error"] < 0.02
    sub = SubordinatedScenario(
        k_obligors=200, tranches=SubordinationSpec(37.0, 38.0), params=market)
    run2 = mc.estimate(sub, McConfig(n_samples=100_000, rng_seed=7, n_bins=50))
    audit2 = mass_accounting(sub, n_cells=50,
                             mc_origin_excess_mass=run2.origin_excess_mass(50))
    assert audit2["abs_error"] < 0.02


def test_nosub_grid_matches_points(market, halves, quad):
    from portloss.engine import _node_table

    sc = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    grid = density_grid_nosub(sc, n_cells=8, lo=0.0, hi=0.4, quad=quad)
    xs, ys = grid.axes
    want = _per_point_density((xs[3], ys[5]), *_node_table(sc, quad))
    assert grid.values[3, 5] == pytest.approx(want, rel=1e-9)


def test_nosub_single_creditor_grid_is_univariate(market, quad):
    from portloss.engine import _node_table

    sc = NoSubScenario(k_obligors=50, params=market, face=75.0)
    grid = density_grid_nosub(sc, n_cells=30, lo=0.0, hi=0.6, quad=quad)
    assert grid.values.shape == (30,)
    mid = _per_point_density((grid.axes[0][10],), *_node_table(sc, quad))
    assert grid.values[10] == pytest.approx(mid, rel=1e-9)


def test_single_creditor_grid_integrates_to_window_mass(market, quad):
    # smooth window away from the origin smear: the midpoint integral of a
    # single creditor's density equals the exact mixture mass of that window
    sc = NoSubScenario(k_obligors=200, params=market, face=75.0)
    grid = density_grid_nosub(sc, quad, n_cells=900, lo=0.05, hi=0.5)
    total = float(grid.values.sum()) * (0.5 - 0.05) / 900
    want = nosub_cell_masses(sc, np.array([0.05, 0.5]), quad=quad)[0]
    assert total == pytest.approx(float(want), rel=1e-4)


def test_tail_probability_against_mc(market):
    sc = NoSubScenario(k_obligors=50, params=market, face=75.0)
    p = tail_probability(0.1, sc)
    run = mc.estimate(sc, McConfig(n_samples=200_000, rng_seed=11, keep_samples=True))
    est = np.mean(run.samples[:, 0] > 0.1)
    se = np.sqrt(est * (1.0 - est) / run.n)
    # statistical band plus a small allowance for the smoothed tail edge
    assert abs(est - p) < 3.0 * se + 2e-3


def test_multimarket_total_density_normalizes(market, quad):
    # the total loss of two blocks: its cell masses over the whole line sum
    # to 1, and the midpoint integral of its density grid over a window
    # away from the origin smear is the exact mixture mass of that window
    mm = MultiMarketParams(blocks=((market, 20), (market, 20)))
    sc = NoSubScenario(k_obligors=40, params=mm, face=75.0, creditors=1)
    full = nosub_cell_masses(sc, np.array([-np.inf, np.inf]), quad=quad)
    assert float(full[0]) == pytest.approx(1.0, abs=1e-9)
    grid = density_grid_nosub(sc, quad, n_cells=400, lo=0.02, hi=0.98)
    total = float(grid.values.sum()) * (0.98 - 0.02) / 400
    want = nosub_cell_masses(sc, np.array([0.02, 0.98]), quad=quad)[0]
    assert total == pytest.approx(float(want), rel=1e-3)
    # one creditor per block of three has no grid
    trio = MultiMarketParams(blocks=((market, 10), (market, 10), (market, 10)))
    with pytest.raises(ParameterError):
        density_grid_nosub(NoSubScenario(k_obligors=30, params=trio, face=75.0, creditors=3))


# ---------------------------------------------------------------------------
# mixture kernel

def _per_point_density(point, w, means, cov):
    """Reference: one np.dot over the packed node table per point."""
    if len(point) == 2:
        dx, dy = point[0] - means[0], point[1] - means[1]
        vx, vy, cxy = cov[0, 0], cov[1, 1], cov[0, 1]
        slope = np.where(vx > 1e-300, cxy / np.where(vx > 0, vx, 1.0), 0.0)
        vc = vy - slope * cxy
        valid = (vx > 1e-300) & (vc > 1e-300)
        vx, vc = np.where(valid, vx, 1.0), np.where(valid, vc, 1.0)
        res = dy - slope * dx
        logp = (-np.log(2.0 * np.pi) - 0.5 * (np.log(vx) + np.log(vc))
                - 0.5 * (dx * dx / vx + res * res / vc))
        logp = np.minimum(logp, 700.0)
    else:
        logp, valid = 0.0, True
        for b, x in enumerate(point):
            v = cov[b, b]
            ok = v > 1e-300
            v = np.where(ok, v, 1.0)
            term = -0.5 * np.log(2.0 * np.pi * v) - 0.5 * (x - means[b]) ** 2 / v
            logp, valid = logp + np.minimum(term, 700.0), valid & ok
    with np.errstate(under="ignore"):
        return float(np.dot(w, np.where(valid, np.exp(logp), 0.0)))


def test_mixture_kernel_matches_per_point_reference(market, faces, halves, quad):
    from portloss.engine import _node_table

    def check(got, points, table):
        want = np.array([_per_point_density(p, *table) for p in points])
        # a subnormal density (the grid holds a few near 1e-313) is rounded
        # to its spacing of 5e-324, which no relative tolerance allows for
        np.testing.assert_allclose(
            np.ravel(got), want, rtol=1e-12, atol=np.finfo(float).smallest_subnormal
        )

    # 40 x 40 cells on 4096 nodes span two kernel chunks
    sub = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    grid = density_grid_subordinated(sub, quad, n_cells=40, lo=0.0, hi=0.6)
    xs, ys = grid.axes
    check(grid.values, [(x, y) for x in xs for y in ys], _node_table(sub, quad))

    pair = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    grid = density_grid_nosub(pair, quad, n_cells=40, lo=0.0, hi=0.6)
    xs, ys = grid.axes
    check(grid.values, [(x, y) for x in xs for y in ys], _node_table(pair, quad))

    one = NoSubScenario(k_obligors=50, params=market, face=75.0)
    grid = density_grid_nosub(one, quad, n_cells=60, lo=0.0, hi=0.6)
    check(grid.values, [(x,) for x in grid.axes[0]], _node_table(one, quad))



def test_floored_exp_is_exp_above_the_floor_and_zero_below():
    from portloss.engine import _EXP_FLOOR, _floored_exp

    e = np.concatenate([
        np.linspace(-800.0, 700.0, 20001),
        np.nextafter(_EXP_FLOOR, [-np.inf, np.inf]),
        [_EXP_FLOOR, -np.inf, np.inf, 0.0],
    ])
    above = e > _EXP_FLOOR
    got = _floored_exp(e.copy())
    np.testing.assert_array_equal(got[above], np.exp(e[above]))
    assert np.all(got[~above] == 0.0)
    # nothing it returns is subnormal
    assert not np.any((got != 0.0) & (np.abs(got) < np.finfo(float).tiny))
    assert np.isnan(_floored_exp(np.array([np.nan, -1.0])))[0]


def _flat_tensor_table(scenario, quad):
    """Reference: the single-firm moments on every flat tensor node (s,
    v_1, ..., v_beta) of a plain scenario, as (means, cov)."""
    from portloss.engine import _class_weights
    from portloss.moments import plain_moments
    from portloss.quadrature import _normal_rule, _scale_rule

    markets, classes, _ = scenario.holdings
    s, _ = _scale_rule(markets.n_fluct, quad.z_nodes)
    v1, _ = _normal_rule(quad.u_nodes)
    grids = np.meshgrid(*([v1] * markets.beta), indexing="ij")
    v = np.stack([np.tile(g.ravel(), len(s)) for g in grids])
    s = np.repeat(s, len(v1) ** markets.beta)
    m1, m2 = (np.stack([plain_moments(2, s, v[b], face, markets.blocks[b][0])[0][j]
                        for b, face, _ in classes]) for j in (1, 2))
    var = np.maximum(m2 - m1 * m1, 0.0)
    wts, counts = _class_weights(scenario)
    return wts @ m1, np.einsum("bl,cl,ln->bcn", wts, wts, var / counts[:, None])


@pytest.mark.parametrize("creditors", ["total", "per-market"])
@pytest.mark.parametrize("beta", [2, 3])
def test_multimarket_table_matches_the_flat_tensor(market, beta, creditors):
    from portloss.engine import _unpruned_table

    # unequal blocks, so that a block read on the wrong tensor axis shows
    blocks = tuple((dataclasses.replace(market, c=0.1 + 0.2 * b, v0=100.0 + 10 * b), 10 + 5 * b)
                   for b in range(beta))
    mm = MultiMarketParams(blocks=blocks)
    sc = NoSubScenario(k_obligors=mm.k_total, params=mm, face=75.0,
                       creditors=1 if creditors == "total" else beta)
    quad = QuadratureSpec(z_nodes=12, u_nodes=9)
    w, means, cov = _unpruned_table(sc, quad)
    want_means, want_cov = _flat_tensor_table(sc, quad)
    assert len(w) == 12 * 9**beta
    np.testing.assert_array_equal(means, want_means)
    np.testing.assert_array_equal(cov, want_cov)


def test_1d_kernel_drops_degenerate_slices_with_nan_means(market, quad):
    from portloss.engine import _mixture_density, _node_table

    multi = NoSubScenario(k_obligors=40, face=75.0, creditors=1,
                          params=MultiMarketParams(((market, 20), (market, 20))))
    w, means, cov = _node_table(multi, QuadratureSpec(u_nodes=24))
    means, cov = means.copy(), cov.copy()
    # lanes without a root, as the finite-vs-infinite limit passes them:
    # NaN means with a zero or a NaN variance
    means[0, ::7] = np.nan
    cov[0, 0, ::14] = 0.0
    cov[0, 0, 7::14] = np.nan
    xs = np.linspace(0.0, 0.6, 121)
    got = _mixture_density((xs,), w, means, cov)
    want = np.array([_per_point_density((x,), w, means, cov) for x in xs])
    assert not np.any(np.isnan(got)) and np.all(want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("layout", ["tranched", "disjoint"])
def test_pair_kernels_share_one_degenerate_slice_policy(market, faces, halves, quad, layout):
    from portloss.engine import _PRUNE_MASS, _cell_masses, _mixture_density, _node_table

    if layout == "tranched":
        sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    else:
        sc = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    w, means, cov = _node_table(sc, quad)
    means, cov = means.copy(), cov.copy()
    degenerate = ~(cov[0, 0] > 1e-300) | ~(cov[1, 1] > 1e-300)
    wide = np.flatnonzero(~degenerate)
    # conditional variance exactly 0: var_y = slope cov_xy, a coupled slice
    # where the slice is correlated, and var_y = cov_xy = 0, a separable one
    cond, flat = wide[1::11], wide[2::13]
    cov[1, 1, cond] = cov[0, 1, cond] / cov[0, 0, cond] * cov[0, 1, cond]
    cov[1, 1, flat] = cov[0, 1, flat] = cov[1, 0, flat] = 0.0
    # point masses in x: var_x of 0 or just below the floor, with the cross
    # term left as it is
    point, below = wide[::5], wide[3::7]
    cov[0, 0, point] = 0.0
    cov[0, 0, below] = 1e-301
    for idx in (cond, flat, point, below):
        degenerate[idx] = True
    edges = np.linspace(0.0, 1.0, 21)
    edges[0], edges[-1] = -np.inf, np.inf
    # a degenerate slice is a step in the cell masses, which keep its mass
    assert abs(_cell_masses((w, means, cov), edges, edges).sum() - 1.0) <= _PRUNE_MASS
    # and the density drops it, whatever its means
    means[:, point[::2]] = np.nan
    means[0, cond[::2]] = np.nan
    kept = ~degenerate
    xs, ys = np.linspace(0.0, 0.6, 19), np.linspace(0.01, 0.5, 17)
    got = _mixture_density((xs, ys), w, means, cov)
    want = np.array([[_per_point_density((x, y), w[kept], means[:, kept], cov[:, :, kept])
                      for y in ys] for x in xs])
    assert not np.any(np.isnan(got)) and want.max() > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# node pruning

def test_pruned_table_drops_at_most_prune_mass(market, faces, quad):
    import math

    from portloss.engine import _PRUNE_MASS, _node_table, _unpruned_table

    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    full = np.sort(_unpruned_table(sc, quad)[0])
    kept = _node_table(sc, quad)[0]
    dropped = len(full) - len(kept)
    assert dropped > len(full) / 2
    # the dropped nodes are the lightest ones
    np.testing.assert_array_equal(np.sort(kept), full[dropped:])
    assert 0.0 < math.fsum(full[:dropped]) <= _PRUNE_MASS


def test_pruned_cell_masses_normalize(market, faces, quad):
    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    edges = np.linspace(0.0, 1.0, 51)
    edges[0], edges[-1] = -np.inf, np.inf
    total = subordinated_cell_masses(sc, edges, edges, quad).sum()
    assert abs(total - 1.0) <= 5e-14


def test_pruned_grid_matches_unpruned(market, faces, quad):
    from portloss.engine import _mixture_density, _unpruned_table

    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    grid = density_grid_subordinated(sc, quad, n_cells=81, lo=0.0, hi=0.8)
    want = _mixture_density(grid.axes, *_unpruned_table(sc, quad))
    peak = want.max()
    big = want > 1e-6 * peak
    np.testing.assert_allclose(grid.values[big], want[big], rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(grid.values[~big], want[~big], rtol=0.0, atol=1e-9 * peak)


def test_pair_kernel_chunking_and_unequal_axes(market, faces, quad, monkeypatch):
    from portloss import engine

    sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    table = engine._node_table(sc, quad)
    xs, ys = np.linspace(0.0, 0.05, 7), np.linspace(0.02, 0.4, 23)
    whole = engine._mixture_density((xs, ys), *table)
    assert whole.shape == (7, 23)
    # a budget of a few node rows splits both the x rows and the y columns
    monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 3.0 * len(table[0]))
    np.testing.assert_allclose(engine._mixture_density((xs, ys), *table), whole,
                               rtol=1e-13, atol=0.0)
    point = engine._mixture_density((xs[3:4], ys[5:6]), *table)
    assert point[0, 0] == pytest.approx(whole[3, 5], rel=1e-13)


# ---------------------------------------------------------------------------
# cell masses only where a slice reaches the cell, and block-sized kernels

def _dense_cell_masses(w, mean_x, var_x, mean_y, var_y, cov, edges_x, edges_y):
    """Reference: every (slice, x cell) pair through the in-cell nodes and
    the conditional y CDFs, whatever its mass."""
    from scipy.special import ndtri

    from portloss.engine import _GL_POINTS, _VAR_FLOOR, norm_cdf_safe

    tq, twq = np.polynomial.legendre.leggauss(_GL_POINTS)
    tq, twq = 0.5 * (tq + 1.0), 0.5 * twq
    mx, vx, my, vy, cv = (np.asarray(a)[:, None, None] for a in (mean_x, var_x, mean_y, var_y, cov))
    sx = np.sqrt(vx)
    t_edges = norm_cdf_safe(edges_x[None, :, None], mx, sx)
    t_lo = t_edges[:, :-1, :]
    p_cell = t_edges[:, 1:, :] - t_lo
    x_nodes = mx + sx * ndtri(np.clip(t_lo + p_cell * tq, 1e-300, 1.0 - 1e-16))
    degen = vx <= _VAR_FLOOR
    slope = np.where(degen, 0.0, cv / np.where(degen, 1.0, vx))
    sc = np.sqrt(np.maximum(vy - slope * cv, 0.0))
    mu_c = my + slope * (x_nodes - mx)
    y_mass = np.diff(norm_cdf_safe(edges_y, mu_c[..., None], sc[..., None]), axis=-1)
    return np.einsum("cxq,q,cxqy->xy", p_cell * np.asarray(w)[:, None, None], twq, y_mass)


def _awkward_table(rng, n=400):
    """Slices from 1e-7 to 0.5 wide, with point masses in x, zero
    conditional variance, perfect correlation, and means on cell edges."""
    w = rng.dirichlet(np.ones(n))
    mean_x, mean_y = rng.uniform(-0.2, 1.2, (2, n))
    sd_x, sd_y = 10.0 ** rng.uniform(-7, np.log10(0.5), (2, n))
    rho = rng.uniform(-1.0, 1.0, n)
    rho[:20] = 1.0
    rho[20:40] = -1.0
    sd_x[40:60] = 0.0
    sd_y[60:80] = 0.0
    mean_x[80:90] = mean_y[80:90] = 0.25
    return w, mean_x, sd_x**2, mean_y, sd_y**2, rho * sd_x * sd_y


@pytest.mark.parametrize("outer", [np.inf, 1.0])
@pytest.mark.parametrize("shape", [(20, 20), (50, 13)])
def test_cell_masses_match_the_dense_reference(outer, shape):
    from portloss.engine import _cell_masses, norm_cdf_safe

    table = _awkward_table(np.random.default_rng(7))
    edges_x, edges_y = (np.linspace(0.0, 1.0, n + 1) for n in shape)
    for e in (edges_x, edges_y):
        e[0], e[-1] = -outer, outer
    w, mean_x, var_x, mean_y, var_y, cov = table
    x_mass = w[:, None] * np.diff(norm_cdf_safe(edges_x, mean_x[:, None], np.sqrt(var_x)[:, None]))
    assert np.mean(x_mass == 0.0) > 0.5  # most pairs are skipped
    packed = (w, np.stack([mean_x, mean_y]), np.array([[var_x, cov], [cov, var_y]]))
    got = _cell_masses(packed, edges_x, edges_y)
    want = _dense_cell_masses(*table, edges_x, edges_y)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    assert abs(got.sum() - want.sum()) <= 1e-14
    if outer == np.inf:
        assert abs(got.sum() - 1.0) <= 1e-14


def test_cell_masses_match_the_dense_reference_on_node_tables(market, faces, halves, quad):
    from portloss.engine import _cell_masses, _node_table

    edges = np.linspace(0.0, 1.0, 51)
    edges[-1] = np.inf
    for sc in (SubordinatedScenario(k_obligors=200, tranches=faces, params=market),
               NoSubScenario(k_obligors=100, params=market, overlap=halves)):
        w, means, cov = _node_table(sc, quad)
        table = (w, means[0], cov[0, 0], means[1], cov[1, 1], cov[0, 1])
        got = _cell_masses((w, means, cov), edges, edges)
        np.testing.assert_allclose(got, _dense_cell_masses(*table, edges, edges),
                                   rtol=0.0, atol=1e-14)


def _traced_peak(fn):
    """Peak bytes that ``fn()`` holds at once, numpy buffers included."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_BLOCK_BYTES = 8 * 2**18  # a cache-sized kernel block of float64 values


@pytest.mark.parametrize("kernel", ["1-D multimarket", "2-D pair", "cell masses 50x50",
                                    "separable pair", "separable cell masses"])
def test_kernels_hold_a_few_blocks_at_a_time(market, faces, halves, kernel):
    from portloss.engine import _cell_masses, _mixture_density, _node_table

    if kernel == "1-D multimarket":
        # the bundled two-market total loss: about 10^4 nodes at 201 cells
        multi = NoSubScenario(k_obligors=40, face=75.0, creditors=1,
                              params=MultiMarketParams(((market, 20), (market, 20))))
        table = _node_table(multi, QuadratureSpec(u_nodes=24))
        assert len(table[0]) > 10_000
        axes = (np.linspace(0.0, 1.0, 201),)
    else:
        if kernel.startswith("separable"):
            sc = NoSubScenario(k_obligors=100, params=market, overlap=halves)
        else:
            sc = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
        table = _node_table(sc, QuadratureSpec())
        xs = np.linspace(0.0, 0.8, 2001)
        axes = (xs, xs[::400])
    edges = np.linspace(0.0, 1.0, 51)
    edges[0], edges[-1] = -np.inf, np.inf
    if "cell masses" in kernel:
        call = lambda: _cell_masses(table, edges, edges)  # noqa: E731
    else:
        call = lambda: _mixture_density(axes, *table)  # noqa: E731
    call()  # caches warm
    assert _traced_peak(call) <= 6 * _BLOCK_BYTES


# ---------------------------------------------------------------------------
# separable slices: disjoint creditors as one matrix product

def _coupled_twin(cov, zero):
    """``cov`` with the zero cross-covariances at ``zero`` set to 1e-300: the
    slices stay numerically the same, but their slope is no longer 0."""
    twin = cov.copy()
    twin[0, 1, zero] = twin[1, 0, zero] = 1e-300
    return twin


@pytest.mark.parametrize("mixed", [False, True])
def test_separable_and_coupled_paths_give_one_law(market, halves, quad, mixed):
    from portloss.engine import _cell_masses, _mixture_density, _node_table

    w, means, cov = _node_table(NoSubScenario(k_obligors=100, params=market, overlap=halves), quad)
    assert np.all(cov[0, 1] == 0.0)
    if mixed:  # every other node correlated, rho = 0.5
        cov = cov.copy()
        cov[0, 1, ::2] = cov[1, 0, ::2] = 0.5 * np.sqrt(cov[0, 0, ::2] * cov[1, 1, ::2])
    twin = _coupled_twin(cov, cov[0, 1] == 0.0)
    xs, ys = np.linspace(0.0, 0.6, 41), np.linspace(0.01, 0.5, 37)
    edges = np.linspace(0.0, 1.0, 21)
    edges[0], edges[-1] = -np.inf, np.inf
    for call in (lambda c: _mixture_density((xs, ys), w, means, c),
                 lambda c: _cell_masses((w, means, c), edges, edges)):
        got, want = call(cov), call(twin)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_zero_weights_add_exactly_nothing_without_warnings(market, faces, halves, quad):
    import warnings

    from portloss.engine import _mixture_density, _node_table

    xs, ys = np.linspace(0.0, 0.6, 31), np.linspace(0.01, 0.5, 29)
    for sc in (SubordinatedScenario(k_obligors=200, tranches=faces, params=market),
               NoSubScenario(k_obligors=100, params=market, overlap=halves)):
        w, means, cov = _node_table(sc, quad)
        w = w.copy()
        w[::3] = 0.0
        kept = w > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _mixture_density((xs, ys), w, means, cov)
        want = _mixture_density((xs, ys), w[kept], means[:, kept], cov[:, :, kept])
        assert want.max() > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_disjoint_grids_never_take_the_coupled_loops(market, faces, halves, quad, monkeypatch):
    from portloss import engine

    def refuse(*args, **kwargs):
        raise AssertionError("a disjoint table reached a coupled loop")

    monkeypatch.setattr(engine, "_coupled_pair_density", refuse)
    monkeypatch.setattr(engine, "_coupled_cell_masses", refuse)
    pair = NoSubScenario(k_obligors=100, params=market, overlap=halves)
    edges = np.linspace(0.0, 1.0, 21)
    edges[0], edges[-1] = -np.inf, np.inf
    assert density_grid_nosub(pair, quad, n_cells=20).values.max() > 0.0
    assert abs(nosub_cell_masses(pair, edges, edges, quad).sum() - 1.0) <= 1e-13
    # the patch is live: a tranched table is coupled
    sub = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    with pytest.raises(AssertionError, match="coupled loop"):
        density_grid_subordinated(sub, quad, n_cells=4)
