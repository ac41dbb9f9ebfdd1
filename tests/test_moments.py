"""Closed-form conditional moment kernels against quadrature and known values.

The frozen numbers were produced once by an independent adaptive-quadrature
oracle over the idiosyncratic Gaussian and are pinned here to guard against
regressions in the kernel algebra.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from portloss import MarketParams, ParameterError, QuadratureSpec, SubordinationSpec
from portloss import moments
from portloss.moments import (
    _natural,
    _pass,
    junior_band_moments,
    junior_mean_target,
    junior_mean_target_du,
    moment_senior,
    norm_pdf,
    plain_moments,
    senior_moments,
    tau,
)

# one representative (z, u) point, all four payoff/boundary pairs, j = 0, 1, 2
FROZEN_TAU = {
    ("senior", "senior"): (2.8315931416058646e-18, 3.822256062061803e-20, 1.0065585829225453e-21),
    ("junior", "senior"): (2.8315931416058646e-18, 2.8688098453680445e-18, 2.9069808280083547e-18),
    ("senior", "junior"): (0.0024658683596153062, -0.0023584113577306575, 0.002265735378367665),
    ("junior", "junior"): (0.0024658683596153062, 0.00016952045866703343, 2.1227774467606764e-05),
}


def tau_by_quadrature(j, iota, lam, z, u, faces, par):
    """Defining integral of the moment kernel, evaluated independently.

    The firm value conditional on (z, u) is
    V(s) = v0 exp(nu T - sqrt(z) (B u + s/A)) with s standard normal,
    A = sqrt(N / ((1-c) T rho^2)) and B = rho sqrt(c T); the kernel is the
    expectation of the j-th power of the linear payoff over the region
    where V falls below the boundary face.
    """
    c_pay, f_div = (1.0, faces.f_senior) if iota == "senior" else (
        faces.f_total / faces.f_junior, faces.f_junior)
    f_bound = faces.f_senior if lam == "senior" else faces.f_total
    g = (1.0 - par.c) * par.t_mat * par.rho**2
    a = math.sqrt(par.n_fluct / g)
    b = math.sqrt(par.c * par.t_mat) * par.rho
    nu_t = par.drift_adj * par.t_mat
    sq = math.sqrt(z)
    s_lo = -a * ((math.log(f_bound / par.v0) - nu_t) / sq + b * u)

    def integrand(s):
        v = par.v0 * math.exp(nu_t - sq * (b * u + s / a))
        return norm.pdf(s) * (c_pay - v / f_div) ** j

    val, _ = integrate.quad(integrand, s_lo, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def test_norm_pdf_matches_scipy():
    xs = np.array([-8.0, -2.0, -0.5, 0.0, 1.0, 3.0, 8.0])
    np.testing.assert_allclose(norm_pdf(xs), norm.pdf(xs), rtol=1e-13)


@pytest.mark.parametrize("iota", ["senior", "junior"])
@pytest.mark.parametrize("lam", ["senior", "junior"])
def test_tau_frozen_point(iota, lam, faces, market):
    for j, want in enumerate(FROZEN_TAU[(iota, lam)]):
        assert tau(j, iota, lam, 1.0, 0.3, faces, market) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("iota", ["senior", "junior"])
@pytest.mark.parametrize("lam", ["senior", "junior"])
@pytest.mark.parametrize("zu", [(1.0, 0.3), (0.6, -0.2), (3.5, 0.1)])
def test_tau_matches_quadrature(iota, lam, zu, faces, market):
    z, u = zu
    for j in (0, 1, 2):
        want = tau_by_quadrature(j, iota, lam, z, u, faces, market)
        got = float(tau(j, iota, lam, z, u, faces, market))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-25)


def test_tau_rejects_bad_arguments(faces, market):
    with pytest.raises(ParameterError):
        tau(3, "senior", "senior", 1.0, 0.0, faces, market)
    with pytest.raises(ParameterError):
        tau(0, "mezzanine", "senior", 1.0, 0.0, faces, market)
    with pytest.raises(ParameterError):
        tau(0, "senior", "none", 1.0, 0.0, faces, market)
    with pytest.raises(ParameterError):
        tau(0, "senior", "senior", -1.0, 0.0, faces, market)
    with pytest.raises(ParameterError):
        plain_moments(3, 1.0, 0.0, 75.0, market, dv=True)
    with pytest.raises(ParameterError):
        plain_moments(1, 1.0, 0.0, 0.0, market)


@given(
    z=st.floats(0.05, 30.0),
    u=st.floats(-1.5, 1.5),
    f_senior=st.floats(10.0, 60.0),
    f_junior=st.floats(5.0, 40.0),
)
def test_moment_families_are_ordered(z, u, f_senior, f_junior, market):
    # payoffs are loss fractions in [0, 1], so moments decrease in j
    fc = SubordinationSpec(f_senior, f_junior)
    s, v = _natural(z, u, market)
    for family in (
        senior_moments(2, s, v, fc, market),
        junior_band_moments(2, s, v, fc, market),
        plain_moments(2, s, v, fc.f_total, market),
    ):
        m0, m1, m2 = (float(m) for m in family[0])
        assert -1e-12 <= m2 <= m1 + 1e-12
        assert m1 <= m0 + 1e-12
        assert m0 <= 1.0 + 1e-12


def test_moment_senior_zero_face(market):
    fc = SubordinationSpec(0.0, 75.0)
    assert moment_senior(1, 1.0, 0.0, fc, market) == 0.0
    # with no senior piece the junior carries the whole face
    assert float(junior_band_moments(1, 1.0, 0.0, fc, market)[0][1]) == pytest.approx(
        float(plain_moments(1, 1.0, 0.0, 75.0, market)[0][1]), rel=1e-12
    )


@pytest.mark.parametrize("zu", [(0.8, 0.25), (2.0, -0.4), (5.0, 0.05)])
def test_derivatives_match_finite_differences(zu, faces, market):
    # the families' slopes are in (s, v); the points are (s, v) here
    z, u = zu
    h = 1e-6
    # each mean as (m, dm/dv, dm/ds) at one point
    for mean in (
        lambda zz, uu: [m[1] for m in senior_moments(1, zz, uu, faces, market, True, True)],
        lambda zz, uu: junior_mean_target(zz, uu, faces, market, True, True),
        lambda zz, uu: [m[1] for m in plain_moments(1, zz, uu, 75.0, market, True, True)],
    ):
        fn = lambda zz, uu: float(mean(zz, uu)[0])
        _, dfu, dfz = mean(z, u)
        num_u = (fn(z, u + h) - fn(z, u - h)) / (2 * h)
        assert float(dfu) == pytest.approx(num_u, rel=2e-5, abs=1e-12)
        num_z = (fn(z + h, u) - fn(z - h, u)) / (2 * h)
        assert float(dfz) == pytest.approx(num_z, rel=2e-5, abs=1e-12)


def _separate_dv(j, c_pay, f_div, f_bound, s, v, par):
    """The v-slope of kernel_j (j in {0, 1}) at (s, v) as its own formula,
    apart from the value: the reference for the one-pass (value, slope)
    kernels."""
    g = (1.0 - par.c) * par.t_mat * par.rho**2
    root_g = math.sqrt(g)
    b = math.sqrt(par.c * par.t_mat) * par.rho
    sqs = np.sqrt(s)
    a0 = (math.log(f_bound / par.v0) - par.drift_adj * par.t_mat) / (root_g * sqs) + b / root_g * v
    d0 = norm_pdf(a0) * (b / root_g)
    if j == 0:
        return d0
    e1 = np.exp(0.5 * s * g - sqs * b * v + par.drift_adj * par.t_mat)
    a1 = a0 - root_g * sqs
    return c_pay * d0 - par.v0 / f_div * e1 * (-sqs * b * ndtr(a1) + norm_pdf(a1) * (b / root_g))


@pytest.mark.parametrize("split", [(37.0, 38.0), (0.0, 75.0)])
def test_one_pass_kernels_match_separate_formulas(split, market):
    # value and slope from one pass equal the value function and the
    # separate slope formula within 1 ulp, over the limit solvers' (s, v)
    # range: s from 1e-6 / N to the chi-square tail, v on the v bracket
    faces = SubordinationSpec(*split)
    z, u = np.meshgrid(np.geomspace(1e-6, 60.0, 41), np.linspace(-4.9, 4.9, 41))
    s, v = _natural(z, u, market)
    f_s, f_j, f_t = faces.f_senior, faces.f_junior, faces.f_total
    junior_dv = _separate_dv(1, f_t / f_j, f_j, f_t, s, v, market)
    if f_s > 0:
        senior_dv = _separate_dv(1, 1.0, f_s, f_s, s, v, market)
        junior_dv = (
            _separate_dv(0, 1.0, f_s, f_s, s, v, market)
            + junior_dv
            - _separate_dv(1, f_t / f_j, f_j, f_s, s, v, market)
        )
    else:
        senior_dv = np.zeros(s.shape)
    senior = [m[1] for m in senior_moments(1, s, v, faces, market, dv=True)[:2]]
    plain = [m[1] for m in plain_moments(1, s, v, 75.0, market, dv=True)[:2]]
    cases = [
        (senior, moment_senior(1, z, u, faces, market), senior_dv),
        (junior_mean_target(s, v, faces, market, dv=True)[:2],
         junior_mean_target(s, v, faces, market)[0], junior_dv),
        (plain, plain_moments(1, s, v, 75.0, market)[0][1],
         _separate_dv(1, 1.0, 75.0, 75.0, s, v, market)),
    ]
    for (value, slope), want_value, want_slope in cases:
        for got, want in ((value, want_value), (slope, want_slope)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert np.count_nonzero(junior_dv) > 100


def test_tau_derivatives_match_finite_differences(faces, market):
    z, u, h = 1.3, 0.15, 1e-6
    for j in (0, 1):
        for iota, lam in (("senior", "senior"), ("junior", "junior")):
            num_u = (
                float(tau(j, iota, lam, z, u + h, faces, market))
                - float(tau(j, iota, lam, z, u - h, faces, market))
            ) / (2 * h)
            num_z = (
                float(tau(j, iota, lam, z + h, u, faces, market))
                - float(tau(j, iota, lam, z - h, u, faces, market))
            ) / (2 * h)
            _, dv, ds = _pass(j, iota, lam, *_natural(z, u, market), faces, market,
                              dv=True, ds=True)
            # d/du = sqrt(N) d/dv and d/dz = d/ds / N
            n = market.n_fluct
            assert math.sqrt(n) * float(dv[j]) == pytest.approx(num_u, rel=3e-5, abs=1e-15)
            assert float(ds[j]) / n == pytest.approx(num_z, rel=3e-5, abs=1e-15)


def test_kernels_broadcast(faces, market):
    z = np.array([0.5, 1.0, 2.0])
    u = 0.1
    out = tau(1, "junior", "junior", z, u, faces, market)
    assert out.shape == (3,)
    single = tau(1, "junior", "junior", 1.0, 0.1, faces, market)
    assert out[1] == pytest.approx(float(single), rel=1e-15)


def _mp_kernel(j, z, u, face, params):
    """kernel_j of a plain payoff and its E_j term's exponent, at 60 digits
    from the closed forms of the module docstring."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    n, rho, c, t = (mp.mpf(x) for x in (params.n_fluct, params.rho, params.c, params.t_mat))
    g = (1 - c) * t * rho**2
    a_coef, b_coef = mp.sqrt(n / g), mp.sqrt(c * t) * rho
    nu_t = (mp.mpf(params.mu) - rho**2 / 2) * t
    z, u, ratio = mp.mpf(z), mp.mpf(u), mp.mpf(params.v0) / face
    sqz = mp.sqrt(z)
    a0 = a_coef * ((mp.log(face / mp.mpf(params.v0)) - nu_t) / sqz + b_coef * u)
    x1 = z * g / (2 * n) - sqz * b_coef * u + nu_t
    k1 = mp.ncdf(a0) - ratio * mp.exp(x1) * mp.ncdf(a0 - sqz / a_coef)
    if j == 1:
        return k1, x1
    x2 = 2 * z * g / n - 2 * sqz * b_coef * u + 2 * nu_t
    return -mp.ncdf(a0) + 2 * k1 + ratio**2 * mp.exp(x2) * mp.ncdf(a0 - 2 * sqz / a_coef), x2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernels_past_the_exp_range_match_mpmath():
    mp = pytest.importorskip("mpmath")
    params = MarketParams(mu=0.17, rho=1.0, c=0.9, n_fluct=1.0, t_mat=1.0, v0=100.0)
    face = 75.0
    # E2's exponent alone passes 709 at the first point, both at the second
    # at N = 1, (s, v) = (z, u)
    for z, u in ((3000.0, -2.0), (8000.0, -6.0)):
        for j in (1, 2):
            want, exponent = _mp_kernel(j, z, u, face, params)
            assert exponent > 709 or (j == 1 and z == 3000.0)
            got = plain_moments(j, z, u, face, params)[0][j]
            assert got == pytest.approx(float(want), rel=1e-12)
    z, u = 8000.0, -6.0
    (_, value), (_, du), _ = plain_moments(1, z, u, face, params, dv=True)
    assert value == plain_moments(1, z, u, face, params)[0][1]
    want_du = mp.diff(lambda v: _mp_kernel(1, z, v, face, params)[0], u)
    assert du == pytest.approx(float(want_du), rel=1e-11)
    want_dz = mp.diff(lambda v: _mp_kernel(1, v, u, face, params)[0], z)
    dz = plain_moments(1, z, u, face, params, ds=True)[2][1]
    assert dz == pytest.approx(float(want_dz), rel=1e-11)
    # an element in range keeps its direct value bit for bit next to one past it
    mixed = plain_moments(2, np.array([1.0, 3000.0]), np.array([0.1, -2.0]), face, params)[0][2]
    assert mixed[0] == plain_moments(2, 1.0, 0.1, face, params)[0][2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_lane_keeps_the_overflow_guard_of_its_neighbours():
    # a limit solve passes NaN for a lost u root; the lane beside it, whose
    # E1 exponent passes 709, must still take the log-space form
    params = MarketParams(mu=0.17, rho=1.0, c=0.9, n_fluct=1.0, t_mat=1.0, v0=100.0)
    face, z, u = 75.0, 8000.0, -6.0
    assert _mp_kernel(1, z, u, face, params)[1] > 709
    zz, uu = np.array([z, z]), np.array([np.nan, u])
    for kernel in (
        lambda z, u: plain_moments(1, z, u, face, params)[0][1],
        lambda z, u: plain_moments(2, z, u, face, params)[0][2],
        lambda z, u: plain_moments(1, z, u, face, params, dv=True)[1][1],
        lambda z, u: plain_moments(1, z, u, face, params, ds=True)[2][1],
    ):
        got, want = kernel(zz, uu), kernel(z, u)
        assert np.isnan(got[0]) and np.isfinite(want) and got[1] == want


# ---------------------------------------------------------------------------
# the one-pass kernel against the per-order formulas it replaced


def _ref_kernel(j, c_pay, f_div, f_bound, s, v, par, dv=False):
    """kernel_j by the per-order formula; with ``dv`` (j in {0, 1}) the
    pairs (kernel_i, d kernel_i / dv) for i = 0..j."""
    from portloss.moments import _coeffs, _e_factors, _pdf

    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    g, b_coef, nu_t = _coeffs(par)
    root_g = math.sqrt(g)
    sqs = np.sqrt(s)
    slope_v = b_coef / root_g
    a0 = (math.log(f_bound / par.v0) - nu_t) / (root_g * sqs) + slope_v * v
    k0 = ndtr(a0)
    d0 = norm_pdf(a0) * slope_v if dv else None
    if j == 0:
        return [(k0, d0)] if dv else k0
    ratio, bound_ratio = par.v0 / f_div, f_bound / par.v0
    a1 = a0 - root_g * sqs
    e1, p1, big = _e_factors(1, 0.5 * s * g - sqs * b_coef * v + nu_t, a1, a0, ratio, bound_ratio)
    k1 = c_pay * k0 - ratio * e1 * p1
    if dv:
        d1 = c_pay * d0 - ratio * e1 * (-sqs * b_coef * p1 + _pdf(a1, big) * slope_v)
        return [(k0, d0), (k1, d1)]
    if j == 1:
        return k1
    e2, p2, _ = _e_factors(
        2, 2.0 * s * g - 2.0 * sqs * b_coef * v + 2.0 * nu_t,
        a0 - 2.0 * root_g * sqs, a0, ratio, bound_ratio,
    )
    return -(c_pay**2) * k0 + 2.0 * c_pay * k1 + ratio**2 * e2 * p2


def _ref_kernel_ds(j, c_pay, f_div, f_bound, s, v, par):
    """d kernel_j / ds (j in {0, 1}) by its own formula."""
    from portloss.moments import _coeffs, _e_factors, _pdf

    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    g, b_coef, nu_t = _coeffs(par)
    root_g = math.sqrt(g)
    sqs = np.sqrt(s)
    fh = (math.log(f_bound / par.v0) - nu_t) / (root_g * sqs)
    a0 = fh + b_coef / root_g * v
    da0 = -fh / (2.0 * s)
    d0 = norm_pdf(a0) * da0
    if j == 0:
        return d0
    ratio = par.v0 / f_div
    a1 = a0 - root_g * sqs
    dx1 = 0.5 * g - b_coef * v / (2.0 * sqs)
    e1, p1, big = _e_factors(
        1, 0.5 * s * g - sqs * b_coef * v + nu_t, a1, a0, ratio,
        f_bound / par.v0, np.fmax.reduce(np.abs(dx1), axis=None, initial=0.0),
    )
    de1 = e1 * dx1
    da1 = da0 - root_g / (2.0 * sqs)
    return c_pay * d0 - ratio * (de1 * p1 + e1 * _pdf(a1, big) * da1)


def _ref_family(args, s, v, par):
    """([kernel_0..2], [dv_0, dv_1], [ds_0, ds_1]) of one (c_pay, f_div,
    f_bound) by the per-order formulas."""
    return (
        [_ref_kernel(j, *args, s, v, par) for j in (0, 1, 2)],
        [_ref_kernel(1, *args, s, v, par, dv=True)[j][1] for j in (0, 1)],
        [_ref_kernel_ds(j, *args, s, v, par) for j in (0, 1)],
    )


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("split", [(37.0, 38.0), (0.0, 75.0)])
def test_one_pass_families_match_per_order_formulas_bit_for_bit(split, market):
    # every order, v-slope and s-slope of each family, over the limit
    # solvers' (s, v) range: z from 1e-6 to the chi-square tail, v across
    # the v bracket
    faces = SubordinationSpec(*split)
    rng = np.random.default_rng(23)
    half = 12.0 / math.sqrt(market.n_fluct)
    z = np.concatenate([np.geomspace(1e-6, 60.0, 200), rng.uniform(1e-6, 60.0, 300)])
    u = rng.uniform(-half, half, z.shape)
    s, v = _natural(z, u, market)
    f_s, f_j, f_t = faces.f_senior, faces.f_junior, faces.f_total
    full = _ref_family((f_t / f_j, f_j, f_t), s, v, market)
    plain = _ref_family((1.0, 75.0, 75.0), s, v, market)
    if f_s > 0:
        senior = _ref_family((1.0, f_s, f_s), s, v, market)
        cut = _ref_family((f_t / f_j, f_j, f_s), s, v, market)
        band = tuple([a - b for a, b in zip(f, c)] for f, c in zip(full, cut))
        target = (senior[0][0] + (full[0][1] - cut[0][1]),
                  senior[1][0] + full[1][1] - cut[1][1],
                  senior[2][0] + full[2][1] - cut[2][1])
    else:
        zero = np.zeros(s.shape)
        senior = ([zero] * 3, [zero] * 2, [zero] * 2)
        band = full
        target = tuple(f[1] for f in full)
    cases = [
        (lambda *flags: senior_moments(2, s, v, faces, market, *flags), senior),
        (lambda *flags: junior_band_moments(2, s, v, faces, market, *flags), band),
        (lambda *flags: plain_moments(2, s, v, 75.0, market, *flags), plain),
    ]
    for family, want in cases:
        for flags in ((), (True, False), (False, True), (True, True)):
            values, dv, ds = family(*flags)
            for got, ref in zip(values, want[0]):
                _assert_same_bits(got, ref)
            for asked, got, ref in zip(flags or (False, False), (dv, ds), want[1:]):
                if not asked:
                    assert got is None
                    continue
                for g, r in zip(got, ref):
                    _assert_same_bits(g, r)
    m, dv, ds = junior_mean_target(s, v, faces, market, dv=True, ds=True)
    for got, ref in zip((m, dv, ds), target):
        _assert_same_bits(got, ref)
    assert junior_mean_target(s, v, faces, market)[1:] == (None, None)
    # the one-point slope at the model's (z, u) is sqrt(N) d/dv
    _assert_same_bits(junior_mean_target_du(z, u, faces, market),
                      math.sqrt(market.n_fluct) * target[1])


def _count_kernel_passes(monkeypatch):
    """A list that gains one entry per pass of ``moments._kernel``."""
    passes = []
    kernel = moments._kernel

    def counted(*args, **kwargs):
        passes.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(moments, "_kernel", counted)
    return passes


def test_callers_take_one_pass_per_payoff_and_boundary(market, faces, halves, quad, monkeypatch):
    from portloss import limits
    from portloss.engine import (
        NoSubScenario,
        SubordinatedScenario,
        _unpruned_table,
        gaussian_moment_terms,
    )

    passes = _count_kernel_passes(monkeypatch)
    z, u = np.geomspace(0.1, 20.0, 64), np.linspace(-1.0, 1.0, 64)
    scenario = SubordinatedScenario(k_obligors=200, tranches=faces, params=market)
    # the senior pass and the junior band's two
    gaussian_moment_terms(z, u, scenario)
    assert passes == [2, 2, 2]
    passes.clear()
    # both halves hold the one (block, face) of the single market
    _unpruned_table(NoSubScenario(k_obligors=100, params=market, overlap=halves), quad)
    assert passes == [2]
    # a joint Newton step started on a solved crossing stays in its bracket:
    # two evaluations, each one senior and two junior passes with both slopes
    x, y = 0.02, 0.4
    s0, v0 = _natural(*limits.solve_z0(x, y, faces, market)[:2], market)
    monkeypatch.setattr(limits, "_JOINT_STEPS", 1)
    passes.clear()
    *_, ok = limits._joint_newton(
        np.array([x]), np.array([y]), np.array([s0]), np.array([v0]),
        np.array([s0 - 0.1]), np.array([s0 + 0.1]), faces, market,
    )
    assert passes == [1] * 6 and ok[0]


def test_crossing_record_keeps_the_verified_pass(market, faces, monkeypatch):
    from portloss import limits
    from portloss.engine import SubordinatedScenario, density_subordinated

    passes = _count_kernel_passes(monkeypatch)
    # the bundled 61x61 ridge grid: a second u solve at every found cell
    # and a separate Jacobian pass took it to 98 passes
    limits.limit_grid_subordinated(faces, market, n_cells=61, lo=0.0, hi=0.6)
    assert len(passes) <= 57

    # the adaptive rule's crossing points take the slice moments alone, the
    # Jacobians coming from the crossing record
    crossings, v_roots = limits._sub_crossings, limits._sub_v_roots
    since_crossings = []

    def solved(*args):
        cr = crossings(*args)
        passes.clear()
        return cr

    def localized(*args):
        since_crossings.append(len(passes))
        return v_roots(*args)

    monkeypatch.setattr(limits, "_sub_crossings", solved)
    monkeypatch.setattr(limits, "_sub_v_roots", localized)
    sc = SubordinatedScenario(k_obligors=2000, tranches=faces, params=market)
    density_subordinated(0.0155, 0.4, sc, QuadratureSpec(mode="adaptive"))
    # the last v solve is the localized s panels', after the crossing points
    assert since_crossings[-1] == 3

    # the plain roots' residual pass also gives the finite side's m1 and m2:
    # the same u solve as the equal-loss curve on the same cells and nodes
    passes.clear()
    limits.limit_curve_equal_infinite(75.0, market, n_cells=61, lo=0.0, hi=0.6)
    curve = list(passes)
    passes.clear()
    limits.limit_grid_finite_vs_infinite(10, 75.0, market, n_cells=61, lo=0.0, hi=0.6)
    assert passes == curve[:-1] + [2]
