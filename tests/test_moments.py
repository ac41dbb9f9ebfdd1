"""Closed-form conditional moment kernels against quadrature and known values.

The frozen numbers were produced once by an independent adaptive-quadrature
oracle over the idiosyncratic Gaussian and are pinned here to guard against
regressions in the kernel algebra.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import norm

from portloss import MarketParams, ParameterError, QuadratureSpec, SubordinationSpec
from portloss import moments
from portloss.moments import (
    _coeffs,
    _kernel,
    _natural,
    _pass,
    _pdf,
    _term,
    junior_band_moments,
    junior_mean_target,
    junior_mean_target_du,
    moment_senior,
    norm_pdf,
    plain_moments,
    senior_moments,
    tau,
)
from portloss.quadrature import _scale_rule

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
    a1 = a0 - root_g * sqs
    log_scale = par.drift_adj * par.t_mat + math.log(par.v0 / f_div)
    t1, p1, tail = _term(1, 0.5 * s * g - sqs * b * v + log_scale, a1, a0, f_bound / f_div)
    return c_pay * d0 - t1 * (-sqs * b * p1 + _pdf(a1, tail) * (b / root_g))


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


# a market whose E1 and E2 exponents pass 709 on the s range below; there
# a0 is about 3 v
_STEEP = MarketParams(mu=0.17, rho=1.0, c=0.9, n_fluct=1.0, t_mat=1.0, v0=100.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(
    st.tuples(st.floats(1e-3, 1e4), st.one_of(st.just(math.nan), st.floats(-14.0, 14.0))),
    min_size=2, max_size=8,
))
@example([(8000.0, math.nan), (8000.0, -6.0), (2000.0, -8.0), (1.0, -13.3)])
def test_each_element_of_a_batch_is_the_element_alone(points):
    # a limit solve passes NaN for a lost v root, and each kernel term takes
    # its form from its own a_j: values and both slopes of orders 0..2 of
    # every family come out bit for bit as the element computed alone
    s, v = (np.array(x) for x in zip(*points))
    faces = SubordinationSpec(37.0, 38.0)
    families = (
        lambda s, v: plain_moments(2, s, v, 75.0, _STEEP, True, True),
        lambda s, v: senior_moments(2, s, v, faces, _STEEP, True, True),
        lambda s, v: junior_band_moments(2, s, v, faces, _STEEP, True, True),
    )
    for family in families:
        batch = [x for part in family(s, v) for x in part]
        for i in range(len(s)):
            alone = [x for part in family(s[i], v[i]) for x in part]
            for got, want in zip(batch, alone):
                _assert_same_bits(got[i : i + 1], np.reshape(want, 1))


# A point is redrawn where a0 sums terms more than this many times its own
# size (or 1): the rounding of those terms, not the kernel forms, then sets
# the error, which reached 7e-12 of kernel_0 on draws without this rule.
_A0_CANCELLATION_MAX = 8.0


def _gate_points(n, rng):
    """``n`` seeded (market, (c_pay, f_div, f_bound), s, v, a0) across the
    accepted market domain, with s up to the largest node of the 512-node
    rule at N = 1, v on the limit solvers' bracket [-12, 12] and a0 in
    [-40, 10]; each point takes one of the plain, senior, junior and
    junior-on-senior payoff and boundary pairs."""
    s_max = _scale_rule(1.0, 512)[0].max()
    points = []
    while len(points) < n:
        t_mat = math.exp(rng.uniform(math.log(0.01), math.log(30.0)))
        rho = math.sqrt(math.exp(rng.uniform(math.log(1e-4), math.log(299.0))) / t_mat)
        drift = rng.uniform(-299.0, 299.0) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
        par = MarketParams(mu=drift / t_mat + 0.5 * rho**2, rho=rho, c=rng.uniform(0.0, 0.95),
                           n_fluct=1.0, t_mat=t_mat, v0=100.0)
        face = par.v0 * math.exp(rng.uniform(-69.0, 690.0) if rng.random() < 0.5
                                 else rng.uniform(-3.0, 3.0))
        f_j = rng.uniform(0.1, 0.9) * face
        f_s = face - f_j
        args = [(1.0, face, face), (1.0, f_s, f_s), (face / f_j, f_j, face),
                (face / f_j, f_j, f_s)][rng.integers(4)]
        if not all(1e-300 <= par.v0 / f <= 1e30 for f in (f_s, f_j, face)):
            continue
        g, b_coef, nu_t = _coeffs(par)
        s = math.exp(rng.uniform(math.log(1e-6), math.log(s_max)))
        log_bound = math.log(args[2] / par.v0)
        fh, slope_v = (log_bound - nu_t) / math.sqrt(g * s), b_coef / math.sqrt(g)
        lo, hi = max(-12.0, (-40.0 - fh) / slope_v), min(12.0, (10.0 - fh) / slope_v)
        if not lo < hi:
            continue
        v = rng.uniform(lo, hi)
        a0 = fh + slope_v * v
        size = (abs(log_bound) + abs(nu_t)) / math.sqrt(g * s) + abs(slope_v * v)
        if size > _A0_CANCELLATION_MAX * max(abs(a0), 1.0):
            continue
        points.append((par, args, s, v, a0))
    return points


def _mp_closed_form(c_pay, f_div, f_bound, s, v, par):
    """kernel_0..2 and the (dv, ds) slopes of orders 0 and 1 at (s, v),
    each as (value, scale), from the closed forms of the module docstring
    at 50 digits: the float inputs and the market coefficients of
    ``_coeffs`` are taken as exact.  A value's scale is
    max(|kernel_j|, c_pay^j kernel_0), since the payoff is at most c_pay; an
    order-0 slope's is its size and an order-1 slope's the largest of the
    three terms it sums."""
    f = mp.mpf
    g, b_coef, nu_t = (f(x) for x in _coeffs(par))
    s, v, c_pay = f(s), f(v), f(c_pay)
    root_g, sqs = mp.sqrt(g), mp.sqrt(s)
    fh = (mp.log(f(f_bound) / f(par.v0)) - nu_t) / (root_g * sqs)
    slope_v = b_coef / root_g
    a0 = fh + slope_v * v
    a1, a2 = a0 - root_g * sqs, a0 - 2 * root_g * sqs
    ratio = f(par.v0) / f(f_div)
    t1 = ratio * mp.exp(s * g / 2 - sqs * b_coef * v + nu_t)
    t2 = ratio**2 * mp.exp(2 * s * g - 2 * sqs * b_coef * v + 2 * nu_t)
    k0 = mp.ncdf(a0)
    k1 = c_pay * k0 - t1 * mp.ncdf(a1)
    k2 = -c_pay**2 * k0 + 2 * c_pay * k1 + t2 * mp.ncdf(a2)
    out = [(k, max(abs(k), c_pay**j * k0)) for j, k in enumerate((k0, k1, k2))]
    # (d a0, d log E1, d a1) along v and along s
    for da0, dx1, da1 in ((slope_v, -sqs * b_coef, slope_v),
                          (-fh / (2 * s), g / 2 - b_coef * v / (2 * sqs),
                           -fh / (2 * s) - root_g / (2 * sqs))):
        d0 = mp.npdf(a0) * da0
        terms = (c_pay * d0, t1 * dx1 * mp.ncdf(a1), t1 * mp.npdf(a1) * da1)
        out += [(d0, abs(d0)), (terms[0] - terms[1] - terms[2], max(abs(t) for t in terms))]
    return [(float(x), float(scale)) for x, scale in out]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernels_match_a_50_digit_closed_form():
    # values within 1e-12 of their scale, or below 1e-300, and the slopes
    # too: over twelve seeds of these draws orders 1 and 2 and the order-1
    # slopes came within 4.1e-13, and order 0 and its slopes, which carry
    # Phi's condition a0^2 at a0 near -40, within 6.7e-13
    points = _gate_points(1500, np.random.default_rng(1706))
    with mp.workdps(50):
        for par, args, s, v, _ in points:
            values, dv, ds = _kernel(2, *args, s, v, par, dv=True, ds=True)
            got = [values[0], values[1], values[2], dv[0], dv[1], ds[0], ds[1]]
            want = _mp_closed_form(*args, s, v, par)
            for g, (w, scale) in zip(got, want):
                assert abs(float(g) - w) <= max(1e-12 * scale, 1e-300), (par, args, s, v)
    assert min(p[4] for p in points) < -39.0 and max(p[2] for p in points) > 2000.0


# ---------------------------------------------------------------------------
# the one-pass kernel against the per-order formulas it replaced


def _ref_kernel(j, c_pay, f_div, f_bound, s, v, par, dv=False):
    """kernel_j by the per-order formula; with ``dv`` (j in {0, 1}) the
    pairs (kernel_i, d kernel_i / dv) for i = 0..j."""
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
    log_scale, face_ratio = nu_t + math.log(par.v0 / f_div), f_bound / f_div
    a1 = a0 - root_g * sqs
    t1, p1, tail = _term(1, 0.5 * s * g - sqs * b_coef * v + log_scale, a1, a0, face_ratio)
    k1 = c_pay * k0 - t1 * p1
    if dv:
        d1 = c_pay * d0 - t1 * (-sqs * b_coef * p1 + _pdf(a1, tail) * slope_v)
        return [(k0, d0), (k1, d1)]
    if j == 1:
        return k1
    t2, p2, _ = _term(2, 2.0 * s * g - 2.0 * sqs * b_coef * v + 2.0 * log_scale,
                      a0 - 2.0 * root_g * sqs, a0, face_ratio)
    return -(c_pay**2) * k0 + 2.0 * c_pay * k1 + t2 * p2


def _ref_kernel_ds(j, c_pay, f_div, f_bound, s, v, par):
    """d kernel_j / ds (j in {0, 1}) by its own formula."""
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
    a1 = a0 - root_g * sqs
    x1 = 0.5 * s * g - sqs * b_coef * v + (nu_t + math.log(par.v0 / f_div))
    t1, p1, tail = _term(1, x1, a1, a0, f_bound / f_div)
    dx1 = 0.5 * g - b_coef * v / (2.0 * sqs)
    da1 = da0 - root_g / (2.0 * sqs)
    return c_pay * d0 - t1 * (dx1 * p1 + _pdf(a1, tail) * da1)


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
