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

from portloss import MarketParams, ParameterError, SubordinationSpec
from portloss.moments import (
    junior_mean_target,
    junior_mean_target_and_du,
    junior_mean_target_du,
    junior_mean_target_dz,
    moment_junior,
    moment_plain,
    moment_plain_and_du,
    moment_plain_du,
    moment_senior,
    moment_senior_and_du,
    moment_senior_du,
    moment_senior_dz,
    norm_pdf,
    tau,
    tau_du,
    tau_dz,
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
        tau_du(2, "senior", "senior", 1.0, 0.0, faces, market)


@given(
    z=st.floats(0.05, 30.0),
    u=st.floats(-1.5, 1.5),
    f_senior=st.floats(10.0, 60.0),
    f_junior=st.floats(5.0, 40.0),
)
def test_moment_families_are_ordered(z, u, f_senior, f_junior, market):
    # payoffs are loss fractions in [0, 1], so moments decrease in j
    fc = SubordinationSpec(f_senior, f_junior)
    for fam in (
        lambda j: moment_senior(j, z, u, fc, market),
        lambda j: moment_junior(j, z, u, fc, market),
        lambda j: moment_plain(j, z, u, fc.f_total, market),
    ):
        m0, m1, m2 = (float(fam(j)) for j in (0, 1, 2))
        assert -1e-12 <= m2 <= m1 + 1e-12
        assert m1 <= m0 + 1e-12
        assert m0 <= 1.0 + 1e-12


def test_moment_senior_zero_face(market):
    fc = SubordinationSpec(0.0, 75.0)
    assert moment_senior(1, 1.0, 0.0, fc, market) == 0.0
    # with no senior piece the junior carries the whole face
    assert float(moment_junior(1, 1.0, 0.0, fc, market)) == pytest.approx(
        float(moment_plain(1, 1.0, 0.0, 75.0, market)), rel=1e-12
    )


@pytest.mark.parametrize("zu", [(0.8, 0.25), (2.0, -0.4), (5.0, 0.05)])
def test_derivatives_match_finite_differences(zu, faces, market):
    z, u = zu
    h = 1e-6
    for fn, dfu, dfz in (
        (
            lambda zz, uu: moment_senior(1, zz, uu, faces, market),
            lambda zz, uu: moment_senior_du(1, zz, uu, faces, market),
            lambda zz, uu: moment_senior_dz(1, zz, uu, faces, market),
        ),
        (
            lambda zz, uu: junior_mean_target(zz, uu, faces, market),
            lambda zz, uu: junior_mean_target_du(zz, uu, faces, market),
            lambda zz, uu: junior_mean_target_dz(zz, uu, faces, market),
        ),
        (
            lambda zz, uu: moment_plain(1, zz, uu, 75.0, market),
            lambda zz, uu: moment_plain_du(1, zz, uu, 75.0, market),
            None,  # the plain kernel's z derivative has no caller
        ),
    ):
        num_u = (float(fn(z, u + h)) - float(fn(z, u - h))) / (2 * h)
        assert float(dfu(z, u)) == pytest.approx(num_u, rel=2e-5, abs=1e-12)
        if dfz is not None:
            num_z = (float(fn(z + h, u)) - float(fn(z - h, u))) / (2 * h)
            assert float(dfz(z, u)) == pytest.approx(num_z, rel=2e-5, abs=1e-12)


def _separate_du(j, c_pay, f_div, f_bound, z, u, par):
    """The u-slope of kernel_j (j in {0, 1}) as its own formula, apart from
    the value: the reference for the one-pass (value, slope) kernels."""
    a = math.sqrt(par.n_fluct / ((1.0 - par.c) * par.t_mat * par.rho**2))
    b = math.sqrt(par.c * par.t_mat) * par.rho
    g = (1.0 - par.c) * par.t_mat * par.rho**2
    sqz = np.sqrt(z)
    a0 = a * ((math.log(f_bound / par.v0) - par.drift_adj * par.t_mat) / sqz + b * u)
    d0 = norm_pdf(a0) * a * b
    if j == 0:
        return d0
    e1 = np.exp(z * g / (2.0 * par.n_fluct) - sqz * b * u + par.drift_adj * par.t_mat)
    a1 = a0 - sqz / a
    return c_pay * d0 - par.v0 / f_div * e1 * (-sqz * b * ndtr(a1) + norm_pdf(a1) * a * b)


@pytest.mark.parametrize("split", [(37.0, 38.0), (0.0, 75.0)])
def test_one_pass_kernels_match_separate_formulas(split, market):
    # value and slope from one pass equal the value function and the
    # separate slope formula within 1 ulp, over the limit solvers' (z, u)
    # range: z from 1e-6 to the chi-square tail, u on the u bracket
    faces = SubordinationSpec(*split)
    z, u = np.meshgrid(np.geomspace(1e-6, 60.0, 41), np.linspace(-4.9, 4.9, 41))
    f_s, f_j, f_t = faces.f_senior, faces.f_junior, faces.f_total
    junior_du = _separate_du(1, f_t / f_j, f_j, f_t, z, u, market)
    if f_s > 0:
        senior_du = _separate_du(1, 1.0, f_s, f_s, z, u, market)
        junior_du = (
            _separate_du(0, 1.0, f_s, f_s, z, u, market)
            + junior_du
            - _separate_du(1, f_t / f_j, f_j, f_s, z, u, market)
        )
    else:
        senior_du = np.zeros(z.shape)
    cases = [
        (moment_senior_and_du(1, z, u, faces, market), moment_senior(1, z, u, faces, market),
         senior_du),
        (junior_mean_target_and_du(z, u, faces, market), junior_mean_target(z, u, faces, market),
         junior_du),
        (moment_plain_and_du(1, z, u, 75.0, market), moment_plain(1, z, u, 75.0, market),
         _separate_du(1, 1.0, 75.0, 75.0, z, u, market)),
    ]
    for (value, slope), want_value, want_slope in cases:
        for got, want in ((value, want_value), (slope, want_slope)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert np.count_nonzero(junior_du) > 100


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
            assert float(tau_du(j, iota, lam, z, u, faces, market)) == pytest.approx(
                num_u, rel=3e-5, abs=1e-15
            )
            assert float(tau_dz(j, iota, lam, z, u, faces, market)) == pytest.approx(
                num_z, rel=3e-5, abs=1e-15
            )


def test_kernels_broadcast(faces, market):
    z = np.array([0.5, 1.0, 2.0])
    u = 0.1
    out = tau(1, "junior", "junior", z, u, faces, market)
    assert out.shape == (3,)
    single = tau(1, "junior", "junior", 1.0, 0.1, faces, market)
    assert out[1] == pytest.approx(float(single), rel=1e-15)
