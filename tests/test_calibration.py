"""Return-distribution density and the fluctuation-strength fit."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from portloss import (
    FitError,
    MarketParams,
    ParameterError,
    ReturnSample,
    SingularCovarianceError,
    effective_correlation,
    fit_n,
)
from portloss import calibration
from portloss.calibration import _log_bessel_part, _log_kv, _profile_loglik, log_return_density
from portloss.mc import sample_compound_returns


def return_density(r, sigma, n_fluct):
    """The ensemble-averaged return density, exp of its closed-form log."""
    return np.exp(log_return_density(r, sigma, n_fluct))


def test_density_normalizes_univariate():
    sigma = np.array([[1.0]])
    val, _ = integrate.quad(
        lambda r: float(return_density(np.array([r]), sigma, 6.0)), -np.inf, np.inf)
    assert val == pytest.approx(1.0, rel=1e-6)
    second, _ = integrate.quad(
        lambda r: r * r * float(return_density(np.array([r]), sigma, 6.0)),
        -np.inf, np.inf)
    assert second == pytest.approx(1.0, rel=1e-6)


def test_density_center_value_frozen():
    # K = 1, N = 6: finite at the origin
    got = float(return_density(np.array([0.0]), np.array([[1.0]]), 6.0))
    assert got == pytest.approx(0.45927932677184585, rel=1e-12)
    # K >= N: the density diverges at the origin
    sig2 = np.eye(6)
    assert np.isinf(float(return_density(np.zeros(6), sig2, 6.0)))
    assert np.isinf(float(return_density(np.zeros(8), np.eye(8), 6.0)))


def test_density_is_even_and_heavy_tailed():
    sigma = np.array([[1.0]])
    rs = np.array([0.5, 1.5, 4.0])
    left = [float(return_density(np.array([-r]), sigma, 6.0)) for r in rs]
    right = [float(return_density(np.array([r]), sigma, 6.0)) for r in rs]
    np.testing.assert_allclose(left, right, rtol=1e-13)
    # heavier than Gaussian deep in the tail
    gauss = math.exp(-0.5 * 6.0**2) / math.sqrt(2 * math.pi)
    assert float(return_density(np.array([6.0]), sigma, 6.0)) > gauss


def test_log_density_decreases_like_exponential_tail():
    sigma = np.array([[1.0]])
    xs = np.array([5.0, 10.0, 20.0, 40.0])
    ld = [float(log_return_density(np.array([x]), sigma, 6.0)) for x in xs]
    assert all(b < a for a, b in zip(ld, ld[1:]))
    # slope approaches -sqrt(N) per unit return
    slope = (ld[-1] - ld[-2]) / (xs[-1] - xs[-2])
    assert slope == pytest.approx(-math.sqrt(6.0), rel=0.05)


def test_gaussian_limit_for_large_fluctuation_strength():
    # N -> infinity freezes the correlations: density tends to the Gaussian
    sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
    pts = [np.array([0.5, -0.2]), np.array([1.5, 1.0])]
    inv = np.linalg.inv(sigma)
    for r in pts:
        want = math.exp(-0.5 * r @ inv @ r) / (
            2 * math.pi * math.sqrt(np.linalg.det(sigma)))
        got = float(return_density(r, sigma, 1e4))
        assert got == pytest.approx(want, rel=0.01)


def test_log_bessel_large_order_branch_is_continuous():
    # crossover between the direct kve evaluation and the uniform
    # large-order expansion; kve itself overflows past order ~1e2 at small
    # argument, so the reference stops at 100
    for nu in (39.5, 40.5, 60.0, 100.0):
        for x in (0.5, 5.0, 50.0):
            direct = math.log(special.kve(nu, x)) - x
            assert _log_kv(nu, x) == pytest.approx(direct, rel=1e-7, abs=1e-7)


def test_log_bessel_part_small_argument_branches():
    # nu < 0: finite limit Gamma(-nu) 2^(-nu-1)
    nu = -2.5
    want = math.log(special.gamma(-nu) * 2.0 ** (-nu - 1.0))
    assert _log_bessel_part(nu, 1e-12) == pytest.approx(want, rel=1e-10)
    assert np.isinf(_log_bessel_part(0.0, 0.0))
    assert np.isinf(_log_bessel_part(1.5, 0.0))


def test_sample_shape_and_covariance():
    par = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    rng = np.random.default_rng(7)
    r = sample_compound_returns(par, 8, 20_000, rng)
    sample = ReturnSample(r)
    assert sample.m_samples == 20_000 and sample.k_assets == 8
    assert sample.full_rank
    var = par.rho**2 * par.t_mat
    diag = np.diag(sample.sigma_hat)
    np.testing.assert_allclose(diag, var, rtol=0.1)
    off = sample.sigma_hat[~np.eye(8, dtype=bool)]
    np.testing.assert_allclose(off.mean(), var * par.c, rtol=0.15)


def test_fit_round_trip_frozen():
    par = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    rng = np.random.default_rng(12345)
    r = sample_compound_returns(par, 20, 5000, rng)
    fit = fit_n(ReturnSample(r))
    assert fit.n_hat == pytest.approx(5.830981403750254, rel=1e-6)
    assert fit.converged and not fit.boundary and not fit.rank_deficient
    assert effective_correlation(np.cov(r.T)) == pytest.approx(0.28094965163489377, rel=1e-9)


def test_fit_does_not_depend_on_the_thread_count(monkeypatch):
    # the grid profile runs on a pool; one thread, then more threads than
    # points, must give the serial profile and n_hat bit for bit
    par = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    sample = ReturnSample(sample_compound_returns(par, 20, 5000, np.random.default_rng(12345)))
    grid = np.geomspace(1.0, 128.0, 57)
    fits = []
    for threads in (1, 8):
        monkeypatch.setattr(calibration, "_pool_size", lambda n_tasks, t=threads: min(t, n_tasks))
        fits.append(fit_n(sample, grid))
    centered = sample.returns - sample.returns.mean(axis=0)
    inv = np.linalg.inv(sample.sigma_hat)
    q = np.einsum("mi,ij,mj->m", centered, inv, centered)
    serial = tuple(_profile_loglik(q, 20, n) for n in grid)
    for fit in fits:
        assert fit.profile == serial
        assert fit.n_hat == fits[0].n_hat and fit.loglik == fits[0].loglik


def test_fit_flags_gaussian_data_as_boundary():
    rng = np.random.default_rng(3)
    r = rng.standard_normal((4000, 10))
    fit = fit_n(ReturnSample(r))
    assert fit.boundary and not fit.converged


def test_fit_rank_deficient_path():
    par = MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    rng = np.random.default_rng(11)
    r = sample_compound_returns(par, 30, 20, rng)  # fewer samples than assets
    fit = fit_n(ReturnSample(r))
    assert fit.rank_deficient
    assert fit.n_hat > 0


def test_fit_degenerate_data_raises():
    with pytest.raises(FitError):
        fit_n(ReturnSample(np.zeros((100, 3))))
    with pytest.raises(ParameterError):
        ReturnSample(np.array([[np.nan, 1.0]]))


def test_effective_correlation_known_matrix():
    sigma = np.array([[2.0, 0.6, 0.6], [0.6, 2.0, 0.6], [0.6, 0.6, 2.0]])
    assert effective_correlation(sigma) == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ParameterError):
        effective_correlation(np.array([[1.0]]))
    with pytest.raises(SingularCovarianceError):
        effective_correlation(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_density_rejects_singular_covariance():
    with pytest.raises(SingularCovarianceError):
        return_density(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 6.0)
