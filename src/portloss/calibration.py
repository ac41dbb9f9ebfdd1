"""Ensemble-averaged return density and fluctuation-strength fitting.

Averaging the Gaussian return law over the chi^2 scale mixture gives a
closed form in the modified Bessel function of the second kind, with order
(K - N)/2 of either sign.  The fluctuation parameter N is recovered from
return samples by maximizing the summed log density with the covariance
frozen at its sample estimate (two-step fit); the effective average
correlation c is the mean off-diagonal of the sample correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, kve

from .errors import FitError, ParameterError, SingularCovarianceError

__all__ = [
    "ReturnSample",
    "return_density",
    "log_return_density",
    "fit_n",
    "FitResult",
    "effective_correlation",
]

_SMALL_X = 1e-8
_LARGE_ORDER = 40.0


@dataclass
class ReturnSample:
    """Matrix of K return series observed at M times, shape (M, K)."""

    returns: np.ndarray

    def __post_init__(self):
        self.returns = np.atleast_2d(np.asarray(self.returns, dtype=float))
        if self.returns.ndim != 2 or self.returns.size == 0:
            raise ParameterError("returns must be a nonempty (M, K) matrix")
        if not np.all(np.isfinite(self.returns)):
            raise ParameterError("returns must be finite")

    @property
    def m_samples(self) -> int:
        return self.returns.shape[0]

    @property
    def k_assets(self) -> int:
        return self.returns.shape[1]

    @property
    def sigma_hat(self) -> np.ndarray:
        """Sample covariance (mean-removed, 1/(M-1) normalization)."""
        if self.m_samples < 2:
            raise ParameterError("need at least 2 observations for a covariance")
        return np.atleast_2d(np.cov(self.returns, rowvar=False, ddof=1))

    @property
    def full_rank(self) -> bool:
        """False when M <= K forces a rank-deficient covariance estimate."""
        s = self.sigma_hat
        return bool(np.linalg.matrix_rank(s) == s.shape[0])


def _sigma_factors(sigma, k):
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape != (k, k):
        raise ParameterError(f"sigma must be ({k}, {k}), got {sigma.shape}")
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise SingularCovarianceError("covariance must be positive definite")
    try:
        inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(str(exc)) from exc
    return inv, float(logdet)


def _log_kv(nu: float, x):
    """log K_nu(x) for positive x, stable up to very large |nu|.

    Above _LARGE_ORDER the scaled Bessel routine overflows, so the
    uniform large-order expansion in 1/nu is used instead; with three
    correction terms its relative error at the switch is ~1e-9.
    """
    a = abs(float(nu))
    x = np.asarray(x, dtype=float)
    if a <= _LARGE_ORDER:
        # kve is exp(x) * K_nu(x); subtracting x undoes the scaling in logs
        return np.log(kve(a, x)) - x
    z = x / a
    s = np.sqrt(1.0 + z * z)
    eta = s + np.log(z) - np.log1p(s)
    t = 1.0 / s
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - t2 * (462.0 - 385.0 * t2)) / 1152.0
    u3 = t * t2 * (30375.0 - t2 * (369603.0 - t2 * (765765.0 - 425425.0 * t2)))
    u3 = u3 / 414720.0
    series = 1.0 - u1 / a + u2 / (a * a) - u3 / (a * a * a)
    return (
        0.5 * (math.log(math.pi) - math.log(2.0) - math.log(a))
        - a * eta
        - 0.25 * np.log1p(z * z)
        + np.log(series)
    )


def _log_bessel_part(nu: float, x):
    """log of K_nu(x) / x^nu, elementwise, stable for either sign of nu.

    The x -> 0 limit is finite for nu < 0 (handled from the series), log
    divergent for nu = 0 and power divergent for nu > 0; q = 0 inputs
    yield +inf for nu >= 0, which is the correct (integrable) singularity.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    tiny = x < _SMALL_X
    with np.errstate(divide="ignore"):
        safe = np.where(tiny, 1.0, x)
        out = _log_kv(nu, safe) - nu * np.log(safe)
    if np.any(tiny):
        if nu < 0.0:
            a = -nu
            out = np.where(tiny, (a - 1.0) * math.log(2.0) + gammaln(a), out)
        elif nu == 0.0:
            with np.errstate(divide="ignore"):
                out = np.where(tiny, np.where(x > 0.0, -np.log(x / 2.0), np.inf), out)
        else:
            with np.errstate(divide="ignore"):
                out = np.where(
                    tiny,
                    np.where(
                        x > 0.0,
                        gammaln(nu) + (nu - 1.0) * math.log(2.0) - 2.0 * nu * np.log(x),
                        np.inf,
                    ),
                    out,
                )
    return out


def _log_norm(k, n_fluct):
    """The N-dependent part of the log return density's normalisation,
    (1 - N/2) ln 2 + (K/2) ln N - ln Gamma(N/2)."""
    return (
        (1.0 - 0.5 * n_fluct) * math.log(2.0)
        + 0.5 * k * math.log(n_fluct)
        - gammaln(0.5 * n_fluct)
    )


def log_return_density(r, sigma, n_fluct: float):
    """Log of the ensemble-averaged return density; broadcasts over rows of
    r when given a (M, K) matrix."""
    if not (n_fluct > 0):
        raise ParameterError(f"n_fluct must be > 0, got {n_fluct}")
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    rows = np.atleast_2d(r)
    k = rows.shape[1]
    if not np.all(np.isfinite(rows)):
        raise ParameterError("r must be finite")
    inv, logdet = _sigma_factors(sigma, k)
    q = np.einsum("mi,ij,mj->m", rows, inv, rows)
    q = np.maximum(q, 0.0)
    x = np.sqrt(n_fluct * q)
    nu = 0.5 * (k - n_fluct)
    const = _log_norm(k, n_fluct) - 0.5 * (k * math.log(2.0 * math.pi) + logdet)
    vals = const + _log_bessel_part(nu, x)
    return float(vals[0]) if single else vals


def return_density(r, sigma, n_fluct: float):
    """Ensemble-averaged density of a K-dimensional return vector.

    Heavier tailed than the Gaussian with the same covariance for finite
    N and converging to it as N grows; even in r.
    """
    out = log_return_density(r, sigma, n_fluct)
    if np.isscalar(out) or np.ndim(out) == 0:
        return float(np.exp(out))
    with np.errstate(under="ignore", over="ignore"):
        return np.exp(out)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the fluctuation-parameter fit."""

    n_hat: float
    loglik: float
    grid: tuple
    profile: tuple
    boundary: bool
    rank_deficient: bool

    @property
    def converged(self) -> bool:
        return not self.boundary


def _profile_loglik(q, k, n_fluct):
    """Summed log density as a function of N with sigma (hence q) frozen;
    the sigma-dependent constant -0.5(K ln 2pi + logdet) is omitted, which
    shifts the profile but not the argmax."""
    x = np.sqrt(n_fluct * q)
    nu = 0.5 * (k - n_fluct)
    return len(q) * _log_norm(k, n_fluct) + float(np.sum(_log_bessel_part(nu, x)))


def fit_n(
    sample: ReturnSample,
    grid=None,
) -> FitResult:
    """Maximum-likelihood fit of the fluctuation parameter N.

    The covariance is frozen at the sample estimate and the summed log
    density is maximized over N on a grid, then refined by golden-section
    search between the bracketing grid neighbors.  A maximum at the upper
    grid end is flagged as a boundary solution (data indistinguishable
    from the frozen-correlation N -> infinity member); a flat profile
    raises FitError.
    """
    if grid is None:
        grid = np.geomspace(1.0, 128.0, 57)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 3 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be at least 3 increasing positive values")
    k = sample.k_assets
    sigma = sample.sigma_hat
    rank_deficient = not sample.full_rank
    if rank_deficient:
        inv = np.linalg.pinv(sigma)
        sign, logdet = 1.0, 0.0  # constant offset irrelevant to the argmax
    else:
        inv, logdet = _sigma_factors(sigma, k)
    centered = sample.returns - sample.returns.mean(axis=0, keepdims=True)
    q = np.einsum("mi,ij,mj->m", centered, inv, centered)
    if np.any(q <= 0):
        raise FitError("degenerate return vectors (zero Mahalanobis norm)")
    profile = np.array([_profile_loglik(q, k, n) for n in grid])
    if not np.all(np.isfinite(profile)):
        raise FitError("log likelihood not finite on the grid")
    if float(np.ptp(profile)) < 1e-9 * max(1.0, abs(float(profile[0]))):
        raise FitError("flat likelihood profile; the fit is inconclusive")
    i = int(np.argmax(profile))
    boundary = i == len(grid) - 1
    n_hat = float(grid[i])
    best = float(profile[i])
    if 0 < i < len(grid) - 1:
        lo, hi = float(grid[i - 1]), float(grid[i + 1])
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1 = b - phi * (b - a)
        c2 = a + phi * (b - a)
        f1 = _profile_loglik(q, k, c1)
        f2 = _profile_loglik(q, k, c2)
        for _ in range(60):
            if b - a < 1e-6 * max(1.0, a):
                break
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + phi * (b - a)
                f2 = _profile_loglik(q, k, c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - phi * (b - a)
                f1 = _profile_loglik(q, k, c1)
        n_hat = 0.5 * (a + b)
        best = _profile_loglik(q, k, n_hat)
    return FitResult(
        n_hat=float(n_hat),
        loglik=float(best),
        grid=tuple(float(x) for x in grid),
        profile=tuple(float(x) for x in profile),
        boundary=boundary,
        rank_deficient=rank_deficient,
    )


def effective_correlation(sigma) -> float:
    """Projection of a covariance/correlation matrix onto the one-parameter
    uniform-correlation family: the mean off-diagonal correlation."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    k = sigma.shape[0]
    if sigma.shape != (k, k):
        raise ParameterError("sigma must be square")
    if k < 2:
        raise ParameterError("effective correlation needs at least 2 assets")
    var = np.diag(sigma)
    if not np.all(var > 0):
        raise SingularCovarianceError("covariance has nonpositive diagonal")
    d = np.sqrt(var)
    corr = sigma / np.outer(d, d)
    off = corr[~np.eye(k, dtype=bool)]
    return float(off.mean())
