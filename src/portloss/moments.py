"""Closed-form conditional loss moments.

Everything downstream (densities, limits, correlations) is built from the
conditional moments of a single obligor's loss given the scale variable z
and the common Gaussian factor u.  Those moments are Gaussian integrals of
(a - b e^x)^j over a half line and therefore reduce to expressions in the
standard normal CDF; this module implements the reductions and their exact
z and u derivatives.

Conventions
-----------
With nu = mu - rho^2/2, g = (1 - c) T rho^2, A = sqrt(N / g) and
B = sqrt(c T) rho, a moment kernel of order j with payoff scale ``c_pay``,
payoff divisor face ``f_div`` and default boundary face ``f_bound`` is

    kernel_j = integral over v < fhat(f_bound, z) of
               (c_pay - (v0 / f_div) exp(sqrt(z) v + nu T))^j
               against the Gaussian weight
               sqrt(N / (2 pi g)) exp(-N (v + sqrt(cT) u rho)^2 / (2 g)).

The exponent is negative (a normalizable weight); completing squares gives

    kernel_0 = Phi(a0),                    a0 = A (fhat + B u)
    kernel_1 = c_pay Phi(a0) - (v0/f_div) E1 Phi(a0 - sqrt(z)/A)
    kernel_2 = -c_pay^2 Phi(a0) + 2 c_pay kernel_1
               + (v0/f_div)^2 E2 Phi(a0 - 2 sqrt(z)/A)

with E1 = exp(z g/(2N) - sqrt(z) B u + nu T) and E2 = E1^2 evaluated with
doubled exponent arguments.  The u factor is standardized: weights used by
the quadrature module are sqrt(N/(2 pi)) exp(-N u^2 / 2), with all sqrt(z)
factors explicit in the kernels.

On wide rules or in volatile markets the exponent of E1 or E2 can pass
709, where exp overflows although the term (v0/f_div)^j E_j Phi(a_j) is
finite.  Completing the square gives E_j phi(a_j) = (f_bound/v0)^j phi(a0),
so there the term is (f_bound/f_div)^j phi(a0) Phi(a_j) / phi(a_j), the
log-space product in closed form (:func:`_e_factors`); everywhere else the
kernels take the direct product.

The u-derivatives of orders 0 and 1 come from the same pass as the value:
the ``*_and_du`` functions return both, and the ``*_du`` functions are
their slope halves, so the slope formula lives in the kernel alone.

All functions broadcast over numpy arrays in z and u.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, ndtr

from .errors import ParameterError
from .params import MarketParams, SubordinationSpec

__all__ = [
    "norm_pdf",
    "tau",
    "tau_dz",
    "moment_senior",
    "moment_junior",
    "moment_plain",
    "moment_senior_and_du",
    "moment_senior_du",
    "moment_senior_dz",
    "junior_mean_target",
    "junior_mean_target_and_du",
    "junior_mean_target_du",
    "junior_mean_target_dz",
    "moment_plain_and_du",
]


def norm_pdf(x):
    """Standard normal density, elementwise."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _fhat(face, params: MarketParams, sqz):
    """Rescaled log default boundary, given sqrt(z); broadcasts over it."""
    return (math.log(face / params.v0) - params.drift_adj * params.t_mat) / sqz


def _coeffs(params: MarketParams):
    """(A, B, g, nuT) for the kernel formulas."""
    g = (1.0 - params.c) * params.t_mat * params.rho**2
    a_coef = math.sqrt(params.n_fluct / g)
    b_coef = math.sqrt(params.c * params.t_mat) * params.rho
    return a_coef, b_coef, g, params.drift_adj * params.t_mat


# exp overflows above log(DBL_MAX) ~ 709.78.  The margin of e^9.78 ~ 1.8e4
# covers the factor (sqrt(z) + A) B that the u slope multiplies a term by:
# an exponent nears 700 only where N / g is small, and A = sqrt(N / g).
_EXP_MAX = 700.0


def _e_factors(j, exponent, a_j, a0, ratio, bound_ratio, factor=1.0):
    """The factors (E_j, Phi(a_j)) of the term ratio^j E_j Phi(a_j) of
    kernel_j, with E_j = exp(exponent), and the mask of the elements where
    they are rescaled (None where there are none).

    Where the term can overflow, with exponent + j max(0, log ratio) +
    log max(1, factor) above ``_EXP_MAX``, an element gets
    (E_j phi(a_j), Phi(a_j) / phi(a_j)) instead, and phi(a_j) is 1 there
    (:func:`_pdf`), so every term ratio^j E_j (alpha Phi(a_j) +
    beta phi(a_j)) keeps its value.  Completing the square gives
    E_j phi(a_j) = (f_bound / v0)^j phi(a0) exactly, so the rescaled
    factors are finite wherever the term is: this is the log-space product
    exp(j log ratio + x_j + log Phi(a_j)) in closed form.  ``factor``
    bounds a larger multiplier of ratio^j E_j than the margin covers.  One
    max per call, over the elements that are not NaN, decides whether any
    element needs this; the other elements keep the direct factors, bit
    for bit.
    """
    margin = j * max(0.0, math.log(ratio)) + math.log(max(1.0, factor))
    if not np.fmax.reduce(exponent, axis=None, initial=-np.inf) + margin > _EXP_MAX:
        return np.exp(exponent), ndtr(a_j), None
    big = exponent + margin > _EXP_MAX
    e = np.where(big, bound_ratio**j * norm_pdf(a0), np.exp(np.where(big, 0.0, exponent)))
    # Phi(a) / phi(a) = sqrt(pi / 2) erfcx(-a / sqrt(2)), taken where rescaled
    mills = math.sqrt(0.5 * math.pi) * erfcx(np.where(big, a_j, 0.0) / -math.sqrt(2.0))
    return e, np.where(big, mills, ndtr(a_j)), big


def _pdf(a, big):
    """phi(a), and 1 where :func:`_e_factors` rescaled."""
    return norm_pdf(a) if big is None else np.where(big, 1.0, norm_pdf(a))


def _kernel(j, c_pay, f_div, f_bound, z, u, params: MarketParams, du=False):
    """kernel_j; with ``du`` (j in {0, 1}), the list of pairs
    (kernel_i, d kernel_i / du) for i = 0..j instead, all from one pass:
    sqrt(z), a0, E1 and Phi(a1) serve the values and the slopes alike, and
    each value is the same number either way."""
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(z <= 0):
        raise ParameterError("z must be > 0")
    a_coef, b_coef, g, nu_t = _coeffs(params)
    sqz = np.sqrt(z)
    a0 = a_coef * (_fhat(f_bound, params, sqz) + b_coef * u)
    k0 = ndtr(a0)
    d0 = norm_pdf(a0) * a_coef * b_coef if du else None
    if j == 0:
        return [(k0, d0)] if du else k0
    ratio, bound_ratio = params.v0 / f_div, f_bound / params.v0
    a1 = a0 - sqz / a_coef
    e1, p1, big = _e_factors(
        1, z * g / (2.0 * params.n_fluct) - sqz * b_coef * u + nu_t, a1, a0, ratio, bound_ratio
    )
    k1 = c_pay * k0 - ratio * e1 * p1
    if du:
        d1 = c_pay * d0 - ratio * e1 * (-sqz * b_coef * p1 + _pdf(a1, big) * a_coef * b_coef)
        return [(k0, d0), (k1, d1)]
    if j == 1:
        return k1
    e2, p2, _ = _e_factors(
        2, 2.0 * z * g / params.n_fluct - 2.0 * sqz * b_coef * u + 2.0 * nu_t,
        a0 - 2.0 * sqz / a_coef, a0, ratio, bound_ratio,
    )
    return -(c_pay**2) * k0 + 2.0 * c_pay * k1 + ratio**2 * e2 * p2


def _kernel_dz(j, c_pay, f_div, f_bound, z, u, params: MarketParams):
    """Exact d(kernel_j)/dz for j in {0, 1}."""
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    a_coef, b_coef, g, nu_t = _coeffs(params)
    sqz = np.sqrt(z)
    fh = _fhat(f_bound, params, sqz)
    a0 = a_coef * (fh + b_coef * u)
    # d fhat / dz = -fhat / (2 z)
    da0 = a_coef * (-fh / (2.0 * z))
    d0 = norm_pdf(a0) * da0
    if j == 0:
        return d0
    ratio = params.v0 / f_div
    a1 = a0 - sqz / a_coef
    # d(log E1)/dz, which multiplies E1 by up to about g / (2N): large
    # where N is small
    dx1 = g / (2.0 * params.n_fluct) - b_coef * u / (2.0 * sqz)
    e1, p1, big = _e_factors(
        1, z * g / (2.0 * params.n_fluct) - sqz * b_coef * u + nu_t, a1, a0, ratio,
        f_bound / params.v0, np.fmax.reduce(np.abs(dx1), axis=None, initial=0.0),
    )
    de1 = e1 * dx1
    da1 = da0 - 1.0 / (2.0 * a_coef * sqz)
    return c_pay * d0 - ratio * (de1 * p1 + e1 * _pdf(a1, big) * da1)


_SENIOR = "senior"
_JUNIOR = "junior"


def _tau_setup(iota: str, lam: str, faces: SubordinationSpec):
    """Map the (payoff, boundary) pair to kernel constants.

    The payoff index selects the loss fraction being measured: the senior
    payoff is (1 - V/F_senior), scale 1 and divisor F_senior; the junior
    payoff is (F - V)/F_junior, scale F/F_junior and divisor F_junior.  The
    boundary index selects the default region: 'senior' means V below
    F_senior (the senior creditor is hit), 'junior' means V below the total
    face F (any default at all).
    """
    if iota == _SENIOR:
        if not (faces.f_senior > 0):
            raise ParameterError("senior payoff needs f_senior > 0")
        c_pay, f_div = 1.0, faces.f_senior
    elif iota == _JUNIOR:
        c_pay, f_div = faces.f_total / faces.f_junior, faces.f_junior
    else:
        raise ParameterError(f"iota must be 'senior' or 'junior', got {iota!r}")
    if lam == _SENIOR:
        if not (faces.f_senior > 0):
            raise ParameterError("senior boundary needs f_senior > 0")
        f_bound = faces.f_senior
    elif lam == _JUNIOR:
        f_bound = faces.f_total
    else:
        raise ParameterError(f"lam must be 'senior' or 'junior', got {lam!r}")
    return c_pay, f_div, f_bound


def tau(j: int, iota: str, lam: str, z, u, faces: SubordinationSpec, params: MarketParams):
    """Order-j conditional moment kernel for payoff ``iota`` on the default
    region bounded by ``lam``.

    Parameters
    ----------
    j : {0, 1, 2}
        Moment order.
    iota, lam : {'senior', 'junior'}
        Payoff family and boundary family; see module docstring.
    z, u : array_like
        Scale variable (> 0) and standardized common factor.
    """
    if j not in (0, 1, 2):
        raise ParameterError(f"j must be 0, 1 or 2, got {j}")
    c_pay, f_div, f_bound = _tau_setup(iota, lam, faces)
    return _kernel(j, c_pay, f_div, f_bound, z, u, params)


def _tau_and_du(j, iota, lam, z, u, faces, params):
    """The pairs (tau_i, d tau_i / du) for i = 0..j from one kernel pass."""
    if j not in (0, 1):
        raise ParameterError("derivatives implemented for j in {0, 1}")
    c_pay, f_div, f_bound = _tau_setup(iota, lam, faces)
    return _kernel(j, c_pay, f_div, f_bound, z, u, params, du=True)


def tau_dz(j: int, iota: str, lam: str, z, u, faces: SubordinationSpec, params: MarketParams):
    """Exact z-derivative of :func:`tau`; orders 0 and 1 only."""
    if j not in (0, 1):
        raise ParameterError("derivatives implemented for j in {0, 1}")
    c_pay, f_div, f_bound = _tau_setup(iota, lam, faces)
    return _kernel_dz(j, c_pay, f_div, f_bound, z, u, params)


# ---------------------------------------------------------------------------
# moment families


def moment_senior(j: int, z, u, faces: SubordinationSpec, params: MarketParams):
    """Conditional moment of the senior loss fraction, E[(l_senior)^j | z, u].

    Zero face is allowed and gives exactly 0 (the senior default region is
    empty).  Values lie in [0, 1] and decrease in j.
    """
    if faces.f_senior == 0:
        return np.zeros(np.broadcast(np.asarray(z), np.asarray(u)).shape)
    return tau(j, _SENIOR, _SENIOR, z, u, faces, params)


def moment_junior(j: int, z, u, faces: SubordinationSpec, params: MarketParams):
    """Conditional moment of the junior loss over the junior-only band,
    E[(l_junior)^j ; senior face < V < total face | z, u].

    The full junior moment adds the total-wipeout part, see
    :func:`junior_mean_target` for the j = 1 combination.
    """
    full = tau(j, _JUNIOR, _JUNIOR, z, u, faces, params)
    if faces.f_senior == 0:
        return full
    return full - tau(j, _JUNIOR, _SENIOR, z, u, faces, params)


def moment_plain(j: int, z, u, face: float, params: MarketParams):
    """Conditional moment of the undivided loss (single creditor class),
    E[((F - V)/F)^j ; V < F | z, u]."""
    if j not in (0, 1, 2):
        raise ParameterError(f"j must be 0, 1 or 2, got {j}")
    if not (face > 0):
        raise ParameterError(f"face must be > 0, got {face}")
    return _kernel(j, 1.0, face, face, z, u, params)


def moment_senior_and_du(j, z, u, faces, params):
    """(:func:`moment_senior`, its exact u-derivative) for j in {0, 1}, from
    one kernel pass."""
    if faces.f_senior == 0:
        zero = np.zeros(np.broadcast(np.asarray(z), np.asarray(u)).shape)
        return zero, zero
    return _tau_and_du(j, _SENIOR, _SENIOR, z, u, faces, params)[j]


def moment_senior_du(j, z, u, faces, params):
    return moment_senior_and_du(j, z, u, faces, params)[1]


def moment_senior_dz(j, z, u, faces, params):
    if faces.f_senior == 0:
        return np.zeros(np.broadcast(np.asarray(z), np.asarray(u)).shape)
    return tau_dz(j, _SENIOR, _SENIOR, z, u, faces, params)


def junior_mean_target(z, u, faces: SubordinationSpec, params: MarketParams):
    """Conditional mean of the junior loss fraction, wipeout plus band:
    m_senior_0 + m_junior_1.  This is the quantity the junior implicit
    solve inverts."""
    return moment_senior(0, z, u, faces, params) + moment_junior(1, z, u, faces, params)


def junior_mean_target_and_du(z, u, faces, params):
    """(:func:`junior_mean_target`, its exact u-derivative) from two kernel
    passes: the senior boundary's pass gives the wipeout term (order 0) and
    the band's bound (order 1) together."""
    _, (full, d) = _tau_and_du(1, _JUNIOR, _JUNIOR, z, u, faces, params)
    if faces.f_senior == 0:
        return full, d
    (m_s, d_s), (band, d_band) = _tau_and_du(1, _JUNIOR, _SENIOR, z, u, faces, params)
    return m_s + (full - band), d_s + d - d_band


def junior_mean_target_du(z, u, faces, params):
    return junior_mean_target_and_du(z, u, faces, params)[1]


def junior_mean_target_dz(z, u, faces, params):
    d = tau_dz(1, _JUNIOR, _JUNIOR, z, u, faces, params)
    if faces.f_senior == 0:
        return d
    return (
        moment_senior_dz(0, z, u, faces, params)
        + d
        - tau_dz(1, _JUNIOR, _SENIOR, z, u, faces, params)
    )


def moment_plain_and_du(j, z, u, face, params):
    """(:func:`moment_plain`, its exact u-derivative) for j in {0, 1}, from
    one kernel pass."""
    if j not in (0, 1):
        raise ParameterError("derivatives implemented for j in {0, 1}")
    if not (face > 0):
        raise ParameterError(f"face must be > 0, got {face}")
    return _kernel(j, 1.0, face, face, z, u, params, du=True)[j]
