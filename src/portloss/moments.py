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

One pass of the kernel for one (payoff, boundary) pair gives every order
0..j and, on request, the exact u- and z-slopes of orders 0 and 1, so each
formula lives in the kernel alone.  The moment families are built on that
pass and return the triple (values, du, dz) of orders 0..j:
:func:`senior_moments` and :func:`plain_moments` take one pass,
:func:`junior_band_moments` the total-face pass minus the senior-face pass,
and :func:`junior_mean_target` (one order) two passes.  A caller takes
everything it needs at a set of points from one pass per pair.

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
    "senior_moments",
    "moment_senior",
    "junior_band_moments",
    "plain_moments",
    "junior_mean_target",
    "junior_mean_target_du",
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


def _kernel(j, c_pay, f_div, f_bound, z, u, params: MarketParams, du=False, dz=False):
    """Orders 0..j of the kernel from one pass, as the triple (values, du,
    dz): ``values`` lists kernel_0..kernel_j, and ``du`` and ``dz``, when
    asked for, list d kernel_i / du and d kernel_i / dz for i = 0..min(j, 1)
    (None when not).  sqrt(z), a0, E1 and Phi(a1) serve every order and
    slope; a slope's own terms are built only when it is asked for.  A
    value is the same number whether or not ``du`` is asked for.  With
    ``dz`` the E1 overflow test also covers d(log E1)/dz, which multiplies
    E1 in the z-slope."""
    if j not in (0, 1, 2):
        raise ParameterError(f"j must be 0, 1 or 2, got {j}")
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(z <= 0):
        raise ParameterError("z must be > 0")
    a_coef, b_coef, g, nu_t = _coeffs(params)
    sqz = np.sqrt(z)
    fh = _fhat(f_bound, params, sqz)
    a0 = a_coef * (fh + b_coef * u)
    k = [ndtr(a0)]
    pdf0 = norm_pdf(a0) if du or dz else None
    k_du = [pdf0 * a_coef * b_coef] if du else None
    k_dz = None
    if dz:
        # d fhat / dz = -fhat / (2 z)
        da0 = a_coef * (-fh / (2.0 * z))
        k_dz = [pdf0 * da0]
    if j == 0:
        return k, k_du, k_dz
    ratio, bound_ratio = params.v0 / f_div, f_bound / params.v0
    a1 = a0 - sqz / a_coef
    factor = 1.0
    if dz:
        # d(log E1)/dz, which multiplies E1 by up to about g / (2N): large
        # where N is small
        dx1 = g / (2.0 * params.n_fluct) - b_coef * u / (2.0 * sqz)
        factor = np.fmax.reduce(np.abs(dx1), axis=None, initial=0.0)
    e1, p1, big = _e_factors(
        1, z * g / (2.0 * params.n_fluct) - sqz * b_coef * u + nu_t, a1, a0, ratio, bound_ratio,
        factor,
    )
    k.append(c_pay * k[0] - ratio * e1 * p1)
    pdf1 = _pdf(a1, big) if du or dz else None
    if du:
        k_du.append(c_pay * k_du[0] - ratio * e1 * (-sqz * b_coef * p1 + pdf1 * a_coef * b_coef))
    if dz:
        da1 = da0 - 1.0 / (2.0 * a_coef * sqz)
        k_dz.append(c_pay * k_dz[0] - ratio * (e1 * dx1 * p1 + e1 * pdf1 * da1))
    if j == 2:
        e2, p2, _ = _e_factors(
            2, 2.0 * z * g / params.n_fluct - 2.0 * sqz * b_coef * u + 2.0 * nu_t,
            a0 - 2.0 * sqz / a_coef, a0, ratio, bound_ratio,
        )
        k.append(-(c_pay**2) * k[0] + 2.0 * c_pay * k[1] + ratio**2 * e2 * p2)
    return k, k_du, k_dz


_SENIOR = "senior"
_JUNIOR = "junior"


def _pass(j, iota: str, lam: str, z, u, faces: SubordinationSpec, params, du=False, dz=False):
    """One kernel pass for the payoff ``iota`` on the default region bounded
    by ``lam``: the triple of :func:`_kernel`.

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
    return _kernel(j, c_pay, f_div, f_bound, z, u, params, du, dz)


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
    return _pass(j, iota, lam, z, u, faces, params)[0][j]


# ---------------------------------------------------------------------------
# moment families
#
# Each family returns the triple (values, du, dz) of :func:`_kernel`: orders
# 0..j, and the u- and z-slopes of orders 0 and 1 where asked for.


def senior_moments(j: int, z, u, faces: SubordinationSpec, params: MarketParams,
                   du=False, dz=False):
    """Conditional moments of the senior loss fraction, E[(l_senior)^i | z,
    u] for i = 0..j, from one pass.

    Zero face is allowed and gives exactly 0 (the senior default region is
    empty).  Values lie in [0, 1] and decrease in i.
    """
    if faces.f_senior == 0:
        zero = np.zeros(np.broadcast(np.asarray(z), np.asarray(u)).shape)
        slopes = [zero] * min(j + 1, 2)
        return [zero] * (j + 1), slopes if du else None, slopes if dz else None
    return _pass(j, _SENIOR, _SENIOR, z, u, faces, params, du, dz)


def moment_senior(j: int, z, u, faces: SubordinationSpec, params: MarketParams):
    """The order-j senior moment alone; see :func:`senior_moments`."""
    return senior_moments(j, z, u, faces, params)[0][j]


def junior_band_moments(j: int, z, u, faces: SubordinationSpec, params: MarketParams,
                        du=False, dz=False):
    """Conditional moments of the junior loss over the junior-only band,
    E[(l_junior)^i ; senior face < V < total face | z, u] for i = 0..j:
    the total-face pass minus the senior-face pass.

    The full junior moment adds the total-wipeout part, see
    :func:`junior_mean_target` for the i = 1 combination.
    """
    full = _pass(j, _JUNIOR, _JUNIOR, z, u, faces, params, du, dz)
    if faces.f_senior == 0:
        return full
    cut = _pass(j, _JUNIOR, _SENIOR, z, u, faces, params, du, dz)
    return tuple(None if f is None else [a - b for a, b in zip(f, c)] for f, c in zip(full, cut))


def plain_moments(j: int, z, u, face: float, params: MarketParams, du=False, dz=False):
    """Conditional moments of the undivided loss (single creditor class),
    E[((F - V)/F)^i ; V < F | z, u] for i = 0..j, from one pass."""
    if not (face > 0):
        raise ParameterError(f"face must be > 0, got {face}")
    return _kernel(j, 1.0, face, face, z, u, params, du, dz)


def junior_mean_target(z, u, faces: SubordinationSpec, params: MarketParams, du=False, dz=False):
    """Conditional mean of the junior loss fraction, wipeout plus band:
    m_senior_0 + m_junior_1, the quantity the junior implicit solve
    inverts.  Returns (mean, d mean / du, d mean / dz), a slope None unless
    asked for, from two passes: the senior-face pass gives the wipeout term
    (its order 0) and the band's bound (its order 1) together."""
    (_, full), *full_slopes = _pass(1, _JUNIOR, _JUNIOR, z, u, faces, params, du, dz)
    if faces.f_senior == 0:
        return (full, *(None if s is None else s[1] for s in full_slopes))
    (m_s, band), *cut_slopes = _pass(1, _JUNIOR, _SENIOR, z, u, faces, params, du, dz)
    return (m_s + (full - band), *(
        None if s is None else c[0] + s[1] - c[1] for s, c in zip(full_slopes, cut_slopes)
    ))


def junior_mean_target_du(z, u, faces: SubordinationSpec, params: MarketParams):
    """The u-slope of :func:`junior_mean_target` alone."""
    return junior_mean_target(z, u, faces, params, du=True)[1]
