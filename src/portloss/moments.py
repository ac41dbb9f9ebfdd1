"""Closed-form conditional loss moments.

Everything downstream (densities, limits, correlations) is built from the
conditional moments of a single obligor's loss given the two mixing
variables.  The model has a chi-square scale z with N degrees of freedom
and a common Gaussian factor u of variance 1/N, but the moments depend on
them only through s = z / N, a Gamma variable with mean 1 and variance
2/N, and v = sqrt(N) u, a standard normal.  The kernels, their slopes and
every solve on them work in (s, v), where each quantity is O(1) for every
N, and the N -> infinity member of the model (s = 1, the frozen one-factor
market) needs no special case.  The moments are Gaussian integrals of
(a - b e^x)^j over a half line and therefore reduce to expressions in the
standard normal CDF; this module implements the reductions and their exact
s and v derivatives.

Conventions
-----------
With nu = mu - rho^2/2, g = (1 - c) T rho^2, B = sqrt(c T) rho and
L = log(f_bound / v0) - nu T, a moment kernel of order j with payoff scale
``c_pay``, payoff divisor face ``f_div`` and default boundary face
``f_bound`` is

    kernel_j = E[(c_pay - (v0 / f_div) exp(sqrt(g s) y - sqrt(s) B v + nu T))^j ;
                 sqrt(g s) y - sqrt(s) B v + nu T < log(f_bound / v0)]

over a standard normal y, the firm's own shock.  Completing squares gives

    kernel_0 = Phi(a0),          a0 = L / sqrt(g s) + B v / sqrt(g)
    kernel_1 = c_pay Phi(a0) - (v0/f_div) E1 Phi(a1),      a1 = a0 - sqrt(g s)
    kernel_2 = -c_pay^2 Phi(a0) + 2 c_pay kernel_1
               + (v0/f_div)^2 E2 Phi(a2),                  a2 = a0 - 2 sqrt(g s)

with E1 = exp(s g / 2 - sqrt(s) B v + nu T) and E2 = exp(2 s g -
2 sqrt(s) B v + 2 nu T).

On wide rules or in volatile markets the exponent of E1 or E2 can pass
709, where exp overflows although the term (v0/f_div)^j E_j Phi(a_j) is
finite.  Completing the square gives E_j phi(a_j) = (f_bound/v0)^j phi(a0),
so there the term is (f_bound/f_div)^j phi(a0) Phi(a_j) / phi(a_j), the
log-space product in closed form (:func:`_e_factors`); everywhere else the
kernels take the direct product.

One pass of the kernel for one (payoff, boundary) pair gives every order
0..j and, on request, the exact v- and s-slopes of orders 0 and 1, so each
formula lives in the kernel alone.  The moment families are built on that
pass and return the triple (values, dv, ds) of orders 0..j:
:func:`senior_moments` and :func:`plain_moments` take one pass,
:func:`junior_band_moments` the total-face pass minus the senior-face pass,
and :func:`junior_mean_target` (one order) two passes.  A caller takes
everything it needs at a set of points from one pass per pair.

All functions broadcast over numpy arrays in s and v.  The one-point
functions :func:`tau`, :func:`moment_senior` and
:func:`junior_mean_target_du` take the model's (z, u) and convert once.
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


def _coeffs(params: MarketParams):
    """(g, B, nu T) for the kernel formulas."""
    g = (1.0 - params.c) * params.t_mat * params.rho**2
    b_coef = math.sqrt(params.c * params.t_mat) * params.rho
    return g, b_coef, params.drift_adj * params.t_mat


def _natural(z, u, params: MarketParams):
    """The model's (z, u) as (s, v) = (z / N, sqrt(N) u)."""
    n = params.n_fluct
    return np.asarray(z, dtype=float) / n, math.sqrt(n) * np.asarray(u, dtype=float)


# exp overflows above log(DBL_MAX) ~ 709.78; the margin of e^9.78 ~ 1.8e4
# covers rounding and the payoff factor, and a slope's larger multiplier of
# E_j is passed to _e_factors as its ``factor``.
_EXP_MAX = 700.0


def _e_factors(j, exponent, a_j, a0, ratio, bound_ratio, factor=1.0):
    """The factors (E_j, Phi(a_j)) of the term ratio^j E_j Phi(a_j) of
    kernel_j, with E_j = exp(exponent), and the mask of the elements where
    they are rescaled (None where there are none).

    Where the term can overflow, with exponent + j log max(1, ratio) +
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
    margin = j * math.log(max(1.0, ratio)) + math.log(max(1.0, factor))
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


def _kernel(j, c_pay, f_div, f_bound, s, v, params: MarketParams, dv=False, ds=False):
    """Orders 0..j of the kernel from one pass at (s, v), as the triple
    (values, dv, ds): ``values`` lists kernel_0..kernel_j, and ``dv`` and
    ``ds``, when asked for, list d kernel_i / dv and d kernel_i / ds for
    i = 0..min(j, 1) (None when not).  sqrt(s), a0, E1 and Phi(a1) serve
    every order and slope; a slope's own terms are built only when it is
    asked for.  A slope's multiplier of E1, sqrt(s) B + B / sqrt(g) for
    ``dv`` and d(log E1)/ds for ``ds``, joins the E1 overflow test."""
    if j not in (0, 1, 2):
        raise ParameterError(f"j must be 0, 1 or 2, got {j}")
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(s <= 0):
        raise ParameterError("s must be > 0")
    g, b_coef, nu_t = _coeffs(params)
    root_g = math.sqrt(g)
    sqs = np.sqrt(s)
    fh = (math.log(f_bound / params.v0) - nu_t) / (root_g * sqs)
    slope_v = b_coef / root_g  # d a_j / dv
    a0 = fh + slope_v * v
    k = [ndtr(a0)]
    pdf0 = norm_pdf(a0) if dv or ds else None
    k_dv = [pdf0 * slope_v] if dv else None
    k_ds = None
    if ds:
        da0 = -fh / (2.0 * s)
        k_ds = [pdf0 * da0]
    if j == 0:
        return k, k_dv, k_ds
    ratio, bound_ratio = params.v0 / f_div, f_bound / params.v0
    a1 = a0 - root_g * sqs
    factor = 0.0
    if dv:
        factor = b_coef * np.fmax.reduce(sqs, axis=None, initial=0.0) + slope_v
    if ds:
        dx1 = 0.5 * g - b_coef * v / (2.0 * sqs)
        factor = max(factor, np.fmax.reduce(np.abs(dx1), axis=None, initial=0.0))
    e1, p1, big = _e_factors(
        1, 0.5 * s * g - sqs * b_coef * v + nu_t, a1, a0, ratio, bound_ratio, factor,
    )
    k.append(c_pay * k[0] - ratio * e1 * p1)
    pdf1 = _pdf(a1, big) if dv or ds else None
    if dv:
        k_dv.append(c_pay * k_dv[0] - ratio * e1 * (-sqs * b_coef * p1 + pdf1 * slope_v))
    if ds:
        da1 = da0 - root_g / (2.0 * sqs)
        k_ds.append(c_pay * k_ds[0] - ratio * (e1 * dx1 * p1 + e1 * pdf1 * da1))
    if j == 2:
        e2, p2, _ = _e_factors(
            2, 2.0 * s * g - 2.0 * sqs * b_coef * v + 2.0 * nu_t,
            a0 - 2.0 * root_g * sqs, a0, ratio, bound_ratio,
        )
        k.append(-(c_pay**2) * k[0] + 2.0 * c_pay * k[1] + ratio**2 * e2 * p2)
    return k, k_dv, k_ds


_SENIOR = "senior"
_JUNIOR = "junior"


def _pass(j, iota: str, lam: str, s, v, faces: SubordinationSpec, params, dv=False, ds=False):
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
    return _kernel(j, c_pay, f_div, f_bound, s, v, params, dv, ds)


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
        Chi-square scale variable (> 0) and common factor of variance 1/N.
    """
    return _pass(j, iota, lam, *_natural(z, u, params), faces, params)[0][j]


# ---------------------------------------------------------------------------
# moment families
#
# Each family returns the triple (values, dv, ds) of :func:`_kernel` at
# (s, v): orders 0..j, and the v- and s-slopes of orders 0 and 1 where
# asked for.


def senior_moments(j: int, s, v, faces: SubordinationSpec, params: MarketParams,
                   dv=False, ds=False):
    """Conditional moments of the senior loss fraction, E[(l_senior)^i | s,
    v] for i = 0..j, from one pass.

    Zero face is allowed and gives exactly 0 (the senior default region is
    empty).  Values lie in [0, 1] and decrease in i.
    """
    if faces.f_senior == 0:
        zero = np.zeros(np.broadcast(np.asarray(s), np.asarray(v)).shape)
        slopes = [zero] * min(j + 1, 2)
        return [zero] * (j + 1), slopes if dv else None, slopes if ds else None
    return _pass(j, _SENIOR, _SENIOR, s, v, faces, params, dv, ds)


def moment_senior(j: int, z, u, faces: SubordinationSpec, params: MarketParams):
    """The order-j senior moment alone at the model's (z, u); see
    :func:`senior_moments`."""
    return senior_moments(j, *_natural(z, u, params), faces, params)[0][j]


def junior_band_moments(j: int, s, v, faces: SubordinationSpec, params: MarketParams,
                        dv=False, ds=False):
    """Conditional moments of the junior loss over the junior-only band,
    E[(l_junior)^i ; senior face < V < total face | s, v] for i = 0..j:
    the total-face pass minus the senior-face pass.

    The full junior moment adds the total-wipeout part, see
    :func:`junior_mean_target` for the i = 1 combination.
    """
    full = _pass(j, _JUNIOR, _JUNIOR, s, v, faces, params, dv, ds)
    if faces.f_senior == 0:
        return full
    cut = _pass(j, _JUNIOR, _SENIOR, s, v, faces, params, dv, ds)
    return tuple(None if f is None else [a - b for a, b in zip(f, c)] for f, c in zip(full, cut))


def plain_moments(j: int, s, v, face: float, params: MarketParams, dv=False, ds=False):
    """Conditional moments of the undivided loss (single creditor class),
    E[((F - V)/F)^i ; V < F | s, v] for i = 0..j, from one pass."""
    if not (face > 0):
        raise ParameterError(f"face must be > 0, got {face}")
    return _kernel(j, 1.0, face, face, s, v, params, dv, ds)


def junior_mean_target(s, v, faces: SubordinationSpec, params: MarketParams, dv=False, ds=False):
    """Conditional mean of the junior loss fraction, wipeout plus band:
    m_senior_0 + m_junior_1, the quantity the junior implicit solve
    inverts.  Returns (mean, d mean / dv, d mean / ds), a slope None unless
    asked for, from two passes: the senior-face pass gives the wipeout term
    (its order 0) and the band's bound (its order 1) together."""
    (_, full), *full_slopes = _pass(1, _JUNIOR, _JUNIOR, s, v, faces, params, dv, ds)
    if faces.f_senior == 0:
        return (full, *(None if d is None else d[1] for d in full_slopes))
    (m_s, band), *cut_slopes = _pass(1, _JUNIOR, _SENIOR, s, v, faces, params, dv, ds)
    return (m_s + (full - band), *(
        None if d is None else c[0] + d[1] - c[1] for d, c in zip(full_slopes, cut_slopes)
    ))


def junior_mean_target_du(z, u, faces: SubordinationSpec, params: MarketParams):
    """d/du of :func:`junior_mean_target` at the model's (z, u):
    sqrt(N) times its v-slope."""
    slope = junior_mean_target(*_natural(z, u, params), faces, params, dv=True)[1]
    return math.sqrt(params.n_fluct) * slope
