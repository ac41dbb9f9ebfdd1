"""Deterministic quadrature for the compound average.

Two weights appear everywhere in this package, in the mixing variables on
their natural scale (see :mod:`portloss.moments`): the law of s = z / N,
z chi-square with N degrees of freedom, a Gamma variable with mean 1 and
variance 2/N over (0, inf), and the standard normal law of each common
factor v = sqrt(N) u over the real line.  Fixed rules map these onto
generalized Gauss-Laguerre and Gauss-Hermite nodes; the Hermite rule is
the same for every N.

Both rules are built by Golub and Welsch (1969): the nodes are the
eigenvalues of the symmetric Jacobi matrix of the Laguerre or Hermite
recurrence, and the weights come from the orthonormal recurrence of the
probability measure itself, so no Gamma(N/2) normalization can overflow
and no weight is NaN at any node count.  Only numpy's dense ``eigvalsh``
is needed, which keeps ``scipy.linalg`` out of every run.

The rule for s is computed per (n_fluct, count) pair and the rule for v
per count, and both are reused; integrands are only ever evaluated lazily
at the node sets.  :func:`chi2_nodes` and :func:`gauss_nodes` give fresh
rules in the model's z and u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from .errors import ParameterError

__all__ = [
    "QuadratureSpec",
    "chi2_nodes",
    "gauss_nodes",
    "chi2_log_weight",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration settings shared by all analytic operations.

    mode 'fixed' uses the tensor rules with the given node counts; mode
    'adaptive' lets the subordinated density build a localized node table
    for each point or grid cell, falling back to a dense rule of at least
    128 x 128 nodes where no unique crossing localizes it.  ``rel_tol`` is
    validated but nothing reads it yet.

    Both rules are finite for every count in the range and every
    ``n_fluct`` a market accepts (``params.N_FLUCT_MIN`` and up); each
    costs O(count^3) to build, about a millisecond at 64 nodes, and is
    cached.

    The constructor owns every range: integer node counts in [8, 512] and
    ``rel_tol`` in (0, 1e-3].  Scenario documents state only the types, so
    a ``quadrature`` block is accepted exactly when this constructor
    accepts it.
    """

    z_nodes: int = 64
    u_nodes: int = 64
    mode: str = "fixed"
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (8 <= self.z_nodes <= 512 and 8 <= self.u_nodes <= 512):
            raise ParameterError("node counts must be in [8, 512]")
        if self.z_nodes % 1 or self.u_nodes % 1:
            raise ParameterError("node counts must be integers")
        # the rules need int counts; a document may spell one as 64.0
        object.__setattr__(self, "z_nodes", int(self.z_nodes))
        object.__setattr__(self, "u_nodes", int(self.u_nodes))
        if self.mode not in ("fixed", "adaptive"):
            raise ParameterError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if not (0 < self.rel_tol <= 1e-3):
            raise ParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")


def _recurrence(t, diag, off):
    """The orthonormal polynomials p_0..p_m at t of the probability measure
    whose Jacobi matrix has diagonal ``diag`` and off-diagonal ``off``, with
    m = len(off): returns sum_{k<m} p_k(t)^2, p_{m-1}(t) and p_m(t)."""
    with np.errstate(all="ignore"):
        p_prev, p = np.zeros_like(t), np.ones_like(t)
        total = np.zeros_like(t)
        for j in range(len(off)):
            total += p * p
            p_prev, p = p, ((t - diag[j]) * p - (off[j - 1] if j else 0.0) * p_prev) / off[j]
    return total, p_prev, p


def _christoffel_weights(total):
    """Gauss weights 1 / sum_k p_k^2 (the Christoffel function), 0 where
    that sum overflows, normalized to sum to 1."""
    w = np.where(np.isfinite(total), 1.0 / total, 0.0)
    return w / w.sum()


def _jacobi_nodes(diag, off):
    """Eigenvalues of the symmetric tridiagonal matrix with ``diag`` and
    ``off``, ascending."""
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=64)
def _scale_rule(n_fluct: float, count: int):
    """Nodes and weights integrating f(s) against the law of s = z / N, z
    chi-square with N degrees of freedom: a Gamma(N/2) variable with mean 1
    and variance 2/N.  The rule is exact for polynomials in s up to degree
    2*count - 1.

    In t = N s / 2 the weight is t^a e^-t with a = N/2 - 1, the generalized
    Gauss-Laguerre weight, whose Jacobi matrix has diagonal 2k + a + 1 and
    off-diagonal sqrt(k (k + a)).  The matrix is divided by N/2, with each
    square root taken apart so that nothing overflows at any N, and its
    eigenvalues are the nodes s.  Each is polished by one Newton step on
    the Laguerre polynomial in t wherever that step is finite.  As N grows
    the nodes gather at 1 with spread sqrt(2/N) and, once that spread is
    below the rounding of 1, coincide with it, which is the law of s there.
    The diagonal is then exactly 1 too, so the Christoffel sums at the
    collapsed nodes stay finite, where in t the nodes' rounding errors
    would pass their spread and overflow every sum.
    """
    half = n_fluct / 2.0
    a = half - 1.0
    k = np.arange(count + 1, dtype=float)
    diag = (2.0 * k[:-1] + a + 1.0) / half
    off = np.sqrt(k[1:] / half) * np.sqrt((k[1:] + a) / half)
    s = _jacobi_nodes(diag, off[:-1])
    with np.errstate(all="ignore"):
        t = half * s
        y = eval_genlaguerre(count, a, t)
        step = y / ((count * y - (count + a) * eval_genlaguerre(count - 1, a, t)) / t)
        s = np.where(np.isfinite(step), (t - step) / half, s)
    return s, _christoffel_weights(_recurrence(s, diag, off)[0])


@lru_cache(maxsize=None)
def _normal_rule(count: int):
    """Nodes and weights integrating f(v) against the standard normal
    density, the same for every N.

    The Gauss-Hermite nodes x of the weight e^(-x^2) are the eigenvalues of
    the Jacobi matrix with zero diagonal and off-diagonal sqrt(k/2),
    polished by one Newton step on the orthonormal p_count, whose
    derivative is sqrt(2 count) p_{count-1}, with Christoffel weights.  Up
    to 512 nodes every |x| < 31.5, so the step is finite.  Nodes and
    weights are then made exactly symmetric, and v = sqrt(2) x.
    """
    diag = np.zeros(count)
    off = np.sqrt(np.arange(1, count + 1) / 2.0)
    x = _jacobi_nodes(diag, off[:-1])
    _, p_prev, p = _recurrence(x, diag, off)
    x = x - p / (math.sqrt(2.0 * count) * p_prev)
    x = 0.5 * (x - x[::-1])
    w = _christoffel_weights(_recurrence(x, diag, off)[0])
    return x * math.sqrt(2.0), 0.5 * (w + w[::-1])


def chi2_nodes(n_fluct: float, count: int):
    """Nodes z = N s and weights of a fresh (uncached) chi-square(N) rule;
    see :func:`_scale_rule`, which the package integrates with."""
    s, w = _scale_rule.__wrapped__(n_fluct, count)
    return n_fluct * s, w


def gauss_nodes(n_fluct: float, count: int):
    """Nodes u = v / sqrt(N) and weights of a fresh (uncached) rule for the
    N(0, 1/N) common factor; see :func:`_normal_rule`, which the package
    integrates with."""
    v, w = _normal_rule.__wrapped__(count)
    return v / math.sqrt(n_fluct), w


def chi2_log_weight(z, n_fluct: float):
    """Log of the chi-square(N) density at z; broadcasts.

    It is taken through s = z / N, with h = N / 2, as c(h) + h (log s -
    (s - 1)) - log s - log N, where c(h) = h log h - h - log Gamma(h) comes
    from Stirling's series above h = 20.  No term then grows with N: in the
    direct form (h - 1) log z - z / 2 - h log 2 - log Gamma(h) each term
    is of order N log N, and at N = 1e14 their rounding moved the log
    density by 0.1."""
    s = np.asarray(z, dtype=float) / n_fluct
    half = n_fluct / 2.0
    if half < 20.0:
        const = half * math.log(half) - half - gammaln(half)
    else:
        inv2 = 1.0 / (half * half)
        stirling = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / half
        const = 0.5 * math.log(half / (2.0 * math.pi)) - stirling
    log_s = np.log(s)
    return const + half * (log_s - (s - 1.0)) - log_s - math.log(n_fluct)
