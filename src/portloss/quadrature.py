"""Deterministic quadrature for the compound average.

Two weights appear everywhere in this package: a normalized chi-square
density in the scale variable z over (0, inf), and a standardized Gaussian
weight sqrt(N/(2 pi)) exp(-N u^2 / 2) in each common factor u over the real
line.  Fixed rules map these onto generalized Gauss-Laguerre and
Gauss-Hermite nodes.

Both rules are built by Golub and Welsch (1969): the nodes are the
eigenvalues of the symmetric Jacobi matrix of the Laguerre or Hermite
recurrence, and the weights come from the orthonormal recurrence of the
probability measure itself, so no Gamma(N/2) normalization can overflow
and no weight is NaN at any node count.  Only numpy's dense ``eigvalsh``
is needed, which keeps ``scipy.linalg`` out of every run.

Node and weight arrays are computed per (count, n_fluct) pair and reused;
integrands are only ever evaluated lazily at the node sets.
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
    ``n_fluct`` > 0; each costs O(count^3) to build, about a millisecond at
    64 nodes, and is cached.

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
def chi2_nodes(n_fluct: float, count: int):
    """Nodes and weights integrating f against the chi-square(N) density.

    Substituting z = 2t turns the weight into t^(N/2-1) e^-t, a generalized
    Gauss-Laguerre weight with exponent a = N/2 - 1; the rule is exact for
    polynomials in z up to degree 2*count - 1.

    The nodes t are the eigenvalues of the Jacobi matrix with diagonal
    2k + a + 1 and off-diagonal sqrt(k (k + a)), polished by one Newton step
    on the Laguerre polynomial wherever that step is finite.  The weight of
    node t is 1 / sum_k p_k(t)^2 over the orthonormal polynomials p_0..p_{count-1}
    of the probability measure (the Christoffel function), which is 0 where
    that sum overflows; the weights are then normalized to sum to 1.
    """
    a = n_fluct / 2.0 - 1.0
    k = np.arange(count + 1, dtype=float)
    diag = 2.0 * k[:-1] + a + 1.0
    off = np.sqrt(k[1:] * (k[1:] + a))
    t = _jacobi_nodes(diag, off[:-1])
    with np.errstate(all="ignore"):
        y = eval_genlaguerre(count, a, t)
        step = y / ((count * y - (count + a) * eval_genlaguerre(count - 1, a, t)) / t)
        t = np.where(np.isfinite(step), t - step, t)
    return 2.0 * t, _christoffel_weights(_recurrence(t, diag, off)[0])


@lru_cache(maxsize=64)
def gauss_nodes(n_fluct: float, count: int):
    """Nodes and weights integrating g against sqrt(N/2pi) e^(-N u^2/2).

    The Gauss-Hermite nodes v of the weight e^(-v^2) are built as the
    chi-square rule is: the eigenvalues of the Jacobi matrix with zero
    diagonal and off-diagonal sqrt(k/2), polished by one Newton step on the
    orthonormal p_count, whose derivative is sqrt(2 count) p_{count-1},
    with Christoffel weights.  Up to 512 nodes every |v| < 31.5, so the
    polynomials stay below e^500 and the step is finite.  Nodes and
    weights are then made exactly symmetric.  The nodes in u are
    v sqrt(2/N).
    """
    diag = np.zeros(count)
    off = np.sqrt(np.arange(1, count + 1) / 2.0)
    v = _jacobi_nodes(diag, off[:-1])
    _, p_prev, p = _recurrence(v, diag, off)
    v = v - p / (math.sqrt(2.0 * count) * p_prev)
    v = 0.5 * (v - v[::-1])
    w = _christoffel_weights(_recurrence(v, diag, off)[0])
    return v * math.sqrt(2.0 / n_fluct), 0.5 * (w + w[::-1])


def chi2_log_weight(z, n_fluct: float):
    """Log of the chi-square(N) density at z; broadcasts."""
    z = np.asarray(z, dtype=float)
    half = n_fluct / 2.0
    return (half - 1.0) * np.log(z) - z / 2.0 - half * math.log(2.0) - gammaln(half)
