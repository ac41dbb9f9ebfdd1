"""Deterministic quadrature for the compound average.

Two weights appear everywhere in this package: a normalized chi-square
density in the scale variable z over (0, inf), and a standardized Gaussian
weight sqrt(N/(2 pi)) exp(-N u^2 / 2) in each common factor u over the real
line.  Fixed rules map these onto generalized Gauss-Laguerre and
Gauss-Hermite nodes.

The chi-square rule is built by Golub and Welsch (1969): its nodes are the
eigenvalues of the symmetric Jacobi matrix of the Laguerre recurrence, and
its weights come from the orthonormal recurrence of the chi-square
probability measure itself, so no Gamma(N/2) normalization can overflow.
Only numpy's dense ``eigvalsh`` is needed, which keeps ``scipy.linalg`` out
of every run.

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

    The chi-square rule is finite for every count in the range and every
    ``n_fluct`` > 0; it costs O(count^3) to build, about a millisecond at
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
    k = np.arange(count, dtype=float)
    diag = 2.0 * k + a + 1.0
    off = np.sqrt(k[1:] * (k[1:] + a))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(all="ignore"):
        y = eval_genlaguerre(count, a, t)
        step = y / ((count * y - (count + a) * eval_genlaguerre(count - 1, a, t)) / t)
        t = np.where(np.isfinite(step), t - step, t)
        p_prev, p = np.zeros_like(t), np.ones_like(t)
        total = np.ones_like(t)
        for j in range(count - 1):
            p_prev, p = p, ((t - diag[j]) * p - (off[j - 1] if j else 0.0) * p_prev) / off[j]
            total += p * p
    w = np.where(np.isfinite(total), 1.0 / total, 0.0)
    return 2.0 * t, w / w.sum()


@lru_cache(maxsize=64)
def gauss_nodes(n_fluct: float, count: int):
    """Nodes and weights integrating g against sqrt(N/2pi) e^(-N u^2/2)."""
    v, w = np.polynomial.hermite.hermgauss(count)
    return v * math.sqrt(2.0 / n_fluct), w / math.sqrt(math.pi)


def chi2_log_weight(z, n_fluct: float):
    """Log of the chi-square(N) density at z; broadcasts."""
    z = np.asarray(z, dtype=float)
    half = n_fluct / 2.0
    return (half - 1.0) * np.log(z) - z / 2.0 - half * math.log(2.0) - gammaln(half)
