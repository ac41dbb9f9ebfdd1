"""Exception hierarchy for the portloss package.

Every error raised by the package derives from :class:`PortlossError` so
callers can catch the whole family with one handler.  Numeric failures that
still produced a usable estimate (:class:`ConvergenceError`) carry that
estimate and an error bound instead of discarding work.
"""

from __future__ import annotations


class PortlossError(Exception):
    """Base class for all package errors."""


class ParameterError(PortlossError, ValueError):
    """A domain invariant on an input value is violated."""


class ConvergenceError(PortlossError):
    """An iterative solve did not reach its tolerance within budget.

    Attributes
    ----------
    best_estimate : float
        The most accurate value obtained before giving up.
    error_bound : float
        Estimated absolute error of ``best_estimate``.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class NoRootError(PortlossError):
    """An implicit equation has no solution inside the search bracket.

    Callers evaluating limit densities treat this as density zero.
    """


class MultipleRootsError(PortlossError):
    """A root scan found more than one sign change where the model predicts
    a unique root; reported rather than silently picking one."""

    def __init__(self, message: str, roots: tuple):
        super().__init__(message)
        self.roots = roots


class SingularCovarianceError(PortlossError):
    """The per-node loss covariance matrix is singular.

    Raised for degenerate creditor pairs (for example two identical
    portfolios); use the equal-loss parametrization instead.
    """


class UndefinedCorrelationError(PortlossError):
    """Loss variance is numerically zero, so a correlation is undefined."""


class SamplerBudgetError(PortlossError):
    """A sampler's resource budget would be exceeded; the message names the
    cheaper alternative."""


class FitError(PortlossError):
    """A likelihood profile is too flat to identify a maximum."""


class ScenarioError(PortlossError):
    """A scenario file violates the schema or a cross-field invariant.

    Attributes
    ----------
    pointer : str
        JSON-pointer-style path to the offending field, ``""`` for
        file-level problems.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer
