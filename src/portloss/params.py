"""Domain parameter types.

All types are small frozen dataclasses validated on construction, so a value
that exists is a value that is usable.  They are hashable, which lets the
engine memoize per-node moment tables keyed by scenario.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

from .errors import ParameterError


# The chi-square rule is built from the Laguerre exponent a = N/2 - 1, and
# rounding a drops N's low digits: the rule's shape a + 1 is off from N/2
# by up to 2**-54, so its mean and second moment are off by up to about
# 1.1e-16 / N relative.  On a dense log scan of N (8, 64 and 512 nodes) both
# moments hold to 1e-10 relative from 1.2e-6 up; the last N that misses
# is about 1.10e-6.
N_FLUCT_MIN = 1.2e-6


@dataclass(frozen=True)
class MarketParams:
    """Parameters of one market block.

    Attributes
    ----------
    mu : float
        Drift per year.
    rho : float
        Volatility per square-root year; ``(1 - c) t_mat rho^2`` must be a
        positive finite float.
    c : float
        Average asset correlation level, in [0, 1).
    n_fluct : float
        Correlation fluctuation strength; larger means correlations frozen
        closer to their average.  Real, not restricted to integers, and at
        least ``N_FLUCT_MIN``.
    t_mat : float
        Horizon in years.  The log-drift ``drift_adj * t_mat`` must lie
        within +-``LOG_SCALE_MAX`` and the horizon variance
        ``rho^2 t_mat`` at most ``LOG_SCALE_MAX``.
    v0 : float
        Initial asset value, currency units.  Against every face it meets
        (a portfolio face, each nonzero tranche face), v0/face must lie in
        [``V0_FACE_MIN``, ``V0_FACE_MAX``] = [1e-300, 1e30]; see
        :func:`check_face_ratio`.
    """

    mu: float
    rho: float
    c: float
    n_fluct: float
    t_mat: float
    v0: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        if not (self.rho > 0):
            raise ParameterError(f"rho must be > 0, got {self.rho}")
        if not (0 <= self.c < 1):
            raise ParameterError(f"c must be in [0, 1), got {self.c}")
        if not (self.n_fluct >= N_FLUCT_MIN):
            raise ParameterError(
                f"n_fluct must be at least {N_FLUCT_MIN!r}, where the chi-square rule "
                f"holds its first two moments; got {self.n_fluct}",
                field="n_fluct",
            )
        if not (self.t_mat > 0):
            raise ParameterError(f"t_mat must be > 0, got {self.t_mat}")
        if not (self.v0 > 0):
            raise ParameterError(f"v0 must be > 0, got {self.v0}")
        # the kernels divide by g = (1 - c) t_mat rho^2 and square rho
        g = (1.0 - self.c) * self.t_mat * self.rho * self.rho
        if not (0 < g < math.inf):
            raise ParameterError(
                f"rho must give 0 < (1 - c) t_mat rho^2 < inf, got rho={self.rho}"
            )
        # past LOG_SCALE_MAX a sampled asset value leaves the float range;
        # each refusal names the larger factor of its product
        variance, drift = self.rho * self.rho * self.t_mat, self.drift_adj * self.t_mat
        if not variance <= LOG_SCALE_MAX:
            raise ParameterError(
                f"the horizon variance rho^2 t_mat = {variance:.6g} is above {LOG_SCALE_MAX:g}",
                field="rho" if self.rho * self.rho > self.t_mat else "t_mat",
            )
        if not abs(drift) <= LOG_SCALE_MAX:
            raise ParameterError(
                f"the log-drift (mu - rho^2/2) t_mat = {drift:.6g} is outside +-{LOG_SCALE_MAX:g}",
                field="mu" if abs(self.drift_adj) > self.t_mat else "t_mat",
            )

    @property
    def drift_adj(self) -> float:
        """Risk-adjusted log drift (mu - rho^2/2) per year."""
        return self.mu - 0.5 * self.rho**2


# A sampled log asset value is log v0 + nu T, nu T = (mu - rho^2/2) t_mat,
# plus a return of variance about rho^2 t_mat s; its exp overflows past
# 709.8.  Scanned from 10 to 1000 (40 points per decade) on every bundled
# mode, mc-validate at 200,000 samples, the first overflow came at x = 531
# for nu T = rho^2 t_mat = x, at 708 for nu T and at 7499 for rho^2 t_mat
# alone, none for nu T = -x; the moment kernels held to nu T = 1e152.
LOG_SCALE_MAX = 300.0

# The second conditional moment carries (v0/face)^2 exp(2 z g/N - 2 sqrt(z)
# B u + 2 nu T).  At the bundled market that exponent reaches 63 on the
# default 64-node rule and 544 on the largest, 512-node one, so the term
# overflows above v0/face ~ 2e140 and ~ 1e36.  Probed over v0 on the bundled
# modes (64-node rules), v0 = 1e140 ran clean against faces of 37 to 75; from
# 1e142 the term overflowed, and a run either dropped the overflowed nodes
# without a word (exit 0) or, from about 1e156, raised OverflowError (exit 3).
V0_FACE_MAX = 1e30

# Down to v0/face = 1e-300 every bundled mode runs and writes finite values;
# at v0 = 5e-324 the ratio is 0 and the default boundary log(face/v0) inf.
V0_FACE_MIN = 1e-300

# The junior payoff scale c = f_total / f_junior enters the second moment
# kernel as c^2 and 2 c kernel_1.  Shrunk `subordinated` and tranched
# `mc-validate` runs at f_total = 1e130 ran clean up to c = 1e153 and
# overflowed from 1e154 (a RuntimeWarning, then OverflowError, exit 3).
JUNIOR_RATIO_MAX = 1e150


def check_face_ratio(face: float, params: MarketParams) -> None:
    """Refuse a positive face against which v0/face exceeds
    ``V0_FACE_MAX`` (at the bundled market the moment kernels stay finite
    on every quadrature rule the schema accepts up to about 1e36) or falls
    below ``V0_FACE_MIN``."""
    if face > 0 and not params.v0 / face <= V0_FACE_MAX:
        raise ParameterError(
            f"v0/face must be at most {V0_FACE_MAX:g}, where the moment kernels stay "
            f"finite; got v0={params.v0:g} against face {face:g}"
        )
    if face > 0 and not params.v0 / face >= V0_FACE_MIN:
        raise ParameterError(f"v0/face must be at least {V0_FACE_MIN:g}; got v0={params.v0:g} "
                             f"against face {face:g}")


def distance_field(face: float, params: MarketParams) -> str:
    """The field of ``params`` that puts a firm of face ``face`` out of reach
    of default, or of solvency: in its distance to default (log(v0 / face)
    + nu T) / (rho sqrt(t_mat)), the larger term of a numerator above 1 in
    size (v0, or the log-drift's field as MarketParams names it), else the
    smaller factor of rho^2 t_mat."""
    log_ratio, drift = math.log(params.v0 / face), params.drift_adj * params.t_mat
    if abs(log_ratio + drift) > 1.0:
        if abs(log_ratio) >= abs(drift):
            return "v0"
        return "mu" if abs(params.drift_adj) > params.t_mat else "t_mat"
    return "rho" if params.rho * params.rho <= params.t_mat else "t_mat"


@dataclass(frozen=True)
class MultiMarketParams:
    """A block-diagonal market structure: independent market blocks sharing
    one fluctuation strength and one scale variable.

    ``blocks`` is an ordered tuple of (MarketParams, obligor count) pairs.
    """

    blocks: tuple[tuple[MarketParams, int], ...]

    def __post_init__(self):
        if len(self.blocks) < 1:
            raise ParameterError("at least one market block required")
        # normalize lists to tuples so the dataclass stays hashable
        object.__setattr__(
            self, "blocks", tuple((p, int(k)) for p, k in self.blocks)
        )
        n0 = self.blocks[0][0].n_fluct
        for p, k in self.blocks:
            if not isinstance(p, MarketParams):
                raise ParameterError("each block needs a MarketParams")
            if p.n_fluct != n0:
                raise ParameterError("n_fluct must be shared across blocks")
            if k < 1:
                raise ParameterError(f"block size must be >= 1, got {k}")

    @property
    def beta(self) -> int:
        """Number of market blocks."""
        return len(self.blocks)

    @property
    def n_fluct(self) -> float:
        return self.blocks[0][0].n_fluct

    @property
    def k_total(self) -> int:
        return sum(k for _, k in self.blocks)


def block_market(params, k_obligors=None) -> MultiMarketParams:
    """``params`` as a block market: MarketParams become the one-block
    market of ``k_obligors`` firms, and MultiMarketParams come back as they
    are, where ``k_obligors``, if given, must match their block total."""
    if isinstance(params, MultiMarketParams):
        if k_obligors is not None and k_obligors != params.k_total:
            raise ParameterError(
                f"k_obligors={k_obligors} does not match market blocks "
                f"totalling {params.k_total}"
            )
        return params
    if k_obligors is None:
        raise ParameterError("k_obligors required with single-market params")
    return MultiMarketParams(((params, k_obligors),))


@dataclass(frozen=True)
class SubordinationSpec:
    """Per-obligor split of the face value into a senior and a junior piece.

    The senior creditor is repaid first; the junior piece absorbs losses
    until it is wiped out.  f_total / f_junior is at most
    ``JUNIOR_RATIO_MAX``.
    """

    f_senior: float
    f_junior: float

    def __post_init__(self):
        if self.f_senior < 0:
            raise ParameterError(f"f_senior must be >= 0, got {self.f_senior}", field="f_senior")
        if not (self.f_junior > 0):
            raise ParameterError(f"f_junior must be > 0, got {self.f_junior}", field="f_junior")
        if self.f_total / self.f_junior > JUNIOR_RATIO_MAX:
            raise ParameterError(
                f"f_total / f_junior must be at most {JUNIOR_RATIO_MAX:g}, where the junior "
                f"moment kernels stay finite; got {self.f_total / self.f_junior:.6g}",
                field="f_junior",
            )

    @property
    def f_total(self) -> float:
        return self.f_senior + self.f_junior


@dataclass(frozen=True)
class OverlapSpec:
    """How two creditors share a homogeneous pool of obligors.

    r1 is the fraction of obligors exclusive to creditor one, r12 the shared
    fraction, and gamma creditor one's share of each shared obligor's face.
    The remaining fraction 1 - r1 - r12 is exclusive to creditor two.
    ``f0`` is the common total face value per obligor.
    """

    r1: float
    r12: float
    gamma: float
    f0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ParameterError(f"overlap fields must be finite, got {self}")
        if self.r1 < 0 or self.r12 < 0:
            raise ParameterError("overlap fractions must be >= 0")
        if self.r1 + self.r12 > 1 + 1e-12:
            raise ParameterError(
                f"r1 + r12 must be <= 1, got {self.r1 + self.r12}"
            )
        if not (0 <= self.gamma <= 1):
            raise ParameterError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (self.f0 > 0):
            raise ParameterError(f"f0 must be > 0, got {self.f0}")

    @property
    def share_one(self) -> float:
        """Creditor one's fraction of the total pool face, r1 + gamma*r12."""
        return self.r1 + self.gamma * self.r12

    @property
    def share_two(self) -> float:
        return 1.0 - self.share_one
