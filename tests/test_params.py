import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from portloss import (
    MarketParams,
    MultiMarketParams,
    OverlapSpec,
    ParameterError,
    SubordinationSpec,
)


def test_drift_adjustment(market):
    assert market.drift_adj == pytest.approx(0.17 - 0.5 * 0.35**2, rel=0, abs=1e-15)


@pytest.mark.parametrize(
    "kw",
    [
        dict(rho=0.0),
        dict(rho=-0.1),
        dict(c=1.0),
        dict(c=-0.01),
        dict(n_fluct=0),
        dict(t_mat=0.0),
        dict(v0=-5.0),
        # (1 - c) t_mat rho^2 underflows to 0 or overflows to inf
        dict(rho=1e-300),
        dict(rho=1e300),
    ],
)
def test_market_rejects_bad_values(kw):
    base = dict(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    base.update(kw)
    with pytest.raises(ParameterError):
        MarketParams(**base)


def test_n_fluct_floor_is_where_the_chi_square_rule_holds():
    from portloss.params import N_FLUCT_MIN
    from portloss.quadrature import chi2_nodes

    build = chi2_nodes  # builds a fresh rule each call
    base = dict(mu=0.17, rho=0.35, c=0.28, t_mat=1.0, v0=100.0)
    assert MarketParams(n_fluct=N_FLUCT_MIN, **base).n_fluct == N_FLUCT_MIN
    for count in (8, 64, 512):
        z, w = build(N_FLUCT_MIN, count)
        assert np.all(z > 0.0) and np.all(np.isfinite(w))
    below = math.nextafter(N_FLUCT_MIN, 0.0)
    with pytest.raises(ParameterError) as err:
        MarketParams(n_fluct=below, **base)
    assert err.value.field == "n_fluct"
    with np.errstate(all="ignore"):
        z, w = build(below, 8)
    assert not (np.all(z > 0.0) and np.all(np.isfinite(w)))


def test_market_allows_negative_drift_and_real_n():
    p = MarketParams(mu=-0.05, rho=0.2, c=0.1, n_fluct=2.5, t_mat=0.5, v0=10.0)
    assert p.n_fluct == 2.5


def test_subordination_total(faces):
    assert faces.f_total == 75.0


def test_subordination_zero_senior_allowed():
    assert SubordinationSpec(0.0, 75.0).f_total == 75.0
    with pytest.raises(ParameterError):
        SubordinationSpec(-1.0, 75.0)
    with pytest.raises(ParameterError):
        SubordinationSpec(37.0, 0.0)


def test_overlap_shares(halves):
    assert halves.share_one == 0.5
    assert halves.share_two == 0.5
    full = OverlapSpec(r1=0.0, r12=1.0, gamma=0.3, f0=75.0)
    assert full.share_one == pytest.approx(0.3)


@pytest.mark.parametrize(
    "kw",
    [
        dict(r1=0.6, r12=0.5),
        dict(r1=-0.1, r12=0.0),
        dict(gamma=1.5),
        dict(f0=0.0),
    ],
)
def test_overlap_rejects_bad_values(kw):
    base = dict(r1=0.5, r12=0.0, gamma=0.5, f0=75.0)
    base.update(kw)
    with pytest.raises(ParameterError):
        OverlapSpec(**base)


@pytest.mark.parametrize("field", ["r1", "r12", "gamma", "f0"])
def test_overlap_rejects_non_finite(field):
    base = dict(r1=0.5, r12=0.0, gamma=0.5, f0=75.0)
    base[field] = math.nan
    with pytest.raises(ParameterError):
        OverlapSpec(**base)


@given(
    r1=st.floats(0.0, 1.0),
    r12frac=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
)
def test_overlap_shares_partition(r1, r12frac, gamma):
    r12 = (1.0 - r1) * r12frac
    ov = OverlapSpec(r1=r1, r12=r12, gamma=gamma, f0=75.0)
    assert 0.0 <= ov.share_one <= 1.0 + 1e-12
    assert math.isclose(ov.share_one + ov.share_two, 1.0, abs_tol=1e-12)


def test_multimarket_blocks(market):
    mm = MultiMarketParams(blocks=((market, 20), (market, 30)))
    assert mm.beta == 2
    assert mm.k_total == 50
    assert mm.n_fluct == 6


def test_multimarket_requires_shared_fluctuation(market):
    other = MarketParams(mu=0.1, rho=0.3, c=0.2, n_fluct=8, t_mat=1.0, v0=100.0)
    with pytest.raises(ParameterError):
        MultiMarketParams(blocks=((market, 10), (other, 10)))
    with pytest.raises(ParameterError):
        MultiMarketParams(blocks=())
    with pytest.raises(ParameterError):
        MultiMarketParams(blocks=((market, 0),))


def test_params_are_hashable(market, faces, halves):
    # the engine memoizes node tables keyed by frozen parameter objects
    {market: 1, faces: 2, halves: 3}


@pytest.mark.parametrize("field", ["mu", "rho", "c", "n_fluct", "t_mat", "v0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_market_rejects_non_finite(field, value):
    base = dict(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)
    base[field] = value
    with pytest.raises(ParameterError, match=field):
        MarketParams(**base)
