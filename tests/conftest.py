import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from portloss import MarketParams, McRun, OverlapSpec, QuadratureSpec, SubordinationSpec

# property tests touch cached quadrature tables on first use; no deadline
settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def market():
    """The reference market: mu 17%/yr, vol 35%, mean correlation 0.28,
    fluctuation strength 6, one year horizon, firm value 100."""
    return MarketParams(mu=0.17, rho=0.35, c=0.28, n_fluct=6, t_mat=1.0, v0=100.0)


@pytest.fixture(scope="session")
def market_c0():
    return MarketParams(mu=0.17, rho=0.35, c=0.0, n_fluct=6, t_mat=1.0, v0=100.0)


@pytest.fixture(scope="session")
def faces():
    return SubordinationSpec(f_senior=37.0, f_junior=38.0)


@pytest.fixture(scope="session")
def halves():
    """Two creditors holding disjoint halves of the pool, face 75 each."""
    return OverlapSpec(r1=0.5, r12=0.0, gamma=0.5, f0=75.0)


@pytest.fixture(scope="session")
def quad():
    return QuadratureSpec()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def assert_same_run():
    """Check that two McRuns agree in every field, arrays bit for bit."""

    def check(a: McRun, b: McRun, label=""):
        for f in dataclasses.fields(McRun):
            np.testing.assert_equal(getattr(a, f.name), getattr(b, f.name), err_msg=f"{label} {f.name}")

    return check
