import math

import numpy as np
import pytest
from scipy import integrate

from portloss import ParameterError, QuadratureSpec
from portloss.quadrature import chi2_log_weight, chi2_nodes, gauss_nodes


def test_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(z_nodes=4)
    with pytest.raises(ParameterError):
        QuadratureSpec(mode="monte-carlo")
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=0.5)


def test_spec_node_counts_are_integers_up_to_512():
    with pytest.raises(ParameterError):
        QuadratureSpec(u_nodes=513)
    with pytest.raises(ParameterError):
        QuadratureSpec(z_nodes=16.5)
    # a document may spell a count as 16.0; the rules get an int
    assert QuadratureSpec(z_nodes=16.0) == QuadratureSpec(z_nodes=16)


@pytest.mark.parametrize("n_fluct", [2, 6, 6.5, 20])
def test_chi2_rule_moments(n_fluct):
    # scale variable is chi-square with n_fluct degrees of freedom
    z, w = chi2_nodes(n_fluct, 64)
    assert np.all(z > 0)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    assert np.dot(w, z) == pytest.approx(n_fluct, rel=1e-12)
    assert np.dot(w, z**2) == pytest.approx(n_fluct * (n_fluct + 2), rel=1e-12)


@pytest.mark.parametrize("n_fluct", [2, 6, 17])
def test_gauss_rule_moments(n_fluct):
    # common factor has variance 1/n_fluct
    u, w = gauss_nodes(n_fluct, 64)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    assert np.dot(w, u) == pytest.approx(0.0, abs=1e-14)
    assert np.dot(w, u**2) == pytest.approx(1.0 / n_fluct, rel=1e-12)
    assert np.dot(w, u**4) == pytest.approx(3.0 / n_fluct**2, rel=1e-12)


def test_chi2_log_weight_normalizes():
    val, _ = integrate.quad(lambda z: math.exp(chi2_log_weight(z, 6)), 0, np.inf)
    assert val == pytest.approx(1.0, rel=1e-10)
    mean, _ = integrate.quad(lambda z: z * math.exp(chi2_log_weight(z, 6)), 0, np.inf)
    assert mean == pytest.approx(6.0, rel=1e-10)
