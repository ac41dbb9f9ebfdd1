import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import portloss

from portloss import ParameterError, QuadratureSpec
from portloss.quadrature import _scale_rule, chi2_log_weight, chi2_nodes, gauss_nodes


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


RULE_COUNTS = (8, 64, 320, 384, 512)
RULE_DOFS = (1, 2, 6, 6.5, 50, 343.5, 1e4)


@pytest.mark.parametrize("count", RULE_COUNTS)
@pytest.mark.parametrize("n_fluct", RULE_DOFS)
def test_chi2_rule_is_finite_for_every_count_and_dof(n_fluct, count):
    z, w = chi2_nodes(n_fluct, count)
    assert np.all(z > 0) and np.all(np.diff(z) > 0)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-13
    assert np.dot(w, z) == pytest.approx(n_fluct, rel=1e-12)
    assert np.dot(w, z**2) == pytest.approx(n_fluct * (n_fluct + 2), rel=1e-12)


@pytest.mark.parametrize("count", [8, 64, 512])
def test_scale_rule_is_finite_at_every_n(count):
    # the rule for s = z / N; in z the Laguerre off-diagonal k (k + a)
    # overflowed at 1.7e308, and at 1e300 every Christoffel sum overflowed,
    # leaving weights of 0 / 0
    for n_fluct in (1e-4, 6, 1e8, 1e17, 1e30, 1e100, 1e300, 1.7e308):
        s, w = _scale_rule.__wrapped__(n_fluct, count)
        assert np.all(s > 0) and np.all(np.isfinite(w)) and np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-13
        assert np.dot(w, s) == pytest.approx(1.0, rel=1e-12)
        var = np.dot(w, (s - 1.0) ** 2)
        if n_fluct <= 1e17:
            assert var == pytest.approx(2.0 / n_fluct, rel=1e-6)
        else:
            # the spread sqrt(2/N) falls below the rounding of 1 from about
            # 1e30: the nodes gather at 1, which is the law of s there
            assert var <= 2.0 / n_fluct + 1e-30
    # the Gaussian rule in u is the standard normal rule over sqrt(N)
    u, w = gauss_nodes(1.7e308, count)
    assert np.all(np.isfinite(u)) and np.dot(w, (u * math.sqrt(1.7e308)) ** 2) == pytest.approx(1.0)


def test_chi2_rule_matches_scipy_where_scipy_is_finite():
    from scipy.special import gammaln, roots_genlaguerre

    compared = 0
    for count in RULE_COUNTS:
        for n_fluct in RULE_DOFS:
            with np.errstate(all="ignore"):
                t, w_ref = roots_genlaguerre(count, n_fluct / 2.0 - 1.0)
                w_ref = w_ref / np.exp(gammaln(n_fluct / 2.0))
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w_ref))):
                continue
            z, w = chi2_nodes(n_fluct, count)
            np.testing.assert_allclose(z, 2.0 * t, rtol=1e-11, atol=0.0)
            big = w_ref > 1e-14 * w_ref.max()
            np.testing.assert_allclose(w[big], w_ref[big], rtol=1e-11, atol=0.0)
            compared += 1
    # scipy's rule overflows above 320 nodes and, through Gamma(N/2), above N = 343
    assert compared == 15


def test_runs_do_not_import_scipy_linalg(tmp_path):
    # the chi-square rule is built with numpy alone; scipy.linalg costs
    # 50-70 ms to import in a fresh interpreter
    src = os.path.dirname(os.path.dirname(portloss.__file__))
    code = (
        "import sys\n"
        "from portloss import cli\n"
        "for sid in ('limit_equal_loss_curve', 'nosub_halves_k100'):\n"
        f"    assert cli.main(['run', sid, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    probe = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert probe.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("n_fluct", [2, 6, 17])
def test_gauss_rule_moments(n_fluct):
    # common factor has variance 1/n_fluct
    u, w = gauss_nodes(n_fluct, 64)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    assert np.dot(w, u) == pytest.approx(0.0, abs=1e-14)
    assert np.dot(w, u**2) == pytest.approx(1.0 / n_fluct, rel=1e-12)
    assert np.dot(w, u**4) == pytest.approx(3.0 / n_fluct**2, rel=1e-12)


@pytest.fixture(scope="module")
def gauss_rules():
    """The Gaussian rule at N = 6 for every count the schema allows."""
    return {count: gauss_nodes(6, count) for count in range(8, 513)}


def test_gauss_rule_is_finite_for_every_count(gauss_rules):
    # numpy's hermgauss gives zero weights at 371 nodes and NaN from 372 to 512
    for count, (u, w) in gauss_rules.items():
        assert np.all(np.diff(u) > 0) and np.array_equal(u, -u[::-1]), count
        assert np.all(np.isfinite(w)) and np.all(w >= 0) and np.array_equal(w, w[::-1]), count
        assert abs(w.sum() - 1.0) <= 1e-13, count
        assert abs(np.dot(w, u)) <= 1e-15, count
        assert np.dot(w, u**2) == pytest.approx(1.0 / 6, rel=1e-13), count
        assert np.dot(w, u**4) == pytest.approx(3.0 / 36, rel=1e-13), count


def test_gauss_rule_matches_hermgauss_where_hermgauss_is_finite(gauss_rules):
    compared = 0
    for count in (*range(8, 64), 64, 128, 255, 256, 320, 369, 370, 371, 372, 512):
        u, w = gauss_rules[count]
        with np.errstate(all="ignore"):
            v, w_ref = np.polynomial.hermite.hermgauss(count)
        w_ref = w_ref / math.sqrt(math.pi)
        if not (np.all(np.isfinite(w_ref)) and w_ref.sum() > 0.5):
            continue
        np.testing.assert_allclose(u, v * math.sqrt(2.0 / 6), rtol=1e-13, atol=1e-15)
        big = w_ref > 1e-14 * w_ref.max()
        np.testing.assert_allclose(w[big], w_ref[big], rtol=1e-13, atol=0.0)
        compared += 1
    assert compared == 56 + 7


def test_chi2_log_weight_keeps_its_digits_at_large_n():
    # the direct form's terms grow like N log N: at N = 1e14 their rounding
    # moved the log density by 0.12, at 1e16 by 10; what is left is the
    # rounding of z itself, N/2 |s - 1| 1e-16
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for n_fluct in (1e8, 1e12, 1e14, 1e16):
        for k in (-6.0, -1.0, 0.0, 2.0, 6.0):
            z = n_fluct * (1.0 + k * math.sqrt(2.0 / n_fluct))
            half, zz = mp.mpf(n_fluct) / 2, mp.mpf(z)
            want = (half - 1) * mp.log(zz) - zz / 2 - half * mp.log(2) - mp.loggamma(half)
            assert float(chi2_log_weight(z, n_fluct)) == pytest.approx(float(want), abs=1e-6)


def test_chi2_log_weight_normalizes():
    val, _ = integrate.quad(lambda z: math.exp(chi2_log_weight(z, 6)), 0, np.inf)
    assert val == pytest.approx(1.0, rel=1e-10)
    mean, _ = integrate.quad(lambda z: z * math.exp(chi2_log_weight(z, 6)), 0, np.inf)
    assert mean == pytest.approx(6.0, rel=1e-10)
