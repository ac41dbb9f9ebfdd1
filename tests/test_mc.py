"""Simulation oracle: determinism, atom classification, sampler agreement."""

import numpy as np
import pytest

from portloss import (
    MarketParams,
    McConfig,
    MultiMarketParams,
    NoSubScenario,
    ParameterError,
    SubordinatedScenario,
    SubordinationSpec,
    no_default_probability,
)
from portloss import mc
from portloss.errors import SamplerBudgetError


def _halves(market, k=50):
    from portloss import OverlapSpec

    return NoSubScenario(k_obligors=k, params=market,
                         overlap=OverlapSpec(0.5, 0.0, 0.5, 75.0))


def test_config_validation(market):
    with pytest.raises(ParameterError):
        McConfig(n_samples=20_001, antithetic=True)  # needs pairs
    with pytest.raises(ParameterError):
        McConfig(sampler="quasi")
    # small sample counts are rejected at estimation time
    with pytest.raises(ParameterError):
        mc.estimate(_halves(market), McConfig(n_samples=5000))
    # Wishart draws cost K x K factor work; huge pools must use compound
    with pytest.raises(SamplerBudgetError):
        mc.estimate(_halves(market, 100_000),
                    McConfig(n_samples=10_000, sampler="wishart"))


def test_same_seed_is_bit_identical(market):
    sc = _halves(market)
    cfg = McConfig(n_samples=20_000, rng_seed=5)
    a = mc.estimate(sc, cfg)
    b = mc.estimate(sc, cfg)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.hist_2d, b.hist_2d)
    assert a.p_no_default == b.p_no_default
    c = mc.estimate(sc, McConfig(n_samples=20_000, rng_seed=6))
    assert not np.array_equal(a.mean, c.mean)


def test_histograms_are_normalized(market):
    run = mc.estimate(_halves(market), McConfig(n_samples=20_000, rng_seed=1))
    assert run.hist_2d.sum() == pytest.approx(1.0, abs=1e-12)
    for row in run.hist_1d:
        assert np.sum(row) == pytest.approx(1.0, abs=1e-12)


def test_no_default_fraction_matches_analytic(market):
    sc = _halves(market)
    run = mc.estimate(sc, McConfig(n_samples=100_000, rng_seed=2))
    want = no_default_probability(50, 75.0, market)
    assert abs(run.p_no_default - want) < 3.5 * run.p_no_default_se


def test_antithetic_runs_and_matches_distribution(market):
    sc = _halves(market)
    plain = mc.estimate(sc, McConfig(n_samples=100_000, rng_seed=3))
    anti = mc.estimate(sc, McConfig(n_samples=100_000, rng_seed=3, antithetic=True))
    # same law: means within combined standard errors
    for b in range(2):
        d = abs(plain.mean[b] - anti.mean[b])
        assert d < 4.0 * (plain.mean_se[b] + anti.mean_se[b])


def test_subordinated_run_orders_tranches(market):
    sc = SubordinatedScenario(
        k_obligors=100, tranches=SubordinationSpec(37.0, 38.0), params=market)
    run = mc.estimate(sc, McConfig(n_samples=50_000, rng_seed=4, keep_samples=True))
    assert run.subordination_violations == 0
    assert run.labels == ("senior", "junior")
    assert np.all(run.samples[:, 0] <= run.samples[:, 1] + 1e-12)
    # junior wipeout forces senior losses onto the defaults/K lattice
    assert run.lattice_offenders == 0


def test_wishart_covariances_fluctuate_around_mean(market, rng):
    k = 5
    covs = mc.wishart_covariances(market, k, 4000, rng)
    assert covs.shape == (4000, k, k)
    avg = covs.mean(axis=0)
    c, var = market.c, market.rho**2 * market.t_mat
    want = var * (np.full((k, k), c) + (1 - c) * np.eye(k))
    np.testing.assert_allclose(avg, want, rtol=0.05, atol=5e-4)


def test_compound_and_wishart_samplers_agree(market):
    sc = NoSubScenario(k_obligors=5, params=market, face=75.0)
    out = mc.ks_compare(sc, n=20_000, seed=0)
    for lab, res in out.items():
        assert res["pvalue"] > 0.01


def test_sampler_choice_changes_draws_not_law(market):
    sc = NoSubScenario(k_obligors=5, params=market, face=75.0)
    a = mc.estimate(sc, McConfig(n_samples=50_000, rng_seed=0, sampler="compound"))
    b = mc.estimate(sc, McConfig(n_samples=50_000, rng_seed=0, sampler="wishart"))
    assert abs(a.mean[0] - b.mean[0]) < 4.0 * (a.mean_se[0] + b.mean_se[0])


def test_multimarket_sampling(market):
    mm = MultiMarketParams(blocks=((market, 10), (market, 10)))
    sc = NoSubScenario(k_obligors=20, params=mm, face=75.0, creditors=2)
    run = mc.estimate(sc, McConfig(n_samples=20_000, rng_seed=9))
    assert run.labels == ("creditor_1", "creditor_2")
    assert run.hist_2d is not None
    # independent markets: low loss correlation, well below the one-market
    # halves value at the same size
    one = _halves(market, 20)
    r_one = mc.estimate(one, McConfig(n_samples=20_000, rng_seed=9)).corr
    assert run.corr < r_one


def test_tail_fractions_monotone(market):
    run = mc.estimate(_halves(market), McConfig(n_samples=50_000, rng_seed=10))
    fracs = [run.tails[t][0] for t in (0.1, 0.3, 0.5)]
    assert fracs[0] >= fracs[1] >= fracs[2]


def test_run_serialization_deterministic(market, tmp_path):
    run = mc.estimate(_halves(market), McConfig(n_samples=20_000, rng_seed=1))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run.to_json(p1)
    run.to_json(p2)
    assert p1.read_bytes() == p2.read_bytes()
    run.hist_to_csv(tmp_path / "h.csv")
    header = (tmp_path / "h.csv").read_text().splitlines()[0]
    assert header.startswith("bin_lo,bin_hi,")


def test_wishart_budget_covers_tranched_pools(market):
    sc = SubordinatedScenario(k_obligors=600, tranches=SubordinationSpec(37.0, 38.0),
                              params=market)
    with pytest.raises(SamplerBudgetError):
        mc.estimate(sc, McConfig(n_samples=10_000, sampler="wishart"))
