"""Simulation oracle: determinism, atom classification, sampler agreement."""

import math
import os
import sys
import threading

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
from portloss.engine import _creditor_weights
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
    # small sample counts are rejected
    with pytest.raises(ParameterError):
        mc.estimate(_halves(market), McConfig(n_samples=5000))
    # Wishart draws cost K x K factor work; huge pools must use compound
    with pytest.raises(SamplerBudgetError):
        mc.estimate(_halves(market, 100_000),
                    McConfig(n_samples=10_000, sampler="wishart"))


@pytest.mark.parametrize(
    "kw",
    [dict(n_samples=9_999), dict(chunk_size=127), dict(n_bins=1001), dict(rng_seed=-1),
     dict(rng_seed=5.0)],
)
def test_config_owns_the_document_ranges(kw):
    with pytest.raises(ParameterError):
        McConfig(**kw)


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
    # the returns' second moment is the ensemble mean of W W^T, Sigma
    k, n, dof = 5, 200_000, int(market.n_fluct)
    rows = 4096
    r = np.empty((n, k))
    for lo, block in mc._wishart_blocks(
            market, rng, n, np.empty((rows, k)), np.empty((rows, k, dof))):
        r[lo : lo + len(block)] = block
    c, var = market.c, market.rho**2 * market.t_mat
    want = var * (np.full((k, k), c) + (1 - c) * np.eye(k))
    np.testing.assert_allclose(r.T @ r / n, want, rtol=0.05, atol=5e-4)


def test_wishart_covariances_refuse_fractional_dof(market, rng):
    # W has N columns, so a fractional N has no Wishart draw
    half = MarketParams(mu=market.mu, rho=market.rho, c=market.c, n_fluct=6.5,
                        t_mat=market.t_mat, v0=market.v0)
    with pytest.raises(ParameterError):
        mc.sample_wishart(half, 10, rng, 5)


def test_wishart_refuses_n_above_the_chunk_rows(market):
    # the memory refusal bounds rows x K, and so one sample's K x N G block
    wide = MarketParams(mu=market.mu, rho=market.rho, c=market.c, n_fluct=200,
                        t_mat=market.t_mat, v0=market.v0)
    cfg = dict(n_samples=10_000, sampler="wishart")
    with pytest.raises(SamplerBudgetError):
        mc.estimate(_halves(wide, 10), McConfig(chunk_size=128, **cfg))
    run = mc.estimate(_halves(wide, 10), McConfig(chunk_size=200, **cfg))
    assert run.n == 10_000


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


def test_wishart_budget_covers_tranched_pools(market):
    sc = SubordinatedScenario(k_obligors=600, tranches=SubordinationSpec(37.0, 38.0),
                              params=market)
    with pytest.raises(SamplerBudgetError):
        mc.estimate(sc, McConfig(n_samples=10_000, sampler="wishart"))


# ---------------------------------------------------------------------------
# chunk pipeline: the in-place, threaded estimate against out-of-place
# reference formulas and against itself at other thread counts


def _ref_compound_single(params, k, m, rng, antithetic):
    base = m // 2 if antithetic else m
    z = rng.chisquare(params.n_fluct, size=base)
    u = rng.standard_normal(base) * np.sqrt(z / params.n_fluct)
    eps = rng.standard_normal((base, k))
    if antithetic:
        z, u, eps = np.concatenate([z, z]), np.concatenate([u, -u]), np.concatenate([eps, -eps])
    sq = params.rho * np.sqrt(z * (1.0 - params.c) * params.t_mat / params.n_fluct)
    return -math.sqrt(params.c * params.t_mat) * params.rho * u[:, None] + sq[:, None] * eps


def _ref_compound_multi(params, m, rng, antithetic):
    n = params.n_fluct
    base = m // 2 if antithetic else m
    z = rng.chisquare(n, size=base)
    u = rng.standard_normal((base, params.beta)) * np.sqrt(z / n)[:, None]
    eps = rng.standard_normal((base, params.k_total))
    if antithetic:
        z, u, eps = np.concatenate([z, z]), np.concatenate([u, -u]), np.concatenate([eps, -eps])
    out = np.empty((m, params.k_total))
    col = 0
    for idx, (mkt, k_l) in enumerate(params.blocks):
        sq = mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n)
        out[:, col : col + k_l] = (
            -math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, idx : idx + 1]
            + sq[:, None] * eps[:, col : col + k_l]
        )
        col += k_l
    return out


def _ref_wishart(params, k, m, rng, antithetic):
    n_int = int(params.n_fluct)
    base = m // 2 if antithetic else m
    eta = rng.standard_normal((base, n_int))
    g = rng.standard_normal((base, k, n_int))
    if antithetic:
        eta, g = np.concatenate([eta, -eta]), np.concatenate([g, g])
    x = np.einsum("mkn,mn->mk", g, eta)
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    y = lam_perp * x + (lam_e - lam_perp) * x.mean(axis=1, keepdims=True)
    return params.rho * math.sqrt(params.t_mat) / math.sqrt(params.n_fluct) * y


def _ref_values(r, params):
    if isinstance(params, MultiMarketParams):
        v = np.empty_like(r)
        col = 0
        for mkt, k_l in params.blocks:
            v[:, col : col + k_l] = mkt.v0 * np.exp(mkt.drift_adj * mkt.t_mat + r[:, col : col + k_l])
            col += k_l
        return v
    return params.v0 * np.exp(params.drift_adj * params.t_mat + r)


def _ref_draw(scenario, cfg, ci, m):
    rng = mc._chunk_rng(cfg.rng_seed, ci)
    p = scenario.params
    if cfg.sampler == "wishart":
        r = _ref_wishart(p, scenario.k_obligors, m, rng, cfg.antithetic)
    elif isinstance(p, MultiMarketParams):
        r = _ref_compound_multi(p, m, rng, cfg.antithetic)
    else:
        r = _ref_compound_single(p, scenario.k_obligors, m, rng, cfg.antithetic)
    return _ref_values(r, p)


def _ref_losses(v, scenario, weighted_sum):
    """Losses and default counts as the serial pipeline computed them;
    ``weighted_sum(l_ob, wts)`` forms the creditor losses."""
    if isinstance(scenario, SubordinatedScenario):
        tr = scenario.tranches
        ls = np.maximum(1.0 - v / tr.f_senior, 0.0)
        n_full = (v < tr.f_senior).sum(axis=1)
        lj = np.clip((tr.f_total - v) / tr.f_junior, 0.0, 1.0)
        n_def = (v < tr.f_total).sum(axis=1)
        return np.column_stack([ls.mean(axis=1), lj.mean(axis=1)]), n_def, n_full
    faces = mc._obligor_faces(scenario)
    l_ob = np.maximum(1.0 - v / faces[None, :], 0.0)
    n_def = (v < faces[None, :]).sum(axis=1)
    losses = weighted_sum(l_ob, _creditor_weights(scenario))
    return losses, n_def, np.zeros(v.shape[0], dtype=np.int64)


def _blas_sum(l_ob, wts):
    return l_ob @ wts.T


def _einsum_sum(l_ob, wts):
    return np.einsum("mk,bk->mb", l_ob, wts)


_PIPELINE_CASES = ("compound", "wishart", "tranched_k200", "tranched_wishart", "antithetic",
                   "antithetic_wishart", "keep_samples", "multimarket")


def _pipeline_cases(market):
    halves = _halves(market, 100)
    tranched = SubordinatedScenario(
        k_obligors=200, tranches=SubordinationSpec(37.0, 38.0), params=market)
    mm = MultiMarketParams(blocks=((market, 10), (market, 14)))
    multi = NoSubScenario(k_obligors=24, params=mm, face=75.0, creditors=2)
    cfg = dict(n_samples=20_000, chunk_size=2048)
    return {
        "compound": (halves, McConfig(rng_seed=21, **cfg)),
        "wishart": (halves, McConfig(rng_seed=22, sampler="wishart", **cfg)),
        "tranched_k200": (tranched, McConfig(rng_seed=23, **cfg)),
        "tranched_wishart": (tranched, McConfig(rng_seed=24, sampler="wishart", **cfg)),
        "antithetic": (halves, McConfig(rng_seed=25, antithetic=True, **cfg)),
        "antithetic_wishart": (halves, McConfig(rng_seed=26, sampler="wishart", antithetic=True, **cfg)),
        "keep_samples": (tranched, McConfig(rng_seed=27, keep_samples=True, **cfg)),
        "multimarket": (multi, McConfig(rng_seed=28, antithetic=True, **cfg)),
    }


@pytest.mark.parametrize("case", _PIPELINE_CASES)
def test_in_place_chunks_match_reference_formulas(market, case):
    scenario, cfg = _pipeline_cases(market)[case]
    k = scenario.k_obligors
    dof = int(market.n_fluct) if cfg.sampler == "wishart" else 0
    n = cfg.n_samples
    n_chunks = -(-n // cfg.chunk_size)
    sum1 = np.zeros(2)
    sum2 = np.zeros((2, 2))
    hist = np.zeros((50, 50), dtype=np.int64)
    n_origin = 0
    edges = np.linspace(0.0, 1.0, cfg.n_bins + 1)
    scratch = mc._Scratch(cfg.chunk_size, k, dof)  # reused, as a pool thread does
    portfolio = mc._Portfolio(scenario)
    for ci in range(n_chunks):
        m = min(cfg.chunk_size, n - ci * cfg.chunk_size)
        v_ref = _ref_draw(scenario, cfg, ci, m)
        losses, n_def, n_full = mc._chunk_losses(scenario, cfg, ci, m, scratch, portfolio)
        want, want_def, want_full = _ref_losses(v_ref, scenario, _einsum_sum)
        np.testing.assert_array_equal(losses, want)
        np.testing.assert_array_equal(n_def, want_def)
        np.testing.assert_array_equal(n_full, want_full)
        # the serial pipeline formed creditor losses with BLAS
        blas, _, _ = _ref_losses(v_ref, scenario, _blas_sum)
        np.testing.assert_allclose(losses, blas, rtol=1e-13, atol=0.0)
        sum1 += want.sum(axis=0)
        sum2 += want.T @ want
        hist += np.histogram2d(want[:, 0], want[:, 1], bins=(edges, edges))[0].astype(np.int64)
        n_origin += int((want_def == 0).sum())
    run = mc.estimate(scenario, cfg)
    mean = sum1 / n
    cov = sum2 / n - np.outer(mean, mean)
    np.testing.assert_array_equal(run.mean, mean)
    np.testing.assert_array_equal(run.hist_2d, hist / n)
    assert run.p_no_default == n_origin / n
    # the b x b moment moved from BLAS to einsum: tolerance set beforehand
    np.testing.assert_allclose(run.cov, cov, rtol=1e-13, atol=0.0)
    assert run.corr == pytest.approx(cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1]), rel=1e-13)


def test_thread_count_does_not_change_results(market, monkeypatch, assert_same_run):
    """One thread, then more threads than cores with a very short switch
    interval: every case must give the same run, bit for bit."""
    cases = _pipeline_cases(market)

    def runs():
        return {name: mc.estimate(sc, cfg) for name, (sc, cfg) in cases.items()}

    monkeypatch.setattr(mc, "_pool_size", lambda n_chunks: 1)
    serial = runs()
    monkeypatch.setattr(mc, "_pool_size", lambda n_chunks: min(4, n_chunks))
    threads_before = threading.active_count()
    threaded, failures = {}, []

    def stress():
        try:
            threaded.update(runs())
        except BaseException as exc:  # handed to the test thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=stress, daemon=True)
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "threaded estimates did not finish within 300 s"
    assert not failures, failures
    assert threading.active_count() == threads_before
    for name, run in serial.items():
        assert_same_run(threaded[name], run, name)
    assert serial["keep_samples"].samples.shape == (20_000, 2)


@pytest.mark.parametrize("elements", [1, 10**9])
def test_block_size_does_not_change_results(market, monkeypatch, assert_same_run, elements):
    """One sample per block, then one block per chunk: every case must
    give the run of the default blocks, bit for bit."""
    cases = _pipeline_cases(market)
    default = {name: mc.estimate(sc, cfg) for name, (sc, cfg) in cases.items()}
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", elements)
    for name, (sc, cfg) in cases.items():
        k = sc.k_obligors
        dof = int(market.n_fluct) if cfg.sampler == "wishart" else 0
        assert len(mc._Scratch(cfg.chunk_size, k, dof).values) == (
            1 if elements == 1 else cfg.chunk_size)
        assert_same_run(mc.estimate(sc, cfg), default[name], name)


def test_pool_size_is_one_thread_per_cpu_and_chunk():
    cpus = len(os.sched_getaffinity(0))
    assert mc._pool_size(25) == min(cpus, 25)
    assert mc._pool_size(1) == 1
    # scratch is per block, whatever the chunk: each array holds at most
    # the block budget, or one sample when a sample alone is larger
    for rows, k, dof in ((8192, 100, 0), (8192, 200, 0), (8192, 100, 6), (128, 500, 128),
                         (130, 10, 64), (2048, 500, 1000), (20_000, 3, 0)):
        scratch = mc._Scratch(rows, k, dof)
        arrays = [scratch.values, scratch.mirror, scratch.spare, scratch.mask]
        arrays += [scratch.g] if dof else []
        for a in arrays:
            assert len(a) >= 1
            assert a.size <= max(mc._BLOCK_ELEMENTS, k * max(dof, 1))
