"""Simulation oracle: determinism, atom classification, sampler agreement."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from portloss import (
    MarketParams,
    McConfig,
    MultiMarketParams,
    NoSubScenario,
    OverlapSpec,
    ParameterError,
    SubordinatedScenario,
    SubordinationSpec,
    no_default_probability,
)
from portloss import mc
from portloss.errors import SamplerBudgetError
from portloss.params import N_FLUCT_MIN, block_market


def _halves(market, k=50):
    return NoSubScenario(k_obligors=k, params=market,
                         overlap=OverlapSpec(0.5, 0.0, 0.5, 75.0))


def test_config_validation(market):
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
            market, rng, n, np.empty((rows, k)), np.empty((rows, dof, k))):
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
    # the memory refusal bounds rows x K, and so one sample's N x K G panel
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


def _ref_mixing(markets, m, rng):
    """Per-row scale and shift (m, beta) of every block."""
    n = markets.n_fluct
    z = rng.chisquare(n, size=m)
    u = rng.standard_normal((m, markets.beta)) * np.sqrt(z / n)[:, None]
    scale = np.column_stack(
        [mkt.rho * np.sqrt(z * (1.0 - mkt.c) * mkt.t_mat / n) for mkt, _ in markets.blocks])
    shift = np.column_stack(
        [-math.sqrt(mkt.c * mkt.t_mat) * mkt.rho * u[:, b] for b, (mkt, _) in enumerate(markets.blocks)])
    return scale, shift


def _ref_conditional(markets, classes, m, rng):
    """Default counts (m, C), and the cell (row * C + class) and
    log-return excess x = scale eps - a <= 0 of every defaulted obligor
    in row and class order, drawn out of place in one piece: the counts
    are Binomial(n_c, Phi(a / scale)) and eps = Phi^-1(U Phi(a / scale))
    with U in (0, 1], a = log(face / v0) - nu T - shift."""
    scale, shift = _ref_mixing(markets, m, rng)
    cols = [blk for blk, _, _ in classes]
    bounds = np.array([math.log(face / markets.blocks[blk][0].v0)
                       - markets.blocks[blk][0].drift_adj * markets.blocks[blk][0].t_mat
                       for blk, face, _ in classes])
    s, a = scale[:, cols], bounds - shift[:, cols]
    t = np.full_like(a, -np.inf)
    t[a > 0] = np.inf
    pos = s > 0
    t[pos] = a[pos] / s[pos]
    p = ndtr(t)
    counts = rng.binomial(np.array([n for _, _, n in classes]), p)
    cells = np.repeat(np.arange(counts.size), counts.ravel())
    u = 1.0 - rng.random(len(cells))
    eps = ndtri(u * np.minimum(p, np.nextafter(1.0, 0.0)).ravel()[cells])
    x = np.minimum(eps * s.ravel()[cells] - a.ravel()[cells], 0.0)
    return counts, cells, x


def _ref_compound(scenario, m, rng, weighted_sum):
    """Losses, default counts and senior-face counts of the conditional
    compound route; ``weighted_sum(sums, wts)`` forms the creditor
    losses from the per-class loss sums."""
    markets = block_market(scenario.params, scenario.k_obligors)
    if isinstance(scenario, SubordinatedScenario):
        tr, k = scenario.tranches, scenario.k_obligors
        counts, cells, x = _ref_conditional(markets, [(0, tr.f_total, k)], m, rng)
        h = math.log(tr.f_senior / tr.f_total)
        hits = x < h
        ls = -np.expm1(np.minimum(x - h, 0.0))
        lj = np.where(hits, 1.0, np.minimum(-np.expm1(x) * (tr.f_total / tr.f_junior), 1.0))
        losses = np.column_stack([np.bincount(cells, weights=ls, minlength=m) / k,
                                  np.bincount(cells, weights=lj, minlength=m) / k])
        return losses, counts[:, 0], np.bincount(cells[hits], minlength=m)
    _, classes, shares = scenario.holdings
    classes = [(blk, face, int(n)) for blk, face, n in classes]
    counts, cells, x = _ref_conditional(markets, classes, m, rng)
    sums = np.bincount(cells, weights=-np.expm1(x), minlength=counts.size).reshape(counts.shape)
    whole = np.array([n for _, _, n in classes])
    wts = shares / (shares * whole).sum(axis=1, keepdims=True)
    return weighted_sum(sums, wts), counts.sum(axis=1), np.zeros(m, dtype=np.int64)


def _ref_wishart(params, k, m, rng):
    """Returns of one chunk of m samples: all of eta first, then one G
    panel per epoch of ``mc._WISHART_EPOCH`` rows, the last epoch shorter,
    each panel mapped to Sigma^(1/2) G / sqrt(N) along its obligor axis."""
    n_int = int(params.n_fluct)
    eta = rng.standard_normal((m, n_int))
    g = rng.standard_normal((-(-m // mc._WISHART_EPOCH), n_int, k))
    lam_perp = math.sqrt(1.0 - params.c)
    lam_e = math.sqrt(1.0 - params.c + params.c * k)
    g = lam_perp * g + (lam_e - lam_perp) * g.mean(axis=2, keepdims=True)
    g *= params.rho * math.sqrt(params.t_mat) / math.sqrt(params.n_fluct)
    return np.einsum("mnk,mn->mk", g[np.arange(m) // mc._WISHART_EPOCH], eta)


def _class_rows(scenario):
    """Each obligor's default bound log(face / v0) - nu T (K,), and the
    first obligor of each class, whose obligors are contiguous."""
    p = scenario.params
    if isinstance(scenario, SubordinatedScenario):
        faces, counts = [scenario.tranches.f_total], [scenario.k_obligors]
    else:
        faces = [face for _, face, _ in scenario.holdings.classes]
        counts = [int(round(n)) for _, _, n in scenario.holdings.classes]
    bounds = np.log(np.array(faces) / p.v0) - p.drift_adj * p.t_mat
    return np.repeat(bounds, counts), np.cumsum(counts) - counts


def _ref_chunk(scenario, cfg, ci, m, weighted_sum):
    """Losses, default counts and senior-face counts of one chunk, out of
    place; the Wishart route reads every obligor's log excess over its
    bound."""
    rng = mc._chunk_rng(cfg.rng_seed, ci)
    if cfg.sampler == "compound":
        return _ref_compound(scenario, m, rng, weighted_sum)
    r = _ref_wishart(scenario.params, scenario.k_obligors, m, rng)
    bounds, starts = _class_rows(scenario)
    return _ref_losses(np.minimum(r - bounds, 0.0), starts, scenario, weighted_sum)


def _ref_losses(x, starts, scenario, weighted_sum):
    """Losses, default counts and senior-face counts of rows of log
    excesses x = min(r - b, 0), every obligor's; a class sums its
    contiguous run of obligors from ``starts``, and
    ``weighted_sum(sums, wts)`` forms the creditor losses."""
    if isinstance(scenario, SubordinatedScenario):
        tr, k = scenario.tranches, scenario.k_obligors
        h = math.log(tr.f_senior / tr.f_total)
        hits = x < h
        ls = -np.expm1(np.minimum(x - h, 0.0))
        lj = np.where(hits, 1.0, np.minimum(-np.expm1(x) * (tr.f_total / tr.f_junior), 1.0))
        losses = np.column_stack([np.add.reduceat(ls, starts, axis=1)[:, 0] / k,
                                  np.add.reduceat(lj, starts, axis=1)[:, 0] / k])
        return losses, (x < 0.0).sum(axis=1), hits.sum(axis=1)
    _, classes, shares = scenario.holdings
    whole = np.array([int(round(n)) for _, _, n in classes])
    sums = np.add.reduceat(-np.expm1(x), starts, axis=1)
    wts = shares / (shares * whole).sum(axis=1, keepdims=True)
    return weighted_sum(sums, wts), (x < 0.0).sum(axis=1), np.zeros(len(x), dtype=np.int64)


def _value_losses(v, scenario):
    """Losses, default counts and senior-face counts of rows of asset
    values v, every obligor's, by the asset-value payoffs: (1 - V/F)^+
    weighed by each creditor's per-obligor portfolio weight, and for a
    tranched pool the row means of (1 - V/f_s)^+ and
    clip((f_t - V)/f_j, 0, 1)."""
    if isinstance(scenario, SubordinatedScenario):
        tr = scenario.tranches
        ls = np.maximum(1.0 - v / tr.f_senior, 0.0)
        n_full = (v < tr.f_senior).sum(axis=1)
        lj = np.clip((tr.f_total - v) / tr.f_junior, 0.0, 1.0)
        n_def = (v < tr.f_total).sum(axis=1)
        return np.column_stack([ls.mean(axis=1), lj.mean(axis=1)]), n_def, n_full
    _, classes, shares = scenario.holdings
    counts = [int(round(n)) for _, _, n in classes]
    faces = np.repeat([face for _, face, _ in classes], counts)
    per_obligor = np.repeat(shares, counts, axis=1)
    per_obligor /= per_obligor.sum(axis=1, keepdims=True)
    l_ob = np.maximum(1.0 - v / faces, 0.0)
    losses = np.einsum("mk,bk->mb", l_ob, per_obligor)
    return losses, (v < faces).sum(axis=1), np.zeros(len(v), dtype=np.int64)


def _blas_sum(l_ob, wts):
    return l_ob @ wts.T


def _einsum_sum(l_ob, wts):
    return np.einsum("mk,bk->mb", l_ob, wts)


_PIPELINE_CASES = ("compound", "wishart", "tranched_k200", "tranched_wishart", "keep_samples",
                   "multimarket")


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
        "keep_samples": (tranched, McConfig(rng_seed=27, keep_samples=True, **cfg)),
        "multimarket": (multi, McConfig(rng_seed=28, **cfg)),
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
        losses, n_def, n_full = mc._chunk_losses(scenario, cfg, ci, m, scratch, portfolio)
        want, want_def, want_full = _ref_chunk(scenario, cfg, ci, m, _einsum_sum)
        np.testing.assert_array_equal(losses, want)
        np.testing.assert_array_equal(n_def, want_def)
        np.testing.assert_array_equal(n_full, want_full)
        # the serial pipeline formed creditor losses with BLAS
        blas, _, _ = _ref_chunk(scenario, cfg, ci, m, _blas_sum)
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


@pytest.mark.parametrize("case", ("wishart", "tranched_wishart", "empty_class"))
def test_wishart_losses_match_asset_value_payoffs(market, case):
    """The log-excess losses of every Wishart chunk against the
    asset-value payoffs of the same returns, V = v0 exp(nu T + r): losses
    to rtol 1e-12, with atol 1e-15 for the rounding of 1 - V/F itself near
    a zero loss, and the default and senior-hit counts exactly.  An
    obligor within 1e-12 of a bound, where the two forms could round to
    different sides of it, is counted and reported, not skipped.  In
    ``empty_class`` the third class, of 1 - 0.7 - 0.3 > 0 obligors in
    floating point, holds no whole obligor."""
    if case == "empty_class":
        scenario = NoSubScenario(k_obligors=100, params=market,
                                 overlap=OverlapSpec(0.7, 0.3, 0.5, 75.0))
        assert [round(n) for _, _, n in scenario.holdings.classes] == [70, 30, 0]
        cfg = McConfig(n_samples=10_000, chunk_size=2048, rng_seed=25, sampler="wishart")
    else:
        scenario, cfg = _pipeline_cases(market)[case]
    k, p = scenario.k_obligors, scenario.params
    bounds, _ = _class_rows(scenario)
    if isinstance(scenario, SubordinatedScenario):
        tr = scenario.tranches
        bounds = np.stack([bounds, bounds + math.log(tr.f_senior / tr.f_total)])
    scratch, portfolio = mc._Scratch(cfg.chunk_size, k, int(p.n_fluct)), mc._Portfolio(scenario)
    near = 0
    for ci in range(-(-cfg.n_samples // cfg.chunk_size)):
        m = min(cfg.chunk_size, cfg.n_samples - ci * cfg.chunk_size)
        losses, n_def, n_full = mc._chunk_losses(scenario, cfg, ci, m, scratch, portfolio)
        r = _ref_wishart(p, k, m, mc._chunk_rng(cfg.rng_seed, ci))
        near += int(np.sum(np.abs(r[..., None, :] - bounds) <= 1e-12))
        msg = f"chunk {ci}; {near} obligors so far within 1e-12 of a bound"
        want, want_def, want_full = _value_losses(p.v0 * np.exp(p.drift_adj * p.t_mat + r), scenario)
        np.testing.assert_allclose(losses, want, rtol=1e-12, atol=1e-15, err_msg=msg)
        np.testing.assert_array_equal(n_def, want_def, err_msg=msg)
        np.testing.assert_array_equal(n_full, want_full, err_msg=msg)
    print(f"{case}: {near} obligors within 1e-12 of a bound")


@pytest.mark.parametrize("n_bins", [20, 50])
def test_one_binning_follows_the_histogram_rule(n_bins):
    """Losses on every edge, one ulp below every edge above 0 (one below 0
    lies outside [0, 1]), 0.0 and 1.0: the one binning gives np.histogram's
    and np.histogram2d's counts, and its cell index counts to hist2, or
    to the first loss's bins with one loss."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    values = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [0.0, 1.0]])
    losses = np.column_stack([values, values[::-1], np.random.default_rng(0).permutation(values)])
    _, hist1, hist2 = mc._histograms(losses, edges)
    assert hist2 is None
    for b in range(3):
        np.testing.assert_array_equal(hist1[b], np.histogram(losses[:, b], bins=edges)[0])
    for cols in ((0, 1), (0, 2)):
        pair = losses[:, cols]
        cell, hist1, hist2 = mc._histograms(pair, edges)
        want = np.histogram2d(pair[:, 0], pair[:, 1], bins=(edges, edges))[0]
        np.testing.assert_array_equal(hist2, want)
        np.testing.assert_array_equal(hist1, [want.sum(axis=1), want.sum(axis=0)])
        np.testing.assert_array_equal(np.bincount(cell, minlength=n_bins**2), hist2.ravel())
    cell, hist1, _ = mc._histograms(losses[:, :1], edges)
    np.testing.assert_array_equal(np.bincount(cell, minlength=n_bins), hist1[0])
    # outside [0, 1], which only rounding could give: the nearest end bin
    _, hist1, _ = mc._histograms(np.array([[np.nextafter(0.0, -1.0)], [np.nextafter(1.0, 2.0)]]), edges)
    assert hist1[0, 0] == hist1[0, -1] == 1 and hist1.sum() == 2


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
        arrays = [scratch.values, scratch.spare, scratch.mask]
        arrays += [scratch.g] if dof else []
        for a in arrays:
            assert len(a) >= 1
            assert a.size <= max(mc._BLOCK_ELEMENTS, k * max(dof, 1))


# ---------------------------------------------------------------------------
# Wishart epochs: the between-epoch variances behind the design effect


@pytest.mark.parametrize("repeat", [mc._WISHART_EPOCH, 1])
def test_design_effect_reads_the_repeat_count(market, monkeypatch, repeat):
    """Each independent draw repeated ``repeat`` times inside an epoch: an
    epoch of M copies has exactly M times the binomial variance, so every
    design effect reads M, and independent draws read 1."""

    def chunk_losses(scenario, cfg, ci, m, scratch, pf):
        draws = np.random.default_rng(ci).random((-(-m // repeat), 2))
        losses = np.repeat(draws, repeat, axis=0)[:m]
        return losses, (losses[:, 0] > 0.3).astype(np.int64), np.zeros(m, dtype=np.int64)

    monkeypatch.setattr(mc, "_chunk_losses", chunk_losses)
    n = 200_000  # chunks of 8192 samples and a last of 3392: whole epochs
    run = mc.estimate(_halves(market, 100), McConfig(n_samples=n, n_bins=10, sampler="wishart"))
    assert run.epoch_samples == mc._WISHART_EPOCH
    iid_se = np.sqrt(np.diag(run.cov) / n)
    every = np.ones((10, 10), dtype=bool)
    if repeat > 1:
        assert run.design_effect(every) == pytest.approx(repeat, rel=1e-9)
        assert run.design_effect() == pytest.approx(repeat, rel=1e-9)
        np.testing.assert_allclose(run.mean_se, math.sqrt(repeat) * iid_se, rtol=1e-9)
        want = (1.0 - run.corr**2) / math.sqrt(n / repeat)
        assert run.corr_se == pytest.approx(want, rel=1e-9)
    else:
        assert run.design_effect(every) == pytest.approx(1.0, abs=0.05)
        assert run.design_effect() == pytest.approx(1.0, abs=0.05)
        np.testing.assert_allclose(run.mean_se, iid_se, rtol=0.05)
    assert run.design_effect(every) >= 1.0 and run.design_effect() >= 1.0


def test_wishart_short_epochs_are_counted(market):
    """10,003 samples in chunks of 1001: every chunk ends on a short epoch,
    of 1 sample or, in the last chunk, 2.  The between-epoch sums of
    squares match a brute-force sum over those epochs."""
    n, rows, e = 10_003, 1001, mc._WISHART_EPOCH
    cfg = McConfig(n_samples=n, chunk_size=rows, rng_seed=3, sampler="wishart", keep_samples=True)
    run = mc.estimate(_halves(market, 100), cfg)
    assert run.n == n and run.samples.shape == (n, 2)
    starts = [lo for c in range(0, n, rows) for lo in range(c, min(c + rows, n), e)]
    sizes = np.diff(starts + [n])
    assert sorted(set(sizes)) == [1, 2, e] and (sizes < e).sum() == 10
    edges = np.linspace(0.0, 1.0, cfg.n_bins + 1)
    p_cell = run.hist_2d
    ss_cell = np.zeros_like(p_cell)
    ss_loss = np.zeros(2)
    for lo, size in zip(starts, sizes):
        x = run.samples[lo : lo + size]
        y = np.histogram2d(x[:, 0], x[:, 1], bins=(edges, edges))[0]
        ss_cell += (y - size * p_cell) ** 2
        ss_loss += (x.sum(axis=0) - size * run.mean) ** 2
    np.testing.assert_allclose(run.cell_cluster_ss, ss_cell, rtol=1e-9, atol=1e-9)
    iid = np.diag(run.cov) * n
    np.testing.assert_allclose(run.mean_se, np.sqrt(np.maximum(ss_loss, iid)) / n, rtol=1e-9)


# ---------------------------------------------------------------------------
# conditional compound route: exact atoms at its edges, and its law against
# every obligor's loss


def _edge_cases(market):
    tiny = MarketParams(mu=market.mu, rho=market.rho, c=market.c, n_fluct=N_FLUCT_MIN,
                        t_mat=market.t_mat, v0=market.v0)
    halves = lambda mkt, face: NoSubScenario(
        k_obligors=50, params=mkt, overlap=OverlapSpec(0.5, 0.0, 0.5, face))
    tranched = lambda mkt, f_senior, f_junior: SubordinatedScenario(
        k_obligors=40, tranches=SubordinationSpec(f_senior, f_junior), params=mkt)
    # (scenario, True where every obligor defaults, False where none does,
    # None otherwise); at N_FLUCT_MIN the chi-square z is 0 in all but
    # about 0.04% of draws and tiny in the rest, so each class defaults
    # all or none; the extreme faces send Phi(t) to exactly 0 or 1
    return {
        "n_min_none": (halves(tiny, 75.0), False),
        "n_min_all": (halves(tiny, 150.0), True),
        "n_min_tranched_all": (tranched(tiny, 150.0, 50.0), True),
        "f_senior_zero": (tranched(market, 0.0, 75.0), None),
        "p_zero": (halves(market, market.v0 * 1e-30), False),
        "p_one": (halves(market, market.v0 * 1e300), True),
        "p_zero_tranched": (tranched(market, market.v0 * 1e-31, market.v0 * 9e-31), False),
        "p_one_tranched": (tranched(market, market.v0 * 1e299, market.v0 * 1e299), True),
    }


_EDGE_CASES = ("n_min_none", "n_min_all", "n_min_tranched_all", "f_senior_zero", "p_zero",
               "p_one", "p_zero_tranched", "p_one_tranched")


@pytest.mark.parametrize("case", _EDGE_CASES)
def test_conditional_route_edges_give_exact_atoms(market, case):
    """No warning (pytest turns RuntimeWarning into an error), and where
    the default probability is 0 or 1 no sample or every sample defaults."""
    scenario, defaults = _edge_cases(market)[case]
    cfg = McConfig(n_samples=10_000, rng_seed=17, chunk_size=4096, keep_samples=True)
    run = mc.estimate(scenario, cfg)
    assert np.all((run.samples >= 0.0) & (run.samples <= 1.0))
    tranched = isinstance(scenario, SubordinatedScenario)
    if tranched:
        assert run.subordination_violations == 0 and run.lattice_offenders == 0
    if defaults is False:
        assert run.p_no_default == 1.0
        assert np.all(run.samples == 0.0)
    elif defaults is True:
        assert run.p_no_default == 0.0
        # every asset value is below the senior face: the junior piece is
        # wiped out and the senior one hit
        if tranched:
            np.testing.assert_array_equal(run.samples[:, 1], 1.0)
            assert np.all(run.samples[:, 0] > 0.0)
        else:
            assert np.all(run.samples > 0.0)
    else:  # f_senior = 0: no senior loss, and the junior piece is the whole face
        np.testing.assert_array_equal(run.samples[:, 0], 0.0)
        want = no_default_probability(40, 75.0, market)
        assert abs(run.p_no_default - want) < 5.0 * max(run.p_no_default_se, 1e-4)


def test_zero_scale_rows_default_all_or_none(market):
    """Where z is 0 the scale is 0: each class defaults all or none."""
    m = 4096
    cfg = McConfig(n_samples=10_000, rng_seed=3)
    z = mc._chunk_rng(cfg.rng_seed, 0).chisquare(N_FLUCT_MIN, size=m)
    assert (z == 0.0).mean() > 0.99
    for case, want in (("n_min_none", 0), ("n_min_all", 50)):
        sc, _ = _edge_cases(market)[case]
        _, n_def, _ = mc._chunk_losses(sc, cfg, 0, m, mc._Scratch(m, 50, 0), mc._Portfolio(sc))
        np.testing.assert_array_equal(n_def[z == 0.0], want)


def _per_obligor_losses(scenario, n, seed):
    """Losses and default counts of n samples of every obligor's asset
    value from ``sample_compound``, through the per-obligor loss formula."""
    rng = np.random.default_rng(seed)
    losses, n_def = [], []
    for lo in range(0, n, 10_000):
        v = mc.sample_compound(scenario.params, min(10_000, n - lo), rng, scenario.k_obligors)
        got, d, _ = _value_losses(v, scenario)
        losses.append(got)
        n_def.append(d)
    return np.vstack(losses), np.concatenate(n_def)


def _binomial_z(a, b, n_a, n_b):
    """Two-sample binomial z of counts a out of n_a against b out of n_b."""
    pool = (a + b) / (n_a + n_b)
    return (a / n_a - b / n_b) / np.sqrt(pool * (1.0 - pool) * (1.0 / n_a + 1.0 / n_b))


def _law_cases(market):
    other = MarketParams(mu=0.1, rho=0.5, c=0.5, n_fluct=market.n_fluct, t_mat=1.0, v0=100.0)
    return {
        "halves_k100": _halves(market, 100),
        "tranched_k200": SubordinatedScenario(
            k_obligors=200, tranches=SubordinationSpec(37.0, 38.0), params=market),
        "overlap": NoSubScenario(k_obligors=60, params=market,
                                 overlap=OverlapSpec(0.3, 0.4, 0.25, 75.0)),
        "two_markets": NoSubScenario(
            k_obligors=30, params=MultiMarketParams(blocks=((market, 12), (other, 18))),
            face=75.0, creditors=2),
    }


@pytest.mark.parametrize("case", ("halves_k100", "tranched_k200", "overlap", "two_markets"))
def test_conditional_route_matches_per_obligor_losses(market, case):
    """The joint law of the two tracked losses: cells of a 10 x 10 grid on
    the pooled deciles of each loss, the no-default atom and the means."""
    scenario = _law_cases(market)[case]
    n = 100_000
    run = mc.estimate(scenario, McConfig(n_samples=n, rng_seed=41, keep_samples=True))
    want, want_def = _per_obligor_losses(scenario, n, seed=141)
    got = run.samples
    assert abs(_binomial_z(run.p_no_default * n, np.sum(want_def == 0), n, n)) <= 5.0
    edges = [np.unique(np.quantile(np.concatenate([got[:, b], want[:, b]]), np.linspace(0, 1, 11)))
             for b in range(2)]
    h_got = np.histogram2d(got[:, 0], got[:, 1], bins=edges)[0]
    h_want = np.histogram2d(want[:, 0], want[:, 1], bins=edges)[0]
    assert h_got.sum() == h_want.sum() == n
    cells = (h_got + h_want) / (2 * n) > 1e-3
    assert cells.sum() >= 8
    z = _binomial_z(h_got[cells], h_want[cells], n, n)
    assert np.max(np.abs(z)) <= 5.0, z
    se = np.sqrt(run.mean_se**2 + want.var(axis=0) / n)
    assert np.all(np.abs(run.mean - want.mean(axis=0)) <= 5.0 * se)
