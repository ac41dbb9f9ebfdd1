"""Command-line behavior, exercised in process through main(argv)."""

import json
import re

import numpy as np
import pytest

from portloss import engine
from portloss.cli import EXIT_NUMERIC, EXIT_OK, EXIT_REJECTED, main
from portloss.scenarios import bundled_scenarios, resolve_scenario


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for sid in ("subordinated_k200", "nosub_halves_k100", "no_default_k_scan",
                "calibrate_synthetic_base"):
        assert sid in out


def test_validate_bundled(capsys):
    assert main(["validate", "no_default_k_scan"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["valid"] is True
    assert rep["id"] == "no_default_k_scan"
    assert rep["cost"]["grid_points"] == 21


def test_unknown_reference_suggests_listing(capsys):
    assert main(["validate", "/no/such/file.json"]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "scenario_rejected"
    assert "list-scenarios" in err["message"]


def test_invalid_json_file_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert "not valid JSON" in err["message"]


def test_bad_override_rejected_with_pointer(tmp_path, capsys):
    rc = main(["run", "no_default_k_scan", "--set", "mode=bogus",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/mode"
    assert not list(tmp_path.iterdir())


def test_run_writes_artifacts(tmp_path, capsys):
    rc = main(["run", "no_default_k_scan", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("wrote ")
    assert "[no_default_table]" in out or "[" in out
    assert (tmp_path / "no_default.csv").exists()


def test_run_scenario_file_with_override(tmp_path, capsys):
    doc = {"mode": "no-default", "face": 75.0, "k_values": [1, 2],
           "mu_values": [0.17]}
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", str(path), "--set", "k_values=[1,2,4]",
               "--out-dir", str(tmp_path / "out")])
    assert rc == EXIT_OK
    capsys.readouterr()
    rows = [ln for ln in (tmp_path / "out" / "no_default.csv")
            .read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 3  # header plus one row per K


def test_numeric_failure_leaves_error_report(tmp_path, capsys):
    csv = tmp_path / "flat.csv"
    np.savetxt(csv, np.zeros((100, 3)), delimiter=",")
    doc = {"mode": "calibrate", "source": {"kind": "csv", "path": str(csv)}}
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--out-dir", str(out_dir)])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "FitError" in err
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error"] == "FitError"
    assert report["partial_artifacts"] == []


@pytest.mark.parametrize(
    "sets, pointer",
    [
        (["quadrature.z_nodes=4"], "/quadrature"),
        (["quadrature.rel_tol=0.5"], "/quadrature"),
        (['mc.sampler="wishart"', "market.n_fluct=6.5"], "/market/n_fluct"),
    ],
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, sets, pointer):
    overrides = [arg for s in sets for arg in ("--set", s)]
    for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
        rc = main(argv + ["mc_validate_halves_k100"] + overrides)
        assert rc == EXIT_REJECTED
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
    assert not list(tmp_path.iterdir())


def test_non_finite_market_rejected_with_pointer(tmp_path, capsys):
    doc = {"mode": "no-default", "face": 75.0, "k_values": [1, 2],
           "market": {"mu": float("nan")}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)],
                 ["run", str(path), "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == EXIT_REJECTED
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == "/market"


# the bundled scenario that holds each overridden block
_SCENARIO_WITH = {
    "grid": "subordinated_k200",
    "fit": "calibrate_synthetic_base",
    "source": "calibrate_synthetic_base",
    "market_two": "limit_two_markets_base",
    "tranches": "limit_subordinated_ridge",
}


@pytest.mark.parametrize(
    "sets, pointer",
    [
        (["portfolio.face=NaN"], "/portfolio/face"),
        (["portfolio.k_obligors=600", 'mc.sampler="wishart"'], "/portfolio/k_obligors"),
        (["grid.lo=NaN"], "/grid/lo"),
        (["fit.grid_lo=NaN"], "/fit/grid_lo"),
        (['portfolio.layout="overlap"',
          'portfolio.overlap={"r1":0.333,"r12":0.2,"gamma":0.5,"f0":75}'],
         "/portfolio/overlap"),
        (["market_two.n_fluct=7"], "/market_two/n_fluct"),
        (["tranches.f_senior=0"], "/tranches/f_senior"),
        (["tranches.f_junior=1e-9"], "/tranches/f_junior"),
        (['mc.sampler="wishart"', "market.n_fluct=100000"], "/market/n_fluct"),
        (["portfolio.k_obligors=1e300"], "/portfolio/k_obligors"),
        # a count of about 1e600 values, beyond float range
        (["source.k_assets=1e300"], "/source/k_assets"),
        # f_total / f_junior = 1e158, whose square the junior kernels formed
        # (OverflowError at run, exit 3); each v0/face is inside its window
        (["grid.n_cells=5", "tranches.f_senior=1e130", "tranches.f_junior=1e-28"],
         "/tranches/f_junior"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_rejected_before_run_with_pointer(tmp_path, capsys, sets, pointer):
    overrides = [arg for s in sets for arg in ("--set", s)]
    scenario = _SCENARIO_WITH.get(sets[0].split(".")[0], "mc_validate_halves_k100")
    for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
        assert main(argv + [scenario] + overrides) == EXIT_REJECTED
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
        # a count beyond float range is shortened, not spelled out
        assert not re.search(r"\d{20}", err["message"])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "scenario, sets, pointer",
    [
        ("nosub_halves_k100",
         ['portfolio.layout="overlap"', 'portfolio.overlap={"r1":0,"r12":1,"gamma":0.5,"f0":75}'],
         "/portfolio/overlap"),
        ("nosub_halves_k100", ["portfolio.k_obligors=[10,20]"], "/outputs/density"),
        ("multimarket_split_pair",
         ['markets=[{"k_obligors":20},{"k_obligors":20},{"k_obligors":20}]',
          'creditors="per-market"'],
         "/creditors"),
        ("correlation_sweep_full", ['method="mc"', "portfolio.k_values=[11]"],
         "/portfolio/k_values"),
        ("limit_equal_loss_curve", ["grid.hi=2"], "/grid"),
        # v0/face beyond what the second moment holds once overflowed at run time
        ("nosub_halves_k100", ["market.v0=1e300"], "/portfolio/face"),
        ("nosub_halves_k100", ["portfolio.face=1e-300"], "/portfolio/face"),
        ("subordinated_k200", ["tranches.f_junior=1e-300"], "/tranches/f_junior"),
        ("limit_two_markets_base", ["market_two.v0=1e300"], "/face_two"),
        # below the floor where the chi-square rule has positive nodes
        ("nosub_halves_k100", ["market.n_fluct=1e-300"], "/market/n_fluct"),
        # below the floor where the chi-square rule holds its first two
        # moments (the crossing scan's z range was empty there)
        ("limit_subordinated_ridge", ["market.n_fluct=1.1102230246251568e-16"],
         "/market/n_fluct"),
        ("subordinated_k200",
         ['quadrature.mode="adaptive"', "market.n_fluct=1.1102230246251568e-16"],
         "/market/n_fluct"),
        ("limit_subordinated_ridge", ["market.n_fluct=1e-12"], "/market/n_fluct"),
        # the adaptive rule runs the ridge's crossing solve, which refuses
        # these faces
        ("subordinated_k200", ['quadrature.mode="adaptive"', "tranches.f_senior=0"],
         "/tranches/f_senior"),
        ("subordinated_k200", ['quadrature.mode="adaptive"', "tranches.f_junior=1e-5"],
         "/tranches/f_junior"),
        # the adaptive rule localizes at the ridge's crossings, which miss a
        # ridge thinner than a grid cell
        ("subordinated_k200", ['quadrature.mode="adaptive"', "market.n_fluct=1e8"],
         "/market/n_fluct"),
        # four markets at the mode's 24 u nodes: 21.2M nodes, about 1.2 GB
        # for the table and its build
        ("multimarket_split_pair",
         ['markets=[{"k_obligors":20},{"k_obligors":20},{"k_obligors":20},{"k_obligors":20}]'],
         "/quadrature/u_nodes"),
        # no default at working precision leaves a creditor's loss variance
        # 0 and the correlation undefined
        ("correlation_sweep_full", ["market.rho=1e-9"], "/market/rho"),
        ("correlation_sweep_full", ["market.t_mat=1e-9"], "/market/t_mat"),
        # 10,000 samples of 5 obligors see no default with probability ~1,
        # and the sampled correlation is undefined
        ("correlation_sweep_full", ['method="mc"', "market.rho=0.03", "mc.n_samples=10000"],
         "/mc/n_samples"),
        # a tranche face is checked before the ridge's support, whose
        # kernels take log(face / v0); v0 / face below its floor (here 0)
        # is refused at the face
        ("limit_subordinated_ridge", ["market.v0=5e-324"], "/tranches/f_senior"),
        ("limit_subordinated_ridge", ["tranches.f_senior=5e-324"], "/tranches/f_senior"),
        # a log-drift or horizon variance past the float range of an asset
        # value is refused at the field that carries it
        ("nosub_halves_k100", ["market.mu=1e300"], "/market/mu"),
        ("nosub_halves_k100", ["market.t_mat=1.7e308"], "/market/t_mat"),
        ("limit_subordinated_ridge", ["market.mu=1e300"], "/market/mu"),
        ("limit_subordinated_ridge", ["market.t_mat=1.7e308"], "/market/t_mat"),
        # a creditor's loss variance at or below loss_correlation's floor of
        # 1e-300 is refused at the field that moves the firms out of reach
        # of default (these ran into exit 3)
        ("correlation_sweep_full", ["market.v0=1e20"], "/market/v0"),
        ("correlation_sweep_full", ["market.mu=40"], "/market/mu"),
        ("correlation_sweep_full", ["market.mu=300"], "/market/mu"),
        # a market that saturates the ridge's means is refused at its own
        # field, not at n_fluct
        ("limit_subordinated_ridge", ["market.mu=50"], "/market/mu"),
        ("limit_subordinated_ridge", ["market.mu=-50"], "/market/mu"),
        ("limit_subordinated_ridge", ["market.v0=3.8e-299"], "/market/v0"),
    ],
)
def test_built_before_run_with_pointer(tmp_path, capsys, scenario, sets, pointer):
    overrides = [arg for s in sets for arg in ("--set", s)]
    for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
        assert main(argv + [scenario] + overrides) == EXIT_REJECTED
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
    assert not list(tmp_path.iterdir())


def test_bundled_mc_sweep_is_accepted(capsys):
    # at 200,000 samples no cell's half stays without a default with a
    # chance above 1e-9
    assert main(["validate", "correlation_sweep_full", "--set", 'method="mc"']) == EXIT_OK


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moment_exponents_past_the_exp_range_run_clean(tmp_path):
    # on the 512-node rule in this market the exponents of the E1 and E2
    # terms pass 709 at the outer nodes, where their products overflowed
    sets = ["market.n_fluct=1", "market.c=0.9", "market.rho=1.0", "quadrature.z_nodes=512"]
    overrides = [arg for s in sets for arg in ("--set", s)]
    assert main(["run", "nosub_halves_k100", *overrides, "--out-dir", str(tmp_path)]) == EXIT_OK


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_moment_terms_at_the_v0_face_floor_run_clean(tmp_path):
    # v0/face at V0_FACE_MIN: the squared bound ratio (face/v0)^2 of the
    # E2 term's completed-square form overflowed as a float power (exit 3)
    sets = ["market.v0=7.5e-299", "market.rho=3", "market.n_fluct=1", "grid.n_cells=5"]
    overrides = [arg for s in sets for arg in ("--set", s)]
    assert main(["validate", "nosub_halves_k100", *overrides]) == EXIT_OK
    assert main(["run", "nosub_halves_k100", *overrides, "--out-dir", str(tmp_path)]) == EXIT_OK


def test_malformed_returns_csv_rejected(tmp_path, capsys):
    csv = tmp_path / "returns.csv"
    csv.write_text("a,b\n0.01,-0.02\n0.03,n/a\n")
    doc = {"mode": "calibrate", "source": {"kind": "csv", "path": str(csv)}}
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/source/path"


def test_oversized_or_unreadable_returns_csv_rejected_by_validate(tmp_path, capsys):
    # 2 rows of 11,600 columns: their covariance alone would hold 11,600^2
    # values, over the 2^27 budget
    csv = tmp_path / "wide.csv"
    csv.write_text(("0.01," * 11_599 + "0.02\n") * 2)
    for source in (csv, tmp_path / "missing.csv"):
        doc = {"mode": "calibrate", "source": {"kind": "csv", "path": str(source)}}
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_REJECTED
        assert json.loads(capsys.readouterr().err)["pointer"] == "/source/path"


def test_vanishing_correlation_is_a_numeric_failure(tmp_path, capsys):
    # the swept cells at c = 0.8 and 0.9 have a marginal loss variance of
    # exactly 0; the sweep then refuses with the package's own error
    out_dir = tmp_path / "out"
    rc = main(["run", "correlation_sweep_full", "--set", "portfolio.face=1e-9",
               "--out-dir", str(out_dir)])
    assert rc == EXIT_NUMERIC
    assert "UndefinedCorrelationError" in capsys.readouterr().err
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error"] == "UndefinedCorrelationError"
    assert "traceback" not in report


def test_unexpected_exception_is_exit_3_with_report(tmp_path, capsys, monkeypatch):
    def broken_runner(*args, **kwargs):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(engine, "no_default_probability", broken_runner)
    out_dir = tmp_path / "out"
    assert main(["run", "no_default_k_scan", "--out-dir", str(out_dir)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "RuntimeError: injected defect" in err
    assert "Traceback" not in err
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error"] == "RuntimeError"
    assert report["message"] == "injected defect"
    assert "broken_runner" in report["traceback"]


def test_error_report_lists_partial_artifacts(tmp_path, capsys, monkeypatch):
    # the third grid of the trio fails after the first two were written
    real = engine.density_grid_nosub
    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("third grid fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "density_grid_nosub", third_call_fails)
    out_dir = tmp_path / "out"
    rc = main(["run", "nosub_equal_halves_trio", "--out-dir", str(out_dir)])
    assert rc == EXIT_NUMERIC
    capsys.readouterr()
    report = json.loads((out_dir / "error_report.json").read_text())
    written = [out_dir / "nosub_halves_k10.csv", out_dir / "nosub_halves_k20.csv"]
    assert [a["path"] for a in report["partial_artifacts"]] == [str(p) for p in written]
    assert all(a["partial"] and a["kind"] == "density_grid" for a in report["partial_artifacts"])
    assert all(p.exists() for p in written)
    assert not (out_dir / "nosub_halves_k100.csv").exists()


@pytest.mark.parametrize("override", ["markets.5.k_obligors=3", "markets.x=3"])
def test_override_that_is_not_an_array_index_rejected(capsys, override):
    assert main(["validate", "multimarket_split_pair", "--set", override]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "scenario_rejected"
    assert override.split("=")[0] in err["message"]


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
def test_unreadable_document_rejected(tmp_path, capsys, content):
    # None: the reference is a directory; otherwise a file of non-UTF-8 bytes
    path = tmp_path / "doc"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["validate", str(path)]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert str(path) in err["message"]


def test_out_dir_that_is_a_file_rejected_before_running(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(engine, "no_default_probability", must_not_run)
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["run", "no_default_k_scan", "--out-dir", str(out)]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert str(out) in err["message"]
    assert out.read_text() == "keep"


def test_unwritable_error_report_still_exits_3(tmp_path, capsys, monkeypatch):
    def broken_runner(*args, **kwargs):
        raise RuntimeError("injected defect")

    monkeypatch.setattr(engine, "no_default_probability", broken_runner)
    (tmp_path / "error_report.json").mkdir()
    assert main(["run", "no_default_k_scan", "--out-dir", str(tmp_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "RuntimeError: injected defect" in err
    assert "report not written" in err


def _density(path):
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=1 + sum(
        line.startswith("#") for line in open(path)))[:, -1]


def test_512_z_nodes_give_a_finite_grid_close_to_256(tmp_path):
    # the largest rule the schema allows; its weights once overflowed to NaN
    dens = {}
    for count in (256, 512):
        out = tmp_path / str(count)
        rc = main(["run", "nosub_halves_k100", "--set", f"quadrature.z_nodes={count}",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        dens[count] = _density(out / "nosub_halves_k100.csv")
    assert np.all(np.isfinite(dens[512]))
    assert np.max(np.abs(dens[512] - dens[256])) <= 1e-4 * dens[256].max()


def test_400_u_nodes_give_a_finite_grid_close_to_256(tmp_path):
    # the Gaussian rule once had NaN weights from 372 to 512 nodes
    dens = {}
    for count in (256, 400):
        out = tmp_path / str(count)
        rc = main(["run", "nosub_halves_k100", "--set", f"quadrature.u_nodes={count}",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        dens[count] = _density(out / "nosub_halves_k100.csv")
    assert np.all(np.isfinite(dens[400]))
    assert np.max(np.abs(dens[400] - dens[256])) <= 1e-4 * dens[256].max()


@pytest.mark.parametrize("sid", [
    "nosub_halves_k100", "subordinated_k200", "limit_equal_loss_curve",
    "limit_small_vs_large_r10", "no_default_k_scan",
])
def test_large_n_fluct_runs(sid, tmp_path, capsys):
    # the chi-square rule once divided by Gamma(N/2), which overflows above N = 343
    assert main(["run", sid, "--set", "market.n_fluct=400", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "nan" not in capsys.readouterr().out


def _shrunk_at(sid, n_fluct):
    """Overrides that set every market of a bundled document to ``n_fluct``
    and shrink its grid, rules and samples."""
    doc = resolve_scenario(bundled_scenarios()[sid])
    sets = [f"{key}.n_fluct={n_fluct}" for key in ("market", "market_one", "market_two")
            if key in doc]
    sets += [f"markets.{i}.n_fluct={n_fluct}" for i in range(len(doc.get("markets", [])))]
    if "source" in doc:
        sets.append(f"source.market.n_fluct={n_fluct}")
    if "grid" in doc:
        sets.append("grid.n_cells=4")
    if "quadrature" in doc:
        sets += ["quadrature.z_nodes=8", "quadrature.u_nodes=8"]
    if "mc" in doc:
        sets.append("mc.n_samples=10000")
    return [arg for s in sets for arg in ("--set", s)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_fluct", ["1e8", "1e17", "1e100", "1.7e308"])
@pytest.mark.parametrize("sid", sorted(bundled_scenarios()))
def test_bundled_scenarios_run_or_refuse_at_large_n_fluct(sid, n_fluct, tmp_path, capsys):
    # in (z, u) a u root of order 1/sqrt(N) missed its residual tolerance
    # (exit 3 from 1e17), the chi-square rule overflowed at 1.7e308, and the
    # ridge wrote a grid of zeros; in (s, v) every mode runs, and the ridge,
    # whose support is then thinner than a cell, is refused up front
    overrides = _shrunk_at(sid, n_fluct)
    if main(["validate", sid, *overrides]) == EXIT_REJECTED:
        assert sid == "limit_subordinated_ridge"
        assert json.loads(capsys.readouterr().err)["pointer"] == "/market/n_fluct"
        return
    assert main(["run", sid, *overrides, "--out-dir", str(tmp_path)]) == EXIT_OK
    for path in tmp_path.glob("*.csv"):
        header, *rows = [line for line in path.read_text().splitlines()
                         if not line.startswith("#")]
        cols = header.split(",")
        if "density" in cols:
            table = np.array([[float(x) for x in row.split(",")] for row in rows])
            flagged = "quality" in cols and table[:, cols.index("quality")].any()
            dens = table[:, cols.index("density")]
            assert np.all(np.isfinite(dens)) and (dens.any() or flagged), path.name


def test_ridge_runs_at_a_sharp_n_fluct(tmp_path, capsys):
    # at n_fluct=1e6 some junior u roots sit where the mean's rounding noise
    # meets the root tolerance; bisecting on the signs of that noise once
    # left a residual of 1e-10 and exit 3
    rc = main(["run", "limit_subordinated_ridge", "--set", "market.n_fluct=1e6",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    table = np.loadtxt(tmp_path / "limit_subordinated.csv", delimiter=",", comments="#",
                       skiprows=4)
    dens, quality = table[:, 2], table[:, 3]
    # the peak falls as the ridge sharpens: 18.2, 3.50 and 1.75 at 1e4, 1e5 and 3e5
    assert np.all(np.isfinite(dens)) and 0.6 < dens.max() < 0.8
    assert not quality.any()


@pytest.mark.parametrize(
    "scenario, sets, pointer",
    [
        ("mc_validate_halves_k100", ["portfolio.k_obligors=1000000"], "/portfolio/k_obligors"),
        ("mc_validate_halves_k100", ["portfolio.k_obligors=16386"], "/portfolio/k_obligors"),
        ("correlation_sweep_full", ['method="mc"', "portfolio.k_values=[20,100000]"],
         "/portfolio/k_values"),
        ("calibrate_synthetic_base", ["source.k_assets=1000000"], "/source/k_assets"),
        ("calibrate_synthetic_base", ["source.m_samples=100000000"], "/source/m_samples"),
        # 100 x 16384 returns, but a 16384 x 16384 covariance
        ("calibrate_synthetic_base", ["source.k_assets=16384", "source.m_samples=100"],
         "/source/k_assets"),
    ],
)
def test_validate_refuses_documents_over_the_memory_budget(capsys, scenario, sets, pointer):
    # validate only: running these would ask for gigabytes
    overrides = [arg for s in sets for arg in ("--set", s)]
    assert main(["validate", scenario] + overrides) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == pointer
    assert "memory budget" in err["message"]


@pytest.mark.parametrize("scenario, sets", [
    # 8192 samples x 16384 obligors = 2**27 values per chunk
    ("mc_validate_halves_k100", ["portfolio.k_obligors=16384"]),
    # 16384 x 8192 = 2**27 returns
    ("calibrate_synthetic_base", ["source.k_assets=8192", "source.m_samples=16384"]),
])
def test_validate_accepts_documents_at_the_memory_budget(capsys, scenario, sets):
    overrides = [arg for s in sets for arg in ("--set", s)]
    assert main(["validate", scenario] + overrides) == EXIT_OK


def _peak_growth_kib(out_dir, args):
    """How far a fresh process's peak RSS rises above its RSS after
    imports during ``portloss run`` of ``args``, in KiB, on at most two
    CPUs, so that the MC pool has the same threads on any host.  VmHWM is
    the peak RSS of the probe's own address space; its ru_maxrss would
    start at the RSS of this test process, which spawned it."""
    import os
    import subprocess
    import sys

    import portloss

    code = (
        "import os\n"
        "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
        "def status(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith(key))\n"
        "from portloss import cli\n"
        "base = status('VmRSS:')\n"
        f"assert cli.main(['run'] + {list(args)!r} + ['--out-dir', {str(out_dir)!r}]) == 0\n"
        "print(status('VmHWM:') - base)\n"
    )
    src = os.path.dirname(os.path.dirname(portloss.__file__))
    probe = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    return int(probe.stdout.splitlines()[-1])


def test_multimarket_run_stays_within_a_few_blocks_of_its_imports(tmp_path):
    # the kernels once held 201 cells x 10^4 nodes per intermediate, 60 MB
    assert _peak_growth_kib(tmp_path, ["multimarket_split_pair"]) < 30 * 1024


def test_tranched_mc_run_stays_within_a_few_blocks_of_its_imports(tmp_path):
    # each MC thread once held values, spare and mask for a whole chunk of
    # 8192 x 200 asset values, 28 MB; now it holds one block of each
    args = ["mc_validate_halves_k100", "--set", "portfolio.k_obligors=200",
            "--set", 'tranches={"f_senior":37.0,"f_junior":38.0}']
    assert _peak_growth_kib(tmp_path, args) < 25 * 1024
