"""Command-line behavior, exercised in process through main(argv)."""

import json

import numpy as np
import pytest

from portloss import engine
from portloss.cli import EXIT_NUMERIC, EXIT_OK, EXIT_REJECTED, main


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
    ],
)
def test_built_before_run_with_pointer(tmp_path, capsys, scenario, sets, pointer):
    overrides = [arg for s in sets for arg in ("--set", s)]
    for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
        assert main(argv + [scenario] + overrides) == EXIT_REJECTED
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
    assert not list(tmp_path.iterdir())


def test_malformed_returns_csv_rejected(tmp_path, capsys):
    csv = tmp_path / "returns.csv"
    csv.write_text("a,b\n0.01,-0.02\n0.03,n/a\n")
    doc = {"mode": "calibrate", "source": {"kind": "csv", "path": str(csv)}}
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_REJECTED
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/source/path"


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
