import json

import numpy as np
import pytest

from portloss import DensityGrid, ParameterError, canonical_json, scenario_fingerprint
from portloss.grids import cell_centers, write_csv
from portloss.scenarios import _provenance, _write_table, bundled_scenarios, resolve_scenario


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
    b = canonical_json({"a": [1.5, {"y": 3, "z": 2}], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [1.5, {"y": 3, "z": 2}], "b": 1}
    assert "\n" not in a


def test_fingerprint_ignores_outputs_section():
    doc = {"schema_version": "1", "mode": "nosub", "x": 1}
    fp = scenario_fingerprint(doc)
    assert len(fp) == 16 and all(ch in "0123456789abcdef" for ch in fp)
    with_out = dict(doc, outputs={"density": "a.csv"})
    assert scenario_fingerprint(with_out) == fp
    assert scenario_fingerprint(dict(doc, x=2)) != fp


def test_cell_centers():
    c = cell_centers(4, 0.0, 1.0)
    np.testing.assert_allclose(c, [0.125, 0.375, 0.625, 0.875])


def _grid_2d():
    xs = cell_centers(3, 0.0, 0.3)
    ys = cell_centers(2, 0.0, 1.0)
    vals = np.arange(6, dtype=float).reshape(3, 2)
    return DensityGrid(axes=(xs, ys), values=vals)


def test_grid_csv_roundtrip(tmp_path):
    grid = _grid_2d()
    path = tmp_path / "grid.csv"
    grid.to_csv(path, comments=("fingerprint abc", "second line"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# fingerprint abc"
    assert lines[1] == "# second line"
    assert not lines[2].startswith("#")  # header
    data = np.loadtxt(path, delimiter=",", skiprows=3)
    assert data.shape == (6, 3)
    np.testing.assert_allclose(data[:, 2], grid.values.ravel())


def test_grid_csv_no_comments(tmp_path):
    grid = _grid_2d()
    path = tmp_path / "plain.csv"
    grid.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert not first.startswith("#")


def test_grid_rejects_mismatched_axes():
    xs = cell_centers(3, 0.0, 0.3)
    with pytest.raises(ParameterError):
        DensityGrid(axes=(xs,), values=np.zeros((4,)))
    with pytest.raises(ParameterError):
        DensityGrid(axes=(xs,), values=np.full(3, -1.0))


def test_grid_refuses_nan_densities():
    xs = cell_centers(3, 0.0, 0.3)
    with pytest.raises(ParameterError, match="NaN"):
        DensityGrid(axes=(xs,), values=np.array([1.0, np.nan, 0.5]))
    with pytest.raises(ParameterError, match="NaN"):
        DensityGrid(axes=(xs, xs), values=np.full((3, 3), np.nan))
    # a rounding-level negative is still read as 0
    assert DensityGrid(axes=(xs,), values=np.array([1.0, -1e-13, 0.5])).values[1] == 0.0


def _reference_csv(path, comments, header, rows):
    """The per-value writer that defined the CSV bytes."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


# signed zero, the smallest subnormal, a huge value and values that need 17 digits
AWKWARD = [-0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 1e300]


def _assert_grid_bytes(grid, header, tmp_path):
    cols = [*np.meshgrid(*grid.axes, indexing="ij"), grid.values]
    if grid.quality is not None:
        cols.append(grid.quality)
    rows = zip(*(c.ravel().tolist() for c in cols))
    _reference_csv(tmp_path / "ref.csv", ("a", "b"), header, rows)
    grid.to_csv(tmp_path / "new.csv", comments=("a", "b"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_grid_csv_bytes_match_the_per_value_writer_2d(tmp_path):
    xs = np.array(AWKWARD)
    ys = np.array([0.0, 0.7, 1.0 - 1e-16, 12345.678901234567])
    rows = [0.0, 5e-324, 0.3, 1e300, 1.0 / 7.0, 0.1 + 0.2]
    vals = np.outer(rows, [1.0, 3.0, 1.0 / 3.0, 0.0])
    qual = np.zeros(vals.shape)
    qual[0, 0], qual[1, 2] = -0.0, 1.0
    grid = DensityGrid(axes=(xs, ys), values=vals, quality=qual)
    _assert_grid_bytes(grid, ["l1", "l2", "density", "quality"], tmp_path)


def test_grid_csv_bytes_match_the_per_value_writer_1d(tmp_path):
    vals = [1e300, 0.0, 5e-324, 0.3, 1.0 / 3.0, 2.5]
    grid = DensityGrid(axes=(np.array(AWKWARD),), values=np.array(vals))
    _assert_grid_bytes(grid, ["l1", "density"], tmp_path)


def test_table_csv_bytes_match_the_per_value_writer(tmp_path):
    sc = resolve_scenario(bundled_scenarios()["no_default_k_scan"])
    rows = [(mu, k, p) for mu, k, p in zip(AWKWARD, [1, 2, 50, 10**20, -3, 0], reversed(AWKWARD))]
    header = ["mu", "k_obligors", "p_no_default"]
    _reference_csv(tmp_path / "ref.csv", _provenance(sc), header, rows)
    _write_table(rows, header, sc, str(tmp_path / "new.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_types_each_column(tmp_path):
    # a column of floats, numpy floats included, takes '%.17g'; any other
    # column takes str, so a mixed one still round-trips
    floats = [0.1, np.float64(0.1), -0.0, 5e-324, 1e300, 1.0 / 3.0]
    others = [1, True, "x", 10**20, -3, None]
    mixed = [1, 2.5, True, np.float64(0.1), "x", -0.0]
    write_csv(tmp_path / "t.csv", ("c",), ["f", "o", "m"], [floats, others, mixed])
    rows = [(f"{f:.17g}", str(o), str(m)) for f, o, m in zip(floats, others, mixed)]
    want = "# c\nf,o,m\n" + "".join(",".join(r) + "\n" for r in rows)
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    cells = [line.split(",")[2] for line in want.splitlines()[2:]]
    assert [float(cells[i]) for i in (1, 3, 5)] == [2.5, 0.1, -0.0]
