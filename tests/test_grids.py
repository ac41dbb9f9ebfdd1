import json

import numpy as np
import pytest

from portloss import DensityGrid, ParameterError, canonical_json, scenario_fingerprint
from portloss.grids import cell_centers


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
    return DensityGrid(axes=(xs, ys), values=vals, metadata={"kind": "test"})


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
        DensityGrid(axes=(xs,), values=np.zeros((4,)), metadata={})
    with pytest.raises(ParameterError):
        DensityGrid(axes=(xs,), values=np.full(3, -1.0), metadata={})


def test_grid_json_roundtrip_is_deterministic(tmp_path):
    grid = _grid_2d()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    grid.to_json(p1)
    grid.to_json(p2)
    # no timestamps inside: re-serialization is byte-identical
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(json.loads(p1.read_text())["values"], grid.values)
