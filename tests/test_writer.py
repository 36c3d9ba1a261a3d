"""The report writers against their plain forms in ``oracles``: the
same bytes, snapshot values formatted once."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kslogistic.harness import emit_plot_data, run
from kslogistic.scenario import scenario_from_dict

from oracles import report_json, snapshot_tables

BASE = {
    "schema_version": 1,
    "name": "writer",
    "params": {"chi": 0.3, "a": 1.0, "b": 1.0},
    "ic": {"kind": "gaussian", "amplitude": 2.0, "width": 1.5},
    "control": {"dt": 0.02, "t_end": 0.4},
    "diagnostics": {"sample_interval": 0.1, "snapshot_every": 2},
    "checks": {"sandwich": {}, "mass_growth": {"r": 1.0, "tol": 1e-6}},
}
GRIDS = {
    "1d": {"dim": 1, "n": 64, "half_width": 10.0},
    "2d": {"dim": 2, "n": 16, "half_width": 6.0},
    "3d": {"dim": 3, "n": 8, "half_width": 4.0},
}


def scenario(grid="1d", snapshot_every=2):
    data = json.loads(json.dumps(BASE))
    data["grid"] = GRIDS[grid]
    data["diagnostics"]["snapshot_every"] = snapshot_every
    return scenario_from_dict(data)


def assert_matches_oracles(report, tmp_path):
    for wall in (True, False):
        assert report.to_json(include_wall_time=wall) == report_json(report, wall)
    manifest = emit_plot_data(report, tmp_path)
    tables = snapshot_tables(report)
    assert [entry["file"] for entry in manifest["snapshot_files"]] == list(tables)
    for fname, text in tables.items():
        assert (tmp_path / fname).read_bytes() == text.encode()


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("snapshot_every", [0, 2])
def test_writers_match_oracles(grid, snapshot_every, tmp_path):
    report = run(scenario(grid, snapshot_every))
    assert len(report.snapshots) == (3 if snapshot_every else 0)
    assert_matches_oracles(report, tmp_path)


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_non_finite_and_signed_zero_values(grid, tmp_path):
    report = run(scenario(grid))
    shape = report.snapshots[0]["u"].shape
    u = np.linspace(0.0, 1.0, math.prod(shape))
    u[:4] = [math.nan, math.inf, -0.0, -math.inf]
    snap = {"t": 0.5, "u": u.reshape(shape), "v": np.full(shape, -0.0)}
    report = replace(report, snapshots=[snap])
    assert_matches_oracles(report, tmp_path)
    text = report.to_json()
    assert "NaN" not in text and "Infinity" not in text
    got = json.loads(text)["snapshots"][0]
    flat = np.ravel(np.asarray(got["u"], dtype=object)).tolist()
    assert flat[:4] == [None, None, 0.0, None]
    assert math.copysign(1.0, flat[2]) == -1.0
    rows = [line.split() for line in (tmp_path / "snapshot_0000.dat").read_text().splitlines()]
    assert [row[-2] for row in rows[2:6]] == ["nan", "inf", "-0.0", "-inf"]


def test_snapshots_are_read_only_arrays_and_dict_holds_lists(tmp_path):
    for grid in GRIDS:
        report = run(scenario(grid))
        for snap in report.snapshots:
            for name in "uv":
                assert isinstance(snap[name], np.ndarray)
                assert not snap[name].flags.writeable
        listed = report.to_dict()["snapshots"]
        assert all(isinstance(s[name], list) for s in listed for name in "uv")
        assert json.loads(json.dumps(report.to_dict()))["snapshots"] == listed
        assert json.loads(report.to_json())["snapshots"] == listed
