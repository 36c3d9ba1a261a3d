"""The check units: against the README's table of checks, and fed
samples as a run feeds them."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from kslogistic.checks import CHECKS, RunRecord
from kslogistic.diagnostics import boundary_guard, lp_norm, sandwich_check
from kslogistic.grid import Field, make_grid
from kslogistic.helmholtz import solve
from kslogistic.reference import classify
from kslogistic.scenario import scenario_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_check_table() -> list:
    """(name, [parameter, ...]) per row of the README's check table."""
    lines = README.read_text().splitlines()
    start = lines.index("| check | parameters | what must hold |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, params = (cell.strip() for cell in line.split("|")[1:3])
        rows.append((name.strip("`"), re.findall(r"`([^`]+)`", params)))
    return rows


def test_readme_check_table_matches_checks():
    expected = [(name, list(unit.schema)) for name, unit in CHECKS.items()]
    assert readme_check_table() == expected


def feed(name, states, cfg=None, **params):
    """Unit `name`, fed the samples (t, u, v) as a run feeds it: its
    verdict and the run record it wrote to."""
    sc = scenario_from_dict({
        "schema_version": 1,
        "name": "units",
        "grid": {"dim": 1, "n": 64, "half_width": 10.0},
        "params": {"chi": 0.3, "a": 1.0, "b": 1.0, **params},
        "ic": {"kind": "gaussian"},
        "control": {"dt": 0.01, "t_end": 0.5},
        "diagnostics": {"sample_interval": 0.1},
        "checks": {name: cfg or {}},
    })
    unit = CHECKS[name](sc.checks[name])
    rec = RunRecord(sc, classify(sc.params), series={})
    for t, u, v in states:
        rec.times.append(t)
        unit.observe(t, u, v, rec)
    return unit.verdict(rec), rec


G = make_grid(1, 64, 10.0)
U = Field(G, np.exp(-(G.axes[0] ** 2) / 4.0))
V = solve(U)


def test_boundary_guard_records_first_breach_once():
    dirty = [Field(G, U.values + 1e-3), Field(G, U.values + 1e-2)]
    verdict, rec = feed("boundary_guard", [(0.0, U, V), (0.1, dirty[0], V), (0.2, dirty[1], V), (0.3, U, V)])
    assert rec.events == [{"t": 0.1, "kind": "guard_breach", "message": boundary_guard(dirty[0], 0.0).detail}]
    assert not verdict.passed and verdict.detail.startswith("worst t=0.2: max deviation 1.000e-02")


def test_mass_growth_beyond_safe_exponent_is_not_asserted():
    # chi > b: the moment route bounds ||u||_r only for r <= chi / (chi - b) = 3
    states = [(0.1 * i, U, V) for i in range(4)]
    verdict, rec = feed("mass_growth", states, {"r": 4.0}, chi=1.5)
    assert rec.series["l4"] == [lp_norm(U, 4.0)] * 4
    assert verdict.passed and not verdict.asserted
    assert verdict.detail.endswith(" [not asserted: r=4 exceeds the safe exponent 3]")
    safe, _ = feed("mass_growth", states, {"r": 3.0}, chi=1.5)
    assert safe.asserted and "not asserted" not in safe.detail


def test_per_sample_unit_keeps_smallest_margin_sample():
    lifted = [Field(G, V.values + U.values.max() + d) for d in (1e-3, 1e-2, 1e-4)]
    verdict, _ = feed("sandwich", [(0.0, U, V)] + [(0.1 * (i + 1), U, w) for i, w in enumerate(lifted)])
    worst = sandwich_check(U, lifted[1])
    assert worst.margin < 0
    assert verdict == replace(worst, detail=f"worst t=0.2: {worst.detail}")
