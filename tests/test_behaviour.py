"""Behaviour of the bundled scenarios against a committed snapshot.

``tests/data/bundled_behaviour.json`` holds ``behaviour(report)`` for
each bundled scenario, written before the checks were split into units.
It was regenerated once, for envelope_1d, fisher_1d and spreading_1d
only, when the stepper went from second to third order in time: their
front fits and margins moved with the time error.  envelope_1d's entry
alone was regenerated again when that scenario took a time_tol: its
sandwich margin moved by 1e-16, and its events now list the
rejected intervals and dt changes of its step-size ladder.  fisher_1d's
and spreading_1d's entries alone were regenerated again when the bump
initial data took a C^inf shoulder and both runs moved to the box
(L, n) = (100, 2048): the smaller spectral tail of u0 moved their speed
fits and margins.  stability_1d's and mass_decay_1d's entries alone
were regenerated when both scenarios took a time_tol: their events now
list the dt changes of the ladder, and their margins moved by under
1e-14 (stability_1d's equilibrium margin reads the rounding floor of
its distance to a/b at t_end).  The envelope margins alone of
envelope_1d, fisher_1d, mass_growth_1d and twod_smoke were regenerated
when the envelope check's slack went from tol (1 + sup u0) to tol
absolute: 4.0e-6, 1.99999e-6, 3.0e-6 and 3.0e-6 became 1.0e-6,
0.99999e-6, 1.0e-6 and 1.0e-6.  The reports come from
``acceptance.bundled_report``, the cache the acceptance gate shares, so
the snapshot test and the time_tol test add no runs to the suite.
test_front_box_is_wide_enough runs the two front scenarios itself, on
their bundled box and on one twice as wide.

Check names and order, ``passed``, ``asserted``, ``ok``, the abort kind,
the event kinds and the sample count must match exactly.  Margins and
the speed fit must match within ``floor + REL * |expected|``.  The
floor is ``ABS``, a rounding-level 1e-12, except for the margins that
read the vacuum ahead of a front, which get ``VACUUM_ABS``: the vacuum
amplifies the spectral tail of u0 and float64 rounding like e^(a t),
so by t = 19 the guard band, the exterior of spreading_limits, min u
and min v of fisher_1d and spreading_1d (which the sandwich compares),
and v where spreading_1d's cstar_positive scans (|x| >= 1.5 x the front
radius) carry it at 1e-8 to 1e-6, and any reordering of floating-point
work moves those margins by as much.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kslogistic.acceptance import bundled_report
from kslogistic.harness import run
from kslogistic.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)

SNAPSHOT = Path(__file__).parent / "data" / "bundled_behaviour.json"
REL = 1e-9
ABS = 1e-12
VACUUM_ABS = 1e-6
#: (scenario, check) margins read in the vacuum; None means every scenario
VACUUM = {
    (None, "boundary_guard"),
    (None, "spreading_limits"),
    ("fisher_1d", "sandwich"),
    ("spreading_1d", "sandwich"),
    ("spreading_1d", "cstar_positive"),
}


def _num(x):
    return None if x is None or math.isnan(x) else x


def behaviour(report) -> dict:
    """The parts of a report that a refactor must keep."""
    return {
        "ok": report.ok,
        "abort": None if report.abort is None else report.abort["kind"],
        "events": [e["kind"] for e in report.events],
        "n_samples": len(report.times),
        "checks": [[v.name, v.passed, v.asserted, _num(v.margin)] for v in report.checks],
        "speed": None if report.speed is None else [report.speed["speed"], report.speed["stderr"]],
    }


def _close(got, want, floor=ABS) -> bool:
    if want is None or got is None:
        return got is want
    return abs(got - want) <= floor + REL * abs(want)


def _floor(scenario: str, check: str) -> float:
    vacuum = (None, check) in VACUUM or (scenario, check) in VACUUM
    return VACUUM_ABS if vacuum else ABS


EXPECTED = json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundled_behaviour_matches_snapshot(name):
    got, want = behaviour(bundled_report(name)), EXPECTED[name]
    for key in ("ok", "abort", "events", "n_samples"):
        assert got[key] == want[key], key
    assert [c[:3] for c in got["checks"]] == [c[:3] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert _close(g[3], w[3], _floor(name, g[0])), (g[0], g[3], w[3])
    assert (got["speed"] is None) == (want["speed"] is None)
    if want["speed"] is not None:
        assert all(map(_close, got["speed"], want["speed"])), (got["speed"], want["speed"])


def test_snapshot_covers_every_bundled_scenario():
    assert sorted(EXPECTED) == bundled_scenario_names()


TOLERANT = [
    name for name in bundled_scenario_names()
    if load_scenario(bundled_scenario_path(name)).control.time_tol is not None
]


@pytest.mark.parametrize("name", TOLERANT)
def test_time_error_stays_within_time_tol(name):
    """A scenario that states time_tol keeps the estimate of every
    sample after t = 0 within it."""
    report = bundled_report(name)
    tol = report.scenario.control.time_tol
    errors = report.series["time_error"][1:]
    assert len(errors) == len(report.times) - 1
    assert all(e <= tol for e in errors), max(errors)


def _run_on_box(name: str, scale: int):
    """The bundled scenario on a box scale times as wide at the same h,
    keeping u at t_end as its last snapshot."""
    base = load_scenario(bundled_scenario_path(name))
    data = base.to_dict()
    data["grid"]["n"] *= scale
    data["grid"]["half_width"] *= scale
    data["diagnostics"]["snapshot_every"] = round(base.control.t_end / base.diagnostics.sample_interval)
    return run(scenario_from_dict(data))


@pytest.mark.parametrize("name", ["fisher_1d", "spreading_1d"])
def test_front_box_is_wide_enough(name):
    """Doubling the front runs' box, at the same h, changes nothing their
    checks read: the fitted speed, u on the common points at t_end
    (measured within 7.2e-8) and every verdict."""
    small, large = _run_on_box(name, 1), _run_on_box(name, 2)
    assert small.snapshots[-1]["t"] == small.scenario.control.t_end
    assert small.speed["speed"] == pytest.approx(large.speed["speed"], rel=1e-12, abs=0)
    u_small, u_large = small.snapshots[-1]["u"], large.snapshots[-1]["u"]
    n = u_small.size
    common = slice(n // 2, n // 2 + n)
    assert np.array_equal(small.scenario.grid.axes[0], large.scenario.grid.axes[0][common])
    assert np.max(np.abs(u_small - u_large[common])) <= 1e-6
    assert [(v.name, v.passed) for v in small.checks] == [(v.name, v.passed) for v in large.checks]
    assert small.ok and large.ok
