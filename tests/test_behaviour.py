"""Behaviour of the bundled scenarios against a committed snapshot.

``tests/data/bundled_behaviour.json`` holds ``behaviour(report)`` for
each bundled scenario, written before the checks were split into units.
It was regenerated once, for envelope_1d, fisher_1d and spreading_1d
only, when the stepper went from second to third order in time: their
front fits and margins moved with the time error.  envelope_1d's entry
alone was regenerated again when that scenario took a time_tol: its
sandwich margin moved by 1e-16, and its events now list the
rejected intervals and dt changes of its step-size ladder.  The reports come from
``acceptance.bundled_report``, the cache the acceptance gate shares, so
this test adds no runs to the suite.

Check names and order, ``passed``, ``asserted``, ``ok``, the abort kind,
the event kinds and the sample count must match exactly.  Margins and
the speed fit must match within ``floor + REL * |expected|``.  The
floor is ``ABS``, a rounding-level 1e-12, except for the margins that
read the vacuum ahead of a front, which get ``VACUUM_ABS``: the vacuum
amplifies float64 rounding like e^(a t), so by t = 19 the guard band,
the exterior of spreading_limits, min u and min v of fisher_1d and
spreading_1d (which the sandwich compares), and v where spreading_1d's
cstar_positive scans (|x| >= 1.5 x the front radius) carry it at 1e-8
to 1e-6, and any reordering of floating-point work moves those margins
by as much.
"""

import json
import math
from pathlib import Path

import pytest

from kslogistic.acceptance import bundled_report

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
    from kslogistic.scenario import bundled_scenario_names

    assert sorted(EXPECTED) == bundled_scenario_names()
