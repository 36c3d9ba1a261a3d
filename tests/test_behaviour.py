"""Behaviour of the bundled scenarios against a committed snapshot.

``tests/data/bundled_behaviour.json`` holds ``behaviour(report)`` for
each bundled scenario, written before the checks were split into units
and never regenerated to fit a change.  The reports come from
``acceptance.bundled_report``, the cache the acceptance gate shares, so
this test adds no runs to the suite.

Check names and order, ``passed``, ``asserted``, ``ok``, the abort kind,
the event kinds and the sample count must match exactly.  Margins and
the speed fit must match within ``ABS + REL * |expected|``.  ``ABS`` is
the noise floor of the front runs: ahead of a front the vacuum
amplifies float64 rounding like e^(a t), so by t = 19 the guard band
and min u of fisher_1d and spreading_1d carry it at 1e-8 to 1e-6, and
any reordering of floating-point work moves those margins by as much.
"""

import json
import math
from pathlib import Path

import pytest

from kslogistic.acceptance import bundled_report

SNAPSHOT = Path(__file__).parent / "data" / "bundled_behaviour.json"
REL = 1e-9
ABS = 1e-6


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


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return abs(got - want) <= ABS + REL * abs(want)


EXPECTED = json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundled_behaviour_matches_snapshot(name):
    got, want = behaviour(bundled_report(name)), EXPECTED[name]
    for key in ("ok", "abort", "events", "n_samples"):
        assert got[key] == want[key], key
    assert [c[:3] for c in got["checks"]] == [c[:3] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert _close(g[3], w[3]), (g[0], g[3], w[3])
    assert (got["speed"] is None) == (want["speed"] is None)
    if want["speed"] is not None:
        assert all(map(_close, got["speed"], want["speed"])), (got["speed"], want["speed"])


def test_snapshot_covers_every_bundled_scenario():
    from kslogistic.scenario import bundled_scenario_names

    assert sorted(EXPECTED) == bundled_scenario_names()
