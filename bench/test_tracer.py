"""Tests of the benchmark's own tracer.

    python3 -m pytest bench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kslogistic  # noqa: E402
# loaded up front, as in a benchmark run, so that any one test can run alone
import kslogistic.acceptance  # noqa: E402,F401
import kslogistic.semigroup  # noqa: E402,F401
from kslogistic import harness, scenario_from_dict, stepper  # noqa: E402
from layers import FFT, REP, STEP, UNITS, layer_metrics, make_tracer  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402

SMALL = {
    "schema_version": 1,
    "name": "traced_small",
    "grid": {"dim": 1, "n": 128, "half_width": 10.0},
    "params": {"chi": 0.3, "a": 1.0, "b": 1.0},
    "ic": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    "control": {"dt": 0.05, "t_end": 2.0, "negativity_budget": 1.0e-5},
    "diagnostics": {"sample_interval": 0.25},
    "checks": {
        "sandwich": {},
        "mass_growth": {},
        "envelope": {},
        "boundary_guard": {"far_value": 0.0},
        "cstar_positive": {},
    },
}


def test_traced_report_equals_untraced():
    sc = scenario_from_dict(SMALL)
    plain = harness.run(sc).to_json(include_wall_time=False)
    tr = make_tracer()
    with tr.installed(), tr.span(REP):
        traced = kslogistic.run(sc).to_json(include_wall_time=False)
    assert traced == plain
    assert SpanTable(tr).indices(STEP), "the traced run recorded no steps"
    assert tr.counts["samples"] == 9


def test_uninstall_restores_every_binding():
    original = stepper.step
    tr = make_tracer()
    with tr.installed():
        assert harness.step is not original
        assert harness.step.__wrapped__ is original
        assert kslogistic.step is harness.step
    assert harness.step is original and kslogistic.step is original


def test_one_to_spectral_is_one_forward_transform():
    g = kslogistic.make_grid(1, 64, 5.0)
    f = kslogistic.Field(g, np.cos(g.axes[0]))
    tr = make_tracer()
    with tr.installed():
        kslogistic.to_spectral(f)
    ffts = [i for i, n in enumerate(tr.names) if n == FFT]
    assert len(ffts) == 1
    # reads 64 float64 values, writes 64 complex128 coefficients
    assert tr.nbytes[ffts[0]] == 64 * 8 + 64 * 16


def test_one_1d_step_with_chemotaxis_is_eleven_transforms():
    sc = scenario_from_dict(SMALL)
    g = kslogistic.make_grid(1, 128, 10.0)
    u0 = kslogistic.realize(sc.ic, g)
    state = kslogistic.initial_state(u0)
    control = sc.control.resolved(u0, sc.params)
    tr = make_tracer()
    with tr.installed(), tr.span(REP):
        kslogistic.step(state, sc.params, control)
    metrics, absent = layer_metrics(tr, 0.0, 0.0, 0)
    assert absent == []
    assert metrics["stepper.steps"] == 1
    assert metrics["grid.fft_calls_per_step"] == 11
    assert 0.0 < metrics["grid.fft_share_of_step"] < 1.0


def test_missing_function_gives_absent_metric(monkeypatch):
    monkeypatch.delattr(kslogistic.semigroup, "apply_T")
    tr = make_tracer()
    with tr.installed(), tr.span(REP):
        harness.run(scenario_from_dict(SMALL))
    assert tr.absent == ["semigroup.apply_T"]
    metrics, absent = layer_metrics(tr, 0.0, 0.0, 0)
    assert absent == ["semigroup.apply_T_us"]
    assert set(metrics) == set(UNITS) - {"semigroup.apply_T_us"}


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("outer"):  # opens at 0
        with tr.span("inner"):  # 1 .. 2
            pass
        with tr.span("inner"):  # 3 .. 4
            pass
    # outer closes at 5
    st = SpanTable(tr)
    assert st.durations == [5.0, 1.0, 1.0]
    assert st.parents == [-1, 0, 0]
    assert st.self_time(0) == pytest.approx(3.0)
