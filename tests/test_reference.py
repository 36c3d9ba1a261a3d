import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from kslogistic.params import Params
from kslogistic.reference import (
    classify,
    cstar_lower_bound_formula,
    logistic_exact,
    upper_envelope,
)

from oracles import logistic_closed_form

# frozen expected values, derived once from the formulas' ingredients
CSTAR_CHI04_A1_B1_DIM2 = 0.2118915  # 2 sqrt(1/3) - 0.4 sqrt(2) / 0.6
SPREAD_THRESHOLD_A1_B1_DIM1 = 0.4530818  # 2 / (3 + sqrt(2))
SPREAD_THRESHOLD_A1_B1_DIM2 = 0.4226497  # 2 / (3 + sqrt(3))


@settings(deadline=None, max_examples=25)
@given(
    u0=st.floats(0.0, 8.0),
    a0=st.floats(-3.0, 3.0),
    b0=st.floats(0.05, 4.0),
    t=st.floats(0.0, 12.0),
)
# a subnormal growth rate once lost u0 in a0*u0 and returned 0.0
@example(u0=0.5, a0=5e-324, b0=1.0, t=0.0)
@example(u0=0.5, a0=-5e-324, b0=1.0, t=0.0)
# a tiny u0 that grows a millionfold: an absolute tolerance near u0
# once made the integrator, not the closed form, miss by 2e-6 relative
@example(u0=1e-08, a0=2.0, b0=1.0, t=7.0)
def test_logistic_matches_adaptive_integrator(u0, a0, b0, t):
    got = logistic_exact(u0, a0, b0, t)
    sol = solve_ivp(
        lambda _, y: y * (a0 - b0 * y), (0.0, max(t, 1e-12)), [u0],
        rtol=1e-11, atol=1e-20, method="RK45", dense_output=True,
    )
    expect = float(sol.sol(t)[0])
    assert got == pytest.approx(expect, rel=1e-7, abs=1e-8)


def test_logistic_doubling_time_value():
    # u0=1, a0=1, b0=2, t=ln 2: e^t = 2 makes the arithmetic exact
    assert logistic_exact(1.0, 1.0, 2.0, math.log(2.0)) == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )


def test_logistic_zero_growth_branch():
    u0, b0, t = 2.0, 0.5, 3.0
    assert logistic_exact(u0, 0.0, b0, t) == pytest.approx(u0 / (1 + b0 * u0 * t), rel=1e-14)


def test_logistic_zero_initial_state():
    assert logistic_exact(0.0, 2.0, 1.0, 5.0) == 0.0


@pytest.mark.parametrize("a0", [1e-310, -1e-310, 5e-324, -5e-324])
@pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 7.5])
def test_logistic_tiny_growth_rate_is_the_zero_rate_solution(a0, t):
    u0, b0 = 0.5, 1.0
    assert logistic_exact(u0, a0, b0, t) == pytest.approx(u0 / (1 + b0 * u0 * t), rel=1e-15)


def test_logistic_large_time_is_overflow_safe():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = logistic_exact(0.3, 3.0, 0.5, 1e4)
        assert val == pytest.approx(6.0, rel=1e-12)
        assert logistic_exact(5.0, -2.0, 1.0, 1e4) == 0.0


def test_logistic_agrees_with_independent_closed_form():
    for u0, a0, b0, t in [(1.5, 0.7, 0.3, 2.0), (0.2, -1.1, 2.0, 4.0), (3.0, 0.0, 1.0, 7.0)]:
        assert logistic_exact(u0, a0, b0, t) == pytest.approx(
            logistic_closed_form(u0, a0, b0, t), rel=1e-13
        )


def test_logistic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        logistic_exact(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        logistic_exact(1.0, 1.0, 0.0, 0.5)


def test_envelope_starts_at_initial_maximum():
    p = Params(chi=0.5, a=1.0, b=1.0)
    assert upper_envelope(0.0, 3.0, p) == pytest.approx(3.0)


@settings(deadline=None, max_examples=30)
@given(m0=st.floats(0.0, 5.0), m1=st.floats(0.0, 5.0), t=st.floats(0.0, 10.0))
def test_envelope_monotone_in_initial_maximum(m0, m1, t):
    p = Params(chi=0.3, a=1.0, b=1.0)
    lo, hi = sorted((m0, m1))
    assert upper_envelope(t, lo, p) <= upper_envelope(t, hi, p) + 1e-12


def test_envelope_decays_toward_weakened_equilibrium():
    p = Params(chi=0.5, a=1.0, b=1.0)
    vals = [upper_envelope(t, 3.0, p) for t in (0.0, 1.0, 5.0, 30.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(p.a / (p.b - p.chi), abs=1e-8)


def test_envelope_critical_coupling_is_exponential():
    p = Params(chi=1.0, a=0.5, b=1.0)
    assert upper_envelope(2.0, 1.5, p) == pytest.approx(1.5 * math.exp(1.0), rel=1e-13)


def test_envelope_rejects_supercritical_coupling():
    with pytest.raises(ValueError):
        upper_envelope(1.0, 1.0, Params(chi=2.0, a=1.0, b=1.0))


def test_classify_subcritical_flags():
    r = classify(Params(chi=0.4, a=1.0, b=1.0, dim=1))
    assert r.global_exists and r.global_bounded and r.moment_route_bounded
    assert r.stability  # b > 2 chi
    assert r.spreading  # 0.4 < 0.45308
    assert math.isinf(r.max_safe_r)
    assert r.thresholds["spreading_chi_below"] == pytest.approx(
        SPREAD_THRESHOLD_A1_B1_DIM1, abs=1e-7
    )


def test_classify_supercritical_moment_window():
    r = classify(Params(chi=2.0, a=1.0, b=1.0, dim=2))
    assert not r.global_exists and not r.global_bounded
    assert r.max_safe_r == pytest.approx(2.0)
    assert r.moment_route_bounded  # dim/2 = 1 < 2
    assert not r.stability and not r.spreading


def test_classify_critical_coupling():
    r = classify(Params(chi=1.0, a=1.0, b=1.0, dim=1))
    assert r.global_exists and not r.global_bounded
    assert math.isinf(r.max_safe_r) and r.moment_route_bounded


def test_classify_two_dimensional_threshold():
    r = classify(Params(chi=0.42, a=1.0, b=1.0, dim=2))
    assert r.spreading
    assert r.thresholds["spreading_chi_below"] == pytest.approx(
        SPREAD_THRESHOLD_A1_B1_DIM2, abs=1e-7
    )
    assert not classify(Params(chi=0.43, a=1.0, b=1.0, dim=2)).spreading


@settings(deadline=None, max_examples=40)
@given(
    chi=st.floats(0.0, 3.0),
    a=st.floats(0.0, 4.0),
    b=st.floats(0.1, 3.0),
    lam=st.floats(1e-3, 1e3),
    dim=st.sampled_from([1, 2]),
)
def test_classify_scale_consistency(chi, a, b, lam, dim):
    # the flags compare chi against multiples of b, so joint rescaling
    # of (chi, b) with a fixed cannot flip any of them
    r1 = classify(Params(chi=chi, a=a, b=b, dim=dim))
    r2 = classify(Params(chi=lam * chi, a=a, b=lam * b, dim=dim))
    for name in ("global_exists", "global_bounded", "moment_route_bounded", "stability", "spreading"):
        assert getattr(r1, name) == getattr(r2, name)


def test_cstar_floor_reduces_to_pulled_front_speed():
    for a in (0.25, 1.0, 4.0):
        val = cstar_lower_bound_formula(Params(chi=0.0, a=a, b=1.0, dim=1))
        assert val == pytest.approx(2.0 * math.sqrt(a), rel=1e-14)


def test_cstar_floor_frozen_value():
    val = cstar_lower_bound_formula(Params(chi=0.4, a=1.0, b=1.0, dim=2))
    assert val == pytest.approx(CSTAR_CHI04_A1_B1_DIM2, abs=1e-6)


def test_cstar_floor_absent_outside_regime():
    assert cstar_lower_bound_formula(Params(chi=1.5, a=1.0, b=1.0, dim=1)) is None
    assert cstar_lower_bound_formula(Params(chi=0.46, a=1.0, b=1.0, dim=1)) is None
    assert cstar_lower_bound_formula(Params(chi=0.0, a=0.0, b=1.0, dim=1)) is None


@settings(deadline=None, max_examples=60)
@given(
    chi=st.floats(0.0, 2.0),
    a=st.floats(0.05, 5.0),
    b=st.floats(0.1, 2.0),
    dim=st.sampled_from([1, 2]),
)
def test_cstar_floor_exists_iff_spreading_flag(chi, a, b, dim):
    p = Params(chi=chi, a=a, b=b, dim=dim)
    floor = cstar_lower_bound_formula(p)
    flag = classify(p).spreading
    # keep a guard band around the threshold where floating point can
    # put the two evaluations on opposite sides
    thr = classify(p).thresholds["spreading_chi_below"]
    if abs(chi - thr) > 1e-9 * max(1.0, thr):
        assert (floor is not None) == flag
    if floor is not None:
        assert floor > 0.0
