import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslogistic.diagnostics import (
    CstarScan,
    boundary_guard,
    check_lr_growth,
    cstar_functional,
    equilibrium_distance,
    estimate_speed,
    front_radius,
    front_trace,
    lp_norm,
    sandwich_check,
)
from kslogistic.grid import Field, make_grid
from kslogistic.helmholtz import solve
from kslogistic.params import Params


def test_lp_norm_on_constant():
    g = make_grid(1, 64, 5.0)
    f = Field(g, np.full(64, 2.0))
    # |box|^(1/p) * c for every p, sup norm c
    assert lp_norm(f, 1) == pytest.approx(2.0 * 10.0, rel=1e-12)
    assert lp_norm(f, 2) == pytest.approx(2.0 * math.sqrt(10.0), rel=1e-12)
    assert lp_norm(f, math.inf) == pytest.approx(2.0)


def test_lp_norm_2d_quadrature_weight():
    g = make_grid(2, 16, 3.0)
    f = Field(g, np.ones(g.shape))
    assert lp_norm(f, 1) == pytest.approx(36.0, rel=1e-12)


def test_lp_norm_extreme_exponent_no_overflow():
    g = make_grid(1, 32, 2.0)
    f = Field(g, np.full(32, 1e200))
    val = lp_norm(f, 7.0)
    assert np.isfinite(val) and val == pytest.approx(1e200 * 4.0 ** (1 / 7.0), rel=1e-10)


def test_lp_norm_rejects_small_p():
    g = make_grid(1, 16, 1.0)
    f = Field(g, np.ones(16))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)
    with pytest.raises(ValueError):
        lp_norm(f, float("nan"))


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(1.2, 6.0),
    p=st.floats(7.0, 20.0),
)
def test_lp_interpolation_inequality(seed, r, p):
    # ||f||_r <= ||f||_1^lam ||f||_p^(1-lam), 1/r = lam + (1-lam)/p
    g = make_grid(1, 64, 3.0)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.uniform(0.0, 4.0, 64))
    lam = (1.0 / r - 1.0 / p) / (1.0 - 1.0 / p)
    lhs = lp_norm(f, r)
    rhs = lp_norm(f, 1) ** lam * lp_norm(f, p) ** (1 - lam)
    assert lhs <= rhs * (1 + 1e-10)


def test_growth_check_passes_inside_envelope():
    t = np.linspace(0, 2, 9)
    res = check_lr_growth(t, 3.0 * np.exp(0.8 * t), 1.0, 1e-6)
    assert res.passed and res.margin > 0


def test_growth_check_fails_on_inflated_series():
    t = np.linspace(0, 2, 9)
    res = check_lr_growth(t, 3.0 * np.exp(1.1 * t), 1.0, 1e-6)
    assert not res.passed and res.margin < 0


def test_growth_check_zero_rate_monotone():
    t = np.linspace(0, 5, 11)
    assert check_lr_growth(t, np.full(11, 2.0), 0.0, 1e-8).passed


def test_growth_check_anchors_at_first_value():
    # every later sample 1 percent over its bound from values[0]; an
    # anchor at any later sample would pass this series
    t = np.linspace(0, 2, 9)
    values = 3.0 * np.exp(t) * np.where(t > 0, 1.01, 1.0)
    res = check_lr_growth(list(t), list(values), 1.0, 1e-6)
    assert not res.passed and res.margin == pytest.approx((1e-6 - 0.01) / (1 + 1e-6), rel=1e-12)
    assert res.detail.startswith("worst at t=")


def test_front_radius_of_indicator():
    g = make_grid(1, 512, 40.0)
    u = Field(g, (np.abs(g.axes[0]) <= 5.0).astype(float))
    r = front_radius(u, 0.5)
    assert abs(r - 5.0) <= g.h


def test_front_radius_empty_level_set():
    g = make_grid(1, 64, 10.0)
    assert front_radius(Field(g, np.full(64, 0.1)), 0.5) == 0.0


def test_front_radius_2d_ring():
    g = make_grid(2, 128, 20.0)
    X, Y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
    u = Field(g, (X**2 + Y**2 <= 7.0**2).astype(float))
    assert front_radius(u, 0.5) == pytest.approx(7.0, abs=2 * g.h)


def test_front_trace_validity_flips_in_guard_band():
    g = make_grid(1, 256, 10.0)
    snaps = []
    for t, r in [(0.0, 2.0), (1.0, 5.0), (2.0, 9.5)]:
        snaps.append((t, Field(g, (np.abs(g.axes[0]) <= r).astype(float))))
    times, radii, valid = front_trace(snaps, level=0.5, guard=0.1)
    assert list(times) == [0.0, 1.0, 2.0]
    assert list(valid) == [True, True, False]
    assert radii == pytest.approx([2.0, 5.0, 9.5], abs=g.h)


def test_estimate_speed_exact_affine():
    t = np.linspace(0, 10, 21)
    est = estimate_speed(t, 1.5 + 2.0 * t, np.ones(21, bool), window=(0.0, 10.0))
    assert est.speed == pytest.approx(2.0, abs=1e-12)
    assert est.stderr <= 1e-10
    assert est.n_samples == 21


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_estimate_speed_matches_scipy_linregress(noise):
    from scipy.stats import linregress

    t = np.linspace(0.0, 19.0, 77)
    r = 5.0 + 1.87 * t + noise * np.random.default_rng(5).standard_normal(77)
    est = estimate_speed(t, r, np.ones(77, bool), window=(0.0, 19.0))
    fit = linregress(t, r)
    assert est.speed == fit.slope
    assert est.stderr == (0.0 if np.isnan(fit.stderr) else fit.stderr)


def test_estimate_speed_zero_stderr_on_flat_radius():
    t = np.linspace(0.0, 10.0, 21)
    est = estimate_speed(t, np.full(21, 3.0), np.ones(21, bool))
    assert est.speed == 0.0 and est.stderr == 0.0


def test_import_does_not_load_scipy_stats():
    import os
    import subprocess
    import sys

    import kslogistic

    src = os.path.dirname(os.path.dirname(os.path.abspath(kslogistic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kslogistic; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_estimate_speed_default_window_is_late_half():
    t = np.linspace(0, 10, 21)
    r = np.where(t < 5, 0.0, 2.0 * t)  # early junk, clean late slope
    est = estimate_speed(list(t), list(r), [True] * 21)
    assert est.speed == pytest.approx(2.0, abs=1e-9)


def test_estimate_speed_needs_enough_samples():
    t = np.linspace(0, 3, 12)
    valid = np.zeros(12, bool)
    valid[:5] = True
    with pytest.raises(ValueError, match="at least 8"):
        estimate_speed(t, 2 * t, valid, window=(0.0, 3.0))
    with pytest.raises(ValueError, match="no valid samples"):
        estimate_speed(t, 2 * t, np.zeros(12, bool))
    # the caller's mask is not written to
    assert list(valid) == [True] * 5 + [False] * 7


def cstar_inputs(chi=0.3, level=1.0):
    g = make_grid(1, 256, 30.0)
    x = g.axes[0]
    u = Field(g, level * np.exp(-(x**2) / 8.0))
    return g, u, solve(u), Params(chi=chi, a=1.0, b=1.0, dim=1)


def test_cstar_functional_positive_far_field():
    g, u, v, p = cstar_inputs()
    scan = cstar_functional(u, v, p, inner_radius=10.0)
    assert scan.all_defined
    assert scan.speed_min > 0
    assert scan.positivity_min > 0
    # far from the bump v ~ 0, so the floor approaches 2 sqrt(a)
    assert scan.speed_min < 2.0 * math.sqrt(p.a) + 1e-9


def test_cstar_functional_monotone_in_v():
    # raising v pointwise with grad v fixed can only lower both minima
    g, u, v, p = cstar_inputs()
    base = cstar_functional(u, v, p, inner_radius=5.0)
    lifted = cstar_functional(u, Field(g, v.values + 0.4), p, inner_radius=5.0)
    assert lifted.speed_min <= base.speed_min + 1e-12
    assert lifted.positivity_min <= base.positivity_min + 1e-12


def test_cstar_functional_flags_undefined_points():
    g, u, v, p = cstar_inputs(chi=1.0, level=4.0)
    # a - chi v < 0 near the bump: include it in the region
    scan = cstar_functional(u, v, p, inner_radius=0.0)
    assert 0.0 < scan.undefined_fraction < 1.0
    assert not scan.all_defined


def test_cstar_functional_empty_region_rejected():
    g, u, v, p = cstar_inputs()
    with pytest.raises(ValueError):
        cstar_functional(u, v, p, inner_radius=100.0)


def test_equilibrium_distance_on_uniform_state():
    g = make_grid(1, 64, 5.0)
    p = Params(chi=0.4, a=2.0, b=1.0, dim=1)
    u = Field(g, np.full(64, 2.0))
    du, dv = equilibrium_distance(u, solve(u), p)
    assert du < 1e-13 and dv < 1e-13


def test_equilibrium_distance_covers_the_whole_box():
    g = make_grid(1, 128, 10.0)
    p = Params(chi=0.0, a=1.0, b=1.0, dim=1)
    vals = np.ones(128)
    vals[np.abs(g.axes[0]) > 6.0] = 0.0  # defect near the box faces
    u = Field(g, vals)
    du, _ = equilibrium_distance(u, u, p)
    assert du == pytest.approx(1.0)


def test_sandwich_check_passes_for_resolvent():
    g = make_grid(1, 128, 10.0)
    rng = np.random.default_rng(0)
    u = Field(g, rng.uniform(0.0, 3.0, 128))
    res = sandwich_check(u, solve(u))
    assert res.passed and res.margin >= 0


def test_sandwich_check_fails_on_corrupted_v():
    g = make_grid(1, 128, 10.0)
    u = Field(g, np.clip(np.cos(g.axes[0]), 0, None) + 0.5)
    v = solve(u)
    bad = Field(g, v.values + 1e-3 + float(u.values.max() - v.values.max()))
    res = sandwich_check(u, bad)
    assert not res.passed and res.margin < 0


def test_boundary_guard_flat_tail_passes():
    g = make_grid(1, 256, 20.0)
    u = Field(g, np.exp(-(g.axes[0] ** 2)))
    assert boundary_guard(u, far_value=0.0, guard=0.1).passed


def test_boundary_guard_detects_contaminated_shell():
    g = make_grid(1, 256, 20.0)
    vals = np.exp(-((g.axes[0] / 12.0) ** 2))  # still ~0.06 at the faces
    res = boundary_guard(Field(g, vals), far_value=0.0, guard=0.1)
    assert not res.passed and res.margin < 0


def test_boundary_guard_2d_shell_is_box_shaped():
    g = make_grid(2, 64, 10.0)
    X, Y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
    vals = np.where(np.maximum(np.abs(X), np.abs(Y)) >= 9.5, 0.7, 0.0)
    res = boundary_guard(Field(g, vals), far_value=0.0, guard=0.1)
    assert not res.passed
