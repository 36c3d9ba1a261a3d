import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kslogistic.grid import Field, make_grid
from kslogistic.semigroup import apply_T, apply_T_div

from oracles import full_multipliers, heat_kernel, heat_semigroup_1d, smooth_field

# sup of |T(t) d/dx f| / (t^(-1/2) e^(-t)) over the smoothed-square-wave
# family at t = 0.01, n = 2048, L = 10; tabulated by the brute-force
# sweep below and frozen here.  The continuum operator norm is
# 1/sqrt(pi) = 0.5641896, approached from below as the ramps sharpen.
RAMP_SUP_T001 = 0.563964


def test_multiplier_exact_on_single_mode():
    g = make_grid(1, 64, 4.0)
    k = full_multipliers(g).k[0][5]
    x = g.axes[0]
    out = apply_T(0.3, Field(g, np.cos(k * x)))
    assert_allclose(out.values, np.exp(-0.3 * (1 + k**2)) * np.cos(k * x), atol=1e-13)


def test_t_zero_is_identity():
    g = make_grid(2, 16, 2.0)
    f = smooth_field(g, 0)
    assert_allclose(apply_T(0.0, f).values, f.values, atol=1e-13)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), s=st.floats(0.01, 2.0), t=st.floats(0.01, 2.0))
def test_semigroup_law(seed, s, t):
    g = make_grid(1, 48, 3.0)
    f = smooth_field(g, seed)
    once = apply_T(s + t, f).values
    twice = apply_T(s, apply_T(t, f)).values
    assert np.max(np.abs(once - twice)) < 1e-12 * (1 + np.max(np.abs(f.values)))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       t=st.sampled_from([0.01, 0.1, 1.0, 5.0]))
def test_sup_contraction(seed, dim, t):
    g = make_grid(dim, 32, 4.0)
    f = smooth_field(g, seed)
    out = apply_T(t, f)
    assert np.max(np.abs(out.values)) <= np.exp(-t) * np.max(np.abs(f.values)) * (1 + 1e-13)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.005, 5.0))
def test_positivity(seed, t):
    g = make_grid(1, 64, 5.0)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.uniform(0.0, 2.0, g.shape))
    out = apply_T(t, f)
    assert out.values.min() >= -1e-13 * np.max(f.values)


def test_gaussian_maps_to_later_gaussian():
    # T(t) G(., s) = e^(-t) G(., s + t) while sqrt(s + t) << L
    g = make_grid(1, 512, 30.0)
    s, t = 0.25, 0.5
    f = Field(g, heat_kernel(g.axes[0], s, 1))
    out = apply_T(t, f)
    expect = np.exp(-t) * heat_kernel(g.axes[0], s + t, 1)
    assert np.max(np.abs(out.values - expect)) < 1e-8


def test_heat_kernel_normalization_1d():
    t = 0.7
    R = 12 * np.sqrt(t)
    mass, err = quad(lambda z: heat_kernel(z, t, 1), -R, R, epsabs=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_heat_kernel_normalization_2d():
    t = 0.4
    R = 12 * np.sqrt(t)
    mass, err = quad(
        lambda r: 2 * np.pi * r * heat_kernel(np.array([r, 0.0]), t, 2), 0.0, R,
        epsabs=1e-12,
    )
    assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_periodized_kernel_quadrature_cross_check(t):
    g = make_grid(1, 512, 10.0)
    x = g.axes[0]
    f = Field(g, np.exp(np.sin(np.pi * x / g.half_width)) + 0.3 * np.cos(3 * x))
    spectral = apply_T(t, f).values
    quadr = heat_semigroup_1d(f.values, g, t)
    assert np.max(np.abs(spectral - quadr)) < 1e-8


def test_divergence_ratio_tabulated_by_ramp_sweep():
    # brute-force maximization over smoothed square waves; sharp steps
    # drive the ratio toward the kernel-derivative L1 norm 1/sqrt(pi)
    t = 0.01
    g = make_grid(1, 2048, 10.0)
    x = g.axes[0]
    sup = 0.0
    for w in np.geomspace(g.h / 4, 2.0, 40):
        ramp = np.tanh(np.sin(np.pi * x / g.half_width) * (g.half_width / (np.pi * w)))
        out = apply_T_div(t, (Field(g, ramp),))
        sup = max(sup, np.max(np.abs(out.values)) / (t**-0.5 * np.exp(-t)))
    assert sup == pytest.approx(RAMP_SUP_T001, abs=1e-4)
    assert sup <= (1 / np.sqrt(np.pi)) * 1.05
    assert sup >= 0.95 / np.sqrt(np.pi)


@pytest.mark.parametrize("dim,n,L", [(1, 1024, 30.0), (2, 192, 15.0), (3, 64, 10.0)])
def test_l1_to_linf_decay_order(dim, n, L):
    # narrow bump: t^(dim/2) e^t ||T(t) f||_inf stays below the sharp
    # whole-space constant (4 pi)^(-dim/2) ||f||_1 and approaches it
    g = make_grid(dim, n, L)
    r2 = sum(X**2 for X in np.meshgrid(*g.axes, indexing="ij"))
    bump = np.exp(-r2 / (2 * 0.15**2))
    f = Field(g, bump)
    l1 = g.cell_volume * bump.sum()
    sharp = (4 * np.pi) ** (-dim / 2.0)
    worst = 0.0
    for t in np.geomspace(0.01, 10.0, 25):
        prod = np.max(np.abs(apply_T(t, f).values)) * t ** (dim / 2) * np.exp(t)
        worst = max(worst, prod / l1)
    assert worst <= sharp * 1.01
    assert worst >= 0.9 * sharp


def test_rejects_bad_times():
    g = make_grid(1, 16, 1.0)
    f = Field(g, np.zeros(16))
    with pytest.raises(ValueError):
        apply_T(-0.1, f)
    with pytest.raises(ValueError):
        apply_T_div(0.0, (f,))
    with pytest.raises(ValueError):
        heat_kernel(np.zeros(4), 0.0, 1)


def test_apply_T_div_component_count():
    g = make_grid(2, 16, 1.0)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        apply_T_div(0.5, (f,))
