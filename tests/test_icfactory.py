import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kslogistic.diagnostics import lp_norm
from kslogistic.grid import make_grid, to_spectral
from kslogistic.icfactory import ICSpec, _bump, band_limited_noise, realize
from kslogistic.scenario import bundled_scenario_path, load_scenario

from oracles import full_fft_band_noise


def test_constant_field():
    g = make_grid(2, 16, 3.0)
    f = realize(ICSpec(kind="constant", amplitude=1.7), g)
    assert np.all(f.values == 1.7)


def test_gaussian_norms_match_closed_forms():
    g = make_grid(1, 512, 30.0)
    amp, sigma = 2.5, 2.0
    f = realize(ICSpec(kind="gaussian", amplitude=amp, width=sigma), g)
    assert lp_norm(f, math.inf) == pytest.approx(amp, rel=1e-12)
    assert lp_norm(f, 1) == pytest.approx(amp * math.sqrt(2 * math.pi) * sigma, abs=1e-8)


def test_gaussian_mass_2d():
    g = make_grid(2, 256, 20.0)
    amp, sigma = 1.2, 1.5
    f = realize(ICSpec(kind="gaussian", amplitude=amp, width=sigma), g)
    assert lp_norm(f, 1) == pytest.approx(amp * 2 * math.pi * sigma**2, abs=1e-8)


def test_gaussian_3d_mass_and_center():
    g = make_grid(3, 48, 10.0)
    amp, sigma = 1.2, 1.0
    f = realize(ICSpec(kind="gaussian", amplitude=amp, width=sigma), g)
    assert lp_norm(f, 1) == pytest.approx(amp * (2 * math.pi) ** 1.5 * sigma**3, rel=1e-10)
    i = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert [g.axes[a][i[a]] for a in range(3)] == pytest.approx([0.0, 0.0, 0.0], abs=g.h)


def test_smoothed_indicator_support_and_plateau():
    g = make_grid(1, 1024, 40.0)
    radius, width = 5.0, 1.0
    f = realize(ICSpec(kind="smoothed_indicator", amplitude=2.0, radius=radius, width=width), g)
    x = g.axes[0]
    outside = np.abs(x) > radius + 3 * width
    inside = np.abs(x) <= radius
    shoulder = (np.abs(x) > radius + 0.5 * width) & (np.abs(x) < radius + 2.5 * width)
    assert np.all(f.values[outside] == 0.0)
    assert np.all(f.values[inside] == 2.0)
    assert np.all((f.values[shoulder] > 0) & (f.values[shoulder] < 2.0))
    # support measure: |{u > 0}| ~ 2 (radius + 3 width), within one cell each side
    measure = g.h * np.count_nonzero(f.values)
    assert measure == pytest.approx(2 * (radius + 3 * width), abs=2 * g.h)


def test_bump_shoulder_is_a_monotone_smooth_step():
    amp = 2.0
    s = np.linspace(0.0, 1.0, 10001)
    # radius 0 and width 1/3 make the distance the shoulder coordinate s
    f = _bump(s, amp, 0.0, 1.0 / 3.0)
    assert f[0] == amp and f[-1] == 0.0
    assert np.all(np.diff(f) <= 0.0)
    mid = (s >= 0.05) & (s <= 0.95)
    assert np.all((f[mid] > 0.0) & (f[mid] < amp))
    assert np.all(np.diff(f[mid]) < 0.0)
    assert _bump(np.array([0.5]), amp, 0.0, 1.0 / 3.0)[0] == amp / 2


def test_bump_spectrum_is_tiny_past_a_third_of_the_modes():
    # a C^1 shoulder leaves a k^-3 tail here (1.9e-5 of the mean mode);
    # the C^inf one reads 2.1e-6 on spreading_1d's bundled grid
    sc = load_scenario(bundled_scenario_path("spreading_1d"))
    c = np.abs(np.fft.rfft(realize(sc.ic, sc.grid).values))
    assert np.max(c[sc.grid.n // 3 + 1:]) <= 5e-6 * c[0]


def test_smoothed_indicator_must_fit_guard_zone():
    g = make_grid(1, 128, 10.0)
    with pytest.raises(ValueError, match="guard"):
        realize(ICSpec(kind="smoothed_indicator", amplitude=1.0, radius=7.0, width=1.0), g)


def test_positive_random_floor_and_band():
    g = make_grid(1, 256, 20.0)
    spec = ICSpec(kind="positive_random", amplitude=1.0, floor=0.25, seed=11)
    f = realize(spec, g)
    assert f.values.min() == pytest.approx(0.25, abs=1e-15)
    assert f.values.max() == pytest.approx(1.25, rel=1e-12)
    # no spectral content beyond the noise band (mean mode aside)
    c = to_spectral(f)
    j = np.rint(np.fft.fftfreq(g.n, d=1.0 / g.n))
    assert np.max(np.abs(c[np.abs(j) > 8])) < 1e-14


def test_positive_random_is_seed_deterministic():
    g = make_grid(2, 32, 5.0)
    spec = ICSpec(kind="positive_random", amplitude=0.5, floor=0.25, seed=3)
    f1, f2 = realize(spec, g), realize(spec, g)
    assert np.array_equal(f1.values, f2.values)
    other = realize(ICSpec(kind="positive_random", amplitude=0.5, floor=0.25, seed=4), g)
    assert not np.array_equal(f1.values, other.values)


@pytest.mark.parametrize("dim, n, band", [(1, 256, 8), (1, 96, 16), (2, 32, 8), (2, 48, 8), (3, 16, 4)])
def test_band_limited_noise_equals_full_fft_construction(dim, n, band):
    g = make_grid(dim, n, 5.0)
    got = band_limited_noise(g, np.random.default_rng(17), band)
    ref = full_fft_band_noise(g, np.random.default_rng(17), band)
    assert np.max(np.abs(got - ref)) <= 1e-13
    assert np.max(np.abs(got)) == pytest.approx(1.0, rel=1e-15)


def test_constant_plus_bump_levels():
    g = make_grid(1, 512, 30.0)
    f = realize(
        ICSpec(kind="constant_plus_bump", amplitude=0.8, floor=0.4, radius=3.0, width=0.5),
        g,
    )
    x = g.axes[0]
    assert np.all(f.values[np.abs(x) > 3.0 + 1.5] == pytest.approx(0.4))
    assert f.values[np.argmin(np.abs(x))] == pytest.approx(1.2)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31),
    kind=st.sampled_from(["constant", "gaussian", "smoothed_indicator", "positive_random"]),
    dim=st.sampled_from([1, 2]),
)
def test_every_kind_is_nonnegative_and_finite(seed, kind, dim):
    g = make_grid(dim, 32, 12.0)
    spec = ICSpec(kind=kind, amplitude=1.3, radius=2.0, width=0.7, floor=0.3, seed=seed)
    f = realize(spec, g)
    assert np.all(np.isfinite(f.values))
    assert f.values.min() >= 0.0


def test_icspec_validation():
    with pytest.raises(ValueError, match="kind"):
        ICSpec(kind="bumpy")
    with pytest.raises(ValueError):
        ICSpec(kind="gaussian", amplitude=-1.0)
    with pytest.raises(ValueError):
        ICSpec(kind="gaussian", width=0.0)
    with pytest.raises(ValueError):
        ICSpec(kind="positive_random", floor=0.0)
    with pytest.raises(ValueError):
        ICSpec(kind="constant", floor=-0.5)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ICSpec(kind="positive_random", floor=0.5, seed=-1)
