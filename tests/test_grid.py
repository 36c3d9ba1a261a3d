import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kslogistic.grid import Field, NonFiniteFieldError, make_grid, to_spectral
from kslogistic.semigroup import apply_T_div

from oracles import divergence, full_multipliers, gradient, laplacian, scipy_irfft, scipy_rfft


def white_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.shape))


def test_wavenumber_layout_matches_fft_ordering():
    # leading axis in FFT order, last axis j = 0 .. n/2; i*k drops Nyquist
    g = make_grid(2, 8, np.pi)
    hs = g.half
    assert_allclose(hs.ik[0][:, 0].imag, [0, 1, 2, 3, 0, -3, -2, -1], atol=1e-15)
    assert_allclose(hs.ik[1][0, :].imag, [0, 1, 2, 3, 0], atol=1e-15)
    assert_allclose(hs.k2[:, 0], [0, 1, 4, 9, 16, 9, 4, 1], atol=1e-15)
    assert_allclose(hs.k2[0, :], [0, 1, 4, 9, 16], atol=1e-15)
    assert np.array_equal(hs.modes[:, 0], [0, 1, 2, 3, 4, 3, 2, 1])
    assert g.h == pytest.approx(2 * np.pi / 8)


def test_max_wavenumber_magnitude():
    g = make_grid(1, 64, 10.0)
    assert np.sqrt(np.max(g.half.k2)) == pytest.approx(np.pi * 32 / 10.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 12, 24])
def test_half_layout_is_full_layout_restricted_to_last_axis_half(dim, n):
    g = make_grid(dim, n, 2.5)
    hs, full = g.half, full_multipliers(g)
    cols = (Ellipsis, slice(0, n // 2 + 1))
    assert np.array_equal(hs.k2, full.k2[cols])
    assert np.array_equal(hs.ik, np.stack(full.ik)[cols])
    assert np.array_equal(hs.modes, full.modes[cols])
    assert np.array_equal(hs.mask, full.mask[cols].astype(float))
    # the 2/3 band ends exactly at n//3; the Nyquist column is j = n/2,
    # where the last axis's i*k is zeroed and |k|^2 kept
    assert np.array_equal(hs.mask == 1.0, hs.modes <= n // 3)
    assert hs.mask[(0,) * (dim - 1) + (n // 3,)] == 1.0
    assert hs.mask[(0,) * (dim - 1) + (n // 3 + 1,)] == 0.0
    assert np.all(hs.modes[..., n // 2] == n // 2)
    assert np.all(hs.ik[-1][..., n // 2] == 0.0)
    for a in range(dim - 1):
        assert np.all(np.take(hs.ik[a], n // 2, axis=a) == 0.0)
    assert hs.k2[(0,) * (dim - 1) + (n // 2,)] == (np.pi * (n // 2) / 2.5) ** 2


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2, 3]),
    n=st.sampled_from([8, 16, 24]),
)
def test_transform_round_trip(seed, dim, n):
    g = make_grid(dim, n, 3.0)
    f = white_field(g, seed)
    back = g.irfft(g.rfft(f.values))
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(back - f.values)) <= 1e-12 * (1 + scale)


def _batch(g, rows, seed):
    """A real batch of fields and its half-spectrum."""
    x = np.random.default_rng(seed).standard_normal((rows,) + g.shape)
    return x, g.rfft(x)


@pytest.mark.parametrize("dim, n", [(1, 1024), (1, 96), (2, 128), (2, 96), (3, 16)])
@pytest.mark.parametrize("rows", [1, 4])
def test_transforms_into_out_give_the_same_bits(dim, n, rows):
    g = make_grid(dim, n, 3.0)
    x, c = _batch(g, rows, 3)
    cout = np.full_like(c, np.nan)
    xout = np.full_like(x, np.nan)
    assert g.rfft(x, out=cout) is cout
    assert g.irfft(c, out=xout) is xout
    assert np.array_equal(cout, c)
    assert np.array_equal(xout, g.irfft(c))
    # out receives the transform of this input, not left-over contents
    assert np.array_equal(g.irfft(2.0 * c, out=xout), 2.0 * g.irfft(c))


@pytest.mark.parametrize("dim, n", [(1, 1024), (1, 96), (2, 128)])
def test_transforms_match_scipy_bitwise(dim, n):
    g = make_grid(dim, n, 3.0)
    x, c = _batch(g, 3, 5)
    assert np.array_equal(c, scipy_rfft(g, x))
    assert np.array_equal(g.irfft(c), scipy_irfft(g, c))


def test_transforms_match_scipy_at_96_squared():
    # numpy scales each axis by 1/n, scipy once by 1/n^2; at n = 96 the
    # two round differently
    g = make_grid(2, 96, 3.0)
    x, c = _batch(g, 3, 5)
    ref = scipy_rfft(g, x)
    assert np.max(np.abs(c - ref)) <= 1e-15 * np.max(np.abs(ref))
    back = scipy_irfft(g, ref)
    assert np.max(np.abs(g.irfft(ref) - back)) <= 1e-15 * np.max(np.abs(back))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]))
def test_zero_mode_is_mean(seed, dim):
    g = make_grid(dim, 16, 2.5)
    f = white_field(g, seed)
    zero = to_spectral(f)[(0,) * dim]
    assert zero == pytest.approx(np.mean(f.values), abs=1e-13)
    assert abs(zero.imag) < 1e-14


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]))
def test_parseval(seed, dim):
    # h^dim * sum |f|^2 == (2L)^dim * sum |fhat|^2 under forward scaling
    g = make_grid(dim, 16, 4.0)
    f = white_field(g, seed)
    phys = g.cell_volume * np.sum(f.values**2)
    spec = (2 * g.half_width) ** dim * np.sum(np.abs(to_spectral(f)) ** 2)
    assert_allclose(spec, phys, rtol=1e-12)


def test_spectral_coefficients_hermitian():
    g = make_grid(2, 16, 1.0)
    c = to_spectral(white_field(g, 7))
    flipped = np.conj(c[np.ix_(*(np.arange(-0, -g.n, -1) % g.n for _ in range(2)))])
    # index -j mod n pairs each mode with its conjugate partner
    assert np.max(np.abs(c - flipped)) < 1e-14


def test_gradient_exact_on_single_mode():
    g = make_grid(1, 64, 5.0)
    k = full_multipliers(g).k[0][3]
    x = g.axes[0]
    f = Field(g, np.sin(k * x))
    (gx,) = gradient(f)
    assert_allclose(gx.values, k * np.cos(k * x), atol=1e-12 * max(1, k))


def test_gradient_of_constant_is_zero():
    g = make_grid(2, 16, 2.0)
    parts = gradient(Field(g, np.full(g.shape, 3.7)))
    for p in parts:
        assert np.max(np.abs(p.values)) < 1e-14


def test_gradient_drops_nyquist_mode():
    g = make_grid(1, 32, 4.0)
    x = g.axes[0]
    knyq = np.pi * (g.n // 2) / g.half_width
    f = Field(g, np.cos(knyq * x))
    (gx,) = gradient(f)
    assert np.max(np.abs(gx.values)) < 1e-12


def test_divergence_of_gradient_is_laplacian():
    g = make_grid(2, 24, 3.0)
    f = white_field(g, 11)
    # strip Nyquist content first: odd multipliers zero it, -|k|^2 keeps it
    s = g.rfft(f.values)
    s[g.n // 2, :] = 0.0
    s[:, g.n // 2] = 0.0
    f = Field(g, g.irfft(s))
    lap1 = divergence(gradient(f))
    lap2 = laplacian(f)
    assert np.max(np.abs(lap1.values - lap2.values)) <= 1e-10 * np.max(
        1 + np.abs(lap2.values)
    )


def test_laplacian_exact_on_single_mode():
    g = make_grid(2, 32, 3.0)
    kx = full_multipliers(g).k[0][2]
    ky = full_multipliers(g).k[1][5]
    X, Y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
    f = Field(g, np.cos(kx * X) * np.sin(ky * Y))
    expect = -(kx**2 + ky**2) * f.values
    assert_allclose(laplacian(f).values, expect, atol=1e-11 * (kx**2 + ky**2))


def test_dealias_mask_two_thirds_rule():
    g = make_grid(1, 24, 1.0)
    assert np.array_equal(g.half.mask, (np.arange(13) <= 8).astype(float))
    g2 = make_grid(2, 12, 1.0)
    # 2*4 + 1 leading-axis modes times the 4 + 1 kept half columns
    assert g2.half.mask.sum() == (2 * (12 // 3) + 1) * (12 // 3 + 1)


@pytest.mark.parametrize(
    "dim,n,L",
    [(4, 16, 1.0), (0, 16, 1.0), (1, 7, 1.0), (1, 2, 1.0), (1, 16, 0.0), (1, 16, -2.0)],
)
def test_grid_rejects_bad_arguments(dim, n, L):
    with pytest.raises(ValueError):
        make_grid(dim, n, L)


def test_field_rejects_wrong_shape():
    g = make_grid(1, 16, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))


def test_to_spectral_rejects_non_finite():
    g = make_grid(1, 16, 1.0)
    vals = np.zeros(16)
    vals[3] = np.nan
    with pytest.raises(NonFiniteFieldError):
        to_spectral(Field(g, vals))


def test_divergence_rejects_component_mismatch():
    # apply_T_div is the package's one divergence path
    g = make_grid(2, 16, 1.0)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError, match="one component per axis"):
        apply_T_div(0.1, [f])
    with pytest.raises(ValueError, match="one component per axis"):
        apply_T_div(0.1, [])
    with pytest.raises(ValueError, match="different grids"):
        apply_T_div(0.1, [f, Field(make_grid(2, 16, 2.0), f.values)])

