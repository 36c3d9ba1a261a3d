import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kslogistic import grid
from kslogistic.grid import Field, NonFiniteFieldError, make_grid, to_spectral

from kslogistic.harness import run_many
from kslogistic.scenario import bundled_scenario_path, load_scenario
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


# -- batches split across the helper thread ---------------------------------

HELPER = "kslogistic-fft"


def _numpy_pair(g):
    """The numpy.fft forward and inverse that Grid.rfft/irfft call,
    and their arguments beyond the array."""
    if g.dim == 1:
        return "rfft", "irfft", {}, {"n": g.n}
    axes = tuple(range(-g.dim, 0))
    return "rfftn", "irfftn", {"axes": axes}, {"s": g.shape, "axes": axes}


def _record(monkeypatch, name):
    """Replace numpy.fft.<name> by a wrapper that records, per call, the
    thread it ran in and its row count."""
    calls, real = [], getattr(np.fft, name)

    def recording(a, *args, **kwargs):
        calls.append((threading.current_thread().name, len(a)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, name, recording)
    return calls


@pytest.mark.parametrize("dim, n, rows", [(2, 128, 3), (2, 128, 4), (3, 32, 2), (1, 16384, 2)])
def test_split_transforms_give_the_bits_of_one_numpy_call(monkeypatch, dim, n, rows):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    g = make_grid(dim, n, 3.0)
    fwd, inv, fkw, ikw = _numpy_pair(g)
    x = np.random.default_rng(11).standard_normal((rows,) + g.shape)
    c = getattr(np.fft, fwd)(x, norm="forward", **fkw)
    back = getattr(np.fft, inv)(c, norm="forward", **ikw)
    fcalls, icalls = _record(monkeypatch, fwd), _record(monkeypatch, inv)
    cout, xout = np.full_like(c, np.nan), np.full_like(x, np.nan)
    assert g.rfft(x, out=cout) is cout and g.irfft(c, out=xout) is xout
    for got, want in [(g.rfft(x), c), (cout, c), (g.irfft(c), back), (xout, back)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # every call split: the helper's rows/2, then the caller's rest
    for calls in (fcalls, icalls):
        assert sorted(calls) == sorted([(HELPER, rows // 2), ("MainThread", rows - rows // 2)] * 2)


def test_an_error_in_the_helper_raises_in_the_caller_and_the_next_split_is_exact(monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    g = make_grid(2, 128, 3.0)
    x = np.random.default_rng(5).standard_normal((3,) + g.shape)
    want = np.fft.rfftn(x, axes=(-2, -1), norm="forward")
    real = np.fft.rfftn

    def failing_in_helper(a, *args, **kwargs):
        if threading.current_thread().name == HELPER:
            raise FloatingPointError("helper half failed")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", failing_in_helper)
    with pytest.raises(FloatingPointError, match="helper half failed"):
        g.rfft(x)
    monkeypatch.setattr(np.fft, "rfftn", real)
    calls = _record(monkeypatch, "rfftn")
    assert np.array_equal(g.rfft(x), want)
    assert {name for name, _ in calls} == {HELPER, "MainThread"}


def test_one_usable_cpu_splits_nothing(monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 1)
    g = make_grid(2, 128, 3.0)
    x = np.random.default_rng(5).standard_normal((3,) + g.shape)
    want = np.fft.rfftn(x, axes=(-2, -1), norm="forward")
    before = set(threading.enumerate())
    calls = _record(monkeypatch, "rfftn")
    assert np.array_equal(g.rfft(x), want)
    assert calls == [("MainThread", 3)]
    assert set(threading.enumerate()) <= before


def test_small_batches_stay_in_the_caller(monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    calls = _record(monkeypatch, "rfftn")
    g = make_grid(2, 96, 3.0)
    g.rfft(np.ones((3,) + g.shape))
    g.rfft(np.ones(make_grid(2, 128, 3.0).shape))
    make_grid(2, 128, 3.0).rfft(np.ones((1, 128, 128)))
    assert [name for name, _ in calls] == ["MainThread"] * 3


def _split_in_worker(_scenario):
    g = make_grid(2, 128, 3.0)
    x = np.random.default_rng(9).standard_normal((3,) + g.shape)
    return g.rfft(x), [t.name for t in threading.enumerate()]


def _split_and_send(conn):
    conn.send(_split_in_worker(None))
    conn.close()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)


@needs_fork
def test_run_many_workers_split_nothing(monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    want, _ = _split_in_worker(None)  # the parent may split and has a helper
    sc = load_scenario(bundled_scenario_path("twod_smoke"))
    with run_many([sc, sc], 2, _split_in_worker) as calls:
        results = [call() for call in calls]
    for bits, threads in results:
        assert np.array_equal(bits, want)
        assert HELPER not in threads


@needs_fork
def test_a_forked_child_starts_its_own_helper(monkeypatch):
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    want, threads = _split_in_worker(None)
    assert HELPER in threads
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    child = ctx.Process(target=_split_and_send, args=(child_end,))
    child.start()
    try:
        # a child that queued work for the parent's helper would wait forever
        assert parent_end.poll(60), "the forked child's split never returned"
        bits, threads = parent_end.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert not child.is_alive()
    assert np.array_equal(bits, want) and HELPER in threads


def test_concurrent_callers_all_get_exact_bits(monkeypatch):
    """More caller threads than CPUs, switching often: one split runs at
    a time, the others transform in their own thread."""
    monkeypatch.setattr(grid, "usable_cpus", lambda: 2)
    g = make_grid(2, 128, 3.0)
    xs = [np.random.default_rng(s).standard_normal((2,) + g.shape) for s in range(4)]
    wants = [np.fft.rfftn(x, axes=(-2, -1), norm="forward") for x in xs]
    bad = []

    def caller(x, want):
        for _ in range(20):
            if not np.array_equal(g.rfft(x), want):
                bad.append(1)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=pair) for pair in zip(xs, wants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
