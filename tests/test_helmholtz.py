import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kslogistic.grid import Field, make_grid
from kslogistic.helmholtz import grad_potential, solve

from oracles import bessel_resolvent_1d, full_multipliers, gradient, laplacian, smooth_field


def test_single_mode_exactness_1d():
    g = make_grid(1, 64, 5.0)
    k = full_multipliers(g).k[0][4]
    x = g.axes[0]
    u = Field(g, np.cos(k * x))
    v = solve(u)
    assert_allclose(v.values, np.cos(k * x) / (1 + k**2), atol=1e-13)


def test_single_mode_exactness_2d():
    g = make_grid(2, 32, 3.0)
    kx, ky = full_multipliers(g).k[0][3], full_multipliers(g).k[1][6]
    X, Y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
    u = Field(g, np.sin(kx * X) * np.cos(ky * Y))
    v = solve(u)
    assert_allclose(v.values, u.values / (1 + kx**2 + ky**2), atol=1e-13)


def test_residual_of_solve():
    # v - lap v should reproduce u to rounding
    g = make_grid(2, 24, 2.0)
    u = smooth_field(g, 3)
    v = solve(u)
    resid = v.values - laplacian(v).values - u.values
    assert np.max(np.abs(resid)) < 1e-11 * (1 + np.max(np.abs(u.values)))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]))
def test_mean_preserved(seed, dim):
    g = make_grid(dim, 16, 2.0)
    u = smooth_field(g, seed)
    v = solve(u)
    assert np.mean(v.values) == pytest.approx(np.mean(u.values), abs=1e-13)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]))
def test_output_sandwiched_between_input_extremes(seed, dim):
    # positive kernel with unit mass: min u <= v <= max u pointwise
    g = make_grid(dim, 32, 4.0)
    rng = np.random.default_rng(seed)
    u = Field(g, rng.uniform(-2.0, 5.0, g.shape))
    v = solve(u)
    tol = 1e-12 * (1 + np.max(np.abs(u.values)))
    assert v.values.min() >= u.values.min() - tol
    assert v.values.max() <= u.values.max() + tol


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
def test_linearity(seed, alpha, beta):
    g = make_grid(1, 32, 3.0)
    u1 = smooth_field(g, seed)
    u2 = smooth_field(g, seed + 1)
    lhs = solve(Field(g, alpha * u1.values + beta * u2.values)).values
    rhs = alpha * solve(u1).values + beta * solve(u2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * (1 + np.max(np.abs(rhs)))


def test_self_adjoint():
    g = make_grid(2, 16, 2.0)
    u, w = smooth_field(g, 5), smooth_field(g, 6)
    lhs = np.sum(solve(u).values * w.values)
    rhs = np.sum(u.values * solve(w).values)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]))
def test_gradient_bound(seed, dim):
    # ||grad (I-lap)^(-1) u||_inf <= sqrt(dim) ||u||_inf
    g = make_grid(dim, 32, 4.0)
    u = smooth_field(g, seed)
    parts = grad_potential(u)
    mag = np.sqrt(sum(p.values**2 for p in parts))
    assert np.max(mag) <= np.sqrt(dim) * np.max(np.abs(u.values)) + 1e-12


def test_grad_potential_matches_gradient_of_solve():
    g = make_grid(2, 24, 3.0)
    u = smooth_field(g, 9)
    direct = grad_potential(u)
    composed = gradient(solve(u))
    for d, c in zip(direct, composed):
        assert np.max(np.abs(d.values - c.values)) < 1e-13


@pytest.mark.parametrize(
    "label,u_per",
    [
        ("analytic periodic", lambda y, L=30.0: np.exp(np.sin(np.pi * y / L))),
        (
            "gaussian images",
            lambda y, L=30.0: sum(
                1.5 * np.exp(-((y - 2 * L * m) ** 2) / (2 * 2.0**2)) for m in (-1, 0, 1)
            ),
        ),
    ],
)
def test_kernel_quadrature_cross_check(label, u_per):
    # independent route: integrate exp(-|x-y|)/2 against the periodic
    # extension instead of dividing by 1 + k^2
    L, n = 30.0, 256
    g = make_grid(1, n, L)
    x = g.axes[0]
    u = Field(g, u_per(x))
    v = solve(u)
    idx = np.arange(0, n, 16)
    expect = np.array([bessel_resolvent_1d(u_per, x[i]) for i in idx])
    assert np.max(np.abs(v.values[idx] - expect)) < 1e-6
