"""Independent slow-path references used to pin expected values.

Everything here deliberately avoids the package's spectral code paths:
resolvents and semigroups are evaluated by quadrature against explicit
kernels, time integration by a plain fourth-order Runge-Kutta loop on
the semi-discrete system, and the stepper and noise builder are also
kept in their original full complex-FFT form.
"""

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad

TAIL = 45.0  # exp(-45) ~ 3e-20, far below every tolerance used


def bessel_resolvent_1d(u_per, x, epsabs=1e-12):
    """(I - d_xx)^(-1) u at point x by kernel quadrature.

    u_per must be a smooth function on all of R (the caller supplies the
    periodic extension explicitly).  The kernel is exp(-|x-y|)/2; the
    integral is split at the kink y = x so each piece is smooth.
    """
    right = quad(
        lambda y: 0.5 * np.exp(x - y) * u_per(y), x, x + TAIL,
        epsabs=epsabs, epsrel=epsabs, limit=400,
    )[0]
    left = quad(
        lambda y: 0.5 * np.exp(y - x) * u_per(y), x - TAIL, x,
        epsabs=epsabs, epsrel=epsabs, limit=400,
    )[0]
    return left + right


def heat_semigroup_1d(values, grid, t, images=None):
    """e^(-t) * (heat kernel convolution) by periodized-kernel quadrature.

    Plain Riemann sum over one period; for smooth periodic data the rule
    is spectrally accurate, and the kernel images are summed until they
    are negligible.
    """
    L = grid.half_width
    if images is None:
        images = int(np.ceil((TAIL * max(np.sqrt(4.0 * t), 1.0)) / (2 * L))) + 1
    x = grid.axes[0]
    diff = x[:, None] - x[None, :]
    kern = np.zeros_like(diff)
    for m in range(-images, images + 1):
        z = diff + 2 * L * m
        kern += np.exp(-(z**2) / (4.0 * t))
    kern *= (4.0 * np.pi * t) ** -0.5
    return np.exp(-t) * grid.h * (kern @ values)


def rk4_reaction_diffusion(u0, grid, a, b, dt, t_end):
    """Fourth-order explicit integrator for u_t = lap(u) + u(a - b u).

    Works on the same semi-discrete spectral Laplacian as the solver
    under test but shares none of its stepping code.
    """
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    u = np.array(u0, dtype=float)

    def rhs(w):
        wh = np.fft.fftn(w)
        lap = np.real(np.fft.ifftn(-grid.k2 * wh))
        return lap + w * (a - b * w)

    for _ in range(nsteps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def logistic_closed_form(u0, a0, b0, t):
    """Textbook logistic solution, written to stay finite for large t."""
    u0 = float(u0)
    if u0 == 0.0:
        return 0.0
    if a0 == 0.0:
        return u0 / (1.0 + b0 * u0 * t)
    if a0 > 0:
        em = np.expm1(-a0 * t)
        return a0 * u0 / (-b0 * u0 * em + a0 * (1.0 + em))
    em = np.expm1(a0 * t)
    return a0 * u0 * (1.0 + em) / (b0 * u0 * em + a0)


def full_fft_rhs_hat(uh, grid, p, dealias):
    """F(u) = -chi div(u grad v) + (a+1) u - b u^2 on the full complex
    spectrum: one inverse transform per factor and one forward
    transform per product, 2/3-truncated before and after products."""
    mask = grid.dealias_mask
    vh = uh / (1.0 + grid.k2)
    ud = sfft.ifftn(uh * mask if dealias else uh, norm="forward").real
    out = (p.a + 1.0) * uh
    if p.chi != 0.0:
        chem = np.zeros_like(uh)
        for a in range(grid.dim):
            gvh = grid.ik[a] * vh
            if dealias:
                gvh = gvh * mask
            gv = sfft.ifftn(gvh, norm="forward").real
            fluxh = sfft.fftn(ud * gv, norm="forward")
            if dealias:
                fluxh = fluxh * mask
            chem += grid.ik[a] * fluxh
        out = out - p.chi * chem
    sqh = sfft.fftn(ud * ud, norm="forward")
    if dealias:
        sqh = sqh * mask
    return out - p.b * sqh


def full_fft_step(u, grid, p, dt, dealias=True):
    """One exponential-Heun step on the full complex spectrum, without
    the abort checks; returns the new u values."""
    z = -dt * (1.0 + grid.k2)
    E = np.exp(z)
    small = np.abs(z) < 1e-4
    zs, zb = z[small], z[~small]
    phi1 = np.empty_like(z)
    phi1[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    phi1[~small] = np.expm1(zb) / zb
    P = dt * phi1
    uh = sfft.fftn(u, norm="forward")
    fn = full_fft_rhs_hat(uh, grid, p, dealias)
    fp = full_fft_rhs_hat(E * uh + P * fn, grid, p, dealias)
    return sfft.ifftn(E * uh + 0.5 * P * (fn + fp), norm="forward").real


def full_fft_band_noise(grid, rng, band):
    """Band-limited white noise with unit sup norm, built on the full
    complex spectrum."""
    white = rng.standard_normal(grid.shape)
    coef = sfft.fftn(white, norm="forward")
    keep1 = np.abs(np.rint(np.fft.fftfreq(grid.n, d=1.0 / grid.n))) <= band
    keep = keep1.reshape([-1] + [1] * (grid.dim - 1))
    for axis in range(1, grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        keep = keep & keep1.reshape(shape)
    vals = sfft.ifftn(np.where(keep, coef, 0.0), norm="forward").real
    return vals / np.max(np.abs(vals))
