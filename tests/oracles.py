"""Independent slow-path references used to pin expected values.

Everything here deliberately avoids the package's spectral code paths:
resolvents and semigroups are evaluated by quadrature against explicit
kernels, time integration by a plain fourth-order Runge-Kutta loop on
the semi-discrete system, and the stepper, the noise builder and the
gradient, divergence and Laplacian are taken in full complex-FFT form,
on the dense multipliers of ``full_multipliers``.  The report writers
are kept in their original form too: a pure ``json.dumps`` of the
report dict, and snapshot tables formatted value by value with
f-strings.  ``nonlinearity`` is the one
exception: it exposes the stepper's own F(u) to the tests.
"""

import json
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad

from kslogistic.grid import Field
from kslogistic.stepper import _plan, _rhs

TAIL = 45.0  # exp(-45) ~ 3e-20, far below every tolerance used


@lru_cache(maxsize=16)
def full_multipliers(grid):
    """Dense multipliers of a grid on the full complex FFT layout.

    k : per-axis wavenumbers k_j = pi*j/L in FFT order
        (0, 1, ..., n/2-1, -n/2, ..., -1)
    k2 : |k|^2
    ik : i*k per axis, Nyquist entries zeroed
    modes : max_axis |j|
    mask : True on modes kept by the 2/3 rule (modes <= n//3)
    """
    n = grid.n
    j = np.rint(np.fft.fftfreq(n, d=1.0 / n))
    k1 = (np.pi / grid.half_width) * j
    J = np.meshgrid(*([j] * grid.dim), indexing="ij")
    K = np.meshgrid(*([k1] * grid.dim), indexing="ij")
    modes = np.max(np.abs(J), axis=0).astype(int)
    return SimpleNamespace(
        k=(k1,) * grid.dim,
        k2=sum(Ka**2 for Ka in K),
        ik=tuple(np.where(np.abs(Ja) == n // 2, 0.0, 1j * Ka) for Ja, Ka in zip(J, K)),
        modes=modes,
        mask=modes <= n // 3,
    )


def smooth_field(grid, seed, kcut=None):
    """White noise with every mode of |k| > kcut removed on the full
    spectrum; kcut defaults to half the largest |k|."""
    rng = np.random.default_rng(seed)
    k2 = full_multipliers(grid).k2
    c = sfft.fftn(rng.standard_normal(grid.shape), norm="forward")
    if kcut is None:
        kcut = 0.5 * np.sqrt(k2.max())
    c = np.where(k2 <= kcut**2, c, 0.0)
    return Field(grid, sfft.ifftn(c, norm="forward").real)


def scipy_rfft(grid, values):
    """Grid.rfft through scipy.fft: one 1/n**dim scaling per transform."""
    if grid.dim == 1:
        return sfft.rfft(values, norm="forward")
    return sfft.rfft2(values, norm="forward")


def scipy_irfft(grid, coef):
    """Grid.irfft through scipy.fft."""
    if grid.dim == 1:
        return sfft.irfft(coef, grid.n, norm="forward")
    return sfft.irfft2(coef, grid.shape, norm="forward")


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


def heat_kernel(x, t, dim):
    """Gaussian (4 pi t)^(-dim/2) exp(-|x|^2 / (4t)), the exact heat kernel.

    For dim == 1, ``x`` is any array of positions.  For dim == 2 the
    last axis of ``x`` must hold the two components.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    x = np.asarray(x, dtype=np.float64)
    if dim == 1:
        r2 = x**2
    else:
        if x.shape[-1] != dim:
            raise ValueError(f"last axis of x must have length {dim}")
        r2 = np.sum(x**2, axis=-1)
    return (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-r2 / (4.0 * t))


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
    ksq = full_multipliers(grid).k2

    def rhs(w):
        wh = np.fft.fftn(w)
        lap = np.real(np.fft.ifftn(-ksq * wh))
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


def full_fft_rhs_hat(uh, grid, p):
    """F(u) = -chi div(u grad v) + (a+1) u - b u^2 on the full complex
    spectrum: one inverse transform per factor and one forward
    transform per product, 2/3-truncated before and after products."""
    m = full_multipliers(grid)
    mask = m.mask
    vh = uh / (1.0 + m.k2)
    ud = sfft.ifftn(uh * mask, norm="forward").real
    out = (p.a + 1.0) * uh
    if p.chi != 0.0:
        chem = np.zeros_like(uh)
        for a in range(grid.dim):
            gv = sfft.ifftn(m.ik[a] * vh * mask, norm="forward").real
            fluxh = sfft.fftn(ud * gv, norm="forward") * mask
            chem += m.ik[a] * fluxh
        out = out - p.chi * chem
    sqh = sfft.fftn(ud * ud, norm="forward") * mask
    return out - p.b * sqh


def nonlinearity(u, p):
    """The stepper's own F(u) as a physical field, v solved internally:
    not an independent route, but the package's plan and products, for
    tests that check them against composed operators."""
    g = u.grid
    # dt = 0: F reads only the product stacks of the plan
    _, _, _, synth, weights = _plan(g, 0.0, p.b, p.chi)
    uh = g.rfft(u.values)
    phys = g.irfft(synth * uh)
    fh = _rhs(g, uh, phys, weights, p.a + 1.0, np.empty_like(uh), np.empty_like(phys),
              np.empty(synth.shape, uh.dtype))
    return Field(g, g.irfft(fh))


def laplacian(f):
    """Spectral Laplacian (multiplier -|k|^2, Nyquist retained) on the
    full complex spectrum."""
    c = sfft.fftn(f.values, norm="forward")
    return Field(f.grid, sfft.ifftn(-full_multipliers(f.grid).k2 * c, norm="forward").real)


def gradient(f):
    """Spectral gradient on the full complex spectrum, one Field per
    axis; Nyquist modes are dropped."""
    c = sfft.fftn(f.values, norm="forward")
    return tuple(Field(f.grid, sfft.ifftn(ik * c, norm="forward").real) for ik in full_multipliers(f.grid).ik)


def divergence(w):
    """Spectral divergence of per-axis components on the full complex
    spectrum; Nyquist modes are dropped."""
    g = w[0].grid
    c = sum(ik * sfft.fftn(comp.values, norm="forward") for ik, comp in zip(full_multipliers(g).ik, w))
    return Field(g, sfft.ifftn(c, norm="forward").real)


def full_fft_step(u, grid, p, dt):
    """One exponential-Heun step on the full complex spectrum, without
    the abort checks; returns the new u values."""
    z = -dt * (1.0 + full_multipliers(grid).k2)
    E = np.exp(z)
    small = np.abs(z) < 1e-4
    zs, zb = z[small], z[~small]
    phi1 = np.empty_like(z)
    phi1[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    phi1[~small] = np.expm1(zb) / zb
    P = dt * phi1
    uh = sfft.fftn(u, norm="forward")
    fn = full_fft_rhs_hat(uh, grid, p)
    fp = full_fft_rhs_hat(E * uh + P * fn, grid, p)
    return sfft.ifftn(E * uh + 0.5 * P * (fn + fp), norm="forward").real


def full_fft_band_noise(grid, rng, band):
    """Band-limited white noise with unit sup norm, built on the full
    complex spectrum."""
    white = rng.standard_normal(grid.shape)
    coef = sfft.fftn(white, norm="forward")
    keep = full_multipliers(grid).modes <= band
    vals = sfft.ifftn(np.where(keep, coef, 0.0), norm="forward").real
    return vals / np.max(np.abs(vals))


def _jsonable(obj):
    """Recursively replace non-finite floats with None; JSON has no nan."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def report_json(report, include_wall_time=True):
    """report.json's text as json.dumps(indent=2) of the report dict."""
    return json.dumps(
        _jsonable(report.to_dict(include_wall_time)), indent=2
    )


def snapshot_tables(report):
    """{file name: text} of the plots/snapshot_*.dat tables, each value
    formatted on its own by an f-string."""
    g = report.scenario.grid
    dim = g.dim
    tables = {}
    for k, snap in enumerate(report.snapshots):
        fname = f"snapshot_{k:04d}.dat"
        # Python floats: their repr parses back to the same double
        u = np.asarray(snap["u"]).tolist()
        v = np.asarray(snap["v"]).tolist()
        xs = g.axes[0].tolist()
        lines = [f"# t = {float(snap['t'])!r}"]
        if dim == 1:
            lines.append("# x u v")
            lines += [f"{x!r} {uu!r} {vv!r}" for x, uu, vv in zip(xs, u, v)]
        elif dim == 2:
            lines.append("# x y u v")
            ys = g.axes[1].tolist()
            for x, urow, vrow in zip(xs, u, v):
                lines += [f"{x!r} {y!r} {uu!r} {vv!r}" for y, uu, vv in zip(ys, urow, vrow)]
                lines.append("")
        else:
            lines.append("# x y z u v")
            for i, j, k in np.ndindex(g.shape):
                x, y, z = (float(g.axes[a][m]) for a, m in enumerate((i, j, k)))
                lines.append(f"{x!r} {y!r} {z!r} {u[i][j][k]!r} {v[i][j][k]!r}")
                if k == g.n - 1:
                    lines.append("")
        tables[fname] = "\n".join(lines) + "\n"
    return tables
