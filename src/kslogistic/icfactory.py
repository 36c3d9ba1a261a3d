"""Deterministic initial-condition constructors.

Every kind produces a nonnegative field, and the compactly supported
kinds are exactly zero from |x| = radius + 3 width outward so that
boundary-guard checks start from a genuinely flat tail.  Bumps sit at
the origin, as the system is translation-invariant.  Randomness is
confined to ``positive_random`` and fully determined by ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid

__all__ = ["ICSpec", "realize", "check_placement", "band_limited_noise", "KINDS"]

KINDS = (
    "constant",
    "gaussian",
    "smoothed_indicator",
    "positive_random",
    "constant_plus_bump",
)

#: highest per-axis mode index carrying noise in positive_random
_NOISE_BAND = 8


@dataclass(frozen=True)
class ICSpec:
    """What to build.  Fields are read per kind:

    constant            amplitude
    gaussian            amplitude, width (standard deviation)
    smoothed_indicator  amplitude, radius (plateau), width
                        (edge scale: a C^inf shoulder falls from
                        amplitude to 0 across radius + [0, 3 width])
    positive_random     floor (exact minimum), amplitude (band height),
                        seed
    constant_plus_bump  floor plus a smoothed_indicator bump
    """

    kind: str
    amplitude: float = 1.0
    radius: float = 1.0
    width: float = 0.5
    floor: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; pick one of {KINDS}")
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        if not (np.isfinite(self.floor) and self.floor >= 0):
            raise ValueError(f"floor must be nonnegative, got {self.floor}")
        if self.kind in ("gaussian", "smoothed_indicator", "constant_plus_bump"):
            if not (np.isfinite(self.width) and self.width > 0):
                raise ValueError(f"width must be positive for {self.kind}")
        if self.kind in ("smoothed_indicator", "constant_plus_bump"):
            if not (np.isfinite(self.radius) and self.radius >= 0):
                raise ValueError(f"radius must be nonnegative for {self.kind}")
        if self.kind == "positive_random" and not self.floor > 0:
            raise ValueError("positive_random needs floor > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def check_placement(spec: ICSpec, grid: Grid, guard: float) -> None:
    """Compactly supported kinds must fit inside the guard zone, i.e.
    within (1 - guard) * half_width of the origin."""
    if spec.kind in ("smoothed_indicator", "constant_plus_bump"):
        extent = spec.radius + 3 * spec.width
        limit = (1.0 - guard) * grid.half_width
        if extent > limit:
            raise ValueError(
                f"{spec.kind} support reaches {extent:.4g}, beyond the "
                f"guard boundary {limit:.4g}; shrink it or enlarge the box"
            )


def _bump(dist: np.ndarray, amplitude: float, radius: float, width: float) -> np.ndarray:
    """Plateau with a C^inf shoulder: amplitude inside radius, the
    smooth step psi(1 - s) / (psi(s) + psi(1 - s)) with
    psi(s) = exp(-1/s) across s = (dist - radius) / (3 width) in (0, 1),
    identically zero from radius + 3 width outward.

    Every derivative of the step vanishes at both ends of the shoulder,
    so the spectrum decays faster than any power of k; a shoulder that
    is only C^1 there leaves a k^-3 tail that seeds the e^(a t) growth
    of the unstable vacuum ahead of a front."""
    s = (dist - radius) / (3.0 * width)
    out = np.zeros_like(dist)
    out[s <= 0.0] = amplitude
    edge = (s > 0.0) & (s < 1.0)
    se = s[edge]
    inner, outer = np.exp(-1.0 / (1.0 - se)), np.exp(-1.0 / se)
    out[edge] = amplitude * inner / (inner + outer)
    return out


def band_limited_noise(grid: Grid, rng: np.random.Generator, band: int) -> np.ndarray:
    """White noise drawn from rng, keeping per-axis modes |j| <= band,
    scaled to unit sup norm."""
    white = rng.standard_normal(grid.shape)
    vals = grid.irfft((grid.half.modes <= band) * grid.rfft(white))
    top = np.max(np.abs(vals))
    return vals / top if top > 0 else vals


def realize(spec: ICSpec, grid: Grid, guard: float = 0.1) -> Field:
    """Sample the spec on the grid, once check_placement passes."""
    check_placement(spec, grid, guard)
    if spec.kind == "constant":
        vals = np.full(grid.shape, spec.amplitude)
    elif spec.kind == "gaussian":
        vals = spec.amplitude * np.exp(-(grid.radius**2) / (2.0 * spec.width**2))
    elif spec.kind == "smoothed_indicator":
        vals = _bump(grid.radius, spec.amplitude, spec.radius, spec.width)
    elif spec.kind == "constant_plus_bump":
        vals = spec.floor + _bump(grid.radius, spec.amplitude, spec.radius, spec.width)
    elif spec.kind == "positive_random":
        noise = band_limited_noise(grid, np.random.default_rng(spec.seed), _NOISE_BAND)
        noise -= noise.min()
        top = noise.max()
        if top > 0:
            noise *= spec.amplitude / top
        vals = spec.floor + noise
    else:  # pragma: no cover - guarded by ICSpec validation
        raise ValueError(f"unknown kind {spec.kind!r}")
    return Field(grid, vals)
