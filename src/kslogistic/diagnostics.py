"""Run-time measurements and the rules the checks apply to them.

The rules (sandwich_check, boundary_guard, check_lr_growth) return a
CheckVerdict rather than raising, the one verdict type that the check
units in ``checks`` keep and reports carry: a run is allowed to finish
with failed checks, and the harness decides which failures count
against the exit status (only those whose hypotheses the parameter
regime satisfies, the verdict's asserted flag).  Margins are signed:
positive means slack, negative means violation, so mutation tests can
assert that corrupted inputs drive them below zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .grid import Field, Grid
from .helmholtz import grad_potential
from .params import Params

__all__ = [
    "CheckVerdict",
    "SpeedEstimate",
    "CstarScan",
    "lp_norm",
    "check_lr_growth",
    "front_radius",
    "front_trace",
    "estimate_speed",
    "cstar_functional",
    "equilibrium_distance",
    "sandwich_check",
    "boundary_guard",
]


@dataclass(frozen=True)
class CheckVerdict:
    """passed is the measurement outcome; asserted says whether the
    regime hypothesis behind the check holds."""

    name: str
    passed: bool
    asserted: bool
    margin: float
    detail: str = ""

    def __post_init__(self) -> None:
        # numpy scalars in, plain JSON-ready values out
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "asserted", bool(self.asserted))
        object.__setattr__(self, "margin", float(self.margin))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SpeedEstimate:
    speed: float
    stderr: float
    window: tuple
    n_samples: int


@dataclass(frozen=True)
class CstarScan:
    """Pointwise minima of the speed floor 2 sqrt(a - chi v) - chi |grad v|
    and of the positivity form 4 (a - chi v) - chi^2 |grad v|^2 over a
    region.  Points with a - chi v < 0 make the floor undefined; they are
    excluded from speed_min and counted in undefined_fraction."""

    speed_min: float
    positivity_min: float
    undefined_fraction: float
    n_points: int

    @property
    def all_defined(self) -> bool:
        return self.undefined_fraction == 0.0


@lru_cache(maxsize=16)
def _box_mesh(grid: Grid) -> np.ndarray:
    """Sup-norm distance from the origin, the distance that matters for
    proximity to the box faces."""
    return np.max(np.abs(np.meshgrid(*grid.axes, indexing="ij")), axis=0)


def lp_norm(f: Field, p: float) -> float:
    """Quadrature L^p norm, h^dim per cell; p = inf for the sup norm."""
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1 (or inf), got {p}")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    mx = float(a.max())
    if mx == 0.0:
        return 0.0
    # factor out the peak so large p cannot overflow
    return mx * float(
        (f.grid.cell_volume * np.sum((a / mx) ** p)) ** (1.0 / p)
    )


def check_lr_growth(times, values, a: float, tol: float) -> CheckVerdict:
    """Is values(t) <= values[0] * e^(a t) * (1 + tol) at every sample?

    margin is the smallest relative slack (bound - value)/bound.
    """
    times, values = np.asarray(times, dtype=np.float64), np.asarray(values, dtype=np.float64)
    if values[0] < 0 or tol < 0:
        raise ValueError("values[0] and tol must be nonnegative")
    bounds = values[0] * np.exp(a * times) * (1.0 + tol)
    slack = (bounds - values) / np.maximum(bounds, 1e-300)
    worst = int(np.argmin(slack))
    return CheckVerdict(
        "mass_growth",
        slack[worst] >= 0.0,
        True,
        slack[worst],
        f"worst at t={times[worst]:.6g}: value {values[worst]:.6g} vs bound {bounds[worst]:.6g}",
    )


def front_radius(u: Field, level: float) -> float:
    """Largest |x| where u >= level; 0.0 when the level set is empty."""
    if not level > 0:
        raise ValueError(f"level must be positive, got {level}")
    hit = u.values >= level
    if not hit.any():
        return 0.0
    return float(u.grid.radius[hit].max())


def front_trace(snapshots: Sequence[tuple], level: float, guard: float = 0.1) -> tuple:
    """Track the level set through (t, Field) snapshots: (times, radii,
    valid), the arrays estimate_speed takes.

    A sample is valid while the radius stays at or below
    (1 - guard) * half_width.
    """
    if not 0.0 <= guard < 1.0:
        raise ValueError(f"guard must lie in [0, 1), got {guard}")
    if len(snapshots) == 0:
        raise ValueError("no snapshots")
    times = np.array([float(t) for t, _ in snapshots])
    radii = np.array([front_radius(f, level) for _, f in snapshots])
    return times, radii, radii <= (1.0 - guard) * snapshots[0][1].grid.half_width


def estimate_speed(times, radii, valid, window: Optional[tuple] = None) -> SpeedEstimate:
    """Least-squares slope of radius vs time over valid samples.

    window defaults to the last half of the valid samples.  Fewer than 8
    usable samples is an error: a two-point fit would report a speed
    with no meaningful uncertainty.
    """
    times, radii = np.asarray(times, dtype=np.float64), np.asarray(radii, dtype=np.float64)
    ok = np.array(valid, dtype=bool)
    if window is None:
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            raise ValueError("no valid samples in trace")
        window = (float(times[idx[idx.size // 2]]), float(times[idx[-1]]))
    ok &= (times >= window[0]) & (times <= window[1])
    n = int(ok.sum())
    if n < 8:
        raise ValueError(f"need at least 8 valid samples in window, have {n}")
    t = times[ok]
    r = radii[ok]
    if t.max() == t.min():
        raise ValueError("cannot fit a speed to samples that share one time")
    # scipy.stats.linregress's own arithmetic; importing it costs 0.6 s
    ssxm, ssxym, _, ssym = np.cov(t, r, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        rho = np.nan if ssxym == 0 else 0.0
    else:
        rho = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    stderr = float(np.sqrt((1 - rho**2) * ssym / ssxm / (n - 2)))
    return SpeedEstimate(
        speed=float(ssxym / ssxm),
        stderr=0.0 if math.isnan(stderr) else stderr,
        window=window,
        n_samples=n,
    )


def cstar_functional(
    u: Field, v: Field, p: Params, inner_radius: float
) -> CstarScan:
    """Scan the spreading-speed functionals over |x| >= inner_radius."""
    region = u.grid.radius >= inner_radius
    n = int(region.sum())
    if n == 0:
        raise ValueError(f"no grid points with |x| >= {inner_radius}")
    gv = grad_potential(u)
    grad_mag2 = sum(c.values**2 for c in gv)[region]
    head = (p.a - p.chi * v.values[region])
    positivity = 4.0 * head - p.chi**2 * grad_mag2
    defined = head >= 0.0
    frac_undef = 1.0 - float(defined.sum()) / n
    if defined.any():
        speed_min = float(
            np.min(2.0 * np.sqrt(head[defined]) - p.chi * np.sqrt(grad_mag2[defined]))
        )
    else:
        speed_min = -math.inf
    return CstarScan(
        speed_min=speed_min,
        positivity_min=float(positivity.min()),
        undefined_fraction=frac_undef,
        n_points=n,
    )


def equilibrium_distance(u: Field, v: Field, p: Params) -> tuple:
    """Sup distance of (u, v) from the uniform state a/b over the box."""
    target = p.a / p.b
    return float(np.max(np.abs(u.values - target))), float(np.max(np.abs(v.values - target)))


def sandwich_check(u: Field, v: Field) -> CheckVerdict:
    """min u <= v <= max u pointwise, with rounding budget
    1e-12 * (1 + ||u||_inf)."""
    umin, umax = float(u.values.min()), float(u.values.max())
    tol = 1e-12 * (1.0 + max(abs(umin), abs(umax)))
    low = float(v.values.min()) - (umin - tol)
    high = (umax + tol) - float(v.values.max())
    margin = min(low, high)
    side = "below min u" if low < high else "above max u"
    return CheckVerdict(
        "sandwich", margin >= 0.0, True, margin, f"tightest side: {side}; u in [{umin:.6g}, {umax:.6g}]"
    )


def boundary_guard(u: Field, far_value: float, guard: float = 0.1) -> CheckVerdict:
    """Is the outer guard band still flat at far_value?

    The band is the set within guard * half_width of a box face; the
    budget is 1e-6 * (1 + |far_value|).
    """
    # past 1/2 the shells from opposite faces overlap and the "far
    # field" stops meaning anything
    if not 0.0 < guard < 0.5:
        raise ValueError(f"guard must lie in (0, 1/2), got {guard}")
    g = u.grid
    shell = _box_mesh(g) >= (1.0 - guard) * g.half_width
    if not shell.any():
        raise ValueError("guard band contains no grid points")
    dev = float(np.max(np.abs(u.values[shell] - far_value)))
    budget = 1e-6 * (1.0 + abs(far_value))
    return CheckVerdict(
        "boundary_guard", dev <= budget, True, budget - dev,
        f"max deviation {dev:.3e} against budget {budget:.3e}",
    )
