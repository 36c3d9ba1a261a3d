"""Time integration of u_t = lap(u) - chi div(u grad v) + u (a - b u),
with v = (I - lap)^(-1) u eliminated at every evaluation.

The update is a two-stage exponential integrator built on the exact
propagator of the linear part -(1 + |k|^2):

    predictor:  u1^ = E u^ + dt phi1 F^(u)
    corrector:  u+^ = E u^ + dt phi1 (F^(u) + F^(u1)) / 2

with E = exp(-dt (1 + |k|^2)), phi1(z) = (e^z - 1)/z, and
F(u) = -chi div(u grad v) + (a + 1) u - b u^2.  The +u hidden in F
compensates the -u folded into the propagator, so constants follow the
logistic flow and the scheme is exact on the linear problem.  Quadratic
products are formed in physical space from 2/3-rule truncated factors
and truncated again afterwards.

Every state carries the half-spectrum of its u from t = 0 on:
``initial_state`` makes the forward transform of u0.  A step's last
inverse transform also makes the factors of the next step's first F(u),
which the state carries.  A later step makes 4 transform calls, the
first step from ``initial_state`` 5.

Runs abort (they never clamp) when a step goes non-finite, dips below
the negativity budget, or crosses the blow-up threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid, NonFiniteFieldError
from .params import Params

__all__ = [
    "Params",
    "State",
    "StepControl",
    "StepperError",
    "NegativityError",
    "BlowupError",
    "initial_state",
    "step",
    "stability_warnings",
]


class StepperError(RuntimeError):
    """Base class for aborted runs; carries the abort time."""

    def __init__(self, message: str, t: float, value: float):
        super().__init__(message)
        self.t = t
        self.value = value


class NegativityError(StepperError):
    """A step dipped below the negativity budget."""


class BlowupError(StepperError):
    """A step crossed the blow-up threshold."""


@dataclass(frozen=True)
class StepControl:
    """Fixed-step controls.  None budgets are resolved from u0 at run start:

    negativity_budget -> 1e-10 * (1 + ||u0||_inf)
    blowup_threshold  -> 1e4 * max(1, ||u0||_inf, a/b)
    """

    dt: float
    t_end: float
    negativity_budget: float | None = None
    blowup_threshold: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        for name in ("negativity_budget", "blowup_threshold"):
            val = getattr(self, name)
            if val is not None and not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive when given, got {val}")

    def resolved(self, u0: Field, p: Params) -> "StepControl":
        """Fill in the data-dependent default budgets."""
        amp = float(np.max(np.abs(u0.values)))
        neg = self.negativity_budget
        blow = self.blowup_threshold
        if neg is None:
            neg = 1e-10 * (1.0 + amp)
        if blow is None:
            blow = 1e4 * max(1.0, amp, p.a / p.b)
        return StepControl(self.dt, self.t_end, neg, blow)


class State:
    """Solution snapshot: u, its half-spectrum uh (made from u when not
    given), and v, the resolvent of u, formed from uh on first read.
    ``step`` also leaves _factors, a pair (synth, values) of the next
    F(u)'s factors, used only by a plan with that very synth.  Its
    arrays are read-only, so they stay in step with u, and u owns its
    memory, so a kept u pins no factors."""

    def __init__(self, t: float, u: Field, step_count: int = 0, uh=None):
        if uh is None:
            uh = u.grid.rfft(u.values)
            uh.flags.writeable = False
        self.t, self.u, self.step_count, self._uh = t, u, step_count, uh
        self._v = self._factors = None

    @property
    def v(self) -> Field:
        if self._v is None:
            g = self.u.grid
            vals = g.irfft(self._uh * g.half.resolvent)
            vals.flags.writeable = False
            self._v = Field(g, vals)
        return self._v


def initial_state(u0: Field) -> State:
    """The state at t = 0, on a read-only copy of u0's values."""
    vals = u0.values.copy()
    vals.flags.writeable = False
    return State(t=0.0, u=Field(u0.grid, vals))


@lru_cache(maxsize=8)
def _plan(grid: Grid, dt: float, b: float, chi: float):
    """What a step multiplies by, on the half-spectrum, as the tuple
    (E, dt phi1, dt phi1 / 2, synth, weights).

    E = exp(-dt (1 + |k|^2)).  synth makes the factors of the products
    before their inverse transform (u, then grad v if chi != 0);
    weights takes the products after their forward transform (b on
    u^2, then chi i k_i on each flux).  Both are 2/3-masked.
    """
    hs = grid.half
    z = -dt * (1.0 + hs.k2)
    E = np.exp(z)
    phi1 = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    # series branch dodges the 0/0 cancellation in (e^z - 1)/z
    phi1[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    zb = z[~small]
    phi1[~small] = np.expm1(zb) / zb
    synth = [hs.mask]
    weights = [b * hs.mask]
    if chi != 0.0:
        synth += list(hs.masked_grad_resolvent)
        weights += list(chi * hs.mask * hs.ik)
    plan = (E, dt * phi1, 0.5 * dt * phi1, np.stack(synth), np.stack(weights))
    # every multiplier meets complex coefficients; made complex once
    # here, they are not cast again on every product, and the products
    # keep their bits
    plan = tuple(arr.astype(np.complex128) for arr in plan)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _rhs(g: Grid, uh: np.ndarray, phys: np.ndarray, weights: np.ndarray, a1: float,
         out: np.ndarray, prod: np.ndarray, prodh: np.ndarray) -> np.ndarray:
    """Half-spectrum of F(u) = -chi div(u grad v) + (a+1) u - b u^2,
    with a1 = a + 1, from uh and phys, the factors in physical space,
    written to out.  prod (physical) and prodh (spectral) hold the
    products and are overwritten.

    The products u^2 and u dv/dx_i come back in one batched forward
    transform.  In-place operations keep the operand order of
    a1 uh - np.sum(weights prods, axis=0), so the bits do not change;
    the rows are added in order, as that sum does, without its
    reduction overhead.
    """
    np.multiply(phys, phys[0], out=prod)
    g.rfft(prod, out=prodh)
    np.multiply(weights, prodh, out=prodh)
    acc = prodh[0]
    for row in prodh[1:]:
        acc += row
    np.multiply(a1, uh, out=out)
    out -= acc
    return out


def step(state: State, p: Params, control: StepControl, steps: int = 1) -> State:
    """Advance by steps times dt.  Budgets must already be resolved (not None).

    The update runs on the half-spectrum, in work arrays that this call
    allocates and owns.  One batched inverse transform ends each step:
    its first row is the new u, whose single min and max decide the
    aborts in order (non-finite, negativity, blow-up); the other rows
    are the factors of the next step's first evaluation of F.  An abort
    raises at the step where it happens, with the same time and message
    as that many calls with steps=1.  The returned State holds read-only
    copies of u and its spectrum and the last step's factors, which
    nothing else refers to.
    """
    g = state.u.grid
    if p.dim != g.dim:
        raise ValueError(f"params.dim={p.dim} does not match grid dim {g.dim}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if control.negativity_budget is None or control.blowup_threshold is None:
        raise ValueError("step needs resolved budgets: pass control.resolved(u0, params)")
    E, P, half_P, synth, weights = _plan(g, control.dt, p.b, p.chi)
    a1 = p.a + 1.0
    neg, blow = control.negativity_budget, control.blowup_threshold

    # the new u and the next factors, as rows in both layouts; row 0 of
    # rows is the uh a step starts from and, at its end, the new one
    rows = np.empty((len(synth) + 1,) + E.shape, dtype=E.dtype)
    fields = np.empty((len(synth) + 1,) + g.shape)
    prod, prodh = np.empty_like(fields[1:]), np.empty_like(rows[1:])
    fn, Eu, pred, fp = (np.empty_like(E) for _ in range(4))
    # the input state's arrays are read, never written
    uh, (made_by, phys) = state._uh, state._factors or (None, None)
    if made_by is not synth:
        phys = g.irfft(np.multiply(synth, uh, out=rows[1:]), out=fields[1:])

    t = state.t
    for count in range(state.step_count + 1, state.step_count + steps + 1):
        _rhs(g, uh, phys, weights, a1, fn, prod, prodh)
        np.multiply(E, uh, out=Eu)
        np.multiply(P, fn, out=pred)
        pred += Eu
        g.irfft(np.multiply(synth, pred, out=rows[1:]), out=fields[1:])
        _rhs(g, pred, fields[1:], weights, a1, fp, prod, prodh)
        fn += fp
        np.multiply(half_P, fn, out=fn)
        # row 0 is the new spectrum itself, not 1 times it, which would
        # turn an infinite coefficient's zero imaginary part into NaN
        uh = np.add(fn, Eu, out=rows[0])
        np.multiply(synth, uh, out=rows[1:])
        g.irfft(rows, out=fields)

        t += control.dt
        # min and max propagate NaN and reach any infinity
        lo = float(fields[0].min())
        hi = float(fields[0].max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteFieldError(f"solution became non-finite at t={t:.6g} (step {count})")
        if lo < -neg:
            raise NegativityError(
                f"minimum {lo:.3e} fell below the negativity budget "
                f"{neg:.3e} at t={t:.6g}; refine the grid "
                f"or widen the budget if the undershoot is resolution noise",
                t=t,
                value=lo,
            )
        amp = max(hi, -lo)
        if amp > blow:
            raise BlowupError(
                f"amplitude {amp:.3e} crossed the blow-up threshold {blow:.3e} at t={t:.6g}",
                t=t,
                value=amp,
            )
        phys = fields[1:]

    u_new, uh = fields[0].copy(), uh.copy()
    u_new.flags.writeable = uh.flags.writeable = fields.flags.writeable = False
    new = State(t=t, u=Field(g, u_new), step_count=count, uh=uh)
    new._factors = (synth, fields[1:])
    return new


def stability_warnings(state: State, p: Params, control: StepControl) -> list[tuple[str, str]]:
    """Advisory step-size checks as (kind, message) pairs, kind "drift"
    or "reaction"; violations degrade accuracy, not safety."""
    g = state.u.grid
    amp = float(np.max(np.abs(state.u.values)))
    out = []
    drift = p.chi * math.sqrt(g.dim) * amp
    if drift > 0:
        dt_adv = 0.25 * g.h / drift
        if control.dt > dt_adv:
            out.append((
                "drift",
                f"dt={control.dt:.3g} exceeds the drift limit {dt_adv:.3g} "
                f"(0.25 h / (chi sqrt(dim) ||u||_inf))",
            ))
    react = p.a + 2.0 * p.b * amp
    if react > 0:
        dt_react = 0.5 / react
        if control.dt > dt_react:
            out.append((
                "reaction",
                f"dt={control.dt:.3g} exceeds the reaction limit {dt_react:.3g} "
                f"(0.5 / (a + 2 b ||u||_inf))",
            ))
    return out
