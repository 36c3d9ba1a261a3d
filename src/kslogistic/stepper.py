"""Time integration of u_t = lap(u) - chi div(u grad v) + u (a - b u),
with v = (I - lap)^(-1) u eliminated at every evaluation.

The update is the third-order exponential Adams-Bashforth scheme
(ETD-AB3; Cox & Matthews 2002, Hochbruck & Ostermann 2011) built on the
exact propagator of the linear part -(1 + |k|^2):

    u+^ = E u^ + dt [(phi1 + 3/2 phi2 + phi3) F_n
                     - 2 (phi2 + phi3) F_{n-1}
                     + (phi2 / 2 + phi3) F_{n-2}]

with z = -dt (1 + |k|^2), E = e^z, phi_k(z) = sum_j z^j / (j + k)!,
F_n the half-spectrum of F(u_n), and F(u) = -chi div(u grad v) +
(a + 1) u - b u^2.  The +u hidden in F compensates the -u folded into
the propagator, so constants follow the logistic flow and the scheme is
exact on the linear problem.  Quadratic products are formed in physical
space from 2/3-rule truncated factors and truncated again afterwards.

A step evaluates F once and reuses F_{n-1} and F_{n-2}, which the
state carries.  A state without them (``initial_state``, a hand-built
state, or one whose history was made under another grid, dt, b, chi or
a)
takes its next steps with the two-stage exponential Heun update until
it has two:

    predictor:  u1^ = E u^ + dt phi1 F_n
    corrector:  u+^ = E u^ + dt phi1 (F_n + F^(u1)) / 2

whose first stage forms F_n as well, so the start costs no extra
evaluation.  Its local error is O(dt^3), so the run stays third order.

Every state carries the half-spectrum of its u from t = 0 on:
``initial_state`` makes the forward transform of u0.  A step's last
inverse transform also makes the factors of the next step's F(u), which
the state carries.  An Adams-Bashforth step makes one batched forward
and one batched inverse transform, a two-stage step 4 transform calls,
and the first step from ``initial_state`` one call more.

Runs abort (they never clamp) when a step goes non-finite, dips below
the negativity budget, or crosses the blow-up threshold.

An Adams-Bashforth step measures its local time error for free: the
update minus the ETD-AB2 update from the same history,

    AB3 - AB2 = dt (phi2 / 2 + phi3) (F_n - 2 F_{n-1} + F_{n-2}),

is the plan's weight of F_{n-2} times a second difference of the
history, so it costs no evaluation and no transform.  Twice the l1 norm
of its half-spectrum bounds its sup norm; that bound is the estimate.
``step`` makes it at the last Adams-Bashforth step of each call, and at
every one under control.time_tol.  ``SampleStepper``, a run's clock,
yields its samples and, under time_tol, picks each sample interval's dt
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

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
    "SampleStepper",
    "MAX_RUNG",
    "initial_state",
    "step",
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
    """Step controls.  None budgets are resolved from u0 at run start:

    negativity_budget -> 1e-10 * (1 + ||u0||_inf)
    blowup_threshold  -> 1e4 * max(1, ||u0||_inf, a/b)

    time_tol None steps at the fixed dt, and ``step`` estimates the time
    error of a call's last Adams-Bashforth step only.  A time_tol makes
    dt the largest step a run starts with, and ``SampleStepper`` bounds
    the time error estimate of every Adams-Bashforth step by time_tol.
    """

    dt: float
    t_end: float
    negativity_budget: float | None = None
    blowup_threshold: float | None = None
    time_tol: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        for name in ("negativity_budget", "blowup_threshold", "time_tol"):
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
        return replace(self, negativity_budget=neg, blowup_threshold=blow)


class State:
    """Solution snapshot: u, its half-spectrum uh (made from u when not
    given), and v and grad v, formed from uh on first read.

    ``step`` also leaves _factors, a pair (synth, values) of the next
    F(u)'s factors, used only by a plan with that very synth, and
    _history, a pair (key, past) with past the half-spectra of F at the
    one or two previous states, newest first, used only by a step whose
    (grid, dt, b, chi, a) equals key.  These arrays are read-only, so
    they stay in step with u, and u owns its memory, so a kept u pins no
    factors.

    time_error is the local time error estimate of the last
    Adams-Bashforth step of the ``step`` call that made the state, or,
    under a control with time_tol, the largest over its Adams-Bashforth
    steps; None if the call made none."""

    def __init__(self, t: float, u: Field, step_count: int = 0, uh=None):
        if uh is None:
            uh = u.grid.rfft(u.values)
            uh.flags.writeable = False
        self.t, self.u, self.step_count, self._uh = t, u, step_count, uh
        self._v = self._grad_v = self._factors = self._history = None
        self.time_error = None

    @property
    def v(self) -> Field:
        if self._v is None:
            g = self.u.grid
            vals = g.irfft(self._uh * g.half.resolvent)
            vals.flags.writeable = False
            self._v = Field(g, vals)
        return self._v

    @property
    def grad_v(self) -> tuple[Field, ...]:
        """Components of grad v, Nyquist modes dropped, in one batched
        inverse transform of the carried spectrum."""
        if self._grad_v is None:
            g = self.u.grid
            vals = g.irfft(self._uh * g.half.grad_resolvent)
            vals.flags.writeable = False
            self._grad_v = tuple(Field(g, c) for c in vals)
        return self._grad_v


def initial_state(u0: Field) -> State:
    """The state at t = 0, on a read-only copy of u0's values."""
    vals = u0.values.copy()
    vals.flags.writeable = False
    return State(t=0.0, u=Field(u0.grid, vals))


def _phis(z: np.ndarray) -> np.ndarray:
    """phi_1, phi_2, phi_3 of z <= 0, stacked on a leading axis.

    For |z| < 1 the Taylor series sum_j z^j / (j + k)! runs to z^20,
    whose term is below float64 rounding there; it dodges the
    cancellation of the closed forms near 0.  Beyond that, phi_1 =
    expm1(z) / z and phi_(k+1) = (phi_k - 1/k!) / z, which lose only a
    few units in the last place at |z| >= 1.
    """
    phi = np.empty((3,) + z.shape)
    small = np.abs(z) < 1.0
    zs, zb = z[small], z[~small]
    for k in (1, 2, 3):
        acc = np.zeros_like(zs)
        for j in range(20, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(j + k)
        phi[k - 1][small] = acc
    closed = np.expm1(zb) / zb
    phi[0][~small] = closed
    for k in (1, 2):
        closed = (closed - 1.0 / math.factorial(k)) / zb
        phi[k][~small] = closed
    return phi


class _Plan(NamedTuple):
    """What a step multiplies by, on the half-spectrum.

    E : exp(z), z = -dt (1 + |k|^2)
    P, half_P : dt phi1(z) and half of it, for the two-stage update
    ab3 : dt times the weights of F_n, F_(n-1), F_(n-2), stacked
    synth : makes the factors of the products before their inverse
        transform (u, then grad v if chi != 0)
    weights : takes the products after their forward transform (b on
        u^2, then chi i k_i on each flux)

    synth and weights are 2/3-masked.
    """

    E: np.ndarray
    P: np.ndarray
    half_P: np.ndarray
    ab3: np.ndarray
    synth: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=8)
def _plan(grid: Grid, dt: float, b: float, chi: float) -> _Plan:
    """The multipliers of a step, built on its first use (not at import)
    and shared by every step with the same grid, dt, b and chi."""
    hs = grid.half
    z = -dt * (1.0 + hs.k2)
    phi1, phi2, phi3 = _phis(z)
    ab3 = np.stack([phi1 + 1.5 * phi2 + phi3, -2.0 * (phi2 + phi3), 0.5 * phi2 + phi3])
    synth = [hs.mask]
    weights = [b * hs.mask]
    if chi != 0.0:
        synth += list(hs.masked_grad_resolvent)
        weights += list(chi * hs.mask * hs.ik)
    plan = (np.exp(z), dt * phi1, 0.5 * dt * phi1, dt * ab3, np.stack(synth), np.stack(weights))
    # every multiplier meets complex coefficients; made complex once
    # here, they are not cast again on every product, and the products
    # keep their bits
    plan = _Plan(*(arr.astype(np.complex128) for arr in plan))
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
    are the factors of the next step's evaluation of F.  An abort
    raises at the step where it happens, with the same time and message
    as that many calls with steps=1, and steps=k gives the same bits as
    k calls.  The returned State holds read-only copies of u and its
    spectrum, the last step's factors, which nothing else refers to,
    and the F history, which may share a read-only array with the input
    state's.  The returned state's time_error is the estimate at the
    call's last Adams-Bashforth step or, under a control with time_tol,
    the largest over all of them (None if the call made none).
    """
    g = state.u.grid
    if p.dim != g.dim:
        raise ValueError(f"params.dim={p.dim} does not match grid dim {g.dim}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if control.negativity_budget is None or control.blowup_threshold is None:
        raise ValueError("step needs resolved budgets: pass control.resolved(u0, params)")
    plan = _plan(g, control.dt, p.b, p.chi)
    # compared by value: a plan rebuilt after leaving _plan's cache has
    # the same bits, so the history stays valid under it
    key = (g, control.dt, p.b, p.chi, p.a)
    E, synth, weights = plan.E, plan.synth, plan.weights
    a1 = p.a + 1.0
    neg, blow = control.negativity_budget, control.blowup_threshold
    gauged, time_error = control.time_tol is not None, None
    last = state.step_count + steps

    # the new u and the next factors, as rows in both layouts; row 0 of
    # rows is the uh a step starts from and, at its end, the new one
    rows = np.empty((len(synth) + 1,) + E.shape, dtype=E.dtype)
    fields = np.empty((len(synth) + 1,) + g.shape)
    prod, prodh = np.empty_like(fields[1:]), np.empty_like(rows[1:])
    Eu, pred, fp = (np.empty_like(E) for _ in range(3))
    # F at step `count` goes to ring[count % 3], never one of the two in past
    ring = [np.empty_like(E) for _ in range(3)]
    # the input state's arrays are read, never written
    uh, (made_by, phys) = state._uh, state._factors or (None, None)
    if made_by is not synth:
        phys = g.irfft(np.multiply(synth, uh, out=rows[1:]), out=fields[1:])
    made_under, past = state._history or (None, ())
    if made_under != key:
        past = ()

    t = state.t
    for count in range(state.step_count + 1, last + 1):
        fn = _rhs(g, uh, phys, weights, a1, ring[count % 3], prod, prodh)
        np.multiply(E, uh, out=Eu)
        if len(past) == 2:
            w_n, w_1, w_2 = plan.ab3
            if gauged or count == last:
                # AB3 - AB2 = w_2 (F_n - 2 F_(n-1) + F_(n-2)), in pred,
                # which this update does not use
                np.subtract(fn, past[0], out=pred)
                pred -= past[0]
                pred += past[1]
                pred *= w_2
                est = 2.0 * float(np.abs(pred).sum())
                time_error = est if time_error is None else max(time_error, est)
            Eu += np.multiply(w_n, fn, out=fp)
            Eu += np.multiply(w_1, past[0], out=fp)
            np.multiply(w_2, past[1], out=fp)
        else:
            np.multiply(plan.P, fn, out=pred)
            pred += Eu
            g.irfft(np.multiply(synth, pred, out=rows[1:]), out=fields[1:])
            _rhs(g, pred, fields[1:], weights, a1, fp, prod, prodh)
            fp += fn
            np.multiply(plan.half_P, fp, out=fp)
        # row 0 is the new spectrum itself, not 1 times it, which would
        # turn an infinite coefficient's zero imaginary part into NaN
        uh = np.add(fp, Eu, out=rows[0])
        past = (fn,) + past[:1]
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
    for f in past:
        f.flags.writeable = False
    new = State(t=t, u=Field(g, u_new), step_count=count, uh=uh)
    new._factors = (synth, fields[1:])
    new._history = (key, past)
    new.time_error = time_error
    return new


#: the finest step a time_tol run takes is its sample interval / 2^MAX_RUNG
MAX_RUNG = 12


def _multiple_of(big: float, small: float, big_name: str, small_name: str) -> int:
    ratio = big / small
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"{big_name} ({big}) must be a positive integer multiple of "
            f"{small_name} ({small})"
        )
    return k


class SampleStepper:
    """A run's clock, for the sample interval S: a ValueError unless S
    is a whole multiple of control.dt and control.t_end one of S.
    ``samples`` yields every sample; a call steps one interval.

    Without control.time_tol, a call is step(..., steps=S/dt), whose
    state carries the estimate of the interval's last step.  With it, a
    call steps S at dt = S/2^k on a ladder of rungs k:

    - the first interval takes the smallest k >= 2 with S/2^k <= dt,
      which the constructor requires to be at most MAX_RUNG;
    - an interval is accepted when its state's time_error is at most
      time_tol, and otherwise redone from its start state at k + 1;
    - k falls by one after an interval whose time_error is below
      time_tol/16, since the estimate, AB2's local error, scales like
      dt^3, but never below 2: every interval then ends on
      Adams-Bashforth steps whose history was made at its own dt;
    - an abort in an attempt propagates and is never retried, and an
      interval rejected at MAX_RUNG aborts the run with a StepperError.

    A change of dt restarts the F history through its key, with two
    two-stage steps.  Each rejected interval and each dt change is
    appended to the events list a call is given, with its t, dt and
    estimate.
    """

    def __init__(self, p: Params, control: StepControl, interval: float):
        self.p, self.control, self.interval = p, control, interval
        self.per = _multiple_of(interval, control.dt, "sample_interval", "dt")
        self.intervals = _multiple_of(control.t_end, interval, "t_end", "sample_interval")
        if control.time_tol is not None:
            self.rung = next((k for k in range(2, MAX_RUNG + 1) if interval / 2**k <= control.dt), None)
            if self.rung is None:
                raise ValueError(
                    f"under time_tol, sample_interval / dt ({interval / control.dt:.6g}) "
                    f"must be at most 2^{MAX_RUNG}"
                )

    def samples(self, state: State, events: list):
        """Yield (i, t, state) at each t = i S from the given state at t = 0,
        stepping as a call does."""
        for i in range(self.intervals + 1):
            if i:
                state = self(state, events)
            yield i, i * self.interval, state

    def __call__(self, state: State, events: list) -> State:
        control, tol = self.control, self.control.time_tol
        if tol is None:
            return step(state, self.p, control, steps=self.per)
        while True:
            dt = self.interval / 2**self.rung
            new = step(state, self.p, replace(control, dt=dt), steps=2**self.rung)
            est = new.time_error
            if est <= tol:
                break
            events.append(_dt_event(state.t, "interval_rejected", dt, est,
                                    f"time error estimate {est:.3e} above time_tol {tol:.3e} at dt={dt}"))
            if self.rung == MAX_RUNG:
                raise StepperError(
                    f"time error estimate {est:.3e} above time_tol {tol:.3e} at "
                    f"dt = sample_interval / 2^{MAX_RUNG}, the finest step, from t={state.t:.6g}",
                    t=state.t,
                    value=est,
                )
            self.rung += 1
            events.append(_dt_event(state.t, "dt_change", dt / 2, est, f"dt {dt} -> {dt / 2}"))
        if est < tol / 16 and self.rung > 2:
            self.rung -= 1
            events.append(_dt_event(new.t, "dt_change", 2 * dt, est, f"dt {dt} -> {2 * dt}"))
        return new


def _dt_event(t: float, kind: str, dt: float, estimate: float, message: str) -> dict:
    return {"t": t, "kind": kind, "dt": dt, "estimate": estimate, "message": message}
