"""Run checks, one self-contained unit each.

A unit is a class with a parameter schema (parameter -> default, or
REQUIRED), an optional ``observe(t, u, v, run)`` that the harness calls
once per sample, and a ``verdict(run)``.  The harness makes one
instance per configured check and run, so a check's state lives exactly
as long as the run it watches.  ``run`` is the run's ``harness.Report``,
filled as the run goes: the base series, the events, the abort and,
after the last sample, the speed fit.

A verdict is a ``diagnostics.CheckVerdict``, the type the rules there
return too.  It carries two flags: passed is the measurement outcome,
asserted says whether the regime hypothesis behind the check holds, so
a failed unasserted check is information, not an error.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .diagnostics import (
    CheckVerdict,
    boundary_guard,
    check_lr_growth,
    cstar_functional,
    lp_norm,
    sandwich_check,
)
from .reference import upper_envelope
from .stepper import State

if TYPE_CHECKING:
    from .harness import Report

__all__ = ["CHECKS", "REQUIRED", "Check"]

#: schema marker for a parameter without a default
REQUIRED = object()

# limits shared by several parameters; nan fails every comparison
_FINITE = (math.isfinite, "finite")
_TOL = (lambda x: 0.0 <= x < math.inf, "finite and >= 0")


class Check:
    """Base unit: subclasses set name and schema and define verdict;
    limits maps a parameter to (test, what the value must be), and
    rule, where set, is (test, what the parameters must have) on the
    whole parameter dict.  The loader applies limits, then rule."""

    name = ""
    schema: dict = {}
    limits: dict = {}
    rule: Optional[tuple] = None

    def __init__(self, cfg: dict):
        self.cfg = cfg

    def observe(self, t: float, u, v, run: Report) -> None:
        """Called once per sample, after the base series are recorded."""

    def verdict(self, run: Report) -> CheckVerdict:
        raise NotImplementedError


class _WorstSample(Check):
    """A per-sample test whose verdict is its smallest-margin sample."""

    worst: Optional[CheckVerdict] = None

    def keep(self, t: float, res: CheckVerdict) -> None:
        if self.worst is None or res.margin < self.worst.margin:
            self.worst = replace(res, detail=f"worst t={t:.6g}: {res.detail}")

    def verdict(self, run: Report) -> CheckVerdict:
        return self.worst


class Sandwich(_WorstSample):
    name = "sandwich"

    def observe(self, t, u, v, run):
        self.keep(t, sandwich_check(u, v))


class BoundaryGuard(_WorstSample):
    """Also records the first sample that breaches the band as a
    guard_breach event."""

    name = "boundary_guard"
    schema = {"far_value": 0.0}
    limits = {"far_value": _FINITE}
    breached = False

    def observe(self, t, u, v, run):
        res = boundary_guard(u, self.cfg["far_value"], run.scenario.diagnostics.guard)
        self.keep(t, res)
        if not res.passed and not self.breached:
            self.breached = True
            run.events.append({"t": t, "kind": "guard_breach", "message": res.detail})


class MassGrowth(Check):
    """||u||_r against ||u0||_r e^(a t); an r with no base series column
    gets its own column l<r>."""

    name = "mass_growth"
    schema = {"r": 1.0, "tol": 1e-6}
    limits = {"r": (lambda r: r >= 1.0, "at least 1"), "tol": _TOL}
    _BASE = {1.0: "mass", 2.0: "l2", math.inf: "linf"}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.label = self._BASE.get(cfg["r"], f"l{cfg['r']:g}")

    def observe(self, t, u, v, run):
        # by label: an r within rounding of 2 prints as l2 and reads that column
        if self.label not in self._BASE.values():
            run.series.setdefault(self.label, []).append(lp_norm(u, self.cfg["r"]))

    def verdict(self, run):
        r, max_r = self.cfg["r"], run.regime.max_safe_r
        res = check_lr_growth(run.times, run.series[self.label], run.params.a, self.cfg["tol"])
        note = "" if r <= max_r else f" [not asserted: r={r:g} exceeds the safe exponent {max_r:g}]"
        return replace(res, asserted=r <= max_r, detail=res.detail + note)


class Envelope(Check):
    name = "envelope"
    schema = {"tol": 1e-6}
    limits = {"tol": _TOL}

    def verdict(self, run):
        p, tol = run.params, self.cfg["tol"]
        if p.chi > p.b:
            return CheckVerdict(
                self.name, True, False, math.nan,
                "not evaluated: the comparison envelope needs chi <= b",
            )
        t_arr, linf = np.asarray(run.times), run.series["linf"]
        env = np.array([upper_envelope(t, linf[0], p) for t in t_arr])
        slack = env + tol - np.asarray(linf)
        worst = int(np.argmin(slack))
        return CheckVerdict(
            self.name,
            slack[worst] >= 0.0,
            True,
            slack[worst],
            (
                f"worst at t={t_arr[worst]:.6g}: sup u = "
                f"{linf[worst]:.9g} vs envelope {env[worst]:.9g} (+ {tol:g})"
            ),
        )


class SpeedRange(Check):
    name = "speed_range"
    schema = {"min": REQUIRED, "max": REQUIRED}
    limits = {"min": _FINITE, "max": _FINITE}
    rule = (lambda c: c["min"] <= c["max"], "min <= max")

    def verdict(self, run):
        lo, hi = self.cfg["min"], self.cfg["max"]
        spreading = run.regime.spreading
        if run.speed is None:
            return CheckVerdict(
                self.name, False, spreading, math.nan, f"no speed estimate: {run.speed_error}"
            )
        s = run.speed["speed"]
        margin = min(s - lo, hi - s)
        return CheckVerdict(
            self.name,
            margin >= 0.0,
            spreading,
            margin,
            f"fit speed {s:.6g} (stderr {run.speed['stderr']:.2g}) vs [{lo:g}, {hi:g}]",
        )


class Equilibrium(Check):
    """Asserted only for strictly positive data in the stability regime;
    the trend runs from t_end / 4 to the last sample."""

    name = "equilibrium"
    tol = 1e-3

    def verdict(self, run):
        tol, t_from = self.tol, run.scenario.control.t_end / 4.0
        asserted = bool(run.regime.stability) and run.series["min_u"][0] > 0.0
        if run.abort is not None:
            return CheckVerdict(self.name, False, asserted, math.nan, "run aborted early")
        t_arr = np.asarray(run.times)
        dist = np.asarray(run.series["dist_u_ab"]) + np.asarray(run.series["dist_v_ab"])
        final = float(dist[-1])
        j = min(int(np.searchsorted(t_arr, t_from)), len(dist) - 1)
        ref = float(dist[j])
        # a run already a decade under tolerance has converged; the
        # trend comparison below that level is rounding noise
        trend_ok = final <= ref or final <= 0.1 * tol
        margin = tol - final
        return CheckVerdict(
            self.name,
            margin >= 0.0 and trend_ok,
            asserted,
            margin,
            (
                f"dist(u)+dist(v) = {final:.6g} at t={t_arr[-1]:g} "
                f"(tol {tol:g}); trend {ref:.6g} -> {final:.6g} "
                f"from t={t_arr[j]:g}"
            ),
        )


class CstarPositive(Check):
    """The speed floor 2 sqrt(a - chi v) - chi |grad v| over |x| >=
    inner_factor front radii, scanned once, at the last sample where
    a > 0 and the front is nonempty, inside the guard radius, and leaves
    grid points that far out.

    A consistency check that cannot fail: there v is about 0, so the
    floor reads 2 sqrt(a).  Even its minimum over the whole box, the
    wake value 2 sqrt(a - chi a/b), is positive whenever chi < b.  A
    falsifiable check needs the log-corrected front speed against the
    floor."""

    name = "cstar_positive"
    inner_factor = 1.5
    kept: Optional[tuple] = None

    def observe(self, t, u, v, run):
        # at a = 0 the floor is defined only where rounding leaves v <= 0,
        # so there is nothing to scan
        if run.params.a <= 0.0 or not run.series["front_valid"][-1]:
            return
        inner = self.inner_factor * run.series["front_radius"][-1]
        if inner > 0.0 and (u.grid.radius >= inner).any():
            self.kept = (t, u, v, inner)

    def verdict(self, run):
        spreading = run.regime.spreading
        if self.kept is None:
            why = "a = 0" if run.params.a == 0.0 else "front empty or beyond guard"
            return CheckVerdict(
                self.name, False, spreading, math.nan, f"no usable far-field scan ({why})",
            )
        t_scan, u, v, inner = self.kept
        scan = cstar_functional(u, v, run.params, inner, State(0.0, u).grad_v)
        return CheckVerdict(
            self.name,
            scan.all_defined and scan.speed_min > 0.0 and scan.positivity_min > 0.0,
            spreading,
            min(scan.speed_min, scan.positivity_min),
            (
                f"t={t_scan:.6g}: floor min {scan.speed_min:.6g}, "
                f"positivity min {scan.positivity_min:.6g}, undefined "
                f"fraction {scan.undefined_fraction:.3g} over "
                f"{scan.n_points} points"
            ),
        )


class SpreadingLimits(Check):
    """Interior flatness and exterior smallness in the wake and ahead of
    the measured front: sup |u - a/b| <= inner_tol on |x| <= inner_factor
    c t, and sup |u| <= outer_tol on |x| >= outer_factor c t.

    Evaluated at the last sample where the exterior region still fits
    inside the guard radius, so both regions are genuinely resolved by
    the box.  The speed c is known only from the fit after the run, so
    every sampled u is kept.
    """

    name = "spreading_limits"
    inner_tol, outer_tol = 1e-2, 1e-4
    inner_factor, outer_factor = 0.5, 1.5

    def __init__(self, cfg):
        super().__init__(cfg)
        self.states: list = []

    def observe(self, t, u, v, run):
        self.states.append(u)

    def verdict(self, run):
        asserted = run.regime.spreading

        def fail(detail):
            return CheckVerdict(self.name, False, asserted, math.nan, detail)

        if run.speed is None:
            return fail("no speed estimate to anchor the regions")
        cval = run.speed["speed"]
        if not (math.isfinite(cval) and cval > 0):
            return fail(f"measured speed {cval!r} is not a positive number")
        limit = (1.0 - run.scenario.diagnostics.guard) * run.scenario.grid.half_width
        valid = run.series["front_valid"]
        j_star = next(
            (
                j for j in range(len(self.states) - 1, -1, -1)
                if run.times[j] > 0 and valid[j]
                and self.outer_factor * cval * run.times[j] <= limit
            ),
            -1,
        )
        if j_star < 0:
            return fail(
                f"no sample keeps |x| >= {self.outer_factor:g} c t inside the "
                f"guard radius {limit:.6g}"
            )
        t_star = float(run.times[j_star])
        u = self.states[j_star]
        r_mesh = u.grid.radius
        inner = r_mesh <= self.inner_factor * cval * t_star
        outer = r_mesh >= self.outer_factor * cval * t_star
        if not inner.any():
            return fail(f"inner region empty at t={t_star:g}")
        if not outer.any():
            return fail(f"outer region empty at t={t_star:g}")
        target = run.params.a / run.params.b
        inner_sup = float(np.max(np.abs(u.values[inner] - target)))
        outer_sup = float(np.max(np.abs(u.values[outer])))
        margin = min(self.inner_tol - inner_sup, self.outer_tol - outer_sup)
        return CheckVerdict(
            self.name,
            margin >= 0.0,
            asserted,
            margin,
            (
                f"t={t_star:g}, c={cval:.4g}: sup |u - a/b| = {inner_sup:.6g} on "
                f"|x| <= {self.inner_factor:g} c t (tol {self.inner_tol:g}); "
                f"sup |u| = {outer_sup:.6g} on |x| >= {self.outer_factor:g} c t "
                f"(tol {self.outer_tol:g})"
            ),
        )


#: every check by name, in report order
CHECKS: dict = {
    unit.name: unit
    for unit in (
        Sandwich,
        MassGrowth,
        Envelope,
        BoundaryGuard,
        SpeedRange,
        Equilibrium,
        CstarPositive,
        SpreadingLimits,
    )
}
