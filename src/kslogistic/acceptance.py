"""The acceptance gate: eleven go/no-go criteria over the whole stack.

Each criterion is a function returning (passed, detail).  run_all and
run_one time them, fold stated runtime budgets into the verdicts, and
share one cache of bundled-scenario runs so a report is computed once
no matter how many criteria read it.  Each criterion declares in READS
the bundled runs it reads; run_all computes those with run_many, on a
process pool while the criteria that read none run, and run_one
computes a run in process when a criterion first asks for it.

The checks deliberately cross-validate along independent routes: the
elliptic solve against closed-form eigenfunctions and against
Gauss-Legendre quadrature of the exponential kernel, the semigroup
against operator-norm inequalities, the full nonlinear runs against
comparison bounds and measured front kinematics, and finally every
checker against corrupted inputs that it must reject.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .checks import CHECKS, RunRecord
from .diagnostics import cstar_functional, equilibrium_distance, estimate_speed
from .grid import Field, make_grid
from .harness import _pool_size, run, run_many
from .helmholtz import grad_potential, solve
from .icfactory import band_limited_noise
from .params import Params
from .reference import classify, upper_envelope
from .scenario import bundled_scenario_names, bundled_scenario_path, load_scenario, scenario_from_dict
from .semigroup import apply_T, apply_T_div
from .stepper import StepControl, initial_state, step

__all__ = ["CriterionResult", "CRITERIA", "run_one", "run_all", "bundled_report"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    detail: str

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.elapsed:.2f}s): {self.detail}"


# name -> Report, or run_all's run_many call that computes it
_REPORTS: dict = {}


def bundled_report(name: str):
    """Run a bundled scenario once per process and cache the report.

    A run that run_all handed to run_many is made or waited for here, and
    a run that raised there raises here."""
    rep = _REPORTS.get(name)
    if rep is None:
        rep = run(load_scenario(bundled_scenario_path(name)))
    elif callable(rep):
        rep = rep()
    _REPORTS[name] = rep
    return rep


def _verdict(report, check_name: str):
    return next((v for v in report.checks if v.name == check_name), None)


def _kernel_quadrature_error() -> float:
    """Largest gap between solve and v(x) = int_0^inf e^-s (u(x-s) +
    u(x+s)) / 2 ds, the exponential kernel of (I - d^2/dx^2)^-1, over 12
    points of a smooth periodic u.  The integral is cut at s = 45, where
    e^-s is under 1e-19, and taken with 64 Gauss-Legendre nodes."""
    g = make_grid(1, 256, 8.0)
    L = g.half_width

    def u_func(x):
        return 1.3 + np.sin(math.pi * x / L) + 0.45 * np.cos(3 * math.pi * x / L + 0.7)

    v = solve(Field(g, u_func(g.axes[0])))
    nodes, weights = leggauss(64)
    s = 22.5 * (nodes + 1.0)
    w = 22.5 * weights * 0.5 * np.exp(-s)
    worst = 0.0
    for idx in range(0, g.n, 23):
        x = g.axes[0][idx]
        val = float(np.dot(w, u_func(x - s) + u_func(x + s)))
        worst = max(worst, abs(val - v.values[idx]))
    return worst


def crit_elliptic_exactness():
    budget = 5.0
    # route one: cosine eigenfunctions have a closed-form resolvent
    worst_eig = 0.0
    for dim, n, L in ((1, 256, 8.0), (2, 64, 6.0)):
        g = make_grid(dim, n, L)
        for modes in ((0,), (1,), (3,), (7,)) if dim == 1 else ((0, 1), (2, 3), (5, 0)):
            k2 = sum((m * math.pi / L) ** 2 for m in modes)
            if dim == 1:
                u_vals = np.cos(modes[0] * math.pi * g.axes[0] / L)
            else:
                X, Y = np.meshgrid(g.axes[0], g.axes[1], indexing="ij")
                u_vals = np.cos(modes[0] * math.pi * X / L) * np.cos(
                    modes[1] * math.pi * Y / L
                )
            v = solve(Field(g, u_vals))
            err = np.max(np.abs(v.values - u_vals / (1.0 + k2)))
            worst_eig = max(worst_eig, float(err))
    # route two: Gauss-Legendre quadrature of the exponential kernel
    worst_quad = _kernel_quadrature_error()
    passed = worst_eig <= 1e-12 and worst_quad <= 1e-6
    detail = (
        f"eigenfunction err {worst_eig:.2e} (tol 1e-12), kernel quadrature "
        f"err {worst_quad:.2e} (tol 1e-6)"
    )
    return passed, detail, budget


def crit_operator_bounds():
    budget = 30.0
    rng = np.random.default_rng(2024)
    times = (0.01, 0.1, 1.0, 5.0)
    slack = 1.05
    rounding = 1.0 + 1e-12
    n_fields = 0
    worst_contraction = worst_grad = worst_div = 0.0
    for dim, n, L, count in ((1, 512, 10.0, 70), (2, 96, 5.0, 40)):
        g = make_grid(dim, n, L)
        div_const = dim / math.sqrt(math.pi)
        for _ in range(count):
            n_fields += 1
            f = Field(g, band_limited_noise(g, rng, band=n // 6))
            fmax = float(np.max(np.abs(f.values)))
            gp = grad_potential(f)
            gmag = np.sqrt(sum(c.values**2 for c in gp)).max()
            worst_grad = max(worst_grad, float(gmag) / (math.sqrt(dim) * fmax))
            w = tuple(
                Field(g, band_limited_noise(g, rng, band=n // 6)) for _ in range(dim)
            )
            wmax = float(np.sqrt(sum(c.values**2 for c in w)).max())
            for t in times:
                tf = apply_T(t, f)
                ratio = float(np.max(np.abs(tf.values))) / (math.exp(-t) * fmax)
                worst_contraction = max(worst_contraction, ratio)
                td = apply_T_div(t, w)
                bound = div_const * t**-0.5 * math.exp(-t) * wmax
                worst_div = max(worst_div, float(np.max(np.abs(td.values))) / bound)
    passed = (
        worst_contraction <= rounding
        and worst_grad <= rounding
        and worst_div <= slack
    )
    detail = (
        f"{n_fields} fields x {len(times)} times: contraction ratio "
        f"{worst_contraction:.6f} (<= 1), gradient ratio {worst_grad:.6f} "
        f"(<= 1), divergence ratio {worst_div:.4f} (<= {slack})"
    )
    return passed, detail, budget


def crit_sandwich_all_runs():
    worst = math.inf
    worst_name = ""
    passed = True
    for name in bundled_scenario_names():
        rep = bundled_report(name)
        v = _verdict(rep, "sandwich")
        if rep.abort is not None or v is None or not v.passed:
            passed = False
            worst_name = name
            break
        if v.margin < worst:
            worst, worst_name = v.margin, name
    detail = (
        f"{len(bundled_scenario_names())} runs, every sample; tightest margin "
        f"{worst:.3e} ({worst_name})"
        if passed
        else f"violated or aborted in {worst_name}"
    )
    return passed, detail, None


def crit_envelope_run():
    budget = 60.0
    rep = bundled_report("envelope_1d")
    sc = rep.scenario
    setup_ok = (
        sc["params"] == {"chi": 0.5, "a": 1.0, "b": 1.0}
        and sc["grid"]["n"] == 1024
        and sc["ic"]["amplitude"] == 3.0
        and sc["control"]["t_end"] == 30.0
    )
    v = _verdict(rep, "envelope")
    final_sup = rep.series["linf"][-1]
    # recheck the bound with an absolute budget, straight from the series
    p = Params(**sc["params"], dim=sc["grid"]["dim"])
    sup0 = rep.series["linf"][0]
    deficit = max(
        s - upper_envelope(t, sup0, p) for t, s in zip(rep.times, rep.series["linf"])
    )
    passed = (
        setup_ok
        and rep.abort is None
        and v is not None
        and v.passed
        and deficit <= 1e-6
        and final_sup <= 2.02
    )
    detail = (
        f"sup_x u vs damped logistic envelope for t <= 30: worst excess "
        f"{deficit:.2e} (budget 1e-6); sup u(30) = {final_sup:.6f} <= 2.02"
    )
    return passed, detail, budget, rep.wall_time


def crit_mass_bounds():
    passed = True
    details = []
    for name in bundled_scenario_names():
        rep = bundled_report(name)
        v = _verdict(rep, "mass_growth")
        ok = rep.abort is None and v is not None and v.passed
        passed &= ok
        details.append(f"{name} {'ok' if ok else 'VIOLATED'}")
    decay = bundled_report("mass_decay_1d")
    mass = np.asarray(decay.series["mass"])
    rises = np.diff(mass) / mass[0]
    monotone = bool(np.all(rises <= 1e-8))
    passed &= monotone
    detail = (
        f"mass <= mass(0) e^(a t) on {len(details)} runs; a = 0 variant "
        f"nonincreasing within 1e-8 relative (max rise "
        f"{float(rises.max()):.2e})"
    )
    if not passed:
        detail += "; " + ", ".join(details)
    return passed, detail, None


def crit_stability_run():
    budget = 60.0
    rep = bundled_report("stability_1d")
    v = _verdict(rep, "equilibrium")
    dist = np.asarray(rep.series["dist_u_ab"]) + np.asarray(rep.series["dist_v_ab"])
    final = float(dist[-1])
    i10 = int(np.argmin(np.abs(np.asarray(rep.times) - 10.0)))
    trend = final < float(dist[i10])
    passed = (
        rep.abort is None
        and v is not None
        and v.passed
        and v.asserted
        and final <= 1e-3
        and trend
    )
    detail = (
        f"dist(u) + dist(v) = {final:.2e} at t = 40 (tol 1e-3), down from "
        f"{float(dist[i10]):.2e} at t = 10"
    )
    return passed, detail, budget, rep.wall_time


def crit_fisher_speed():
    budget = 120.0
    rep = bundled_report("fisher_1d")
    v = _verdict(rep, "speed_range")
    s = rep.speed
    passed = (
        rep.abort is None
        and s is not None
        and 1.80 <= s["speed"] <= 2.05
        and v is not None
        and v.passed
    )
    detail = (
        "no speed estimate"
        if s is None
        else (
            f"front speed {s['speed']:.4f} +/- {s['stderr']:.4f} in "
            f"[1.80, 2.05], fit over t in [{s['window'][0]:g}, "
            f"{s['window'][1]:g}] ({s['n_samples']} samples)"
        )
    )
    return passed, detail, budget, rep.wall_time


def crit_spreading_run():
    budget = 120.0
    rep = bundled_report("spreading_1d")
    s = rep.speed
    v_lim = _verdict(rep, "spreading_limits")
    v_cst = _verdict(rep, "cstar_positive")
    passed = (
        rep.abort is None
        and s is not None
        and math.isfinite(s["speed"])
        and s["speed"] > 0
        and v_lim is not None
        and v_lim.passed
        and v_cst is not None
        and v_cst.passed
    )
    detail = (
        "missing pieces"
        if not passed and (s is None or v_lim is None or v_cst is None)
        else f"c = {s['speed']:.4f}; {v_lim.detail}; floor scan: {v_cst.detail}"
    )
    return passed, detail, budget, rep.wall_time


def crit_l2_growth():
    rep = bundled_report("spreading_1d")
    l2 = np.asarray(rep.series["l2"])
    half = len(l2) // 2
    tail = l2[half:]
    diffs = np.diff(tail)
    passed = bool(np.all(diffs > 0.0)) and rep.abort is None
    detail = (
        f"l2 strictly increasing over t in [{rep.times[half]:g}, "
        f"{rep.times[-1]:g}]: {tail[0]:.4f} -> {tail[-1]:.4f} "
        f"(min step {float(diffs.min()):.2e})"
    )
    return passed, detail, None


def crit_convergence_order():
    budget = 60.0
    g = make_grid(1, 128, 15.0)
    u0 = Field(g, 1.2 * np.exp(-(g.axes[0] ** 2) / (2 * 1.5**2)))
    p = Params(chi=0.3, a=1.0, b=1.0, dim=1)
    T = 0.4
    sols = []
    for dt in (0.02, 0.01, 0.005):
        control = StepControl(dt=dt, t_end=T).resolved(u0, p)
        state = step(initial_state(u0), p, control, steps=round(T / dt))
        sols.append(state.u.values)
    e_coarse = float(np.max(np.abs(sols[0] - sols[1])))
    e_fine = float(np.max(np.abs(sols[1] - sols[2])))
    order = math.log2(e_coarse / e_fine)
    passed = order >= 1.9
    detail = (
        f"Richardson order {order:.3f} >= 1.9 (errors {e_coarse:.3e} -> "
        f"{e_fine:.3e} under dt halving)"
    )
    return passed, detail, budget


def crit_mutation_sanity():
    g = make_grid(1, 128, 10.0)
    x = g.axes[0]
    u = Field(g, np.exp(-(x**2) / 4.0))
    v = solve(u)
    caught = []
    missed = []

    def record(label, was_caught):
        (caught if was_caught else missed).append(label)

    # a run through the blow-up threshold must abort and fail
    doomed = scenario_from_dict(
        {
            "schema_version": 1,
            "name": "doomed",
            "grid": {"dim": 1, "n": 64, "half_width": 10.0},
            "params": {"chi": 0.3, "a": 1.0, "b": 1.0},
            "ic": {"kind": "gaussian", "amplitude": 2.0, "width": 1.5},
            "control": {"dt": 0.01, "t_end": 0.1, "blowup_threshold": 1.0},
            "diagnostics": {"sample_interval": 0.1},
            "checks": {"sandwich": {}},
        }
    )
    rep = run(doomed)
    record("abort_detection", rep.abort is not None and not rep.ok)

    # The check units that reports carry, with their default parameters,
    # fed as a run of doomed feeds them: (u, v) per sample to observe,
    # then the base series to verdict.  Each must pass clean input and
    # fail corrupted input.
    t, pd = np.linspace(0.0, 2.0, 21), doomed.params

    def unit_passes(name, series=None, states=()):
        rec = RunRecord(doomed, classify(pd), dict(series or {}), list(t))
        unit = CHECKS[name](dict(CHECKS[name].schema))
        for s, (us, vs) in zip(t, states):
            unit.observe(s, us, vs, rec)
        return unit.verdict(rec).passed

    # v pushed above max u at one sample of three must break the sandwich
    v_bad = Field(g, v.values + 0.5)
    record("sandwich", unit_passes("sandwich", states=[(u, v)] * 3)
           and not unit_passes("sandwich", states=[(u, v), (u, v_bad), (u, v)]))

    # a guard band contaminated at one sample of three must be flagged
    u_far = Field(g, u.values + 1e-3)
    record("boundary_guard", unit_passes("boundary_guard", states=[(u, v)] * 3)
           and not unit_passes("boundary_guard", states=[(u, v), (u_far, v), (u, v)]))

    # a series over its bound by 0.9 of the check's slack must pass and
    # by 1.1 of it must fail, so the slack can be neither widened nor
    # narrowed: for mass_growth the slack is tol relative to mass(0)
    # e^(a t), for the envelope tol * (1 + m0)
    m0, tol = 3.0, CHECKS["mass_growth"].schema["tol"]

    def mass_passes(excess):
        mass = [m0] + [m0 * math.exp(pd.a * s) * (1.0 + excess * tol) for s in t[1:]]
        return unit_passes("mass_growth", {"mass": mass})

    record("mass_growth", mass_passes(0.9) and not mass_passes(1.1))

    tol = CHECKS["envelope"].schema["tol"]

    def envelope_passes(excess):
        linf = [m0] + [upper_envelope(s, m0, pd) + excess * tol * (1.0 + m0) for s in t[1:]]
        return unit_passes("envelope", {"linf": linf})

    record("envelope", envelope_passes(0.9) and not envelope_passes(1.1))

    # a stalled front must fall out of the admitted speed window
    tt = np.linspace(0.0, 10.0, 41)
    est = estimate_speed(tt, 0.05 * tt, np.ones_like(tt, dtype=bool))
    record("speed_range", not (1.80 <= est.speed <= 2.05))

    # a trace entirely beyond the guard must be refused outright
    try:
        estimate_speed(tt, np.full_like(tt, 9.5), np.zeros_like(tt, dtype=bool))
        record("invalid_trace", False)
    except ValueError:
        record("invalid_trace", True)

    # v above a / chi must make the far-field floor undefined
    p = Params(chi=0.5, a=1.0, b=1.0, dim=1)
    v_big = Field(g, np.full(g.shape, 2.5))
    scan = cstar_functional(u, v_big, p, inner_radius=2.0)
    record("cstar_positive", not scan.all_defined or scan.speed_min <= 0)

    # a state far from a / b must fail the equilibrium tolerance
    u_off = Field(g, np.full(g.shape, 2.0))
    du, dv = equilibrium_distance(u_off, u_off, p)
    record("equilibrium", du + dv > 1e-3)

    passed = not missed
    detail = f"{len(caught)}/{len(caught) + len(missed)} corruptions caught"
    if missed:
        detail += f"; MISSED: {missed}"
    return passed, detail, None


CRITERIA = {
    "elliptic_exactness": crit_elliptic_exactness,
    "operator_bounds": crit_operator_bounds,
    "sandwich_all_runs": crit_sandwich_all_runs,
    "envelope_run": crit_envelope_run,
    "mass_bounds": crit_mass_bounds,
    "stability_run": crit_stability_run,
    "fisher_speed": crit_fisher_speed,
    "spreading_run": crit_spreading_run,
    "l2_growth": crit_l2_growth,
    "convergence_order": crit_convergence_order,
    "mutation_sanity": crit_mutation_sanity,
}


# The bundled runs each criterion reads through bundled_report, which
# run_all computes ahead; ALL_RUNS stands for every bundled scenario.
ALL_RUNS = "all"
READS = {
    "sandwich_all_runs": ALL_RUNS,
    "envelope_run": ("envelope_1d",),
    "mass_bounds": ALL_RUNS,
    "stability_run": ("stability_1d",),
    "fisher_speed": ("fisher_1d",),
    "spreading_run": ("spreading_1d",),
    "l2_growth": ("spreading_1d",),
}


def runs_read(name: str) -> list:
    """The bundled runs criterion `name` declares in READS."""
    reads = READS.get(name, ())
    return bundled_scenario_names() if reads == ALL_RUNS else list(reads)


def _pool_run(scenario):
    """harness.run under this module's name for it.  The pool sends this
    function by reference, which works even where `run` has been replaced
    by a wrapper (a tracer, a test double) that pickle cannot send."""
    return run(scenario)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_one(name: str) -> CriterionResult:
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; known: {sorted(CRITERIA)}")
    t0 = time.perf_counter()
    out = CRITERIA[name]()
    elapsed = time.perf_counter() - t0
    passed, detail, budget = out[0], out[1], out[2]
    # criteria built on a cached run are charged that run's true cost
    cost = max(elapsed, out[3]) if len(out) > 3 else elapsed
    if budget is not None:
        if cost >= budget:
            passed = False
            detail += f"; OVER BUDGET: {cost:.1f}s >= {budget:.0f}s"
        else:
            detail += f" [{cost:.1f}s < {budget:.0f}s]"
    return CriterionResult(name=name, passed=bool(passed), elapsed=elapsed, detail=detail)


def run_all(names=None, echo=None):
    echo = echo or (lambda line: None)
    picked = list(CRITERIA) if not names else list(names)
    todo = [r for r in dict.fromkeys(r for name in picked for r in runs_read(name)) if r not in _REPORTS]
    workers = _pool_size(len(todo), _usable_cpus())
    t0 = time.perf_counter()
    results = []
    try:
        with run_many([load_scenario(bundled_scenario_path(r)) for r in todo], workers, _pool_run) as calls:
            _REPORTS.update(zip(todo, calls))
            for name in picked:
                results.append(run_one(name))
                # the pool's account, once, as soon as its last run has been read
                if workers and not any(callable(_REPORTS[r]) for r in todo):
                    summed = sum(_REPORTS[r].wall_time for r in todo)
                    echo(f"bundled runs: {len(todo)} on {workers} workers, "
                         f"{time.perf_counter() - t0:.2f} s wall ({summed:.2f} s summed run time)")
                    workers = 0
                echo(results[-1].line)
    finally:
        for r in todo:  # drop the calls never made or that raised
            if callable(_REPORTS.get(r)):
                del _REPORTS[r]
    echo(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return results
