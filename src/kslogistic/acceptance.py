"""The acceptance gate: eleven go/no-go criteria over the whole stack.

Each criterion is a function returning (passed, detail), declared once
by @criterion with its runtime budget and the bundled runs it reads.
run_one passes it the reports of those runs as arguments, times it and
folds the budget into the verdict.  A report is computed once per
process and cached, however many criteria read it: run_all computes the
runs its criteria read with run_many, on a process pool while the
criteria that read none run, and a run no pool computes is run in
process when first read.

The checks deliberately cross-validate along independent routes: the
elliptic solve against closed-form eigenfunctions and against
Gauss-Legendre quadrature of the exponential kernel, the step's
propagator E, grad-resolvent rows and flux weights against
operator-norm inequalities, the full nonlinear runs against
comparison bounds and measured front kinematics, and finally every
checker against corrupted inputs that it must reject.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .checks import CHECKS
from .diagnostics import equilibrium_distance, estimate_speed
from .grid import Field, make_grid
from .harness import Report, _pool_size, run, run_many, usable_cpus
from .helmholtz import grad_potential, solve
from .icfactory import band_limited_noise
from .params import Params
from .reference import classify, upper_envelope
from .scenario import bundled_scenario_names, bundled_scenario_path, load_scenario, scenario_from_dict
from .stepper import StepControl, _plan, initial_state, step

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


# bundled scenario name -> its Report
_REPORTS: dict = {}


def bundled_report(name: str, pending=None) -> Report:
    """Run a bundled scenario once per process and cache the report, by
    its run_many call if pending holds one (popped, raising what it raises)."""
    if name not in _REPORTS:
        call = (pending or {}).pop(name, None)
        _REPORTS[name] = call() if call else run(load_scenario(bundled_scenario_path(name)))
    return _REPORTS[name]


# name -> criterion, in gate order; name -> (budget in s or None, runs read)
CRITERIA: dict = {}
_DECLARED: dict = {}
ALL_RUNS = "all"


def criterion(budget=None, reads=()):
    """Enter the decorated crit_<name> into the gate as <name>.  It fails
    once it costs budget seconds or more (None: no budget) and takes the
    reports of the bundled runs in reads as arguments, in that order;
    ALL_RUNS reads every bundled run, in name order."""

    def declare(fn):
        name = fn.__name__.removeprefix("crit_")
        CRITERIA[name] = fn
        _DECLARED[name] = (budget, reads)
        return fn

    return declare


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


@criterion(budget=5.0)
def crit_elliptic_exactness():
    # route one: cosine eigenfunctions below the 2/3 band have a closed-form
    # resolvent and gradient, the latter read from grad_potential and from
    # the synth rows that make F's grad v
    worst_eig = worst_grad = 0.0
    cases = (
        (1, 256, 8.0, ((0,), (1,), (3,), (7,))),
        (2, 64, 6.0, ((0, 1), (2, 3), (5, 0))),
        (3, 16, 4.0, ((1, 2, 0), (0, 1, 3))),
    )
    for dim, n, L, mode_sets in cases:
        g = make_grid(dim, n, L)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        synth = _plan(g, 1.0, 1.0, 1.0).synth[1:]
        for modes in mode_sets:
            k2 = sum((m * math.pi / L) ** 2 for m in modes)
            cosines = [np.cos(m * math.pi * X / L) for m, X in zip(modes, mesh)]
            u = Field(g, np.prod(cosines, axis=0))
            err = np.max(np.abs(solve(u).values - u.values / (1.0 + k2)))
            worst_eig = max(worst_eig, float(err))
            # d_i v = -k_i sin(k_i x_i) prod_(j != i) cos(k_j x_j) / (1 + |k|^2)
            d = [-(m * math.pi / L) * np.sin(m * math.pi * X / L) / (1.0 + k2) for m, X in zip(modes, mesh)]
            want = np.stack([np.prod(cosines[:i] + [di] + cosines[i + 1:], axis=0) for i, di in enumerate(d)])
            for got in ([c.values for c in grad_potential(u)], g.irfft(synth * g.rfft(u.values))):
                worst_grad = max(worst_grad, float(np.max(np.abs(np.asarray(got) - want))))
    # route two: Gauss-Legendre quadrature of the exponential kernel
    worst_quad = _kernel_quadrature_error()
    passed = worst_eig <= 1e-12 and worst_grad <= 1e-12 and worst_quad <= 1e-6
    detail = (
        f"eigenfunction err {worst_eig:.2e}, gradient err {worst_grad:.2e} "
        f"(tol 1e-12), kernel quadrature err {worst_quad:.2e} (tol 1e-6)"
    )
    return passed, detail


@criterion(budget=30.0)
def crit_operator_bounds():
    # the multipliers a step makes at dt = t and chi = 1: E is T(t) =
    # e^(-t) (heat semigroup at t), synth[1:] the masked grad resolvent
    # and weights[1:] the masked i k of the flux divergence.  The fields
    # keep modes <= n/6, where the 2/3 mask is 1, so the bounds of the
    # unmasked operators hold.
    rng = np.random.default_rng(2024)
    times = (0.01, 0.1, 1.0, 5.0)
    slack = 1.05
    rounding = 1.0 + 1e-12
    n_fields = 0
    worst_contraction = worst_grad = worst_div = 0.0
    for dim, n, L, count in ((1, 512, 10.0, 70), (2, 96, 5.0, 40)):
        g = make_grid(dim, n, L)
        plans = [_plan(g, t, 1.0, 1.0) for t in times]
        synth = plans[0].synth[1:]
        div_const = dim / math.sqrt(math.pi)
        decay = np.array([math.exp(-t) for t in times])
        bounds = np.array([div_const * t**-0.5 * math.exp(-t) for t in times])
        for _ in range(count):
            n_fields += 1
            f = band_limited_noise(g, rng, band=n // 6)
            fmax = float(np.max(np.abs(f)))
            fh = g.rfft(f)
            gmag = np.sqrt(np.sum(g.irfft(synth * fh) ** 2, axis=0)).max()
            worst_grad = max(worst_grad, float(gmag) / (math.sqrt(dim) * fmax))
            w = np.stack([band_limited_noise(g, rng, band=n // 6) for _ in range(dim)])
            wmax = float(np.sqrt(np.sum(w**2, axis=0)).max())
            wh = g.rfft(w)
            # rows T(t) f and T(t) div w for each t, in one inverse transform
            rows = g.irfft(np.stack([
                row for p in plans for row in (p.E * fh, p.E * np.sum(p.weights[1:] * wh, axis=0))
            ]))
            tops = np.max(np.abs(rows.reshape(len(times), 2, -1)), axis=2)
            worst_contraction = max(worst_contraction, float((tops[:, 0] / (decay * fmax)).max()))
            worst_div = max(worst_div, float((tops[:, 1] / (bounds * wmax)).max()))
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
    return passed, detail


@criterion(reads=ALL_RUNS)
def crit_sandwich_all_runs(*reports):
    worst = math.inf
    worst_name = ""
    passed = True
    for rep in reports:
        v = _verdict(rep, "sandwich")
        if rep.abort is not None or v is None or not v.passed:
            passed = False
            worst_name = rep.scenario.name
            break
        if v.margin < worst:
            worst, worst_name = v.margin, rep.scenario.name
    detail = (
        f"{len(reports)} runs, every sample; tightest margin "
        f"{worst:.3e} ({worst_name})"
        if passed
        else f"violated or aborted in {worst_name}"
    )
    return passed, detail


@criterion(budget=60.0, reads=("envelope_1d",))
def crit_envelope_run(rep):
    sc, p = rep.scenario, rep.params
    setup_ok = (
        (p.chi, p.a, p.b) == (0.5, 1.0, 1.0)
        and sc.grid.n == 1024
        and sc.ic.amplitude == 3.0
        and sc.control.t_end == 30.0
    )
    v = _verdict(rep, "envelope")
    final_sup = rep.series["linf"][-1]
    # recheck the bound with an absolute budget, straight from the series
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
    return passed, detail


@criterion(reads=ALL_RUNS)
def crit_mass_bounds(*reports):
    passed = True
    details = []
    for rep in reports:
        v = _verdict(rep, "mass_growth")
        ok = rep.abort is None and v is not None and v.passed
        passed &= ok
        details.append(f"{rep.scenario.name} {'ok' if ok else 'VIOLATED'}")
    decay = next(rep for rep in reports if rep.scenario.name == "mass_decay_1d")
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
    return passed, detail


@criterion(budget=60.0, reads=("stability_1d",))
def crit_stability_run(rep):
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
    return passed, detail


@criterion(budget=120.0, reads=("fisher_1d",))
def crit_fisher_speed(rep):
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
    return passed, detail


@criterion(budget=120.0, reads=("spreading_1d",))
def crit_spreading_run(rep):
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
    return passed, detail


@criterion(reads=("spreading_1d",))
def crit_l2_growth(rep):
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
    return passed, detail


@criterion(budget=60.0)
def crit_convergence_order():
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
    passed = order >= 2.8
    detail = (
        f"Richardson order {order:.3f} >= 2.8 (errors {e_coarse:.3e} -> "
        f"{e_fine:.3e} under dt halving)"
    )
    return passed, detail


@criterion()
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
        rep = Report(doomed, classify(pd), dict(series or {}), list(t))
        unit = CHECKS[name](dict(CHECKS[name].schema))
        for s, (us, vs) in zip(t, states):
            unit.observe(s, us, vs, rep)
        return unit.verdict(rep).passed

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

    # v above a / chi at the last sample, the one scanned, must make the
    # far-field floor undefined
    front = {"front_radius": [2.0] * len(t), "front_valid": [True] * len(t)}
    v_big = Field(g, np.full(g.shape, 4.0))
    record("cstar_positive", unit_passes("cstar_positive", front, states=[(u, v)] * 3)
           and not unit_passes("cstar_positive", front, states=[(u, v), (u, v), (u, v_big)]))

    # a state far from a / b must fail the equilibrium tolerance
    u_off = Field(g, np.full(g.shape, 2.0))
    du, dv = equilibrium_distance(u_off, u_off, pd)
    record("equilibrium", du + dv > 1e-3)

    passed = not missed
    detail = f"{len(caught)}/{len(caught) + len(missed)} corruptions caught"
    if missed:
        detail += f"; MISSED: {missed}"
    return passed, detail


def runs_read(name: str) -> list:
    """The bundled runs criterion `name` reads, in argument order."""
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; known: {sorted(CRITERIA)}")
    reads = _DECLARED[name][1]
    return bundled_scenario_names() if reads == ALL_RUNS else list(reads)


def _pool_run(scenario):
    """harness.run under this module's name for it.  The pool sends this
    function by reference, which works even where `run` has been replaced
    by a wrapper (a tracer, a test double) that pickle cannot send."""
    return run(scenario)


def run_one(name: str, pending=None) -> CriterionResult:
    """Criterion `name` on the reports of the runs it reads, each taken
    through bundled_report with pending."""
    t0 = time.perf_counter()
    reports = [bundled_report(r, pending) for r in runs_read(name)]
    passed, detail = CRITERIA[name](*reports)
    elapsed = time.perf_counter() - t0
    budget = _DECLARED[name][0]
    if budget is not None:
        # charged the true cost of each report read, wherever it was made
        cost = max([elapsed] + [rep.wall_time for rep in reports])
        if cost >= budget:
            passed = False
            detail += f"; OVER BUDGET: {cost:.1f}s >= {budget:.0f}s"
        else:
            detail += f" [{cost:.1f}s < {budget:.0f}s]"
    return CriterionResult(name=name, passed=bool(passed), elapsed=elapsed, detail=detail)


def run_all(names=None, echo=None):
    echo = echo or (lambda line: None)
    picked = list(CRITERIA) if not names else list(names)
    # runs_read refuses an unknown name here, before any run or criterion starts
    todo = [r for r in dict.fromkeys(r for name in picked for r in runs_read(name)) if r not in _REPORTS]
    workers = _pool_size(len(todo), usable_cpus())
    t0 = time.perf_counter()
    results = []
    with run_many([load_scenario(bundled_scenario_path(r)) for r in todo], workers, _pool_run) as calls:
        pending = dict(zip(todo, calls))
        for name in picked:
            results.append(run_one(name, pending))
            # the pool's account, once, as soon as its last run has been read
            if workers and not pending:
                summed = sum(_REPORTS[r].wall_time for r in todo)
                echo(f"bundled runs: {len(todo)} on {workers} workers, "
                     f"{time.perf_counter() - t0:.2f} s wall ({summed:.2f} s summed run time)")
                workers = 0
            echo(results[-1].line)
    echo(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return results
