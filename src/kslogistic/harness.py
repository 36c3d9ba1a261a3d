"""Run orchestration: time loop, measurements, verdicts, file outputs.

A run turns one Scenario into one Report.  The report carries the
normalized scenario echo, the parameter-regime classification, fixed
time series (mass, l2, linf, front radius and validity, distance from
the uniform state, minimum of u, far-field speed floor), events, check
verdicts, and an optional front-speed fit.  Reports are deterministic:
two runs of the same scenario agree bit for bit except for wall_time.

Checks carry two flags.  passed is the measurement outcome; asserted
says whether the regime hypothesis behind the check holds, so a failed
unasserted check is information, not an error.  A run is ok when it
completed without abort and every asserted check passed.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .diagnostics import (
    CheckResult,
    FrontTrace,
    TimeSeries,
    boundary_guard,
    check_lr_growth,
    cstar_functional,
    equilibrium_distance,
    estimate_speed,
    front_radius,
    lp_norm,
    sandwich_check,
)
from .grid import make_grid
from .icfactory import realize
from .reference import classify, cstar_lower_bound_formula, upper_envelope
from .scenario import (
    Scenario,
    ScenarioError,
    front_level_of,
    normalize_checks,
    timing,
    with_value,
)
from .stepper import StepperError, initial_state, stability_warnings, step

__all__ = [
    "HarnessError",
    "CheckVerdict",
    "Report",
    "run",
    "run_experiment",
    "sweep",
    "write_series_csv",
    "write_sweep_csv",
    "emit_plot_data",
    "output_root",
    "CSV_COLUMNS",
    "SWEEP_COLUMNS",
]

CSV_COLUMNS = (
    "t",
    "mass",
    "l2",
    "linf",
    "front_radius",
    "front_valid",
    "dist_u_ab",
    "dist_v_ab",
    "min_u",
    "cstar_min",
)

SWEEP_COLUMNS = (
    "value",
    "status",
    "passed",
    "speed",
    "speed_stderr",
    "final_mass",
    "final_linf",
    "n_samples",
    "wall_time",
    "message",
)


class HarnessError(RuntimeError):
    """Output collision or malformed harness request."""


@dataclass(frozen=True)
class CheckVerdict:
    name: str
    passed: bool
    asserted: bool
    margin: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "asserted": self.asserted,
            "margin": self.margin,
            "detail": self.detail,
        }


@dataclass
class Report:
    scenario: dict
    regime: dict
    cstar_floor: Optional[float]
    times: list
    series: dict
    checks: list
    events: list
    speed: Optional[dict]
    abort: Optional[dict]
    snapshots: list = field(default_factory=list)
    wall_time: float = 0.0
    version: str = __version__

    @property
    def ok(self) -> bool:
        return self.abort is None and all(
            v.passed for v in self.checks if v.asserted
        )

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "version": self.version,
            "scenario": self.scenario,
            "regime": self.regime,
            "cstar_floor": self.cstar_floor,
            "ok": self.ok,
            "abort": self.abort,
            "speed": self.speed,
            "checks": [v.to_dict() for v in self.checks],
            "events": self.events,
            "times": self.times,
            "series": self.series,
            "snapshots": self.snapshots,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(
            _jsonable(self.to_dict(include_wall_time)), indent=2
        )


def _jsonable(obj):
    """Recursively replace non-finite floats with None; JSON has no nan."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _growth_label(r: float) -> str:
    if r == 1.0:
        return "mass"
    if r == 2.0:
        return "l2"
    if math.isinf(r):
        return "linf"
    return f"l{r:g}"


def run(scenario: Scenario) -> Report:
    """Integrate one scenario and measure everything it asked for."""
    t0_wall = time.perf_counter()
    g = make_grid(scenario.grid.dim, scenario.grid.n, scenario.grid.half_width)
    p = scenario.params
    diag = scenario.diagnostics
    regime = classify(p)
    level = front_level_of(scenario)
    per, nsamp = timing(scenario)
    checks_cfg = normalize_checks(scenario.checks)
    if checks_cfg != scenario.checks:
        scenario = replace(scenario, checks=checks_cfg)

    u0 = realize(scenario.ic, g, guard=diag.guard)
    control = scenario.control.resolved(u0, p)
    state = initial_state(u0)

    growth_r = checks_cfg.get("mass_growth", {}).get("r")
    growth_label = _growth_label(growth_r) if growth_r is not None else None
    extra_growth = growth_label is not None and growth_label not in (
        "mass",
        "l2",
        "linf",
    )
    u0_norms = {"linf": lp_norm(u0, math.inf)}
    if growth_r is not None:
        u0_norms[growth_label] = lp_norm(u0, growth_r)
    keep_states = "spreading_limits" in checks_cfg

    times: list = []
    cols: dict = {name: [] for name in CSV_COLUMNS[1:]}
    if extra_growth:
        cols[growth_label] = []
    events: list = []
    snapshots: list = []
    kept: list = []
    warned: set = set()
    abort: Optional[dict] = None
    sandwich_worst: Optional[CheckResult] = None
    guard_worst: Optional[CheckResult] = None
    last_scan = None  # (t, CstarScan)
    front_was_valid = False
    front_left_guard = False

    far_value = checks_cfg.get("boundary_guard", {}).get("far_value")
    guard_limit = (1.0 - diag.guard) * g.half_width

    def sample(i: int, st) -> None:
        nonlocal sandwich_worst, guard_worst, last_scan
        nonlocal front_was_valid, front_left_guard
        t = i * diag.sample_interval
        u, v = st.u, st.v
        times.append(t)
        cols["mass"].append(lp_norm(u, 1))
        cols["l2"].append(lp_norm(u, 2))
        cols["linf"].append(lp_norm(u, math.inf))
        cols["min_u"].append(float(u.values.min()))
        if extra_growth:
            cols[growth_label].append(lp_norm(u, growth_r))
        radius = front_radius(u, level)
        valid = radius <= guard_limit
        cols["front_radius"].append(radius)
        cols["front_valid"].append(bool(valid))
        if valid:
            front_was_valid = True
        elif front_was_valid and not front_left_guard:
            # only a front that once fit in the box can outgrow it
            front_left_guard = True
            events.append(
                {
                    "t": t,
                    "kind": "front_beyond_guard",
                    "message": (
                        f"front radius {radius:.6g} exceeds "
                        f"(1 - guard) half_width = {guard_limit:.6g}"
                    ),
                }
            )
        du, dv = equilibrium_distance(u, v, p, diag.equilibrium_radius)
        cols["dist_u_ab"].append(du)
        cols["dist_v_ab"].append(dv)

        cstar_val = math.nan
        if valid and radius > 0.0:
            try:
                scan = cstar_functional(u, v, p, diag.cstar_inner_factor * radius)
            except ValueError:
                scan = None
            if scan is not None:
                last_scan = (t, scan)
                if math.isfinite(scan.speed_min):
                    cstar_val = scan.speed_min
        cols["cstar_min"].append(cstar_val)

        if "sandwich" in checks_cfg:
            res = sandwich_check(u, v)
            if sandwich_worst is None or res.margin < sandwich_worst.margin:
                sandwich_worst = CheckResult(
                    res.name, res.passed, res.margin, f"t={t:.6g}: {res.detail}"
                )
        if far_value is not None:
            res = boundary_guard(u, far_value, diag.guard)
            if guard_worst is None or res.margin < guard_worst.margin:
                guard_worst = CheckResult(
                    res.name, res.passed, res.margin, f"t={t:.6g}: {res.detail}"
                )
            if not res.passed and not any(
                e["kind"] == "guard_breach" for e in events
            ):
                events.append(
                    {"t": t, "kind": "guard_breach", "message": res.detail}
                )
        for msg in stability_warnings(st, p, control):
            key = "drift" if "drift limit" in msg else "reaction"
            if key not in warned:
                warned.add(key)
                events.append({"t": t, "kind": f"dt_advisory_{key}", "message": msg})
        if diag.snapshot_every and i % diag.snapshot_every == 0:
            snapshots.append(
                {
                    "t": t,
                    "u": u.values.tolist(),
                    "v": v.values.tolist(),
                }
            )
        if keep_states:
            kept.append(u)

    sample(0, state)
    for i in range(1, nsamp + 1):
        try:
            for _ in range(per):
                state = step(state, p, control)
        except StepperError as e:
            abort = {
                "kind": type(e).__name__,
                "t": e.t,
                "value": e.value,
                "message": str(e),
            }
            events.append({"t": e.t, "kind": "abort", "message": str(e)})
            break
        sample(i, state)

    t_arr = np.asarray(times)
    trace = FrontTrace(
        times=t_arr,
        radii=np.asarray(cols["front_radius"]),
        valid=np.asarray(cols["front_valid"], dtype=bool),
        level=level,
        guard=diag.guard,
    )
    speed = None
    speed_err = None
    try:
        est = estimate_speed(trace)
        speed = {
            "speed": est.speed,
            "stderr": est.stderr,
            "window": [est.window[0], est.window[1]],
            "n_samples": est.n_samples,
        }
    except ValueError as e:
        speed_err = str(e)

    verdicts = _evaluate_checks(
        scenario,
        regime,
        t_arr,
        cols,
        u0_norms,
        sandwich_worst,
        guard_worst,
        last_scan,
        speed,
        speed_err,
        kept,
        abort,
        g.half_width,
        growth_label,
        float(u0.values.min()),
    )

    report = Report(
        scenario=scenario.to_dict(),
        regime=regime.to_dict(),
        cstar_floor=cstar_lower_bound_formula(p),
        times=times,
        series={k: list(v) for k, v in cols.items()},
        checks=verdicts,
        events=events,
        speed=speed,
        abort=abort,
        snapshots=snapshots,
        wall_time=time.perf_counter() - t0_wall,
    )
    return report


def _evaluate_checks(
    scenario: Scenario,
    regime,
    t_arr: np.ndarray,
    cols: dict,
    u0_norms: dict,
    sandwich_worst,
    guard_worst,
    last_scan,
    speed: Optional[dict],
    speed_err: Optional[str],
    kept: list,
    abort: Optional[dict],
    half_width: float,
    growth_label: Optional[str],
    u0_min: float,
) -> list:
    p = scenario.params
    cfg = scenario.checks
    diag = scenario.diagnostics
    out: list = []

    def add(name, passed, asserted, margin, detail=""):
        out.append(
            CheckVerdict(
                name=name,
                passed=bool(passed),
                asserted=bool(asserted),
                margin=float(margin),
                detail=detail,
            )
        )

    if "sandwich" in cfg:
        res = sandwich_worst
        if res is None:
            add("sandwich", False, True, math.nan, "no samples")
        else:
            add("sandwich", res.passed, True, res.margin, f"worst {res.detail}")

    if "mass_growth" in cfg:
        c = cfg["mass_growth"]
        series = TimeSeries(
            label=growth_label, times=t_arr, values=np.asarray(cols[growth_label])
        )
        res = check_lr_growth(series, u0_norms[growth_label], p.a, c["tol"])
        asserted = c["r"] <= regime.max_safe_r
        note = "" if asserted else (
            f" [not asserted: r={c['r']:g} exceeds the safe exponent "
            f"{regime.max_safe_r:g}]"
        )
        add("mass_growth", res.passed, asserted, res.margin, res.detail + note)

    if "envelope" in cfg:
        c = cfg["envelope"]
        if p.chi > p.b:
            add(
                "envelope",
                True,
                False,
                math.nan,
                "not evaluated: the comparison envelope needs chi <= b",
            )
        else:
            m0 = u0_norms["linf"]
            scale = 1.0 + m0
            env = np.array([upper_envelope(t, m0, p) for t in t_arr])
            slack = env + c["tol"] * scale - np.asarray(cols["linf"])
            worst = int(np.argmin(slack))
            add(
                "envelope",
                slack[worst] >= 0.0,
                True,
                float(slack[worst]),
                (
                    f"worst at t={t_arr[worst]:.6g}: sup u = "
                    f"{cols['linf'][worst]:.9g} vs envelope {env[worst]:.9g} "
                    f"(+ {c['tol']:g} * {scale:g})"
                ),
            )

    if "boundary_guard" in cfg:
        res = guard_worst
        if res is None:
            add("boundary_guard", False, True, math.nan, "no samples")
        else:
            add("boundary_guard", res.passed, True, res.margin, f"worst {res.detail}")

    spreading = bool(regime.spreading)

    if "speed_range" in cfg:
        c = cfg["speed_range"]
        if speed is None:
            add(
                "speed_range",
                False,
                spreading,
                math.nan,
                f"no speed estimate: {speed_err}",
            )
        else:
            s = speed["speed"]
            margin = min(s - c["min"], c["max"] - s)
            add(
                "speed_range",
                margin >= 0.0,
                spreading,
                margin,
                (
                    f"fit speed {s:.6g} (stderr {speed['stderr']:.2g}) vs "
                    f"[{c['min']:g}, {c['max']:g}]"
                ),
            )

    if "equilibrium" in cfg:
        c = cfg["equilibrium"]
        asserted = bool(regime.stability) and u0_min > 0.0
        dist = np.asarray(cols["dist_u_ab"]) + np.asarray(cols["dist_v_ab"])
        t_from = c["trend_from"]
        if t_from is None:
            t_from = scenario.control.t_end / 4.0
        if abort is not None:
            add("equilibrium", False, asserted, math.nan, "run aborted early")
        else:
            final = float(dist[-1])
            j = int(np.searchsorted(t_arr, t_from))
            j = min(j, len(dist) - 1)
            ref = float(dist[j])
            # a run already a decade under tolerance has converged; the
            # trend comparison below that level is rounding noise
            trend_ok = final <= ref or final <= 0.1 * c["tol"]
            margin = c["tol"] - final
            add(
                "equilibrium",
                margin >= 0.0 and trend_ok,
                asserted,
                margin,
                (
                    f"dist(u)+dist(v) = {final:.6g} at t={t_arr[-1]:g} "
                    f"(tol {c['tol']:g}); trend {ref:.6g} -> {final:.6g} "
                    f"from t={t_arr[j]:g}"
                ),
            )

    if "cstar_positive" in cfg:
        if last_scan is None:
            add(
                "cstar_positive",
                False,
                spreading,
                math.nan,
                "no usable far-field scan (front empty or beyond guard)",
            )
        else:
            t_scan, scan = last_scan
            passed = (
                scan.all_defined
                and scan.speed_min > 0.0
                and scan.positivity_min > 0.0
            )
            margin = min(scan.speed_min, scan.positivity_min)
            add(
                "cstar_positive",
                passed,
                spreading,
                margin,
                (
                    f"t={t_scan:.6g}: floor min {scan.speed_min:.6g}, "
                    f"positivity min {scan.positivity_min:.6g}, undefined "
                    f"fraction {scan.undefined_fraction:.3g} over "
                    f"{scan.n_points} points"
                ),
            )

    if "spreading_limits" in cfg:
        c = cfg["spreading_limits"]
        verdict = _spreading_limits(
            c, p, diag, t_arr, cols, kept, speed, half_width, spreading
        )
        out.append(verdict)

    return out


def _spreading_limits(
    c: dict,
    p,
    diag,
    t_arr: np.ndarray,
    cols: dict,
    kept: list,
    speed: Optional[dict],
    half_width: float,
    asserted: bool,
) -> CheckVerdict:
    """Interior flatness and exterior smallness in the wake and ahead of
    the measured front.

    Evaluated at the last sample where the exterior region
    |x| >= outer_factor * c * t still fits inside the guard radius, so
    both regions are genuinely resolved by the box.
    """
    from .diagnostics import _radius_mesh  # shared cached mesh

    def fail(detail):
        return CheckVerdict("spreading_limits", False, asserted, math.nan, detail)

    if speed is None:
        return fail("no speed estimate to anchor the regions")
    if not kept:
        return fail("no stored states")
    cval = speed["speed"]
    if not (math.isfinite(cval) and cval > 0):
        return fail(f"measured speed {cval!r} is not a positive number")
    limit = (1.0 - diag.guard) * half_width
    j_star = -1
    for j in range(len(kept) - 1, -1, -1):
        t = t_arr[j]
        if t > 0 and cols["front_valid"][j] and c["outer_factor"] * cval * t <= limit:
            j_star = j
            break
    if j_star < 0:
        return fail(
            f"no sample keeps |x| >= {c['outer_factor']:g} c t inside the "
            f"guard radius {limit:.6g}"
        )
    t_star = float(t_arr[j_star])
    u = kept[j_star]
    r_mesh = _radius_mesh(u.grid)
    inner = r_mesh <= c["inner_factor"] * cval * t_star
    outer = r_mesh >= c["outer_factor"] * cval * t_star
    if not inner.any():
        return fail(f"inner region empty at t={t_star:g}")
    if not outer.any():
        return fail(f"outer region empty at t={t_star:g}")
    target = p.a / p.b
    inner_sup = float(np.max(np.abs(u.values[inner] - target)))
    outer_sup = float(np.max(np.abs(u.values[outer])))
    margin = min(c["inner_tol"] - inner_sup, c["outer_tol"] - outer_sup)
    return CheckVerdict(
        "spreading_limits",
        margin >= 0.0,
        asserted,
        margin,
        (
            f"t={t_star:g}, c={cval:.4g}: sup |u - a/b| = {inner_sup:.6g} on "
            f"|x| <= {c['inner_factor']:g} c t (tol {c['inner_tol']:g}); "
            f"sup |u| = {outer_sup:.6g} on |x| >= {c['outer_factor']:g} c t "
            f"(tol {c['outer_tol']:g})"
        ),
    )


def output_root(outdir=None) -> Path:
    """Explicit argument, else KSLOGISTIC_OUTDIR, else ./out."""
    if outdir is not None:
        return Path(outdir)
    env = os.environ.get("KSLOGISTIC_OUTDIR")
    return Path(env) if env else Path("out")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_series_csv(report: Report, path) -> None:
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    n = len(report.times)
    for i in range(n):
        row = [_fmt(float(report.times[i]))]
        for name in CSV_COLUMNS[1:]:
            row.append(_fmt(report.series[name][i]))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_sweep_csv(rows: list, axis: str, path) -> None:
    path = Path(path)
    header = ",".join(SWEEP_COLUMNS).replace("value", f"value({axis})", 1)
    lines = [header]
    for row in rows:
        cells = []
        for name in SWEEP_COLUMNS:
            val = row[name]
            if name == "message":
                cells.append('"' + str(val).replace('"', "'") + '"')
            elif val is None:
                cells.append("nan")
            else:
                cells.append(_fmt(val))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def emit_plot_data(report: Report, plots_dir, force: bool = False) -> dict:
    """Write gnuplot-friendly two-column series files, snapshot tables,
    and a manifest.  Refuses to overwrite an existing manifest without
    force."""
    plots_dir = Path(plots_dir)
    manifest_path = plots_dir / "manifest.json"
    if manifest_path.exists() and not force:
        raise HarnessError(
            f"{manifest_path} exists; pass force=True to overwrite"
        )
    plots_dir.mkdir(parents=True, exist_ok=True)
    sc = report.scenario
    dim = sc["grid"]["dim"]
    g = make_grid(dim, sc["grid"]["n"], sc["grid"]["half_width"])

    series_files = {}
    for label, values in report.series.items():
        fname = f"series_{label}.dat"
        lines = [f"# t {label}"]
        for t, v in zip(report.times, values):
            lines.append(f"{_fmt(float(t))} {_fmt(float(v) if v is not None else math.nan)}")
        (plots_dir / fname).write_text("\n".join(lines) + "\n")
        series_files[label] = fname

    snapshot_files = []
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
        else:
            lines.append("# x y u v")
            ys = g.axes[1].tolist()
            for x, urow, vrow in zip(xs, u, v):
                lines += [f"{x!r} {y!r} {uu!r} {vv!r}" for y, uu, vv in zip(ys, urow, vrow)]
                lines.append("")
        (plots_dir / fname).write_text("\n".join(lines) + "\n")
        snapshot_files.append({"t": snap["t"], "file": fname})

    manifest = {
        "scenario": sc["name"],
        "dim": dim,
        "series_files": series_files,
        "snapshot_files": snapshot_files,
        "csv_columns": list(CSV_COLUMNS),
    }
    manifest_path.write_text(json.dumps(_jsonable(manifest), indent=2) + "\n")
    return manifest


def run_experiment(
    scenario: Scenario, outdir=None, force: bool = False
) -> tuple:
    """run() plus file outputs under <root>/<scenario name>/.

    Writes report.json, series.csv, and plots/.  Returns
    (report, {"dir", "report", "series", "plots"}).
    """
    root = output_root(outdir) / scenario.name
    report_path = root / "report.json"
    if report_path.exists() and not force:
        raise HarnessError(f"{report_path} exists; pass force=True to overwrite")
    root.mkdir(parents=True, exist_ok=True)
    report = run(scenario)
    report_path.write_text(report.to_json() + "\n")
    write_series_csv(report, root / "series.csv")
    emit_plot_data(report, root / "plots", force=True)
    return report, {
        "dir": root,
        "report": report_path,
        "series": root / "series.csv",
        "plots": root / "plots",
    }


def _sweep_one(scenario: Scenario) -> dict:
    row = {name: None for name in SWEEP_COLUMNS}
    try:
        report = run(scenario)
    except Exception as e:  # per-run failures must not kill the sweep
        row.update(
            status="error",
            passed=False,
            message=f"{type(e).__name__}: {e}",
        )
        return row
    asserted_fail = next(
        (v for v in report.checks if v.asserted and not v.passed), None
    )
    if report.abort is not None:
        status, message = "abort", report.abort["message"]
    elif asserted_fail is not None:
        status, message = "check_failed", (
            f"{asserted_fail.name}: {asserted_fail.detail}"
        )
    else:
        status, message = "ok", ""
    row.update(
        status=status,
        passed=report.ok,
        speed=None if report.speed is None else report.speed["speed"],
        speed_stderr=None if report.speed is None else report.speed["stderr"],
        final_mass=report.series["mass"][-1],
        final_linf=report.series["linf"][-1],
        n_samples=len(report.times),
        wall_time=report.wall_time,
        message=message,
    )
    return row


def sweep(
    scenario: Scenario, axis: str, values, workers: int = 1
) -> list:
    """Rerun a scenario with one numeric field swept over values.

    Returns one row dict per value (SWEEP_COLUMNS keys).  A failing run
    is recorded in its row; it does not stop the sweep.
    """
    values = list(values)
    if not values:
        raise ScenarioError("sweep needs a nonempty list of values")
    if workers < 1:
        raise ScenarioError(f"workers must be >= 1, got {workers}")
    variants = [with_value(scenario, axis, v) for v in values]
    if workers == 1:
        rows = [_sweep_one(sc) for sc in variants]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, variants))
    for v, row in zip(values, rows):
        row["value"] = v
    return rows
