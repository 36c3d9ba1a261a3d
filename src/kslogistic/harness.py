"""Run orchestration: time loop, measurements, verdicts, file outputs.

A run turns one Scenario into one Report, the one record of that run:
``run`` creates it before the first sample, the check units observe it
and take their verdicts from it, and ``run`` returns that same object.
The report carries the scenario, the parameter-regime classification,
fixed time series (mass, l2, linf, front radius and validity, distance
from the uniform state, minimum of u, far-field speed floor), events,
check verdicts, and an optional front-speed fit.  Reports are
deterministic: two runs of the same scenario agree bit for bit except
for wall_time.  The checks themselves live in ``checks``; a run is ok
when it completed without abort and every asserted check passed.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .checks import CHECKS
from .diagnostics import (
    cstar_functional,
    equilibrium_distance,
    estimate_speed,
    front_radius,
    lp_norm,
)
from .icfactory import realize
from .reference import RegimeReport, classify, cstar_lower_bound_formula
from .scenario import Scenario, ScenarioError, front_level_of, with_value
from .stepper import SampleStepper, StepperError, initial_state
# run steps through SampleStepper; step stays bound here for callers
# that look the kernel up in this module, as the benchmark's tracer does
from .stepper import step  # noqa: F401

__all__ = [
    "HarnessError",
    "Report",
    "run",
    "run_experiment",
    "run_many",
    "sweep",
    "write_series_csv",
    "write_sweep_csv",
    "emit_plot_data",
    "output_root",
    "CSV_COLUMNS",
    "SWEEP_COLUMNS",
]

#: the far-field scan covers |x| >= this many front radii
_CSTAR_INNER_FACTOR = 1.5

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


@dataclass
class Report:
    """What a run has measured.  series maps a column name to one value
    per sample.  scan, (t, CstarScan) of the last usable far-field scan,
    and speed_error, why there is no speed fit, are for the checks and
    are not written out."""

    scenario: Scenario
    regime: RegimeReport
    series: dict
    times: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    events: list = field(default_factory=list)
    speed: Optional[dict] = None
    abort: Optional[dict] = None
    # each {"t": float, "u": array, "v": array}, the arrays read-only
    snapshots: list = field(default_factory=list)
    wall_time: float = 0.0
    version: str = __version__
    scan: Optional[tuple] = None
    speed_error: Optional[str] = None
    _snapshot_reprs: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @property
    def params(self):
        return self.scenario.params

    @property
    def cstar_floor(self) -> Optional[float]:
        return cstar_lower_bound_formula(self.params)

    @property
    def ok(self) -> bool:
        return self.abort is None and all(
            v.passed for v in self.checks if v.asserted
        )

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "version": self.version,
            "scenario": self.scenario.to_dict(),
            "regime": self.regime.to_dict(),
            "cstar_floor": self.cstar_floor,
            "ok": self.ok,
            "abort": self.abort,
            "speed": self.speed,
            "checks": [v.to_dict() for v in self.checks],
            "events": self.events,
            "times": self.times,
            "series": self.series,
            "snapshots": [{**s, "u": np.asarray(s["u"]).tolist(), "v": np.asarray(s["v"]).tolist()}
                          for s in self.snapshots],
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        """json.dumps(_jsonable(to_dict()), indent=2), with the snapshot
        arrays laid out the same way from their cached value strings."""
        text = json.dumps(_jsonable(replace(self, snapshots=[]).to_dict(include_wall_time)), indent=2)
        # only a top-level key starts a line with two spaces of indent
        head, key, tail = text.partition('\n  "snapshots": []')
        items = []
        for snap, reprs in zip(self.snapshots, self._reprs()):
            fields = [f'"t": {json.dumps(_jsonable(snap["t"]))}']
            for name, strs in zip("uv", reprs):
                a = np.asarray(snap[name], dtype=float)
                if not np.isfinite(a).all():
                    strs = np.where(np.isfinite(a).ravel(), strs, "null").tolist()
                fields.append(f'"{name}": {_json_array(strs, a.shape, 3)}')
            items.append(_json_items(fields, 2, "{}"))
        return f'{head}{key.removesuffix("[]")}{_json_items(items, 1)}{tail}'

    def _reprs(self) -> list:
        """Per snapshot, the flat float reprs of u and v, made once for report.json and the tables."""
        if self._snapshot_reprs is None:
            self._snapshot_reprs = [
                [list(map(float.__repr__, np.asarray(s[k], dtype=float).ravel().tolist())) for k in "uv"]
                for s in self.snapshots
            ]
        return self._snapshot_reprs


def _jsonable(obj):
    """Recursively replace non-finite floats with None; JSON has no nan."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _json_items(items: list, depth: int, brackets: str = "[]") -> str:
    """Rendered items in a container at `depth`, laid out as json.dumps(indent=2) does."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def _json_array(strs: list, shape: tuple, depth: int) -> str:
    """Nested lists of an array of this shape from its flat C-order value strings."""
    if len(shape) == 1:
        return _json_items(strs, depth)
    size = math.prod(shape[1:])
    rows = [_json_array(strs[i * size:(i + 1) * size], shape[1:], depth + 1) for i in range(shape[0])]
    return _json_items(rows, depth)


def run(scenario: Scenario) -> Report:
    """Integrate one scenario and measure everything it asked for."""
    t0_wall = time.perf_counter()
    g, p, diag = scenario.grid, scenario.params, scenario.diagnostics
    level = front_level_of(scenario)
    u0 = realize(scenario.ic, g, guard=diag.guard)
    clock = SampleStepper(p, scenario.control.resolved(u0, p), diag.sample_interval)
    rep = Report(scenario, classify(p), series={name: [] for name in CSV_COLUMNS[1:]})
    checks = [unit(scenario.checks[name]) for name, unit in CHECKS.items() if name in scenario.checks]
    cols = rep.series
    front_was_valid = front_left_guard = False
    guard_limit = (1.0 - diag.guard) * g.half_width

    try:
        for i, t, state in clock.samples(initial_state(u0), rep.events):
            u, v = state.u, state.v
            rep.times.append(t)
            cols["mass"].append(lp_norm(u, 1))
            cols["l2"].append(lp_norm(u, 2))
            cols["linf"].append(lp_norm(u, math.inf))
            cols["min_u"].append(float(u.values.min()))
            radius = front_radius(u, level)
            valid = radius <= guard_limit
            cols["front_radius"].append(radius)
            cols["front_valid"].append(bool(valid))
            if valid:
                front_was_valid = True
            elif front_was_valid and not front_left_guard:
                # only a front that once fit in the box can outgrow it
                front_left_guard = True
                rep.events.append(
                    {
                        "t": t,
                        "kind": "front_beyond_guard",
                        "message": (
                            f"front radius {radius:.6g} exceeds "
                            f"(1 - guard) half_width = {guard_limit:.6g}"
                        ),
                    }
                )
            du, dv = equilibrium_distance(u, v, p)
            cols["dist_u_ab"].append(du)
            cols["dist_v_ab"].append(dv)

            cstar_val = math.nan
            # at a = 0 the floor 2 sqrt(a - chi v) - chi |grad v| is defined
            # only where rounding leaves v <= 0, so there is nothing to scan
            if valid and radius > 0.0 and p.a > 0.0:
                try:
                    scan = cstar_functional(u, v, p, _CSTAR_INNER_FACTOR * radius, state.grad_v)
                except ValueError:
                    scan = None
                if scan is not None:
                    rep.scan = (t, scan)
                    if math.isfinite(scan.speed_min):
                        cstar_val = scan.speed_min
            cols["cstar_min"].append(cstar_val)

            for check in checks:
                check.observe(t, u, v, rep)
            if diag.snapshot_every and i % diag.snapshot_every == 0:
                rep.snapshots.append({"t": t, "u": u.values, "v": v.values})
    except StepperError as e:
        rep.abort = {"kind": type(e).__name__, "t": e.t, "value": e.value, "message": str(e)}
        rep.events.append({"t": e.t, "kind": "abort", "message": str(e)})

    try:
        est = estimate_speed(rep.times, cols["front_radius"], cols["front_valid"])
        rep.speed = {
            "speed": est.speed,
            "stderr": est.stderr,
            "window": [est.window[0], est.window[1]],
            "n_samples": est.n_samples,
        }
    except ValueError as e:
        rep.speed_error = str(e)

    rep.checks = [check.verdict(rep) for check in checks]
    rep.wall_time = time.perf_counter() - t0_wall
    return rep


def output_root(outdir=None) -> Path:
    """Explicit argument, else KSLOGISTIC_OUTDIR, else ./out."""
    if outdir is not None:
        return Path(outdir)
    env = os.environ.get("KSLOGISTIC_OUTDIR")
    return Path(env) if env else Path("out")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return float.__repr__(float(x))
    return str(x)


def write_series_csv(report: Report, path) -> None:
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    for i, t in enumerate(report.times):
        lines.append(",".join([_fmt(float(t))] + [_fmt(report.series[name][i]) for name in CSV_COLUMNS[1:]]))
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


def emit_plot_data(report: Report, plots_dir) -> dict:
    """Write gnuplot-friendly two-column series files, snapshot tables,
    and a manifest into plots_dir, overwriting files of the same names;
    run_experiment decides whether a run's outputs may be replaced."""
    plots_dir = Path(plots_dir)
    plots_dir.mkdir(parents=True, exist_ok=True)
    g = report.scenario.grid
    dim = g.dim

    series_files = {}
    for label, values in report.series.items():
        fname = f"series_{label}.dat"
        lines = [f"# t {label}"]
        for t, v in zip(report.times, values):
            lines.append(f"{_fmt(float(t))} {_fmt(float(v) if v is not None else math.nan)}")
        (plots_dir / fname).write_text("\n".join(lines) + "\n")
        series_files[label] = fname

    snapshot_files = []
    # one row per point in C order: its coordinates, joined once, then u and v
    coords = list(map(" ".join, product(*(map(float.__repr__, ax.tolist()) for ax in g.axes))))
    for k, (snap, (u, v)) in enumerate(zip(report.snapshots, report._reprs())):
        fname = f"snapshot_{k:04d}.dat"
        rows = list(map(" ".join, zip(coords, u, v, strict=True)))
        if dim > 1:  # gnuplot blocks: a blank line closes each run of the last axis
            for i in range(g.n - 1, len(rows), g.n):
                rows[i] += "\n"
        head = f"# t = {float(snap['t'])!r}\n# {' '.join('xyz'[:dim])} u v\n"
        (plots_dir / fname).write_text(head + "\n".join(rows) + "\n")
        snapshot_files.append({"t": snap["t"], "file": fname})

    manifest = {
        "scenario": report.scenario.name,
        "dim": dim,
        "series_files": series_files,
        "snapshot_files": snapshot_files,
        "csv_columns": list(CSV_COLUMNS),
    }
    (plots_dir / "manifest.json").write_text(json.dumps(_jsonable(manifest), indent=2) + "\n")
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
    emit_plot_data(report, root / "plots")
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


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pool_size(n_scenarios: int, workers: int) -> int:
    """The workers run_many forks for n_scenarios, or 0 where it runs them in process."""
    size = min(workers, n_scenarios)
    return size if size >= 2 and "fork" in multiprocessing.get_all_start_methods() else 0


@contextmanager
def run_many(scenarios, workers: int, fn):
    """One zero-argument call per scenario, in input order, that returns
    fn(scenario) or raises what fn raised.

    Where _pool_size() is not 0, the calls read a pool of that many
    workers forked for the block, the longest runs (steps x n^dim)
    submitted first; the block's exit cancels what has not started and
    waits for the rest.
    Otherwise each call runs fn in process when it is made.
    """
    size = _pool_size(len(scenarios), workers)
    if not size:
        yield [partial(fn, sc) for sc in scenarios]
        return
    costs = [round(sc.control.t_end / sc.control.dt) * sc.grid.n**sc.grid.dim for sc in scenarios]
    pool = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"))
    try:
        order = sorted(range(len(scenarios)), key=costs.__getitem__, reverse=True)
        futures = {i: pool.submit(fn, scenarios[i]) for i in order}
        yield [futures[i].result for i in range(len(scenarios))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


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
    with run_many(variants, workers, _sweep_one) as calls:
        rows = [call() for call in calls]
    for v, row in zip(values, rows):
        row["value"] = v
    return rows
