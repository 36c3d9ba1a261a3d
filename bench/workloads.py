"""The four workloads: inputs drawn from the seed, set-up, one
repetition, and the checks on its outputs.

The seed moves initial data and sweep values only; grid sizes, time
steps and run lengths are fixed, so every seed does the same amount of
work.  A repetition returns whatever its checks need; ``check`` returns
(failures, problems): one line per operation that failed, and one per
check that did not hold on an operation that did not fail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: chi values of the sweep before the seed's jitter; all lie inside the
#: spreading regime chi < 2 b / (3 + sqrt(1 + a)) = 0.453 for a = b = 1
SWEEP_BASE = (0.0, 0.1, 0.2, 0.3, 0.4)
SWEEP_JITTER = 0.025


def child_env() -> dict:
    """The environment of a child interpreter: kslogistic from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _dump_yaml(data: dict, path: Path) -> Path:
    import yaml

    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _num(x) -> float:
    return math.nan if x is None else float(x)


def _same(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _series_csv_matches(report: dict, path: Path) -> list:
    """series.csv must hold exactly the report's times and series."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if len(body) != len(report["times"]):
        return [f"series.csv has {len(body)} rows, report has {len(report['times'])} samples"]
    for c, col in enumerate(header):
        want = report["times"] if col == "t" else report["series"][col]
        for r, row in enumerate(body):
            got = float(row[c])
            ref = _num(want[r])
            if not _same(got, ref):
                return [f"series.csv {col}[{r}] = {got!r}, report has {ref!r}"]
    return []


class Workload:
    name = ""
    #: operations attempted by one repetition
    ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Load the scenarios and build the grids and initial data."""
        raise NotImplementedError

    def rep(self):
        raise NotImplementedError

    def check(self, outcome) -> tuple:
        raise NotImplementedError

    def reset_outputs(self) -> None:
        """Remove a repetition's files, outside the timed region."""
        out = self.workdir / "out"
        if out.exists():
            shutil.rmtree(out)

    def output_bytes(self) -> int:
        out = self.workdir / "out"
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0

    @staticmethod
    def _realize_all(scenarios) -> None:
        from kslogistic import make_grid, realize

        for sc in scenarios:
            g = make_grid(sc.grid.dim, sc.grid.n, sc.grid.half_width)
            realize(sc.ic, g, guard=sc.diagnostics.guard)


class Long1D(Workload):
    """``kslogistic run envelope_1d`` with the Gaussian's height and
    width drawn from the seed, outputs written."""

    name = "long_1d"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = self.rng.uniform(2.8, 3.2)
        self.width = self.rng.uniform(2.7, 3.3)

    def setup(self):
        import yaml
        from kslogistic import bundled_scenario_path, load_scenario

        data = yaml.safe_load(bundled_scenario_path("envelope_1d").read_text())
        data["ic"].update(amplitude=self.amplitude, width=self.width)
        self.path = _dump_yaml(data, self.workdir / "envelope_1d.yaml")
        self.scenario = load_scenario(self.path)
        self._realize_all([self.scenario])

    def rep(self):
        from kslogistic import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["run", str(self.path), "--out", str(self.workdir / "out")])
        return rc, buf.getvalue()

    def check(self, outcome):
        import numpy as np

        rc, text = outcome
        run_dir = self.workdir / "out" / "envelope_1d"
        if rc != 0 or "overall: ok" not in text:
            return [f"kslogistic run exited {rc}: {text[-300:]}"], []
        report = json.loads((run_dir / "report.json").read_text())
        problems = _series_csv_matches(report, run_dir / "series.csv")
        p, g = report["scenario"]["params"], report["scenario"]["grid"]
        a, damping = p["a"], p["b"] - p["chi"]
        m0 = self.amplitude  # the Gaussian peaks on the grid point x = 0
        h = 2.0 * g["half_width"] / g["n"]
        x = -g["half_width"] + h * np.arange(g["n"])
        mass0 = h * float(np.sum(m0 * np.exp(-(x**2) / (2 * self.width**2))))
        if not _close(report["series"]["mass"][0], mass0, 1e-12):
            problems.append(f"mass(0) {report['series']['mass'][0]!r} != quadrature {mass0!r}")
        for t, sup, mass in zip(report["times"], report["series"]["linf"], report["series"]["mass"]):
            grow = math.exp(a * t)
            envelope = m0 * grow / (1.0 + damping * m0 * (grow - 1.0) / a)
            if sup > envelope + 1e-9 * (1.0 + m0):
                problems.append(f"sup u {sup!r} above the envelope {envelope!r} at t={t}")
                break
            if mass > mass0 * grow * (1.0 + 1e-9):
                problems.append(f"mass {mass!r} above mass(0) e^(a t) at t={t}")
                break
        return [], problems


class ChiSweep(Workload):
    """``harness.sweep`` of spreading_1d over params.chi, one worker."""

    name = "chi_sweep"
    ops = len(SWEEP_BASE)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.values = [0.0] + [
            round(c + self.rng.uniform(-SWEEP_JITTER, SWEEP_JITTER), 4) for c in SWEEP_BASE[1:]
        ]

    def setup(self):
        from kslogistic import bundled_scenario_path, load_scenario
        from kslogistic.scenario import with_value

        self.scenario = load_scenario(bundled_scenario_path("spreading_1d"))
        self._realize_all(with_value(self.scenario, "params.chi", v) for v in self.values)
        self.a = self.scenario.params.a
        self.b = self.scenario.params.b
        self.dim = self.scenario.grid.dim

    def rep(self):
        from kslogistic import sweep

        return sweep(self.scenario, "params.chi", self.values, workers=1)

    def floor(self, chi: float) -> float:
        """The paper's spreading-speed floor 2 sqrt(a - chi q) - chi sqrt(N) q."""
        q = self.a / (self.b - chi)
        return 2.0 * math.sqrt(self.a - chi * q) - chi * math.sqrt(self.dim) * q

    def check(self, rows):
        failures = [f"chi={r['value']}: {r['status']} {r['message']}" for r in rows if r["status"] != "ok"]
        problems = []
        for row in rows:
            chi, speed = row["value"], row["speed"]
            if row["status"] != "ok" or speed is None:
                continue
            if chi == 0.0:
                target = 2.0 * math.sqrt(self.a)
                if abs(speed - target) > 0.1 * target:
                    problems.append(f"chi=0 speed {speed:.4f} not within 10% of 2 sqrt(a)")
            elif speed < self.floor(chi):
                problems.append(f"chi={chi}: speed {speed:.4f} below the floor {self.floor(chi):.4f}")
        return failures, problems


class Front2D(Workload):
    """A 2-D chemotactic front from a Gaussian bump, snapshots on,
    written through ``run_experiment``.  front_2d.yaml holds the fixed
    part; the seed draws the bump's height and width."""

    name = "front_2d"
    ops = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = self.rng.uniform(0.8, 1.2)
        self.width = self.rng.uniform(1.6, 2.4)

    def setup(self):
        import yaml
        from kslogistic import load_scenario

        data = yaml.safe_load((BENCH_DIR / "front_2d.yaml").read_text())
        data["ic"].update(amplitude=self.amplitude, width=self.width)
        self.scenario = load_scenario(_dump_yaml(data, self.workdir / "front_2d.yaml"))
        self._realize_all([self.scenario])

    def rep(self):
        from kslogistic import run_experiment

        report, _paths = run_experiment(self.scenario, outdir=self.workdir / "out")
        return report.ok

    def check(self, ok):
        """The run is one operation; the snapshot tables it writes are
        the second."""
        import numpy as np

        run_dir = self.workdir / "out" / self.scenario.name
        report = json.loads((run_dir / "report.json").read_text())
        failures = [] if ok and report["ok"] else ["run not ok"]
        problems = _series_csv_matches(report, run_dir / "series.csv")
        plots = run_dir / "plots"
        manifest = json.loads((plots / "manifest.json").read_text())
        for label, fname in manifest["series_files"].items():
            if np.loadtxt(plots / fname).shape != (len(report["times"]), 2):
                problems.append(f"{fname} does not hold the {label} series")
        g = report["scenario"]["grid"]
        n, L = g["n"], g["half_width"]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
        symbol = 1.0 + k[:, None] ** 2 + k[None, :] ** 2
        snaps = report["snapshots"]
        if len(snaps) != 5 or len(manifest["snapshot_files"]) != len(snaps):
            problems.append(f"{len(snaps)} snapshots, manifest lists {len(manifest['snapshot_files'])}")
        unreadable = []
        for snap, entry in zip(snaps, manifest["snapshot_files"]):
            u, v = np.asarray(snap["u"]), np.asarray(snap["v"])
            tol = 1e-12 * (1.0 + np.abs(u).max())
            v_ref = np.fft.ifft2(np.fft.fft2(u) / symbol).real
            t = snap["t"]
            if np.abs(v - v_ref).max() > tol:
                problems.append(f"t={t}: v differs from (I - lap)^-1 u by {np.abs(v - v_ref).max():.2e}")
            if v.min() < u.min() - tol or v.max() > u.max() + tol:
                problems.append(f"t={t}: v leaves [min u, max u]")
            if np.abs(u - u.T).max() > 1e-9:
                problems.append(f"t={t}: u asymmetric under x <-> y by {np.abs(u - u.T).max():.2e}")
            try:
                table = np.loadtxt(plots / entry["file"])
            except ValueError as e:
                unreadable.append(f"{entry['file']}: {e}")
                continue
            if table.shape != (n * n, 4) or not np.array_equal(table[:, 2], u.ravel()):
                problems.append(f"{entry['file']} does not hold the snapshot at t={t}")
        if unreadable:
            failures.append(f"snapshot tables do not parse: {unreadable[0]}")
        return failures, problems


class Gate(Workload):
    """``kslogistic verify-all`` in a fresh process.  It has no inputs,
    so the seed changes nothing."""

    name = "gate"
    ops = 11

    def setup(self):
        import kslogistic.acceptance  # noqa: F401  (part of what the gate imports)
        from kslogistic import bundled_scenario_names, bundled_scenario_path, load_scenario

        self._realize_all(load_scenario(bundled_scenario_path(n)) for n in bundled_scenario_names())

    def rep(self):
        proc = subprocess.run([sys.executable, "-m", "kslogistic.cli", "verify-all"],
                              env=child_env(), cwd=self.workdir,
                              capture_output=True, text=True, timeout=150)
        return proc.returncode, proc.stdout + proc.stderr

    def check(self, outcome):
        rc, text = outcome
        lines = text.splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        failures = [line for line in lines if line.startswith("[FAIL]")]
        problems = []
        if passed + len(failures) != self.ops or (rc == 0) != (not failures):
            problems.append(f"verify-all exited {rc} with {passed} PASS lines: {text[-400:]}")
        return failures, problems


WORKLOADS = {w.name: w for w in (Long1D, ChiSweep, Front2D, Gate)}
