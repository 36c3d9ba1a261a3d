"""The acceptance gate's machinery around its criteria: the bundled runs
each criterion declares, the process pool run_all computes them on, its
errors and cleanup, and the kernel quadrature of elliptic_exactness.

Tests that take the pool path give it two usable CPUs and an empty
report cache, so they neither depend on the machine nor fill the cache
that tests/test_acceptance.py shares.
"""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

import kslogistic
from kslogistic import acceptance, harness
from kslogistic.cli import main
from kslogistic.grid import Field
from kslogistic.harness import HarnessError
from kslogistic.helmholtz import solve
from kslogistic.scenario import bundled_scenario_path, load_scenario

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="run_all computes in process where fork is unavailable",
)


@pytest.fixture
def pool_path(monkeypatch):
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(acceptance, "_REPORTS", {})


def _no_futures_left() -> bool:
    return not any(isinstance(v, Future) for v in acceptance._REPORTS.values())


def test_import_does_not_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kslogistic.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, kslogistic.acceptance, kslogistic.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_kernel_quadrature_alone_flags_a_resolvent_off_by_1e_5(monkeypatch):
    assert acceptance._kernel_quadrature_error() <= 1e-12
    monkeypatch.setattr(
        acceptance, "solve", lambda f: Field(f.grid, solve(f).values * (1.0 + 1e-5))
    )
    assert acceptance._kernel_quadrature_error() > 1e-6


def test_each_criterion_reads_the_runs_it_declares(monkeypatch):
    real = acceptance.bundled_report
    for name, criterion in acceptance.CRITERIA.items():
        calls = []

        def recording(run_name, calls=calls):
            calls.append(run_name)
            return real(run_name)

        monkeypatch.setattr(acceptance, "bundled_report", recording)
        criterion()
        assert sorted(set(calls)) == sorted(acceptance.runs_read(name)), name


def test_only_starts_no_run_for_criteria_that_read_none(pool_path, capsys):
    assert main(["verify-all", "--only", "elliptic_exactness", "convergence_order"]) == 0
    assert acceptance._REPORTS == {}
    assert not any(line.startswith("bundled runs:") for line in capsys.readouterr().out.splitlines())


@needs_fork
def test_pool_reports_equal_in_process_reports(pool_path):
    names = ["mass_decay_1d", "twod_smoke"]
    prefetch = acceptance._Prefetch(names)
    try:
        futures = [acceptance._REPORTS[n] for n in names]
        assert all(isinstance(f, Future) for f in futures)
        for f in futures:
            f.result(timeout=120)
        pooled = {n: acceptance.bundled_report(n) for n in names}
    finally:
        prefetch.close()
    assert multiprocessing.active_children() == []
    assert pooled["twod_smoke"].snapshots
    for n in names:
        local = harness.run(load_scenario(bundled_scenario_path(n)))
        assert pooled[n].to_json(include_wall_time=False) == local.to_json(include_wall_time=False), n


@needs_fork
def test_run_all_prints_the_pool_line_and_leaves_no_worker(pool_path):
    lines = []
    results = acceptance.run_all(["fisher_speed", "elliptic_exactness", "l2_growth"], echo=lines.append)
    assert [r.passed for r in results] == [True, True, True]
    assert multiprocessing.active_children() == []
    assert _no_futures_left() and set(acceptance._REPORTS) == {"fisher_1d", "spreading_1d"}
    pool = [line for line in lines if line.startswith("bundled runs:")]
    assert len(pool) == 1 and pool[0].startswith("bundled runs: 2 on 2 workers, ")
    # printed once the last run is read: before the verdict of l2_growth
    assert lines.index(pool[0]) == 2 and lines[3].startswith("[PASS] l2_growth")
    assert lines[-1] == "3/3 criteria passed"


@needs_fork
def test_no_worker_outlives_a_failing_criterion(pool_path, monkeypatch):
    def forced_fail():
        acceptance.bundled_report("fisher_1d")
        return False, "forced failure", None

    monkeypatch.setitem(acceptance.CRITERIA, "fisher_speed", forced_fail)
    results = acceptance.run_all(["fisher_speed", "envelope_run"])
    assert [r.passed for r in results] == [False, True]
    assert multiprocessing.active_children() == []
    assert _no_futures_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_raising_run_surfaces_in_its_first_reader(monkeypatch, capsys, cpus):
    """The in-process path (one CPU) and the pool give the same message
    and exit status, and the pool leaves no worker and no future.  The
    replaced run is a closure, which pickle cannot send: the pool must
    not need to, as under a tracer that wraps harness.run."""
    if cpus > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no pool without fork")

    def _raising_run(scenario):
        if scenario.name == "envelope_1d":
            raise HarnessError("envelope_1d: forced failure")
        return harness.run(scenario)

    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(acceptance, "_REPORTS", {})
    monkeypatch.setattr(acceptance, "run", _raising_run)
    rc = main(["verify-all", "--only", "fisher_speed", "envelope_run", "stability_run"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == "error: envelope_1d: forced failure\n"
    assert out.startswith("[PASS] fisher_speed") and "envelope_run" not in out
    assert multiprocessing.active_children() == []
    assert _no_futures_left() and "envelope_1d" not in acceptance._REPORTS
