"""Acceptance gate: one test per criterion declared in
acceptance.CRITERIA, in gate order.

Each test prints its criterion's verdict line (visible with -s, or in
the failure report otherwise) and asserts the verdict.  Criteria share
the module-level report cache inside kslogistic.acceptance, so the
seven bundled runs are computed once for the whole gate.  The later
tests check that elliptic_exactness reads a solve in every dimension
and the gradient resolvent that F uses, that operator_bounds reads
the propagator and flux weights of the step's own plan, that the run
criteria hold their runs' check configuration to what they certify,
and that the mutation battery catches a unit that always passes and
one that it has no case for.
"""

from dataclasses import replace

import numpy as np
import pytest

from kslogistic import acceptance, grid, stepper
from kslogistic.checks import CHECKS, Check
from kslogistic.diagnostics import CheckVerdict
from kslogistic.grid import DIMS, Field


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name):
    res = acceptance.run_one(name)
    print(res.line)
    assert res.passed, res.line


@pytest.mark.parametrize("dim", DIMS)
def test_elliptic_exactness_sees_an_error_in_each_dimension(monkeypatch, dim):
    exact = acceptance.solve

    def off_in_one_dim(f):
        v = exact(f)
        return Field(v.grid, v.values * (1.0 + 1e-9 * (v.grid.dim == dim)))

    monkeypatch.setattr(acceptance, "solve", off_in_one_dim)
    passed, detail = acceptance.crit_elliptic_exactness()
    assert not passed, detail


def test_elliptic_exactness_sees_a_corrupted_gradient_resolvent(monkeypatch):
    """grad (I - lap)^(-1) as i k / (1 + 2 |k|^2): v and every run's
    mass stay exact, only grad v, and so the drift in F, is off."""
    exact = grid._half_spectrum

    def corrupted(dim, n, L):
        hs = exact(dim, n, L)
        grad = hs.ik / (1.0 + 2.0 * hs.k2)
        return replace(hs, grad_resolvent=grad, masked_grad_resolvent=grad * hs.mask)

    monkeypatch.setattr(grid, "_half_spectrum", corrupted)
    stepper._plan.cache_clear()
    try:
        passed, detail = acceptance.crit_elliptic_exactness()
        assert not passed, detail
    finally:
        monkeypatch.undo()
        stepper._plan.cache_clear()
    passed, detail = acceptance.crit_elliptic_exactness()
    assert passed, detail


@pytest.mark.parametrize(
    "corrupt",
    [
        # the propagator without its e^(-t): contraction ratio 14.46,
        # divergence ratio 13.2
        lambda g, dt, plan: plan._replace(E=np.exp(-dt * g.half.k2).astype(complex)),
        # the flux weights doubled: divergence ratio 1.128 > 1.05
        lambda g, dt, plan: plan._replace(weights=2.0 * plan.weights),
    ],
    ids=["E_without_decay", "weights_doubled"],
)
def test_operator_bounds_reads_the_step_plan(monkeypatch, corrupt):
    exact = stepper._plan
    monkeypatch.setattr(acceptance, "_plan", lambda g, dt, b, chi: corrupt(g, dt, exact(g, dt, b, chi)))
    passed, detail = acceptance.crit_operator_bounds()
    assert not passed, detail


def _reconfigured(rep, name, cfg):
    """rep with check `name` configured as cfg and its verdict taken
    again on the same run."""
    sc = replace(rep.scenario, checks={**rep.scenario.checks, name: cfg})
    out = replace(rep, scenario=sc)
    out.checks = [CHECKS[name](sc.checks[name]).verdict(out) if v.name == name else v for v in rep.checks]
    return out


@pytest.mark.parametrize(
    "criterion, run, check, cfg",
    [
        ("fisher_speed", "fisher_1d", "speed_range", {"min": 1.0, "max": 3.0}),
        ("envelope_run", "envelope_1d", "envelope", {"tol": 4e-6}),
    ],
    ids=["fisher_band_widened", "envelope_tol_widened"],
)
def test_run_criterion_pins_its_check_configuration(criterion, run, check, cfg):
    """A widened check passes the same run, but the criterion fails."""
    rep = _reconfigured(acceptance.bundled_report(run), check, cfg)
    assert rep.ok and acceptance._verdict(rep, check).passed
    passed, detail = acceptance.CRITERIA[criterion](rep)
    assert not passed, detail


@pytest.mark.parametrize("name", ["speed_range", "equilibrium", "spreading_limits"])
def test_mutation_sanity_catches_a_unit_that_always_passes(monkeypatch, name):
    forced = CheckVerdict(name, True, True, 1.0, "forced")
    monkeypatch.setattr(CHECKS[name], "verdict", lambda self, run: forced)
    passed, detail = acceptance.crit_mutation_sanity()
    assert not passed and detail.endswith(f"MISSED: [{name!r}]"), detail


def test_mutation_sanity_names_a_unit_without_a_case(monkeypatch):
    class Dummy(Check):
        name = "dummy"

        def verdict(self, run):
            return CheckVerdict(self.name, True, True, 0.0, "")

    monkeypatch.setitem(CHECKS, "dummy", Dummy)
    passed, detail = acceptance.crit_mutation_sanity()
    assert not passed and detail.endswith("MISSED: ['dummy (no case)']"), detail
