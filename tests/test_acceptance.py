"""Acceptance gate: one test per criterion declared in
acceptance.CRITERIA, in gate order.

Each test prints its criterion's verdict line (visible with -s, or in
the failure report otherwise) and asserts the verdict.  Criteria share
the module-level report cache inside kslogistic.acceptance, so the
seven bundled runs are computed once for the whole gate.  The last
tests check that elliptic_exactness reads a solve in every dimension
and the gradient resolvent that F uses, and that operator_bounds reads
the propagator and flux weights of the step's own plan.
"""

from dataclasses import replace

import numpy as np
import pytest

from kslogistic import acceptance, grid, stepper
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
