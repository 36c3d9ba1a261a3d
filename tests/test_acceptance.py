"""Acceptance gate: one test per go/no-go criterion, run in order.

Each test prints its criterion's verdict line (visible with -s, or in
the failure report otherwise) and asserts the verdict.  Criteria share
the module-level report cache inside kslogistic.acceptance, so the
seven bundled runs are computed once for the whole gate.  The last
test checks that elliptic_exactness reads a solve in every dimension.
"""

import pytest

from kslogistic import acceptance
from kslogistic.grid import DIMS, Field


def _criterion(name: str) -> None:
    res = acceptance.run_one(name)
    print(res.line)
    assert res.passed, res.line


def test_01_elliptic_exactness():
    _criterion("elliptic_exactness")


def test_02_operator_bounds():
    _criterion("operator_bounds")


def test_03_sandwich_all_runs():
    _criterion("sandwich_all_runs")


def test_04_envelope_run():
    _criterion("envelope_run")


def test_05_mass_bounds():
    _criterion("mass_bounds")


def test_06_stability_run():
    _criterion("stability_run")


def test_07_fisher_speed():
    _criterion("fisher_speed")


def test_08_spreading_run():
    _criterion("spreading_run")


def test_09_l2_growth():
    _criterion("l2_growth")


def test_10_convergence_order():
    _criterion("convergence_order")


def test_11_mutation_sanity():
    _criterion("mutation_sanity")


@pytest.mark.parametrize("dim", DIMS)
def test_elliptic_exactness_sees_an_error_in_each_dimension(monkeypatch, dim):
    exact = acceptance.solve

    def off_in_one_dim(f):
        v = exact(f)
        return Field(v.grid, v.values * (1.0 + 1e-9 * (v.grid.dim == dim)))

    monkeypatch.setattr(acceptance, "solve", off_in_one_dim)
    passed, detail, _ = acceptance.crit_elliptic_exactness()
    assert not passed, detail
