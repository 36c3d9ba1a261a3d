"""Acceptance gate: one test per criterion declared in
acceptance.CRITERIA, in gate order.

Each test prints its criterion's verdict line (visible with -s, or in
the failure report otherwise) and asserts the verdict.  Criteria share
the module-level report cache inside kslogistic.acceptance, so the
seven bundled runs are computed once for the whole gate.  The last
test checks that elliptic_exactness reads a solve in every dimension.
"""

import pytest

from kslogistic import acceptance
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
