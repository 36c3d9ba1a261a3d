"""Screened-Poisson resolvent on the periodic box.

``solve`` inverts v - lap(v) = u, i.e. applies (I - lap)^(-1), as the
Fourier multiplier 1/(1 + |k|^2).  The underlying kernel is positive
with unit mass, so the output inherits pointwise bounds from the input:
min u <= v <= max u, and the mean is preserved exactly.

``grad_potential`` applies grad (I - lap)^(-1) in one pass.  Its
physical-space kernel has L1 norm 1 per component, which gives the
uniform bound ||grad v||_inf <= sqrt(dim) * ||u||_inf.

Both are a State's v and grad v, read-only: a check of them checks the
resolvent every run uses.
"""

from __future__ import annotations

from .grid import Field, require_finite
from .stepper import State

__all__ = ["solve", "grad_potential"]


def solve(u: Field) -> Field:
    """Apply (I - lap)^(-1) to u."""
    require_finite(u)
    return State(0.0, u).v


def grad_potential(u: Field) -> tuple[Field, ...]:
    """Components of grad (I - lap)^(-1) u.  Nyquist modes are dropped."""
    return State(0.0, u).grad_v
