"""Screened-Poisson resolvent on the periodic box.

``solve`` inverts v - lap(v) = u, i.e. applies (I - lap)^(-1), as the
Fourier multiplier 1/(1 + |k|^2).  The underlying kernel is positive
with unit mass, so the output inherits pointwise bounds from the input:
min u <= v <= max u, and the mean is preserved exactly.

``grad_potential`` applies grad (I - lap)^(-1) in one pass.  Its
physical-space kernel has L1 norm 1 per component, which gives the
uniform bound ||grad v||_inf <= sqrt(dim) * ||u||_inf.
"""

from __future__ import annotations

from .grid import Field, require_finite

__all__ = ["solve", "grad_potential"]


def solve(u: Field) -> Field:
    """Apply (I - lap)^(-1) to u."""
    require_finite(u)
    g = u.grid
    return Field(g, g.apply(u.values, g.half.resolvent))


def grad_potential(u: Field) -> tuple[Field, ...]:
    """Components of grad (I - lap)^(-1) u.  Nyquist modes are dropped."""
    g = u.grid
    return tuple(Field(g, c) for c in g.apply(u.values, g.half.grad_resolvent))
