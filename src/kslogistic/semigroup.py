"""The linear propagator T(t) = e^(-t) * (heat semigroup at time t).

T(t) solves w_t = lap(w) - w, so its Fourier multiplier is
exp(-t * (1 + |k|^2)).  Facts the tests lean on:

* contraction: ||T(t) f||_inf <= e^(-t) ||f||_inf, with equality on
  constants;
* positivity: the periodized kernel is a theta function, positive for
  every t > 0;
* smoothing of divergences: ||T(t) div w||_inf is bounded by
  (dim / sqrt(pi)) * t^(-1/2) * e^(-t) * max_x |w(x)|, the per-axis
  L1 norm of the differentiated kernel summed over components.

No code in the package calls this module: runs step with the
stepper's plan, whose propagator the acceptance gate checks against
these bounds directly.  It stays for the benchmark's tracer tests,
which import it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import Field

__all__ = ["apply_T", "apply_T_div"]


def apply_T(t: float, f: Field) -> Field:
    """Apply T(t).  t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    g = f.grid
    return Field(g, g.irfft(np.exp(-t * (1.0 + g.half.k2)) * g.rfft(f.values)))


def apply_T_div(t: float, w: Sequence[Field]) -> Field:
    """Apply T(t) to div w in one spectral pass, all components
    transformed in one call.  Needs t > 0."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not w or len(w) != w[0].grid.dim:
        raise ValueError(f"expected one component per axis, got {len(w)}")
    g = w[0].grid
    if any(comp.grid is not g and comp.grid != g for comp in w):
        raise ValueError("components live on different grids")
    coef = np.sum(g.half.ik * g.rfft(np.stack([comp.values for comp in w])), axis=0)
    return Field(g, g.irfft(np.exp(-t * (1.0 + g.half.k2)) * coef))
