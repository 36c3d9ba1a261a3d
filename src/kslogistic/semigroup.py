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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import Field, divergence_hat

__all__ = ["heat_kernel", "apply_T", "apply_T_div"]


def heat_kernel(x: np.ndarray, t: float, dim: int) -> np.ndarray:
    """Gaussian (4 pi t)^(-dim/2) exp(-|x|^2 / (4t)).

    For dim == 1, ``x`` is any array of positions.  For dim == 2 the
    last axis of ``x`` must hold the two components.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    x = np.asarray(x, dtype=np.float64)
    if dim == 1:
        r2 = x**2
    else:
        if x.shape[-1] != dim:
            raise ValueError(f"last axis of x must have length {dim}")
        r2 = np.sum(x**2, axis=-1)
    return (4.0 * np.pi * t) ** (-dim / 2.0) * np.exp(-r2 / (4.0 * t))


def apply_T(t: float, f: Field) -> Field:
    """Apply T(t).  t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    g = f.grid
    return Field(g, g.apply(f.values, np.exp(-t * (1.0 + g.half.k2))))


def apply_T_div(t: float, w: Sequence[Field]) -> Field:
    """Apply T(t) to div w in one spectral pass.  Needs t > 0."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    g, coef = divergence_hat(w)
    return Field(g, g.irfft(np.exp(-t * (1.0 + g.half.k2)) * coef))
