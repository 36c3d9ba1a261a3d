"""Model parameters for the chemotaxis system with logistic growth.

chi is the sensitivity of the drift toward the attractant, a the linear
growth rate, b the quadratic damping.  b > 0 is required throughout;
chi and a only need to be nonnegative.  dim is N in R^N, one of
``grid.DIMS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_dim

__all__ = ["Params"]


@dataclass(frozen=True)
class Params:
    chi: float
    a: float
    b: float
    dim: int = 1

    def __post_init__(self) -> None:
        for name in ("chi", "a", "b"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.chi < 0:
            raise ValueError(f"chi must be nonnegative, got {self.chi}")
        if self.a < 0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        check_dim(self.dim)
