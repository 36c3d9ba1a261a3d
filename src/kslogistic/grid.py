"""Periodic grids, physical fields, and spectral transforms.

Conventions used by every module in this package:

* The domain is the box [-L, L)^dim sampled on n uniform points per
  axis, spacing h = 2*L/n.  Arrays are C-ordered; axis i indexes
  coordinate x_i.
* Forward transforms divide by n**dim, so the k = 0 coefficient equals
  the field mean and Fourier-multiplier algebra needs no rescaling.
* The rfftn half-spectrum is the only spectral layout: leading axes
  hold every mode in standard FFT ordering, the last axis keeps
  j = 0 .. n/2.  ``Grid.rfft``/``Grid.irfft`` move real fields in and
  out of it, and ``Grid.half`` holds its multipliers.  This module is
  the only one that knows the mode numbering.
* Wavenumbers are k_j = pi*j/L; the largest magnitude is pi*(n/2)/L.
* Odd-derivative multipliers zero the Nyquist mode (it has no conjugate
  partner, so a first derivative would break Hermitian symmetry).
* Dealiasing uses the 2/3 rule: modes with max_axis |j| > n//3 are
  dropped before and after quadratic products.
* ``to_spectral`` exports the full complex spectrum for inspection
  only; nothing here consumes that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DIMS",
    "check_dim",
    "Grid",
    "Field",
    "NonFiniteFieldError",
    "make_grid",
    "to_spectral",
    "require_finite",
]


#: Spatial dimensions N of R^N that every module serves.
DIMS = (1, 2, 3)


def check_dim(dim: int) -> None:
    if dim not in DIMS:
        raise ValueError(f"dim must be one of {', '.join(map(str, DIMS))}, got {dim}")


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf where finite data is required."""


@dataclass(frozen=True)
class HalfSpectrum:
    """Fourier multipliers on the rfftn half-spectrum of a grid; per-axis
    ones are stacked along a leading axis of length dim.

    modes : max_axis |j|, the integer mode index
    k2 : |k|^2
    ik : i*k per axis, Nyquist entries zeroed
    mask : 1.0 on modes kept by the 2/3 rule (modes <= n//3), else 0.0
    resolvent : 1/(1 + |k|^2), the multiplier of (I - lap)^(-1)
    grad_resolvent : i*k/(1 + |k|^2) per axis
    masked_grad_resolvent : grad_resolvent times mask
    """

    modes: np.ndarray
    k2: np.ndarray
    ik: np.ndarray
    mask: np.ndarray
    resolvent: np.ndarray
    grad_resolvent: np.ndarray
    masked_grad_resolvent: np.ndarray

    def __post_init__(self) -> None:
        # equal grids share one instance, so no caller may write to it
        for arr in vars(self).values():
            arr.flags.writeable = False


@lru_cache(maxsize=16)
def _half_spectrum(dim: int, n: int, L: float) -> HalfSpectrum:
    # mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1; the
    # last axis keeps the first n/2 + 1 of them, read as j = 0 .. n/2
    j = np.rint(np.fft.fftfreq(n, d=1.0 / n))
    m = np.stack(np.meshgrid(*([j] * (dim - 1)), np.abs(j[: n // 2 + 1]), indexing="ij"))
    k = (np.pi / L) * m
    k2 = sum(ka**2 for ka in k)
    ik = np.where(np.abs(m) == n // 2, 0.0, 1j * k)
    modes = np.max(np.abs(m), axis=0).astype(np.intp)
    mask = (modes <= n // 3).astype(np.float64)
    grad_resolvent = ik / (1.0 + k2)
    return HalfSpectrum(
        modes, k2, ik, mask, 1.0 / (1.0 + k2), grad_resolvent, grad_resolvent * mask
    )


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, one of ``DIMS``.
    n : int
        Points per axis.  Must be even and at least 4 so the Nyquist
        mode and the 2/3-rule band are well defined.
    half_width : float
        L, half the box edge.  Must be positive.

    Attributes derived at construction (not constructor arguments):

    h : float
        Grid spacing 2*L/n.
    axes : tuple of ndarray
        Per-axis coordinates, each ``-L + h*arange(n)``.

    Spectral work uses one layout, the rfftn half-spectrum: ``rfft``
    and ``irfft`` transform into and out of it, and ``half`` holds its
    multipliers, built once per (dim, n, L) and shared, as is the
    |x| mesh ``radius``.
    """

    dim: int
    n: int
    half_width: float

    h: float = field(init=False, repr=False, compare=False)
    axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        L = float(self.half_width)
        h = 2.0 * L / self.n
        if not (np.isfinite(h) and L > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "axes", tuple(-L + h * np.arange(self.n) for _ in range(self.dim)))

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h**dim of one grid cell."""
        return self.h**self.dim

    @property
    def half(self) -> HalfSpectrum:
        """Multipliers on the half-spectrum layout, shared by equal grids."""
        return _half_spectrum(self.dim, self.n, float(self.half_width))

    @property
    def radius(self) -> np.ndarray:
        """|x| at every grid point, read-only and shared by equal grids."""
        return _radius_mesh(self)

    def rfft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward real transform over the last dim axes (leading axes
        batch), divided by n**dim so the k = 0 coefficient is the mean.
        With out, the coefficients are written there and out is returned.
        In 1-D this is rfft, which costs less per call than rfftn over
        one axis and gives the same bits."""
        if self.dim == 1:
            return np.fft.rfft(values, norm="forward", out=out)
        return np.fft.rfftn(values, axes=tuple(range(-self.dim, 0)), norm="forward", out=out)

    def irfft(self, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of ``rfft``, batched over leading axes the same way,
        into out when given.  The length n is passed explicitly, so an
        odd length is never inferred from the n/2 + 1 coefficients.
        Beyond 1-D this is irfftn: numpy's irfft2 does not pass out on."""
        if self.dim == 1:
            return np.fft.irfft(coef, self.n, norm="forward", out=out)
        return np.fft.irfftn(coef, self.shape, axes=tuple(range(-self.dim, 0)), norm="forward", out=out)


@lru_cache(maxsize=16)
def _radius_mesh(grid: Grid) -> np.ndarray:
    r = np.sqrt(sum(X**2 for X in np.meshgrid(*grid.axes, indexing="ij")))
    r.flags.writeable = False
    return r


@dataclass(frozen=True)
class Field:
    """Real scalar samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)


def make_grid(dim: int, n: int, half_width: float) -> Grid:
    """Build a periodic grid on [-half_width, half_width)^dim."""
    return Grid(dim=dim, n=n, half_width=half_width)


def require_finite(f: Field, context: str = "field") -> None:
    if not np.all(np.isfinite(f.values)):
        bad = int(np.size(f.values) - np.count_nonzero(np.isfinite(f.values)))
        raise NonFiniteFieldError(f"{context} has {bad} non-finite entries")


def to_spectral(f: Field) -> np.ndarray:
    """The full complex spectrum of f in FFT order, for inspection; the
    k = 0 coefficient equals the field mean."""
    require_finite(f)
    return np.fft.fftn(f.values, norm="forward")

