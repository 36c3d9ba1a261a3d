"""Periodic grids, physical fields, and spectral transforms.

Conventions used by every module in this package:

* The domain is the box [-L, L)^dim sampled on n uniform points per
  axis, spacing h = 2*L/n.  Arrays are C-ordered; axis i indexes
  coordinate x_i.
* Forward transforms divide by n**dim, so the k = 0 coefficient equals
  the field mean and Fourier-multiplier algebra needs no rescaling.
* Wavenumbers are k_j = pi*j/L in standard FFT ordering.  The largest
  magnitude is pi*(n/2)/L, stored as the negative frequency.
* Odd-derivative multipliers zero the Nyquist mode (it has no conjugate
  partner, so a first derivative would break Hermitian symmetry).
* Dealiasing uses the 2/3 rule: per axis, modes with |j| > n//3 are
  dropped before and after quadratic products.
* Real fields are transformed internally to the rfftn half-spectrum
  (last axis keeps j = 0 .. n/2), whose multipliers ``Grid.half`` holds;
  ``SpectralField``, ``to_spectral`` and ``to_physical`` keep the full layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "NonFiniteFieldError",
    "make_grid",
    "to_spectral",
    "to_physical",
    "gradient",
    "divergence",
    "laplacian",
    "require_finite",
]

#: imaginary residual above this (relative to the real part) means the
#: coefficients were not Hermitian-symmetric
_HERMITIAN_RTOL = 1e-10


class NonFiniteFieldError(ValueError):
    """A field contains NaN or Inf where finite data is required."""


def _multipliers(dim: int, n: int, L: float, half: bool) -> tuple:
    """|k|^2, broadcastable i*k per axis with Nyquist entries zeroed, and
    the 2/3-rule mask, on the full spectrum or, with ``half``, on the
    rfftn half-spectrum."""
    j = np.rint(np.fft.fftfreq(n, d=1.0 / n))
    last = np.abs(j[: n // 2 + 1]) if half else j
    modes = np.meshgrid(*([j] * (dim - 1)), last, indexing="ij", sparse=True)
    k = [(np.pi / L) * m for m in modes]
    ik = tuple(np.where(np.abs(m) == n // 2, 0.0, 1j * ka) for m, ka in zip(modes, k))
    keep = np.all(np.broadcast_arrays(*(np.abs(m) <= n // 3 for m in modes)), axis=0)
    return sum(ka**2 for ka in k), ik, keep


@dataclass(frozen=True)
class HalfSpectrum:
    """Fourier multipliers on the rfftn half-spectrum of a grid; per-axis
    ones are stacked along a leading axis of length dim.

    k2 : |k|^2
    ik : i*k per axis, Nyquist entries zeroed
    mask : 1.0 on modes kept by the 2/3 rule, else 0.0
    resolvent : 1/(1 + |k|^2), the multiplier of (I - lap)^(-1)
    grad_resolvent : i*k/(1 + |k|^2) per axis
    masked_grad_resolvent : grad_resolvent times mask
    """

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
    k2, ik, keep = _multipliers(dim, n, L, half=True)
    ik = np.stack(np.broadcast_arrays(*ik))
    mask = keep.astype(np.float64)
    grad_resolvent = ik / (1.0 + k2)
    return HalfSpectrum(k2, ik, mask, 1.0 / (1.0 + k2), grad_resolvent, grad_resolvent * mask)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
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
    wavenumbers : tuple of ndarray
        Per-axis k_j = pi*j/L in FFT order.
    k2 : ndarray
        Dense |k|^2 mesh, shape ``shape``.
    ik : tuple of ndarray
        Broadcastable first-derivative multipliers i*k per axis with
        the Nyquist entry zeroed.
    dealias_mask : ndarray of bool
        True on modes kept by the 2/3 rule (|j| <= n//3 per axis).
    """

    dim: int
    n: int
    half_width: float

    h: float = field(init=False, repr=False, compare=False)
    axes: tuple = field(init=False, repr=False, compare=False)
    wavenumbers: tuple = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    ik: tuple = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")

        L = float(self.half_width)
        h = 2.0 * L / self.n
        k2, ik, keep = _multipliers(self.dim, self.n, L, half=False)
        # mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
        k1 = (np.pi / L) * np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n))
        for name, value in (
            ("h", h),
            ("axes", tuple(-L + h * np.arange(self.n) for _ in range(self.dim))),
            ("wavenumbers", tuple(k1.copy() for _ in range(self.dim))),
            ("k2", k2),
            ("ik", ik),
            ("dealias_mask", keep),
        ):
            object.__setattr__(self, name, value)

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

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Forward real transform over the last dim axes (leading axes
        batch), normalized like ``to_spectral``."""
        if self.dim == 1:
            return sfft.rfft(values, norm="forward")
        return sfft.rfft2(values, norm="forward")

    def irfft(self, coef: np.ndarray) -> np.ndarray:
        """Inverse of ``rfft``, batched over leading axes the same way."""
        if self.dim == 1:
            return sfft.irfft(coef, n=self.n, norm="forward")
        return sfft.irfft2(coef, s=self.shape, norm="forward")

    def apply(self, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        """Real field (or batch) times a half-spectrum multiplier (or a
        stack of them), back in physical space."""
        return self.irfft(multiplier * self.rfft(values))


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


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients in standard FFT layout."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.complex128)
        if coef.shape != self.grid.shape:
            raise ValueError(
                f"coefficients shape {coef.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coefficients", coef)


def make_grid(dim: int, n: int, half_width: float) -> Grid:
    """Build a periodic grid on [-half_width, half_width)^dim."""
    return Grid(dim=dim, n=n, half_width=half_width)


def require_finite(f: Field | SpectralField, context: str = "field") -> None:
    data = f.values if isinstance(f, Field) else f.coefficients
    if not np.all(np.isfinite(data)):
        bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
        raise NonFiniteFieldError(f"{context} has {bad} non-finite entries")


def to_spectral(f: Field) -> SpectralField:
    """Forward transform.  The k = 0 coefficient equals the field mean."""
    require_finite(f)
    return SpectralField(f.grid, sfft.fftn(f.values, norm="forward"))


def to_physical(s: SpectralField) -> Field:
    """Inverse transform, returning the real part.

    Raises ValueError when the coefficients are measurably non-Hermitian
    (imaginary residual above 1e-10 relative to the real amplitude).
    """
    w = sfft.ifftn(s.coefficients, norm="forward")
    scale = float(np.max(np.abs(w.real))) if w.size else 0.0
    resid = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if resid > _HERMITIAN_RTOL * (1.0 + scale):
        raise ValueError(
            f"coefficients are not Hermitian-symmetric: imaginary residual {resid:.3e} "
            f"against real amplitude {scale:.3e}"
        )
    return Field(s.grid, np.ascontiguousarray(w.real))


def gradient(f: Field | SpectralField) -> tuple[Field, ...]:
    """Spectral gradient, one Field per axis.  Nyquist modes are dropped."""
    g = f.grid
    if isinstance(f, SpectralField):
        return tuple(
            to_physical(SpectralField(g, g.ik[a] * f.coefficients)) for a in range(g.dim)
        )
    return tuple(Field(g, c) for c in g.apply(f.values, g.half.ik))


def divergence(w: Sequence[Field]) -> Field:
    """Spectral divergence of a vector field given as per-axis components."""
    g, coef = divergence_hat(w)
    return Field(g, g.irfft(coef))


def divergence_hat(w: Sequence[Field]) -> tuple[Grid, np.ndarray]:
    """The grid and the half-spectrum of div w, all components
    transformed in one call."""
    if len(w) == 0:
        raise ValueError("divergence needs at least one component")
    g = w[0].grid
    if len(w) != g.dim:
        raise ValueError(f"expected {g.dim} components, got {len(w)}")
    if any(comp.grid is not g and comp.grid != g for comp in w):
        raise ValueError("components live on different grids")
    wh = g.rfft(np.stack([comp.values for comp in w]))
    return g, np.sum(g.half.ik * wh, axis=0)


def laplacian(f: Field | SpectralField) -> Field:
    """Spectral Laplacian (multiplier -|k|^2, Nyquist retained)."""
    g = f.grid
    if isinstance(f, SpectralField):
        return to_physical(SpectralField(g, -g.k2 * f.coefficients))
    return Field(g, g.apply(f.values, -g.half.k2))
