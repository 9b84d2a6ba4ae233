"""Periodic uniform grids in 1D/2D with spectral differentiation and quadrature.

Fields are plain numpy arrays of shape ``grid.shape``; the grid object carries
the geometry and the cached wavenumber layout. All derivatives are FFT-based,
hence exact (to rounding) on resolvable Fourier modes. The Nyquist mode is
zeroed for odd-order derivatives, the standard symmetric convention.

Every transform of the package goes through the four functions of this
module's transform layer, built on ``numpy.fft`` (NumPy >= 2.0 for ``out=``).
They act on the last ``grid.dimension`` axes, so a stack of fields is one call:

- :func:`fft_stack` / :func:`ifft_stack` transform a complex stack in place.
  In 2D they make two 1D passes, axis -2 first and then axis -1. That order
  gives the same bits as a pocketfft n-dimensional transform over
  ``axes=(-2, -1)`` in both directions; the reverse order differs from it by
  about 2e-13 at 128^2.
- :func:`rfft_field` / :func:`irfft_field` transform a real field through its
  half spectrum: ``rfft`` over the last axis, then, in 2D, one ``fft`` over
  axis -2. Its multipliers are the full-layout ones cut to the modes 0..n/2
  of the last axis (``GridSpec.ik_half``). For a real field on its own,
  casting to complex and using the full transform would cost more and round
  worse. :func:`nlgauge.dynamics.rhs` still carries rho in its complex stack
  with psi, because one transform of the stack is cheaper than a separate
  half-spectrum pass for rho; only its current goes through the half
  spectrum.

The inverse transforms take ``norm="forward"`` for spectra whose multipliers
already carry the factor 1/n per axis (the plan of
:func:`nlgauge.dynamics.rhs` folds it in); for a power-of-two n this gives
the same bits as the scaled transform.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box: ``n`` points per axis on ``[0, length)``.

    :meth:`along` lays a profile of ``n`` values along one axis, in broadcast
    shape, and :meth:`outer` joins one profile per axis into a field of the
    grid's shape, by product (a product state) or by sum (an additive
    potential). Every per-axis construction of the package goes through them.

    The spectral layout is cached on first use: the wavenumbers per axis, the
    per-axis derivative multipliers :attr:`ik` and :attr:`ik_half` in
    broadcast shape, and one array of the grid's shape, the Laplacian symbol
    :attr:`laplacian_symbol`.
    """

    dimension: int
    n: int
    length: float

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dimension

    @property
    def npoints(self) -> int:
        return self.n ** self.dimension

    def axis_coordinate(self) -> np.ndarray:
        """Coordinates x_i = i*dx, the same along every axis (periodic: x_n == x_0)."""
        return np.arange(self.n) * self.dx

    def coordinates(self):
        """1D: coordinate array. 2D: (X, Y) meshgrid with 'ij' indexing."""
        x = self.axis_coordinate()
        if self.dimension == 1:
            return x
        return np.meshgrid(x, x, indexing="ij")

    def along(self, axis: int, profile) -> np.ndarray:
        """``profile`` (``n`` values) laid along ``axis``: a view of length 1
        on every other axis, which broadcasts against the grid's fields."""
        profile = np.asarray(profile)
        if profile.shape != (self.n,) or not 0 <= axis < self.dimension:
            raise ValueError(f"a profile needs {self.n} values along one of {self.dimension} "
                             f"axes, got shape {profile.shape} along axis {axis}")
        return profile.reshape([self.n if a == axis else 1 for a in range(self.dimension)])

    def outer(self, profiles, ufunc=np.multiply) -> np.ndarray:
        """One field of the grid's shape from one profile per axis, joined by
        ``ufunc`` (``np.multiply`` or ``np.add``); in 1D the profile itself."""
        return reduce(ufunc, [self.along(axis, profile) for axis, profile
                              in zip(range(self.dimension), profiles, strict=True)])

    @cached_property
    def _k(self) -> np.ndarray:
        # wavenumbers k in {-n/2+1, ..., n/2} * (2*pi/length), fft layout
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def _k_odd(self) -> np.ndarray:
        # Nyquist zeroed: the convention for odd-order derivatives
        k = self._k.copy()
        k[self.n // 2] = 0.0
        return k

    def wavenumbers(self, axis: int = 0, zero_nyquist: bool = False) -> np.ndarray:
        """Spectral wavenumbers along ``axis``, broadcast to the grid rank."""
        return self.along(axis, self._k_odd if zero_nyquist else self._k)

    @cached_property
    def laplacian_symbol(self) -> np.ndarray:
        """-(k_1^2 + ... + k_d^2) on the grid: the Fourier multiplier of the
        Laplacian, and the only cached array of the grid's size."""
        return self.outer([-self._k ** 2] * self.dimension, np.add)

    @cached_property
    def ik(self) -> tuple:
        """Per-axis Fourier multipliers 1j*k of d/dx_axis (Nyquist zeroed),
        each in broadcast shape."""
        return tuple(1j * self.wavenumbers(a, zero_nyquist=True)
                     for a in range(self.dimension))

    @cached_property
    def ik_half(self) -> tuple:
        """:attr:`ik` in the half-spectrum layout of :func:`rfft_field`."""
        return tuple(_half_layout(k, self) for k in self.ik)


def make_grid(dimension: int, n: int, length: float) -> GridSpec:
    """Build a validated periodic grid.

    Requires dimension in {1, 2}, even n >= 8, 0 < length < inf.
    """
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    if n < 8:
        raise ValueError(f"n must be >= 8, got {n}")
    if n % 2 != 0:
        raise ValueError(f"n must be even for the spectral layout, got {n}")
    if not 0 < length < np.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    return GridSpec(dimension=dimension, n=int(n), length=float(length))


def ensure_field(f: np.ndarray, grid: GridSpec, name: str = "field") -> np.ndarray:
    """Check shape and finiteness of a field; returns the array unchanged."""
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ValueError(f"{name} has shape {f.shape}, expected {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{name} contains non-finite entries")
    return f


def ensure_state(psi: np.ndarray, grid: GridSpec, name: str = "state") -> np.ndarray:
    """:func:`ensure_field`, and a unit L2 norm to 1e-10; returns the array
    unchanged."""
    psi = ensure_field(psi, grid, name)
    nrm = l2_norm(psi, grid)
    if not abs(nrm - 1.0) <= 1e-10:
        raise ValueError(f"{name} must be normalized, got ||psi|| = {nrm!r}")
    return psi


# ------------------------------------------------------------ transforms ----

def fft_stack(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Forward transform of a complex array over its last ``grid.dimension``
    axes, in place; returns ``a``."""
    if grid.dimension == 2:
        np.fft.fft(a, axis=-2, out=a)
    return np.fft.fft(a, out=a)


def ifft_stack(a: np.ndarray, grid: GridSpec, norm: str | None = None) -> np.ndarray:
    """Inverse of :func:`fft_stack`, in place; returns ``a``. ``norm`` as in
    ``numpy.fft``: "forward" leaves out the factor 1/n per axis."""
    if grid.dimension == 2:
        np.fft.ifft(a, axis=-2, norm=norm, out=a)
    return np.fft.ifft(a, norm=norm, out=a)


def rfft_field(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum of a real array over its last ``grid.dimension`` axes."""
    f_k = np.fft.rfft(f)
    if grid.dimension == 2:
        np.fft.fft(f_k, axis=-2, out=f_k)
    return f_k


def irfft_field(f_k: np.ndarray, grid: GridSpec, norm: str | None = None) -> np.ndarray:
    """Real inverse of :func:`rfft_field`; overwrites ``f_k`` in 2D. ``norm``
    as in :func:`ifft_stack`."""
    if grid.dimension == 2:
        np.fft.ifft(f_k, axis=-2, norm=norm, out=f_k)
    return np.fft.irfft(f_k, n=grid.n, norm=norm)


def _half_layout(mult: np.ndarray, grid: GridSpec) -> np.ndarray:
    """A multiplier in full fft layout, restricted to the modes 0..n/2 of the
    last axis that a half spectrum keeps (a view)."""
    return mult[..., :grid.n // 2 + 1]


def _apply_multiplier(f: np.ndarray, grid: GridSpec, mult: np.ndarray) -> np.ndarray:
    """Inverse transform of ``mult * transform(f)``: a real field goes
    through the half spectrum and gives a real result, any other through the
    full one."""
    if np.isrealobj(f):
        f_k = rfft_field(f, grid)
        f_k *= _half_layout(mult, grid)
        return irfft_field(f_k, grid)
    f_k = fft_stack(np.array(f, dtype=complex), grid)
    f_k *= mult
    return ifft_stack(f_k, grid)


def differentiate(f: np.ndarray, grid: GridSpec, axis: int = 0, order: int = 1) -> np.ndarray:
    """Spectral derivative of given order (1 or 2) along an axis; real for a
    real field, complex otherwise."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not 0 <= axis < grid.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {grid.dimension}")
    mult = grid.ik[axis] if order == 1 else -grid.wavenumbers(axis) ** 2
    return _apply_multiplier(f, grid, mult)


def laplacian(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral Laplacian (sum of second derivatives over all axes); real for
    a real field, complex otherwise."""
    return _apply_multiplier(f, grid, grid.laplacian_symbol)


def integrate(f: np.ndarray, grid: GridSpec) -> float:
    """Rectangle-rule quadrature of a real field (exact trapezoid on a periodic grid)."""
    f = np.asarray(f)
    if np.iscomplexobj(f):
        raise ValueError("integrate expects a real field; handle real/imag parts separately")
    return float(np.sum(f) * grid.dx ** grid.dimension)


def l2_norm(f: np.ndarray, grid: GridSpec) -> float:
    """L2 norm with the grid measure."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.dx ** grid.dimension))
