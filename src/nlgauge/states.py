"""Initial-state presets, potentials, and closed-form reference solutions.

All presets return numpy arrays on a given grid, L2-normalized with the grid
measure. On the periodic box a plane-wave factor exp(i k x) is smooth only for
k a multiple of 2*pi/L; localized packets tolerate any k because the envelope
kills the boundary mismatch.

A per-axis argument (a center, width, momentum or mode) is one finite number,
used on every axis, or a sequence of 1 or ``grid.dimension`` finite numbers;
any other argument (omega, a separation, an amplitude, ``max_mode``) is one
finite number. A bool, a non-finite value or another count raises ValueError.
So do finite arguments that give no usable field: a state whose norm is 0 or
not finite, a nodeless field whose modulus underflows to 0, and a potential
that is not finite. A field is one profile per axis joined by
:meth:`GridSpec.outer`: their product for a state, their sum for a potential.
"""

from __future__ import annotations  # evaluating np.random.Generator imports numpy.random

import numpy as np

from .grid import GridSpec, l2_norm


def _per_axis(value, count: int, name: str, whole: bool = False) -> np.ndarray:
    """``value``, one number or a sequence of 1 or ``count``, as ``count``
    float64 values; refuses a bool, a non-finite value, another count and, if
    ``whole``, a fractional value."""
    items = list(value) if np.ndim(value) else [value]
    floats = [float(v) for v in items] * (count if len(items) == 1 else 1)
    if (len(floats) != count or any(isinstance(v, (bool, np.bool_)) for v in items)
            or not all(np.isfinite(f) and (f.is_integer() or not whole) for f in floats)):
        kind = "a whole number" if whole else "a finite number"
        raise ValueError(f"{name} must be {kind}{f' or {count} of them' if count > 1 else ''}"
                         f", got {value!r}")
    return np.array(floats)


def normalized(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """``psi`` divided by its L2 norm; a norm that is 0 or not finite (a
    packet that underflows on every grid point, say) raises ValueError."""
    norm = l2_norm(psi, grid)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"cannot normalize a state of norm {norm}")
    return psi / norm


def gaussian(grid: GridSpec, center=None, width=None, momentum=0.0) -> np.ndarray:
    """Normalized Gaussian packet exp(-(x-c)^2/(4 w^2) + i k (x-c)).

    In 2D, ``center``/``width``/``momentum`` may be scalars (isotropic) or
    per-axis pairs; the state is the product of the per-axis factors.
    """
    d = grid.dimension
    centers = _per_axis(grid.length / 2 if center is None else center, d, "gaussian center")
    widths = _per_axis(grid.length / 40 if width is None else width, d, "gaussian width")
    moms = _per_axis(momentum, d, "gaussian momentum")
    if min(widths) <= 0:
        raise ValueError("gaussian width must be positive")
    x = grid.axis_coordinate()
    return normalized(grid.outer([np.exp(-((x - c) ** 2) / (4.0 * w ** 2) + 1j * k * (x - c))
                                  for c, w, k in zip(centers, widths, moms)]), grid)


def plane_wave(grid: GridSpec, mode=1) -> np.ndarray:
    """Normalized plane wave exp(i k.x) with k_i = 2*pi*mode_i/L; ``mode`` is
    a whole number, or one per axis."""
    modes = _per_axis(mode, grid.dimension, "plane-wave mode", whole=True)
    x = grid.axis_coordinate()
    return normalized(grid.outer([np.exp(1j * (2.0 * np.pi * m / grid.length) * x)
                                  for m in modes]), grid)


def two_gaussian_pair(grid: GridSpec, separation=None, width=None):
    """Orthonormal pair of displaced Gaussians (Gram-Schmidt on the second).

    Canonical mixed-state scenario: centers at L/2 -/+ separation/2 with
    defaults separation = L/4 and width = L/32.
    """
    if grid.dimension != 1:
        raise ValueError("two_gaussian_pair is a 1D preset")
    sep, = _per_axis(grid.length / 4 if separation is None else separation, 1,
                     "two-gaussian separation")
    w, = _per_axis(grid.length / 32 if width is None else width, 1, "two-gaussian width")
    psi_a = gaussian(grid, center=grid.length / 2 - sep / 2, width=w)
    psi_b = gaussian(grid, center=grid.length / 2 + sep / 2, width=w)
    overlap = np.vdot(psi_a, psi_b) * grid.dx
    psi_b = psi_b - overlap * psi_a
    resid = l2_norm(psi_b, grid)
    if resid < 1e-8:
        raise ValueError("two-gaussian factors are not independent "
                         "(separation too small for Gram-Schmidt)")
    return psi_a, psi_b / resid


def harmonic_potential(grid: GridSpec, omega: float = 1.0, center=None) -> np.ndarray:
    """V = (omega^2/2) * sum_i (x_i - c_i)^2."""
    omega, = _per_axis(omega, 1, "harmonic omega")
    centers = _per_axis(grid.length / 2 if center is None else center, grid.dimension,
                        "harmonic center")
    x = grid.axis_coordinate()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        v = 0.5 * omega ** 2 * grid.outer([(x - c) ** 2 for c in centers], np.add)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"harmonic potential of omega {omega} and center "
                         f"{centers.tolist()} is not finite")
    return v


def free_gaussian_exact(grid: GridSpec, t: float, center: float, width: float,
                        momentum: float = 0.0, nu1: float = -0.5) -> np.ndarray:
    """Closed-form evolution of the 1D gaussian() preset under i psi_t = nu1 psi_xx.

    Derivation by Fourier transform of the initial packet: with
    M = 1 - i*nu1*t/w^2 and xi = x - c + 2*nu1*k*t,

        psi(x,t) = A M^(-1/2) exp(-xi^2 / (4 w^2 M)) exp(i(k(x-c) + nu1 k^2 t))

    and A the t=0 normalization. Valid as a grid oracle while the packet
    stays far from the box boundary.
    """
    if grid.dimension != 1:
        raise ValueError("free_gaussian_exact is a 1D oracle")
    x = grid.axis_coordinate()
    w2 = width ** 2
    m = 1.0 - 1j * nu1 * t / w2
    xi = x - center + 2.0 * nu1 * momentum * t
    amp = (2.0 * np.pi * w2) ** -0.25
    psi = amp / np.sqrt(m) * np.exp(-xi ** 2 / (4.0 * w2 * m)) \
        * np.exp(1j * (momentum * (x - center) + nu1 * momentum ** 2 * t))
    return psi


def random_nodeless_field(grid: GridSpec, rng: np.random.Generator,
                          max_mode: int = 4, log_amp: float = 0.4,
                          phase_amp: float = 0.4) -> np.ndarray:
    """Smooth strictly-positive-modulus random state exp(u + i s).

    u and s are real band-limited fields (modes 1..max_mode per axis) with the
    given amplitudes; the modulus is rescaled so max|psi| = 1 and the phase is
    shifted to vanish at the modulus peak. Both choices keep the
    unwrapped phase of gauge images branch-stable, which the group-law and
    density-invariance experiments rely on. ``max_mode`` must be >= 1.
    """
    modes = int(_per_axis(max_mode, 1, "max_mode", whole=True)[0])
    if modes < 1:
        raise ValueError(f"max_mode must be >= 1, got {max_mode!r}")
    log_amp, = _per_axis(log_amp, 1, "log_amp")
    phase_amp, = _per_axis(phase_amp, 1, "phase_amp")

    def band_limited():
        x = grid.axis_coordinate()
        two_pi_over_l = 2.0 * np.pi / grid.length
        profiles = []
        for _ in range(grid.dimension):
            prof = np.zeros_like(x)
            for m in range(1, modes + 1):
                a, b = rng.normal(size=2)
                prof += a * np.cos(m * two_pi_over_l * x) + b * np.sin(m * two_pi_over_l * x)
            profiles.append(prof / modes ** 0.5)
        return grid.outer(profiles, np.add)

    u = log_amp * band_limited()
    s = phase_amp * band_limited()
    u -= u.max()  # max modulus = 1
    s -= s.ravel()[int(np.argmax(u.ravel()))]
    psi = np.exp(u + 1j * s)
    zeros = np.count_nonzero(psi == 0)
    if zeros:
        raise ValueError(f"log_amp {log_amp} underflows the modulus to 0 at "
                         f"{zeros} of {psi.size} points")
    return psi
