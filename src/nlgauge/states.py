"""Initial-state presets, potentials, and closed-form reference solutions.

All presets return numpy arrays on a given grid, L2-normalized with the grid
measure. On the periodic box a plane-wave factor exp(i k x) is smooth only for
k a multiple of 2*pi/L; localized packets tolerate any k because the envelope
kills the boundary mismatch.
"""

from __future__ import annotations  # evaluating np.random.Generator imports numpy.random

import numpy as np

from .grid import GridSpec, l2_norm


def normalized(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    return psi / l2_norm(psi, grid)


def gaussian(grid: GridSpec, center=None, width=None, momentum=0.0) -> np.ndarray:
    """Normalized Gaussian packet exp(-(x-c)^2/(4 w^2) + i k (x-c)).

    In 2D, ``center``/``width``/``momentum`` may be scalars (isotropic) or
    per-axis pairs; the state is the product of the per-axis factors.
    """
    def per_axis(v, default):
        if v is None:
            v = default
        arr = np.broadcast_to(np.asarray(v, dtype=float), (grid.dimension,))
        return arr
    centers = per_axis(center, grid.length / 2)
    widths = per_axis(width, grid.length / 40)
    moms = per_axis(momentum, 0.0)
    if np.any(widths <= 0):
        raise ValueError("gaussian width must be positive")
    x = grid.axis_coordinate()
    factors = []
    for c, w, k in zip(centers, widths, moms):
        xi = x - c
        factors.append(np.exp(-(xi ** 2) / (4.0 * w ** 2) + 1j * k * xi))
    psi = factors[0] if grid.dimension == 1 else np.multiply.outer(factors[0], factors[1])
    return normalized(psi, grid)


def plane_wave(grid: GridSpec, mode=1) -> np.ndarray:
    """Normalized plane wave exp(i k.x) with k_i = 2*pi*mode_i/L."""
    modes = np.broadcast_to(np.asarray(mode, dtype=int), (grid.dimension,))
    x = grid.axis_coordinate()
    factors = [np.exp(1j * (2.0 * np.pi * m / grid.length) * x) for m in modes]
    psi = factors[0] if grid.dimension == 1 else np.multiply.outer(factors[0], factors[1])
    return normalized(psi, grid)


def two_gaussian_pair(grid: GridSpec, separation=None, width=None):
    """Orthonormal pair of displaced Gaussians (Gram-Schmidt on the second).

    Canonical mixed-state scenario: centers at L/2 -/+ separation/2 with
    defaults separation = L/4 and width = L/32.
    """
    if grid.dimension != 1:
        raise ValueError("two_gaussian_pair is a 1D preset")
    sep = grid.length / 4 if separation is None else float(separation)
    w = grid.length / 32 if width is None else float(width)
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
    c = np.broadcast_to(
        np.asarray(grid.length / 2 if center is None else center, dtype=float),
        (grid.dimension,))
    x = grid.axis_coordinate()
    if grid.dimension == 1:
        return 0.5 * omega ** 2 * (x - c[0]) ** 2
    xx, yy = np.meshgrid(x - c[0], x - c[1], indexing="ij")
    return 0.5 * omega ** 2 * (xx ** 2 + yy ** 2)


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
    density-invariance experiments rely on.
    """
    def band_limited():
        x = grid.axis_coordinate()
        f = np.zeros(grid.shape)
        two_pi_over_l = 2.0 * np.pi / grid.length
        for axis in range(grid.dimension):
            prof = np.zeros_like(x)
            for m in range(1, max_mode + 1):
                a, b = rng.normal(size=2)
                prof += a * np.cos(m * two_pi_over_l * x) + b * np.sin(m * two_pi_over_l * x)
            prof /= max_mode ** 0.5
            shape = [1] * grid.dimension
            shape[axis] = grid.n
            f = f + prof.reshape(shape)
        return f

    u = log_amp * band_limited()
    s = phase_amp * band_limited()
    u -= u.max()  # max modulus = 1
    s -= s.ravel()[int(np.argmax(u.ravel()))]
    return np.exp(u + 1j * s)
