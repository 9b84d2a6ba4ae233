"""Density, probability current, modulus/phase splitting, and the five
nonlinear quotient functionals built from rho and J.

All quotients are regularized with a relative density floor: denominators use
max(rho, eps) with eps = rho_floor_rel * max(rho). The floor keeps the
right-hand sides finite at near-nodes; the fraction of floored points is a
first-class diagnostic so experiments on nodeless states can demand zero.

The phase is the unwrapped argument. The unwrap walks the grid adjusting
successive differences into (-pi, pi] and is rebased so that the point of
maximum density carries its principal value; at that point the phase of a
smooth packet is physically small, which keeps the overall 2*pi branch stable
in time (an index-0 anchor would inherit the arbitrary branch of a tail
point). Below the floor the phase is carried over from the nearest preceding
valid point of the scan; it is conventional there, not physical.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, differentiate


@dataclass(frozen=True)
class RegularizationPolicy:
    """Relative density floor used in quotients and logarithms."""

    rho_floor_rel: float = 1e-12

    def __post_init__(self):
        if not self.rho_floor_rel > 0:
            raise ValueError("rho_floor_rel must be positive")

    def floor(self, rho: np.ndarray, dimension: int | None = None):
        """Absolute floor eps for a given density field. With ``dimension``
        (the number of field axes) and a leading member axis on ``rho``, one
        eps per member, shaped to broadcast against ``rho``."""
        if dimension is None or rho.ndim == dimension:
            return self.rho_floor_rel * float(rho.max()) if rho.size else 0.0
        return self.rho_floor_rel * rho.max(axis=tuple(range(-dimension, 0)),
                                            keepdims=True)

    def regularized_fraction(self, rho: np.ndarray) -> float:
        """Fraction of grid points at or below the floor."""
        eps = self.floor(rho)
        return float(np.mean(rho <= eps))


DEFAULT_POLICY = RegularizationPolicy()


@dataclass
class PhasePair:
    """Modulus R >= 0 and unwrapped phase S with R*exp(iS) = psi off the floor."""

    modulus: np.ndarray
    phase: np.ndarray
    regularized_fraction: float

    @property
    def has_regularized_points(self) -> bool:
        return self.regularized_fraction > 0.0


def density(psi: np.ndarray) -> np.ndarray:
    """Positional probability density rho = |psi|^2."""
    return np.abs(psi) ** 2


def current(psi: np.ndarray, grid: GridSpec, nu1: float) -> np.ndarray:
    """Probability current J = -2*nu1*Im(conj(psi) grad psi), one row per axis.

    The sign is fixed so that i d/dt psi = nu1 lap psi gives
    d/dt rho + div J = 0 exactly.
    """
    out = np.empty((grid.dimension,) + grid.shape)
    for axis in range(grid.dimension):
        dpsi = differentiate(psi, grid, axis=axis, order=1)
        out[axis] = -2.0 * nu1 * np.imag(np.conj(psi) * dpsi)
    return out


def divergence(vec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Divergence of a per-axis stacked real vector field."""
    out = np.zeros(grid.shape)
    for axis in range(grid.dimension):
        out += differentiate(vec[axis], grid, axis=axis, order=1).real
    return out


def _carry_over_invalid(s: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """For each member (leading axis of ``s``), replace entries where ~valid
    by the nearest previous valid value along the row-major scan (leading
    invalid entries take the first valid). A member without a valid point
    is left as it is."""
    flat_v = valid.reshape(len(s), -1)
    flat_v = flat_v | ~flat_v.any(axis=1, keepdims=True)
    own = np.arange(s.size).reshape(flat_v.shape)  # flat index of each entry
    idx = np.where(flat_v, own, -1)
    np.maximum.accumulate(idx, axis=1, out=idx)
    # the entries before a member's first valid point are still -1
    np.maximum(idx, own[:, :1] + np.argmax(flat_v, axis=1)[:, None], out=idx)
    return s.ravel()[idx].reshape(s.shape)


def _unwrap_rows(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p, axis=-1)`` with the same arithmetic, minus its generic
    set-up: the 2*pi-correction is only evaluated at the steps that need one."""
    dd = p[..., 1:] - p[..., :-1]
    jump = ~(np.abs(dd) < np.pi)
    correction = np.zeros(dd.shape)
    if jump.any():
        d = dd[jump]
        dmod = np.mod(d + np.pi, 2 * np.pi) - np.pi
        dmod[(dmod == -np.pi) & (d > 0)] = np.pi
        correction[jump] = dmod - d
    out = p.copy()
    out[..., 1:] += correction.cumsum(axis=-1)
    return out


def unwrap_phase(psi: np.ndarray, valid: np.ndarray | None = None,
                 dimension: int | None = None) -> np.ndarray:
    """Unwrapped argument of psi, anchored at the density maximum.

    1D: a single pass of 2*pi-adjustments along the axis. 2D: unwrap the
    anchor column along axis 0, then each row along axis 1, then rebase.
    The anchor is the first maximum of ``|psi|``. Where ``valid`` is False
    the value is carried over from the nearest previous valid point of the
    scan.

    ``dimension`` is the number of field axes (default ``psi.ndim``). One
    more, leading, axis indexes members: each is unwrapped, anchored at its
    own maximum and carried over on its own, bit for bit as if alone.
    """
    dim = psi.ndim if dimension is None else dimension
    if dim not in (1, 2) or psi.ndim - dim not in (0, 1):
        raise ValueError("unwrap_phase supports 1D and 2D fields with at most "
                         "one leading member axis")
    members = psi.ndim > dim
    ang = np.arctan2(psi.imag, psi.real)
    if members:  # index arrays over the members, broadcasting against ang
        flat = np.abs(psi).reshape(len(psi), -1).argmax(axis=1)
        flat = flat.reshape((-1,) + (1,) * dim)
        lead = (np.arange(len(psi)).reshape(flat.shape),)
    else:
        flat, lead = int(np.abs(psi).argmax()), ()
    s = _unwrap_rows(ang)
    if dim == 1:
        anchor = lead + (flat,)
    else:
        i, j = divmod(flat, psi.shape[-1])
        anchor = lead + (i, j)
        column = (lead[0].ravel(), slice(None), j.ravel()) if members else (slice(None), j)
        s += (_unwrap_rows(ang[column]) - s[column])[..., None]
    s += ang[anchor] - s[anchor]
    if valid is not None and not valid.all():
        field = psi.shape[-dim:]
        s = _carry_over_invalid(s.reshape((-1,) + field),
                                valid.reshape((-1,) + field)).reshape(psi.shape)
    return s


def modulus_phase(psi: np.ndarray, policy: RegularizationPolicy = DEFAULT_POLICY) -> PhasePair:
    """Split psi into modulus and unwrapped phase (see module docstring)."""
    modulus = np.abs(psi)
    rho = modulus ** 2
    eps = policy.floor(rho)
    valid = rho > eps
    phase = unwrap_phase(psi, valid=valid)
    return PhasePair(modulus=modulus, phase=phase,
                     regularized_fraction=float(np.mean(~valid)))


def functional_R(index: int, psi: np.ndarray, grid: GridSpec, nu1: float,
                 policy: RegularizationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """The five real quotient functionals:

        R1 = div J / rho      R2 = lap rho / rho      R3 = J^2 / rho^2
        R4 = J . grad rho / rho^2                     R5 = (grad rho)^2 / rho^2

    with floored denominators and J = current(psi, grid, nu1).
    """
    if index not in (1, 2, 3, 4, 5):
        raise ValueError(f"index must be in 1..5, got {index}")
    rho = density(psi)
    eps = policy.floor(rho)
    rho_s = np.maximum(rho, eps)
    if index == 1:
        return divergence(current(psi, grid, nu1), grid) / rho_s
    if index == 2:
        lap_rho = np.zeros(grid.shape)
        for axis in range(grid.dimension):
            lap_rho += differentiate(rho, grid, axis=axis, order=2).real
        return lap_rho / rho_s
    grad_rho = np.stack([differentiate(rho, grid, axis=a, order=1).real
                         for a in range(grid.dimension)])
    if index == 5:
        return np.sum(grad_rho ** 2, axis=0) / rho_s ** 2
    jvec = current(psi, grid, nu1)
    if index == 3:
        return np.sum(jvec ** 2, axis=0) / rho_s ** 2
    return np.sum(jvec * grad_rho, axis=0) / rho_s ** 2
