"""Density, probability current and its divergence, modulus/phase splitting,
and the density floor of the quotient terms.

The five quotient functionals built from rho and J are computed in one place,
:func:`nlgauge.dynamics.rhs`. :func:`current`, :func:`divergence` and
:func:`nlgauge.grid.laplacian` take separate transforms and share no code with
it; the tests build a per-quotient reference from them and certify both that
reference and ``rhs`` against closed forms on psi = exp(u + iS).

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
        if not 0 < self.rho_floor_rel < np.inf:
            raise ValueError(f"rho_floor_rel must be positive and finite, "
                             f"got {self.rho_floor_rel}")

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
    """``s`` with each entry where ~valid replaced by the nearest previous
    valid value of its row, on ``(members, points)`` arrays (one row per
    member, its points in row-major order). An invalid entry starts at its
    member's first valid index, and one running maximum along the points
    gives it the last valid index before it (leading invalid entries take
    the first valid). A member without a valid point is left as it is."""
    own = np.arange(s.size).reshape(s.shape)  # flat index of each entry
    first = own[:, :1] + valid.argmax(axis=1)[:, None]  # each member's first valid entry
    idx = np.where(valid | ~valid.any(axis=1, keepdims=True), own, first)
    np.maximum.accumulate(idx, axis=1, out=idx)
    return s.ravel()[idx]


def _unwrap_rows(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p, axis=-1)`` with the same arithmetic, minus its generic
    set-up: the 2*pi-correction is only evaluated at the steps that need one."""
    dd = p[..., 1:] - p[..., :-1]
    jump = ~(np.abs(dd) < np.pi)
    out = p.copy()
    if np.count_nonzero(jump):  # cheaper than any() on these small arrays
        d = dd[jump]
        dmod = np.mod(d + np.pi, 2 * np.pi) - np.pi
        low = dmod == -np.pi
        if np.count_nonzero(low):
            dmod[low & (d > 0)] = np.pi
        correction = np.zeros(dd.shape)
        correction[jump] = dmod - d
        out[..., 1:] += np.add.accumulate(correction, axis=-1, out=correction)
    return out


def unwrap_phase(psi: np.ndarray, valid: np.ndarray | None = None,
                 dimension: int | None = None,
                 anchor_by: np.ndarray | None = None) -> np.ndarray:
    """Unwrapped argument of psi, anchored at the density maximum.

    1D: a single pass of 2*pi-adjustments along the axis. 2D: unwrap the
    anchor column along axis 0, then each row along axis 1, then rebase.
    The anchor is the first maximum of ``|psi|``, found in ``anchor_by``
    when the caller already holds ``|psi|`` or ``rho = |psi|**2`` (squaring
    is strictly monotone on the moduli, so both give the same point). Where
    ``valid`` is False the value is carried over from the nearest previous
    valid point of the scan.

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
    peak = np.abs(psi) if anchor_by is None else anchor_by
    if members:  # index arrays over the members, broadcasting against ang
        flat = peak.reshape(len(psi), -1).argmax(axis=1)
        flat = flat.reshape((-1,) + (1,) * dim)
        lead = (np.arange(len(psi)).reshape(flat.shape),)
    else:
        flat, lead = int(peak.argmax()), ()
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
        rows = (len(psi) if members else 1, -1)
        s = _carry_over_invalid(s.reshape(rows), valid.reshape(rows)).reshape(psi.shape)
    return s


def modulus_phase(psi: np.ndarray, policy: RegularizationPolicy = DEFAULT_POLICY) -> PhasePair:
    """Split psi into modulus and unwrapped phase (see module docstring)."""
    modulus = np.abs(psi)
    rho = modulus ** 2
    eps = policy.floor(rho)
    valid = rho > eps
    phase = unwrap_phase(psi, valid=valid, anchor_by=modulus)
    return PhasePair(modulus=modulus, phase=phase,
                     regularized_fraction=float(np.mean(~valid)))
