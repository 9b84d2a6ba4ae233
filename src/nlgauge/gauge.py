"""The nonlinear gauge transformation group.

A transform (gamma, lam, theta) maps a state with modulus R and unwrapped
phase S to

    R * exp(i * (gamma*ln R + lam*S + theta))

so the position density |psi|^2 is invariant by construction. With lam != 0
these maps form a group under composition:

    g2 o g1 = (gamma2 + lam2*gamma1,  lam2*lam1,  lam2*theta1 + theta2)
"""

from dataclasses import dataclass

import numpy as np

from .functionals import DEFAULT_POLICY, RegularizationPolicy, modulus_phase


@dataclass(frozen=True)
class GaugeTransform:
    """Parameters (gamma, lam, theta); theta may be a constant or a field."""

    gamma: float
    lam: float
    theta: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.lam == 0.0:
            raise ValueError("lam must be nonzero (invertibility)")
        if not (np.isfinite(self.gamma) and np.isfinite(self.lam)):
            raise ValueError(f"gamma and lam must be finite, got {self.gamma}, {self.lam}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")

    @property
    def theta_is_zero(self) -> bool:
        return np.isscalar(self.theta) and self.theta == 0.0

    def is_identity(self) -> bool:
        return self.gamma == 0.0 and self.lam == 1.0 and not np.any(self.theta != 0.0)


def identity() -> GaugeTransform:
    return GaugeTransform(0.0, 1.0, 0.0)


def apply_gauge(g: GaugeTransform, psi: np.ndarray,
                policy: RegularizationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Apply the transform to a state. The output modulus equals |psi| exactly.

    ln R is floored as ln max(R, sqrt(eps)) consistently with the density
    floor; on a nodeless state no point is floored and the map is exact.
    """
    if g.gamma == 0.0 and g.lam == 1.0:
        # phase-only shortcut; identity when theta == 0
        if np.any(g.theta != 0.0):
            return psi * np.exp(1j * np.asarray(g.theta))
        return np.array(psi, dtype=complex)
    pair = modulus_phase(psi, policy)
    r = pair.modulus
    eps = policy.floor(r ** 2)
    if eps == 0.0:
        return np.zeros_like(psi, dtype=complex)
    log_r = np.log(np.maximum(r, np.sqrt(eps)))
    phase = g.gamma * log_r + g.lam * pair.phase + np.asarray(g.theta)
    return r * np.exp(1j * phase)


def compose(g2: GaugeTransform, g1: GaugeTransform) -> GaugeTransform:
    """Parameters of g2 o g1 (apply g1 first)."""
    return GaugeTransform(
        gamma=g2.gamma + g2.lam * g1.gamma,
        lam=g2.lam * g1.lam,
        theta=g2.lam * np.asarray(g1.theta) + np.asarray(g2.theta)
        if not (g1.theta_is_zero and g2.theta_is_zero) else 0.0,
    )


def invert(g: GaugeTransform) -> GaugeTransform:
    """The unique inverse under compose."""
    return GaugeTransform(
        gamma=-g.gamma / g.lam,
        lam=1.0 / g.lam,
        theta=-np.asarray(g.theta) / g.lam if not g.theta_is_zero else 0.0,
    )
