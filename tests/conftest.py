import numpy as np
import pytest

import nlgauge as ng
from nlgauge import MixedState, NLSECoefficients
from nlgauge.functionals import DEFAULT_POLICY
from nlgauge.grid import GridSpec


def trig_packet(grid, depth=1.2, ripple=0.15, s1=0.3, s2=0.2):
    """Normalized nodeless state with band-limited log-modulus and phase.

    Being a trig polynomial in both u and s makes the state (and every gauge
    image of it) periodic-analytic with zero phase winding, so spectral
    operations on it are exact to rounding. The workhorse state for
    diagram-closure and convergence tests.
    """
    x = grid.axis_coordinate()
    length = grid.length
    u = -depth * (1.0 - np.cos(2 * np.pi * (x - length / 2) / length)) \
        + ripple * np.cos(4 * np.pi * x / length)
    s = s1 * np.sin(2 * np.pi * x / length) + s2 * np.cos(4 * np.pi * x / length)
    if grid.dimension == 2:
        u = u[:, None] + u[None, :]
        s = s[:, None] + s[None, :]
    psi = np.exp(u + 1j * s)
    return psi / ng.l2_norm(psi, grid)


def quotient_reference(index, psi, grid, nu1, policy=DEFAULT_POLICY):
    """One quotient functional on its own, from the public operators:

        R1 = div J / rho      R2 = lap rho / rho      R3 = J^2 / rho^2
        R4 = J . grad rho / rho^2                     R5 = (grad rho)^2 / rho^2

    with J = current(psi, grid, nu1), separate transforms per derivative and
    floored denominators but no gate below the floor. The spectral reference
    the tests hold ``rhs`` against; it is in turn certified against closed
    forms in test_closed_form.py.
    """
    rho = ng.density(psi)
    rho_s = np.maximum(rho, policy.floor(rho))
    if index == 1:
        return ng.divergence(ng.current(psi, grid, nu1), grid) / rho_s
    if index == 2:
        lap_rho = np.zeros(grid.shape)
        for axis in range(grid.dimension):
            lap_rho += ng.differentiate(rho, grid, axis=axis, order=2).real
        return lap_rho / rho_s
    grad_rho = np.stack([ng.differentiate(rho, grid, axis=a, order=1).real
                         for a in range(grid.dimension)])
    if index == 5:
        return np.sum(grad_rho ** 2, axis=0) / rho_s ** 2
    jvec = ng.current(psi, grid, nu1)
    if index == 3:
        return np.sum(jvec ** 2, axis=0) / rho_s ** 2
    if index == 4:
        return np.sum(jvec * grad_rho, axis=0) / rho_s ** 2
    raise ValueError(f"index must be in 1..5, got {index}")


# The N x N kernel oracle of ``nlgauge.kernel_distance``: the kernels are
# built entry by entry and compared directly, with no factorization.

def _kernel(weights, states) -> np.ndarray:
    psis = np.asarray(states)
    return np.einsum("j,jx,jy->xy", weights, psis, psis.conj())


def density_matrix(m: MixedState) -> np.ndarray:
    """Kernel W(x, y) = sum_j w_j psi_j(x) conj(psi_j(y)) (1D states); the
    N x N oracle for the factor distance of the probe."""
    if m.grid.dimension != 1:
        raise ValueError("density_matrix expects 1D component states")
    return _kernel(m.weights, m.states)


def frobenius_distance(w1: np.ndarray, w2: np.ndarray, grid: GridSpec) -> float:
    """dx^d-weighted Frobenius norm of the kernel difference."""
    return float(np.linalg.norm(w1 - w2) * grid.dx ** grid.dimension)


def trace_distance(w1: np.ndarray, w2: np.ndarray, grid: GridSpec) -> float:
    """(1/2) sum |eigenvalues| of the kernel difference (slower metric)."""
    eigs = np.linalg.eigvalsh((w1 - w2) * grid.dx ** grid.dimension)
    return 0.5 * float(np.sum(np.abs(eigs)))


def push_forward_linear(gamma: float, lam: float, nu1: float,
                        mu0: float = 0.0) -> NLSECoefficients:
    """Closed form of the gauged linear equation (the linearizable family).

    Independent of :func:`push_forward_family`; the two routes are
    cross-checked in the tests.
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")
    q = nu1 * (lam ** 2 + gamma ** 2 - 1.0) / (2.0 * lam)
    return NLSECoefficients(
        nu1=nu1 / lam,
        nu2=-gamma * nu1 / (2.0 * lam),
        mu0=lam * mu0,
        mu1=gamma / 2.0,
        mu2=q,
        mu3=0.0,
        mu4=-gamma / 2.0,
        mu5=-q / 2.0,
        alpha1=0.0,
        alpha2=0.0,
    )


@pytest.fixture
def grid64():
    return ng.make_grid(1, 64, 20.0)


@pytest.fixture
def grid128():
    return ng.make_grid(1, 128, 20.0)


@pytest.fixture
def packet64(grid64):
    return trig_packet(grid64)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
