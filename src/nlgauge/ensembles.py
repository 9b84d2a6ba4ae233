"""Mixed states, density matrices, and the two ensemble experiments:
decomposition-dependence of nonlinear evolution, and separability of product
states under the 2D realization of the family.

A mixed state is a weighted list {(lambda_j, psi_j)}; its kernel is
W(x, y) = sum_j lambda_j psi_j(x) conj(psi_j(y)), discretized as an N x N
matrix with trace sum_i W(x_i, x_i) dx. Equal-weight mixtures of an
orthonormal pair are invariant under rotations of the pair, which supplies
pairs of distinct decompositions with identical W. Linear evolution keeps the
kernels of such pairs equal; a nonlinear member of the family does not, and
the divergence D(t) quantifies the split.

The library never builds a kernel. :func:`kernel_distance` takes an
orthonormal basis Q of the span of the J components of both mixtures (thin QR
of the stacked states), so that W = Q K Q^H with the J x J factor
K = sum_j lambda_j a_j a_j^H, a_j = Q^H psi_j, and D = dx^d ||K_a - K_b||_F at
O(J^2 N^d) cost. Mixtures on 2D grids are therefore accepted. The N x N
kernels, and their Frobenius and trace distances, are the oracle that the
factor is tested against (``tests/conftest.py``), not a path of the library.

Both experiments evolve their independent states as the members of one
batched :func:`nlgauge.dynamics.evolve` call per step size (the components
of both decompositions; the two 1D factors, with their potentials stacked).
Each member keeps its own density floor and phase anchor, so its trajectory
is the one it would have alone, and an abort names the member that failed.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import NLSECoefficients, SimulationConfig, evolve
from .grid import GridSpec, ensure_field, l2_norm, make_grid


class InvariantViolation(RuntimeError):
    """An experiment precondition (e.g. equal kernels at t=0) failed."""


@dataclass
class MixedState:
    """Weights summing to 1 and normalized component states on one grid."""

    weights: np.ndarray
    states: list
    grid: GridSpec

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.weights) != len(self.states):
            raise ValueError("weights and states must have equal length")
        # every check is written so that NaN fails it
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.weights.sum()!r}")
        for j, psi in enumerate(self.states):
            ensure_field(psi, self.grid, f"component {j}")
            nrm = l2_norm(psi, self.grid)
            if not abs(nrm - 1.0) <= 1e-10:
                raise ValueError(f"component {j} is not normalized: ||psi|| = {nrm!r}")


def _factor_distance(weights_a, states_a, weights_b, states_b,
                     grid: GridSpec) -> float:
    """dx-weighted Frobenius distance of the kernels of two mixtures, from
    their J x J factors on an orthonormal basis of the components' span.

    Every component is projected by the same matrix-vector product, so equal
    states give bit-equal factors and identical mixtures give exactly 0."""
    phi = np.array([*states_a, *states_b], dtype=complex)
    phi = phi.reshape(len(phi), -1)
    qh = np.linalg.qr(phi.T)[0].conj().T

    def factor(weights, rows):
        k = 0.0
        for w, psi in zip(weights, rows):
            a = qh @ psi
            k = k + w * np.outer(a, a.conj())
        return k

    n_a = len(states_a)
    diff = factor(weights_a, phi[:n_a]) - factor(weights_b, phi[n_a:])
    return float(np.linalg.norm(diff) * grid.dx ** grid.dimension)


def kernel_distance(dec_a: MixedState, dec_b: MixedState) -> float:
    """dx^d-weighted Frobenius distance of the kernels of two mixtures on one
    grid, from their J x J factors; exactly 0.0 for identical mixtures."""
    if dec_a.grid != dec_b.grid:
        raise ValueError(f"the mixtures are on different grids: "
                         f"{dec_a.grid} and {dec_b.grid}")
    return _factor_distance(dec_a.weights, dec_a.states,
                            dec_b.weights, dec_b.states, dec_a.grid)


def equivalent_decompositions(psi_a: np.ndarray, psi_b: np.ndarray,
                              angle: float, grid: GridSpec):
    """Two equal-weight decompositions with the same kernel: {psi_a, psi_b}
    and its rotation by ``angle`` inside the span. Requires an orthonormal
    input pair; the same-kernel property is self-checked at generation."""
    if not -np.inf < angle < np.inf:
        raise ValueError(f"angle must be finite, got {angle!r}")
    overlap = np.vdot(psi_a, psi_b) * grid.dx ** grid.dimension
    if not abs(overlap) <= 1e-10:
        raise ValueError(f"input states are not orthogonal: <a,b> = {overlap:.3e}")
    half = np.array([0.5, 0.5])
    dec_a = MixedState(half, [np.array(psi_a), np.array(psi_b)], grid)
    ca, sa = np.cos(angle), np.sin(angle)
    dec_b = MixedState(half, [ca * psi_a + sa * psi_b,
                              -sa * psi_a + ca * psi_b], grid)
    check = kernel_distance(dec_a, dec_b)
    if not check <= 1e-12 * max(1.0, abs(psi_a).max() ** 2):
        raise InvariantViolation(
            f"rotated decomposition kernel deviates by {check:.3e}")
    return dec_a, dec_b


def mixed_divergence(c: NLSECoefficients, dec_a: MixedState, dec_b: MixedState,
                     config: SimulationConfig, V: np.ndarray | None = None):
    """Evolve every component of both decompositions independently and return
    [(t, D(t))] with D the dx-weighted Frobenius distance of the kernels,
    computed from their J x J factors (1D or 2D states).

    The components of both decompositions are the members of one batched
    :func:`evolve` call: each is evolved as if alone, with its own density
    floor and phase anchor.

    Precondition: the kernels agree at t=0 (the decompositions are
    physically equivalent)."""
    d0 = kernel_distance(dec_a, dec_b)
    if not d0 <= 1e-10:
        raise InvariantViolation(
            f"decompositions are not equivalent at t=0: D(0) = {d0:.3e}")
    grid, n_a, series = dec_a.grid, len(dec_a.states), []

    def on_frame(t, psi):  # D(t) as each frame is made; no frame is kept
        # not MixedStates: frames may drift in norm beyond their 1e-10 check
        series.append((float(t), _factor_distance(dec_a.weights, psi[:n_a],
                                                  dec_b.weights, psi[n_a:], grid)))

    components = [*dec_a.states, *dec_b.states]
    evolve([c] * len(components), np.array(components), grid, config, V,
           on_frame=on_frame)
    return series


def tensor_product(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Product state Psi(x, y) = psi1(x) psi2(y) of two 1D states."""
    psi1, psi2 = np.asarray(psi1), np.asarray(psi2)
    if psi1.ndim != 1 or psi2.ndim != 1 or psi1.shape != psi2.shape:
        raise ValueError("tensor_product expects two 1D states on the same grid")
    return np.multiply.outer(psi1, psi2)


def product_grid(grid: GridSpec) -> GridSpec:
    """The 2D box with the same per-axis layout as a 1D grid."""
    if grid.dimension != 1:
        raise ValueError("product_grid expects a 1D grid")
    return make_grid(2, grid.n, grid.length)


def marginal_density(psi2d: np.ndarray, grid2: GridSpec, axis: int = 0) -> np.ndarray:
    """Integrate |Psi|^2 over the other axis."""
    rho = np.abs(psi2d) ** 2
    return rho.sum(axis=1 - axis) * grid2.dx


def separability_residual(c: NLSECoefficients, psi1: np.ndarray, psi2: np.ndarray,
                          grid: GridSpec, config: SimulationConfig,
                          V1: np.ndarray | None = None,
                          V2: np.ndarray | None = None):
    """Compare the 2D family evolution of psi1 x psi2 (additive potential)
    against the tensor product of the 1D evolutions; returns [(t, L2 dist)].

    The two 1D factors are the two members of one batched :func:`evolve`
    call, with their potentials stacked (zero where one is None).

    Returns the series plus the trajectories for further diagnostics
    (e.g. marginal-density checks): (series, traj_2d, traj_1, traj_2).
    """
    grid2 = product_grid(grid)
    psi0 = tensor_product(psi1, psi2)
    v2d = v1d = None
    if V1 is not None or V2 is not None:
        vx = np.zeros(grid.n) if V1 is None else np.asarray(V1)
        vy = np.zeros(grid.n) if V2 is None else np.asarray(V2)
        v2d = vx[:, None] + vy[None, :]
        v1d = np.stack([vx, vy])
    traj_2d = evolve(c, psi0, grid2, config, v2d)
    traj_1, traj_2 = evolve([c, c], np.stack([psi1, psi2]), grid, config, v1d)
    series = []
    for i, t in enumerate(traj_2d.times):
        prod = tensor_product(traj_1.frames[i], traj_2.frames[i])
        series.append((float(t), l2_norm(traj_2d.frames[i] - prod, grid2)))
    return series, traj_2d, traj_1, traj_2
