"""Right-hand side and time integration of the 10-coefficient nonlinear family

    i d/dt psi = (nu1 lap + mu0 V) psi + i nu2 R2[psi] psi
                 + sum_i mu_i R_i[psi] psi
                 + alpha1 log|psi|^2 psi + alpha2 (arg psi) psi

where R1..R5 are the quotient functionals of :mod:`nlgauge.functionals` built
with the equation's own nu1, and arg is the unwrapped phase. Every term except
the i*nu2 one acts as a real multiplier and conserves the norm pointwise; the
nu2 term adds 2*nu2*lap(rho) to d/dt rho, whose integral vanishes on the
periodic box. Hence the norm is conserved for every coefficient setting.

:func:`rhs` evaluates all terms from one batched spectral pass: one forward
transform of the stacked [psi, rho], one inverse transform of the stacked
derivative spectra [lap psi, grad psi, lap rho, grad rho] (each block only
when a term needs it), and for R1 one forward transform of the stacked
current components and one inverse of div J, summed over axes in k-space.
That is at most four transforms per evaluation in 1D and 2D alike. All
transforms are those of the :mod:`nlgauge.grid` transform layer on
``numpy.fft``: the complex stacks are transformed in place, in 2D as two 1D
passes (axis -2, then axis -1), and the real current goes through its half
spectrum (``rfft``, and in 2D one ``fft`` over axis -2) with the half-layout
multipliers ``grid.ik_half``. All terms except i*nu2*R2 are summed into one
real field m, the density-floor gate is folded once into 1/rho, and the
result is -i (nu1 lap psi + (m + i nu2 R2) psi).
:func:`nlgauge.functionals.functional_R` computes each quotient on its own,
with separate transforms, and is kept as the independent oracle that the
tests compare :func:`rhs` against.

Members. :func:`rhs`, :func:`step_rk4` and :func:`evolve` take either one
member (an :class:`NLSECoefficients` and a field of ``grid.shape``) or a
sequence of B members with a stack of B fields, shape ``(B, *grid.shape)``,
advanced with one step sequence. In a batch the coefficients act as
``(B, 1[, 1])`` columns; the density floor eps (``rho_floor_rel`` times the
member's own maximum), the valid mask and the ``alpha2`` anchor (the first
maximum of the member's own ``|psi|``) are per member, so every row is what
the member would get alone. Which term blocks are computed is the union over
the batch: a member whose coefficient is zero multiplies a finite field by
0. :func:`evolve` checks each member's initial state and stability bound and
returns one :class:`Trajectory` per member; the non-finite and norm-drift
aborts name the member that failed.

Integration is classical RK4, uniform across the family. The linear equation
has an exact split-step propagator (exact to rounding when V == 0) used as the
oracle for linearizability experiments.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .functionals import DEFAULT_POLICY, RegularizationPolicy, density, unwrap_phase
from .grid import GridSpec, fft_stack, ifft_stack, irfft_field, l2_norm, rfft_field


class NumericalBlowupError(RuntimeError):
    """Raised when the state leaves the finite/normalized regime."""


COEFF_NAMES = ("nu1", "nu2", "mu0", "mu1", "mu2", "mu3", "mu4", "mu5",
               "alpha1", "alpha2")
Nonzero = namedtuple("Nonzero", COEFF_NAMES)


@dataclass(frozen=True)
class NLSECoefficients:
    """The ten real coefficients. Defaults give the free linear equation."""

    nu1: float = -0.5
    nu2: float = 0.0
    mu0: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0
    mu3: float = 0.0
    mu4: float = 0.0
    mu5: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in self.as_array()):
            raise ValueError("coefficients must be finite")

    def linear_case(self) -> bool:
        """True when only nu1 and mu0 may be nonzero."""
        return (self.nu2 == self.mu1 == self.mu2 == self.mu3 == self.mu4
                == self.mu5 == self.alpha1 == self.alpha2 == 0.0)

    @cached_property
    def nonzero(self) -> Nonzero:
        """Which coefficients are nonzero, by name."""
        return Nonzero(*(self.as_array() != 0.0).tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.nu1, self.nu2, self.mu0, self.mu1, self.mu2,
                         self.mu3, self.mu4, self.mu5, self.alpha1, self.alpha2])

    @classmethod
    def from_array(cls, a) -> "NLSECoefficients":
        a = [float(v) for v in a]
        return cls(nu1=a[0], nu2=a[1], mu0=a[2], mu1=a[3], mu2=a[4],
                   mu3=a[5], mu4=a[6], mu5=a[7], alpha1=a[8], alpha2=a[9])


class _Columns:
    """B members' coefficients as ``(B, 1[, 1])`` columns under the same
    names, with ``nonzero`` the union over the batch."""

    def __init__(self, cs, dimension: int):
        a = np.array([c.as_array() for c in cs])
        if not len(a):
            raise ValueError("a batch needs at least one member")
        shape = (len(a),) + (1,) * dimension
        for name, col in zip(COEFF_NAMES, a.T):
            setattr(self, name, col.reshape(shape))
        self.nonzero = Nonzero(*(a != 0.0).any(axis=0).tolist())


@dataclass(frozen=True)
class SimulationConfig:
    """Time stepping and output cadence."""

    dt: float
    t_final: float
    output_every: int = 1
    policy: RegularizationPolicy = field(default_factory=RegularizationPolicy)
    force_dt: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")

    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))

    def refined(self, factor: int = 2) -> "SimulationConfig":
        return replace(self, dt=self.dt / factor,
                       output_every=self.output_every * factor)


@dataclass
class Trajectory:
    """Output frames (t=0 and t=t_final always included) plus diagnostics."""

    grid: GridSpec
    times: np.ndarray
    frames: list
    norms: np.ndarray
    regularized_fractions: np.ndarray

    def __len__(self):
        return len(self.frames)

    def final(self) -> np.ndarray:
        return self.frames[-1]

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def stability_bound(c: NLSECoefficients, grid: GridSpec) -> float:
    """Heuristic explicit-scheme bound 0.2*dx^2 / max(|nu1|, |nu2|, dx^2)."""
    dx2 = grid.dx ** 2
    return 0.2 * dx2 / max(abs(c.nu1), abs(c.nu2), dx2)


def _derivatives(psi: np.ndarray, rho: np.ndarray | None, grid: GridSpec,
                 grad_psi: bool, lap_rho: bool, grad_rho: bool) -> np.ndarray:
    """Stack of [lap psi, grad psi, lap rho, grad rho] (each block only when
    asked for) from one forward transform of the stacked [psi, rho] and one
    inverse transform of the stacked derivative spectra. The block axis
    comes first, before any member axis of psi."""
    with_rho = lap_rho or grad_rho
    fwd = np.empty((1 + with_rho,) + psi.shape, complex)
    fwd[0] = psi
    if with_rho:
        fwd[1] = rho
    spec = fft_stack(fwd, grid)
    lap, ik = grid.laplacian_symbol, grid.ik
    pairs = [(spec[0], lap)]
    if grad_psi:
        pairs += [(spec[0], k) for k in ik]
    if lap_rho:
        pairs.append((spec[1], lap))
    if grad_rho:
        pairs += [(spec[1], k) for k in ik]
    out = np.empty((len(pairs),) + psi.shape, complex)
    for row, (f_k, mult) in zip(out, pairs):
        np.multiply(f_k, mult, out=row)
    return ifft_stack(out, grid)


def rhs(c, psi: np.ndarray, grid: GridSpec, V: np.ndarray | None = None,
        policy: RegularizationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """d/dt psi for the family from one batched spectral pass (module doc).

    ``c`` is one :class:`NLSECoefficients` with ``psi`` of ``grid.shape``, or
    a sequence of B members with ``psi`` of shape ``(B, *grid.shape)``; V is
    None, one field, or one field per member.
    """
    if not isinstance(c, (NLSECoefficients, _Columns)):
        c = _Columns(c, grid.dimension)
    on = c.nonzero
    need_lap_rho = on.nu2 or on.mu2
    need_grad_rho = on.mu4 or on.mu5
    need_j = on.mu1 or on.mu3 or on.mu4
    need_quot = need_lap_rho or need_grad_rho or need_j
    dim = grid.dimension

    rho = None
    if need_quot or on.alpha1 or on.alpha2:
        rho = density(psi)
        eps = policy.floor(rho, dim)  # one per member
        rho_s = np.maximum(rho, eps)
        valid = rho > eps
    if need_quot:
        # Below the floor the quotient numerators (spectral globals) do not
        # shrink with the local density, so numerator/eps would pump invisible
        # tail amplitudes until they blow up. The gate folded into 1/rho
        # switches the quotient terms off there; on a nodeless state it never
        # engages.
        inv_rho = 1.0 / rho_s
        if not valid.all():
            inv_rho *= valid

    derivs = _derivatives(psi, rho, grid, need_j, need_lap_rho, need_grad_rho)
    h = c.nu1 * derivs[0]
    i = 1
    if need_j:
        jvec = (-2.0 * c.nu1) * np.imag(np.conj(psi) * derivs[i:i + dim])
        i += dim
    if need_lap_rho:
        r2 = derivs[i].real * inv_rho
        i += 1
    if need_grad_rho:
        grad_rho_over_rho = derivs[i:i + dim].real * inv_rho
    del derivs  # no view into the stack is kept; free it before the J transforms

    # every term but i*nu2*R2 multiplies psi by one real field m
    m = None
    if on.mu1:
        ik = grid.ik_half
        j_k = rfft_field(jvec, grid)
        div_k = j_k[0]
        div_k *= ik[0]
        for a in range(1, dim):
            div_k += ik[a] * j_k[a]
        m = _add(m, c.mu1 * irfft_field(div_k, grid) * inv_rho)
    if on.mu2:
        m = _add(m, c.mu2 * r2)
    if on.mu3 or on.mu4:
        j_over_rho = jvec * inv_rho
        if on.mu3:
            m = _add(m, c.mu3 * _dot(j_over_rho, j_over_rho))
        if on.mu4:
            m = _add(m, c.mu4 * _dot(j_over_rho, grad_rho_over_rho))
    if on.mu5:
        m = _add(m, c.mu5 * _dot(grad_rho_over_rho, grad_rho_over_rho))
    if on.alpha1:
        m = _add(m, c.alpha1 * np.log(rho_s))
    if on.alpha2:
        m = _add(m, c.alpha2 * unwrap_phase(psi, valid=valid, dimension=dim))
    if on.mu0 and V is not None:
        m = _add(m, c.mu0 * V)  # last: V may be a broadcastable field

    if on.nu2:
        m = 1j * c.nu2 * r2 if m is None else m + 1j * c.nu2 * r2
    if m is not None:
        h += m * psi
    h *= -1j
    return h


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two per-axis stacked vector fields."""
    out = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        out += x * y
    return out


def _add(total, term):
    """total + term, in place on total (a fresh full-shape array here)."""
    if total is None:
        return term
    total += term
    return total


def step_rk4(c, psi: np.ndarray, grid: GridSpec, dt: float,
             V: np.ndarray | None = None,
             policy: RegularizationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """One classical Runge-Kutta step; local error O(dt^5). ``c``, ``psi``
    and ``V`` as in :func:`rhs`."""
    if not isinstance(c, (NLSECoefficients, _Columns)):
        c = _Columns(c, grid.dimension)
    k1 = rhs(c, psi, grid, V, policy)
    k2 = rhs(c, psi + 0.5 * dt * k1, grid, V, policy)
    k3 = rhs(c, psi + 0.5 * dt * k2, grid, V, policy)
    k4 = rhs(c, psi + dt * k3, grid, V, policy)
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _member(batch: bool, b: int) -> str:
    """Prefix naming member b in the messages of a batched run."""
    return f"member {b}: " if batch else ""


def _check_initial(psi0: np.ndarray, grid: GridSpec, members: int | None = None) -> None:
    """Shape, finiteness and normalization of one initial state, or of each
    row of a stack of ``members`` states."""
    batch = members is not None
    shape = (members,) + grid.shape if batch else grid.shape
    if psi0.shape != shape:
        what = f"{members} stacked states" if batch else "grid"
        raise ValueError(f"initial state shape {psi0.shape} != {what} shape {shape}")
    for b, p in enumerate(psi0 if batch else [psi0]):
        if not np.all(np.isfinite(p)):
            raise ValueError(f"{_member(batch, b)}initial state contains non-finite entries")
        nrm = l2_norm(p, grid)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"{_member(batch, b)}initial state must be normalized, "
                             f"got ||psi0|| = {nrm!r}")


def _run_steps(stepper, psi0, grid, config, label, batch=False):
    """Shared driver: step, watch for NaN/norm blow-up, collect output frames.
    With ``batch``, axis 0 of psi0 indexes members and a list with one
    trajectory per member is returned."""
    n_steps = config.n_steps()
    policy = config.policy
    psi = np.array(psi0, dtype=complex)
    rows = psi if batch else psi[None]
    times = [0.0]
    frames = [[np.array(r)] for r in rows]
    norms = [[l2_norm(r, grid)] for r in rows]
    fracs = [[policy.regularized_fraction(density(r))] for r in rows]
    for step in range(1, n_steps + 1):
        psi = stepper(psi)
        rows = psi if batch else psi[None]
        if not np.all(np.isfinite(psi)):
            b = next(b for b, r in enumerate(rows) if not np.all(np.isfinite(r)))
            raise NumericalBlowupError(
                f"{label}: {_member(batch, b)}non-finite state at step {step} "
                f"(t={step * config.dt:g}); try a smaller dt")
        if step % config.output_every == 0 or step == n_steps:
            nrms = [l2_norm(r, grid) for r in rows]
            for b, nrm in enumerate(nrms):
                if abs(nrm - norms[b][0]) > 1e-3:
                    raise NumericalBlowupError(
                        f"{label}: {_member(batch, b)}norm drifted by "
                        f"{abs(nrm - norms[b][0]):.3e} at t={step * config.dt:g}; "
                        "the run is unresolved")
            times.append(step * config.dt)
            for b, r in enumerate(rows):
                frames[b].append(np.array(r))
                norms[b].append(nrms[b])
                fracs[b].append(policy.regularized_fraction(density(r)))
    trajs = [Trajectory(grid=grid, times=np.array(times), frames=frames[b],
                        norms=np.array(norms[b]),
                        regularized_fractions=np.array(fracs[b]))
             for b in range(len(frames))]
    return trajs if batch else trajs[0]


def evolve(c, psi0: np.ndarray, grid: GridSpec, config: SimulationConfig,
           V: np.ndarray | None = None):
    """Integrate the family with RK4 up to t_final.

    One member ``c`` with ``psi0`` of ``grid.shape`` gives one
    :class:`Trajectory`. A sequence of B members with ``psi0`` of shape
    ``(B, *grid.shape)`` (and V None, one field, or one field per member)
    advances all of them with one step sequence and gives a list of B
    trajectories, each equal to the member's own run (module doc).

    Norm is never renormalized during the run; drift is a diagnostic and a
    drift beyond 1e-3 aborts the run as unresolved. Each member's initial
    state and stability bound are checked before any step.
    """
    batch = not isinstance(c, NLSECoefficients)
    members = list(c) if batch else [c]
    psi0 = np.asarray(psi0)
    _check_initial(psi0, grid, len(members) if batch else None)
    for b, cb in enumerate(members):
        bound = stability_bound(cb, grid)
        if config.dt > bound and not config.force_dt:
            raise ValueError(
                f"{_member(batch, b)}dt={config.dt:g} exceeds the stability bound "
                f"{bound:g} (pass force_dt=True to override)")
    coeffs = _Columns(members, grid.dimension) if batch else c
    policy = config.policy
    return _run_steps(lambda p: step_rk4(coeffs, p, grid, config.dt, V, policy),
                      psi0, grid, config, "evolve", batch)


def evolve_linear_exact(nu1: float, psi0: np.ndarray, grid: GridSpec,
                        config: SimulationConfig, V: np.ndarray | None = None,
                        mu0: float = 1.0) -> Trajectory:
    """Strang split-step for i d/dt psi = (nu1 lap + mu0 V) psi.

    The kinetic factor is the exact Fourier phase, so with V == 0 the
    propagator is exact to rounding for any dt; with V != 0 it is the
    second-order Strang composition. No stability bound applies.
    """
    _check_initial(psi0, grid)
    kinetic = np.exp(1j * nu1 * grid.k_squared_total * config.dt)

    def free(p):  # p is a fresh array, transformed in place
        p = fft_stack(p, grid)
        p *= kinetic
        return ifft_stack(p, grid)

    if V is None or mu0 == 0.0:
        def stepper(p):
            return free(p.copy())
    else:
        half_v = np.exp(-0.5j * mu0 * V * config.dt)

        def stepper(p):
            return half_v * free(half_v * p)
    return _run_steps(stepper, psi0, grid, config, "evolve_linear_exact")
