"""Right-hand side and time integration of the 10-coefficient nonlinear family

    i d/dt psi = (nu1 lap + mu0 V) psi + i nu2 R2[psi] psi
                 + sum_i mu_i R_i[psi] psi
                 + alpha1 log|psi|^2 psi + alpha2 (arg psi) psi

where R1..R5 are the quotient functionals

    R1 = div J / rho      R2 = lap rho / rho      R3 = J^2 / rho^2
    R4 = J . grad rho / rho^2                     R5 = (grad rho)^2 / rho^2

with J = :func:`nlgauge.functionals.current` built with the equation's own
nu1, and arg is the unwrapped phase. Every term except the i*nu2 one acts as
a real multiplier and conserves the norm pointwise; the nu2 term adds
2*nu2*lap(rho) to d/dt rho, whose integral vanishes on the periodic box.
Hence the norm is conserved for every coefficient setting.

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
multipliers ``grid.ik_half``.

The plan. What a run keeps fixed is worked out once, by :func:`evolve` after
its input checks, in a private plan that every :func:`step_rk4` and
:func:`rhs` call of the run shares: the coefficients, which term blocks are
on, and the spectral factors with the coefficients folded in,

    -i nu1 / N         on psi as it is copied into the forward stack, so that
                       with the grid's lap and 2k the rows are -i nu1 lap psi
                       (the linear part of the result) and -2 nu1 grad psi
                       (J = Im(conj(psi) row), with no extra pass)
    (nu2 - i mu2) / N  on the lap rho row once it is divided by rho, so that
                       it holds (nu2 - i mu2) R2
    mu1 ik_half / N    for the half spectrum of J, so its inverse is mu1 div J

where 1/N is the factor that the inverse transforms then leave out (numpy's
``norm="forward"``; the same bits when n is a power of two). The plan holds
no array of the grid's size, for one member or a batch: the lap rho row
takes the grid's own lap, since a (nu2 - i mu2) lap multiplier held for the
run raised the peak resident memory of 2D runs. A direct call makes its own
plan. The density-floor gate is folded once into 1/rho, and every derivative
row but -i nu1 lap psi is scaled by it in place, after the transform of J
(with mu3 = mu4 = 0 the current rows are then scaled but not read). The
other terms are summed into one real field m, and the result is
h = K psi + (-i nu1 lap psi) with the single complex multiplier
K = (nu2 - i mu2) R2 - i m.

:func:`rhs` is the package's only implementation of the quotients. Its
oracles live in the tests: closed forms of every term on psi = exp(u + iS)
with trig-polynomial u and S (``tests/test_closed_form.py``), and a
per-quotient spectral reference with separate transforms and no gate
(``quotient_reference`` in ``tests/conftest.py``), itself certified by the
closed forms.

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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .functionals import DEFAULT_POLICY, RegularizationPolicy, density, unwrap_phase
from .grid import (GridSpec, ensure_field, ensure_state, fft_stack, ifft_stack,
                   irfft_field, l2_norm, rfft_field)


class NumericalBlowupError(RuntimeError):
    """Raised when the state leaves the finite/normalized regime."""


@dataclass(frozen=True)
class NLSECoefficients:
    """The ten real coefficients. Their field names, in order, are
    :data:`COEFF_NAMES`, the one list of them. Defaults give the free linear
    equation."""

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
        return all(getattr(self, k) == 0.0 for k in COEFF_NAMES if k not in ("nu1", "mu0"))

    def as_array(self) -> np.ndarray:
        """The ten values in :data:`COEFF_NAMES` order."""
        return np.array([getattr(self, k) for k in COEFF_NAMES])

    @classmethod
    def from_array(cls, a) -> "NLSECoefficients":
        """The member of the ten values of ``a``, in :data:`COEFF_NAMES` order."""
        a = [float(v) for v in a]
        if len(a) != len(COEFF_NAMES):
            raise ValueError(f"expected {len(COEFF_NAMES)} coefficients, got {len(a)}")
        return cls(**dict(zip(COEFF_NAMES, a)))


# the field names, in the order of as_array and of the (B, 10) array of a batch
COEFF_NAMES = tuple(f.name for f in fields(NLSECoefficients))
Nonzero = namedtuple("Nonzero", COEFF_NAMES)


class _Plan:
    """What every :func:`rhs` evaluation of one run shares, made once: the
    coefficients, which term blocks are on and the spectral factors with the
    coefficients folded in (module doc). One member or a batch is read
    through one ``(B, 10)`` array: a block is on when any member's
    coefficient is nonzero, and a coefficient is a Python float for one
    member (the bits of its attribute) or a ``(B, 1[, 1])`` column for B
    members."""

    def __init__(self, c, grid: GridSpec):
        one = isinstance(c, NLSECoefficients)
        a = np.array([m.as_array() for m in ([c] if one else c)])
        if not len(a):
            raise ValueError("a batch needs at least one member")
        values = a[0].tolist() if one else \
            a.T.reshape((len(COEFF_NAMES), len(a)) + (1,) * grid.dimension)
        vars(self).update(zip(COEFF_NAMES, values))  # plan.nu1, ..., plan.alpha2
        self.grid = grid
        self.on = on = Nonzero(*(a != 0.0).any(axis=0).tolist())
        self.lap_rho = on.nu2 or on.mu2
        self.grad_rho = on.mu4 or on.mu5
        self.current = on.mu1 or on.mu3 or on.mu4
        self.quotients = self.lap_rho or self.grad_rho or self.current
        # (block of the forward stack, multiplier) per derivative row. psi is
        # transformed as (-i nu1 / N) psi, so the grid's own lap and 2k give
        # the rows -i nu1 lap psi and -2 nu1 grad psi; the other multipliers
        # carry their coefficients and the 1/N of the unscaled inverse
        # transforms; (nu2 - i mu2) / N is applied to the lap rho row in rhs.
        self.psi_scale = -1j * self.nu1 / grid.npoints
        self.rows = [(0, grid.laplacian_symbol)]
        if self.current:
            self.rows += [(0, 2.0 * grid.wavenumbers(a, zero_nyquist=True))
                          for a in range(grid.dimension)]
        if self.lap_rho:
            self.rows.append((1, grid.laplacian_symbol))
            self.r2_factor = (self.nu2 - 1j * self.mu2) / grid.npoints
        if self.grad_rho:
            self.rows += [(1, k / grid.npoints) for k in grid.ik]
        if on.mu1:
            self.div = [(self.mu1 / grid.npoints) * k for k in grid.ik_half]
        # rhs scales every row but -i nu1 lap psi by 1/rho, after the J
        # transform: the current rows too when only div J reads them


def _plan_of(c, grid: GridSpec) -> _Plan:
    """``c`` itself when it is a plan (:func:`evolve`'s), else a new plan of
    the member or batch ``c`` on ``grid``, which lives as long as the call."""
    return c if isinstance(c, _Plan) else _Plan(c, grid)


def _is_count(value) -> bool:
    """An integer >= 1; a bool, an int to ``isinstance``, is not one."""
    return (not isinstance(value, bool) and isinstance(value, (int, np.integer))
            and value >= 1)


@dataclass(frozen=True)
class SimulationConfig:
    """Time stepping and output cadence."""

    dt: float
    t_final: float
    output_every: int = 1
    policy: RegularizationPolicy = field(default_factory=RegularizationPolicy)
    force_dt: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.t_final < np.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if not _is_count(self.output_every):
            raise ValueError(f"output_every must be an integer >= 1, "
                             f"got {self.output_every!r}")
        # the run ends at t_final exactly, so it must be a whole number of steps
        steps = self.t_final / self.dt
        if not (np.rint(steps) >= 1 and abs(steps - np.rint(steps)) <= 1e-9 * steps):
            raise ValueError(f"t_final must be a whole number of dt steps, "
                             f"got t_final/dt = {steps!r}")

    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def refined(self, factor: int = 2) -> "SimulationConfig":
        """The same run with dt divided by ``factor``, an integer >= 1, and
        the same output times."""
        if not _is_count(factor):
            raise ValueError(f"refinement factor must be an integer >= 1, got {factor!r}")
        return replace(self, dt=self.dt / factor,
                       output_every=self.output_every * factor)


@dataclass
class Trajectory:
    """Output frames (t=0 and t=t_final always included) plus diagnostics.

    ``frames`` is empty when :func:`evolve` passed the frames to its
    ``on_frame`` destination instead of keeping them; ``times``, ``norms``
    and ``regularized_fractions`` are always filled, one entry per frame.
    """

    grid: GridSpec
    times: np.ndarray
    frames: list
    norms: np.ndarray
    regularized_fractions: np.ndarray

    def __len__(self):
        return len(self.times)

    def final(self) -> np.ndarray:
        """The last output frame; refused when the frames were streamed."""
        if not self.frames:
            raise ValueError("the trajectory holds no frames (were they streamed?)")
        return self.frames[-1]

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def stability_bound(c: NLSECoefficients, grid: GridSpec) -> float:
    """Heuristic explicit-scheme bound 0.2*dx^2 / max(|nu1|, |nu2|, dx^2)."""
    dx2 = grid.dx ** 2
    return 0.2 * dx2 / max(abs(c.nu1), abs(c.nu2), dx2)


def _derivatives(psi: np.ndarray, rho: np.ndarray | None, plan: _Plan) -> np.ndarray:
    """Stack of the plan's derivative rows from one forward transform of the
    stacked [(-i nu1 / N) psi, rho] (rho only when a row needs it) and one
    unscaled inverse transform of the multiplied spectra. The row axis comes
    first, before any member axis of psi."""
    with_rho = plan.lap_rho or plan.grad_rho
    fwd = np.empty((1 + with_rho,) + psi.shape, complex)
    np.multiply(psi, plan.psi_scale, out=fwd[0])
    if with_rho:
        fwd[1] = rho
    spec = fft_stack(fwd, plan.grid)
    out = np.empty((len(plan.rows),) + psi.shape, complex)
    for row, (block, mult) in zip(out, plan.rows):
        np.multiply(spec[block], mult, out=row)
    return ifft_stack(out, plan.grid, norm="forward")


def rhs(c, psi: np.ndarray, grid: GridSpec, V: np.ndarray | None = None,
        policy: RegularizationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """d/dt psi for the family from one batched spectral pass (module doc).

    ``c`` is one :class:`NLSECoefficients` with ``psi`` of ``grid.shape``, or
    a sequence of B members with ``psi`` of shape ``(B, *grid.shape)``; V is
    None, one field, or one field per member. :func:`evolve` passes its plan
    in place of ``c``; a plan is refused on any other grid.
    """
    plan = _plan_of(c, grid)
    if grid is not plan.grid and grid != plan.grid:
        raise ValueError(f"the plan was made for {plan.grid}, not for {grid}")
    on, dim = plan.on, grid.dimension

    rho = None
    if plan.quotients or on.alpha1 or on.alpha2:
        rho = density(psi)
        eps = policy.floor(rho, dim)  # one per member
        valid = rho > eps
        floored = np.count_nonzero(valid) < valid.size
        rho_s = np.maximum(rho, eps) if floored else rho
    if plan.quotients:
        # Below the floor the quotient numerators (spectral globals) do not
        # shrink with the local density, so numerator/eps would pump invisible
        # tail amplitudes until they blow up. The gate folded into 1/rho
        # switches the quotient terms off there; on a nodeless state it never
        # engages.
        inv_rho = 1.0 / rho_s
        if floored:
            inv_rho *= valid

    # every term but (nu2 - i mu2) R2 multiplies psi by -i times one real
    # field m; the pointwise terms come first, before the derivative stack
    # is held
    m = None
    if on.alpha1:
        m = plan.alpha1 * np.log(rho_s)
    if on.alpha2:
        m = _add(m, plan.alpha2 * unwrap_phase(psi, valid=valid if floored else None,
                                               dimension=dim, anchor_by=rho))

    derivs = _derivatives(psi, rho, plan)
    h, i = derivs[0], 1  # -i nu1 lap psi, then views of the quotient rows
    if plan.current:
        currents = derivs[i:i + dim]
        currents *= np.conj(psi)  # -2 nu1 conj(psi) grad psi: Im is J
        i += dim
    k = derivs[i] if plan.lap_rho else None  # N lap rho
    i += plan.lap_rho
    if plan.grad_rho:
        grad_rho_over_rho = derivs[i:].real
    if on.mu1:
        j_k = rfft_field(currents.imag, grid)
        div_k = j_k[0]
        div_k *= plan.div[0]
        for a in range(1, dim):
            div_k += plan.div[a] * j_k[a]
        m = _add(m, irfft_field(div_k, grid, norm="forward") * inv_rho)
    if plan.quotients:
        # in place, after the J transform: the views read from here on hold
        # J/rho (imag), N R2 and grad rho / rho (real)
        derivs[1:] *= inv_rho
    if k is not None:
        k *= plan.r2_factor  # (nu2 - i mu2) R2
    if on.mu3 or on.mu4:  # J/rho . (mu3 J/rho + mu4 grad rho/rho)
        j_over_rho = currents.imag
        weighted = plan.mu3 * j_over_rho
        if on.mu4:
            weighted += plan.mu4 * grad_rho_over_rho
        m = _add(m, _dot(j_over_rho, weighted))
    if on.mu5:
        m = _add(m, plan.mu5 * _dot(grad_rho_over_rho, grad_rho_over_rho))
    if on.mu0 and V is not None:
        m = _add(m, plan.mu0 * V)  # last: V may be a broadcastable field

    # K = (nu2 - i mu2) R2 - i m, and the result K psi + h
    if k is None and m is None:
        return h
    if k is None:
        k = m * -1j
    elif m is not None:
        k.imag -= m
    return k * psi + h


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise dot product of two per-axis stacked vector fields."""
    out = a[0] * b[0]
    for axis in range(1, len(a)):
        out += a[axis] * b[axis]
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
    and ``V`` as in :func:`rhs`. The stages are combined in place, summed as
    psi + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)."""
    plan = _plan_of(c, grid)
    k = total = rhs(plan, psi, grid, V, policy)
    for shift, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        k = rhs(plan, psi + shift * k, grid, V, policy)
        total += weight * k
    total *= dt / 6.0
    total += psi
    return total


def _member(batch: bool, b: int) -> str:
    """Prefix naming member b in the messages of a batched run."""
    return f"member {b}: " if batch else ""


def _check_inputs(psi0: np.ndarray, V, grid: GridSpec,
                  members: int | None = None) -> None:
    """Shape, finiteness and normalization of one initial state, or of each
    row of a stack of ``members`` states; and V: None, one finite field of
    ``grid.shape`` or, for a stack, one finite field per member."""
    batch = members is not None
    shape = (members,) + grid.shape if batch else grid.shape
    if psi0.shape != shape:
        what = f"{members} stacked states" if batch else "grid"
        raise ValueError(f"initial state shape {psi0.shape} != {what} shape {shape}")
    for b, p in enumerate(psi0 if batch else [psi0]):
        ensure_state(p, grid, f"{_member(batch, b)}initial state")
    if V is None:
        return
    stack = batch and np.ndim(V) > grid.dimension
    if stack and len(V) != members:
        raise ValueError(f"potential stack has {len(V)} fields for {members} members")
    for b, v in enumerate(V if stack else [V]):
        ensure_field(v, grid, f"{_member(stack, b)}potential")


def _run_steps(stepper, psi0, grid, config, label, batch=False, on_frame=None):
    """Shared driver: step, watch for NaN/norm blow-up, and pass each output
    frame (t=0 first) to ``on_frame(t, state)`` after its checks; without
    ``on_frame`` the frames are collected into the trajectories. The state
    is passed without a copy; the stepper returns a fresh array, so no later
    step writes into it. With ``batch``, axis 0 of psi0 indexes members and
    a list with one trajectory per member is returned."""
    n_steps = config.n_steps()
    policy = config.policy
    psi = np.array(psi0, dtype=complex)
    frames = [[] for _ in (psi if batch else [psi])]
    if on_frame is None:
        def on_frame(t, state):
            for kept, r in zip(frames, state if batch else [state]):
                kept.append(np.array(r))
    times, norms, fracs = [], [], []
    for step in range(n_steps + 1):
        if step:
            psi = stepper(psi)
            if not np.all(np.isfinite(psi)):
                rows = psi if batch else [psi]
                b = next(b for b, r in enumerate(rows) if not np.all(np.isfinite(r)))
                raise NumericalBlowupError(
                    f"{label}: {_member(batch, b)}non-finite state at step {step} "
                    f"(t={step * config.dt:g}); try a smaller dt")
            if step % config.output_every and step != n_steps:
                continue
        rows = psi if batch else [psi]
        norms.append([l2_norm(r, grid) for r in rows])
        for b, nrm in enumerate(norms[-1]):
            if abs(nrm - norms[0][b]) > 1e-3:
                raise NumericalBlowupError(
                    f"{label}: {_member(batch, b)}norm drifted by "
                    f"{abs(nrm - norms[0][b]):.3e} at t={step * config.dt:g}; "
                    "the run is unresolved")
        times.append(step * config.dt)
        fracs.append([policy.regularized_fraction(density(r)) for r in rows])
        on_frame(step * config.dt, psi)
    norms, fracs = np.array(norms).T, np.array(fracs).T
    trajs = [Trajectory(grid=grid, times=np.array(times), frames=frames[b],
                        norms=norms[b], regularized_fractions=fracs[b])
             for b in range(len(frames))]
    return trajs if batch else trajs[0]


def evolve(c, psi0: np.ndarray, grid: GridSpec, config: SimulationConfig,
           V: np.ndarray | None = None, on_frame=None):
    """Integrate the family with RK4 up to t_final.

    One member ``c`` with ``psi0`` of ``grid.shape`` gives one
    :class:`Trajectory`. A sequence of B members with ``psi0`` of shape
    ``(B, *grid.shape)`` (and V None, one field, or one field per member)
    advances all of them with one step sequence and gives a list of B
    trajectories, each equal to the member's own run (module doc).

    Norm is never renormalized during the run; drift is a diagnostic and a
    drift beyond 1e-3 aborts the run as unresolved. Each member's initial
    state, potential and stability bound are checked before any step.

    ``on_frame(t, state)``, if given, receives each output frame as soon as
    it is computed and has passed the non-finite and norm-drift checks: t=0
    first, ``state`` of the shape of ``psi0`` (the whole stack in a batch).
    The state is not copied, and no later step writes into it, so it may
    still be read after ``on_frame`` returns, while the next steps run. The
    frames are then not kept: the trajectories hold times, norms and
    regularized fractions with an empty ``frames`` list, so memory does not
    grow with the number of frames.
    """
    batch = not isinstance(c, NLSECoefficients)
    members = list(c) if batch else [c]
    psi0 = np.asarray(psi0)
    _check_inputs(psi0, V, grid, len(members) if batch else None)
    for b, cb in enumerate(members):
        bound = stability_bound(cb, grid)
        if not config.dt <= bound and not config.force_dt:
            raise ValueError(
                f"{_member(batch, b)}dt={config.dt:g} exceeds the stability bound "
                f"{bound:g} (pass force_dt=True to override)")
    plan = _Plan(members if batch else c, grid)
    policy = config.policy
    return _run_steps(lambda p: step_rk4(plan, p, grid, config.dt, V, policy),
                      psi0, grid, config, "evolve", batch, on_frame)


def evolve_linear_exact(nu1: float, psi0: np.ndarray, grid: GridSpec,
                        config: SimulationConfig, V: np.ndarray | None = None
                        ) -> Trajectory:
    """Strang split-step for i d/dt psi = (nu1 lap + V) psi.

    The kinetic factor is the exact Fourier phase, so with V == 0 the
    propagator is exact to rounding for any dt; with V != 0 it is the
    second-order Strang composition. No stability bound applies.
    """
    _check_inputs(psi0, V, grid)
    kinetic = np.exp(-1j * nu1 * grid.laplacian_symbol * config.dt)

    def free(p):  # p is a fresh array, transformed in place
        p = fft_stack(p, grid)
        p *= kinetic
        return ifft_stack(p, grid)

    if V is None:
        def stepper(p):
            return free(p.copy())
    else:
        half_v = np.exp(-0.5j * V * config.dt)

        def stepper(p):
            return half_v * free(half_v * p)
    return _run_steps(stepper, psi0, grid, config, "evolve_linear_exact")
