"""The evaluation plan that evolve makes once per run, and the call contract
that the benchmark tracer relies on.

``evolve`` folds the coefficients into the spectral multipliers once and
hands that plan to every ``step_rk4`` and ``rhs`` call. These tests pin that
a plan gives the bits that a call with the coefficients gives, that a plan is
refused on another grid, that a direct call keeps no plan after it returns,
and that ``step_rk4`` sums its stages in the classical order. The tracer
wraps ``rhs``, ``step_rk4`` and ``unwrap_phase`` by replacing every module
attribute that holds them, so they must be called through the module globals
and held by no module-level container."""

import gc
import sys

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import NLSECoefficients, SimulationConfig, dynamics, functionals

from conftest import trig_packet

FULL = NLSECoefficients(nu1=-0.5, nu2=0.05, mu0=0.3, mu1=0.05, mu2=0.05,
                        mu3=0.05, mu4=-0.05, mu5=0.02, alpha1=0.05, alpha2=0.05)
MEMBERS = [FULL, NLSECoefficients(nu1=-0.3, mu0=1.0, alpha2=0.2),
           NLSECoefficients(nu1=-0.4, nu2=0.02, mu1=0.1, mu3=0.04, alpha1=-0.1)]
ORIGINAL_RHS = dynamics.rhs


@pytest.fixture(params=[1, 2], ids=["1d", "2d"])
def grid(request):
    return ng.make_grid(request.param, 64 if request.param == 1 else 32, 20.0)


def states(grid, count):
    return np.array([trig_packet(grid, depth=1.0 + 0.1 * b, s1=0.1 * b)
                     for b in range(count)])


@pytest.fixture
def rhs_calls(monkeypatch):
    """Record (c, state, V) of every rhs call made through the module global;
    the state is copied, since step_rk4 reuses its stage buffer."""
    calls, original = [], dynamics.rhs

    def recording(c, psi, *args, **kwargs):
        calls.append((c, psi.copy(), args[1] if len(args) > 1 else None))
        return original(c, psi, *args, **kwargs)

    monkeypatch.setattr(dynamics, "rhs", recording)
    return calls


class TestPlan:
    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_evolve_plan_gives_the_bits_of_the_coefficients(self, grid, batch,
                                                             rhs_calls):
        c = MEMBERS if batch else FULL
        psi0 = states(grid, len(MEMBERS)) if batch else states(grid, 1)[0]
        V = ng.states.harmonic_potential(grid, omega=0.4)
        ng.evolve(c, psi0, grid, SimulationConfig(dt=2e-3, t_final=4e-3), V)
        assert len(rhs_calls) == 8
        plans = {id(plan) for plan, _, _ in rhs_calls}
        assert len(plans) == 1                     # one plan for the run
        plan = rhs_calls[0][0]
        assert isinstance(plan, dynamics._Plan)
        for _, psi, v in rhs_calls:
            got = ORIGINAL_RHS(plan, psi, grid, v)
            assert np.array_equal(got, ORIGINAL_RHS(c, psi, grid, v))
            if batch:  # every row is the member's own rhs, bit for bit
                for b, member in enumerate(MEMBERS):
                    assert np.array_equal(got[b], ORIGINAL_RHS(member, psi[b], grid, v))

    def test_plan_refused_on_another_grid(self, grid):
        plan = dynamics._Plan(FULL, grid)
        psi = trig_packet(grid)
        for other in (ng.make_grid(grid.dimension, grid.n, 2 * grid.length),
                      ng.make_grid(grid.dimension, 2 * grid.n, grid.length)):
            moved = trig_packet(other)
            with pytest.raises(ValueError, match="plan was made for"):
                ng.rhs(plan, moved, other)
            with pytest.raises(ValueError, match="plan was made for"):
                ng.step_rk4(plan, moved, other, 1e-3)
        # an equal grid built apart is the same grid
        twin = ng.make_grid(grid.dimension, grid.n, grid.length)
        assert np.array_equal(ng.rhs(plan, psi, twin), ng.rhs(FULL, psi, grid))

    @pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
    def test_direct_calls_keep_no_plan(self, dimension):
        # a direct call's plan lives only as long as the call
        grid = ng.make_grid(dimension, 16, 7.0)  # a grid no other test makes
        psi, stack = trig_packet(grid), states(grid, len(MEMBERS))
        for c, p in ((FULL, psi), (MEMBERS, stack)):
            ng.rhs(c, p, grid)
            ng.step_rk4(c, p, grid, 1e-3)
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if isinstance(o, dynamics._Plan) and o.grid == grid]
        assert alive == []

    def test_direct_calls_on_two_grids_in_turn(self, grid):
        # each direct call gives the bits of the plan of its own grid
        other = ng.make_grid(grid.dimension, grid.n, 2 * grid.length)
        psi, moved = trig_packet(grid), trig_packet(other)
        for g, p in ((grid, psi), (other, moved), (grid, psi)):
            got = ng.rhs(FULL, p, g)
            assert np.array_equal(got, ng.rhs(dynamics._Plan(FULL, g), p, g))

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_step_sums_the_stages_in_the_classical_order(self, grid, batch):
        c = MEMBERS if batch else FULL
        psi = states(grid, len(MEMBERS)) if batch else trig_packet(grid)
        dt = 2e-3
        k1 = ng.rhs(c, psi, grid)
        k2 = ng.rhs(c, psi + 0.5 * dt * k1, grid)
        k3 = ng.rhs(c, psi + 0.5 * dt * k2, grid)
        k4 = ng.rhs(c, psi + dt * k3, grid)
        expect = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(ng.step_rk4(c, psi, grid, dt), expect)

    def test_folded_factors(self, grid):
        # each member's coefficients, and the 1/N of the unscaled inverse
        # transforms, are folded into the plan once
        plan = dynamics._Plan(MEMBERS, grid)
        n = grid.npoints
        col = (len(MEMBERS),) + (1,) * grid.dimension
        nu1, nu2, mu1, mu2 = (np.array([getattr(m, name) for m in MEMBERS]).reshape(col)
                              for name in ("nu1", "nu2", "mu1", "mu2"))
        lap = grid.laplacian_symbol
        np.testing.assert_allclose(plan.psi_scale * n, -1j * nu1, rtol=1e-15, atol=0)
        expect = ([(0, lap)] + [(0, -2j * k) for k in grid.ik]
                  + [(1, lap)] + [(1, k / n) for k in grid.ik])
        assert [block for block, _ in plan.rows] == [block for block, _ in expect]
        for (_, got), (_, want) in zip(plan.rows, expect):
            np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                       rtol=1e-15, atol=0)
        np.testing.assert_allclose(plan.r2_factor * n, nu2 - 1j * mu2, rtol=1e-15, atol=0)
        for got, k in zip(plan.div, grid.ik_half):
            np.testing.assert_allclose(got * n, mu1 * k, rtol=1e-15, atol=0)
        # beyond the grid's own lap, no multiplier of the 2D grid's size
        if grid.dimension == 2:
            held = [m for _, m in plan.rows if m is not lap] + plan.div
            assert all(m.size < grid.npoints for m in held)


class TestTracerContract:
    """The benchmark reads ``dynamics.rhs.calls`` and
    ``functionals.unwrap_phase.calls`` from wrappers put in place of the
    module attributes; a call that bypasses them would read as 0."""

    def test_calls_go_through_the_module_globals(self, monkeypatch, grid64):
        counts = {"rhs": 0, "unwrap_phase": 0}
        for module, name in ((dynamics, "rhs"), (dynamics, "unwrap_phase")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        steps = 5
        c = NLSECoefficients(nu1=-0.5, alpha2=0.2)
        ng.evolve(c, trig_packet(grid64), grid64,
                  SimulationConfig(dt=1e-3, t_final=steps * 1e-3, output_every=steps))
        assert counts == {"rhs": 4 * steps, "unwrap_phase": 4 * steps}
        ng.evolve(MEMBERS, states(grid64, len(MEMBERS)), grid64,
                  SimulationConfig(dt=1e-3, t_final=steps * 1e-3))
        assert counts == {"rhs": 8 * steps, "unwrap_phase": 8 * steps}

    def test_no_module_container_holds_a_traced_function(self):
        traced = {id(f): f for f in (dynamics.rhs, dynamics.step_rk4,
                                     functionals.unwrap_phase)}
        held = []
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != "nlgauge":
                continue
            for key, value in vars(module).items():
                items = value.values() if isinstance(value, dict) else \
                    value if isinstance(value, (list, tuple)) else ()
                held += [f"{name}.{key}" for v in items
                         if id(v) in traced and traced[id(v)] is v]
        assert held == []
