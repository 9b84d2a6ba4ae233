"""Batched evolution: a leading member axis through rhs, unwrap_phase,
step_rk4 and evolve, certified row by row against single-member calls, and
the consumers that must enter it through one evolve call per dt."""

import sys
import tracemalloc

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import NLSECoefficients, SimulationConfig, dynamics, ensembles
from nlgauge.dynamics import NumericalBlowupError

from conftest import trig_packet

FULL = NLSECoefficients(nu1=-0.5, nu2=0.05, mu0=0.3, mu1=0.05, mu2=0.05,
                        mu3=0.05, mu4=-0.05, mu5=0.02, alpha1=0.05, alpha2=0.05)
MEMBERS = [
    FULL,                                            # on the floored row
    NLSECoefficients(nu1=-0.5),                      # linear
    NLSECoefficients(nu1=-0.3, mu0=1.0, alpha2=0.2),
    NLSECoefficients(nu1=-0.4, nu2=0.02, mu1=0.1, mu3=0.04, alpha1=-0.1),
]


def batch_states(grid):
    """One row per member of MEMBERS: gaussians whose maxima sit at different
    points, the first narrow enough for tail points with 0 < rho <= eps."""
    rows = []
    for b, width in enumerate((0.06, 0.15, 0.12, 0.1)):
        center = grid.length * (0.35 + 0.1 * b)
        rows.append(ng.states.gaussian(grid, center=center, width=width * grid.length,
                                       momentum=0.4 * b))
    return np.array(rows)


@pytest.fixture(params=[1, 2], ids=["1d", "2d"])
def grid(request):
    return ng.make_grid(request.param, 64 if request.param == 1 else 32, 20.0)


class TestBatchedRHS:
    def test_rows_match_single_member(self, grid):
        psis = batch_states(grid)
        rho = ng.density(psis[0])
        eps = ng.DEFAULT_POLICY.floor(rho)
        assert np.any((rho > 0) & (rho <= eps))          # a floored row
        anchors = {int(np.abs(p).argmax()) for p in psis}
        assert len(anchors) == len(psis)                  # maxima differ
        v_one = ng.states.harmonic_potential(grid, omega=0.5)
        v_stack = np.array([(b + 1) * v_one for b in range(len(psis))])
        for V, v_row in ((None, lambda b: None), (v_one, lambda b: v_one),
                         (v_stack, lambda b: v_stack[b])):
            out = ng.rhs(MEMBERS, psis, grid, V)
            assert out.shape == psis.shape
            for b, c in enumerate(MEMBERS):
                one = ng.rhs(c, psis[b], grid, v_row(b))
                assert np.max(np.abs(out[b] - one)) <= 1e-13 * np.max(np.abs(one))

    def test_one_member_batch_is_the_single_call(self, grid64, packet64):
        out = ng.rhs([FULL], packet64[None], grid64)
        assert np.array_equal(out[0], ng.rhs(FULL, packet64, grid64))

    def test_step_rk4_rows_match(self, grid):
        psis = batch_states(grid)
        out = ng.step_rk4(MEMBERS, psis, grid, 1e-4)
        for b, c in enumerate(MEMBERS):
            one = ng.step_rk4(c, psis[b], grid, 1e-4)
            assert np.max(np.abs(out[b] - one)) <= 1e-13 * np.max(np.abs(one))


class TestBatchedUnwrap:
    def test_rows_equal_single_row_bit_for_bit(self, grid, rng):
        psis = batch_states(grid)
        # random phase walks along the last axis: many 2*pi jumps per row
        psis = psis * np.exp(1j * np.cumsum(rng.normal(0.0, 2.0, psis.shape), axis=-1))
        valid = rng.random(psis.shape) > 0.3
        valid[1] = True                    # a row without invalid points
        valid[2] = False                   # a row without a valid point
        valid[3].flat[:5] = False          # leading invalid points
        for mask in (None, valid):
            out = ng.unwrap_phase(psis, valid=mask, dimension=grid.dimension)
            for b in range(len(psis)):
                one = ng.unwrap_phase(psis[b], valid=None if mask is None else mask[b])
                assert np.array_equal(out[b], one)

    def test_rejects_more_than_one_member_axis(self):
        with pytest.raises(ValueError, match="member axis"):
            ng.unwrap_phase(np.ones((2, 3, 8), complex), dimension=1)


class TestBatchedEvolve:
    def test_trajectories_equal_single_member_runs(self, grid):
        members = MEMBERS[1:]
        psis = np.array([trig_packet(grid, depth=1.0 + 0.1 * b, s1=0.1 * b)
                         for b in range(len(members))])
        V = ng.states.harmonic_potential(grid, omega=0.4)
        cfg = SimulationConfig(dt=2e-3, t_final=0.02, output_every=4)
        trajs = ng.evolve(members, psis, grid, cfg, V)
        assert isinstance(trajs, list) and len(trajs) == len(members)
        for b, c in enumerate(members):
            one = ng.evolve(c, psis[b], grid, cfg, V)
            assert isinstance(one, ng.Trajectory)
            assert np.array_equal(trajs[b].times, one.times)
            assert len(trajs[b].frames) == len(one.frames)
            for f_batch, f_one in zip(trajs[b].frames, one.frames):
                assert np.array_equal(f_batch, f_one)
            assert np.array_equal(trajs[b].norms, one.norms)
            assert np.array_equal(trajs[b].regularized_fractions,
                                  one.regularized_fractions)

    def test_on_frame_gets_the_frames_evolve_would_keep(self, grid):
        members = MEMBERS[1:]
        psis = np.array([trig_packet(grid, depth=1.0 + 0.1 * b, s1=0.1 * b)
                         for b in range(len(members))])
        cfg = SimulationConfig(dt=2e-3, t_final=0.02, output_every=4)
        for c, psi0 in ((members, psis), (members[1], psis[1])):
            batch = isinstance(c, list)
            kept = ng.evolve(c, psi0, grid, cfg)
            got = []
            passed = ng.evolve(c, psi0, grid, cfg,
                               on_frame=lambda t, state: got.append((t, state)))
            if not batch:
                kept, passed = [kept], [passed]
                got = [(t, state[None]) for t, state in got]
            assert [t for t, _ in got] == kept[0].times.tolist()
            for b, (k, p) in enumerate(zip(kept, passed)):
                assert p.frames == [] and len(p) == len(k)
                assert np.array_equal(p.times, k.times)
                assert np.array_equal(p.norms, k.norms)
                assert np.array_equal(p.regularized_fractions, k.regularized_fractions)
                # the states were passed without a copy, and no later step
                # wrote into them
                for (_, state), frame in zip(got, k.frames):
                    assert np.array_equal(state[b], frame)

    def _three(self, grid64):
        # the middle member's |nu1| puts dt=0.02 past both its heuristic
        # bound and the RK4 stability limit on the top modes
        members = [NLSECoefficients(nu1=-0.5), NLSECoefficients(nu1=-2.0),
                   NLSECoefficients(nu1=-0.5, alpha1=0.05)]
        return members, np.array([trig_packet(grid64)] * 3)

    def test_unstable_member_drift_abort_names_it(self, grid64):
        members, psis = self._three(grid64)
        cfg = SimulationConfig(dt=0.02, t_final=2.0, output_every=1, force_dt=True)
        with pytest.raises(NumericalBlowupError, match="member 1: norm drifted"):
            ng.evolve(members, psis, grid64, cfg)

    def test_stability_refusal_names_member(self, grid64):
        members, psis = self._three(grid64)
        cfg = SimulationConfig(dt=0.02, t_final=0.1)
        with pytest.raises(ValueError, match="member 1: dt=0.02 exceeds the stability"):
            ng.evolve(members, psis, grid64, cfg)

    def test_non_finite_abort_names_member(self, grid64):
        members, psis = self._three(grid64)
        cfg = SimulationConfig(dt=0.02, t_final=20.0, output_every=10 ** 6,
                               force_dt=True)
        with pytest.raises(NumericalBlowupError, match="member 1: non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            ng.evolve(members, psis, grid64, cfg)

    def test_initial_state_checked_per_member(self, grid64):
        members, psis = self._three(grid64)
        psis[2] *= 1.1
        cfg = SimulationConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match="member 2: initial state must be normalized"):
            ng.evolve(members, psis, grid64, cfg)
        with pytest.raises(ValueError, match="2 stacked states"):
            ng.evolve(members[:2], psis, grid64, cfg)

    def test_potential_stack_checked_per_member(self, grid64):
        members, psis = self._three(grid64)
        cfg = SimulationConfig(dt=1e-3, t_final=0.01)
        V = np.zeros((3,) + grid64.shape)
        V[1, 7] = np.inf
        with pytest.raises(ValueError, match="member 1: potential contains non-finite"):
            ng.evolve(members, psis, grid64, cfg, V)
        # a stack with the wrong member count used to fail inside numpy
        with pytest.raises(ValueError, match="2 fields for 3 members"):
            ng.evolve(members, psis, grid64, cfg, V[:2])


@pytest.fixture
def evolve_calls(monkeypatch):
    """Swap every nlgauge alias of ``dynamics.evolve`` for a wrapper that
    records the number of members of each call."""
    calls = []
    original = dynamics.evolve

    def counting(c, psi0, *args, **kwargs):
        calls.append(1 if isinstance(c, NLSECoefficients) else len(c))
        return original(c, psi0, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "nlgauge":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return calls


class TestOneEvolvePerDt:
    def test_mixed_divergence(self, evolve_calls):
        grid = ng.make_grid(1, 128, 40.0)
        dec_a, dec_b = ng.equivalent_decompositions(
            *ng.states.two_gaussian_pair(grid), np.pi / 4, grid)
        cfg = SimulationConfig(dt=1e-3, t_final=0.01, output_every=5)
        ng.mixed_divergence(NLSECoefficients(nu1=-0.5, alpha1=1.0), dec_a, dec_b, cfg)
        assert evolve_calls == [4]

    def test_commuting_residual(self, evolve_calls, grid64, packet64):
        c = NLSECoefficients(nu1=-0.5, alpha1=0.05)
        cfg = SimulationConfig(dt=2e-3, t_final=0.02, output_every=5)
        ng.commuting_residual(ng.GaugeTransform(0.3, 1.2), c, packet64, grid64, cfg,
                              refine=True)
        assert evolve_calls == [2, 2]

    def test_separability_residual(self, evolve_calls):
        grid = ng.make_grid(1, 32, 20.0)
        cfg = SimulationConfig(dt=5e-3, t_final=0.02, output_every=2)
        ng.separability_residual(FULL, trig_packet(grid), trig_packet(grid, s1=-0.2),
                                 grid, cfg, ng.states.harmonic_potential(grid, 0.4))
        assert evolve_calls == [1, 2]


def residual_series(frames, grid, collect=False):
    """``commuting_residual`` over ``frames`` output frames, or with
    ``collect`` the same series from frames that evolve kept."""
    g, c = ng.GaugeTransform(0.5, 1.3), NLSECoefficients(nu1=-0.5, alpha1=0.05)
    cfg = SimulationConfig(dt=2e-4, t_final=2e-4 * (frames - 1))
    psi = trig_packet(grid)
    if not collect:
        return ng.commuting_residual(g, c, psi, grid, cfg, refine=False).residual_series
    cp, psi_p = ng.push_forward_family(g, c), ng.apply_gauge(g, psi)
    traj_a, traj_b = ng.evolve([c, cp], np.stack([psi, psi_p]), grid, cfg)
    return [(float(t), ng.l2_norm(ng.apply_gauge(g, fa) - fb, grid))
            for t, fa, fb in zip(traj_a.times, traj_a.frames, traj_b.frames)]


def divergence_series(frames, grid, collect=False):
    """``mixed_divergence`` over ``frames`` output frames, or with ``collect``
    the same series from frames that evolve kept."""
    c = NLSECoefficients(nu1=-0.5, alpha1=1.0)
    cfg = SimulationConfig(dt=2e-4, t_final=2e-4 * (frames - 1))
    dec_a, dec_b = ng.equivalent_decompositions(
        *ng.states.two_gaussian_pair(grid), np.pi / 4, grid)
    if not collect:
        return ng.mixed_divergence(c, dec_a, dec_b, cfg)
    trajs = ng.evolve([c] * 4, np.array(dec_a.states + dec_b.states), grid, cfg)
    return [(float(t), ensembles._factor_distance(
                dec_a.weights, [tr.frames[i] for tr in trajs[:2]],
                dec_b.weights, [tr.frames[i] for tr in trajs[2:]], grid))
            for i, t in enumerate(trajs[0].times)]


class TestConsumersTakeFramesAsMade:
    """The library's frame consumers compute each frame's value in
    ``on_frame`` and keep no frame."""

    @pytest.mark.parametrize("series", [residual_series, divergence_series])
    def test_series_equal_those_of_collected_frames(self, series):
        grid = ng.make_grid(1, 128, 40.0)
        assert series(7, grid) == series(7, grid, collect=True)

    @pytest.mark.parametrize("series,members", [(residual_series, 2),
                                                (divergence_series, 4)])
    def test_peak_memory_does_not_grow_with_frames(self, series, members):
        grid = ng.make_grid(1, 1024, 40.0)

        def peak(frames):
            tracemalloc.start()
            try:
                assert len(series(frames, grid)) == frames
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # first use: transform caches
        frame_bytes = members * grid.npoints * 16
        # streamed, the peaks differ by the series and the per-frame norms;
        # collected, by 45 frames
        assert abs(peak(50) - peak(5)) < 2 * frame_bytes
