import sys
import tracemalloc

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import MixedState, NLSECoefficients, SimulationConfig, ensembles
from nlgauge.ensembles import InvariantViolation

from conftest import (density_matrix, frobenius_distance, trace_distance,
                      trig_packet)


@pytest.fixture
def grid():
    return ng.make_grid(1, 128, 40.0)


@pytest.fixture
def pair(grid):
    # canonical scenario: gaussians at +/- L/8, width L/32, orthonormalized
    return ng.states.two_gaussian_pair(grid)


class TestMixedState:
    def test_weight_validation(self, grid, pair):
        with pytest.raises(ValueError, match="sum"):
            MixedState(np.array([0.5, 0.6]), list(pair), grid)
        with pytest.raises(ValueError, match="positive"):
            MixedState(np.array([1.5, -0.5]), list(pair), grid)

    @pytest.mark.parametrize("weights, scale", [
        ([0.5, np.nan], 1.0), ([np.nan, np.nan], 1.0), ([0.5, 0.5], np.nan)])
    def test_nan_weights_or_states_refused(self, grid, pair, weights, scale):
        with pytest.raises(ValueError):
            MixedState(np.array(weights), [pair[0], scale * pair[1]], grid)

    def test_shape_mismatch_refused(self, pair):
        # a normalized 128-point state on a 256-point grid used to be
        # accepted, and density_matrix returned a 128 x 128 kernel
        fine = ng.make_grid(1, 256, 40.0)
        psi = pair[0] / ng.l2_norm(pair[0], fine)
        with pytest.raises(ValueError, match="shape"):
            MixedState(np.array([1.0]), [psi], fine)

    def test_normalization_validation(self, grid, pair):
        with pytest.raises(ValueError, match="normalized"):
            MixedState(np.array([0.5, 0.5]), [pair[0], 1.1 * pair[1]], grid)

    def test_pair_is_orthonormal(self, grid, pair):
        psi_a, psi_b = pair
        assert ng.l2_norm(psi_a, grid) == pytest.approx(1.0, abs=1e-12)
        assert ng.l2_norm(psi_b, grid) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(psi_a, psi_b) * grid.dx) < 1e-12


class TestDensityMatrix:
    def test_pure_state_projector(self, grid, pair):
        m = MixedState(np.array([1.0]), [pair[0]], grid)
        w = density_matrix(m)
        assert np.trace(w).real * grid.dx == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(w * grid.dx)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)   # rank one
        assert abs(eigs[-2]) < 1e-12

    def test_equal_mixture_spectrum(self, grid, pair):
        m = MixedState(np.array([0.5, 0.5]), list(pair), grid)
        w = density_matrix(m)
        assert np.max(np.abs(w - w.conj().T)) < 1e-12          # hermitian
        eigs = np.linalg.eigvalsh(w * grid.dx)
        assert eigs[0] > -1e-10                                # positive
        assert np.sort(eigs)[-2:] == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_phase_invariance(self, grid, pair):
        m1 = MixedState(np.array([0.5, 0.5]), list(pair), grid)
        m2 = MixedState(np.array([0.5, 0.5]),
                        [np.exp(0.9j) * pair[0], np.exp(-2.1j) * pair[1]], grid)
        assert np.max(np.abs(density_matrix(m1) - density_matrix(m2))) < 1e-14


def _random_states(rng, grid, k):
    raw = rng.normal(size=(k,) + grid.shape) + 1j * rng.normal(size=(k,) + grid.shape)
    return [ng.states.normalized(v, grid) for v in raw]


class TestFactorDistance:
    """The J x J factor route of the probe against the N x N kernel oracle."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("rank", ["full", "deficient"])
    def test_matches_kernel_oracle(self, grid, seed, rank):
        rng = np.random.default_rng(seed)
        j_a, j_b = rng.integers(1, 4, size=2)
        if rank == "full":
            states_a = _random_states(rng, grid, j_a)
            states_b = _random_states(rng, grid, j_b)
        else:
            # the whole stack has rank 2: b lies in the span of the first two
            # states of a, and with j_a = 3 the third repeats the first up to
            # a phase
            basis = _random_states(rng, grid, 2)
            states_a = basis + [np.exp(0.7j) * basis[0]][:max(j_a - 2, 0)]
            coef = rng.normal(size=(j_b, 2)) + 1j * rng.normal(size=(j_b, 2))
            states_b = [ng.states.normalized(c0 * basis[0] + c1 * basis[1], grid)
                        for c0, c1 in coef]
        dec_a = MixedState(rng.dirichlet(np.ones(len(states_a))), states_a, grid)
        dec_b = MixedState(rng.dirichlet(np.ones(len(states_b))), states_b, grid)
        oracle = frobenius_distance(density_matrix(dec_a),
                                    density_matrix(dec_b), grid)
        assert oracle > 0.05   # a relative comparison with something to compare
        got = ng.kernel_distance(dec_a, dec_b)
        assert abs(got - oracle) <= 1e-13 * oracle

    def test_equal_mixtures_give_exact_zero(self, grid, pair):
        dec_a, _ = ng.equivalent_decompositions(*pair, 0.3, grid)
        assert ensembles._factor_distance(dec_a.weights, dec_a.states,
                                          dec_a.weights, list(dec_a.states),
                                          grid) == 0.0


class TestKernelDistance:
    def test_identical_mixtures_give_exact_zero(self, grid, pair):
        dec_a, _ = ng.equivalent_decompositions(*pair, 0.3, grid)
        twin = MixedState(dec_a.weights.copy(),
                          [psi.copy() for psi in dec_a.states], grid)
        assert ng.kernel_distance(dec_a, dec_a) == 0.0
        assert ng.kernel_distance(dec_a, twin) == 0.0

    @pytest.mark.parametrize("n, length", [(256, 40.0), (128, 41.0)])
    def test_refuses_mixtures_on_two_grids(self, grid, pair, n, length):
        # a different n used to fail inside numpy with an "inhomogeneous
        # shape" error, and a different length was reported as a kernel gap
        other = ng.make_grid(1, n, length)
        dec_a = MixedState(np.array([1.0]), [pair[0]], grid)
        dec_b = MixedState(np.array([1.0]),
                           [ng.states.gaussian(other, width=1.0)], other)
        with pytest.raises(ValueError, match="different grids"):
            ng.kernel_distance(dec_a, dec_b)
        with pytest.raises(ValueError, match="different grids"):
            ng.mixed_divergence(NLSECoefficients(), dec_a, dec_b,
                                SimulationConfig(dt=1e-3, t_final=1e-2))


class TestEquivalentDecompositions:
    def test_angle_zero_is_same(self, grid, pair):
        dec_a, dec_b = ng.equivalent_decompositions(*pair, 0.0, grid)
        for sa, sb in zip(dec_a.states, dec_b.states):
            assert np.max(np.abs(sa - sb)) < 1e-14

    def test_rotated_same_kernel(self, grid, pair):
        dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        d = frobenius_distance(density_matrix(dec_a),
                               density_matrix(dec_b), grid)
        assert d < 1e-12

    def test_quarter_turn_swaps(self, grid, pair):
        _, dec_b = ng.equivalent_decompositions(*pair, np.pi / 2, grid)
        assert np.max(np.abs(dec_b.states[0] - pair[1])) < 1e-12
        assert np.max(np.abs(dec_b.states[1] + pair[0])) < 1e-12

    def test_rejects_non_orthogonal(self, grid, pair):
        skew = (pair[0] + pair[1]) / np.sqrt(2)
        with pytest.raises(ValueError, match="orthogonal"):
            ng.equivalent_decompositions(pair[0], skew, np.pi / 4, grid)


    @pytest.mark.parametrize("angle, scale", [
        (np.nan, 1.0), (np.inf, 1.0), (np.pi / 4, np.nan)])
    def test_rejects_non_finite_input(self, grid, pair, angle, scale):
        # each used to pass the same-kernel self-check and return nan states
        with pytest.raises(ValueError):
            ng.equivalent_decompositions(pair[0], scale * pair[1], angle, grid)


class TestMixedDivergence:
    cfg = SimulationConfig(dt=1e-3, t_final=0.05, output_every=10)

    def test_identical_decompositions_stay_identical(self, grid, pair):
        dec_a, _ = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        series = ng.mixed_divergence(NLSECoefficients(nu1=-0.5), dec_a, dec_a,
                                     self.cfg)
        assert max(v for _, v in series) == 0.0

    def test_linear_evolution_preserves_kernel(self, grid, pair):
        dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        series = ng.mixed_divergence(NLSECoefficients(nu1=-0.5), dec_a, dec_b,
                                     self.cfg)
        assert max(v for _, v in series) < 1e-9

    def test_log_nonlinearity_splits_kernels(self, grid, pair):
        dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        c = NLSECoefficients(nu1=-0.5, alpha1=1.0)
        series = ng.mixed_divergence(c, dec_a, dec_b, self.cfg)
        assert max(v for _, v in series) > 1e-4

    @pytest.mark.parametrize("stack", [tuple, np.array])
    def test_tuple_and_array_stacks_give_the_series_of_lists(self, grid, pair, stack):
        # MixedState accepts any sequence of states; joining two tuples with
        # a list raised TypeError, and two arrays were added elementwise
        dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        c = NLSECoefficients(nu1=-0.5, alpha1=1.0)
        expect = ng.mixed_divergence(c, dec_a, dec_b, self.cfg)
        as_stack = [MixedState(d.weights, stack(d.states), grid) for d in (dec_a, dec_b)]
        assert ng.mixed_divergence(c, *as_stack, self.cfg) == expect

    def test_rejects_inequivalent_decompositions(self, grid, pair):
        dec_a = MixedState(np.array([0.5, 0.5]), list(pair), grid)
        other = ng.states.two_gaussian_pair(grid, separation=12.0, width=1.0)
        dec_c = MixedState(np.array([0.5, 0.5]), list(other), grid)
        with pytest.raises(InvariantViolation):
            ng.mixed_divergence(NLSECoefficients(), dec_a, dec_c, self.cfg)

    def test_never_builds_a_kernel(self, grid, pair):
        builders = {"_kernel", "density_matrix", "frobenius_distance",
                    "trace_distance"}
        for name, module in list(sys.modules.items()):
            if name == "nlgauge" or name.startswith("nlgauge."):
                assert not builders & set(vars(module)), name
        dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
        series = ng.mixed_divergence(NLSECoefficients(nu1=-0.5, alpha1=1.0),
                                     dec_a, dec_b, self.cfg)
        assert max(v for _, v in series) > 1e-4

    def test_frame_memory_is_linear_in_n(self):
        # two N x N kernels at N = 2048 would take 134 MB
        grid = ng.make_grid(1, 2048, 40.0)
        dec_a, dec_b = ng.equivalent_decompositions(
            *ng.states.two_gaussian_pair(grid), np.pi / 4, grid)
        cfg = SimulationConfig(dt=1e-4, t_final=1e-4)
        c = NLSECoefficients(nu1=-0.5)
        ng.mixed_divergence(c, dec_a, dec_b, cfg)   # warm the transform caches
        tracemalloc.start()
        try:
            series = ng.mixed_divergence(c, dec_a, dec_b, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 2
        assert peak < 2e6

    def test_2d_mixtures_match_the_flattened_kernel(self):
        grid = ng.make_grid(2, 16, 24.0)   # dx = 1.5, so dx^2 != dx
        psi_a = ng.states.gaussian(grid, center=(7.5, 12.0), width=2.2)
        psi_b = ng.states.gaussian(grid, center=(16.5, 10.5), width=(1.8, 2.7))
        psi_b = ng.states.normalized(
            psi_b - np.vdot(psi_a, psi_b) * grid.dx ** 2 * psi_a, grid)
        dec_a, dec_b = ng.equivalent_decompositions(psi_a, psi_b, 0.6, grid)
        cfg = SimulationConfig(dt=0.01, t_final=0.3, output_every=5)
        peaks = {}
        for label, c in (("linear", NLSECoefficients(nu1=-0.5)),
                         ("log", NLSECoefficients(nu1=-0.5, alpha1=1.0))):
            series = ng.mixed_divergence(c, dec_a, dec_b, cfg)
            # oracle: the same batch, flattened 256 x 256 kernels
            trajs = ng.evolve([c] * 4, np.array(dec_a.states + dec_b.states),
                              grid, cfg)
            for i, (t, d) in enumerate(series):
                kernels = []
                for dec, tr in ((dec_a, trajs[:2]), (dec_b, trajs[2:])):
                    rows = [traj.frames[i].ravel() for traj in tr]
                    kernels.append(sum(w * np.outer(r, r.conj())
                                       for w, r in zip(dec.weights, rows)))
                oracle = np.linalg.norm(kernels[0] - kernels[1]) * grid.dx ** 2
                assert t == trajs[0].times[i]
                assert abs(d - oracle) <= 1e-13 * max(oracle, 1.0)
            peaks[label] = max(d for _, d in series)
        assert peaks["linear"] <= 1e-9
        assert peaks["log"] > 1e-4


class TestTensorProduct:
    def test_norms_multiply(self, grid):
        p1 = trig_packet(grid, depth=0.8)
        p2 = trig_packet(grid, depth=1.1, s1=-0.2)
        grid2 = ng.product_grid(grid)
        prod = ng.tensor_product(2.0 * p1, p2)
        assert ng.l2_norm(prod, grid2) == pytest.approx(2.0, abs=1e-12)

    def test_plane_waves_compose(self, grid):
        k1 = ng.states.plane_wave(grid, 2)
        k2 = ng.states.plane_wave(grid, -1)
        grid2 = ng.product_grid(grid)
        prod = ng.tensor_product(k1, k2)
        xx, yy = grid2.coordinates()
        expected = np.exp(1j * (2 * xx - yy) * 2 * np.pi / grid.length) / grid.length
        assert np.max(np.abs(prod - expected)) < 1e-13

    def test_uniform_partner_marginal_recovers_density(self, grid):
        p1 = ng.states.gaussian(grid, width=2.0, momentum=2 * np.pi / grid.length)
        flat = np.full(grid.shape, 1.0 / np.sqrt(grid.length), dtype=complex)
        grid2 = ng.product_grid(grid)
        marg = ng.marginal_density(ng.tensor_product(p1, flat), grid2, axis=0)
        assert np.max(np.abs(marg - ng.density(p1))) < 1e-12

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            ng.tensor_product(np.ones(8, complex), np.ones(16, complex))


class TestSeparability:
    def test_linear_case_factorizes(self):
        grid = ng.make_grid(1, 64, 20.0)
        p1 = trig_packet(grid, depth=1.0, s1=0.3)
        p2 = trig_packet(grid, depth=1.2, s1=-0.2, s2=0.1)
        cfg = SimulationConfig(dt=5e-3, t_final=0.1, output_every=10)
        series, traj2d, traj1, _ = ng.separability_residual(
            NLSECoefficients(nu1=-0.5), p1, p2, grid, cfg)
        assert max(v for _, v in series) < 1e-8
        # marginal of the 2D run equals the 1D density evolution
        grid2 = ng.product_grid(grid)
        marg = ng.marginal_density(traj2d.final(), grid2, axis=0)
        assert np.max(np.abs(marg - ng.density(traj1.final()))) < 1e-8

    def test_full_family_factorizes(self):
        grid = ng.make_grid(1, 64, 20.0)
        p1 = trig_packet(grid, depth=1.0, s1=0.3)
        p2 = trig_packet(grid, depth=1.2, s1=-0.2, s2=0.1)
        c = NLSECoefficients(nu1=-0.5, nu2=0.03, mu1=0.05, mu2=0.05, mu3=0.05,
                             mu4=0.05, mu5=0.05, alpha1=0.05, alpha2=0.05)
        cfg = SimulationConfig(dt=5e-3, t_final=0.1, output_every=10)
        series, *_ = ng.separability_residual(c, p1, p2, grid, cfg)
        assert max(v for _, v in series) < 1e-7

    def test_additive_potential(self):
        grid = ng.make_grid(1, 64, 20.0)
        p1 = trig_packet(grid, depth=1.0)
        p2 = trig_packet(grid, depth=0.9, s1=0.1)
        v1 = ng.states.harmonic_potential(grid, omega=0.4)
        v2 = ng.states.harmonic_potential(grid, omega=0.7)
        c = NLSECoefficients(nu1=-0.5, mu0=1.0, nu2=0.02, alpha1=0.05)
        cfg = SimulationConfig(dt=5e-3, t_final=0.1, output_every=20)
        series, *_ = ng.separability_residual(c, p1, p2, grid, cfg, v1, v2)
        assert max(v for _, v in series) < 1e-6
        fine = SimulationConfig(dt=2.5e-3, t_final=0.1, output_every=40)
        series_fine, *_ = ng.separability_residual(c, p1, p2, grid, fine, v1, v2)
        # the mismatch is RK4 tensor-factorization error, vanishing at order 4
        assert max(v for _, v in series_fine) < 0.25 * max(v for _, v in series)


def test_trace_distance_consistent(grid, pair):
    dec_a, dec_b = ng.equivalent_decompositions(*pair, np.pi / 4, grid)
    w_a, w_b = density_matrix(dec_a), density_matrix(dec_b)
    assert trace_distance(w_a, w_b, grid) < 1e-12
    m_single = MixedState(np.array([1.0]), [pair[0]], grid)
    td = trace_distance(density_matrix(m_single), w_a, grid)
    fd = frobenius_distance(density_matrix(m_single), w_a, grid)
    assert td > 0.0 and fd > 0.0


def test_kernel_distances_weight_2d_kernels_by_dx_squared():
    # kernels of flattened 2D states: the quadrature weight is dx^2, not dx
    grid = ng.make_grid(2, 16, 24.0)
    psi = ng.states.gaussian(grid, center=10.0, width=2.0)
    phi = ng.states.gaussian(grid, center=12.0, width=2.0, momentum=0.2)
    w_psi = np.outer(psi.ravel(), psi.ravel().conj())
    w_phi = np.outer(phi.ravel(), phi.ravel().conj())
    expected = grid.dx ** 2 * np.sqrt(np.sum(np.abs(w_psi - w_phi) ** 2))
    fd = frobenius_distance(w_psi, w_phi, grid)
    assert abs(fd - expected) <= 1e-13 * expected
    # two pure states: D_F = sqrt(2 (1 - |<psi|phi>|^2)), D_tr = sqrt(1 - |<psi|phi>|^2)
    overlap = abs(np.vdot(psi, phi) * grid.dx ** 2) ** 2
    assert 0.1 < overlap < 0.9
    assert abs(fd - np.sqrt(2.0 * (1.0 - overlap))) < 1e-12
    td = trace_distance(w_psi, w_phi, grid)
    assert abs(td - np.sqrt(1.0 - overlap)) < 1e-12
