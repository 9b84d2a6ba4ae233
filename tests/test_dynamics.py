import numpy as np
import pytest

import nlgauge as ng
from nlgauge import NLSECoefficients, SimulationConfig
from nlgauge.dynamics import NumericalBlowupError

from conftest import quotient_reference, trig_packet


def eigenmode(grid, mode=2):
    psi = ng.states.plane_wave(grid, mode)
    k = 2 * np.pi * mode / grid.length
    return psi, k


class TestRHS:
    def test_linear_eigenmode(self, grid64):
        psi, k = eigenmode(grid64)
        c = NLSECoefficients(nu1=-0.5)
        out = ng.rhs(c, psi, grid64)
        expect = -1j * c.nu1 * (-k ** 2) * psi
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_alpha1_silent_on_unit_density(self, grid64):
        # rho == 1 pointwise: the log term vanishes, only the linear part remains
        x = grid64.axis_coordinate()
        k = 2 * (2 * np.pi / grid64.length)
        psi = np.exp(1j * k * x)
        c = NLSECoefficients(nu1=-0.5, alpha1=0.7)
        out = ng.rhs(c, psi, grid64)
        expect = -1j * (-0.5) * (-k ** 2) * psi
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_nu2_term_and_density_production(self, grid64):
        # real gaussian: rhs = nu2 R2 psi - i nu1 lap psi, and the density
        # production 2 Re(conj(psi) rhs) equals 2 nu2 lap rho
        psi = ng.states.gaussian(grid64, width=2.0).real.astype(complex)
        c = NLSECoefficients(nu1=-0.5, nu2=0.3)
        out = ng.rhs(c, psi, grid64)
        r2 = quotient_reference(2, psi, grid64, c.nu1)
        lap = ng.laplacian(psi, grid64)
        assert np.max(np.abs(out - (c.nu2 * r2 * psi - 1j * c.nu1 * lap))) < 1e-11
        production = 2 * np.real(np.conj(psi) * out)
        lap_rho = ng.laplacian(ng.density(psi) + 0j, grid64).real
        assert np.max(np.abs(production - 2 * c.nu2 * lap_rho)) < 1e-10

    def test_matches_functional_composition(self, grid64, packet64):
        # independent assembly from the test reference of each quotient
        import dataclasses
        c = NLSECoefficients(nu1=-0.5, nu2=0.04, mu1=0.1, mu2=-0.05, mu3=0.07,
                             mu4=0.03, mu5=-0.02, alpha1=0.1, alpha2=0.05)
        V = ng.states.harmonic_potential(grid64, omega=0.5)
        c_with_v = dataclasses.replace(c, mu0=0.8)
        h = c.nu1 * ng.laplacian(packet64, grid64) + 0.8 * V * packet64
        h = h + 1j * c.nu2 * quotient_reference(2, packet64, grid64, c.nu1) * packet64
        for i, mu in enumerate([c.mu1, c.mu2, c.mu3, c.mu4, c.mu5], start=1):
            if mu:
                h = h + mu * quotient_reference(i, packet64, grid64, c.nu1) * packet64
        rho = ng.density(packet64)
        h = h + c.alpha1 * np.log(np.maximum(rho, 1e-12 * rho.max())) * packet64
        h = h + c.alpha2 * ng.modulus_phase(packet64).phase * packet64
        out = ng.rhs(c_with_v, packet64, grid64, V)
        assert np.max(np.abs(out - (-1j) * h)) < 1e-11


    def test_matches_functional_composition_2d(self):
        # 2D twin on a non-product state: the cross terms in u and s make
        # every mixed derivative and both current components nonzero
        grid = ng.make_grid(2, 32, 20.0)
        c = NLSECoefficients(nu1=-0.5, nu2=0.04, mu0=0.8, mu1=0.1, mu2=-0.05,
                             mu3=0.07, mu4=0.03, mu5=-0.02, alpha1=0.1,
                             alpha2=0.05)
        psi = non_product_packet(grid)
        V = ng.states.harmonic_potential(grid, omega=0.5)
        out = ng.rhs(c, psi, grid, V)
        assert np.max(np.abs(out - composed_rhs(c, psi, grid, V))) < 1e-11

    def test_mu1_only_matches_functional_2d(self):
        # the R1 term alone, whose div J is the one real field that rhs
        # transforms through its half spectrum
        grid = ng.make_grid(2, 32, 20.0)
        c = NLSECoefficients(nu1=-0.5, mu1=0.5)
        psi = non_product_packet(grid)
        r1_term = c.mu1 * quotient_reference(1, psi, grid, c.nu1) * psi
        expect = -1j * (c.nu1 * ng.laplacian(psi, grid) + r1_term)
        out = ng.rhs(c, psi, grid)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(out - expect)) < 1e-13 * scale
        assert np.max(np.abs(r1_term)) > 0.3 * scale

    def test_gated_points_match_masked_functionals(self, grid64):
        # points with 0 < rho <= eps: the quotient terms are switched off
        # there, while the linear, log and alpha2 terms are not gated
        psi = trig_packet(grid64)
        psi[40:52] *= 1e-7
        c = NLSECoefficients(nu1=-0.5, nu2=0.04, mu0=0.8, mu1=0.1, mu2=-0.05,
                             mu3=0.07, mu4=0.03, mu5=-0.02, alpha1=0.1,
                             alpha2=0.05)
        rho = ng.density(psi)
        mask = rho > ng.DEFAULT_POLICY.floor(rho)
        assert ng.DEFAULT_POLICY.regularized_fraction(rho) > 0
        assert np.all(psi[~mask] != 0)
        V = ng.states.harmonic_potential(grid64, omega=0.5)
        out = ng.rhs(c, psi, grid64, V)
        expect = composed_rhs(c, psi, grid64, V, mask=mask)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(out - expect)) < 1e-13 * scale
        # without the gate the quotient terms would swamp the floored points
        ungated = composed_rhs(c, psi, grid64, V)
        assert np.max(np.abs(ungated - expect)[~mask]) > 1e3 * np.max(
            np.abs(expect[~mask]))

    def test_alpha2_anchor_is_first_max_of_modulus(self, grid64):
        # Two top values whose order under |psi| differs from their order
        # under re^2 + im^2, on a phase ramp that wraps between them: an
        # anchor taken from the squared density would pick another 2*pi
        # branch for the whole alpha2 term.
        x = grid64.axis_coordinate()
        psi = 0.3 * np.exp(1j * 3 * 2 * np.pi * x / grid64.length)
        first, second = modulus_order_split_pair(np.random.default_rng(7))
        psi[10], psi[40] = first, second
        anchor = int(np.argmax(np.abs(psi)))
        assert anchor != int(np.argmax(psi.real ** 2 + psi.imag ** 2))
        phase = ng.unwrap_phase(psi)
        assert phase[anchor] == np.angle(psi[anchor])
        other = 50 - anchor
        assert abs(phase[other] - np.angle(psi[other])) > 6.0
        c_lin = NLSECoefficients(nu1=-0.5)
        c_a2 = NLSECoefficients(nu1=-0.5, alpha2=0.3)
        diff = ng.rhs(c_a2, psi, grid64) - ng.rhs(c_lin, psi, grid64)
        assert np.max(np.abs(diff - (-1j) * c_a2.alpha2 * phase * psi)) < 1e-13


def non_product_packet(grid):
    """Normalized nodeless 2D state whose log-modulus and phase both carry
    terms in x + y and x - 2y, so it is not a product of 1D factors."""
    x, y = grid.coordinates()
    k = 2 * np.pi / grid.length
    u = -0.6 * (2.0 - np.cos(k * (x - grid.length / 2))
                - np.cos(k * (y - grid.length / 2))) + 0.2 * np.cos(k * (x + y))
    s = 0.3 * np.sin(k * x) + 0.2 * np.cos(k * (x - 2 * y)) - 0.1 * np.sin(k * y)
    psi = np.exp(u + 1j * s)
    return psi / ng.l2_norm(psi, grid)


def composed_rhs(c, psi, grid, V, mask=None):
    """The family's rhs assembled from :func:`quotient_reference` and the
    public operators; quotient terms are multiplied by ``mask`` when one is
    given."""
    quot = 1j * c.nu2 * quotient_reference(2, psi, grid, c.nu1)
    for i, mu in enumerate([c.mu1, c.mu2, c.mu3, c.mu4, c.mu5], start=1):
        quot = quot + mu * quotient_reference(i, psi, grid, c.nu1)
    if mask is not None:
        quot = quot * mask
    rho = ng.density(psi)
    h = c.nu1 * ng.laplacian(psi, grid) + c.mu0 * V * psi + quot * psi
    h = h + c.alpha1 * np.log(np.maximum(rho, 1e-12 * rho.max())) * psi
    h = h + c.alpha2 * ng.modulus_phase(psi).phase * psi
    return -1j * h


def modulus_order_split_pair(rng):
    """Two complex numbers of modulus about 0.8, in an order in which the
    first maximum of |z| and the first maximum of re^2 + im^2 differ."""
    z = 0.8 * np.exp(2j * np.pi * rng.random(1 << 14))
    mod, sq = np.abs(z), z.real ** 2 + z.imag ** 2
    order = np.argsort(mod, kind="stable")
    for p, q in zip(order[:-1], order[1:]):
        if (mod[p] < mod[q] and sq[p] >= sq[q]) or (mod[p] == mod[q] and sq[p] < sq[q]):
            return z[p], z[q]
    raise AssertionError("no pair found")


class TestStepRK4:
    def test_zero_dt_is_identity(self, grid64, packet64):
        out = ng.step_rk4(NLSECoefficients(), packet64, grid64, 0.0)
        assert np.array_equal(out, packet64)

    def test_eigenmode_one_step_phase(self, grid64):
        # i psi_t = nu1 lap psi on exp(ikx) rotates by exp(i nu1 k^2 dt)
        psi, k = eigenmode(grid64)
        nu1, dt = -0.5, 1e-3
        out = ng.step_rk4(NLSECoefficients(nu1=nu1), psi, grid64, dt)
        exact = np.exp(1j * nu1 * k ** 2 * dt) * psi
        z = abs(nu1) * k ** 2 * dt
        assert np.max(np.abs(out - exact)) < max(z ** 5, 1e-15)

    def test_one_step_richardson_against_oracle(self, grid64):
        # halving dt shrinks the one-step error by about 2^5
        psi = trig_packet(grid64, depth=1.5, s1=0.5)
        c = NLSECoefficients(nu1=-0.5)

        def one_step_error(dt):
            cfg = SimulationConfig(dt=dt, t_final=dt)
            exact = ng.evolve_linear_exact(c.nu1, psi, grid64, cfg).final()
            return ng.l2_norm(ng.step_rk4(c, psi, grid64, dt) - exact, grid64)

        e1, e2 = one_step_error(0.04), one_step_error(0.02)
        assert 20.0 < e1 / e2 < 45.0


class TestEvolve:
    def test_eigenmode_density_stationary(self, grid64):
        psi, _ = eigenmode(grid64)
        cfg = SimulationConfig(dt=2e-3, t_final=0.2, output_every=25)
        traj = ng.evolve(NLSECoefficients(nu1=-0.5), psi, grid64, cfg)
        for frame in traj.frames:
            assert np.max(np.abs(np.abs(frame) - np.abs(psi))) < 1e-10

    def test_free_gaussian_matches_closed_form(self):
        grid = ng.make_grid(1, 128, 20.0)
        sigma, k0 = 1.0, 2 * np.pi / 20.0
        psi0 = ng.states.gaussian(grid, width=sigma, momentum=k0)
        cfg = SimulationConfig(dt=1e-3, t_final=0.25, output_every=250)
        traj = ng.evolve(NLSECoefficients(nu1=-0.5), psi0, grid, cfg)
        exact = ng.states.free_gaussian_exact(grid, 0.25, center=10.0,
                                              width=sigma, momentum=k0)
        assert np.max(np.abs(traj.final() - exact)) < 1e-8

    def test_norm_conservation_across_family(self, grid64, rng):
        psi0 = trig_packet(grid64)
        cfg = SimulationConfig(dt=2e-3, t_final=0.2, output_every=20)
        for _ in range(3):
            vals = rng.uniform(-0.3, 0.3, size=10)
            vals[0] = -0.5
            vals[1] = abs(vals[1])  # forward diffusion only
            c = NLSECoefficients.from_array(vals)
            traj = ng.evolve(c, psi0, grid64, cfg)
            assert traj.norm_drift <= 1e-8 * cfg.t_final + 1e-12

    def test_alpha1_with_zero_nu1_keeps_density(self, grid64):
        psi0 = trig_packet(grid64, s1=0.0, s2=0.0)
        c = NLSECoefficients(nu1=0.0, alpha1=1.0)
        cfg = SimulationConfig(dt=2e-3, t_final=0.3, output_every=50)
        traj = ng.evolve(c, psi0, grid64, cfg)
        rho0 = ng.density(psi0)
        assert np.max(np.abs(ng.density(traj.final()) - rho0)) < 1e-10

    def test_requires_normalized_state(self, grid64, packet64):
        cfg = SimulationConfig(dt=1e-3, t_final=0.01)
        with pytest.raises(ValueError, match="normalized"):
            ng.evolve(NLSECoefficients(), 2.0 * packet64, grid64, cfg)

    def test_stability_bound_enforced_and_overridable(self, grid64, packet64):
        c = NLSECoefficients(nu1=-0.5)
        too_big = 2 * ng.stability_bound(c, grid64)
        cfg = SimulationConfig(dt=too_big, t_final=10 * too_big)
        with pytest.raises(ValueError, match="stability"):
            ng.evolve(c, packet64, grid64, cfg)
        forced = SimulationConfig(dt=too_big, t_final=10 * too_big, force_dt=True)
        with pytest.raises(NumericalBlowupError):
            # far beyond the bound: the run must detect its own failure
            bad = SimulationConfig(dt=40 * too_big, t_final=400 * too_big,
                                   force_dt=True)
            ng.evolve(c, packet64, grid64, bad)
        del forced

    @pytest.mark.parametrize("dt, t_final", [
        (1e-3, np.inf), (np.inf, 1.0), (np.nan, 1.0), (1e-3, np.nan), (-1e-3, 1.0),
        (1e-3, 0.0)])
    def test_config_refuses_non_finite_or_non_positive_times(self, dt, t_final):
        # t_final = inf used to be accepted, and n_steps() then overflowed
        with pytest.raises(ValueError, match="positive and finite"):
            SimulationConfig(dt=dt, t_final=t_final)

    @pytest.mark.parametrize("output_every", [2.5, np.nan, np.inf])
    def test_config_refuses_a_non_integer_output_every(self, output_every):
        # 2.5 used to be accepted and wrote every 5th step; nan and inf
        # passed the >= 1 check
        with pytest.raises(ValueError, match="output_every"):
            SimulationConfig(dt=1e-3, t_final=1.0, output_every=output_every)

    @pytest.mark.parametrize("t_final", [0.0105, 1e-9])
    def test_config_refuses_a_fractional_step_count(self, t_final):
        # 0.0105 used to end silently at t = 0.010, and 1e-9 ran one full
        # step to t = 0.001
        with pytest.raises(ValueError, match="whole number of dt steps"):
            SimulationConfig(dt=1e-3, t_final=t_final)

    @pytest.mark.parametrize("dt, t_final, steps", [(0.008, 0.08, 10), (0.1, 0.3, 3)])
    def test_config_accepts_a_whole_step_count_up_to_rounding(self, dt, t_final,
                                                              steps):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert SimulationConfig(dt=dt, t_final=t_final).n_steps() == steps

    def test_final_of_streamed_frames_is_refused(self, grid64, packet64):
        cfg = SimulationConfig(dt=1e-3, t_final=0.01)
        traj = ng.evolve(NLSECoefficients(), packet64, grid64, cfg,
                         on_frame=lambda t, psi: None)
        with pytest.raises(ValueError, match="holds no frames"):
            traj.final()

    def test_frames_include_endpoints(self, grid64, packet64):
        cfg = SimulationConfig(dt=1e-3, t_final=0.01, output_every=3)
        traj = ng.evolve(NLSECoefficients(), packet64, grid64, cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.01)

    def test_fokker_planck_residual_second_order(self, grid64):
        # centered-difference d rho/dt vs -div J + 2 nu2 lap rho
        psi0 = trig_packet(grid64)
        c = NLSECoefficients(nu1=-0.5, nu2=0.1)

        def residual(dt):
            cfg = SimulationConfig(dt=dt, t_final=0.08, output_every=1)
            traj = ng.evolve(c, psi0, grid64, cfg)
            i = len(traj.frames) // 2
            drho = (ng.density(traj.frames[i + 1]) - ng.density(traj.frames[i - 1])) \
                / (2 * dt)
            psi = traj.frames[i]
            rhs_fp = -ng.divergence(ng.current(psi, grid64, c.nu1), grid64) \
                + 2 * c.nu2 * ng.laplacian(ng.density(psi) + 0j, grid64).real
            return float(np.max(np.abs(drho - rhs_fp)))

        r1, r2, r3 = residual(8e-3), residual(4e-3), residual(2e-3)
        assert 1.5 < np.log2(r1 / r2) < 2.5
        assert 1.5 < np.log2(r2 / r3) < 2.5


class TestPotentialCheck:
    """evolve and evolve_linear_exact check V before any step."""

    cfg = SimulationConfig(dt=1e-3, t_final=0.01)
    c = NLSECoefficients(nu1=-0.5, mu0=1.0)

    @pytest.mark.parametrize("V", [np.arange(16.0), np.arange(16.0)[:, None]],
                             ids=["V(y)", "V(x)"])
    def test_2d_refuses_a_field_of_the_wrong_shape(self, V):
        # each used to broadcast silently over the other axis
        grid = ng.make_grid(2, 16, 20.0)
        with pytest.raises(ValueError, match=r"potential has shape \(16,"):
            ng.evolve(self.c, trig_packet(grid), grid, self.cfg, V)

    @pytest.mark.parametrize("evolve", ["evolve", "evolve_linear_exact"])
    def test_refuses_a_non_finite_potential(self, grid64, packet64, evolve):
        # used to raise NumericalBlowupError at step 1, blaming dt
        V = np.zeros(grid64.shape)
        V[5] = np.nan
        args = (self.c,) if evolve == "evolve" else (-0.5,)
        with pytest.raises(ValueError, match="potential contains non-finite"):
            getattr(ng, evolve)(*args, packet64, grid64, self.cfg, V)

    def test_linear_exact_refuses_the_wrong_shape(self, grid64, packet64):
        with pytest.raises(ValueError, match="potential has shape"):
            ng.evolve_linear_exact(-0.5, packet64, grid64, self.cfg, np.zeros(32))


class TestLinearExact:
    def test_plane_wave_exact_phase(self, grid64):
        psi, k = eigenmode(grid64, mode=3)
        nu1, t = -0.5, 0.37
        cfg = SimulationConfig(dt=t / 10, t_final=t, output_every=10)
        traj = ng.evolve_linear_exact(nu1, psi, grid64, cfg)
        exact = np.exp(1j * nu1 * k ** 2 * t) * psi
        assert np.max(np.abs(traj.final() - exact)) < 1e-12

    def test_free_gaussian_closed_form(self):
        grid = ng.make_grid(1, 256, 40.0)
        psi0 = ng.states.gaussian(grid, width=1.0, momentum=0.5)
        cfg = SimulationConfig(dt=0.05, t_final=1.0, output_every=20)
        traj = ng.evolve_linear_exact(-0.5, psi0, grid, cfg)
        exact = ng.states.free_gaussian_exact(grid, 1.0, center=20.0, width=1.0,
                                              momentum=0.5)
        assert np.max(np.abs(traj.final() - exact)) < 1e-12

    def test_second_order_with_potential(self, grid64):
        psi0 = trig_packet(grid64)
        V = ng.states.harmonic_potential(grid64, omega=0.6)

        def final(dt):
            cfg = SimulationConfig(dt=dt, t_final=0.4, output_every=10 ** 6)
            return ng.evolve_linear_exact(-0.5, psi0, grid64, cfg, V).final()

        e1 = ng.l2_norm(final(0.02) - final(0.01), grid64)
        e2 = ng.l2_norm(final(0.01) - final(0.005), grid64)
        assert 1.6 < np.log2(e1 / e2) < 2.4


class TestNLSECoefficients:
    def test_linear_case_predicate(self):
        assert NLSECoefficients(nu1=-0.5, mu0=2.0).linear_case()
        assert not NLSECoefficients(nu2=0.1).linear_case()

    def test_array_roundtrip(self, rng):
        vals = rng.normal(size=10)
        c = NLSECoefficients.from_array(vals)
        assert np.array_equal(c.as_array(), vals)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NLSECoefficients(nu1=np.nan)

    @pytest.mark.parametrize("length", [0, 9, 11, 12])
    def test_from_array_refuses_a_length_other_than_ten(self, length):
        # 12 values used to build a member from the first ten, and fewer
        # than ten raised IndexError
        with pytest.raises(ValueError, match="expected 10 coefficients"):
            NLSECoefficients.from_array(range(length))


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.1, t_final=1.0, output_every=0)
    cfg = SimulationConfig(dt=0.1, t_final=1.0)
    fine = cfg.refined()
    assert fine.dt == 0.05 and fine.output_every == 2
