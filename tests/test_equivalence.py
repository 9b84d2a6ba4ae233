import dataclasses

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import GaugeTransform, NLSECoefficients, SimulationConfig
from nlgauge.equivalence import (coefficients_from_hydrodynamic,
                                 hydrodynamic_coefficients)

from conftest import push_forward_linear, trig_packet


def random_coeffs(rng, nu1_scale=1.0, other=0.3):
    vals = rng.normal(size=10) * other
    vals[0] = rng.choice([-1.0, 1.0]) * (0.2 + rng.random()) * nu1_scale
    return NLSECoefficients.from_array(vals)


def random_pushable(rng, gamma=1.5, lam_lo=0.3, lam_hi=3.0):
    return GaugeTransform(gamma=rng.uniform(-gamma, gamma),
                          lam=rng.choice([-1.0, 1.0]) * rng.uniform(lam_lo, lam_hi))


class TestHydrodynamicMap:
    def test_roundtrip(self, rng):
        for _ in range(50):
            c = random_coeffs(rng)
            back = coefficients_from_hydrodynamic(*hydrodynamic_coefficients(c))
            assert np.allclose(back.as_array(), c.as_array(), atol=1e-13, rtol=1e-13)

    def test_nu1_zero_roundtrip(self):
        c = NLSECoefficients(nu1=0.0, nu2=0.1, mu2=0.2, alpha1=0.3)
        back = coefficients_from_hydrodynamic(*hydrodynamic_coefficients(c))
        assert np.allclose(back.as_array(), c.as_array(), atol=1e-14)

    @pytest.mark.parametrize("index", [0, 1, 4])
    def test_rejects_current_terms_with_zero_nu1(self, index):
        a, b = np.zeros(4), np.zeros(8)
        b[index] = 0.1  # a b entry that only a current term sets
        with pytest.raises(ValueError, match="current-based terms"):
            coefficients_from_hydrodynamic(a, b)

    def test_rejects_non_family_pair(self):
        a = np.array([1.0, 3.0, 0.0, 0.0])  # a2 != 2 a1
        b = np.zeros(8)
        with pytest.raises(ValueError):
            coefficients_from_hydrodynamic(a, b)


class TestPushForward:
    def test_identity_returns_same_object(self):
        c = NLSECoefficients(nu1=-0.5, nu2=0.1)
        assert ng.push_forward_family(ng.identity(), c) is c

    def test_linear_identity_gauge(self):
        c = push_forward_linear(0.0, 1.0, nu1=-0.5, mu0=0.7)
        assert c.nu1 == -0.5 and c.mu0 == 0.7
        assert c.linear_case()

    def test_gamma_only_turns_on_nu2(self):
        c = push_forward_linear(0.8, 1.0, nu1=-0.5)
        assert c.nu2 != 0.0

    def test_closed_form_agrees_with_family_route(self, rng):
        # two independent derivations of the gauged linear equation
        for _ in range(30):
            gamma, lam = rng.normal(), rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            nu1, mu0 = rng.choice([-0.5, 0.3, 1.0]), rng.normal()
            direct = push_forward_linear(gamma, lam, nu1, mu0)
            via_family = ng.push_forward_family(
                GaugeTransform(gamma, lam),
                NLSECoefficients(nu1=nu1, nu2=0, mu0=mu0, mu1=0, mu2=0, mu3=0,
                                 mu4=0, mu5=0, alpha1=0, alpha2=0))
            assert np.allclose(direct.as_array(), via_family.as_array(),
                               atol=1e-13, rtol=1e-12)

    def test_group_action(self, rng):
        for _ in range(50):
            c = random_coeffs(rng)
            g1, g2 = random_pushable(rng), random_pushable(rng)
            two_step = ng.push_forward_family(g2, ng.push_forward_family(g1, c))
            one_step = ng.push_forward_family(ng.compose(g2, g1), c)
            assert np.allclose(two_step.as_array(), one_step.as_array(),
                               atol=1e-12, rtol=1e-12)

    def test_inverse_action_restores(self, rng):
        for _ in range(20):
            c = random_coeffs(rng)
            g = random_pushable(rng)
            back = ng.push_forward_family(ng.invert(g), ng.push_forward_family(g, c))
            assert np.allclose(back.as_array(), c.as_array(), atol=1e-12, rtol=1e-12)

    def test_rejects_nonzero_theta(self):
        with pytest.raises(ValueError, match="theta"):
            ng.push_forward_family(GaugeTransform(0.0, 2.0, 0.5),
                                   NLSECoefficients())

    def test_linearizable_constraints(self, rng):
        for _ in range(20):
            gamma, lam = rng.normal(), rng.choice([-1, 1]) * rng.uniform(0.2, 4)
            c = push_forward_linear(gamma, lam, nu1=-0.5, mu0=rng.normal())
            for name, resid in ng.linearizable_constraints(c).items():
                assert abs(resid) < 1e-12, name
        generic = NLSECoefficients(nu1=-0.5, mu3=0.2)
        assert any(abs(v) > 1e-6 for v in ng.linearizable_constraints(generic).values())


class TestCommutingResidual:
    def test_identity_gauge_exact(self, grid64, packet64):
        cfg = SimulationConfig(dt=5e-3, t_final=0.05, output_every=5)
        rep = ng.commuting_residual(ng.identity(),
                                    NLSECoefficients(nu1=-0.5, nu2=0.05, mu1=0.1),
                                    packet64, grid64, cfg, refine=False)
        assert rep.residual_sup <= 1e-12
        assert rep.residual_series[0][0] == 0.0

    def test_identity_gauge_refines_to_infinite_order(self, grid64, packet64):
        cfg = SimulationConfig(dt=5e-3, t_final=0.05, output_every=5)
        rep = ng.commuting_residual(ng.identity(), NLSECoefficients(nu1=-0.5, nu2=0.05),
                                    packet64, grid64, cfg)
        assert rep.residual_sup == rep.residual_sup_fine == 0.0
        assert rep.refinement_order == float("inf")

    def test_series_starts_at_zero_residual(self, grid64, packet64):
        cfg = SimulationConfig(dt=5e-3, t_final=0.05, output_every=5)
        rep = ng.commuting_residual(GaugeTransform(0.6, 1.4),
                                    NLSECoefficients(nu1=-0.5), packet64,
                                    grid64, cfg, refine=False)
        assert rep.residual_series[0][1] <= 1e-12

    def test_series_starts_at_zero_residual_at_any_floor(self):
        # both paths gauge with the run's floor: a floored state gives t=0
        # residual 0 at a floor other than the default
        grid = ng.make_grid(1, 128, 40.0)
        psi = ng.states.gaussian(grid, width=2.0, momentum=3 * 2 * np.pi / 40)
        policy = ng.RegularizationPolicy(rho_floor_rel=1e-3)
        assert policy.regularized_fraction(ng.density(psi)) > 0.0
        cfg = SimulationConfig(dt=1e-4, t_final=1e-3, policy=policy)
        rep = ng.commuting_residual(GaugeTransform(0.3, 1.0),
                                    NLSECoefficients(nu1=-0.5), psi, grid, cfg,
                                    refine=False)
        assert rep.residual_series[0][1] == 0.0

    def test_linear_family_diagram_closes(self, grid64, packet64):
        cfg = SimulationConfig(dt=0.02, t_final=0.2, output_every=10)
        rep = ng.commuting_residual(GaugeTransform(0.8, 1.7),
                                    NLSECoefficients(nu1=-0.5), packet64,
                                    grid64, cfg)
        assert rep.residual_sup < 1e-8
        assert rep.refinement_order > 1.5
        assert rep.regularized_fraction == 0.0

    def test_nonlinear_member_diagram_closes(self, grid64, packet64):
        c = NLSECoefficients(nu1=-0.5, nu2=0.05, mu1=0.1, alpha1=0.2)
        cfg = SimulationConfig(dt=0.02, t_final=0.2, output_every=10)
        rep = ng.commuting_residual(GaugeTransform(0.5, 1.3), c, packet64,
                                    grid64, cfg)
        assert rep.residual_sup < 1e-7
        assert rep.refinement_order > 1.5

    def test_wrong_law_negative_control(self, grid64, packet64):
        c = NLSECoefficients(nu1=-0.5)
        g = GaugeTransform(0.8, 1.7)
        cfg = SimulationConfig(dt=0.02, t_final=0.2, output_every=10)
        good = ng.commuting_residual(g, c, packet64, grid64, cfg, refine=False)
        cp = ng.push_forward_family(g, c)
        wrong = dataclasses.replace(cp, mu2=1.1 * cp.mu2)
        bad = ng.commuting_residual(g, c, packet64, grid64, cfg, cp=wrong,
                                    refine=False)
        assert bad.residual_sup > 10 * good.residual_sup

    def test_flags_near_nodes(self, grid128):
        # a floored band invalidates the phase map: the report must flag it.
        # (the gauge image of a floored state has a phase kink at the floor
        # ring, so only a very short run is meaningful at all)
        psi = trig_packet(grid128, depth=15.0, ripple=0.0, s1=0.1, s2=0.0)
        assert ng.DEFAULT_POLICY.regularized_fraction(ng.density(psi)) > 0.0
        cfg = SimulationConfig(dt=5e-4, t_final=5e-3, output_every=2)
        rep = ng.commuting_residual(GaugeTransform(0.0, 2.0),
                                    NLSECoefficients(nu1=-0.5), psi, grid128,
                                    cfg, refine=False)
        assert rep.flagged_near_nodes
