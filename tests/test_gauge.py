import numpy as np
import pytest

import nlgauge as ng
from nlgauge import GaugeTransform, apply_gauge, compose, identity, invert


def random_gauge(rng, gamma_max=1.5, lam_max=2.0, theta_max=0.1):
    # bounds under which the unwrapped phase of every image stays branch-safe
    return GaugeTransform(
        gamma=rng.uniform(-gamma_max, gamma_max),
        lam=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, lam_max),
        theta=rng.uniform(-theta_max, theta_max),
    )


class TestApply:
    def test_identity_returns_state(self, packet64):
        out = apply_gauge(identity(), packet64)
        assert np.array_equal(out, packet64)

    def test_constant_theta_is_global_phase(self, packet64):
        out = apply_gauge(GaugeTransform(0.0, 1.0, 0.7), packet64)
        assert np.max(np.abs(out - np.exp(0.7j) * packet64)) < 1e-15

    def test_constant_two(self, grid64):
        psi = np.full(grid64.shape, 2.0 + 0j)
        out = apply_gauge(GaugeTransform(1.0, 1.0, 0.0), psi)
        assert np.max(np.abs(out - 2.0 * np.exp(1j * np.log(2.0)))) < 1e-14

    def test_zero_field(self, grid64):
        out = apply_gauge(GaugeTransform(1.0, 2.0, 0.0),
                          np.zeros(grid64.shape, complex))
        assert np.all(out == 0.0)

    def test_density_invariance_random(self, grid64, rng):
        # the defining property, exact by construction for any parameters
        for _ in range(20):
            psi = ng.states.random_nodeless_field(grid64, rng)
            g = GaugeTransform(gamma=rng.uniform(-5, 5),
                               lam=rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 1),
                               theta=rng.uniform(-3, 3))
            rho = ng.density(psi)
            dev = np.max(np.abs(ng.density(apply_gauge(g, psi)) - rho))
            assert dev <= 1e-12 * rho.max()

    def test_density_invariance_with_nodes(self, grid64, rng):
        # still exact at floored points: the modulus is copied through
        psi = ng.states.gaussian(grid64, width=0.4)  # tails below the floor
        g = GaugeTransform(1.3, -0.7, 0.2)
        rho = ng.density(psi)
        assert np.max(np.abs(ng.density(apply_gauge(g, psi)) - rho)) <= 1e-12 * rho.max()

    def test_norm_preserved(self, grid64, packet64):
        out = apply_gauge(GaugeTransform(2.0, 0.3, 1.0), packet64)
        assert ng.l2_norm(out, grid64) == pytest.approx(1.0, abs=1e-13)

    def test_theta_field(self, grid64, packet64):
        theta = 0.2 * np.sin(2 * np.pi * grid64.axis_coordinate() / grid64.length)
        out = apply_gauge(GaugeTransform(0.0, 1.0, theta), packet64)
        assert np.max(np.abs(out - packet64 * np.exp(1j * theta))) < 1e-14


class TestGroupLaw:
    def test_compose_example(self):
        g = compose(GaugeTransform(3.0, 2.0), GaugeTransform(1.0, 5.0))
        assert (g.gamma, g.lam) == (5.0, 10.0)
        assert g.theta_is_zero

    def test_identity_laws(self, rng):
        for _ in range(10):
            g = random_gauge(rng)
            for h in (compose(identity(), g), compose(g, identity())):
                assert h.gamma == pytest.approx(g.gamma, abs=1e-15)
                assert h.lam == pytest.approx(g.lam, abs=1e-15)

    def test_invert_examples(self):
        inv = invert(GaugeTransform(1.0, 2.0))
        assert (inv.gamma, inv.lam) == (-0.5, 0.5)
        flip = GaugeTransform(0.0, -1.0)
        inv2 = invert(flip)
        assert (inv2.gamma, inv2.lam) == (0.0, -1.0)  # involution
        assert invert(identity()).is_identity()

    def test_two_sided_inverse(self, rng):
        for _ in range(25):
            g = random_gauge(rng, gamma_max=5, lam_max=10, theta_max=2)
            for h in (compose(g, invert(g)), compose(invert(g), g)):
                assert abs(h.gamma) < 1e-13 * max(1, abs(g.gamma))
                assert abs(h.lam - 1.0) < 1e-14
                assert abs(np.max(np.abs(np.asarray(h.theta)))) < 1e-13 * max(
                    1, float(np.max(np.abs(np.asarray(g.theta)))))

    def test_associativity_parameter_level(self, rng):
        for _ in range(25):
            g1, g2, g3 = (random_gauge(rng, 5, 10, 1) for _ in range(3))
            left = compose(g3, compose(g2, g1))
            right = compose(compose(g3, g2), g1)
            scale = max(1.0, abs(left.gamma), abs(left.lam))
            assert abs(left.gamma - right.gamma) < 1e-14 * scale
            assert abs(left.lam - right.lam) < 1e-14 * scale
            t = max(1.0, float(np.max(np.abs(np.asarray(left.theta)))))
            assert float(np.max(np.abs(np.asarray(left.theta)
                                       - np.asarray(right.theta)))) < 1e-14 * t

    def test_functional_homomorphism(self, grid64, rng):
        # apply(compose(g2,g1)) == apply(g2) o apply(g1) on branch-safe states
        for _ in range(20):
            psi = ng.states.random_nodeless_field(grid64, rng)
            g1, g2 = random_gauge(rng), random_gauge(rng)
            via_pair = apply_gauge(g2, apply_gauge(g1, psi))
            via_comp = apply_gauge(compose(g2, g1), psi)
            assert np.max(np.abs(via_pair - via_comp)) < 1e-10

    def test_apply_inverse_restores_state(self, grid64, rng):
        for _ in range(10):
            psi = ng.states.random_nodeless_field(grid64, rng)
            g = random_gauge(rng)
            back = apply_gauge(invert(g), apply_gauge(g, psi))
            assert np.max(np.abs(back - psi)) < 1e-12

    def test_compose_with_theta_fields(self, grid64):
        x = grid64.axis_coordinate()
        th1 = 0.1 * np.sin(2 * np.pi * x / grid64.length)
        th2 = 0.05 * np.cos(2 * np.pi * x / grid64.length)
        g1 = GaugeTransform(0.4, 1.2, th1)
        g2 = GaugeTransform(-0.3, 0.8, th2)
        comp = compose(g2, g1)
        assert np.allclose(comp.theta, 0.8 * th1 + th2)


def test_lambda_zero_rejected():
    with pytest.raises(ValueError):
        GaugeTransform(0.0, 0.0)


def test_theta_must_be_finite():
    with pytest.raises(ValueError):
        GaugeTransform(0.0, 1.0, np.inf)


@pytest.mark.parametrize("gamma, lam", [
    (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan), (0.0, np.inf),
    (np.nan, np.inf)])
def test_gamma_and_lam_must_be_finite(gamma, lam):
    # a non-finite parameter would turn apply_gauge's output into NaN
    with pytest.raises(ValueError, match="finite"):
        GaugeTransform(gamma, lam)


def test_invert_refuses_an_overflowing_inverse():
    # 1 / 1e-320 overflows to inf
    with pytest.raises(ValueError, match="finite"):
        invert(GaugeTransform(1.0, 1e-320))
