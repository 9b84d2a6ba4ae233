import numpy as np
import pytest

import nlgauge as ng
from nlgauge.functionals import DEFAULT_POLICY, RegularizationPolicy

from conftest import quotient_reference, trig_packet


def plane_wave_raw(grid, mode=1):
    # unnormalized exp(ikx), rho == 1
    k = 2 * np.pi * mode / grid.length
    return np.exp(1j * k * grid.axis_coordinate()), k


def unwrap_reference(psi):
    """unwrap_phase spelled out with np.unwrap."""
    ang = np.angle(psi)
    anchor = np.unravel_index(int(np.argmax(np.abs(psi))), psi.shape)
    if psi.ndim == 1:
        s = np.unwrap(ang)
    else:
        s = np.unwrap(ang, axis=1)
        col = np.unwrap(ang[:, anchor[1]])
        s += (col - s[:, anchor[1]])[:, None]
    s += ang[anchor] - s[anchor]
    return s


def carry_over_reference(phase, valid):
    """The carried phase spelled out, one entry at a time: per member (leading
    axis), each invalid entry of the row-major scan takes the last valid value
    before it, or the member's first valid value when none precedes it; a
    member without a valid point keeps its own values."""
    out = []
    for s, ok in zip(phase, valid):
        s, ok = s.ravel().tolist(), ok.ravel().tolist()
        if True in ok:
            last = s[ok.index(True)]
            for i in range(len(s)):
                if ok[i]:
                    last = s[i]
                else:
                    s[i] = last
        out.append(s)
    return np.array(out).reshape(phase.shape)


class TestDensity:
    def test_plane_wave(self, grid64):
        psi, _ = plane_wave_raw(grid64)
        assert np.allclose(ng.density(psi), 1.0, atol=1e-14)

    def test_zero_field(self, grid64):
        assert np.all(ng.density(np.zeros(grid64.shape, complex)) == 0.0)

    def test_constant_phase_drops_out(self, grid64, rng):
        g = rng.normal(size=grid64.shape)
        psi = (1 + 1j) / np.sqrt(2) * g
        assert np.allclose(ng.density(psi), g ** 2, atol=1e-14)


class TestCurrent:
    def test_real_state_carries_no_current(self, grid64):
        psi = ng.states.gaussian(grid64, width=1.5).real.astype(complex)
        j = ng.current(psi, grid64, nu1=-0.5)
        assert np.max(np.abs(j)) < 1e-14

    def test_plane_wave_current(self, grid64):
        psi, k = plane_wave_raw(grid64, mode=3)
        j = ng.current(psi, grid64, nu1=-0.5)
        assert np.max(np.abs(j[0] - k)) < 1e-12

    def test_moving_packet_current_is_k_rho(self, grid128):
        # J = k * rho for a gaussian with grid-compatible momentum, nu1 = -1/2
        k = 4 * (2 * np.pi / grid128.length)
        psi = ng.states.gaussian(grid128, width=0.8, momentum=k)
        j = ng.current(psi, grid128, nu1=-0.5)[0]
        rho = ng.density(psi)
        mask = rho > 1e-6 * rho.max()
        assert np.max(np.abs(j[mask] - k * rho[mask])) < 1e-10 * rho.max()

    def test_conjugation_flips_current(self, packet64, grid64):
        j = ng.current(packet64, grid64, nu1=-0.5)
        jc = ng.current(np.conj(packet64), grid64, nu1=-0.5)
        assert np.allclose(jc, -j, atol=1e-14)

    def test_continuity_against_linear_rhs(self, grid64, packet64):
        # d/dt rho from the linear equation must equal -div J spectrally
        nu1 = -0.5
        dpsi = ng.rhs(ng.NLSECoefficients(nu1=nu1), packet64, grid64)
        drho = 2.0 * np.real(np.conj(packet64) * dpsi)
        div_j = ng.divergence(ng.current(packet64, grid64, nu1), grid64)
        assert np.max(np.abs(drho + div_j)) < 1e-12


class TestModulusPhase:
    def test_plane_wave_unwraps_monotone(self, grid64):
        psi, k = plane_wave_raw(grid64, mode=2)
        pair = ng.modulus_phase(psi)
        assert np.max(np.abs(pair.phase - k * grid64.axis_coordinate())) < 1e-12
        assert pair.regularized_fraction == 0.0

    def test_positive_gaussian_has_zero_phase(self, grid64):
        psi = ng.states.gaussian(grid64, width=2.0)
        pair = ng.modulus_phase(psi)
        assert np.max(np.abs(pair.phase)) < 1e-14
        assert np.allclose(pair.modulus, np.abs(psi))

    def test_negative_constant(self, grid64):
        pair = ng.modulus_phase(np.full(grid64.shape, -1.0 + 0j))
        assert np.allclose(pair.phase, np.pi)
        assert np.allclose(pair.modulus, 1.0)

    def test_reconstruction_off_the_floor(self, grid64, packet64):
        pair = ng.modulus_phase(packet64)
        rebuilt = pair.modulus * np.exp(1j * pair.phase)
        assert np.max(np.abs(rebuilt - packet64)) < 1e-12

    def test_floor_points_are_flagged_and_carried(self):
        grid = ng.make_grid(1, 256, 40.0)
        psi = ng.states.gaussian(grid, width=0.5)  # deep tails below the floor
        pair = ng.modulus_phase(psi)
        assert pair.regularized_fraction > 0.0
        assert pair.has_regularized_points
        assert np.all(np.isfinite(pair.phase))

    @pytest.mark.parametrize("shape", [(64,), (24, 40)])
    def test_unwrap_matches_numpy_unwrap(self, rng, shape):
        # equal to the last bit: random phase walks with many 2*pi jumps, and
        # the quarter-turn values whose steps are exactly +-pi or 3*pi/2
        walk = np.exp(1j * np.cumsum(rng.normal(0.0, 2.0, size=shape), axis=-1))
        walk *= rng.uniform(0.5, 1.5, size=shape)
        quarter = rng.choice(np.array([1.0, -1.0, 1j, -1j, 2.0, -2.0j]), size=shape)
        for psi in (walk, quarter):
            assert np.array_equal(ng.unwrap_phase(psi), unwrap_reference(psi))

    @pytest.mark.parametrize("shape", [(64,), (12, 16)])
    def test_carried_phase_matches_an_entry_by_entry_scan(self, rng, shape):
        # four members: random invalid points after 5 leading ones, every
        # point valid, no valid point, and random invalid points
        psis = np.exp(1j * np.cumsum(rng.normal(0.0, 2.0, (4,) + shape), axis=-1))
        valid = rng.random(psis.shape) > 0.4
        valid[0].flat[:5] = False
        valid[1] = True
        valid[2] = False
        for b in (0, 3):
            got = ng.unwrap_phase(psis[b], valid=valid[b])
            expect = carry_over_reference(ng.unwrap_phase(psis[b])[None], valid[b][None])
            assert np.array_equal(got, expect[0])
        got = ng.unwrap_phase(psis, valid=valid, dimension=len(shape))
        expect = carry_over_reference(np.array([ng.unwrap_phase(p) for p in psis]), valid)
        assert np.array_equal(got, expect)
        assert not np.array_equal(got, np.array([ng.unwrap_phase(p) for p in psis]))

    def test_2d_product_phase_is_additive(self):
        grid = ng.make_grid(1, 32, 10.0)
        p1 = trig_packet(grid, s1=0.4, s2=0.1)
        p2 = trig_packet(grid, s1=-0.2, s2=0.3)
        s1 = ng.modulus_phase(p1).phase
        s2 = ng.modulus_phase(p2).phase
        s2d = ng.modulus_phase(ng.tensor_product(p1, p2)).phase
        assert np.max(np.abs(s2d - (s1[:, None] + s2[None, :]))) < 1e-10


class TestFunctionalR:
    def test_r2_on_gaussian(self):
        # rho = exp(-x^2): lap rho / rho = 4 x^2 - 2
        grid = ng.make_grid(1, 256, 30.0)
        x = grid.axis_coordinate() - 15.0
        psi = np.exp(-x ** 2 / 2) + 0j
        r2 = quotient_reference(2, psi, grid, nu1=-0.5)
        interior = np.abs(x) < 4.0
        assert np.max(np.abs(r2[interior] - (4 * x[interior] ** 2 - 2))) < 1e-6

    def test_r5_on_gaussian(self):
        grid = ng.make_grid(1, 256, 30.0)
        x = grid.axis_coordinate() - 15.0
        psi = np.exp(-x ** 2 / 2) + 0j
        r5 = quotient_reference(5, psi, grid, nu1=-0.5)
        interior = np.abs(x) < 4.0
        assert np.max(np.abs(r5[interior] - 4 * x[interior] ** 2)) < 1e-6

    def test_r3_vanishes_for_real_state(self, grid64):
        psi = ng.states.gaussian(grid64, width=2.0).real.astype(complex)
        assert np.max(np.abs(quotient_reference(3, psi, grid64, nu1=-0.5))) < 1e-20

    def test_r1_vanishes_for_plane_wave(self, grid64):
        psi, _ = plane_wave_raw(grid64, mode=2)
        assert np.max(np.abs(quotient_reference(1, psi, grid64, nu1=-0.5))) < 1e-11

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
    def test_global_phase_invariance(self, grid64, packet64, index):
        shifted = np.exp(1.234j) * packet64
        a = quotient_reference(index, packet64, grid64, nu1=-0.5)
        b = quotient_reference(index, shifted, grid64, nu1=-0.5)
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) < 1e-12 * scale

    @pytest.mark.parametrize("index", [2, 3, 4, 5])
    def test_scale_invariance(self, grid64, packet64, index):
        # degree-0 homogeneity in the modulus (the relative floor scales along)
        a = quotient_reference(index, packet64, grid64, nu1=-0.5)
        b = quotient_reference(index, 17.3 * packet64, grid64, nu1=-0.5)
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) < 1e-10 * scale

    def test_density_scaling_quadratic(self, packet64):
        assert np.allclose(ng.density(3.0 * packet64), 9.0 * ng.density(packet64))

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
    def test_additivity_on_products(self, index):
        # R_i[psi1 x psi2](x, y) = R_i[psi1](x) + R_i[psi2](y) off nodes
        grid = ng.make_grid(1, 48, 12.0)
        p1 = trig_packet(grid, depth=0.9, s1=0.35, s2=0.1)
        p2 = trig_packet(grid, depth=0.7, s1=-0.25, s2=0.2)
        grid2 = ng.product_grid(grid)
        r1 = quotient_reference(index, p1, grid, nu1=-0.5)
        r2 = quotient_reference(index, p2, grid, nu1=-0.5)
        r2d = quotient_reference(index, ng.tensor_product(p1, p2), grid2, nu1=-0.5)
        err = np.max(np.abs(r2d - (r1[:, None] + r2[None, :])))
        assert err < 1e-8 * max(1.0, np.max(np.abs(r2d)))


def test_policy_validation():
    with pytest.raises(ValueError):
        RegularizationPolicy(rho_floor_rel=0.0)
    assert DEFAULT_POLICY.rho_floor_rel == 1e-12


@pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
def test_policy_refuses_a_non_finite_or_negative_floor(value):
    with pytest.raises(ValueError, match="positive and finite"):
        RegularizationPolicy(rho_floor_rel=value)


def test_regularized_fraction_zero_on_nodeless(packet64):
    rho = ng.density(packet64)
    assert DEFAULT_POLICY.regularized_fraction(rho) == 0.0
