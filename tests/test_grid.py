from math import erf

import numpy as np
import pytest

import nlgauge as ng
from nlgauge.grid import fft_stack, ifft_stack, irfft_field, rfft_field


class TestMakeGrid:
    def test_basic_1d(self):
        g = ng.make_grid(1, 8, 1.0)
        assert g.dx == pytest.approx(0.125)
        assert np.allclose(g.axis_coordinate(), np.arange(8) * 0.125)
        assert g.shape == (8,)

    def test_basic_2d(self):
        g = ng.make_grid(2, 16, 2 * np.pi)
        assert g.shape == (16, 16)
        assert g.dx == pytest.approx(2 * np.pi / 16)
        assert g.npoints == 256

    @pytest.mark.parametrize("dim,n,length", [
        (1, 7, 1.0),     # odd n
        (1, 6, 1.0),     # too small
        (1, 64, 0.0),    # non-positive length
        (1, 64, -2.0),
        (1, 64, np.inf),  # the stability bound would be nan
        (1, 64, np.nan),
        (3, 64, 1.0),    # unsupported dimension
        (0, 64, 1.0),
    ])
    def test_rejects_bad_specs(self, dim, n, length):
        with pytest.raises(ValueError):
            ng.make_grid(dim, n, length)


class TestDifferentiate:
    def test_sine_first_derivative(self):
        g = ng.make_grid(1, 64, 2.0)
        k = 2 * np.pi / g.length
        x = g.axis_coordinate()
        d = ng.differentiate(np.sin(k * x) + 0j, g, order=1)
        assert np.max(np.abs(d.real - k * np.cos(k * x))) < 1e-12
        assert np.max(np.abs(d.imag)) < 1e-12

    def test_constant_derivative_is_zero(self, grid64):
        d = ng.differentiate(np.full(grid64.shape, 3.7, dtype=complex), grid64)
        assert np.max(np.abs(d)) < 1e-13

    def test_fourier_eigenfunction_second_derivative(self, grid64):
        k = 2 * (2 * np.pi / grid64.length)
        f = np.exp(1j * k * grid64.axis_coordinate())
        d2 = ng.differentiate(f, grid64, order=2)
        assert np.max(np.abs(d2 + k ** 2 * f)) < 1e-11

    def test_first_twice_matches_second(self, grid64):
        x = grid64.axis_coordinate()
        k0 = 2 * np.pi / grid64.length
        f = np.exp(np.cos(k0 * x) + 0.3 * np.sin(2 * k0 * x)) + 0j
        twice = ng.differentiate(ng.differentiate(f, grid64), grid64)
        second = ng.differentiate(f, grid64, order=2)
        scale = np.max(np.abs(second))
        assert np.max(np.abs(twice - second)) < 1e-10 * scale

    def test_2d_axes(self):
        g = ng.make_grid(2, 32, 2 * np.pi)
        xx, yy = g.coordinates()
        f = np.sin(xx) * np.cos(2 * yy) + 0j
        dfx = ng.differentiate(f, g, axis=0)
        dfy = ng.differentiate(f, g, axis=1)
        assert np.max(np.abs(dfx.real - np.cos(xx) * np.cos(2 * yy))) < 1e-11
        assert np.max(np.abs(dfy.real + 2 * np.sin(xx) * np.sin(2 * yy))) < 1e-11

    def test_rejects_bad_order_and_axis(self, grid64):
        f = np.zeros(grid64.shape, dtype=complex)
        with pytest.raises(ValueError):
            ng.differentiate(f, grid64, order=3)
        with pytest.raises(ValueError):
            ng.differentiate(f, grid64, axis=1)

    def test_laplacian_matches_sum_of_second_derivatives(self):
        g = ng.make_grid(2, 32, 5.0)
        xx, yy = g.coordinates()
        k0 = 2 * np.pi / g.length
        f = np.exp(1j * k0 * xx) * np.exp(-2j * k0 * yy)
        lap = ng.laplacian(f, g)
        ref = ng.differentiate(f, g, 0, 2) + ng.differentiate(f, g, 1, 2)
        assert np.max(np.abs(lap - ref)) < 1e-12


def dft_matrix(n):
    """Naive DFT matrix exp(-2 pi i jk / n), the oracle of the transform layer."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def dft(a, dimension, inverse=False):
    """DFT of ``a`` over its last ``dimension`` axes by matrix products."""
    f = dft_matrix(a.shape[-1])
    if inverse:
        f = f.conj() / a.shape[-1]
    out = a @ f.T
    if dimension == 2:
        out = np.swapaxes(np.swapaxes(out, -1, -2) @ f.T, -1, -2)
    return out


def assert_rel_close(got, expect, tol=1e-12):
    assert np.max(np.abs(got - expect)) <= tol * np.max(np.abs(expect))


class TestTransformLayer:
    """The numpy.fft layer of grid.py against a naive DFT-matrix oracle."""

    @pytest.mark.parametrize("dimension,n,rows", [(1, 64, 3), (1, 48, 1),
                                                  (2, 32, 3), (2, 16, 1)])
    def test_complex_stack_both_directions(self, rng, dimension, n, rows):
        grid = ng.make_grid(dimension, n, 7.0)
        shape = (rows,) + grid.shape
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        spec = fft_stack(a.copy(), grid)
        assert_rel_close(spec, dft(a, dimension))
        assert_rel_close(ifft_stack(a.copy(), grid), dft(a, dimension, inverse=True))
        assert_rel_close(ifft_stack(spec, grid), a)

    def test_transforms_in_place(self, rng):
        grid = ng.make_grid(2, 16, 7.0)
        a = rng.normal(size=(2,) + grid.shape) + 0j
        assert fft_stack(a, grid) is a
        assert ifft_stack(a, grid) is a

    @pytest.mark.parametrize("dimension,n", [(1, 64), (2, 32)])
    def test_real_half_spectrum(self, rng, dimension, n):
        grid = ng.make_grid(dimension, n, 7.0)
        f = rng.normal(size=(2,) + grid.shape)
        half = rfft_field(f, grid)
        assert half.shape == (2,) + grid.shape[:-1] + (n // 2 + 1,)
        assert_rel_close(half, dft(f, dimension)[..., :n // 2 + 1])
        assert_rel_close(irfft_field(half, grid), f)

    @pytest.mark.parametrize("dimension,n", [(1, 64), (2, 32)])
    def test_real_field_derivatives(self, rng, dimension, n):
        # every mode, Nyquist included, is excited; the oracle multiplies the
        # full DFT spectrum by the full-layout symbols and inverts by matrices
        grid = ng.make_grid(dimension, n, 7.0)
        f = rng.normal(size=grid.shape)
        f_k = dft(f, dimension)
        for axis in range(dimension):
            for order in (1, 2):
                k = grid.wavenumbers(axis, zero_nyquist=order == 1)
                got = ng.differentiate(f, grid, axis=axis, order=order)
                assert np.isrealobj(got)
                expect = dft((1j * k) ** order * f_k, dimension, inverse=True)
                assert_rel_close(got, expect.real)
                assert np.max(np.abs(expect.imag)) <= 1e-12 * np.max(np.abs(expect))
        got = ng.laplacian(f, grid)
        assert np.isrealobj(got)
        expect = dft(grid.laplacian_symbol * f_k, dimension, inverse=True)
        assert_rel_close(got, expect.real)


class TestIntegrate:
    def test_constant(self):
        g = ng.make_grid(1, 16, 2.0)
        assert ng.integrate(np.ones(16), g) == pytest.approx(2.0)

    def test_periodic_mean_of_sine(self, grid64):
        x = grid64.axis_coordinate()
        val = ng.integrate(np.sin(2 * np.pi * x / grid64.length), grid64)
        assert abs(val) < 1e-14

    def test_normalized_gaussian_against_erf(self):
        # independent oracle: the closed-form integral of the density over [0, L]
        g = ng.make_grid(1, 256, 20.0)
        sigma, c = 0.8, 10.0
        psi = ng.states.gaussian(g, center=c, width=sigma)
        got = ng.integrate(ng.density(psi), g)
        expected = 0.5 * (erf((g.length - c) / (np.sqrt(2) * sigma))
                          - erf((0.0 - c) / (np.sqrt(2) * sigma)))
        assert abs(got - expected) < 1e-10

    def test_linearity(self, grid64, rng):
        f = rng.normal(size=grid64.shape)
        h = rng.normal(size=grid64.shape)
        lhs = ng.integrate(2.5 * f - 1.5 * h, grid64)
        rhs = 2.5 * ng.integrate(f, grid64) - 1.5 * ng.integrate(h, grid64)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_integral_of_exact_derivative_vanishes(self, grid64):
        x = grid64.axis_coordinate()
        k0 = 2 * np.pi / grid64.length
        f = np.exp(0.5 * np.cos(k0 * x)) + 0j
        df = ng.differentiate(f, grid64).real
        assert abs(ng.integrate(df, grid64)) < 1e-12

    def test_rejects_complex(self, grid64):
        with pytest.raises(ValueError):
            ng.integrate(np.ones(grid64.shape, dtype=complex), grid64)


def test_ensure_field_checks(grid64):
    with pytest.raises(ValueError):
        ng.ensure_field(np.ones(12), grid64)
    bad = np.ones(grid64.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ng.ensure_field(bad, grid64)
