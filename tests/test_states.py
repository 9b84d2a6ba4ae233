"""Input checks of the state presets in ``nlgauge.states``."""

import numpy as np
import pytest

import nlgauge as ng


@pytest.fixture(params=[1, 2])
def grid(request):
    return ng.make_grid(request.param, 16, 10.0)


@pytest.mark.parametrize("mode", [1.5, True, np.nan, np.inf])
def test_plane_wave_refuses_a_mode_that_is_not_a_whole_number(grid, mode):
    with pytest.raises(ValueError, match="whole number"):
        ng.states.plane_wave(grid, mode)


def test_plane_wave_refuses_a_pair_with_a_fractional_mode():
    with pytest.raises(ValueError, match="whole number"):
        ng.states.plane_wave(ng.make_grid(2, 16, 10.0), (1, 0.5))


@pytest.mark.parametrize("mode", [2, -1, 2.0, np.int64(3)])
def test_plane_wave_takes_a_whole_mode(grid, mode):
    psi = ng.states.plane_wave(grid, mode)
    x = grid.axis_coordinate()
    factor = np.exp(2j * np.pi * int(mode) * x / grid.length)
    expected = factor if grid.dimension == 1 else np.multiply.outer(factor, factor)
    expected /= ng.l2_norm(expected, grid)
    assert np.max(np.abs(psi - expected)) < 1e-13


@pytest.mark.parametrize("max_mode", [0, -2])
def test_random_nodeless_field_refuses_max_mode_below_one(grid, max_mode):
    with pytest.raises(ValueError, match="max_mode"):
        ng.states.random_nodeless_field(grid, np.random.default_rng(0), max_mode=max_mode)


def test_random_nodeless_field_with_one_mode_is_finite(grid):
    psi = ng.states.random_nodeless_field(grid, np.random.default_rng(0), max_mode=1)
    assert np.all(np.isfinite(psi)) and np.max(np.abs(psi)) == 1.0
