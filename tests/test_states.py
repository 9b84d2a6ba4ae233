"""Input checks of the state presets in ``nlgauge.states``."""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import cli


@pytest.fixture(params=[1, 2])
def grid(request):
    return ng.make_grid(request.param, 16, 10.0)


@pytest.mark.parametrize("mode", [1.5, True, np.nan, np.inf])
def test_plane_wave_refuses_a_mode_that_is_not_a_whole_number(grid, mode):
    with pytest.raises(ValueError, match="whole number"):
        ng.states.plane_wave(grid, mode)


@pytest.mark.parametrize("mode", [(1, 0.5), (1, True)])
def test_plane_wave_refuses_a_pair_with_a_fractional_mode(mode):
    with pytest.raises(ValueError, match="whole number"):
        ng.states.plane_wave(ng.make_grid(2, 16, 10.0), mode)


@pytest.mark.parametrize("mode", [2, -1, 2.0, np.int64(3)])
def test_plane_wave_takes_a_whole_mode(grid, mode):
    psi = ng.states.plane_wave(grid, mode)
    x = grid.axis_coordinate()
    factor = np.exp(2j * np.pi * int(mode) * x / grid.length)
    expected = factor if grid.dimension == 1 else np.multiply.outer(factor, factor)
    expected /= ng.l2_norm(expected, grid)
    assert np.max(np.abs(psi - expected)) < 1e-13


@pytest.mark.parametrize("max_mode", [0, -2, 1.5, True])
def test_random_nodeless_field_refuses_max_mode_below_one(grid, max_mode):
    with pytest.raises(ValueError, match="max_mode"):
        ng.states.random_nodeless_field(grid, np.random.default_rng(0), max_mode=max_mode)


def test_random_nodeless_field_with_one_mode_is_finite(grid):
    psi = ng.states.random_nodeless_field(grid, np.random.default_rng(0), max_mode=1)
    assert np.all(np.isfinite(psi)) and np.max(np.abs(psi)) == 1.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda g: ng.states.gaussian(g, center=NAN),
    lambda g: ng.states.gaussian(g, center=(-INF, 1.0)[:g.dimension]),
    lambda g: ng.states.gaussian(g, width=NAN),
    lambda g: ng.states.gaussian(g, width=INF),
    lambda g: ng.states.gaussian(g, momentum=NAN),
    lambda g: ng.states.harmonic_potential(g, center=INF),
    lambda g: ng.states.harmonic_potential(g, omega=NAN),
    lambda g: ng.states.random_nodeless_field(g, np.random.default_rng(0), log_amp=NAN),
    lambda g: ng.states.random_nodeless_field(g, np.random.default_rng(0), phase_amp=INF),
    # a 1D preset: its 1D grid in either case
    lambda g: ng.states.two_gaussian_pair(ng.make_grid(1, g.n, g.length), separation=NAN),
    lambda g: ng.states.two_gaussian_pair(ng.make_grid(1, g.n, g.length), separation=INF),
    lambda g: ng.states.two_gaussian_pair(ng.make_grid(1, g.n, g.length), width=NAN),
])
def test_a_non_finite_argument_is_refused(grid, build):
    with pytest.raises(ValueError, match="finite number"):
        build(grid)


@pytest.mark.parametrize("value", [0.0, NAN, INF])
def test_normalized_refuses_a_norm_that_is_zero_or_not_finite(grid, value):
    with pytest.raises(ValueError, match="norm"):
        ng.states.normalized(np.full(grid.shape, value, complex), grid)


@pytest.mark.parametrize("build", [
    lambda g: ng.states.gaussian(g, center=1e6),
    lambda g: ng.states.gaussian(g, width=1e-3, center=0.07),
    lambda g: ng.states.two_gaussian_pair(g, separation=1e6),
], ids=["far-center", "narrow-between-points", "far-pair"])
def test_a_packet_that_underflows_on_every_point_is_refused(build):
    # finite arguments whose packet is 0 on all 64 points, so its norm is 0
    with pytest.raises(ValueError, match="norm 0.0"):
        build(ng.make_grid(1, 64, 10.0))


@pytest.mark.parametrize("log_amp,zeros", [(400, 6), (1e300, 31)])
def test_random_nodeless_field_refuses_a_modulus_that_underflows(log_amp, zeros):
    message = f"log_amp {float(log_amp)} underflows the modulus to 0 at {zeros} of 32 "
    with pytest.raises(ValueError, match=re.escape(message)):
        ng.states.random_nodeless_field(ng.make_grid(1, 32, 10.0),
                                        np.random.default_rng(0), log_amp=log_amp)


@pytest.mark.parametrize("build", [
    lambda g: ng.states.random_nodeless_field(g, np.random.default_rng(0), log_amp=1e308),
    lambda g: ng.states.random_nodeless_field(g, np.random.default_rng(0), phase_amp=1e308),
    lambda g: ng.states.gaussian(g, momentum=1e308),
    lambda g: ng.states.gaussian(g, width=1e-300),
    lambda g: ng.states.gaussian(g, center=1e308),
], ids=["log-amp", "phase-amp", "momentum", "width", "center"])
def test_finite_arguments_that_overflow_are_refused_without_a_warning(grid, build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite|norm|underflows"):
            build(grid)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("phase_amp", [1e300, 1e308])
def test_random_nodeless_field_refuses_a_phase_too_coarse_to_unwrap(grid, phase_amp, seed):
    # whether the phase overflows or not, at every draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase_amp"):
            ng.states.random_nodeless_field(grid, np.random.default_rng(seed),
                                            phase_amp=phase_amp)


@pytest.mark.parametrize("phase_amp", [0.4, 1e15])
def test_random_nodeless_field_takes_a_phase_resolved_within_a_turn(grid, phase_amp):
    for seed in range(6):
        psi = ng.states.random_nodeless_field(grid, np.random.default_rng(seed),
                                              phase_amp=phase_amp)
        assert np.all(np.isfinite(psi))


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_gaussian_refuses_a_width_that_is_not_positive(grid, width):
    with pytest.raises(ValueError, match="gaussian width must be positive"):
        ng.states.gaussian(grid, width=width)


def test_free_gaussian_exact_is_a_1d_oracle():
    with pytest.raises(ValueError, match="1D oracle"):
        ng.states.free_gaussian_exact(ng.make_grid(2, 16, 10.0), 0.1, 5.0, 1.0)


def test_harmonic_potential_refuses_an_omega_whose_field_overflows(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused without an overflow warning
        with pytest.raises(ValueError, match="harmonic potential .* is not finite"):
            ng.states.harmonic_potential(grid, omega=1e200)


@pytest.mark.parametrize("build", [
    lambda g: ng.states.gaussian(g, center=(1.0, 2.0, 3.0)),
    lambda g: ng.states.gaussian(g, width=(1.0, True)),
    lambda g: ng.states.plane_wave(g, (1, 1, 1)),
    lambda g: ng.states.harmonic_potential(g, center=()),
])
def test_a_per_axis_argument_of_another_count_or_a_bool_is_refused(grid, build):
    with pytest.raises(ValueError, match="must be a"):
        build(grid)


# the states call each CLI row stands for when its block gives no field
STATES_DEFAULTS = {
    "gaussian": lambda g, rng: ng.states.gaussian(g),
    "plane-wave": lambda g, rng: ng.states.plane_wave(g),
    "random-nodeless": lambda g, rng: ng.states.normalized(
        ng.states.random_nodeless_field(g, rng), g),
    "two-gaussian": lambda g, rng: ng.states.normalized(
        np.add(*ng.states.two_gaussian_pair(g)), g),
    "harmonic": lambda g, rng: ng.states.harmonic_potential(g),
    "none": lambda g, rng: None,
}


def _outcome(build):
    """The array a build makes, as bytes, or the message it refuses with."""
    try:
        made = build()
    except ValueError as err:
        return str(err)
    return None if made is None else made.tobytes()


def test_every_cli_row_with_defaults_is_listed():
    rows = {**cli.STATE_PRESETS, **cli.POTENTIALS}
    assert set(STATES_DEFAULTS) == {name for name, (fields, _, _) in rows.items()
                                    if all(default is not None for _, _, default in fields)}


@pytest.mark.parametrize("name", sorted(STATES_DEFAULTS))
def test_a_cli_row_without_fields_builds_the_states_defaults(grid, name):
    """The defaults are written both in the CLI rows and in the ``states``
    signatures; the two must build the same bits."""
    table = cli.STATE_PRESETS if name in cli.STATE_PRESETS else cli.POTENTIALS
    fields, _, builder = table[name]
    b = cli._fields({}, fields, "block", grid.length)
    build = SimpleNamespace(grid=grid, rng=np.random.default_rng(3))
    got = _outcome(lambda: builder(build, b))
    assert got == _outcome(lambda: STATES_DEFAULTS[name](grid, np.random.default_rng(3)))
