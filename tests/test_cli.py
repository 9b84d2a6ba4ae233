import errno
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlgauge import _fmt17, cli, dynamics, states
from nlgauge.dynamics import Trajectory
from nlgauge.functionals import density
from nlgauge.grid import l2_norm, make_grid


@pytest.fixture(autouse=True)
def no_part_file_left(tmp_path):
    """No run, whether it succeeds or fails, leaves a staged ``*.part`` file."""
    yield
    assert not list(tmp_path.rglob("*.part"))


def tree(root):
    """Every path below ``root`` with the bytes of each file (None: a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def base_evolve_config(**overrides):
    cfg = {
        "experiment": "evolve",
        "grid": {"dimension": 1, "n": 64, "length": 20.0},
        "coefficients": {"nu1": -0.5},
        "initial_state": {"preset": "gaussian", "width": 1.0,
                          "momentum": 2 * np.pi / 20.0},
        "potential": {"type": "none"},
        "run": {"dt": 1e-3, "t_final": 0.02, "output_every": 10, "seed": 7},
    }
    cfg.update(overrides)
    return cfg


class TestPresets:
    def test_lists_presets(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "gaussian(center" in out
        assert "two-gaussian(separation" in out
        assert "harmonic(omega" in out

    def test_output_stable(self):
        assert cli.list_presets() == PRESETS_TEXT

    def test_every_preset_resolves_from_its_name_and_builds(self, tmp_path):
        grid = make_grid(1, 64, 20.0)
        for name in cli.STATE_PRESETS:
            cfg = cli.resolve_config(base_evolve_config(initial_state={"preset": name}))
            psi = cli._Inputs(cfg)("initial_state")
            assert psi.shape == grid.shape and np.all(np.isfinite(psi)), name
            assert abs(l2_norm(psi, grid) - 1.0) < 1e-12, name
        np.savetxt(tmp_path / "v.txt", np.ones(64))
        for name in cli.POTENTIALS:
            # only the file potential has a field without a default
            block = {"type": name, **({"path": str(tmp_path / "v.txt")}
                                      if name == "file" else {})}
            cfg = cli.resolve_config(base_evolve_config(potential=block))
            v = cli._Inputs(cfg)("potential")
            assert v is None if name == "none" else v.shape == grid.shape, name


PRESETS_TEXT = """\
initial states:
  gaussian(center=L/2, width=L/40, momentum=0.0)  - normalized packet \
exp(-(x-c)^2/(4w^2) + i k (x-c)); on the periodic box pick momentum a multiple of 2*pi/L
  plane-wave(mode=1)  - exp(i 2 pi mode x / L) / sqrt(L)
  random-nodeless(max_mode=4, log_amp=0.4, phase_amp=0.4)  - seeded band-limited \
exp(u+is), strictly nodeless, zero winding
  two-gaussian(separation=L/4, width=L/32)  - orthonormalized displaced pair; \
mixprobe rotates it by 'angle'
potentials:
  file(path)  - one V value per line, grid layout (row-major in 2D)
  harmonic(omega=1.0, center=L/2)  - (omega^2/2) |x - c|^2
  none  - free evolution
"""


class TestEvolveExperiment:
    def test_writes_frames_and_manifest(self, tmp_path):
        cfg_path = write_config(tmp_path, base_evolve_config())
        out_dir = tmp_path / "out"
        assert cli.run(cfg_path, out_dir) == 0
        frames = (out_dir / "frames.csv").read_text().splitlines()
        assert frames[0] == "t,x,re,im,rho"
        times = {line.split(",")[0] for line in frames[1:]}
        assert "0" in times
        assert any(abs(float(t) - 0.02) < 1e-12 for t in times)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool"] == "nlgauge"
        assert manifest["experiment"] == "evolve"
        assert manifest["diagnostics"]["norm_drift"] < 1e-8
        assert manifest["config"]["run"]["rho_floor_rel"] == 1e-12  # defaulted

    def test_deterministic_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_evolve_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run(cfg_path, out_a) == 0
        assert cli.run(cfg_path, out_b) == 0
        assert (out_a / "frames.csv").read_bytes() == (out_b / "frames.csv").read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, base_evolve_config())
        out_a = tmp_path / "a"
        assert cli.run(cfg_path, out_a) == 0
        out_b = tmp_path / "b"
        assert cli.run(out_a / "manifest.json", out_b) == 0
        assert (out_a / "frames.csv").read_bytes() == (out_b / "frames.csv").read_bytes()

    def test_harmonic_potential_block(self, tmp_path):
        cfg = base_evolve_config(potential={"type": "harmonic", "omega": 0.5})
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0

    def test_file_potential_block(self, tmp_path):
        vpath = tmp_path / "v.txt"
        np.savetxt(vpath, 0.1 * np.arange(64.0))
        cfg = base_evolve_config(potential={"type": "file", "path": str(vpath)})
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 0

    def test_2d_frames_schema(self, tmp_path):
        cfg = base_evolve_config(
            grid={"dimension": 2, "n": 16, "length": 10.0},
            initial_state={"preset": "gaussian", "width": 1.0},
            run={"dt": 2e-3, "t_final": 0.01, "output_every": 5, "seed": 1},
        )
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        head = (out_dir / "frames.csv").read_text().splitlines()[0]
        assert head == "t,x,y,re,im,rho"


# values whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal, a large exponent, and decimals that need all 17 digits
AWKWARD = (-0.0, 5e-324, 1e300, 0.1, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0e-5,
           1.7976931348623157e308, -9.8765432109876543e-200)


def reference_frames_csv(traj) -> bytes:
    """Naive per-cell writer: one ``f"{v:.17g}"`` per value, row by row."""
    def fmt(v):
        return f"{float(v):.17g}"

    x = traj.grid.axis_coordinate()
    if traj.grid.dimension == 1:
        lines = ["t,x,re,im,rho\n"]
        coords = [[fmt(a)] for a in x]
    else:
        lines = ["t,x,y,re,im,rho\n"]
        coords = [[fmt(a), fmt(b)] for a in x for b in x]
    for t, frame in zip(traj.times, traj.frames):
        rho = density(frame)
        for coord, v, r in zip(coords, frame.ravel(), rho.ravel()):
            cells = [fmt(t), *coord, fmt(v.real), fmt(v.imag), fmt(r)]
            lines.append(",".join(cells) + "\n")
    return "".join(lines).encode()


def awkward_trajectory(dimension, n, seed):
    grid = make_grid(dimension, n, 7.3)
    rng = np.random.default_rng(seed)
    times = np.array([0.0, 0.1, 1.0 / 3.0])
    frames = []
    for _ in times:
        mags = 10.0 ** rng.uniform(-320.0, 300.0, size=(2, grid.npoints))
        parts = rng.standard_normal((2, grid.npoints)) * mags
        parts[:, :len(AWKWARD)] = AWKWARD
        parts[:, -len(AWKWARD):] = AWKWARD[::-1]
        frames.append((parts[0] + 1j * parts[1]).reshape(grid.shape))
    ones = np.ones(len(times))
    return Trajectory(grid, times, frames, ones, 0.0 * ones)


class TestFramesBytes:
    """frames.csv is pinned byte for byte to a naive per-cell writer."""

    # |1e300|^2 and its like overflow to inf in rho, which is part of the check
    pytestmark = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")

    def test_1d_matches_reference(self, tmp_path):
        traj = awkward_trajectory(1, 16, seed=0)
        cli.write_frames_csv(tmp_path / "frames.csv", traj)
        assert (tmp_path / "frames.csv").read_bytes() == reference_frames_csv(traj)

    def test_2d_matches_reference(self, tmp_path):
        traj = awkward_trajectory(2, 96, seed=1)
        # several blocks per frame, the last one partial
        assert traj.grid.npoints > cli.FRAME_BLOCK_ROWS
        assert traj.grid.npoints % cli.FRAME_BLOCK_ROWS != 0
        cli.write_frames_csv(tmp_path / "frames.csv", traj)
        assert (tmp_path / "frames.csv").read_bytes() == reference_frames_csv(traj)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert cli.run(tmp_path / "nope.json", tmp_path / "out") == 2
        assert "CONFIG_ERROR" in capsys.readouterr().out

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(path, tmp_path / "out") == 2
        assert "CONFIG_ERROR" in capsys.readouterr().out

    def test_missing_coefficients_block(self, tmp_path, capsys):
        cfg = base_evolve_config()
        del cfg["coefficients"]
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 2
        assert "coefficients" in capsys.readouterr().out
        assert not out_dir.exists()  # no output files on config errors

    def test_bad_grid(self, tmp_path, capsys):
        cfg = base_evolve_config(grid={"dimension": 1, "n": 63, "length": 20.0})
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert "CONFIG_ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides", [
        {"run": {"dt": 1e-3, "t_final": 0.02, "output_every": None}},
        {"run": {"dt": 1e-3, "t_final": 0.02, "output_every": 2.5}},
        {"run": {"dt": 1e-3, "t_final": 0.02, "seed": [7]}},
        {"grid": {"dimension": 1, "n": "64", "length": 20.0}},
        {"initial_state": {"preset": "random-nodeless", "max_mode": None}},
        {"initial_state": {"preset": "plane-wave", "mode": [2]}},
        {"grid": 5},
        {"run": [1e-3, 0.02]},
        {"coefficients": [-0.5]},
        {"experiment": "gauge-check", "trials": None},
        {"experiment": "gauge-check", "gauge": 5},
        {"coefficients": {"nu1": -0.5, "nu2": 10 ** 400}},
        {"initial_state": {"preset": "plane-wave", "mode": 10 ** 30}},
        {"experiment": "mixprobe", "grid": {"dimension": 2, "n": 16, "length": 20.0},
         "initial_state": {"preset": "two-gaussian"}},
        {"experiment": "mixprobe", "initial_state": {"preset": "two-gaussian",
                                                     "width": 0.0}},
        {"experiment": "mixprobe", "initial_state": {"preset": "two-gaussian",
                                                     "width": -1.0}},
        {"initial_state": {"preset": "random-nodeless", "max_mode": -3}},
        {"initial_state": {"preset": "random-nodeless", "max_mode": 0}},
        {"experiment": "mixprobe"},  # the gaussian preset of the base config
        {"potential": {"type": "file", "path": "no-such-potential-file.txt"}},
        {"grid": {"dimension": 2, "n": 16, "length": 20.0},
         "initial_state": {"preset": "two-gaussian"}},
        {"initial_state": {"preset": "gaussian", "width": 0.0}},
        {"potential": {"type": "harmonic", "omega": 1e200}},  # omega^2 overflows
        {"run": {"dt": 1e-3, "t_final": 0.0105, "seed": 7}},  # 10.5 steps
        {"initial_state": {"preset": "random-nodeless", "log_amp": 1e300}},  # |psi| = 0
        {"initial_state": {"preset": "gaussian", "center": 1e6}},  # 0 on every point
    ])
    def test_malformed_field_is_one_config_error_line(self, tmp_path, capsys,
                                                      overrides):
        out_dir = tmp_path / "out"
        code = cli.run(write_config(tmp_path, base_evolve_config(**overrides)), out_dir)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("CONFIG_ERROR: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides,key", [
        ({"initial_state": {"preset": "gaussian", "widht": 0.1}}, "widht"),
        ({"experiment": "mixprobe", "initial_state": {"preset": "two-gaussian"},
          "potential": {"type": "none"}}, "potential"),
        ({"coefficent": {"nu1": -0.5}}, "coefficent"),
        ({"grid": {"dimension": 1, "n": 64, "length": 20.0, "N": 32}}, "N"),
        ({"run": {"dt": 1e-3, "t_final": 0.02, "output_evry": 5}}, "output_evry"),
        ({"coefficients": {"nu1": -0.5, "mu6": 0.1}}, "mu6"),
        ({"potential": {"type": "harmonic", "omgea": 0.5}}, "omgea"),
        ({"potential": {"type": "none", "omega": 0.5}}, "omega"),
        ({"experiment": "gauge-check", "coefficients": None, "initial_state": None,
          "potential": None, "gauge": {"gama": 0.5}}, "gama"),
        ({"experiment": "gauge-check", "coefficients": None, "initial_state": None,
          "potential": None, "angle": 0.5}, "angle"),
        ({"experiment": "separability",
          "initial_state_y": {"preset": "plane-wave", "width": 1.0}}, "width"),
    ])
    def test_unknown_key_is_one_config_error_line(self, tmp_path, capsys,
                                                   overrides, key):
        # an override of None drops that block of the base config
        cfg = {k: v for k, v in base_evolve_config(**overrides).items() if v is not None}
        out_dir = tmp_path / "out"
        code = cli.run(write_config(tmp_path, cfg), out_dir)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith(f"CONFIG_ERROR: unknown key '{key}'")
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", ["config", "potential", "out"])
    def test_unusable_path_is_one_config_error_line(self, tmp_path, capsys, bad):
        # the config path or a potential path is a directory, or --out lies
        # below a regular file
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        potential = {"type": "file", "path": str(tmp_path / "dir")}
        cfg = write_config(tmp_path, base_evolve_config(
            **({"potential": potential} if bad == "potential" else {})))
        config = tmp_path / "dir" if bad == "config" else cfg
        out_dir = tmp_path / "file" / "out" if bad == "out" else tmp_path / "out"
        before = tree(tmp_path)
        code = cli.run(config, out_dir)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("CONFIG_ERROR: ")
        assert tree(tmp_path) == before

    def test_manifest_config_holds_only_known_keys(self, tmp_path):
        # an emitted manifest, whose config holds both initial states and
        # every default, resolves to its own config
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, base_evolve_config(
            experiment="separability",
            initial_state_y={"preset": "plane-wave", "mode": 2})), out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert cli.resolve_config(manifest) == manifest["config"]

    def test_integer_literal_beyond_digit_limit(self, tmp_path, capsys):
        # json.loads refuses integer literals of more than 4300 digits with a
        # plain ValueError rather than a JSONDecodeError
        text = json.dumps(base_evolve_config()).replace('"seed": 7', '"seed": ' + "1" * 5000)
        path = tmp_path / "config.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        assert cli.run(path, out_dir) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("CONFIG_ERROR: ")
        assert not out_dir.exists()

    def test_integral_float_fields_accepted(self, tmp_path):
        cfg = base_evolve_config(
            run={"dt": 1e-3, "t_final": 0.02, "output_every": 10.0, "seed": 7.0})
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        run = json.loads((out_dir / "manifest.json").read_text())["config"]["run"]
        assert run["output_every"] == 10 and isinstance(run["output_every"], int)

    def test_unknown_experiment(self, tmp_path):
        cfg = base_evolve_config(experiment="fly-to-the-moon")
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 2

    def test_stability_bound_refused_without_flag(self, tmp_path, capsys):
        cfg = base_evolve_config(run={"dt": 0.5, "t_final": 1.0, "seed": 0})
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 2
        assert "stability" in capsys.readouterr().out


class TestNumericalFailure:
    def test_forced_unstable_run_exits_3(self, tmp_path, capsys):
        cfg = base_evolve_config(
            run={"dt": 0.5, "t_final": 5.0, "output_every": 1, "seed": 0})
        code = cli.run(write_config(tmp_path, cfg), tmp_path / "out", force_dt=True)
        assert code == 3
        assert "NUMERICAL_FAILURE" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()


def evolve_2d_config(n, frames):
    """A 2D CLI evolve with ``frames`` output frames, one per step."""
    return base_evolve_config(
        grid={"dimension": 2, "n": n, "length": 20.0},
        coefficients={"nu1": -0.5, "nu2": 0.05, "alpha1": 0.05},
        initial_state={"preset": "gaussian", "width": 2.0},
        run={"dt": 0.01, "t_final": 0.01 * (frames - 1), "output_every": 1})


def fail_at_step(monkeypatch, out_dir, step):
    """Make call ``step`` of ``step_rk4`` return NaN. The returned list gets
    the number of lines written to ``out_dir`` by then."""
    real, calls, lines = dynamics.step_rk4, [], []

    def stepper(c, psi, *args):
        calls.append(1)
        if len(calls) < step:
            return real(c, psi, *args)
        lines.append(sum(f.read_bytes().count(b"\n") for f in out_dir.glob("*")))
        return np.full_like(psi, np.nan)

    monkeypatch.setattr(dynamics, "step_rk4", stepper)
    return lines


def fail_in_manifest(monkeypatch):
    """Make the write of manifest.json fail as a full disk would."""
    def dump(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", dump)


def fail_on_close(monkeypatch):
    """Make the first close of every staged file fail, as a full disk would at
    its last flush; the file is closed all the same."""
    def staged_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        close = fh.close

        def failing_close():
            if not fh.closed:
                close()
                raise OSError(errno.ENOSPC, "No space left on device")

        fh.close = failing_close
        return fh

    monkeypatch.setattr(cli, "open", staged_open, raising=False)


class EvolveEntered(Exception):
    pass


class TestStreamedFrames:
    """The CLI writes each frame as the integrator produces it."""

    def test_same_bytes_as_the_collected_trajectory(self, tmp_path):
        # 72^2 points: two blocks per frame, the last one partial
        raw = evolve_2d_config(72, frames=4)
        assert cli.run(write_config(tmp_path, raw), tmp_path / "out") == 0
        build = cli._Inputs(cli.resolve_config(raw))
        grid = build.grid
        traj = dynamics.evolve(build("coefficients"), build("initial_state"), grid,
                               build.sim)
        assert len(traj.frames) == 4
        assert cli.FRAME_BLOCK_ROWS < grid.npoints < 2 * cli.FRAME_BLOCK_ROWS
        cli.write_frames_csv(tmp_path / "collected.csv", traj)
        assert ((tmp_path / "out" / "frames.csv").read_bytes()
                == (tmp_path / "collected.csv").read_bytes())
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == [
            "frames.csv", "manifest.json"]

    def test_peak_memory_does_not_grow_with_frames(self, tmp_path):
        def peak(frames):
            path = write_config(tmp_path, evolve_2d_config(64, frames), f"{frames}.json")
            tracemalloc.start()
            try:
                assert cli.run(path, tmp_path / str(frames)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first use: imports and caches
        frame_bytes = 64 * 64 * 16
        # streamed, the peaks differ by about 0.1 frame; collected, by 45
        assert abs(peak(50) - peak(5)) < 2 * frame_bytes

    def test_failed_run_removes_the_directories_it_made(self, tmp_path,
                                                        monkeypatch, capsys):
        out_dir = tmp_path / "new" / "out"
        lines = fail_at_step(monkeypatch, out_dir, 3)
        code = cli.run(write_config(tmp_path, evolve_2d_config(32, 10)), out_dir)
        assert code == 3
        assert "NUMERICAL_FAILURE" in capsys.readouterr().out
        assert lines[0] >= 1 + 2 * 32 * 32  # the header and two frames
        assert not (tmp_path / "new").exists()

    def test_failed_rerun_leaves_earlier_outputs(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, evolve_2d_config(32, 10))
        out_dir = tmp_path / "out"
        assert cli.run(cfg_path, out_dir) == 0
        # a series experiment, and a rerun of it whose outputs would differ
        series_dir = tmp_path / "series"
        series = base_evolve_config(experiment="convergence")
        assert cli.run(write_config(tmp_path, series, "s.json"), series_dir) == 0
        series["run"]["dt"] = 2e-3
        rerun = write_config(tmp_path, series, "rerun.json")
        before = tree(tmp_path)
        earlier_lines = sum(f.read_bytes().count(b"\n") for f in out_dir.iterdir())
        lines = fail_at_step(monkeypatch, out_dir, 3)
        assert cli.run(cfg_path, out_dir) == 3
        assert lines[0] > earlier_lines
        monkeypatch.undo()
        fail_in_manifest(monkeypatch)
        assert cli.run(rerun, series_dir) == 2
        assert tree(tmp_path) == before

    def test_directory_in_place_of_an_output_leaves_out_unchanged(self, tmp_path,
                                                                 capsys):
        # manifest.json, the second file to be renamed, cannot replace a
        # directory: series.csv must not be committed before that is found
        cfg = {"experiment": "gauge-check",
               "grid": {"dimension": 1, "n": 32, "length": 20.0}, "trials": 3,
               "run": {"dt": 1e-3, "t_final": 1.0}}
        cfg_path = write_config(tmp_path, cfg)
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        before = tree(tmp_path)
        assert cli.run(cfg_path, tmp_path / "out") == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("CONFIG_ERROR: ")
        assert not (tmp_path / "out" / "series.csv").exists()
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("experiment", ["evolve", "equivalence"])
    @pytest.mark.parametrize("fail", [fail_in_manifest, fail_on_close],
                             ids=["manifest", "close"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, capsys,
                                         experiment, fail):
        cfg = base_evolve_config(experiment=experiment)
        if experiment == "equivalence":
            cfg.update(gauge={"gamma": 0.5, "lambda": 1.3},
                       initial_state={"preset": "random-nodeless"})
        cfg_path = write_config(tmp_path, cfg)
        before = tree(tmp_path)
        fail(monkeypatch)
        assert cli.run(cfg_path, tmp_path / "new" / "out") == 2
        assert capsys.readouterr().out.startswith("CONFIG_ERROR: ")
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("experiment", ["evolve", "convergence"])
    def test_evolutions_enter_through_dynamics_evolve(self, tmp_path, monkeypatch,
                                                      experiment):
        out_dir = tmp_path / "out"

        def stop(*args, **kwargs):
            assert not out_dir.exists()
            raise EvolveEntered

        original = dynamics.evolve
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "nlgauge":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, stop)
        cfg = base_evolve_config(experiment=experiment)
        with pytest.raises(EvolveEntered):
            cli.run(write_config(tmp_path, cfg), out_dir)
        assert not out_dir.exists()


def cpus(monkeypatch, n):
    """Make the CLI see ``n`` CPUs that the process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def run_joined(cfg_path, out_dir):
    """``cli.run``, whose threads must have ended when its stage commits or
    discards, and so when it returns."""
    before, count = set(threading.enumerate()), threading.active_count()
    real, at_stage_end = cli._Stage.__exit__, []

    def stage_exit(self, *args):
        at_stage_end.append(set(threading.enumerate()) - before)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli._Stage, "__exit__", stage_exit)
        code = cli.run(cfg_path, out_dir)
    assert at_stage_end == [set()]
    assert threading.active_count() == count
    return code


def on_text(monkeypatch, hook):
    """Call ``hook(thread, n)`` before call ``n`` (from 0) of ``_fmt17.text``,
    which formats one block of frames.csv; the list returned gets the rows of
    each block."""
    real, rows = _fmt17.text, []

    def text(values):
        rows.append(len(values))
        hook(threading.current_thread(), len(rows) - 1)
        return real(values)

    monkeypatch.setattr(_fmt17, "text", text)
    return rows


class TestFramesWriterThread:
    """A frame of more than one block is written on the writer thread while
    the next steps run, unless the process may run on one CPU only."""

    # 72^2 points: two blocks per frame, threaded or inline, the last one partial
    BLOCKS = 2

    @pytest.fixture
    def cfg_path(self, tmp_path):
        for rows in (cli.WRITER_BLOCK_ROWS, cli.FRAME_BLOCK_ROWS):
            assert (self.BLOCKS - 1) * rows < 72 * 72 < self.BLOCKS * rows
        return write_config(tmp_path, evolve_2d_config(72, frames=4))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_threaded_matches_reference(self, tmp_path, monkeypatch):
        traj = awkward_trajectory(2, 72, seed=2)
        threads = []
        rows = on_text(monkeypatch, lambda thread, n: threads.append(thread))
        cpus(monkeypatch, 2)
        cli.write_frames_csv(tmp_path / "frames.csv", traj)
        assert rows == [cli.WRITER_BLOCK_ROWS, 72 * 72 - cli.WRITER_BLOCK_ROWS] * 3
        assert threading.main_thread() not in threads
        assert (tmp_path / "frames.csv").read_bytes() == reference_frames_csv(traj)

    def test_threaded_and_inline_give_the_same_bytes(self, tmp_path, monkeypatch,
                                                     cfg_path):
        threads = []
        on_text(monkeypatch, lambda thread, n: threads.append(thread))
        cpus(monkeypatch, 2)
        assert run_joined(cfg_path, tmp_path / "threaded") == 0
        assert len(threads) == 4 * self.BLOCKS
        assert threading.main_thread() not in threads
        threads.clear()
        cpus(monkeypatch, 1)
        assert run_joined(cfg_path, tmp_path / "inline") == 0
        assert threads == [threading.main_thread()] * 4 * self.BLOCKS
        assert tree(tmp_path / "threaded") == tree(tmp_path / "inline")

    @pytest.mark.parametrize("frame", [3, 4], ids=["frame3", "last"])
    def test_writer_error_is_one_config_error_line(self, tmp_path, monkeypatch,
                                                   capsys, cfg_path, frame):
        # the error of the last frame is met only when the writer is joined
        out_dir = tmp_path / "out"
        assert cli.run(cfg_path, out_dir) == 0
        before = tree(tmp_path)
        capsys.readouterr()
        raised_on = []

        def full_disk(thread, n):
            if n == (frame - 1) * self.BLOCKS:
                raised_on.append(thread)
                raise OSError(errno.ENOSPC, "No space left on device")

        on_text(monkeypatch, full_disk)
        cpus(monkeypatch, 2)
        assert run_joined(cfg_path, out_dir) == 2
        assert capsys.readouterr().out.splitlines() == [
            "CONFIG_ERROR: [Errno 28] No space left on device"]
        assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("writer_fails", [False, True], ids=["", "writer-fails"])
    def test_failed_step_with_a_frame_in_flight_leaves_nothing(
            self, tmp_path, monkeypatch, capsys, cfg_path, writer_fails):
        # the writer of frame 2 waits at its first block until step 3 has
        # failed; an error it then meets does not replace the step's
        entered, release, in_flight = threading.Event(), threading.Event(), []

        def hold(thread, n):
            if n == 2 * self.BLOCKS and thread is not threading.main_thread():
                entered.set()
                release.wait(timeout=5)
                if writer_fails:
                    raise OSError(errno.ENOSPC, "No space left on device")

        real, calls = dynamics.step_rk4, []

        def stepper(c, psi, *args):
            calls.append(1)
            if len(calls) < 3:
                return real(c, psi, *args)
            in_flight.append(entered.wait(timeout=5) and not release.is_set())
            release.set()
            return np.full_like(psi, np.nan)

        on_text(monkeypatch, hold)
        monkeypatch.setattr(dynamics, "step_rk4", stepper)
        cpus(monkeypatch, 2)
        out_dir = tmp_path / "new" / "out"
        assert run_joined(cfg_path, out_dir) == 3
        assert capsys.readouterr().out.startswith("NUMERICAL_FAILURE: ")
        assert in_flight == [True]
        assert not (tmp_path / "new").exists()

    def test_at_most_one_frame_in_flight(self, tmp_path, monkeypatch):
        # a frame is in flight from its hand-over until its text is written;
        # writing is made slower than the steps, so that a writer that let
        # frames queue up would show more than one
        lock, flight = threading.Lock(), {"now": 0, "max": 0, "frames": 0}
        real_call, real_write = cli._FramesWriter.__call__, cli._FramesWriter._write

        def call(self, t, frame):
            with lock:
                flight["now"] += 1
            real_call(self, t, frame)
            with lock:
                flight["max"] = max(flight["max"], flight["now"])

        def write(self, t, frame):
            time.sleep(0.02)
            real_write(self, t, frame)
            with lock:
                flight["now"] -= 1
                flight["frames"] += 1

        monkeypatch.setattr(cli._FramesWriter, "__call__", call)
        monkeypatch.setattr(cli._FramesWriter, "_write", write)
        cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cfg_path = write_config(tmp_path, evolve_2d_config(72, frames=12))
            assert run_joined(cfg_path, tmp_path / "out") == 0
        finally:
            sys.setswitchinterval(interval)
        assert flight == {"now": 0, "max": 1, "frames": 12}


class TestGaugeCheck:
    def test_deviations_at_machine_level(self, tmp_path):
        cfg = {
            "experiment": "gauge-check",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "trials": 25,
            "run": {"dt": 1e-3, "t_final": 1.0, "seed": 42},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        lines = (out_dir / "series.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 25
        assert max(values) <= 1e-12
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["diagnostics"]["max_density_deviation_rel"] <= 1e-12


class TestEquivalenceExperiment:
    def test_run_reports_order(self, tmp_path):
        cfg = {
            "experiment": "equivalence",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5, "nu2": 0.05, "mu1": 0.1},
            "gauge": {"gamma": 0.5, "lambda": 1.3},
            "initial_state": {"preset": "random-nodeless", "max_mode": 2,
                              "log_amp": 0.5, "phase_amp": 0.3},
            "run": {"dt": 0.01, "t_final": 0.1, "output_every": 5, "seed": 3},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        diag = manifest["diagnostics"]
        assert diag["refinement_order"] > 1.5
        assert diag["pushed_coefficients"]["nu2"] != 0.05
        lines = (out_dir / "series.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        assert float(lines[1].split(",")[1]) <= 1e-12  # residual at t = 0

    def test_nonzero_theta_rejected(self, tmp_path):
        cfg = {
            "experiment": "equivalence",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "gauge": {"gamma": 0.5, "lambda": 1.3, "theta_const": 0.4},
            "initial_state": {"preset": "gaussian", "width": 2.0},
            "run": {"dt": 0.01, "t_final": 0.1, "seed": 0},
        }
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 2


class TestMixprobe:
    def test_linear_run(self, tmp_path):
        cfg = {
            "experiment": "mixprobe",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "initial_state": {"preset": "two-gaussian"},
            "angle": 0.785,
            "run": {"dt": 1e-3, "t_final": 0.02, "output_every": 10, "seed": 0},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["diagnostics"]["divergence_max"] < 1e-9

    def test_degenerate_pair_exits_4(self, tmp_path, capsys):
        cfg = {
            "experiment": "mixprobe",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "initial_state": {"preset": "two-gaussian", "separation": 1e-9},
            "run": {"dt": 1e-3, "t_final": 0.02, "seed": 0},
        }
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 4
        assert "INVARIANT_VIOLATION" in capsys.readouterr().out

    def test_pair_that_underflows_exits_4(self, tmp_path, capsys):
        # both packets are 0 on every grid point: no pair, as for a degenerate one
        cfg = {
            "experiment": "mixprobe",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "initial_state": {"preset": "two-gaussian", "separation": 1e6},
            "run": {"dt": 1e-3, "t_final": 0.02, "seed": 0},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 4
        assert capsys.readouterr().out.splitlines() == [
            "INVARIANT_VIOLATION: cannot normalize a state of norm 0.0"]
        assert not out_dir.exists()


class TestSeparabilityExperiment:
    def test_small_run(self, tmp_path):
        cfg = {
            "experiment": "separability",
            "grid": {"dimension": 1, "n": 32, "length": 20.0},
            "coefficients": {"nu1": -0.5, "nu2": 0.05, "alpha1": 0.05},
            "initial_state": {"preset": "random-nodeless", "max_mode": 2,
                              "log_amp": 0.5, "phase_amp": 0.2},
            "run": {"dt": 5e-3, "t_final": 0.05, "output_every": 5, "seed": 11},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["diagnostics"]["residual_sup"] < 1e-6

    def test_states_are_the_first_two_draws_of_the_seeded_generator(
            self, tmp_path, monkeypatch):
        # one generator per run, drawn from in the order the blocks are built
        cfg = {
            "experiment": "separability",
            "grid": {"dimension": 1, "n": 32, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "initial_state": {"preset": "random-nodeless", "max_mode": 2},
            "initial_state_y": {"preset": "random-nodeless", "max_mode": 3,
                                "log_amp": 0.3},
            "run": {"dt": 5e-3, "t_final": 0.01, "seed": 11},
        }
        seen = []
        original = cli.separability_residual

        def record(c, psi_x, psi_y, *args):
            seen.extend([psi_x, psi_y])
            return original(c, psi_x, psi_y, *args)

        monkeypatch.setattr(cli, "separability_residual", record)
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 0
        grid = make_grid(1, 32, 20.0)
        rng = np.random.default_rng(11)
        first = states.random_nodeless_field(grid, rng, max_mode=2)
        second = states.random_nodeless_field(grid, rng, max_mode=3, log_amp=0.3)
        expected = [states.normalized(psi, grid) for psi in (first, second)]
        assert len(seen) == 2
        for got, want in zip(seen, expected):
            assert got.tobytes() == want.tobytes()

    def test_requires_1d_grid(self, tmp_path):
        cfg = {
            "experiment": "separability",
            "grid": {"dimension": 2, "n": 32, "length": 20.0},
            "coefficients": {"nu1": -0.5},
            "initial_state": {"preset": "gaussian"},
            "run": {"dt": 5e-3, "t_final": 0.05, "seed": 0},
        }
        assert cli.run(write_config(tmp_path, cfg), tmp_path / "out") == 2


class TestConvergenceExperiment:
    def test_reports_rk4_order(self, tmp_path):
        cfg = {
            "experiment": "convergence",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5, "nu2": 0.05, "mu1": 0.1, "alpha1": 0.1},
            "initial_state": {"preset": "random-nodeless", "max_mode": 2,
                              "log_amp": 0.6, "phase_amp": 0.4},
            "run": {"dt": 0.02, "t_final": 0.2, "seed": 5},
        }
        out_dir = tmp_path / "out"
        assert cli.run(write_config(tmp_path, cfg), out_dir) == 0
        lines = (out_dir / "series.csv").read_text().splitlines()
        assert lines[0] == "dt,error,observed_order"
        assert len(lines) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert 3.0 < manifest["diagnostics"]["observed_order"] < 5.0


def fresh_interpreter(*args):
    """The output of a new interpreter run with ``args``; the package comes
    from this checkout, also when it is not installed."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, *map(str, args)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_console_entry_point():
    # module execution must behave like the installed script
    assert "gaussian(center" in fresh_interpreter("-m", "nlgauge.cli", "presets")


def modules_added_by_importing_the_cli(pre_import):
    """Modules beyond nlgauge and the standard library that ``import
    nlgauge.cli`` adds in a new interpreter that imported ``pre_import``."""
    code = (f"import sys, {pre_import}; before = set(sys.modules); "
            "import nlgauge.cli; "
            "print(sorted(m for m in set(sys.modules) - before if "
            "m.partition('.')[0] not in sys.stdlib_module_names | {'nlgauge'}))")
    return fresh_interpreter("-c", code).strip()


def test_import_loads_nothing_beyond_numpy():
    # numpy is the only runtime dependency: on top of numpy (and numpy.random
    # with its Cython runtime) importing the CLI adds only nlgauge modules
    # and standard-library ones
    assert modules_added_by_importing_the_cli("numpy.random") == "[]"


def test_import_loads_no_numpy_random():
    # on top of a plain numpy, not numpy.random either: only a run that draws
    # loads it
    assert modules_added_by_importing_the_cli("numpy") == "[]"


@pytest.mark.parametrize("preset, draws", [("gaussian", False),
                                           ("random-nodeless", True)])
def test_numpy_random_is_loaded_only_by_a_run_that_draws(tmp_path, preset, draws):
    cfg = write_config(tmp_path, base_evolve_config(initial_state={"preset": preset}))
    code = ("import sys; from nlgauge import cli; "
            "status = cli.main(['run', sys.argv[1], '--out', sys.argv[2]]); "
            "print(status, 'numpy.random' in sys.modules)")
    out = fresh_interpreter("-c", code, cfg, tmp_path / "out").splitlines()
    assert out[-1] == f"0 {draws}"
