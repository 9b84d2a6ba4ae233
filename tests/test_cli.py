import json
import subprocess
import sys

import numpy as np
import pytest

from nlgauge import cli
from nlgauge.dynamics import Trajectory
from nlgauge.functionals import density
from nlgauge.grid import make_grid


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
        assert cli.list_presets() == cli.list_presets()


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
    ])
    def test_malformed_field_is_one_config_error_line(self, tmp_path, capsys,
                                                      overrides):
        out_dir = tmp_path / "out"
        code = cli.run(write_config(tmp_path, base_evolve_config(**overrides)), out_dir)
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
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


def test_console_entry_point(tmp_path):
    # module execution must behave like the installed script
    result = subprocess.run([sys.executable, "-m", "nlgauge.cli", "presets"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "gaussian(center" in result.stdout
