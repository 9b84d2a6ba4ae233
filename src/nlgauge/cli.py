"""Batch front-end: one JSON experiment config in, CSV series/frames and a
manifest out.

Usage:
    nlgauge run <config.json> --out <dir> [--force-dt]
    nlgauge presets

Exit status: 0 success, 2 config error, 3 numerical failure (NaN/blow-up),
4 invariant violation (e.g. the same-kernel precondition of mixprobe).
Every failure prints a single machine-parsable line ``<CATEGORY>: <reason>``.

The manifest echoes the fully resolved config (all defaults filled in), so
re-running ``nlgauge run manifest.json`` reproduces the outputs byte for byte.
Floats are printed with 17 significant digits; the only randomness is the
seeded field generator of the gauge-check experiment. ``frames.csv`` is
written in blocks of ``FRAME_BLOCK_ROWS`` rows, each formatted by one C-level
``%`` operation; its bytes are pinned by a test against a naive per-value
writer, not only by rerun determinism.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (NLSECoefficients, NumericalBlowupError, SimulationConfig,
                       Trajectory, evolve)
from .ensembles import (InvariantViolation, equivalent_decompositions,
                        mixed_divergence, separability_residual)
from .equivalence import commuting_residual, push_forward_family
from .functionals import RegularizationPolicy, density
from .gauge import GaugeTransform, apply_gauge
from .grid import GridSpec, l2_norm, make_grid
from . import states


class ConfigError(ValueError):
    pass


EXPERIMENTS = ("evolve", "gauge-check", "equivalence", "mixprobe",
               "separability", "convergence")

PRESET_DOC = {
    "initial states": [
        "gaussian(center=L/2, width=L/40, momentum=0.0)"
        "  - normalized packet exp(-(x-c)^2/(4w^2) + i k (x-c));"
        " on the periodic box pick momentum a multiple of 2*pi/L",
        "plane-wave(mode=1)  - exp(i 2 pi mode x / L) / sqrt(L)",
        "random-nodeless(max_mode=4, log_amp=0.4, phase_amp=0.4)"
        "  - seeded band-limited exp(u+is), strictly nodeless, zero winding",
        "two-gaussian(separation=L/4, width=L/32)"
        "  - orthonormalized displaced pair; mixprobe rotates it by 'angle'",
    ],
    "potentials": [
        "file(path)  - one V value per line, grid layout (row-major in 2D)",
        "harmonic(omega=1.0, center=L/2)  - (omega^2/2) |x - c|^2",
        "none  - free evolution",
    ],
}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def list_presets() -> str:
    lines = []
    for section in sorted(PRESET_DOC):
        lines.append(f"{section}:")
        for entry in sorted(PRESET_DOC[section]):
            lines.append(f"  {entry}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- config ----

def _object(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    return block


def _require(block: dict, key: str, where: str):
    if key not in _object(block, where):
        raise ConfigError(f"missing '{key}' in {where}")
    return block[key]


def _finite_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


COEFF_KEYS = ("nu1", "nu2", "mu0", "mu1", "mu2", "mu3", "mu4", "mu5",
              "alpha1", "alpha2")


def resolve_config(raw: dict) -> dict:
    """Validate and fill defaults; returns the fully resolved config dict."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if isinstance(raw.get("config"), dict):
        raw = raw["config"]  # accept an emitted manifest as a config
    exp = _require(raw, "experiment", "config")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; expected one of {EXPERIMENTS}")

    gblock = _require(raw, "grid", "config")
    dim = _integer(_require(gblock, "dimension", "grid block"), "grid.dimension")
    n = _integer(_require(gblock, "n", "grid block"), "grid.n")
    length = _finite_number(_require(gblock, "length", "grid block"), "grid.length")
    if exp == "separability" and dim != 1:
        raise ConfigError("separability uses grid.dimension = 1 (the factor grid)")
    try:
        make_grid(dim, n, length)
    except ValueError as err:
        raise ConfigError(f"grid block: {err}") from None

    rblock = _require(raw, "run", "config")
    run = {
        "dt": _finite_number(_require(rblock, "dt", "run block"), "run.dt"),
        "t_final": _finite_number(_require(rblock, "t_final", "run block"), "run.t_final"),
        "output_every": _integer(rblock.get("output_every", 1), "run.output_every"),
        "rho_floor_rel": _finite_number(rblock.get("rho_floor_rel", 1e-12),
                                        "run.rho_floor_rel"),
        "seed": _integer(rblock.get("seed", 0), "run.seed"),
    }
    if run["dt"] <= 0 or run["t_final"] <= 0:
        raise ConfigError("run.dt and run.t_final must be positive")
    if run["output_every"] < 1:
        raise ConfigError("run.output_every must be >= 1")

    out = {
        "experiment": exp,
        "grid": {"dimension": dim, "n": n, "length": length},
        "run": run,
    }

    needs_coeffs = exp in ("evolve", "equivalence", "mixprobe", "separability",
                           "convergence")
    if needs_coeffs:
        cblock = _object(_require(raw, "coefficients", f"config for {exp}"),
                         "coefficients block")
        out["coefficients"] = {
            k: _finite_number(cblock.get(k, 0.0), f"coefficients.{k}")
            for k in COEFF_KEYS
        }

    if exp in ("equivalence",) or (exp == "gauge-check" and "gauge" in raw):
        blk = _object(raw["gauge"] if exp == "gauge-check" else
                      _require(raw, "gauge", f"config for {exp}"), "gauge block")
        gauge = {
            "gamma": _finite_number(blk.get("gamma", 0.0), "gauge.gamma"),
            "lambda": _finite_number(blk.get("lambda", 1.0), "gauge.lambda"),
            "theta_const": _finite_number(blk.get("theta_const", 0.0),
                                          "gauge.theta_const"),
        }
        if gauge["lambda"] == 0.0:
            raise ConfigError("gauge.lambda must be nonzero")
        if exp == "equivalence" and gauge["theta_const"] != 0.0:
            raise ConfigError("equivalence requires theta_const = 0")
        out["gauge"] = gauge

    needs_state = exp in ("evolve", "equivalence", "mixprobe", "separability",
                          "convergence")
    if needs_state:
        out["initial_state"] = _resolve_state_block(
            _require(raw, "initial_state", f"config for {exp}"), exp, length)
        if exp == "separability":
            out["initial_state_y"] = _resolve_state_block(
                raw.get("initial_state_y", out["initial_state"]), exp, length)
    if exp == "gauge-check":
        out["trials"] = _integer(raw.get("trials", 100), "trials")
        if out["trials"] < 1:
            raise ConfigError("trials must be >= 1")

    if exp in ("evolve", "equivalence", "convergence"):
        out["potential"] = _resolve_potential_block(raw.get("potential"), length)
    if exp == "separability":
        out["potential"] = _resolve_potential_block(raw.get("potential"), length)
        out["potential_y"] = _resolve_potential_block(raw.get("potential_y"), length)
    if exp == "mixprobe":
        out["angle"] = _finite_number(raw.get("angle", np.pi / 4), "angle")

    return out


def _resolve_state_block(block, exp: str, length: float) -> dict:
    if not isinstance(block, dict):
        raise ConfigError("initial_state must be an object with a 'preset' key")
    preset = _require(block, "preset", "initial_state block")
    if preset == "gaussian":
        return {
            "preset": "gaussian",
            "center": _finite_number(block.get("center", length / 2),
                                     "initial_state.center"),
            "width": _finite_number(block.get("width", length / 40),
                                    "initial_state.width"),
            "momentum": _finite_number(block.get("momentum", 0.0),
                                       "initial_state.momentum"),
        }
    if preset == "plane-wave":
        return {"preset": "plane-wave",
                "mode": _integer(block.get("mode", 1), "initial_state.mode")}
    if preset == "random-nodeless":
        return {
            "preset": "random-nodeless",
            "max_mode": _integer(block.get("max_mode", 4), "initial_state.max_mode"),
            "log_amp": _finite_number(block.get("log_amp", 0.4),
                                      "initial_state.log_amp"),
            "phase_amp": _finite_number(block.get("phase_amp", 0.4),
                                        "initial_state.phase_amp"),
        }
    if preset == "two-gaussian":
        if exp not in ("mixprobe", "evolve"):
            raise ConfigError(f"two-gaussian preset is not valid for {exp}")
        return {
            "preset": "two-gaussian",
            "separation": _finite_number(block.get("separation", length / 4),
                                         "initial_state.separation"),
            "width": _finite_number(block.get("width", length / 32),
                                    "initial_state.width"),
        }
    raise ConfigError(f"unknown initial-state preset {preset!r}")


def _resolve_potential_block(block, length: float) -> dict:
    if block is None:
        return {"type": "none"}
    if not isinstance(block, dict):
        raise ConfigError("potential must be an object with a 'type' key")
    ptype = _require(block, "type", "potential block")
    if ptype == "none":
        return {"type": "none"}
    if ptype == "harmonic":
        return {
            "type": "harmonic",
            "omega": _finite_number(block.get("omega", 1.0), "potential.omega"),
            "center": _finite_number(block.get("center", length / 2),
                                     "potential.center"),
        }
    if ptype == "file":
        return {"type": "file", "path": str(_require(block, "path", "potential block"))}
    raise ConfigError(f"unknown potential type {ptype!r}")


# ----------------------------------------------------------------- build ----

def _build_grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return make_grid(g["dimension"], g["n"], g["length"])


def _build_coefficients(cfg: dict) -> NLSECoefficients:
    return NLSECoefficients(**cfg["coefficients"])


def _build_sim_config(cfg: dict, force_dt: bool) -> SimulationConfig:
    run = cfg["run"]
    return SimulationConfig(
        dt=run["dt"], t_final=run["t_final"], output_every=run["output_every"],
        policy=RegularizationPolicy(rho_floor_rel=run["rho_floor_rel"]),
        force_dt=force_dt)


def _build_state(block: dict, grid: GridSpec, rng: np.random.Generator):
    preset = block["preset"]
    if preset == "gaussian":
        return states.gaussian(grid, center=block["center"], width=block["width"],
                               momentum=block["momentum"])
    if preset == "plane-wave":
        return states.plane_wave(grid, mode=block["mode"])
    if preset == "random-nodeless":
        psi = states.random_nodeless_field(grid, rng, max_mode=block["max_mode"],
                                           log_amp=block["log_amp"],
                                           phase_amp=block["phase_amp"])
        return psi / l2_norm(psi, grid)
    if preset == "two-gaussian":
        psi_a, psi_b = states.two_gaussian_pair(grid, separation=block["separation"],
                                                width=block["width"])
        return (psi_a + psi_b) / l2_norm(psi_a + psi_b, grid)
    raise ConfigError(f"unknown preset {preset!r}")


def _build_potential(block: dict, grid: GridSpec):
    if block["type"] == "none":
        return None
    if block["type"] == "harmonic":
        return states.harmonic_potential(grid, omega=block["omega"],
                                         center=block["center"])
    path = Path(block["path"])
    if not path.exists():
        raise ConfigError(f"potential file not found: {path}")
    try:
        values = np.loadtxt(path, dtype=float)
    except ValueError as err:
        raise ConfigError(f"potential file {path}: {err}") from None
    values = values.reshape(grid.shape) if values.size == grid.npoints else values
    if values.shape != grid.shape:
        raise ConfigError(
            f"potential file has {values.size} values, grid needs {grid.npoints}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"potential file {path} contains non-finite values")
    return values


# ------------------------------------------------------------------- CSV ----

def write_series_csv(path: Path, rows, header=("t", "value")) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("nan" if v is None else _fmt(v) for v in row) + "\n")


# Rows of frames.csv formatted by one ``%`` operation. A block rather than a
# whole frame bounds the temporaries of one write by the block size, not the
# grid size, so writing does not raise the peak memory the evolution set.
FRAME_BLOCK_ROWS = 4096


def write_frames_csv(path: Path, traj: Trajectory) -> None:
    """One row per grid point and frame, row-major in 2D.

    ``"%.17g" % v`` and ``_fmt(v)`` give the same text for every double, so
    the bytes are those of a per-value writer; the per-value work runs in C.
    """
    grid = traj.grid
    axis = np.array([_fmt(v) for v in grid.axis_coordinate()], dtype=object)
    row = "%s," * (1 + grid.dimension) + "%.17g,%.17g,%.17g\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *"xy"[:grid.dimension], "re", "im", "rho"]) + "\n")
        for t, frame in zip(traj.times, traj.frames):
            t_text = _fmt(t)
            flat = frame.reshape(-1)
            for start in range(0, grid.npoints, FRAME_BLOCK_ROWS):
                part = flat[start:start + FRAME_BLOCK_ROWS]
                index = np.unravel_index(np.arange(start, start + part.size), grid.shape)
                block = np.empty((part.size, grid.dimension + 4), dtype=object)
                block[:, 0] = t_text
                block[:, 1:-3] = axis[np.column_stack(index)]
                block[:, -3] = part.real
                block[:, -2] = part.imag
                block[:, -1] = density(part)
                fh.write(row * part.size % tuple(block.ravel().tolist()))


# ----------------------------------------------------------- experiments ----

def _run_evolve(cfg, grid, sim, out_dir):
    rng = np.random.default_rng(cfg["run"]["seed"])
    psi0 = _build_state(cfg["initial_state"], grid, rng)
    V = _build_potential(cfg["potential"], grid)
    traj = evolve(_build_coefficients(cfg), psi0, grid, sim, V)
    write_frames_csv(out_dir / "frames.csv", traj)
    return ["frames.csv"], {
        "norm_drift": traj.norm_drift,
        "regularized_fraction": float(traj.regularized_fractions.max()),
        "frames": len(traj),
    }


def _run_gauge_check(cfg, grid, sim, out_dir):
    rng = np.random.default_rng(cfg["run"]["seed"])
    fixed = cfg.get("gauge")
    rows = []
    worst = 0.0
    for trial in range(cfg["trials"]):
        psi = states.random_nodeless_field(grid, rng)
        if fixed is not None:
            g = GaugeTransform(fixed["gamma"], fixed["lambda"], fixed["theta_const"])
        else:
            g = GaugeTransform(gamma=rng.uniform(-5.0, 5.0),
                               lam=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1),
                               theta=rng.uniform(-0.5, 0.5))
        rho = density(psi)
        dev = float(np.max(np.abs(density(apply_gauge(g, psi, sim.policy)) - rho)))
        rel = dev / float(rho.max())
        rows.append((float(trial), rel))
        worst = max(worst, rel)
    write_series_csv(out_dir / "series.csv", rows, header=("t", "value"))
    return ["series.csv"], {"max_density_deviation_rel": worst,
                            "trials": cfg["trials"]}


def _run_equivalence(cfg, grid, sim, out_dir):
    rng = np.random.default_rng(cfg["run"]["seed"])
    psi0 = _build_state(cfg["initial_state"], grid, rng)
    V = _build_potential(cfg["potential"], grid)
    g = GaugeTransform(cfg["gauge"]["gamma"], cfg["gauge"]["lambda"], 0.0)
    c = _build_coefficients(cfg)
    report = commuting_residual(g, c, psi0, grid, sim, V)
    write_series_csv(out_dir / "series.csv", report.residual_series)
    return ["series.csv"], {
        "residual_sup": report.residual_sup,
        "residual_sup_fine": report.residual_sup_fine,
        "refinement_order": report.refinement_order,
        "regularized_fraction": report.regularized_fraction,
        "pushed_coefficients": dict(zip(COEFF_KEYS,
                                        map(float, push_forward_family(g, c).as_array()))),
    }


def _run_mixprobe(cfg, grid, sim, out_dir):
    blk = cfg["initial_state"]
    if blk["preset"] != "two-gaussian":
        raise ConfigError("mixprobe requires the two-gaussian preset")
    try:
        psi_a, psi_b = states.two_gaussian_pair(grid, separation=blk["separation"],
                                                width=blk["width"])
    except ValueError as err:
        raise InvariantViolation(str(err)) from None
    dec_a, dec_b = equivalent_decompositions(psi_a, psi_b, cfg["angle"], grid)
    series = mixed_divergence(_build_coefficients(cfg), dec_a, dec_b, sim)
    write_series_csv(out_dir / "series.csv", series)
    values = [v for _, v in series]
    return ["series.csv"], {"divergence_max": max(values),
                            "divergence_final": values[-1]}


def _run_separability(cfg, grid, sim, out_dir):
    rng = np.random.default_rng(cfg["run"]["seed"])
    psi1 = _build_state(cfg["initial_state"], grid, rng)
    psi2 = _build_state(cfg["initial_state_y"], grid, rng)
    v1 = _build_potential(cfg["potential"], grid)
    v2 = _build_potential(cfg["potential_y"], grid)
    series, traj2d, _, _ = separability_residual(
        _build_coefficients(cfg), psi1, psi2, grid, sim, v1, v2)
    write_series_csv(out_dir / "series.csv", series)
    return ["series.csv"], {
        "residual_sup": max(v for _, v in series),
        "norm_drift_2d": traj2d.norm_drift,
        "regularized_fraction": float(traj2d.regularized_fractions.max()),
    }


def _run_convergence(cfg, grid, sim, out_dir):
    rng = np.random.default_rng(cfg["run"]["seed"])
    psi0 = _build_state(cfg["initial_state"], grid, rng)
    V = _build_potential(cfg["potential"], grid)
    c = _build_coefficients(cfg)
    finals = []
    for level in range(3):
        finals.append(evolve(c, psi0, grid, sim.refined(2 ** level), V).final())
    errors = [l2_norm(finals[i] - finals[i + 1], grid) for i in range(2)]
    rows = [(sim.dt, errors[0], None)]
    order = float(np.log2(errors[0] / errors[1])) if errors[1] > 0 else float("inf")
    rows.append((sim.dt / 2, errors[1], order))
    write_series_csv(out_dir / "series.csv", rows,
                     header=("dt", "error", "observed_order"))
    return ["series.csv"], {"observed_order": order, "errors": errors}


RUNNERS = {
    "evolve": _run_evolve,
    "gauge-check": _run_gauge_check,
    "equivalence": _run_equivalence,
    "mixprobe": _run_mixprobe,
    "separability": _run_separability,
    "convergence": _run_convergence,
}


# ------------------------------------------------------------------ entry ---

def run(config_path, out_dir, force_dt: bool = False) -> int:
    """Execute one experiment config; returns the process exit status."""
    try:
        raw = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        print(f"CONFIG_ERROR: config file not found: {config_path}")
        return 2
    except json.JSONDecodeError as err:
        print(f"CONFIG_ERROR: invalid JSON: {err}")
        return 2
    try:
        cfg = resolve_config(raw)
        grid = _build_grid(cfg)
        sim = _build_sim_config(cfg, force_dt)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files, diagnostics = RUNNERS[cfg["experiment"]](cfg, grid, sim, out)
    except ConfigError as err:
        print(f"CONFIG_ERROR: {err}")
        return 2
    except InvariantViolation as err:
        print(f"INVARIANT_VIOLATION: {err}")
        return 4
    except NumericalBlowupError as err:
        print(f"NUMERICAL_FAILURE: {err}")
        return 3
    except ValueError as err:
        # stability bound, normalization, and similar precondition failures
        print(f"CONFIG_ERROR: {err}")
        return 2
    manifest = {
        "tool": "nlgauge",
        "version": __version__,
        "experiment": cfg["experiment"],
        "config": cfg,
        "grid": {"dimension": grid.dimension, "n": grid.n,
                 "length": grid.length, "dx": grid.dx},
        "outputs": files,
        "diagnostics": diagnostics,
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    print(f"OK: {cfg['experiment']} -> {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlgauge",
        description="gauge-family nonlinear Schrodinger experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--force-dt", action="store_true",
                       help="override the stability bound on dt")
    sub.add_parser("presets", help="list initial-state and potential presets")
    args = parser.parse_args(argv)
    if args.command == "presets":
        sys.stdout.write(list_presets())
        return 0
    return run(args.config, args.out, force_dt=args.force_dt)


if __name__ == "__main__":
    sys.exit(main())
