"""Batch front-end: one JSON experiment config in, CSV series/frames and a
manifest out.

Usage:
    nlgauge run <config.json> --out <dir> [--force-dt]
    nlgauge presets

Exit status: 0 success, 2 config error, 3 numerical failure (NaN/blow-up),
4 invariant violation (e.g. the same-kernel precondition of mixprobe).
Every failure prints a single machine-parsable line ``<CATEGORY>: <reason>``
and writes nothing: the output directory is made with the first file.

Config handling is table-driven: the rows of each block, preset, potential
and experiment validate a config, fill its defaults, list the ``presets`` and
pick the builders. A key that no row names, in a block or at the root, is a
config error. The manifest echoes the fully resolved config (all
defaults filled in), so re-running ``nlgauge run manifest.json`` reproduces
the outputs byte for byte. Floats are printed with 17 significant digits; the
only randomness is the seeded field generator of the gauge-check experiment.
``frames.csv`` is written in blocks of ``FRAME_BLOCK_ROWS`` rows, each
formatted by one C-level ``%`` operation; its bytes are pinned by a test
against a naive per-value writer, not only by rerun determinism.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (COEFF_NAMES, NLSECoefficients, NumericalBlowupError,
                       SimulationConfig, Trajectory, evolve)
from .ensembles import (InvariantViolation, equivalent_decompositions,
                        mixed_divergence, separability_residual)
from .equivalence import commuting_residual, push_forward_family
from .functionals import RegularizationPolicy, density
from .gauge import GaugeTransform, apply_gauge
from .grid import GridSpec, l2_norm, make_grid
from . import states


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------- config ----
#
# Each config block is written once, as rows (key, kind, default) that
# validate it, fill its defaults, list the presets and feed the builders.
# Kinds: number (finite), integer (int64), positive, count (integer >= 1),
# nonzero and path. A default of None makes the key required; "L/d" is
# grid.length / d, divided so that L/40 is the same double as length / 40.

def _object(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    return block


def _require(block: dict, key: str, where: str):
    if key not in _object(block, where):
        raise ConfigError(f"missing '{key}' in {where}")
    return block[key]


INT64 = np.iinfo(np.int64)


def _value(value, kind: str, where: str):
    """One field checked against its kind; the number kinds come back as float."""
    if kind == "path":
        return str(value)
    if kind in ("integer", "count"):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        if not INT64.min <= value <= INT64.max:
            raise ConfigError(f"{where} is outside the int64 range")
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            value = float(value)  # a JSON integer beyond the double range overflows
        except OverflowError:
            raise ConfigError(f"{where} is too large for a double") from None
        if not np.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
    if kind == "positive" and not value > 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    if kind == "count" and value < 1:
        raise ConfigError(f"{where} must be >= 1, got {value!r}")
    if kind == "nonzero" and value == 0:
        raise ConfigError(f"{where} must be nonzero")
    return value


def _known_only(block: dict, known: tuple, where: str) -> None:
    """Refuse a key that no row names: a typo must not run with a default."""
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}; "
                              f"expected one of {known}")


def _fields(block, rows, where: str, length: float | None = None,
            head: tuple = ()) -> dict:
    """Resolve the ``rows`` of one block; ``where`` names the block in error
    lines ('' for fields of the config root). A block may hold only the keys
    of its rows and ``head``; the root's keys are checked in resolve_config."""
    _object(block, f"{where} block")
    out = {}
    for key, kind, default in rows:
        name = f"{where}.{key}" if where else key
        if key in block:
            value = block[key]
        elif default is None:
            raise ConfigError(f"missing '{name}'")
        elif isinstance(default, str):  # "L/d"
            value = length / float(default[2:])
        else:
            value = default
        out[key] = _value(value, kind, name)
    if where:
        _known_only(block, (*head, *(key for key, _, _ in rows)), where)
    return out


GRID = (("dimension", "integer", None), ("n", "integer", None),
        ("length", "number", None))
RUN = (("dt", "positive", None), ("t_final", "positive", None),
       ("output_every", "count", 1), ("rho_floor_rel", "number", 1e-12),
       ("seed", "integer", 0))
COEFFICIENTS = tuple((key, "number", 0.0) for key in COEFF_NAMES)
GAUGE = (("gamma", "number", 0.0), ("lambda", "nonzero", 1.0),
         ("theta_const", "number", 0.0))


def _potential_file(grid, b):
    path = Path(b["path"])
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


# name -> (fields, one-line doc, builder). Builders look ``states`` functions
# up when they run, so a wrapper set on the module attribute sees every call.
STATE_PRESETS = {
    "gaussian": (
        (("center", "number", "L/2"), ("width", "positive", "L/40"),
         ("momentum", "number", 0.0)),
        "normalized packet exp(-(x-c)^2/(4w^2) + i k (x-c)); on the periodic"
        " box pick momentum a multiple of 2*pi/L",
        lambda grid, rng, b: states.gaussian(
            grid, center=b["center"], width=b["width"], momentum=b["momentum"])),
    "plane-wave": (
        (("mode", "integer", 1),),
        "exp(i 2 pi mode x / L) / sqrt(L)",
        lambda grid, rng, b: states.plane_wave(grid, mode=b["mode"])),
    "random-nodeless": (
        (("max_mode", "count", 4), ("log_amp", "number", 0.4),
         ("phase_amp", "number", 0.4)),
        "seeded band-limited exp(u+is), strictly nodeless, zero winding",
        lambda grid, rng, b: states.normalized(states.random_nodeless_field(
            grid, rng, max_mode=b["max_mode"], log_amp=b["log_amp"],
            phase_amp=b["phase_amp"]), grid)),
    "two-gaussian": (
        (("separation", "number", "L/4"), ("width", "positive", "L/32")),
        "orthonormalized displaced pair; mixprobe rotates it by 'angle'",
        lambda grid, rng, b: states.normalized(np.add(*states.two_gaussian_pair(
            grid, separation=b["separation"], width=b["width"])), grid)),
}

POTENTIALS = {
    "file": ((("path", "path", None),),
             "one V value per line, grid layout (row-major in 2D)",
             _potential_file),
    "harmonic": ((("omega", "number", 1.0), ("center", "number", "L/2")),
                 "(omega^2/2) |x - c|^2",
                 lambda grid, b: states.harmonic_potential(
                     grid, omega=b["omega"], center=b["center"])),
    "none": ((), "free evolution", lambda grid, b: None),
}

# every initial state but the two-gaussian pair, which only mixprobe and evolve take
SINGLE_STATES = ("gaussian", "plane-wave", "random-nodeless")

# Blocks an experiment may read besides grid and run: name -> (rows or preset
# table, what a config without the block gets). None makes the block
# required; a string names the block to copy.
BLOCKS = {
    "coefficients": (COEFFICIENTS, None),
    "gauge": (GAUGE, None),
    "initial_state": (STATE_PRESETS, None),
    "initial_state_y": (STATE_PRESETS, "initial_state"),
    "potential": (POTENTIALS, {"type": "none"}),
    "potential_y": (POTENTIALS, {"type": "none"}),
}


def list_presets() -> str:
    lines = []
    for section, table in (("initial states", STATE_PRESETS),
                           ("potentials", POTENTIALS)):
        lines.append(f"{section}:")
        for name, (fields, doc, _) in sorted(table.items()):
            params = ", ".join(key if default is None else f"{key}={default}"
                               for key, _, default in fields)
            lines.append(f"  {name}{f'({params})' if fields else ''}  - {doc}")
    return "\n".join(lines) + "\n"


def resolve_config(raw: dict) -> dict:
    """Validate and fill defaults; returns the fully resolved config dict."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if isinstance(raw.get("config"), dict):
        raw = raw["config"]  # accept an emitted manifest as a config
    exp = _require(raw, "experiment", "config")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {exp!r}; expected one of {tuple(EXPERIMENTS)}")
    _, reads, accepted = EXPERIMENTS[exp]

    grid = _fields(_require(raw, "grid", "config"), GRID, "grid")
    if exp in ("mixprobe", "separability") and grid["dimension"] != 1:
        raise ConfigError(f"{exp} needs grid.dimension = 1, got {grid['dimension']}")
    try:
        make_grid(**grid)
    except ValueError as err:
        raise ConfigError(f"grid block: {err}") from None
    out = {"experiment": exp, "grid": grid,
           "run": _fields(_require(raw, "run", "config"), RUN, "run")}

    root = ["experiment", "grid", "run"]
    for name in reads:
        if isinstance(name, tuple):  # a row of the config root
            out.update(_fields(raw, (name,), ""))
            root.append(name[0])
            continue
        name, optional = name.rstrip("?"), name.endswith("?")
        root.append(name)
        table, fallback = BLOCKS[name]
        block = raw.get(name)
        if block is None:
            if optional:
                continue
            if fallback is None:
                raise ConfigError(f"missing '{name}' in config for {exp}")
            block = raw[fallback] if isinstance(fallback, str) else fallback
        head, rows = {}, table
        if isinstance(table, dict):  # a preset table: the row the block names
            key = "preset" if table is STATE_PRESETS else "type"
            choice = _require(block, key, f"{name} block")
            choices = accepted if table is STATE_PRESETS else tuple(table)
            if choice not in choices:
                raise ConfigError(f"{name}.{key} must be one of {choices}, got {choice!r}")
            head, rows = {key: choice}, table[choice][0]
        out[name] = {**head, **_fields(block, rows, name, grid["length"], tuple(head))}
    if exp == "equivalence" and out["gauge"]["theta_const"] != 0.0:
        raise ConfigError("equivalence requires theta_const = 0")
    _known_only(raw, tuple(root), f"config for {exp}")
    return out


# ----------------------------------------------------------------- build ----

def _build_coefficients(cfg: dict) -> NLSECoefficients:
    return NLSECoefficients(**cfg["coefficients"])


def _build_sim_config(cfg: dict, force_dt: bool) -> SimulationConfig:
    run = cfg["run"]
    return SimulationConfig(
        dt=run["dt"], t_final=run["t_final"], output_every=run["output_every"],
        policy=RegularizationPolicy(rho_floor_rel=run["rho_floor_rel"]),
        force_dt=force_dt)


def _build_state(block: dict, grid: GridSpec, rng: np.random.Generator):
    return STATE_PRESETS[block["preset"]][2](grid, rng, block)


def _build_potential(block: dict, grid: GridSpec):
    return POTENTIALS[block["type"]][2](grid, block)


# ------------------------------------------------------------------- CSV ----

def _create(path: Path):
    """Open ``path`` for writing, making its directory first: a run makes its
    output directory with its first file, so a failed run leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_series_csv(path: Path, rows, header=("t", "value")) -> None:
    with _create(path) as fh:
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
    with _create(path) as fh:
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
        "pushed_coefficients": dict(zip(COEFF_NAMES,
                                        map(float, push_forward_family(g, c).as_array()))),
    }


def _run_mixprobe(cfg, grid, sim, out_dir):
    blk = cfg["initial_state"]
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


EVOLVES = ("coefficients", "initial_state", "potential")
# name -> (runner, blocks it reads, initial-state presets it accepts). A
# trailing "?" marks a block read only when the config gives it; a row
# (key, kind, default) is a field of the config root.
EXPERIMENTS = {
    "evolve": (_run_evolve, EVOLVES, tuple(STATE_PRESETS)),
    "gauge-check": (_run_gauge_check, (("trials", "count", 100), "gauge?"), ()),
    "equivalence": (_run_equivalence, ("gauge", *EVOLVES), SINGLE_STATES),
    "mixprobe": (_run_mixprobe, ("coefficients", "initial_state",
                                 ("angle", "number", np.pi / 4)), ("two-gaussian",)),
    "separability": (_run_separability, (*EVOLVES, "initial_state_y", "potential_y"),
                     SINGLE_STATES),
    "convergence": (_run_convergence, EVOLVES, SINGLE_STATES),
}


# ------------------------------------------------------------------ entry ---

def run(config_path, out_dir, force_dt: bool = False) -> int:
    """Execute one experiment config; returns the process exit status."""
    try:
        raw = json.loads(Path(config_path).read_text())
    except FileNotFoundError:
        print(f"CONFIG_ERROR: config file not found: {config_path}")
        return 2
    except ValueError as err:
        # JSONDecodeError, and integer literals beyond Python's digit limit
        print(f"CONFIG_ERROR: invalid JSON: {err}")
        return 2
    try:
        cfg = resolve_config(raw)
        grid = make_grid(**cfg["grid"])
        sim = _build_sim_config(cfg, force_dt)
        files, diagnostics = EXPERIMENTS[cfg["experiment"]][0](cfg, grid, sim,
                                                               Path(out_dir))
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
    with _create(Path(out_dir) / "manifest.json") as fh:
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
