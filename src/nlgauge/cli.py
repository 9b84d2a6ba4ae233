"""Batch front-end: one JSON experiment config in, CSV series/frames and a
manifest out.

Usage:
    nlgauge run <config.json> --out <dir> [--force-dt]
    nlgauge presets

Exit status: 0 success, 2 config error (also a path that cannot be read or
written), 3 numerical failure (NaN/blow-up), 4 invariant violation (e.g. the
same-kernel precondition of mixprobe).

``run`` is one pipeline: resolve the config, build its inputs, compute, stage
every output as ``<name>.part`` (the directory is made with the first file),
then rename them all into place. A failure discards them, with every
directory made for them, so it leaves the file system as it found it, and
prints one machine-parsable line ``<CATEGORY>: <reason>``.

Config handling is table-driven: the rows of each block, preset, potential
and experiment validate a config, fill its defaults, list the ``presets`` and
pick the builders. A key that no row names, in a block or at the root, is a
config error. The manifest echoes the fully resolved config (all
defaults filled in), so re-running ``nlgauge run manifest.json`` reproduces
the outputs byte for byte. Floats are printed with 17 significant digits; the
only randomness is the run's one generator, seeded by ``run.seed`` and made at
its first draw: a run that draws nothing never imports ``numpy.random``.
``frames.csv`` is written frame by frame as ``evolve`` produces the frames,
so memory does not grow with their number. It goes out in blocks of
``FRAME_BLOCK_ROWS`` rows, each one byte matrix whose numbers are formatted by
numpy (``_fmt17``). When the process may run on more than one CPU, a frame of
more than one block is written on a writer thread while the next steps run,
one frame behind the integrator. Its bytes are pinned by a test against a
naive per-value writer, not only by rerun determinism, and do not depend on
the thread.
"""

import argparse
import json
import os
import sys
import threading
from contextlib import AbstractContextManager, suppress
from functools import cached_property
from pathlib import Path
from queue import Queue

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


def _potential_file(build, b):
    grid, path = build.grid, b["path"]
    try:
        values = np.loadtxt(path, dtype=float)
    except (OSError, ValueError) as err:  # missing, a directory, or not numbers
        raise ConfigError(f"potential file {path}: {err}") from None
    values = values.reshape(grid.shape) if values.size == grid.npoints else values
    if values.shape != grid.shape:
        raise ConfigError(
            f"potential file has {values.size} values, grid needs {grid.npoints}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"potential file {path} contains non-finite values")
    return values


# name -> (fields, one-line doc, builder). A builder takes the run's inputs
# and the resolved block, and reads ``build.grid`` and ``build.rng`` itself, so
# only a preset that draws makes the generator. Builders look ``states``
# functions up when they run, so a wrapper set on the module attribute sees
# every call.
STATE_PRESETS = {
    "gaussian": (
        (("center", "number", "L/2"), ("width", "positive", "L/40"),
         ("momentum", "number", 0.0)),
        "normalized packet exp(-(x-c)^2/(4w^2) + i k (x-c)); on the periodic"
        " box pick momentum a multiple of 2*pi/L",
        lambda build, b: states.gaussian(
            build.grid, center=b["center"], width=b["width"], momentum=b["momentum"])),
    "plane-wave": (
        (("mode", "integer", 1),),
        "exp(i 2 pi mode x / L) / sqrt(L)",
        lambda build, b: states.plane_wave(build.grid, mode=b["mode"])),
    "random-nodeless": (
        (("max_mode", "count", 4), ("log_amp", "number", 0.4),
         ("phase_amp", "number", 0.4)),
        "seeded band-limited exp(u+is), strictly nodeless, zero winding",
        lambda build, b: states.normalized(states.random_nodeless_field(
            build.grid, build.rng, max_mode=b["max_mode"], log_amp=b["log_amp"],
            phase_amp=b["phase_amp"]), build.grid)),
    "two-gaussian": (
        (("separation", "number", "L/4"), ("width", "positive", "L/32")),
        "orthonormalized displaced pair; mixprobe rotates it by 'angle'",
        lambda build, b: states.normalized(np.add(*states.two_gaussian_pair(
            build.grid, separation=b["separation"], width=b["width"])), build.grid)),
}

POTENTIALS = {
    "file": ((("path", "path", None),),
             "one V value per line, grid layout (row-major in 2D)",
             _potential_file),
    "harmonic": ((("omega", "number", 1.0), ("center", "number", "L/2")),
                 "(omega^2/2) |x - c|^2",
                 lambda build, b: states.harmonic_potential(
                     build.grid, omega=b["omega"], center=b["center"])),
    "none": ((), "free evolution", lambda build, b: None),
}

# every initial state but the two-gaussian pair, which only mixprobe and evolve take
SINGLE_STATES = ("gaussian", "plane-wave", "random-nodeless")

# Blocks an experiment may read besides grid and run: name -> (selector key,
# rows, what a config without the block gets). Every row has one shape,
# (fields, doc, builder), and the block's selector key ("preset" or "type")
# names the row that resolves and builds it; a fixed block has no key and its
# one row is rows[None]. A fallback of None makes the block required; a
# string names the block to copy.
BLOCKS = {
    "coefficients": (None, {None: (COEFFICIENTS, "the family's ten coefficients",
                                   lambda build, b: NLSECoefficients(**b))}, None),
    "gauge": (None, {None: (GAUGE, "the gauge transform", lambda build, b: GaugeTransform(
        b["gamma"], b["lambda"], b["theta_const"]))}, None),
    "initial_state": ("preset", STATE_PRESETS, None),
    "initial_state_y": ("preset", STATE_PRESETS, "initial_state"),
    "potential": ("type", POTENTIALS, {"type": "none"}),
    "potential_y": ("type", POTENTIALS, {"type": "none"}),
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
    _, reads, refused = EXPERIMENTS[exp]

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
        key, rows, fallback = BLOCKS[name]
        block = raw.get(name)
        if block is None:
            if optional:
                continue
            if fallback is None:
                raise ConfigError(f"missing '{name}' in config for {exp}")
            block = raw[fallback] if isinstance(fallback, str) else fallback
        head = {key: _require(block, key, f"{name} block")} if key else {}
        choices = tuple(choice for choice in rows if choice not in refused)
        if head.get(key) not in choices:
            raise ConfigError(f"{name}.{key} must be one of {choices}, got {head[key]!r}")
        fields = rows[head.get(key)][0]
        out[name] = {**head, **_fields(block, fields, name, grid["length"], tuple(head))}
    if exp == "equivalence" and out["gauge"]["theta_const"] != 0.0:
        raise ConfigError("equivalence requires theta_const = 0")
    _known_only(raw, tuple(root), f"config for {exp}")
    return out


# ----------------------------------------------------------------- build ----

class _Inputs:
    """The inputs of one resolved config: ``build(name)`` makes the object of
    block ``name`` through the table that validated it. ``grid`` and ``sim``
    (the run block) are built at once; ``rng``, the run's one generator seeded
    by ``run.seed``, at its first draw, so that a run that draws nothing never
    imports ``numpy.random``. Draws come in the order blocks are asked for."""

    def __init__(self, cfg: dict, force_dt: bool = False):
        run = cfg["run"]
        self.cfg, self.grid = cfg, make_grid(**cfg["grid"])
        self.sim = SimulationConfig(
            dt=run["dt"], t_final=run["t_final"], output_every=run["output_every"],
            policy=RegularizationPolicy(rho_floor_rel=run["rho_floor_rel"]),
            force_dt=force_dt)

    @cached_property
    def rng(self):
        return np.random.default_rng(self.cfg["run"]["seed"])

    def __call__(self, name: str):
        key, rows, _ = BLOCKS[name]
        b = self.cfg[name]
        return rows[b.get(key)][2](self, b)


# ---------------------------------------------------------------- output ----

class _Stage(AbstractContextManager):
    """The output files of one run in ``out_dir``, each written as
    ``<name>.part`` by ``open(name)``, which makes the directory and every
    missing parent with the first file. ``commit()`` checks that no target is
    a directory, which a file cannot replace, then renames them into place in
    the order opened; ``discard()`` removes them and every directory made for
    them. The stage commits when its block ends and discards when the
    block, or the commit, raises."""

    def __init__(self, out_dir):
        self.dir, self.files, self.made = Path(out_dir), {}, []

    def open(self, name: str, mode: str = "w"):
        for d in reversed([d for d in (self.dir, *self.dir.parents) if not d.exists()]):
            d.mkdir()
            self.made.append(d)
        fh = open(self.dir / f"{name}.part", mode, newline=None if "b" in mode else "")
        self.files[name] = fh
        return fh

    def commit(self):
        for fh in self.files.values():
            fh.close()
        for name in self.files:  # checked first, so that no file is renamed
            target = self.dir / name
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(f"output {target} is a directory")
        for name in self.files:
            (self.dir / f"{name}.part").replace(self.dir / name)

    def discard(self):
        for name, fh in self.files.items():
            with suppress(OSError):  # a file that cannot be flushed goes all the same
                fh.close()
            # missing if a failed commit renamed it already
            (self.dir / f"{name}.part").unlink(missing_ok=True)
        for d in reversed(self.made):
            d.rmdir()

    def __exit__(self, error, *_):
        if error is None:
            try:
                return self.commit()
            except BaseException:  # a file that could not be flushed is not renamed
                self.discard()
                raise
        self.discard()


def write_series_csv(fh, header, rows) -> None:
    """``header``, then one line per row of numbers (None is written nan)."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join("nan" if v is None else _fmt(v) for v in row) + "\n")


# Rows of frames.csv in one byte matrix. A block rather than a whole frame
# bounds the temporaries of one write by the block size (about 2.7 MB,
# tracemalloc), not the grid size. Each block also carries about 0.3 ms of
# fixed formatter overhead, so fewer, larger blocks write faster.
FRAME_BLOCK_ROWS = 4096
# Rows of one block on the writer thread. Its writes overlap the next steps
# (an RK4 step at 128^2 peaks near 3.6 MB), so the two peaks add. 3072 rows
# peak at about 2.0 MB, against 2.7 MB for 4096, and take about 0.8 MB off
# the peak resident memory of a 128^2 run.
WRITER_BLOCK_ROWS = 3072


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


class _FramesWriter(AbstractContextManager):
    """``frames.csv`` written frame by frame: ``write(t, frame)`` appends one
    row per grid point, row-major in 2D.

    Each block of rows is one uint8 matrix in which a 0 byte means "no
    character": t, the coordinates (formatted once per run, like the
    header), then re, im and rho from ``_fmt17.text``, whose free last byte
    of each cell takes the comma or the newline. Deleting the 0 bytes gives
    the text of a per-value ``"%.17g"`` writer.

    A frame of more than one block is formatted and written by a writer
    thread, in blocks of ``WRITER_BLOCK_ROWS`` rows, while the caller
    computes the next frame; ``write`` first waits for the frame before, so
    at most one frame is in flight and the frames go out in order. The frame
    is not copied: :func:`evolve` never writes into a frame it has handed
    on. A frame of at most one block, or any frame in a process that may run
    on one CPU only, is written inline: on one CPU the thread overlaps
    nothing and costs time and memory. An error of the writing is raised in
    the caller by the next ``write`` or when the ``with`` block ends; an
    error that ends the block is not replaced by it.

    The thread starts at the first such frame and ends with the block: one
    thread per run, not per frame, since a thread started while the one
    before is still exiting gets a malloc arena of its own, which keeps the
    memory of one more frame's text.

    The file ``name`` is opened in ``stage`` at the first frame, so an
    evolution that fails before its first frame makes no directory.
    """

    def __init__(self, stage: _Stage, name: str, grid: GridSpec):
        self.stage, self.name, self.grid, self.fh = stage, name, grid, None
        # one row of ASCII bytes per axis coordinate and its comma, padded with 0 bytes
        coord = np.array([f"{_fmt(v)},".encode() for v in grid.axis_coordinate()], dtype=bytes)
        self.coord = coord.view(np.uint8).reshape(grid.n, -1)
        self.threaded = grid.npoints > FRAME_BLOCK_ROWS and _cpus() > 1
        self.rows = WRITER_BLOCK_ROWS if self.threaded else FRAME_BLOCK_ROWS
        self.thread = self.error = None
        self.todo = Queue()

    def __call__(self, t, frame):
        self._finish()
        if self.fh is None:
            self.fh = self.stage.open(self.name, "wb")
            header = ",".join(["t", *"xy"[:self.grid.dimension], "re", "im", "rho"]) + "\n"
            self.fh.write(header.encode())
        if not self.threaded:
            return self._write(t, frame)
        if self.thread is None:
            self.thread = threading.Thread(target=self._writer, name="nlgauge-frames")
            self.thread.start()
        self.todo.put((t, frame))

    def _writer(self):
        """The writer thread: writes each frame put on ``todo``, leaves the
        error its writing meets in ``error``, drops the frame, then marks its
        task finished, until it gets None."""
        for job in iter(self.todo.get, None):
            try:
                self._write(*job)
            except BaseException as err:  # raised in the caller by _finish
                self.error = err
            # a frame kept while the next one is computed raises the peak memory
            del job
            self.todo.task_done()

    def _finish(self):
        """Wait for the frame in flight and raise the error its writing met."""
        self.todo.join()
        if self.error is not None:
            raise self.error

    def __exit__(self, error, *_):
        try:
            self._finish()
        except BaseException:
            if error is None:
                raise
        finally:
            if self.thread is not None:
                self.todo.put(None)
                self.thread.join()

    def _write(self, t, frame):
        # imported on first use: a process that writes no frames does not
        # compile the formatter, which costs it about 0.7 MB of resident memory
        from . import _fmt17

        grid, coord = self.grid, self.coord
        width = coord.shape[1]
        head = np.frombuffer((_fmt(t) + ",").encode(), np.uint8)
        flat = frame.reshape(-1)
        for start in range(0, grid.npoints, self.rows):
            part = flat[start:start + self.rows]
            m = np.empty((part.size, head.size + grid.dimension * width
                          + 3 * _fmt17.WIDTH), np.uint8)
            m[:, :head.size] = head
            col = head.size
            index = np.unravel_index(np.arange(start, start + part.size), grid.shape)
            for i in index:
                m[:, col:col + width] = coord[i]
                col += width
            values = np.stack([part.real, part.imag, density(part)], axis=1)
            cells = m[:, col:].reshape(part.size, 3, -1)
            cells[...] = _fmt17.text(values).reshape(cells.shape)
            cells[..., -1] = ord(",")
            cells[:, -1, -1] = ord("\n")
            self.fh.write(m.tobytes().translate(None, b"\0"))


def write_frames_csv(path: Path, traj: Trajectory) -> None:
    """The frames of ``traj`` through :class:`_FramesWriter`, staged on their
    own; the file at ``path`` is complete when this returns."""
    traj.final()  # refuses a trajectory whose frames were streamed
    path = Path(path)
    with _Stage(path.parent) as stage, \
            _FramesWriter(stage, path.name, traj.grid) as write:
        for t, frame in zip(traj.times, traj.frames):
            write(t, frame)


# ----------------------------------------------------------- experiments ----
#
# A runner gets the resolved config, its inputs and the run's stage and
# returns (series, diagnostics); series is (header, rows) or None.

def _run_evolve(cfg, build, stage):
    # the writer's last frame is written before the stage commits or discards
    with _FramesWriter(stage, "frames.csv", build.grid) as write:
        traj = evolve(build("coefficients"), build("initial_state"), build.grid,
                      build.sim, build("potential"), on_frame=write)
    return None, {
        "norm_drift": traj.norm_drift,
        "regularized_fraction": float(traj.regularized_fractions.max()),
        "frames": len(traj),
    }


def _run_gauge_check(cfg, build, stage):
    rng, rows = build.rng, []
    for trial in range(cfg["trials"]):
        psi = states.random_nodeless_field(build.grid, rng)
        g = build("gauge") if "gauge" in cfg else GaugeTransform(
            gamma=rng.uniform(-5.0, 5.0),
            lam=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1),
            theta=rng.uniform(-0.5, 0.5))
        rho = density(psi)
        dev = float(np.max(np.abs(density(apply_gauge(g, psi, build.sim.policy)) - rho)))
        rows.append((float(trial), dev / float(rho.max())))
    return (("t", "value"), rows), {"max_density_deviation_rel": max(v for _, v in rows),
                                    "trials": cfg["trials"]}


def _run_equivalence(cfg, build, stage):
    g, c = build("gauge"), build("coefficients")
    report = commuting_residual(g, c, build("initial_state"), build.grid, build.sim,
                                build("potential"))
    return (("t", "value"), report.residual_series), {
        "residual_sup": report.residual_sup,
        "residual_sup_fine": report.residual_sup_fine,
        "refinement_order": report.refinement_order,
        "regularized_fraction": report.regularized_fraction,
        "pushed_coefficients": dict(zip(COEFF_NAMES,
                                        map(float, push_forward_family(g, c).as_array()))),
    }


def _run_mixprobe(cfg, build, stage):
    # the pair itself, not the preset's sum: a degenerate pair is an invariant
    # violation here, not a config error
    blk = cfg["initial_state"]
    try:
        psi_a, psi_b = states.two_gaussian_pair(build.grid, separation=blk["separation"],
                                                width=blk["width"])
    except ValueError as err:
        raise InvariantViolation(str(err)) from None
    dec_a, dec_b = equivalent_decompositions(psi_a, psi_b, cfg["angle"], build.grid)
    series = mixed_divergence(build("coefficients"), dec_a, dec_b, build.sim)
    return (("t", "value"), series), {"divergence_max": max(v for _, v in series),
                                      "divergence_final": series[-1][1]}


def _run_separability(cfg, build, stage):
    series, traj2d, _, _ = separability_residual(
        build("coefficients"), build("initial_state"), build("initial_state_y"),
        build.grid, build.sim, build("potential"), build("potential_y"))
    return (("t", "value"), series), {
        "residual_sup": max(v for _, v in series),
        "norm_drift_2d": traj2d.norm_drift,
        "regularized_fraction": float(traj2d.regularized_fractions.max()),
    }


def _run_convergence(cfg, build, stage):
    c, psi0, V = build("coefficients"), build("initial_state"), build("potential")
    grid, sim, finals = build.grid, build.sim, []

    def keep_last(t, psi):
        finals[-1] = psi

    for level in range(3):
        finals.append(None)
        evolve(c, psi0, grid, sim.refined(2 ** level), V, on_frame=keep_last)
    errors = [l2_norm(finals[i] - finals[i + 1], grid) for i in range(2)]
    order = float(np.log2(errors[0] / errors[1])) if errors[1] > 0 else float("inf")
    rows = [(sim.dt, errors[0], None), (sim.dt / 2, errors[1], order)]
    return (("dt", "error", "observed_order"), rows), {"observed_order": order,
                                                       "errors": errors}


EVOLVES = ("coefficients", "initial_state", "potential")
# name -> (runner, blocks it reads, rows it refuses in the blocks it reads).
# A trailing "?" marks a block read only when the config gives it; a row
# (key, kind, default) is a field of the config root.
EXPERIMENTS = {
    "evolve": (_run_evolve, EVOLVES, ()),
    "gauge-check": (_run_gauge_check, (("trials", "count", 100), "gauge?"), ()),
    "equivalence": (_run_equivalence, ("gauge", *EVOLVES), ("two-gaussian",)),
    "mixprobe": (_run_mixprobe, ("coefficients", "initial_state",
                                 ("angle", "number", np.pi / 4)), SINGLE_STATES),
    "separability": (_run_separability, (*EVOLVES, "initial_state_y", "potential_y"),
                     ("two-gaussian",)),
    "convergence": (_run_convergence, EVOLVES, ("two-gaussian",)),
}


# ------------------------------------------------------------------ entry ---

# A failure's class -> (its line's first word, exit status); the first match
# wins. Config errors and refused preconditions (stability bound, ...) are
# ValueErrors; an OSError is a path that cannot be read or written.
FAILURES = {
    InvariantViolation: ("INVARIANT_VIOLATION", 4),
    NumericalBlowupError: ("NUMERICAL_FAILURE", 3),
    ValueError: ("CONFIG_ERROR", 2),
    OSError: ("CONFIG_ERROR", 2),
}


def run(config_path, out_dir, force_dt: bool = False) -> int:
    """Execute one experiment config through the pipeline of the module doc;
    returns the process exit status."""
    try:
        with _Stage(out_dir) as stage:
            try:
                raw = json.loads(Path(config_path).read_text())
            except ValueError as err:
                # JSONDecodeError, and integer literals beyond Python's digit limit
                raise ConfigError(f"invalid JSON: {err}") from None
            cfg = resolve_config(raw)
            build = _Inputs(cfg, force_dt)
            series, diagnostics = EXPERIMENTS[cfg["experiment"]][0](cfg, build, stage)
            if series is not None:
                write_series_csv(stage.open("series.csv"), *series)
            manifest = {
                "tool": "nlgauge",
                "version": __version__,
                "experiment": cfg["experiment"],
                "config": cfg,
                "grid": {**cfg["grid"], "dx": build.grid.dx},
                "outputs": list(stage.files),
                "diagnostics": diagnostics,
            }
            fh = stage.open("manifest.json")
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=True)
            fh.write("\n")
    except tuple(FAILURES) as err:
        category, status = next(FAILURES[cls] for cls in FAILURES if isinstance(err, cls))
        print(f"{category}: {err}")
        return status
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
