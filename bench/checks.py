"""Oracle checks on the outputs of one workload pass.

Every check is independent of the code path it checks: frames are parsed back
from ``frames.csv`` and compared with closed forms (the initial Gaussian, the
grid coordinates, rho = re^2 + im^2), with the conserved norm, and, on the
default seed, with final frames stored by ``make_reference.py``. The certify
experiments are judged by their manifest diagnostics against the thresholds of
the acceptance suite. Each check returns a list of failure messages; an
experiment with any message counts as failed.
"""

import json
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, LINEAR_MEMBER

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NORM_DRIFT_MAX = 1e-6          # acceptance criterion 06
REFERENCE_L2_MAX = 1e-8        # tolerance for a changed integrator or kernel
INITIAL_L2_MAX = 1e-12
ORDER_MIN = 1.5
LINEARIZABLE_MAX = 1e-12
MIX_LINEAR_MAX = 1e-9
MIX_LOG_FACTOR = 100.0
SEPARABILITY_MAX = 1e-5
DENSITY_DEV_MAX = 1e-12
CONTROL_RATIO_MIN = 10.0


# ------------------------------------------------------------ references ----

def load_reference(workload: str, seed: int, experiments: list):
    """Stored final frames keyed by experiment name, or None with the reason
    the stored-reference check is not applied."""
    meta_path = REFERENCE_DIR / "reference.json"
    if workload == "certify":
        return None, "certify needs no stored reference"
    if seed != DEFAULT_SEED:
        return None, (f"stored-reference check skipped: seed {seed} is not the "
                      f"default seed {DEFAULT_SEED}; invariant checks only")
    meta = json.loads(meta_path.read_text())["workloads"][workload]
    with np.load(REFERENCE_DIR / f"{workload}.npz") as data:
        finals = {name: data[name] for name in data.files}
    for exp in experiments:
        stored = meta.get(exp["name"], {}).get("config")
        if stored != exp["config"]:
            raise ValueError(f"stored reference for {workload}/{exp['name']} was "
                             "made from another config; rerun make_reference.py")
    return finals, "final frames compared with the stored reference"


# ---------------------------------------------------------------- frames ----

def frame_times(run: dict) -> np.ndarray:
    """Output times of ``evolve``: every output_every steps and the last."""
    n_steps = max(1, int(round(run["t_final"] / run["dt"])))
    steps = [0] + [s for s in range(1, n_steps + 1)
                   if s % run["output_every"] == 0 or s == n_steps]
    return np.array(steps) * run["dt"]


def read_frames(path: Path, cfg: dict):
    """Parse frames.csv into (times, frames, failures)."""
    g = cfg["grid"]
    dim, n, length = g["dimension"], g["n"], g["length"]
    times = frame_times(cfg["run"])
    header = "t,x,re,im,rho" if dim == 1 else "t,x,y,re,im,rho"
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        return None, None, [f"header {first!r} != {header!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    npts = n ** dim
    if table.shape != (len(times) * npts, dim + 4):
        return None, None, [f"table shape {table.shape} != "
                            f"{(len(times) * npts, dim + 4)}"]
    fails = []
    table = table.reshape(len(times), npts, dim + 4)
    if not np.allclose(table[:, :, 0], times[:, None], rtol=1e-12, atol=1e-15):
        fails.append("t column does not match the output times")
    x = np.arange(n) * (length / n)
    coords = [x] if dim == 1 else [np.repeat(x, n), np.tile(x, n)]
    for axis, c in enumerate(coords):
        if not np.allclose(table[:, :, 1 + axis], c[None, :], rtol=0, atol=1e-12):
            fails.append(f"coordinate column {axis} does not match the grid")
    re, im, rho = table[:, :, dim + 1], table[:, :, dim + 2], table[:, :, dim + 3]
    if not np.allclose(rho, re ** 2 + im ** 2, rtol=1e-13, atol=1e-15 * rho.max()):
        fails.append("rho column differs from re^2 + im^2")
    frames = (re + 1j * im).reshape((len(times),) + (n,) * dim)
    return times, frames, fails


def gaussian_oracle(cfg: dict) -> np.ndarray:
    """The normalized Gaussian exp(-(x-c)^2/(4w^2) + i k (x-c)), per axis."""
    g, s = cfg["grid"], cfg["initial_state"]
    x = np.arange(g["n"]) * (g["length"] / g["n"])
    f = np.exp(-(x - s["center"]) ** 2 / (4 * s["width"] ** 2)
               + 1j * s["momentum"] * (x - s["center"]))
    psi = f if g["dimension"] == 1 else np.outer(f, f)
    return psi / _l2(psi, g)


def _l2(f, g) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * (g["length"] / g["n"]) ** g["dimension"]))


def check_evolve(cfg: dict, out: Path, reference) -> list:
    times, frames, fails = read_frames(out / "frames.csv", cfg)
    if frames is None:
        return fails
    g = cfg["grid"]
    init_err = _l2(frames[0] - gaussian_oracle(cfg), g)
    if not init_err <= INITIAL_L2_MAX:
        fails.append(f"initial frame is {init_err:.2e} from the closed form")
    norms = np.array([_l2(f, g) for f in frames])
    drift = float(np.max(np.abs(norms - norms[0])))
    if not drift <= NORM_DRIFT_MAX:
        fails.append(f"norm drift {drift:.2e} > {NORM_DRIFT_MAX:g}")
    if reference is not None:
        err = _l2(frames[-1] - reference, g)
        if not err <= REFERENCE_L2_MAX:
            fails.append(f"final frame is {err:.2e} from the reference "
                         f"(> {REFERENCE_L2_MAX:g})")
    return fails


# --------------------------------------------------------------- certify ----

def _series_max(out: Path) -> float:
    table = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    return float(np.max(table[:, 1]))


def linearizable_residuals(c: dict) -> dict:
    """Relations satisfied by every gauged linear equation."""
    return {"mu3": c["mu3"], "mu1+mu4": c["mu1"] + c["mu4"],
            "mu2+2mu5": c["mu2"] + 2 * c["mu5"],
            "nu2+nu1*mu1": c["nu2"] + c["nu1"] * c["mu1"],
            "alpha1": c["alpha1"], "alpha2": c["alpha2"]}


def check_certify(experiments: list, pass_dir: Path, records: dict) -> dict:
    fails = {}
    diag = {}
    for exp in experiments:
        name, f = exp["name"], fails.setdefault(exp["name"], [])
        if "library" in exp:
            rec = records[name]
            ratio = rec["bad"] / rec["good"] if rec["good"] > 0 else \
                float("inf") if rec["bad"] > 0 else 0.0
            if not ratio >= CONTROL_RATIO_MIN:
                f.append(f"negative-control ratio {ratio:.3g} < {CONTROL_RATIO_MIN:g}")
            continue
        out = pass_dir / name
        d = diag[name] = json.loads((out / "manifest.json").read_text())["diagnostics"]
        kind = exp["config"]["experiment"]
        if kind == "equivalence":
            if not d["refinement_order"] >= ORDER_MIN:
                f.append(f"refinement order {d['refinement_order']:.3g} < {ORDER_MIN}")
            if exp["config"]["coefficients"] == LINEAR_MEMBER:
                worst = max(abs(v) for v in
                            linearizable_residuals(d["pushed_coefficients"]).values())
                if not worst <= LINEARIZABLE_MAX:
                    f.append(f"pushed linear member breaks linearizability by {worst:.2e}")
            key = "residual_sup"
        elif kind == "mixprobe":
            key = "divergence_max"
        elif kind == "separability":
            key = "residual_sup"
            if not d[key] <= SEPARABILITY_MAX:
                f.append(f"separability residual {d[key]:.2e} > {SEPARABILITY_MAX:g}")
        else:
            key = "max_density_deviation_rel"
            if not d[key] <= DENSITY_DEV_MAX:
                f.append(f"density deviation {d[key]:.2e} > {DENSITY_DEV_MAX:g}")
        if _series_max(out) != d[key]:
            f.append(f"series.csv maximum differs from the manifest {key}")
    base = diag.get("mixprobe-linear", {}).get("divergence_max")
    peak = diag.get("mixprobe-log", {}).get("divergence_max")
    if base is not None and not base <= MIX_LINEAR_MAX:
        fails["mixprobe-linear"].append(f"linear divergence {base:.2e} > {MIX_LINEAR_MAX:g}")
    if base is not None and peak is not None \
            and not peak >= MIX_LOG_FACTOR * max(base, 1e-12):
        fails["mixprobe-log"].append(f"log divergence {peak:.2e} is not "
                                     f"{MIX_LOG_FACTOR:g}x the linear baseline")
    return fails


# ------------------------------------------------------------------ pass ----

def check_pass(workload: str, experiments: list, pass_dir: Path, records: list,
               reference) -> dict:
    """Failure messages per experiment name for one pass."""
    by_name = {r["name"]: r for r in records}
    fails = {}
    ok = []
    for exp in experiments:
        code = by_name.get(exp["name"], {}).get("exit_code", "not run")
        if code != 0:
            fails[exp["name"]] = [f"exit status {code}"]
        else:
            ok.append(exp)
    try:
        if workload == "certify":
            more = check_certify(ok, pass_dir, by_name)
        else:
            more = {exp["name"]: check_evolve(
                exp["config"], pass_dir / exp["name"],
                None if reference is None else reference[exp["name"]])
                for exp in ok}
    except (OSError, ValueError, KeyError) as err:
        more = {exp["name"]: [f"unreadable output: {err}"] for exp in ok}
    for name, msgs in more.items():
        if msgs:
            fails.setdefault(name, []).extend(msgs)
    return fails
