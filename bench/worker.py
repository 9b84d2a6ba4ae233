"""One workload process: runs the generated experiments pass after pass.

    python3 bench/worker.py <plan.json>

The plan (written by ``bench/run.py``) names the workload, its experiments and
the seconds to measure. CLI experiments go through ``nlgauge.cli.main`` in
this process, exactly as ``nlgauge run <config> --out <dir>`` would run them;
the negative control calls the library. Every pass writes into its own
directory so that all outputs can be checked after the process ends.

Untraced mode: one warm-up pass, then timed passes for the whole budget, with
the set-up probes (``probe_setup.py``) in between.
Traced mode: a warm-up pass, untraced passes for half the budget, the ``rhs``
term-group timings, then traced passes for the other half.

The result (pass and set-up times, per-experiment exit codes, peak RSS, trace
totals) is written as JSON next to the plan.
"""

import contextlib
import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import nlgauge as ng  # noqa: E402
from nlgauge import cli  # noqa: E402
from workloads import K0, WIDTH  # noqa: E402

MIN_PASSES = 3

# Coefficients switched on for each rhs term group (nu1 = -0.5 throughout).
TERM_GROUPS = {
    "linear": {},
    "rho_quot": {"nu2": 0.05, "mu2": 0.05, "mu5": 0.05},
    "j_quot": {"mu1": 0.05, "mu3": 0.05, "mu4": 0.05},
    "log": {"alpha1": 0.05},
    "unwrap": {"alpha2": 0.05},
    "full": {k: 0.05 for k in ("nu2", "mu0", "mu1", "mu2", "mu3", "mu4",
                               "mu5", "alpha1", "alpha2")},
}


def negative_control(lib: dict) -> dict:
    """Commuting residual of a correct push-forward and of one whose
    coefficient ``corrupt.name`` is scaled by ``corrupt.factor``."""
    grid = ng.make_grid(**lib["grid"])
    c = ng.NLSECoefficients(**lib["coefficients"])
    psi = ng.states.random_nodeless_field(grid, np.random.default_rng(lib["state_seed"]))
    psi = psi / ng.l2_norm(psi, grid)
    g = ng.GaugeTransform(lib["gauge"]["gamma"], lib["gauge"]["lambda"])
    cfg = ng.SimulationConfig(dt=lib["dt"], t_final=lib["t_final"])
    cp = ng.push_forward_family(g, c)
    bad_cp = dataclasses.replace(
        cp, **{lib["corrupt"]["name"]:
               lib["corrupt"]["factor"] * getattr(cp, lib["corrupt"]["name"])})
    good = ng.commuting_residual(g, c, psi, grid, cfg, cp=cp, refine=False)
    bad = ng.commuting_residual(g, c, psi, grid, cfg, cp=bad_cp, refine=False)
    return {"good": good.residual_sup, "bad": bad.residual_sup}


def run_pass(experiments: list, pass_dir: Path, log) -> list:
    records = []
    for exp in experiments:
        out = pass_dir / exp["name"]
        rec = {"name": exp["name"]}
        try:
            if "config_path" in exp:
                with contextlib.redirect_stdout(log):
                    rec["exit_code"] = cli.main(["run", exp["config_path"],
                                                 "--out", str(out)])
            else:
                rec.update(negative_control(exp["library"]))
                rec["exit_code"] = 0
        except Exception as err:  # a crash is one failed experiment, not the run
            rec["exit_code"] = f"{type(err).__name__}: {err}"
        records.append(rec)
    return records


def setup_probe(config_path: str, out_dir: Path):
    """Seconds from spawning ``probe_setup.py`` to its first evolution, or
    None if it never got there."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"),
                           config_path, str(out_dir)],
                          capture_output=True, text=True, timeout=60)
    try:
        return float(proc.stdout) - t0 if proc.returncode == 0 else None
    except ValueError:
        return None


def timed_passes(plan, label, seconds, log, min_passes=MIN_PASSES, probes=0):
    """Passes until their summed wall time reaches ``seconds``. Set-up probes
    run between passes, spread evenly over that time so that they sample the
    same machine conditions as the passes; they are not part of any pass."""
    walls, passes, setups = [], [], []
    first_config = next(e["config_path"] for e in plan["experiments"]
                        if "config_path" in e)
    while len(walls) < min_passes or sum(walls) < seconds:
        pass_dir = Path(plan["work_dir"]) / f"{label}{len(walls)}"
        t0 = perf_counter()
        records = run_pass(plan["experiments"], pass_dir, log)
        walls.append(perf_counter() - t0)
        passes.append({"dir": str(pass_dir), "records": records})
        while len(setups) < probes and sum(walls) >= len(setups) * seconds / probes:
            setups.append(setup_probe(first_config, pass_dir / "setup"))
    while len(setups) < probes:
        setups.append(setup_probe(first_config, pass_dir / "setup"))
    return walls, passes, setups


def time_term_groups(grid_spec: dict) -> dict:
    """Microseconds per ``rhs`` call with one term group switched on."""
    grid = ng.make_grid(**grid_spec)
    psi = ng.states.gaussian(grid, width=WIDTH, momentum=3 * K0)
    out = {}
    for group, extra in TERM_GROUPS.items():
        c = ng.NLSECoefficients(nu1=-0.5, **extra)
        for _ in range(3):
            ng.rhs(c, psi, grid)
        t0 = perf_counter()
        ng.rhs(c, psi, grid)
        calls = max(5, int(0.03 / max(perf_counter() - t0, 1e-7)))
        blocks = []
        for _ in range(7):
            t0 = perf_counter()
            for _ in range(calls):
                ng.rhs(c, psi, grid)
            blocks.append((perf_counter() - t0) / calls)
        out[group] = median(blocks) * 1e6
    return out


def _frames_bytes(counters, args, kwargs, result):
    counters["cli.write_frames_csv.bytes"] += os.path.getsize(args[0])


def _kernel_bytes(counters, args, kwargs, result):
    # two N x N complex128 kernels at t=0 and two per output frame
    n = args[1].grid.n
    counters["ensembles.kernel_bytes"] += 16 * n * n * 2 * (len(result) + 1)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    seconds = plan["seconds"]
    result = {}
    with open(Path(plan["work_dir"]) / "cli.log", "w") as log:
        warm = run_pass(plan["experiments"], Path(plan["work_dir"]) / "warmup", log)
        result["warmup"] = {"dir": str(Path(plan["work_dir"]) / "warmup"),
                            "records": warm}
        if not plan["trace"]:
            # one extra probe first, which warms the file cache
            setup_probe(next(e["config_path"] for e in plan["experiments"]
                             if "config_path" in e), Path(plan["work_dir"]) / "setup")
            result["walls"], result["passes"], result["setups"] = timed_passes(
                plan, "pass", seconds, log, probes=plan["setup_probes"])
        else:
            from tracer import Tracer
            result["walls"], result["passes"], _ = timed_passes(
                plan, "pass", seconds / 2, log, min_passes=2)
            result["term_groups_us"] = time_term_groups(plan["rhs_grid"])
            tracer = Tracer()
            tracer.install({"cli.write_frames_csv": _frames_bytes,
                            "ensembles.mixed_divergence": _kernel_bytes})
            result["trace_missed"] = tracer.audit()
            result["traced_walls"], traced, _ = timed_passes(
                plan, "traced", seconds / 2, log, min_passes=2)
            result["passes"] += traced
            result["trace"] = tracer.totals()
            tracer.dump(Path(plan["work_dir"]) / "spans.json")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (Path(plan["work_dir"]) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
