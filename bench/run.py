"""The nlgauge benchmark.

    python3 bench/run.py --workload family-1d|evolve-2d-cli|certify|all
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --selftest

Run from the root of a source checkout; the program is imported from ``src/``
and all scratch output goes to ``.bench_work/``. The workload's experiments
are generated from ``--seed`` (see ``workloads.py``), run by one worker process
(``worker.py``) for ``--seconds`` seconds, and every pass's outputs are
checked by ``checks.py``; a pass whose exit codes and output files equal the
first pass's byte for byte shares its verdict.

End-to-end metrics (``--trace 0``, tracing off):

- ``setup_s``: wall time of a fresh interpreter from spawn to the first
  evolution of the workload's first config (``probe_setup.py``): import,
  argument parsing, config resolution, grid, state and potential build.
  Median of several probes spread over the run, after one warm-up probe.
- ``wall_s``: wall time of one full pass of the workload (every experiment,
  including CSV and manifest output) after a warm-up pass, as the mean over
  the measured window: measured seconds divided by passes completed, the
  inverse of throughput. The median and the highest percentile with ten
  samples beyond it are printed with the sample count. The mean is the gated
  figure because on a shared host CPU speed can switch between fast and slow
  phases lasting seconds; a median then jumps with the share of slow passes
  while the mean follows it smoothly.
- ``peak_rss_mb``: peak resident set of the worker process (``getrusage``),
  in 10^6 bytes.

``failed_frac`` (experiments that exited non-zero or failed a check, over
experiments attempted) is printed and carried by ``failed``/``attempted``.

Per-layer metrics (``--trace 1``) come from spans recorded around calls into
each module (``tracer.py``), reported per pass; see ``PER_LAYER`` below.

Threads are capped at one (BLAS/OpenMP; ``scipy.fft`` keeps its default single
worker), so each workload is the load of one process on one core.
The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 9
WORKER_GRACE_S = 100

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit
PER_LAYER = {
    "fft.calls": "count", "fft.s": "s", "fft.us_per_call": "us",
    "dynamics.rhs.calls": "count", "dynamics.rhs.self_s": "s",
    "dynamics.rhs.us_per_call": "us", "dynamics.fft_per_rhs": "ratio",
    "dynamics.step_rk4.self_s": "s", "dynamics.evolve.calls": "count",
    "dynamics.evolve.self_s": "s",
    "dynamics.rhs.linear_us": "us", "dynamics.rhs.rho_quot_us": "us",
    "dynamics.rhs.j_quot_us": "us", "dynamics.rhs.log_us": "us",
    "dynamics.rhs.unwrap_us": "us", "dynamics.rhs.full_us": "us",
    "functionals.unwrap_phase.calls": "count",
    "functionals.unwrap_phase.self_s": "s",
    "gauge.apply_gauge.calls": "count", "gauge.apply_gauge.self_s": "s",
    "equivalence.commuting_residual.self_s": "s",
    "ensembles.mixed_divergence.self_s": "s",
    "ensembles.separability_residual.self_s": "s",
    "ensembles.kernel_bytes": "bytes-computed",
    "states.build_s": "s",
    "cli.resolve_config.s": "s", "cli.write_frames_csv.s": "s",
    "cli.write_frames_csv.bytes": "bytes", "cli.write_series_csv.s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}
COVERAGE_MIN = 0.9


def upper_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = 100.0 * (n - 10) / n
    k = sorted(values)[n - 11]
    return {"percentile": round(p, 1), "value": k}


def machine_record(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_caps": THREAD_CAPS,
            "scipy_fft_workers": 1, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 perturb: str | None = None) -> dict:
    """Run one workload and check every pass; returns the verdict counts,
    metrics, notes and failure messages. ``perturb`` (self-test only) shifts
    the stored reference or one output value by 1e-6."""
    import checks
    import workloads

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    experiments = workloads.generate(workload, seed)
    for exp in experiments:
        if "config" in exp:
            path = work / "configs" / f"{exp['name']}.json"
            path.write_text(json.dumps(exp["config"], indent=1))
            exp["config_path"] = str(path)
    reference, ref_note = checks.load_reference(workload, seed, experiments)
    if perturb == "reference":
        reference = {k: v + 1e-6 for k, v in reference.items()}

    attempted = failed = 0
    metrics, notes = {}, [ref_note]
    plan = {"workload": workload, "seconds": seconds, "trace": trace,
            "experiments": experiments, "work_dir": str(work),
            "rhs_grid": workloads.RHS_GRID[workload], "setup_probes": SETUP_PROBES}
    (work / "plan.json").write_text(json.dumps(plan))
    # Spawned before this process loads any output: Linux carries the
    # parent's peak RSS across fork and exec into the worker's getrusage.
    try:
        with open(work / "worker.err", "w") as err_log:
            subprocess.run([sys.executable, str(HERE / "worker.py"),
                            str(work / "plan.json")],
                           stdout=subprocess.DEVNULL, stderr=err_log,
                           timeout=seconds + WORKER_GRACE_S, check=True)
        result = json.loads((work / "result.json").read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as err:
        notes.append(f"worker failed: {err}")
        return {"correct": False, "attempted": attempted + len(experiments),
                "failed": failed + len(experiments), "metrics": {}, "notes": notes}

    first = result["warmup"]
    if perturb == "output":
        _perturb_first_frames(Path(first["dir"]))
    first_fails = checks.check_pass(workload, experiments, Path(first["dir"]),
                                    first["records"], reference)
    fail_msgs = []
    for p in [first] + result["passes"]:
        # The program is deterministic: a pass whose exit codes and output
        # files equal those of the first pass byte for byte has its results.
        if p is first or (_codes(p) == _codes(first)
                          and _same_files(Path(p["dir"]), Path(first["dir"]))):
            fails = first_fails
        else:
            fails = checks.check_pass(workload, experiments, Path(p["dir"]),
                                      p["records"], reference)
        attempted += len(experiments)
        failed += sum(1 for msgs in fails.values() if msgs)
        fail_msgs += [f"{Path(p['dir']).name}/{k}: {'; '.join(m)}"
                      for k, m in fails.items() if m]
        if p is not first:
            shutil.rmtree(p["dir"], ignore_errors=True)
    shutil.rmtree(first["dir"], ignore_errors=True)

    walls = result["walls"]
    samples = {"wall_s": len(walls)}
    if not trace:
        setup_times = [t for t in result["setups"] if t is not None]
        attempted += len(result["setups"])
        failed += len(result["setups"]) - len(setup_times)
        if len(setup_times) < len(result["setups"]):
            notes.append("some set-up probes did not reach an evolution")
        metrics["setup_s"] = median(setup_times) if setup_times else float("nan")
        metrics["wall_s"] = sum(walls) / len(walls)
        metrics["peak_rss_mb"] = result["peak_rss_kb"] * 1024 / 1e6
        samples.update(setup_s=len(setup_times), peak_rss_mb=1)
    else:
        metrics.update(layer_metrics(result))
        samples["per_layer"] = len(result["traced_walls"])
        if result["trace_missed"]:
            failed += 1
            attempted += 1
            notes.append("untraced aliases: " + ", ".join(result["trace_missed"]))
        if not metrics["trace.coverage"] >= COVERAGE_MIN:
            failed += 1
            attempted += 1
            notes.append(f"trace coverage {metrics['trace.coverage']:.3f} < {COVERAGE_MIN}")
        notes.append("largest self time: " + largest_self(result["trace"],
                                                          len(result["traced_walls"])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "failures": fail_msgs,
            "wall_upper": upper_percentile(walls), "samples": samples, "walls": walls,
            "experiments_per_pass": len(experiments)}


def _codes(p: dict) -> list:
    return [(r["name"], r["exit_code"], r.get("good"), r.get("bad"))
            for r in p["records"]]


def _same_files(a: Path, b: Path) -> bool:
    """Whether two pass directories hold the same output files and bytes."""
    files_a = sorted(f.relative_to(a) for f in a.rglob("*") if f.is_file())
    files_b = sorted(f.relative_to(b) for f in b.rglob("*") if f.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def _perturb_first_frames(pass_dir: Path) -> None:
    """Self-test: shift the real part of one point of one frames.csv by 1e-6."""
    path = next(pass_dir.glob("*/frames.csv"))
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[-3] = repr(float(cells[-3]) + 1e-6)
    lines[-1] = ",".join(cells)
    path.write_text("".join(lines))


def layer_metrics(result: dict) -> dict:
    """Per-pass layer numbers from the traced passes."""
    tr, npass = result["trace"], len(result["traced_walls"])
    spans = tr["spans"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0) / npass

    rhs_calls = get("dynamics.rhs", "calls")
    m = {
        "fft.calls": tr["fft_calls"] / npass,
        "fft.s": tr["fft_s"] / npass,
        "fft.us_per_call": 1e6 * tr["fft_s"] / tr["fft_calls"] if tr["fft_calls"] else 0.0,
        "dynamics.rhs.calls": rhs_calls,
        "dynamics.rhs.self_s": get("dynamics.rhs", "self_s"),
        "dynamics.rhs.us_per_call": 1e6 * get("dynamics.rhs", "s") / rhs_calls
        if rhs_calls else 0.0,
        "dynamics.fft_per_rhs": tr["fft_calls_in_rhs"] / npass / rhs_calls
        if rhs_calls else 0.0,
        "dynamics.step_rk4.self_s": get("dynamics.step_rk4", "self_s"),
        "dynamics.evolve.calls": get("dynamics.evolve", "calls"),
        "dynamics.evolve.self_s": get("dynamics.evolve", "self_s"),
        "functionals.unwrap_phase.calls": get("functionals.unwrap_phase", "calls"),
        "functionals.unwrap_phase.self_s": get("functionals.unwrap_phase", "self_s"),
        "gauge.apply_gauge.calls": get("gauge.apply_gauge", "calls"),
        "gauge.apply_gauge.self_s": get("gauge.apply_gauge", "self_s"),
        "equivalence.commuting_residual.self_s":
            get("equivalence.commuting_residual", "self_s"),
        "ensembles.mixed_divergence.self_s": get("ensembles.mixed_divergence", "self_s"),
        "ensembles.separability_residual.self_s":
            get("ensembles.separability_residual", "self_s"),
        "ensembles.kernel_bytes": tr["counters"].get("ensembles.kernel_bytes", 0) / npass,
        "states.build_s": sum(v["self_s"] for k, v in spans.items()
                              if k.startswith("states.")) / npass,
        "cli.resolve_config.s": get("cli.resolve_config", "s"),
        "cli.write_frames_csv.s": get("cli.write_frames_csv", "s"),
        "cli.write_frames_csv.bytes":
            tr["counters"].get("cli.write_frames_csv.bytes", 0) / npass,
        "cli.write_series_csv.s": get("cli.write_series_csv", "s"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "trace.overhead_s": sum(result["traced_walls"]) / npass
        - sum(result["walls"]) / len(result["walls"]),
        "trace.coverage": tr["top_s"] / sum(result["traced_walls"]),
    }
    for group, us in result["term_groups_us"].items():
        m[f"dynamics.rhs.{group}_us"] = us
    return {k: m[k] for k in PER_LAYER}


def largest_self(trace: dict, npass: int) -> str:
    selfs = {k: v["self_s"] for k, v in trace["spans"].items()}
    selfs["fft"] = trace["fft_s"]
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
    return ", ".join(f"{k} {v / npass:.4f} s/pass" for k, v in top)


def report(workload: str, seed: int, res: dict, trace: bool) -> None:
    print(f"== {workload} (seed {seed}): {res.get('experiments_per_pass', 0)} "
          f"experiments per pass")
    samples = res.get("samples", {})
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            if name in res["metrics"]:
                print(f"  {name:<12} {res['metrics'][name]:12.6g} {UNITS[name]:<3}"
                      f" (n={samples.get(name)})")
        up = res.get("wall_upper")
        print(f"  wall_s median {median(res['walls']):.6g} s; upper percentile: " + (
            f"p{up['percentile']} = {up['value']:.6g} s" if up else
            f"none (fewer than 20 passes, n={samples.get('wall_s')})"))
    else:
        for name, value in res["metrics"].items():
            print(f"  {name:<40} {value:14.6g} {PER_LAYER[name]}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  failed_frac  {res['failed']}/{res['attempted']} = {frac:.4g} ratio")
    for note in res["notes"]:
        print(f"  note: {note}")
    for msg in res.get("failures", [])[:10]:
        print(f"  FAILED {msg}")


def selftest() -> int:
    """The checks must pass on real output and fail on perturbed output."""
    outcomes = []
    for perturb in (None, "reference", "output"):
        res = run_workload("family-1d", 0, 0.5, False, perturb=perturb)
        frac = res["failed"] / res["attempted"]
        ok = frac == 0 if perturb is None else frac > 0
        outcomes.append(ok)
        print(f"selftest perturb={perturb}: failed_frac {res['failed']}/"
              f"{res['attempted']} -> {'ok' if ok else 'WRONG'}")
        for msg in res.get("failures", [])[:2]:
            print(f"  {msg}")
    print("selftest " + ("passed" if all(outcomes) else "FAILED"))
    return 0 if all(outcomes) else 1


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that perturbed outputs are counted as failures")
    args = parser.parse_args(argv)
    if not (SRC / "nlgauge" / "__init__.py").is_file():
        print(f"error: no nlgauge sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # one process per workload, exactly as a single-workload run
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in workloads.WORKLOADS)
    trace = bool(args.trace)
    res = run_workload(args.workload, args.seed, args.seconds, trace)
    report(args.workload, args.seed, res, trace)
    record = machine_record(args.seed)
    record["samples"] = res.get("samples", {})
    record["wall_s_median"] = median(res["walls"]) if res.get("walls") else None
    record["wall_s_upper"] = res.get("wall_upper")
    record["wall_s_passes"] = res.get("walls")
    print("record: " + json.dumps(record))
    units = PER_LAYER if trace else UNITS
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
