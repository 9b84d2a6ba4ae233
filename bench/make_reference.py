"""Regenerate the stored final frames used by the default-seed checks.

    python3 bench/make_reference.py

Runs the ``family-1d`` and ``evolve-2d-cli`` experiments of the default seed
through the CLI, parses the final frame of each ``frames.csv`` back, and
writes ``bench/reference/<workload>.npz`` plus ``reference.json``, which
records the commit, versions, and each experiment's full config (dt, grid,
coefficients, state). The checks refuse a reference whose config differs from
the one the benchmark generates. Regenerate only when a change is meant to
alter the numbers, and say so in that change.
"""

import contextlib
import io
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from nlgauge import cli  # noqa: E402
from checks import REFERENCE_DIR, read_frames  # noqa: E402
from workloads import DEFAULT_SEED, generate  # noqa: E402


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    work = HERE.parent / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    meta = {"commit": _commit(), "seed": DEFAULT_SEED,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "workloads": {}}
    for workload in ("family-1d", "evolve-2d-cli"):
        finals, entries = {}, {}
        for exp in generate(workload, DEFAULT_SEED):
            out = work / workload / exp["name"]
            out.mkdir(parents=True)
            (out / "config.json").write_text(json.dumps(exp["config"]))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(out / "config.json"), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{workload}/{exp['name']} exited with {code}")
            _, frames, fails = read_frames(out / "frames.csv", exp["config"])
            if fails:
                raise SystemExit(f"{workload}/{exp['name']}: {fails}")
            finals[exp["name"]] = frames[-1]
            entries[exp["name"]] = {"dt": exp["config"]["run"]["dt"],
                                    "grid": exp["config"]["grid"],
                                    "config": exp["config"]}
        np.savez_compressed(REFERENCE_DIR / f"{workload}.npz", **finals)
        meta["workloads"][workload] = entries
    (REFERENCE_DIR / "reference.json").write_text(json.dumps(meta, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {REFERENCE_DIR} at commit {meta['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
