"""Print a digest of every output file of the benchmark's CLI configs.

    python3 tools/output_digest.py [--seeds 0 1]

For each seed and each workload of ``bench/workloads.py``, every CLI config
that ``workloads.generate`` makes is run as ``nlgauge run <config> --out
<dir>`` would run it, in this process, from the ``src/`` of the tree that
holds this script, into a temporary directory. The library experiments of a
workload (the negative control) write no files and are left out. One line is
printed per output file, sorted by its path:

    <sha256>  <workload>-s<seed>/<experiment>/<file>

Two source trees write the same bytes when their digests are equal: run the
script in each tree (copy it into one that lacks it) and compare the two
listings with ``diff``. A run that exits non-zero is named on standard error,
and the script then exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, generate  # noqa: E402

from nlgauge import cli  # noqa: E402


def digests(seeds, work: Path):
    """(lines, failures): one ``<sha256>  <path>`` line per output file of
    every CLI config of every workload and seed, and the runs that failed."""
    lines, failures = [], []
    for seed in seeds:
        for workload in WORKLOADS:
            label = f"{workload}-s{seed}"
            for exp in generate(workload, seed):
                if "config" not in exp:
                    continue
                config = work / "configs" / label / f"{exp['name']}.json"
                config.parent.mkdir(parents=True, exist_ok=True)
                config.write_text(json.dumps(exp["config"]))
                out = work / "out" / label / exp["name"]
                with contextlib.redirect_stdout(io.StringIO()) as said:
                    status = cli.main(["run", str(config), "--out", str(out)])
                if status:
                    failures.append(f"{label}/{exp['name']}: exit {status}: "
                                    f"{said.getvalue().strip()}")
    outputs = {p.relative_to(work / "out").as_posix(): p
               for p in (work / "out").rglob("*") if p.is_file()}
    for name in sorted(outputs):
        lines.append(f"{hashlib.sha256(outputs[name].read_bytes()).hexdigest()}  {name}")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        help="workload seeds (default: 0 1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines, failures = digests(args.seeds, Path(tmp))
    for line in lines:
        print(line)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
