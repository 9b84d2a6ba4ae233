"""``tools/output_digest.py`` on one seed: one sorted ``<sha256>  <path>``
line per output file of the benchmark's CLI configs."""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digest  # noqa: E402

LINE = re.compile(r"[0-9a-f]{64}  (family-1d|evolve-2d-cli|certify)-s0/[\w-]+/[\w.-]+")


def test_one_line_per_output_file_sorted_by_path(capsys):
    assert output_digest.main(["--seeds", "0"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 30
    assert all(LINE.fullmatch(line) for line in lines), lines
    paths = [line.split("  ")[1] for line in lines]
    assert paths == sorted(set(paths))
    assert "evolve-2d-cli-s0/evolve2d/frames.csv" in paths
    assert {p.split("/")[-1] for p in paths} == {"frames.csv", "series.csv",
                                                  "manifest.json"}
