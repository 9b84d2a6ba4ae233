"""Set-up probe: a fresh interpreter runs one CLI config up to its first
evolution and exits there.

    python3 bench/probe_setup.py <config.json> <out_dir>

It covers ``import nlgauge``, argument parsing, config resolution and the
grid, state and potential build. At the first call of ``evolve`` it writes
``time.perf_counter()`` to standard output and exits with status 0; the
caller subtracts its own ``perf_counter()`` taken just before the spawn (on
Linux both read the system-wide CLOCK_MONOTONIC). Any other exit status is a
failure.
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nlgauge.cli  # noqa: E402
from nlgauge import dynamics  # noqa: E402


def _stop(*args, **kwargs):
    os.write(1, repr(time.perf_counter()).encode())
    os._exit(0)


def main(config: str, out_dir: str) -> int:
    evolve = dynamics.evolve
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "nlgauge":
            for key, value in list(vars(module).items()):
                if value is evolve:
                    setattr(module, key, _stop)
    with open(os.devnull, "w") as sink:
        sys.stdout = sink
        nlgauge.cli.main(["run", config, "--out", out_dir])
    return 5  # the config finished without ever evolving


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
