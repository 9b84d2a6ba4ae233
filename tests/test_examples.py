"""Every demo script and the README's library example run to completion.

Each runs in a fresh interpreter with the package from this checkout, so a
public name that a demo or the README still uses but the package no longer
has fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def readme_library_usage():
    """The first python block under the README's "Library usage" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run_python([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_library_usage_runs():
    done = run_python(["-c", readme_library_usage()])
    assert done.returncode == 0, done.stderr
