"""Seeded generation of the benchmark workloads.

Each workload is a list of *experiments*. An experiment is either a CLI
config (a dict that is written to JSON and run with ``nlgauge run``) or, for
``certify``, one library negative control. The program only ever sees these
generated inputs; the same seed always gives the same list.

Why these three workloads (see also BENCHMARK.json):

- ``family-1d``: well-posed draws of all ten coefficients at N=256. Each
  ``rhs`` call is dominated by dispatch and temporaries on small arrays, and
  the CLI writes almost nothing, so the evolution layer does almost all the
  work.
- ``evolve-2d-cli``: one 2D 128^2 evolution with eleven output frames. The
  ``rhs`` is bound by FFT arithmetic and ``write_frames_csv`` takes about half
  of the run.
- ``certify``: the oracle experiments (commuting diagram, linearizability,
  mixed-state divergence, separability, density invariance) plus a corrupted
  law. Many short related evolutions, the linear ``rhs`` path, gauges on
  every frame and N x N kernels.
"""

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("family-1d", "evolve-2d-cli", "certify")

LENGTH = 40.0
WIDTH = 6.0
K0 = 2.0 * np.pi / LENGTH  # lowest periodic momentum

FAMILY_DRAWS = 4
FAMILY_N = 256
FAMILY_DT = 1e-4
FAMILY_STEPS = 200

EVOLVE2D_N = 128
EVOLVE2D_DT = 0.01
EVOLVE2D_STEPS = 10

# grid of the rhs term-group timings of the traced run, per workload
RHS_GRID = {"family-1d": {"dimension": 1, "n": FAMILY_N, "length": LENGTH},
            "evolve-2d-cli": {"dimension": 2, "n": EVOLVE2D_N, "length": LENGTH},
            "certify": {"dimension": 1, "n": 256, "length": LENGTH}}

GAUGES_PER_SWEEP = 3
README_MEMBER = {"nu1": -0.5, "nu2": 0.05, "mu1": 0.1, "alpha1": 0.2}
LINEAR_MEMBER = {"nu1": -0.5}
ALL_EIGHT = {k: 0.05 for k in ("nu2", "mu1", "mu2", "mu3", "mu4", "mu5",
                               "alpha1", "alpha2")}


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def criterion06_draw(rng) -> dict:
    """One draw of the ten coefficients from the well-posed sector used by
    acceptance criterion 06: nu1 = -0.5, |c| <= 0.5, tr >= 0, det >= 0.02,
    alpha1 * nu1 <= 0."""
    keys = ("nu1", "nu2", "mu0", "mu1", "mu2", "mu3", "mu4", "mu5",
            "alpha1", "alpha2")
    while True:
        v = rng.uniform(-0.5, 0.5, size=10)
        v[0] = -0.5
        v[1] = abs(v[1])
        tr = 2.0 * (v[1] + v[0] * v[3])
        det = v[0] ** 2 + 2 * v[0] * v[4] + 4 * v[0] * v[1] * v[3]
        if tr >= 0.0 and det >= 0.02 and v[8] * v[0] <= 0.0:
            return dict(zip(keys, map(float, v)))


def _family_1d(rng) -> list:
    out = []
    for i in range(FAMILY_DRAWS):
        out.append({"name": f"draw{i}", "config": {
            "experiment": "evolve",
            "grid": {"dimension": 1, "n": FAMILY_N, "length": LENGTH},
            "coefficients": criterion06_draw(rng),
            "initial_state": {"preset": "gaussian", "center": LENGTH / 2,
                              "width": WIDTH, "momentum": 3 * K0},
            "run": {"dt": FAMILY_DT, "t_final": FAMILY_DT * FAMILY_STEPS,
                    "output_every": FAMILY_STEPS, "seed": _seed(rng)},
        }})
    return out


def _evolve_2d(rng) -> list:
    # The momentum is a whole multiple of 2*pi/L so the state stays periodic.
    mode = int(rng.integers(2, 5))
    return [{"name": "evolve2d", "config": {
        "experiment": "evolve",
        "grid": {"dimension": 2, "n": EVOLVE2D_N, "length": LENGTH},
        "coefficients": {"nu1": -0.5, **ALL_EIGHT},
        "initial_state": {"preset": "gaussian", "center": LENGTH / 2,
                          "width": WIDTH, "momentum": mode * K0},
        "run": {"dt": EVOLVE2D_DT, "t_final": EVOLVE2D_DT * EVOLVE2D_STEPS,
                "output_every": 1, "seed": _seed(rng)},
    }}]


def _gauge(rng) -> dict:
    # |lambda| >= 1 keeps the pushed nu1 within the stability bound of dt, and
    # |gamma| >= 0.3 keeps the gauge away from the identity, where the
    # residual sinks to rounding and the refinement order is undefined.
    gamma = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
    lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0))
    return {"gamma": gamma, "lambda": lam, "theta_const": 0.0}


def _certify(rng) -> list:
    grid = {"dimension": 1, "n": 256, "length": LENGTH}
    # Modes up to 8 put the commuting-diagram residual near 1e-11, well
    # above rounding, so the refinement order is measurable on every seed.
    nodeless8 = {"preset": "random-nodeless", "max_mode": 8}
    out = []
    for label, member in (("readme", README_MEMBER), ("linear", LINEAR_MEMBER)):
        for i in range(GAUGES_PER_SWEEP):
            out.append({"name": f"equivalence-{label}{i}", "config": {
                "experiment": "equivalence", "grid": grid,
                "coefficients": dict(member), "gauge": _gauge(rng),
                "initial_state": nodeless8,
                "run": {"dt": 0.008, "t_final": 0.08, "output_every": 1,
                        "seed": _seed(rng)},
            }})
    angle = float(rng.uniform(np.pi / 8, 3 * np.pi / 8))
    for label, member in (("linear", LINEAR_MEMBER),
                          ("log", {"nu1": -0.5, "alpha1": 1.0})):
        out.append({"name": f"mixprobe-{label}", "config": {
            "experiment": "mixprobe", "grid": grid,
            "coefficients": dict(member), "angle": angle,
            "initial_state": {"preset": "two-gaussian"},
            "run": {"dt": 1e-3, "t_final": 0.2, "output_every": 20},
        }})
    out.append({"name": "separability", "config": {
        "experiment": "separability",
        "grid": {"dimension": 1, "n": 64, "length": 32.0},
        "coefficients": {"nu1": -0.5, **ALL_EIGHT},
        "initial_state": {"preset": "random-nodeless"},
        "initial_state_y": {"preset": "random-nodeless"},
        "run": {"dt": 0.01, "t_final": 0.2, "output_every": 5,
                "seed": _seed(rng)},
    }})
    out.append({"name": "gauge-check", "config": {
        "experiment": "gauge-check", "grid": grid, "trials": 50,
        "run": {"dt": 1e-3, "t_final": 1.0, "seed": _seed(rng)},
    }})
    # Library negative control: the README member pushed by a gauge with a
    # clearly nonzero pushed nu2, which is then corrupted by 10 %.
    out.append({"name": "negative-control", "library": {
        "grid": grid, "coefficients": dict(README_MEMBER),
        "gauge": {"gamma": float(rng.uniform(0.5, 1.0)),
                  "lambda": float(rng.uniform(1.0, 2.0))},
        "corrupt": {"name": "nu2", "factor": 1.1},
        "dt": 0.008, "t_final": 0.08, "state_seed": _seed(rng),
    }})
    return out


def generate(workload: str, seed: int) -> list:
    """The experiments of one workload pass, made from ``seed`` alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"family-1d": _family_1d, "evolve-2d-cli": _evolve_2d,
            "certify": _certify}[workload](rng)
