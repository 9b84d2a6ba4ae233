"""Acceptance suite: one test per criterion, each printing a PASS line with
its key measurements once the assertions hold. Scenario constants are pinned
here, not tuned at runtime; random draws are seeded.

Run with `pytest tests/test_acceptance.py -v -s` to see the measurement lines.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import (GaugeTransform, NLSECoefficients, SimulationConfig,
                     apply_gauge, cli, compose)

from conftest import trig_packet


def report(num, detail):
    print(f"[criterion {num:2d}] PASS  {detail}")


def test_criterion_01_linear_oracle_fidelity():
    # free gaussian, N=256, L=40*sigma, nu1=-1/2, dt=1e-4, t=1 vs closed form
    t0 = time.perf_counter()
    grid = ng.make_grid(1, 256, 40.0)
    psi0 = ng.states.gaussian(grid, center=20.0, width=1.0, momentum=0.5)
    cfg = SimulationConfig(dt=1e-4, t_final=1.0, output_every=10000)
    traj = ng.evolve(NLSECoefficients(nu1=-0.5), psi0, grid, cfg)
    exact = ng.states.free_gaussian_exact(grid, 1.0, center=20.0, width=1.0,
                                          momentum=0.5, nu1=-0.5)
    err = float(np.max(np.abs(traj.final() - exact)))
    elapsed = time.perf_counter() - t0
    assert err <= 1e-8
    assert elapsed <= 10.0
    report(1, f"L_inf error {err:.3e} <= 1e-8, runtime {elapsed:.1f}s <= 10s")


def test_criterion_02_density_invariance():
    # 100 random nodeless fields x 100 random gauges, |gamma|<=5, 0.1<=|lam|<=10
    grid = ng.make_grid(1, 128, 20.0)
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(100):
        psi = ng.states.random_nodeless_field(grid, rng)
        g = GaugeTransform(gamma=rng.uniform(-5.0, 5.0),
                           lam=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0),
                           theta=rng.uniform(-3.0, 3.0))
        rho = ng.density(psi)
        dev = float(np.max(np.abs(ng.density(apply_gauge(g, psi)) - rho)))
        worst = max(worst, dev / float(rho.max()))
        assert dev <= 1e-12 * float(rho.max())
    report(2, f"100 trials, worst relative deviation {worst:.3e} <= 1e-12")


def test_criterion_03_gauge_group_axioms():
    grid = ng.make_grid(1, 128, 20.0)
    rng = np.random.default_rng(42)

    # parameter level at the full bounds, relative 1e-14
    worst_param = 0.0
    for _ in range(50):
        g1, g2, g3 = (GaugeTransform(rng.uniform(-5, 5),
                                     rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 1),
                                     rng.uniform(-1, 1)) for _ in range(3))
        left, right = compose(g3, compose(g2, g1)), compose(compose(g3, g2), g1)
        scale = max(1.0, abs(left.gamma), abs(left.lam),
                    float(np.max(np.abs(np.asarray(left.theta)))))
        d = max(abs(left.gamma - right.gamma), abs(left.lam - right.lam),
                float(np.max(np.abs(np.asarray(left.theta) - np.asarray(right.theta)))))
        worst_param = max(worst_param, d / scale)
        assert d <= 1e-14 * scale
        ginv = ng.invert(g1)
        for h in (compose(g1, ginv), compose(ginv, g1)):
            assert abs(h.gamma) <= 1e-14 * max(1.0, abs(g1.gamma))
            assert abs(h.lam - 1.0) <= 1e-14
        ident = compose(ng.identity(), g1)
        assert ident.gamma == g1.gamma and ident.lam == g1.lam

    # applied level on branch-safe nodeless states, 1e-10
    worst_app = 0.0
    for _ in range(50):
        psi = ng.states.random_nodeless_field(grid, rng)
        g1 = GaugeTransform(rng.uniform(-1.5, 1.5),
                            rng.choice([-1, 1]) * rng.uniform(0.5, 2.0),
                            rng.uniform(-0.1, 0.1))
        g2 = GaugeTransform(rng.uniform(-1.5, 1.5),
                            rng.choice([-1, 1]) * rng.uniform(0.5, 2.0),
                            rng.uniform(-0.1, 0.1))
        two = apply_gauge(g2, apply_gauge(g1, psi))
        one = apply_gauge(compose(g2, g1), psi)
        d = float(np.max(np.abs(two - one)))
        worst_app = max(worst_app, d)
        assert d <= 1e-10
        back = apply_gauge(ng.invert(g1), apply_gauge(g1, psi))
        assert float(np.max(np.abs(back - psi))) <= 1e-10
    report(3, f"50 triples: parameter worst {worst_param:.2e} <= 1e-14, "
              f"applied worst {worst_app:.2e} <= 1e-10")


GAMMAS = (0.5, -0.5, 2.0, -2.0)
LAMBDAS = (0.5, 2.0, -1.0)


def test_criterion_04_linearizability_diagram():
    t0 = time.perf_counter()
    grid = ng.make_grid(1, 64, 30.0)
    psi0 = trig_packet(grid, depth=2.0, s1=0.5)
    c_lin = NLSECoefficients(nu1=-0.5)
    cfg = SimulationConfig(dt=0.02, t_final=0.1, output_every=1)

    rep_id = ng.commuting_residual(ng.identity(), c_lin, psi0, grid, cfg,
                                   refine=False)
    assert rep_id.residual_sup <= 1e-12

    worst_order = np.inf
    for gamma in GAMMAS:
        for lam in LAMBDAS:
            rep = ng.commuting_residual(GaugeTransform(gamma, lam), c_lin,
                                        psi0, grid, cfg)
            assert rep.residual_sup_fine < rep.residual_sup
            assert rep.refinement_order >= 1.5, (gamma, lam)
            worst_order = min(worst_order, rep.refinement_order)
            pushed = ng.push_forward_family(GaugeTransform(gamma, lam), c_lin)
            for name, resid in ng.linearizable_constraints(pushed).items():
                assert abs(resid) <= 1e-12, (gamma, lam, name)

    # negative control: one pushed coefficient off by 10%
    g = GaugeTransform(2.0, 0.5)
    good = ng.commuting_residual(g, c_lin, psi0, grid, cfg, refine=False)
    cp = ng.push_forward_family(g, c_lin)
    bad = ng.commuting_residual(g, c_lin, psi0, grid, cfg,
                                cp=dataclasses.replace(cp, nu2=1.1 * cp.nu2),
                                refine=False)
    ratio = bad.residual_sup / good.residual_sup
    assert ratio >= 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(4, f"12 gauges: worst order {worst_order:.2f} >= 1.5, identity "
              f"{rep_id.residual_sup:.1e}, control ratio {ratio:.0f}x, "
              f"runtime {elapsed:.1f}s <= 120s")


def test_criterion_05_family_closure():
    grid = ng.make_grid(1, 64, 30.0)
    psi0 = trig_packet(grid, depth=2.0, s1=0.5)
    c = NLSECoefficients(nu1=-0.5, nu2=0.05, mu1=0.1, alpha1=0.2)
    g1 = GaugeTransform(0.7, 1.3)
    g2 = GaugeTransform(-0.4, 0.8)
    g12 = compose(g2, g1)

    two_step = ng.push_forward_family(g2, ng.push_forward_family(g1, c))
    one_step = ng.push_forward_family(g12, c)
    coeff_dev = float(np.max(np.abs(two_step.as_array() - one_step.as_array())))
    assert coeff_dev <= 1e-12

    cfg = SimulationConfig(dt=0.02, t_final=0.1, output_every=1)
    orders = []
    for g in (g1, g2, g12):
        rep = ng.commuting_residual(g, c, psi0, grid, cfg)
        assert rep.refinement_order >= 1.5
        orders.append(rep.refinement_order)
    report(5, f"orders {', '.join(f'{o:.2f}' for o in orders)} >= 1.5, "
              f"group action on coefficients {coeff_dev:.1e} <= 1e-12")


def test_criterion_06_norm_conservation_across_family():
    # 10 random settings, |coeff| <= 0.5, from the dispersive (well-posed)
    # sector: tr = 2(nu2 + nu1 mu1) >= 0, det = nu1^2 + 2 nu1 mu2
    # + 4 nu1 nu2 mu1 >= 0.02, alpha1*nu1 <= 0 — ill-posed members steepen at
    # e^{c k^2 t} and no integrator holds them to t = 1. The draws are the
    # members of one batched evolve; each keeps its own drift.
    t0 = time.perf_counter()
    grid = ng.make_grid(1, 256, 40.0)
    psi0 = ng.states.gaussian(grid, width=6.0, momentum=3 * 2 * np.pi / 40.0)
    rng = np.random.default_rng(20260809)
    draws = []
    for _ in range(10):
        while True:
            vals = rng.uniform(-0.5, 0.5, size=10)
            vals[0] = -0.5
            vals[1] = abs(vals[1])
            tr = 2.0 * (vals[1] + vals[0] * vals[3])
            det = vals[0] ** 2 + 2 * vals[0] * vals[4] + 4 * vals[0] * vals[1] * vals[3]
            if tr >= 0.0 and det >= 0.02 and vals[8] * vals[0] <= 0.0:
                break
        draws.append(NLSECoefficients.from_array(vals))
    cfg = SimulationConfig(dt=1e-4, t_final=1.0, output_every=1000)
    trajs = ng.evolve(draws, np.array([psi0] * len(draws)), grid, cfg)
    assert len(trajs) == len(draws)
    worst = 0.0
    for traj in trajs:
        worst = max(worst, traj.norm_drift)
        assert traj.norm_drift <= 1e-6
    elapsed = time.perf_counter() - t0
    report(6, f"10 draws at N=256, dt=1e-4, t=1: worst drift {worst:.2e} <= 1e-6, "
              f"runtime {elapsed:.1f}s")


def test_criterion_07_fokker_planck_continuity():
    grid = ng.make_grid(1, 64, 20.0)
    psi0 = trig_packet(grid)
    c = NLSECoefficients(nu1=-0.5, nu2=0.1)

    def residual(dt):
        cfg = SimulationConfig(dt=dt, t_final=0.08, output_every=1)
        traj = ng.evolve(c, psi0, grid, cfg)
        i = len(traj.frames) // 2
        drho = (ng.density(traj.frames[i + 1])
                - ng.density(traj.frames[i - 1])) / (2.0 * dt)
        psi = traj.frames[i]
        rhs_fp = -ng.divergence(ng.current(psi, grid, c.nu1), grid) \
            + 2.0 * c.nu2 * ng.laplacian(ng.density(psi) + 0j, grid).real
        return float(np.max(np.abs(drho - rhs_fp)))

    r1, r2, r3 = residual(8e-3), residual(4e-3), residual(2e-3)
    o1, o2 = float(np.log2(r1 / r2)), float(np.log2(r2 / r3))
    assert 1.5 <= o1 <= 2.5
    assert 1.5 <= o2 <= 2.5
    report(7, f"residuals {r1:.2e} -> {r2:.2e} -> {r3:.2e}, "
              f"orders {o1:.2f}, {o2:.2f} (≈ 2)")


def test_criterion_08_rk4_order():
    grid = ng.make_grid(1, 64, 20.0)
    psi0 = trig_packet(grid)
    c = NLSECoefficients(nu1=-0.5, nu2=0.05, mu1=0.1, mu2=0.05, mu4=-0.05,
                         mu5=0.02, alpha1=0.1)
    finals = []
    for level in range(3):
        cfg = SimulationConfig(dt=0.02 / 2 ** level, t_final=0.4,
                               output_every=10 ** 6)
        finals.append(ng.evolve(c, psi0, grid, cfg).final())
    e1 = ng.l2_norm(finals[0] - finals[1], grid)
    e2 = ng.l2_norm(finals[1] - finals[2], grid)
    order = float(np.log2(e1 / e2))
    assert 3.5 <= order <= 4.5
    report(8, f"self-convergence errors {e1:.2e}, {e2:.2e}: order {order:.2f} in [3.5, 4.5]")


def test_criterion_09_separability():
    t0 = time.perf_counter()
    grid = ng.make_grid(1, 128, 32.0)
    p1 = ng.states.gaussian(grid, width=4.0)
    p2 = ng.states.gaussian(grid, width=4.0)
    c = NLSECoefficients(nu1=-0.5, nu2=0.05, mu1=0.05, mu2=0.05, mu3=0.05,
                         mu4=0.05, mu5=0.05, alpha1=0.05, alpha2=0.05)
    cfg = SimulationConfig(dt=0.01, t_final=0.5, output_every=10)
    series, traj2d, traj1, _ = ng.separability_residual(c, p1, p2, grid, cfg)
    sup = max(v for _, v in series)
    assert sup <= 1e-5

    fine = SimulationConfig(dt=0.005, t_final=0.5, output_every=20)
    series_fine, *_ = ng.separability_residual(c, p1, p2, grid, fine)
    sup_fine = max(v for _, v in series_fine)
    assert sup_fine < 0.5 * sup  # converging under refinement

    # marginal of the 2D run equals the 1D density evolution
    marg = ng.marginal_density(traj2d.final(), ng.product_grid(grid), axis=0)
    marg_err = float(np.max(np.abs(marg - ng.density(traj1.final()))))
    assert marg_err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    report(9, f"residual {sup:.2e} <= 1e-5, refined {sup_fine:.2e}, marginal "
              f"error {marg_err:.1e}, runtime {elapsed:.0f}s <= 300s")


def test_criterion_10_mixed_state_divergence():
    grid = ng.make_grid(1, 256, 40.0)
    psi_a, psi_b = ng.states.two_gaussian_pair(grid)  # +/- L/8, width L/32
    dec_a, dec_b = ng.equivalent_decompositions(psi_a, psi_b, np.pi / 4, grid)
    cfg = SimulationConfig(dt=1e-3, t_final=1.0, output_every=20)

    linear = ng.mixed_divergence(NLSECoefficients(nu1=-0.5), dec_a, dec_b, cfg)
    baseline = max(v for _, v in linear)
    assert baseline <= 1e-9

    log_nl = ng.mixed_divergence(NLSECoefficients(nu1=-0.5, alpha1=1.0),
                                 dec_a, dec_b, cfg)
    peak = max(v for _, v in log_nl)
    assert peak >= 100.0 * max(baseline, 1e-12)
    report(10, f"linear baseline {baseline:.2e} <= 1e-9, log-NLSE peak "
               f"{peak:.2e} >= 100x baseline")


def test_criterion_11_determinism(tmp_path):
    configs = {
        "evolve": {
            "experiment": "evolve",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "coefficients": {"nu1": -0.5, "nu2": 0.05, "alpha1": 0.1},
            "initial_state": {"preset": "gaussian", "width": 2.0,
                              "momentum": 2 * np.pi / 20.0},
            "run": {"dt": 1e-3, "t_final": 0.05, "output_every": 25, "seed": 3},
        },
        "gauge-check": {
            "experiment": "gauge-check",
            "grid": {"dimension": 1, "n": 64, "length": 20.0},
            "trials": 40,
            "run": {"dt": 1e-3, "t_final": 1.0, "seed": 99},
        },
    }
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert cli.run(cfg_path, out_a) == 0
        # re-run from the emitted manifest, not the original config
        assert cli.run(out_a / "manifest.json", out_b) == 0
        for csv_name in ("frames.csv", "series.csv"):
            fa, fb = out_a / csv_name, out_b / csv_name
            if fa.exists():
                assert fa.read_bytes() == fb.read_bytes(), (name, csv_name)
    report(11, "evolve and gauge-check CSVs byte-identical when re-run from manifests")
