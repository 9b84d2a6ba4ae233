"""Gauging the linear Schrodinger equation into a nonlinear but linearizable
evolution.

A transform with parameters (gamma, lam) applied to solutions of the linear
equation produces solutions of a nonlinear family member whose coefficients
are constrained functions of (gamma, lam, nu1, mu0). The commuting diagram

    evolve linearly, then gauge  ==  gauge, then evolve nonlinearly

is measured as an L2 residual; it vanishes at the solver's order under dt
refinement. Deliberately corrupting one pushed coefficient breaks the diagram
by orders of magnitude, which is what certifies the coefficient law.
"""

import dataclasses

import numpy as np

import nlgauge as ng
from nlgauge import GaugeTransform, NLSECoefficients

grid = ng.make_grid(1, 64, 30.0)
x = grid.axis_coordinate()
u = -2.0 * (1 - np.cos(2 * np.pi * (x - 15.0) / 30.0))
s = 0.5 * np.sin(2 * np.pi * x / 30.0)
psi0 = np.exp(u + 1j * s)
psi0 /= ng.l2_norm(psi0, grid)

c_lin = NLSECoefficients(nu1=-0.5)
print("pushed coefficients of the gauged linear equation:")
for gamma, lam in [(0.5, 2.0), (2.0, 0.5), (-2.0, -1.0)]:
    cp = ng.push_forward_family(GaugeTransform(gamma, lam), c_lin)
    print(f"  (gamma={gamma:+.1f}, lam={lam:+.1f}) -> nu1'={cp.nu1:+.3f} "
          f"nu2'={cp.nu2:+.3f} mu1'={cp.mu1:+.3f} mu2'={cp.mu2:+.3f} "
          f"mu4'={cp.mu4:+.3f} mu5'={cp.mu5:+.3f}")
    constraints = ng.linearizable_constraints(cp)
    print(f"      constraint residuals: {max(abs(v) for v in constraints.values()):.1e}")

cfg = ng.SimulationConfig(dt=0.02, t_final=0.1, output_every=1)
g = GaugeTransform(2.0, 0.5)
rep = ng.commuting_residual(g, c_lin, psi0, grid, cfg)
print(f"\ncommuting diagram for (gamma=2, lam=0.5):")
print(f"  residual_sup = {rep.residual_sup:.3e}")
print(f"  after dt/2   = {rep.residual_sup_fine:.3e}  (order {rep.refinement_order:.2f})")

cp = ng.push_forward_family(g, c_lin)
wrong = dataclasses.replace(cp, nu2=1.1 * cp.nu2)
bad = ng.commuting_residual(g, c_lin, psi0, grid, cfg, cp=wrong, refine=False)
print(f"  with nu2' off by 10%: {bad.residual_sup:.3e} "
      f"({bad.residual_sup / rep.residual_sup:.0f}x the correct law)")
