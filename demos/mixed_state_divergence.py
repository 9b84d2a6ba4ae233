"""Decomposition dependence of nonlinear ensemble evolution.

Two different pure-state decompositions of the same density matrix are
evolved component by component. Linear dynamics keeps their kernels equal
forever; switching on the logarithmic nonlinearity makes the kernels diverge,
so the "mixed state" no longer determines the future — the structural reason
nonlinear one-particle evolutions clash with the density-matrix picture.
"""

import numpy as np

import nlgauge as ng
from nlgauge import NLSECoefficients, SimulationConfig

grid = ng.make_grid(1, 256, 40.0)
psi_a, psi_b = ng.states.two_gaussian_pair(grid)   # centers +/- L/8, width L/32
dec_a, dec_b = ng.equivalent_decompositions(psi_a, psi_b, np.pi / 4, grid)

print(f"kernel distance at t=0: {ng.kernel_distance(dec_a, dec_b):.2e} "
      "(same mixed state by construction)")

cfg = SimulationConfig(dt=1e-3, t_final=1.0, output_every=100)
linear = ng.mixed_divergence(NLSECoefficients(nu1=-0.5), dec_a, dec_b, cfg)
log_nl = ng.mixed_divergence(NLSECoefficients(nu1=-0.5, alpha1=1.0),
                             dec_a, dec_b, cfg)

print(f"\n{'t':>5s} {'D(t) linear':>14s} {'D(t) log-NLSE':>14s}")
for (t, dl), (_, dn) in zip(linear, log_nl):
    print(f"{t:5.1f} {dl:14.3e} {dn:14.3e}")

base = max(v for _, v in linear)
peak = max(v for _, v in log_nl)
print(f"\nlinear evolution keeps the kernels equal to {base:.1e};")
print(f"the nonlinear run splits them to {peak:.1e} "
      f"({peak / max(base, 1e-300):.0e} times the linear baseline)")
