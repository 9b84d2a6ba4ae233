"""Numerical laboratory for nonlinear gauge transformations and the
gauge-closed ten-coefficient family of nonlinear Schrodinger evolutions on
periodic 1D/2D boxes."""

__version__ = "0.1.0"

from .grid import (GridSpec, differentiate, ensure_field, integrate, l2_norm,
                   laplacian, make_grid)
from .functionals import (DEFAULT_POLICY, PhasePair, RegularizationPolicy,
                          current, density, divergence, modulus_phase,
                          unwrap_phase)
from .gauge import GaugeTransform, apply_gauge, compose, identity, invert
from .dynamics import (NLSECoefficients, NumericalBlowupError,
                       SimulationConfig, Trajectory, evolve,
                       evolve_linear_exact, rhs, stability_bound, step_rk4)
from .equivalence import (EquivalenceReport, coefficients_from_hydrodynamic,
                          commuting_residual, hydrodynamic_coefficients,
                          linearizable_constraints, push_forward_family)
from .ensembles import (InvariantViolation, MixedState,
                        equivalent_decompositions, kernel_distance,
                        marginal_density, mixed_divergence, product_grid,
                        separability_residual, tensor_product)
from . import states
