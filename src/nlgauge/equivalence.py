"""Coefficient push-forward under gauge transforms and the commuting-diagram
residual that certifies it.

Writing psi = exp(u + i S) (u = ln|psi|), every member of the family is
equivalent to a pair of real evolution equations

    du/dt = a1 lap S + a2 grad u . grad S + a3 lap u + a4 (grad u)^2
    dS/dt = b1 lap S + b2 grad u . grad S + b3 lap u + b4 (grad u)^2
            + b5 (grad S)^2 + b6 V + b7 u + b8 S

with coefficients

    a = (nu1, 2 nu1, 2 nu2, 4 nu2)
    b = (2 nu1 mu1,  4 nu1 (mu1 + mu4),  -nu1 - 2 mu2,  -nu1 - 4 mu2 - 4 mu5,
         nu1 - 4 nu1^2 mu3,  -mu0,  -2 alpha1,  -alpha2).

A constant gauge (gamma, lam) substitutes u' = u, S' = gamma*u + lam*S, which
acts linearly on (a, b); mapping back to the ten coefficients gives the
push-forward law. Because the substitutions compose exactly like the gauge
group, the law is automatically a group action. The algebra is certified
numerically by :func:`commuting_residual`, not trusted: gauge-then-evolve and
evolve-then-gauge must agree to the solver's order, and a deliberately
perturbed law must not. Its two paths (c on psi0, and c' on the gauged psi0)
are two members of one batched evolution per step size; each keeps its own
density floor and phase anchor.

:func:`push_forward_family` is the library's one push-forward; the gauged
linear equation is its image of a linear member. The closed form of that
image, derived on its own, is the tests' cross-check of the law
(``push_forward_linear`` in ``tests/conftest.py``).
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import NLSECoefficients, SimulationConfig, evolve
from .gauge import GaugeTransform, apply_gauge
from .grid import GridSpec, l2_norm


def hydrodynamic_coefficients(c: NLSECoefficients):
    """Map the ten coefficients to the (a, b) pair of the docstring."""
    a = np.array([c.nu1, 2.0 * c.nu1, 2.0 * c.nu2, 4.0 * c.nu2])
    b = np.array([
        2.0 * c.nu1 * c.mu1,
        4.0 * c.nu1 * (c.mu1 + c.mu4),
        -c.nu1 - 2.0 * c.mu2,
        -c.nu1 - 4.0 * c.mu2 - 4.0 * c.mu5,
        c.nu1 - 4.0 * c.nu1 ** 2 * c.mu3,
        -c.mu0,
        -2.0 * c.alpha1,
        -c.alpha2,
    ])
    return a, b


FORM_TOL = 1e-9  # relative slack of the family-form relations of (a, b)


def coefficients_from_hydrodynamic(a, b) -> NLSECoefficients:
    """Invert the map; rejects pairs outside the family's reach, to the
    relative slack :data:`FORM_TOL`."""
    if abs(a[1] - 2.0 * a[0]) > FORM_TOL * max(1.0, abs(a[0])) \
            or abs(a[3] - 2.0 * a[2]) > FORM_TOL * max(1.0, abs(a[2])):
        raise ValueError("hydrodynamic pair is not of family form")
    nu1 = a[0]
    nu2 = a[2] / 2.0
    mu0 = -b[5]
    if nu1 == 0.0:
        # J vanishes identically: the J-quotient channels must be absent
        if max(abs(b[0]), abs(b[1]), abs(b[4])) > FORM_TOL:
            raise ValueError("nu1 == 0 but current-based terms are present")
        mu1 = mu3 = mu4 = 0.0
    else:
        mu1 = b[0] / (2.0 * nu1)
        mu4 = b[1] / (4.0 * nu1) - mu1
        mu3 = (nu1 - b[4]) / (4.0 * nu1 ** 2)
    mu2 = -(b[2] + nu1) / 2.0
    mu5 = (-b[3] - nu1 - 4.0 * mu2) / 4.0
    alpha1 = -b[6] / 2.0
    alpha2 = -b[7]
    return NLSECoefficients(nu1=nu1, nu2=nu2, mu0=mu0, mu1=mu1, mu2=mu2,
                            mu3=mu3, mu4=mu4, mu5=mu5,
                            alpha1=alpha1, alpha2=alpha2)


def push_forward_family(g: GaugeTransform, c: NLSECoefficients) -> NLSECoefficients:
    """Coefficients c' such that psi solving the family with c implies
    N_g[psi] solves it with c'. Constant (gamma, lam), theta == 0 only
    (GaugeTransform itself refuses lam == 0)."""
    if not g.theta_is_zero:
        raise ValueError("coefficient push-forward requires theta == 0")
    if g.gamma == 0.0 and g.lam == 1.0:
        return c
    gam, lam = g.gamma, g.lam
    a, b = hydrodynamic_coefficients(c)
    ap = np.array([
        a[0] / lam,
        a[1] / lam,
        a[2] - gam * a[0] / lam,
        a[3] - gam * a[1] / lam,
    ])
    bp = np.array([
        b[0] + gam * a[0] / lam,
        b[1] + gam * a[1] / lam - 2.0 * gam * b[4] / lam,
        lam * b[2] + gam * a[2] - gam ** 2 * a[0] / lam - gam * b[0],
        lam * b[3] + gam * a[3] - gam ** 2 * a[1] / lam - gam * b[1]
        + gam ** 2 * b[4] / lam,
        b[4] / lam,
        lam * b[5],
        lam * b[6] - gam * b[7],
        b[7],
    ])
    return coefficients_from_hydrodynamic(ap, bp)


def linearizable_constraints(c: NLSECoefficients) -> dict:
    """Residuals of the algebraic relations satisfied by every gauged-linear
    coefficient set; all zero exactly on the push-forwards of the linear
    members (nu1, mu0)."""
    return {
        "mu3": c.mu3,
        "mu1_plus_mu4": c.mu1 + c.mu4,
        "mu2_plus_2mu5": c.mu2 + 2.0 * c.mu5,
        "nu2_plus_nu1_mu1": c.nu2 + c.nu1 * c.mu1,
        "alpha1": c.alpha1,
        "alpha2": c.alpha2,
    }


@dataclass
class EquivalenceReport:
    """Commuting-diagram residuals and their dt-refinement behaviour."""

    residual_sup: float
    residual_series: list
    refinement_order: float
    residual_sup_fine: float
    regularized_fraction: float

    @property
    def flagged_near_nodes(self) -> bool:
        return self.regularized_fraction > 0.0


def commuting_residual(g: GaugeTransform, c: NLSECoefficients,
                       psi0: np.ndarray, grid: GridSpec,
                       config: SimulationConfig,
                       V: np.ndarray | None = None,
                       cp: NLSECoefficients | None = None,
                       refine: bool = True) -> EquivalenceReport:
    """L2 distance between gauge-then-evolve and evolve-then-gauge.

    Path A evolves psi0 under c and gauges every output frame; path B evolves
    the gauged initial state under cp (the push-forward of c unless an
    explicit cp is supplied, e.g. for negative controls). Both gauges use the
    density floor of ``config.policy``, so the paths agree at t=0 at any
    floor. The two paths are the two members of one batched :func:`evolve`
    call, c and cp as two rows: each keeps its own density floor and phase
    anchor, the term blocks are the union of both (a linear path A
    multiplies finite fields by 0), and an abort names the path that failed
    (member 0 is A, member 1 is B). With ``refine`` the run is repeated at
    dt/2 and the observed order log2(sup/sup_fine) is reported; the series
    itself is from the base dt.
    """
    if cp is None:
        cp = push_forward_family(g, c)
    psi0_p = apply_gauge(g, psi0, config.policy)

    def residuals(cfg):
        series = []

        def on_frame(t, pair):  # each frame's residual as it is made; none is kept
            gauged = apply_gauge(g, pair[0], cfg.policy)  # psi0_p's floor, too
            series.append((float(t), l2_norm(gauged - pair[1], grid)))

        traj_a, traj_b = evolve([c, cp], np.stack([psi0, psi0_p]), grid, cfg, V,
                                on_frame=on_frame)
        frac = float(max(traj_a.regularized_fractions.max(),
                         traj_b.regularized_fractions.max()))
        return series, frac

    series, frac = residuals(config)
    sup = max(v for _, v in series)
    sup_fine = float("nan")
    order = float("nan")
    if refine:
        series_fine, frac_fine = residuals(config.refined())
        frac = max(frac, frac_fine)
        sup_fine = max(v for _, v in series_fine)
        if sup > 0.0 and sup_fine > 0.0:
            order = float(np.log2(sup / sup_fine))
        elif sup == 0.0 and sup_fine == 0.0:
            order = float("inf")
    return EquivalenceReport(residual_sup=sup, residual_series=series,
                             refinement_order=order,
                             residual_sup_fine=sup_fine,
                             regularized_fraction=frac)
