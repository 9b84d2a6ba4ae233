"""Closed forms of every term of the family on psi = exp(u + iS).

With u and S trig polynomials, each term of :func:`nlgauge.rhs` has a
closed form in the exact derivatives of u and S (the hydrodynamic form that
:mod:`nlgauge.equivalence` documents):

    R1 = -2 nu1 (lap S + 2 grad u . grad S)     R2 = 2 lap u + 4 |grad u|^2
    R3 = 4 nu1^2 |grad S|^2                     R4 = -4 nu1 grad u . grad S
    R5 = 4 |grad u|^2
    lap psi / psi = lap u + i lap S + (grad u + i grad S)^2
    log rho = 2 u

and the ``alpha2`` phase is S on the branch whose value at the first maximum
of |psi| is the principal argument there. These oracles share no code with
``rhs``: no transform, no quotient and no unwrap. They certify ``rhs``, the
test reference :func:`conftest.quotient_reference` and, pointwise, the (a, b)
map of :func:`nlgauge.hydrodynamic_coefficients`.

The states are nodeless (rho never meets the floor) and their phase wraps
past pi, so the unwrap and the anchor branch are exercised. The 2D state is
not a product: its u and S carry terms in x + y and x - 2y, so every mixed
derivative and both current components are nonzero. Each bound is ten to a
hundred times the largest error measured on these states with numpy 2.4.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import nlgauge as ng
from nlgauge import NLSECoefficients

from conftest import quotient_reference

FULL = dict(nu1=-0.5, nu2=0.04, mu0=0.8, mu1=0.1, mu2=-0.05, mu3=0.07,
            mu4=0.03, mu5=-0.02, alpha1=0.1, alpha2=0.05)
TERMS = ("nu2", "mu0", "mu1", "mu2", "mu3", "mu4", "mu5", "alpha1", "alpha2")
DIMS = (1, 2)


def trig_poly(grid, terms):
    """f = sum of a cos(k.x + phase) over ``terms`` = [(a, modes, phase)],
    k = 2 pi modes / L, with its exact gradient (one row per axis) and
    Laplacian."""
    coords = np.reshape(grid.coordinates(), (grid.dimension,) + grid.shape)
    f, lap = np.zeros(grid.shape), np.zeros(grid.shape)
    grad = np.zeros((grid.dimension,) + grid.shape)
    for a, modes, phase in terms:
        k = 2 * np.pi * np.asarray(modes, dtype=float) / grid.length
        arg = np.tensordot(k, coords, axes=1) + phase
        f += a * np.cos(arg)
        grad -= a * k.reshape((-1,) + (1,) * grid.dimension) * np.sin(arg)
        lap -= a * (k @ k) * np.cos(arg)
    return f, grad, lap


def dot(a, b):
    """Pointwise dot product of two per-axis stacked vector fields."""
    return np.sum(a * b, axis=0)


def closed_form_state(grid, u_terms, s_terms, nu1=-0.5):
    """psi = exp(u + iS) and the closed form of every term of the family."""
    u, gu, lu = trig_poly(grid, u_terms)
    s, gs, ls = trig_poly(grid, s_terms)
    psi = np.exp(u + 1j * s)
    # the alpha2 phase is S on the branch that gives the principal argument
    # at the first maximum of |psi|
    anchor = np.unravel_index(np.argmax(np.abs(psi)), grid.shape)
    branch = 2 * np.pi * np.round((s[anchor] - np.angle(psi[anchor])) / (2 * np.pi))
    quot = {1: -2 * nu1 * (ls + 2 * dot(gu, gs)),
            2: 2 * lu + 4 * dot(gu, gu),
            3: 4 * nu1 ** 2 * dot(gs, gs),
            4: -4 * nu1 * dot(gu, gs),
            5: 4 * dot(gu, gu)}
    lap_over_psi = lu + 1j * ls + dot(gu, gu) - dot(gs, gs) + 2j * dot(gu, gs)
    return SimpleNamespace(psi=psi, u=u, grad_u=gu, lap_u=lu, grad_s=gs,
                           lap_s=ls, quot=quot, lap_over_psi=lap_over_psi,
                           phase=s - branch, nu1=nu1)


def state(dim):
    """The 1D state on 64 points and the non-product 2D state on 48^2; both
    on L = 20, with S offset by 3 so that it crosses pi and the branch at the
    anchor is S - 2 pi."""
    if dim == 1:
        grid = ng.make_grid(1, 64, 20.0)
        u = [(0.9, (1,), 0.0), (0.15, (2,), 0.4)]
        s = [(3.0, (0,), 0.0), (1.1, (1,), -np.pi / 2), (0.3, (2,), 0.0)]
    else:
        grid = ng.make_grid(2, 48, 20.0)
        u = [(0.6, (1, 0), 0.0), (0.5, (0, 1), 0.3), (0.2, (1, 1), 0.0)]
        s = [(3.0, (0, 0), 0.0), (0.5, (1, 0), -np.pi / 2),
             (0.3, (1, -2), 0.0), (0.2, (0, 1), np.pi / 2)]
    return grid, closed_form_state(grid, u, s)


def potential(grid):
    return ng.states.harmonic_potential(grid, omega=0.5)


def term(cf, name, value, V):
    """The closed form of one coefficient's real multiplier of psi (the nu2
    one is imaginary)."""
    quot = {"nu2": 1j * cf.quot[2], "mu1": cf.quot[1], "mu2": cf.quot[2],
            "mu3": cf.quot[3], "mu4": cf.quot[4], "mu5": cf.quot[5]}
    extra = {"mu0": V, "alpha1": 2 * cf.u, "alpha2": cf.phase}
    return value * {**quot, **extra}[name]


def closed_rhs(cf, c, V):
    """-i (nu1 lap psi / psi + sum of the terms) psi, from the closed forms."""
    m = c.nu1 * cf.lap_over_psi
    for name in TERMS:
        if getattr(c, name):
            m = m + term(cf, name, getattr(c, name), V)
    return -1j * m * cf.psi


def rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("dim", DIMS)
def test_linear_term(dim):
    grid, cf = state(dim)
    c = NLSECoefficients(nu1=cf.nu1)
    assert rel_err(ng.rhs(c, cf.psi, grid), closed_rhs(cf, c, None)) < 1e-12


@pytest.mark.parametrize("name", TERMS)
@pytest.mark.parametrize("dim", DIMS)
def test_single_term(dim, name):
    # one coefficient on top of the linear member: the difference of the two
    # rhs is that term alone, to rounding of its own evaluation
    grid, cf = state(dim)
    V = potential(grid)
    c_lin = NLSECoefficients(nu1=cf.nu1)
    c = NLSECoefficients(nu1=cf.nu1, **{name: 1.0})
    diff = ng.rhs(c, cf.psi, grid, V) - ng.rhs(c_lin, cf.psi, grid, V)
    assert rel_err(diff, -1j * term(cf, name, 1.0, V) * cf.psi) < 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_full_family(dim):
    grid, cf = state(dim)
    V = potential(grid)
    c = NLSECoefficients(**FULL)
    assert rel_err(ng.rhs(c, cf.psi, grid, V), closed_rhs(cf, c, V)) < 1e-14


@pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", DIMS)
def test_quotient_reference(dim, index):
    grid, cf = state(dim)
    r = quotient_reference(index, cf.psi, grid, cf.nu1)
    assert rel_err(r, cf.quot[index]) < 5e-12


def tied_maxima_state(grid):
    """A 1D state whose |psi| peaks at two grid points with equal u, where S
    lies on different branches (above pi at x = 0, inside (-pi, pi] at
    x = L/2), and whose first maximum of |psi| is not the first maximum of
    re^2 + im^2. The offset of S is searched until the two maxima differ."""
    u = [(0.8, (2,), 0.0)]
    for offset in np.linspace(1.0, 1.6, 601):
        cf = closed_form_state(grid, u, [(offset, (0,), 0.0), (2.5, (1,), 0.0)])
        sq = cf.psi.real ** 2 + cf.psi.imag ** 2
        if np.argmax(np.abs(cf.psi)) != np.argmax(sq):
            return cf
    raise AssertionError("no offset splits the two maxima")


def test_alpha2_anchor_on_tied_maxima():
    # the two top points carry phases one branch apart: an anchor taken from
    # re^2 + im^2 puts the whole alpha2 term 2 pi off
    grid = ng.make_grid(1, 64, 20.0)
    cf = tied_maxima_state(grid)
    other = np.argmax(cf.psi.real ** 2 + cf.psi.imag ** 2)
    assert abs(cf.phase[other] - np.angle(cf.psi[other])) > 6.0
    c_lin = NLSECoefficients(nu1=cf.nu1)
    c = NLSECoefficients(nu1=cf.nu1, alpha2=1.0)
    diff = ng.rhs(c, cf.psi, grid) - ng.rhs(c_lin, cf.psi, grid)
    assert rel_err(diff, -1j * cf.phase * cf.psi) < 1e-14


@pytest.mark.parametrize("dim", DIMS)
def test_hydrodynamic_map(dim):
    # (du/dt, dS/dt) = (Re, Im) of rhs / psi is the (a, b) system of
    # hydrodynamic_coefficients, point by point
    grid, cf = state(dim)
    V = potential(grid)
    c = NLSECoefficients(**FULL)
    a, b = ng.hydrodynamic_coefficients(c)
    gu, gs = cf.grad_u, cf.grad_s
    du = (a[0] * cf.lap_s + a[1] * dot(gu, gs) + a[2] * cf.lap_u
          + a[3] * dot(gu, gu))
    ds = (b[0] * cf.lap_s + b[1] * dot(gu, gs) + b[2] * cf.lap_u
          + b[3] * dot(gu, gu) + b[4] * dot(gs, gs) + b[5] * V + b[6] * cf.u
          + b[7] * cf.phase)
    rate = ng.rhs(c, cf.psi, grid, V) / cf.psi
    assert rel_err(rate.real, du) < 2e-12
    assert rel_err(rate.imag, ds) < 2e-14
