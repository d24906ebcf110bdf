"""The solver discretises the equation that the exact layer reasons about.

For a polynomial u(x, t) the k = 0 unified operator with beta = (b, 0, 0),
evaluated exactly, is the forcing that ``ProblemConfig.from_manufactured``
derives on the expression tree (``expressions.derivative``) for the 1+1D
space-time problem.

The exact layer's potential psi0 = beta*x/alpha - t/eps of the convection
form symmetrises the fitted discrete operator: on every edge of the x and t
stencils, upper/lower = exp(psi at the upper node - psi at the lower node),
so diag(exp psi) times each stencil is symmetric.  That is the discrete form
of the paper's exp(-psi) d(exp(psi) w) flux.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge4d import (
    Grid1p1,
    MaterialParams,
    PolyField,
    ProblemConfig,
    Scheme,
    assemble,
    build_convection_form,
    make_potential,
    spatial_form,
    spatial_parts,
    unified_operator,
)


def test_unified_operator_is_the_solver_forcing():
    x, t = PolyField.variable("x"), PolyField.variable("t")
    u = x**2 * t + 3 * x * t**2 - x**3 + 2 * t
    m = MaterialParams(alpha=Fraction(3, 2), epsilon=Fraction(1, 20), beta=(Fraction(1, 2), 0, 0))
    forcing = spatial_parts(unified_operator(spatial_form(0, u), m))

    config = ProblemConfig.from_manufactured(
        "x**2*t + 3*x*t**2 - x**3 + 2*t", alpha="3/2", beta="1/2", epsilon=0.05, target="spacetime"
    )
    nodes = [(Fraction(i, 7), Fraction(j, 5)) for i in range(8) for j in range(6)]
    exact = np.array([float(forcing.evaluate(a, 0, 0, b)) for a, b in nodes])
    xs, ts = (np.array([float(c) for c in coords]) for coords in zip(*nodes))
    # the only inexact steps are float eps = 0.05 and a few roundings per node
    tol = 1e-14 * np.max(np.abs(exact))
    np.testing.assert_allclose(config.f(xs, ts), exact, rtol=1e-14, atol=tol)


def _first_unsymmetrised_edge(stencil, psi, tolerance):
    """First edge ``e`` with upper[e]/lower[e] != exp(psi[e+1] - psi[e]), or None.

    ``stencil`` is ``(lower, main, upper)`` with ``upper[e]`` in row e and
    ``lower[e]`` in row e + 1; ``psi`` holds exact node values.  Edges 1 to
    n - 3 are compared: row 0 is a Dirichlet row, and the last row is a
    Dirichlet row in x and the ghost-folded final-time row in t.  The miss is
    relative, within ``tolerance * (1 + |psi[e+1] - psi[e]|)``.
    """
    lower, _, upper = stencil
    step = np.array([float(b - a) for a, b in zip(psi, psi[1:])])[1:-1]
    ratio = upper[1:-1] / lower[1:-1]
    bad = ~(np.abs(ratio / np.exp(step) - 1.0) <= tolerance * (1.0 + np.abs(step)))
    return int(np.argmax(bad)) + 1 if bad.any() else None


def _zero(x, t):
    return 0.0


def _stencils_and_potential(scheme, alpha, beta, eps, cells_x, cells_t):
    """The solver's x and t stencils and the exact layer's psi0 at the grid's nodes."""
    m = MaterialParams(alpha=alpha, epsilon=eps, beta=(beta, 0, 0))
    psi0 = make_potential(build_convection_form(m)).psi0
    config = ProblemConfig(
        alpha=float(alpha), beta=float(beta), epsilon=float(eps), f=_zero, g=_zero, scheme=scheme
    )
    system = assemble(config, Grid1p1.with_cells(cells_x, cells_t))
    psi_x = [psi0.evaluate(Fraction(i, cells_x), 0, 0, 0) for i in range(cells_x + 1)]
    psi_t = [psi0.evaluate(0, 0, 0, Fraction(j, cells_t)) for j in range(cells_t + 1)]
    return (system.x_stencil, psi_x), (system.t_stencil, psi_t)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.fractions(Fraction(1, 1000), 10, max_denominator=1000),
    beta=st.fractions(-3, 3, max_denominator=1000),
    eps=st.fractions(Fraction(1, 1000), 1, max_denominator=1000),
    cells_x=st.integers(5, 40),
    cells_t=st.integers(5, 40),
)
def test_the_potential_symmetrises_the_fitted_stencils(alpha, beta, eps, cells_x, cells_t):
    for stencil, psi in _stencils_and_potential(Scheme.EXP_FITTED, alpha, beta, eps, cells_x, cells_t):
        assert _first_unsymmetrised_edge(stencil, psi, 1e-14) is None


@pytest.mark.parametrize("scheme", [Scheme.CENTERED, Scheme.UPWIND])
def test_the_potential_does_not_symmetrise_centered_or_upwind(scheme):
    # cell Peclet numbers 1 in x and 1/2 in t
    for stencil, psi in _stencils_and_potential(scheme, Fraction(1, 8), 1, Fraction(1, 4), 8, 8):
        assert _first_unsymmetrised_edge(stencil, psi, 1e-3) == 1
