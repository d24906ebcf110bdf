"""The solver discretises the equation that the exact layer reasons about.

For a polynomial u(x, t) the k = 0 unified operator with beta = (b, 0, 0),
evaluated exactly, is the forcing that ``ProblemConfig.from_manufactured``
derives on the expression tree (``expressions.derivative``) for the 1+1D
space-time problem.
"""

from fractions import Fraction

import numpy as np

from hodge4d import (
    MaterialParams,
    PolyField,
    ProblemConfig,
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
