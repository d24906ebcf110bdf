"""Independent oracle for the Kronecker assembly and the reference marcher.

The tensor-product assembly must reproduce the node-by-node builder in
``loop_reference`` exactly: the arithmetic of every matrix entry and
right-hand side value is unchanged, so the comparison is literal equality.
The reference march is compared with the exact solution of the same
float64 backward Euler steps, which ``loop_reference`` computes in 40-digit
decimal arithmetic.  The 1e-14 bound (relative to the largest value) is a
property of the configs tested here, among them the two stencils that the
guard rejects, not of the march in general: it depends on the data and the
stiffness, and random guard-rejected stencils on other data have reached
errors of about 1e-13 with either step solver.
"""

import logging

import numpy as np
import pytest
from loop_reference import loop_assemble, loop_reference

from hodge4d.solver import (
    Grid1p1,
    ProblemConfig,
    Scheme,
    assemble,
    reference_evolution,
)


COEFFICIENTS = {
    "constant": ("1.0", "0.5"),
    "x-dependent": ("1 + x*x", "3*sin(2*x) - 1"),
}


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("target", ["spacetime", "limit"])
@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
def test_kronecker_assembly_equals_loop_assembly(scheme, target, coefficients):
    alpha, beta = COEFFICIENTS[coefficients]
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)*exp(-x/2)", alpha=alpha, beta=beta, epsilon=0.03,
        scheme=scheme, target=target,
    )
    assert (cfg.q_terminal is not None) == (target == "spacetime")
    grid = Grid1p1.with_cells(9, 23, lx=1.5, t0=0.25, t_final=2.0)
    system = assemble(cfg, grid)
    matrix, rhs, dirichlet = loop_assemble(cfg, grid)

    assert system.matrix.nnz == matrix.nnz
    assert np.array_equal(system.matrix.indptr, matrix.indptr)
    assert np.array_equal(system.matrix.indices, matrix.indices)
    assert np.array_equal(system.matrix.data, matrix.data)
    assert np.array_equal(system.rhs, rhs)
    assert np.array_equal(system.dirichlet, dirichlet)


def assert_march_equals_loop_marcher(scheme, alpha, beta):
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=alpha, beta=beta, epsilon=0.0,
        scheme=scheme, target="limit",
    )
    grid = Grid1p1.with_cells(13, 40, lx=1.5, t_final=2.0)
    values = reference_evolution(cfg, grid).values
    expected = loop_reference(cfg, grid)
    assert np.abs(values - expected).max() <= 1e-14 * max(np.abs(expected).max(), 1.0)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
def test_reference_evolution_equals_loop_marcher(scheme, coefficients):
    assert_march_equals_loop_marcher(scheme, *COEFFICIENTS[coefficients])


@pytest.mark.parametrize(
    "scheme, alpha, beta, reason",
    [
        (Scheme.CENTERED, "0.01*(1+x)", "2-x", "complex spatial eigenvalues"),
        (Scheme.EXP_FITTED, "0.001", "1", "scaling ratio"),
    ],
)
def test_guard_rejected_march_equals_loop_marcher(caplog, scheme, alpha, beta, reason):
    # the guard rejects these spatial stencils, so solve steps through time
    # with LAPACK's dgttrs; it must meet the same oracle
    with caplog.at_level(logging.DEBUG, logger="hodge4d.solver"):
        assert_march_equals_loop_marcher(scheme, alpha, beta)
    messages = [r.getMessage() for r in caplog.records if r.name == "hodge4d.solver"]
    assert len(messages) == 1 and messages[0].startswith("solve path: time steps, fallback because " + reason)
    assert messages[0].endswith(f"(eps=0.0, scheme={scheme.value}, grid=13x40 cells)")
