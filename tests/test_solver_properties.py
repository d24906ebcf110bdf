"""Property tests: the Bernoulli branches, the M-matrix sign pattern, the solve.

The fitted and upwind schemes owe their discrete maximum principle to an
M-matrix: non-positive off-diagonals, a positive diagonal and weak diagonal
dominance on the interior rows (Xu & Zikatanov, Math. Comp. 68, 1999).  These
must hold for every positive alpha and eps and every beta, hx and ht, not
only for the examples in test_solver.py.  The fast-diagonalisation solve is
checked against a sparse LU of the whole matrix over the same parameters,
with both spatial eigenbases: the closed form for constant alpha and beta,
``eigh_tridiagonal`` for alpha varying with x.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import event, given, settings
from hypothesis import strategies as st
from loop_reference import scalar_bernoulli
from scipy.linalg import eigh_tridiagonal

from hodge4d import solver
from hodge4d.solver import (
    Grid1p1,
    ProblemConfig,
    Scheme,
    _fast_diagonalisation,
    _toeplitz_eigenpairs,
    assemble,
    bernoulli,
    solve,
)

SWITCHES = (1e-4, -1e-4, 500.0, -500.0)


def _around(z0):
    return [np.nextafter(z0, -np.inf), z0, np.nextafter(z0, np.inf)]


SWITCH_POINTS = [z for z0 in SWITCHES for z in _around(z0)]


def test_bernoulli_equals_scalar_branches_at_the_switches():
    zs = np.array(SWITCH_POINTS + [0.0, -0.0, 1.0, -1.0, 1e3, -1e3, -1e300, -np.inf])
    expected = [scalar_bernoulli(float(z)) for z in zs]
    assert bernoulli(zs).tolist() == expected
    assert [bernoulli(float(z)) for z in zs] == expected


@given(st.lists(st.one_of(st.floats(-2000.0, 2000.0), st.sampled_from(SWITCH_POINTS)), max_size=40))
def test_bernoulli_array_equals_scalar_branches(zs):
    values = bernoulli(np.array(zs, dtype=float))
    assert values.tolist() == [scalar_bernoulli(z) for z in zs]


def test_bernoulli_continuous_across_switches():
    for z0 in SWITCHES:
        below, at, above = (bernoulli(z) for z in _around(z0))
        assert abs(above - below) <= 1e-8 * abs(at), z0
        assert abs(at - below) <= 1e-8 * abs(at), z0


def _zero(x, t):
    return 0.0


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.UPWIND, Scheme.EXP_FITTED]),
    alpha=st.floats(1e-3, 10.0),
    alpha_slope=st.sampled_from([0.0, 1.0]),
    beta=st.floats(-50.0, 50.0),
    eps=st.floats(1e-6, 10.0),
    lx=st.floats(0.1, 10.0),
    duration=st.floats(0.1, 10.0),
    cells_x=st.integers(3, 7),
    cells_t=st.integers(3, 7),
)
def test_fitted_and_upwind_matrices_are_m_matrices(
    scheme, alpha, alpha_slope, beta, eps, lx, duration, cells_x, cells_t
):
    grid = Grid1p1.with_cells(cells_x, cells_t, lx=lx, t_final=duration)

    def alpha_of_x(x):
        return alpha * (1.0 + alpha_slope * x / lx)

    cfg = ProblemConfig(alpha=alpha_of_x, beta=beta, epsilon=eps, f=_zero, g=_zero, scheme=scheme)
    system = assemble(cfg, grid)
    rows = system.matrix.toarray()[~system.dirichlet]
    index = np.flatnonzero(~system.dirichlet)
    diagonal = rows[np.arange(len(index)), index]
    off = rows.copy()
    off[np.arange(len(index)), index] = 0.0
    assert (off <= 0.0).all()
    assert (diagonal > 0.0).all()
    assert (diagonal >= np.abs(off).sum(axis=1) * (1.0 - 1e-12)).all()


def _splu_refined(system):
    """Sparse LU of the whole matrix with one refinement step: the oracle."""
    lu = spla.splu(system.matrix.tocsc())
    x = lu.solve(system.rhs)
    x += lu.solve(system.rhs - system.matrix @ x)
    return x


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    alpha=st.floats(1e-3, 10.0),
    alpha_slope=st.sampled_from([0.0, 1.0]),
    beta=st.floats(-50.0, 50.0),
    eps=st.floats(1e-6, 10.0),
    lx=st.floats(0.1, 10.0),
    duration=st.floats(0.1, 10.0),
    cells_x=st.integers(3, 12),
    cells_t=st.integers(3, 12),
)
def test_fast_diagonalisation_agrees_with_splu(
    scheme, alpha, alpha_slope, beta, eps, lx, duration, cells_x, cells_t
):
    grid = Grid1p1.with_cells(cells_x, cells_t, lx=lx, t_final=duration)

    def alpha_of_x(x):
        return alpha * (1.0 + alpha_slope * x / lx)

    cfg = ProblemConfig(
        alpha=alpha_of_x,
        beta=beta,
        epsilon=eps,
        f=lambda x, t: 1.0 + x * t,
        g=lambda x, t: np.cos(x + t),
        scheme=scheme,
        q_terminal=lambda x, t: np.sin(x),
    )
    system = assemble(cfg, grid)
    oracle = _splu_refined(system)
    with mock.patch.object(solver, "_toeplitz_eigenpairs", wraps=solver._toeplitz_eigenpairs) as closed_form:
        fast, reason = _fast_diagonalisation(system)
    if fast is None:
        # rejected by the guard: the solve is the sparse LU, bit for bit
        event(" ".join(reason.split()[:2]))
        assert reason
        assert solve(system).values.ravel().tolist() == oracle.tolist()
    else:
        # constant alpha and beta make the spatial stencil Toeplitz
        assert closed_form.called == (alpha_slope == 0.0)
        event("closed-form basis" if closed_form.called else "eigh_tridiagonal basis")
        assert reason == ""
        error = np.linalg.norm(fast.ravel() - oracle) / np.linalg.norm(oracle)
        assert error <= 1e-10
        assert solve(system).values.ravel().tolist() == fast.ravel().tolist()


@pytest.mark.parametrize("n", [2, 3, 63, 383])
@pytest.mark.parametrize("s", [-2.1, 2.1])
def test_toeplitz_eigenpairs_diagonalise_the_stencil(n, s):
    a = 7.3
    lam, q = _toeplitz_eigenpairs(a, s, n)
    stencil = np.diag(np.full(n, a)) + np.diag(np.full(n - 1, s), 1) + np.diag(np.full(n - 1, s), -1)
    norm = np.linalg.norm(stencil, 2)
    assert np.linalg.norm(stencil @ q - q * lam, 2) <= 1e-13 * norm
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= 1e-13
    expected = eigh_tridiagonal(np.full(n, a), np.full(n - 1, s), eigvals_only=True)
    assert np.abs(np.sort(lam) - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    alpha=st.floats(1e-3, 10.0),
    alpha_slope=st.sampled_from([0.0, 1.0]),
    beta=st.floats(-50.0, 50.0),
    eps=st.floats(1e-6, 10.0),
    cells_x=st.integers(3, 12),
    cells_t=st.integers(3, 12),
    data=st.data(),
)
def test_apply_is_the_matrix_product(
    scheme, alpha, alpha_slope, beta, eps, cells_x, cells_t, data
):
    grid = Grid1p1.with_cells(cells_x, cells_t)

    def alpha_of_x(x):
        return alpha * (1.0 + alpha_slope * x)

    cfg = ProblemConfig(alpha=alpha_of_x, beta=beta, epsilon=eps, f=_zero, g=_zero, scheme=scheme)
    system = assemble(cfg, grid)
    entries = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
    u = np.array(data.draw(st.lists(entries, min_size=grid.n_nodes, max_size=grid.n_nodes)))
    matrix = system.matrix
    # rounding bound of a sum of at most five products, plus their underflow;
    # a compiled sparse product may fuse multiply and add on other platforms
    bound = 5 * 2.0**-53 * (abs(matrix) @ np.abs(u)) + 5 * np.finfo(float).smallest_subnormal
    assert (np.abs(system.apply(u) - matrix @ u) <= bound).all()
