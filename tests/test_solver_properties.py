"""Property tests: the Bernoulli branches, the M-matrix sign pattern, the
discrete maximum principle, the nodal exactness of the fitted flux, the solve.

The fitted and upwind schemes owe their discrete maximum principle to an
M-matrix: non-positive off-diagonals, a positive diagonal and weak diagonal
dominance on the interior rows (Xu & Zikatanov, Math. Comp. 68, 1999).  These
must hold for every positive alpha and eps and every beta, hx and ht, not
only for the examples in test_solver.py.  The fitted (Scharfetter-Gummel)
flux is exact on the kernel of the 1D steady operator: for constant alpha
and beta its rows annihilate c1 + c2*exp(-beta*x/alpha) (Il'in, Math. Notes
6, 1969).  The verdict helpers return the first offending node or row, so a
failure names it.  The fast-diagonalisation solve is
checked against a sparse LU of the whole matrix over the same parameters,
with both spatial eigenbases: the closed form for constant alpha and beta,
``eigh_tridiagonal`` for alpha varying with x.  At eps = 0, the backward
Euler reference, the time system of each mode is lower bidiagonal; its
solve is checked against the same sparse LU, and ``solve``'s per-step LAPACK
fallback for a rejected eps = 0 system against the exact solution of the
float64 backward Euler steps (``loop_reference``).  The whole-row
matrix-free product is checked against the strided kernel it replaced, byte
for byte but for NaN payloads and floating-point exception for exception,
and against itself run in two row ranges; the residual of the Dirichlet
lift, which every solve takes without a product, against rhs minus the
product, byte for byte; a system is never built with a stencil coefficient
that is not finite, which that residual needs;
and every built time stencil has its rows above the initial time alike but
the last, which the fast path's time solves need.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import event, given, settings
from hypothesis import strategies as st
from loop_reference import loop_reference, scalar_bernoulli, strided_apply
from scipy.linalg import eigh_tridiagonal

from hodge4d import solver
from hodge4d.solver import (
    AssemblyError,
    Grid1p1,
    LinearSystem,
    ProblemConfig,
    Scheme,
    SolveError,
    _fast_diagonalisation,
    _sine_backward,
    _sine_forward,
    _sine_halves,
    _toeplitz_eigenvalues,
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


def _first_node_outside_the_data(system, values, rel=1e-12, floor=np.finfo(float).tiny):
    """First node ``(j, i)``, row-major, outside the Dirichlet data's [min, max], or None.

    The data is the right-hand side on the Dirichlet nodes; a node may leave
    the range by ``rel`` of its width plus ``floor``.  The default floor is
    the smallest normal float: below it a float has no relative precision
    (``test_subnormal_data_keeps_the_maximum_principle`` checks subnormal
    data with no floor).  A NaN node is outside.
    """
    data = system.rhs[system.dirichlet]
    low, high = data.min(), data.max()
    slack = rel * (high - low) + floor
    outside = ~((values >= low - slack) & (values <= high + slack))
    if outside.any():
        return tuple(int(k) for k in np.unravel_index(np.argmax(outside), values.shape))
    return None


def _no_forcing_problem(scheme, alpha, beta, eps, g):
    """f = 0 and no terminal data: the maximum principle bounds the solution by g."""
    return ProblemConfig(alpha=alpha, beta=beta, epsilon=eps, f=_zero, g=g, scheme=scheme)


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.UPWIND, Scheme.EXP_FITTED]),
    alpha=st.floats(1e-3, 1.0),
    beta=st.floats(-2.0, 2.0),
    eps=st.floats(1e-4, 1.0),
    cells_x=st.integers(3, 24),
    cells_t=st.integers(3, 24),
    k=st.floats(0.0, 20.0),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_monotone_schemes_keep_the_maximum_principle(scheme, alpha, beta, eps, cells_x, cells_t, k, phase):
    def g(x, t):
        return np.sin(k * x + phase) * np.cos(3.0 * t)

    system = assemble(_no_forcing_problem(scheme, alpha, beta, eps, g), Grid1p1.with_cells(cells_x, cells_t))
    assert _first_node_outside_the_data(system, solve(system).values) is None


def _step(x, t):
    return np.where(x >= 1.0, 1.0, 0.0)


def test_centered_scheme_breaks_the_maximum_principle():
    # the verdict is not vacuous: at cell Peclet 1e3/32 the centered scheme
    # overshoots the step data, which the upwind and fitted schemes keep
    grid = Grid1p1.with_cells(32, 32)
    for scheme in Scheme:
        system = assemble(_no_forcing_problem(scheme, 1e-3, 1.0, 1e-3, _step), grid)
        values = solve(system).values
        node = _first_node_outside_the_data(system, values)
        if scheme is Scheme.CENTERED:
            assert node is not None and not 0.0 <= values[node] <= 1.0
            assert values.max() > 1.5  # the whole range is [-0.0165, 1.674]
        else:
            assert node is None


@pytest.mark.parametrize("scheme", [Scheme.UPWIND, Scheme.EXP_FITTED])
def test_subnormal_data_keeps_the_maximum_principle(scheme):
    # g of size 1e-322, a subnormal float: unless solve scales it into the
    # normal range, the upwind solution (fast path) reaches 6e4 times the
    # data and the fitted one (sparse LU) 5.5 times, and the upwind
    # backward Euler reference spans [-3.4e-318, 6.9e-318]
    def g(x, t):
        return 1.14e-322 * np.cos(3.0 * t) + 0.0 * x

    grid = Grid1p1.with_cells(9, 24)
    system = assemble(_no_forcing_problem(scheme, 0.0036, -1.48, 0.15, g), grid)
    assert _first_node_outside_the_data(system, solve(system).values, floor=0.0) is None
    # the reference has the same Dirichlet data, so the same bounds
    reference = solver.reference_evolution(_no_forcing_problem(scheme, 0.0036, -1.48, 0.0, g), grid)
    assert _first_node_outside_the_data(system, reference.values, floor=0.0) is None


def test_maximum_principle_verdict_names_the_first_node():
    grid = Grid1p1.with_cells(3, 3)
    system = assemble(_no_forcing_problem(Scheme.UPWIND, 1.0, 0.0, 1.0, _step), grid)
    values = solve(system).values
    assert _first_node_outside_the_data(system, values) is None
    values[2, 1], values[3, 2] = 1.0 + 2e-12, np.nan
    assert _first_node_outside_the_data(system, values) == (2, 1)
    values[2, 1] = 1.0 + 1e-13
    assert _first_node_outside_the_data(system, values) == (3, 2)


def _first_row_not_annihilating(stencil, u, tolerance):
    """First interior row ``i`` of a 1D stencil whose product with u is not zero, or None.

    ``u`` holds, per interior row, the values at nodes i-1, i, i+1 (shape
    ``(3, n - 2)``).  A row passes when its product is within ``tolerance``
    of the summed magnitudes of its three terms.
    """
    lower, main, upper = stencil
    terms = np.stack([lower[:-1] * u[0], main[1:-1] * u[1], upper[1:] * u[2]])
    bad = ~(np.abs(terms.sum(axis=0)) <= tolerance * np.abs(terms).sum(axis=0))
    return int(np.argmax(bad)) + 1 if bad.any() else None


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(1e-4, 10.0),
    peclet=st.one_of(st.floats(-600.0, 600.0), st.sampled_from([-500.0, 500.0, 1e-4, -1e-4])),
    cells=st.integers(3, 60),
)
def test_fitted_flux_is_exact_on_the_steady_kernel(alpha, peclet, cells):
    # beta is set from the cell Peclet number z = beta*hx/alpha, which spans
    # every Bernoulli branch; up to |z| = 600 the exponential's row terms are
    # normal floats.  A relative error d in z is one of z*d in exp(z), hence
    # the tolerance's (1 + |z|).
    grid = Grid1p1.with_cells(cells, 3)
    beta = peclet * alpha / grid.hx
    system = assemble(_no_forcing_problem(Scheme.EXP_FITTED, alpha, beta, 1.0, _zero), grid)
    xs = grid.xs
    rows = np.stack([xs[:-2], xs[1:-1], xs[2:]])
    # exp(-beta*x/alpha) scaled per row to 1 at the row's largest node: the
    # same function up to a constant factor, without overflow
    exponential = np.exp(-beta * (rows - rows[0 if beta > 0 else 2]) / alpha)
    tolerance = 1e-14 * (1.0 + abs(peclet))
    for u in (np.ones_like(rows), exponential):
        assert _first_row_not_annihilating(system.x_stencil, u, tolerance) is None


@pytest.mark.parametrize("scheme", [Scheme.CENTERED, Scheme.UPWIND])
def test_centered_and_upwind_fluxes_miss_the_steady_kernel(scheme):
    grid = Grid1p1.with_cells(8, 3)
    # cell Peclet number 2.5
    system = assemble(_no_forcing_problem(scheme, 1.0, 20.0, 1.0, _zero), grid)
    xs = grid.xs
    rows = np.stack([xs[:-2], xs[1:-1], xs[2:]])
    exponential = np.exp(-20.0 * (rows - rows[0]))
    assert _first_row_not_annihilating(system.x_stencil, np.ones_like(rows), 1e-14) is None
    assert _first_row_not_annihilating(system.x_stencil, exponential, 1e-2) == 1


def _splu_refined(system):
    """Sparse LU of the whole matrix from the Dirichlet lift (rhs, -0.0 on the interior), refined once: the oracle."""
    lu = spla.splu(system.matrix.tocsc())
    x = system.rhs.copy()
    x.reshape(system.grid.shape)[1:, 1:-1] = -0.0
    for _ in range(2):
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
    with mock.patch.object(solver, "_toeplitz_eigenvalues", wraps=solver._toeplitz_eigenvalues) as closed_form:
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


def _one_value(values):
    """Whether ``values`` all hold one bit pattern (so 0.0 and -0.0 differ)."""
    return np.unique(np.ascontiguousarray(values).view(np.int64)).size == 1


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    eps=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    alpha=st.floats(1e-3, 10.0),
    beta=st.floats(-50.0, 50.0),
    lx=st.floats(0.1, 10.0),
    t_final=st.floats(0.1, 10.0),
    cells_x=st.integers(3, 12),
    cells_t=st.integers(3, 40),
)
def test_every_built_time_stencil_is_constant_in_time(scheme, eps, alpha, beta, lx, t_final, cells_x, cells_t):
    # the fast path's time solves keep one interior row and the last row per
    # level, which needs every time row but the last alike: every system
    # (eps = 0 included) derives a time stencil with one value on every main
    # and upper row above the initial time and on every lower row but the
    # last, where the ghost slab is folded in
    grid = Grid1p1.with_cells(cells_x, cells_t, lx=lx, t_final=t_final)
    cfg = ProblemConfig(alpha=alpha, beta=beta, epsilon=eps, f=_zero, g=_zero, scheme=scheme)
    systems = [LinearSystem(solver._data(cfg, grid).ravel(), grid, eps, scheme, solver._x_stencil(cfg, grid))]
    if eps > 0:
        systems.append(assemble(cfg, grid))
    for system in systems:
        lower, main, upper = system.t_stencil
        assert _one_value(main[1:]) and _one_value(upper[1:]) and _one_value(lower[:-1])


def _limit_system(config, grid):
    """The eps = 0 space-time system of the backward Euler reference: the upwind time stencil at eps = 0."""
    x_stencil = solver._x_stencil(config, grid)
    return LinearSystem(solver._data(config, grid).ravel(), grid, 0.0, config.scheme, x_stencil)


def _march_error(march, config, grid):
    """The largest distance of ``march`` from the exact solution of the float64 steps, relative to its largest value.

    Over this module's guard-rejected eps = 0 stencils the refined time steps
    came within 9.8e-15 of it (centered, alpha 1e-3, cell Peclet 417) and
    within 8.5e-16 on 1,000 random draws; the steps without refinement reached
    1.3e-12.
    """
    expected = loop_reference(config, grid)
    return np.abs(march - expected).max() / max(np.abs(expected).max(), 1.0)


def _limit_config(scheme, alpha_of_x, beta):
    return ProblemConfig(
        alpha=alpha_of_x,
        beta=beta,
        epsilon=0.0,
        f=lambda x, t: 1.0 + x * t,
        g=lambda x, t: np.cos(x + t),
        scheme=scheme,
    )


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(list(Scheme)),
    alpha=st.floats(1e-3, 10.0),
    alpha_slope=st.sampled_from([0.0, 1.0]),
    beta=st.floats(-50.0, 50.0),
    lx=st.floats(0.1, 10.0),
    duration=st.floats(0.1, 10.0),
    cells_x=st.integers(3, 12),
    cells_t=st.integers(3, 12),
)
def test_triangular_time_solve_agrees_with_splu(scheme, alpha, alpha_slope, beta, lx, duration, cells_x, cells_t):
    # at eps = 0 the time stencil has no upper diagonal, so every shifted
    # system is lower bidiagonal and is factored as such
    grid = Grid1p1.with_cells(cells_x, cells_t, lx=lx, t_final=duration)

    def alpha_of_x(x):
        return alpha * (1.0 + alpha_slope * x / lx)

    cfg = _limit_config(scheme, alpha_of_x, beta)
    system = _limit_system(cfg, grid)
    with mock.patch.object(solver, "_cyclic_factor", wraps=solver._cyclic_factor) as factor:
        fast, reason = _fast_diagonalisation(system)
    assert all(row[2] is None for (_, row, _), _ in factor.call_args_list)
    march = solve(system).values
    if fast is None:
        # rejected by the guard: solve refines its steps with dgttrs
        event(" ".join(reason.split()[:2]))
        assert reason
        assert _march_error(march, cfg, grid) <= 1e-13
    else:
        event("closed-form basis" if alpha_slope == 0.0 else "eigh_tridiagonal basis")
        assert reason == ""
        oracle = _splu_refined(system)
        error = np.linalg.norm(fast.ravel() - oracle) / np.linalg.norm(oracle)
        assert error <= 1e-10
        assert march.tolist() == fast.tolist()


def test_zero_shifted_diagonal_falls_back_to_the_step_loop():
    # one closed-form eigenvalue set to -1/ht makes the shifted system of
    # mode 2 zero on its whole diagonal
    grid = Grid1p1.with_cells(8, 6)
    cfg = _limit_config(Scheme.CENTERED, 1.0, 0.5)
    system = _limit_system(cfg, grid)
    step_main = system.t_stencil[1][1]

    def singular(a, s, n):
        lam = _toeplitz_eigenvalues(a, s, n)
        lam[2] = -step_main
        return lam

    with mock.patch.object(solver, "_toeplitz_eigenvalues", singular):
        fast, reason = _fast_diagonalisation(system)
        march = solve(system).values
    assert fast is None
    assert reason == "zero pivot in the time system of mode 2"
    assert _march_error(march, cfg, grid) <= 1e-13


@pytest.mark.parametrize(
    "scheme, alpha, beta, eps, admitted",
    [
        (Scheme.CENTERED, 1.0, 0.5, 0.1, True),
        (Scheme.CENTERED, lambda x: 1.0 + x, 0.5, 0.1, True),
        (Scheme.EXP_FITTED, 1e-3, 1.0, 0.1, False),
        (Scheme.CENTERED, 1.0, 0.5, 0.0, True),
        (Scheme.CENTERED, lambda x: 0.01 * (1.0 + x), lambda x: 2.0 - x, 0.0, False),
    ],
    ids=["toeplitz", "eigh-tridiagonal", "splu", "limit-fast", "limit-time-steps"],
)
def test_data_that_is_not_finite_at_any_node_ends_in_solve_error(scheme, alpha, beta, eps, admitted):
    # no solve returns a NaN or an infinity, which is why the matrix-free
    # product may leave NaN payloads open: every path's result is rejected
    # by the one gate, with no floating-point warning on the way
    grid = Grid1p1.with_cells(12, 10)
    cfg = dataclasses.replace(_limit_config(scheme, alpha, beta), epsilon=eps)
    system = _limit_system(cfg, grid) if eps == 0.0 else assemble(cfg, grid)
    assert (_fast_diagonalisation(system)[0] is not None) == admitted
    context = f"(eps={system.epsilon}, scheme={system.scheme.value}, grid=12x10 cells)"
    for value in (np.nan, np.inf, -np.inf):
        for node in range(grid.n_nodes):
            rhs = system.rhs.copy()
            rhs[node] = value
            with warnings.catch_warnings(record=True) as caught, pytest.raises(SolveError) as raised:
                warnings.simplefilter("always")
                solve(dataclasses.replace(system, rhs=rhs))
            assert str(raised.value).endswith(context), (value, node)
            assert caught == [], (value, node)


def _full_sine_basis(n):
    """The closed-form eigenvectors q[j, k] = sqrt(2/(n+1)) sin(j k pi/(n+1)), j, k = 1..n.

    The columns are in the solver's mode order: k = 2, 4, ... then 1, 3, ...
    The sine's argument is reduced to one period first, exactly, in integers.
    """
    j = np.arange(1, n + 1)
    q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) % (2 * (n + 1)) * np.pi / (n + 1))
    return np.concatenate((q[:, 1::2], q[:, 0::2]), axis=1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 63, 64, 383])
@pytest.mark.parametrize("s", [-2.1, 2.1])
def test_toeplitz_eigenpairs_diagonalise_the_stencil(n, s):
    # the eigenpairs come as lam and the two halves of q; the split
    # transforms must equal the full products with q, for both parities of n
    # (an odd n has a middle column that is its own reflection)
    a = 7.3
    lam, halves = _toeplitz_eigenvalues(a, s, n), _sine_halves(n)
    q = _full_sine_basis(n)
    stencil = np.diag(np.full(n, a)) + np.diag(np.full(n - 1, s), 1) + np.diag(np.full(n - 1, s), -1)
    norm = np.linalg.norm(stencil, 2)
    assert np.linalg.norm(stencil @ q - q * lam, 2) <= 1e-13 * norm
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) <= 1e-13
    expected = eigh_tridiagonal(np.full(n, a), np.full(n - 1, s), eigvals_only=True)
    assert np.abs(np.sort(lam) - expected).max() <= 1e-12 * np.abs(expected).max()

    y = np.random.default_rng(n).standard_normal((7, n))
    modes, scratch = np.empty((7, n)), np.empty(7 * n)
    _sine_forward(halves, y, modes, scratch)  # time-major, one column per mode
    assert np.linalg.norm(modes - y @ q) <= 1e-14 * np.linalg.norm(y)
    out = np.full((9, n + 2), np.nan)  # a strided view, as in the solver
    _sine_backward(halves, modes, out[1:-1, 1:-1], scratch)
    assert np.linalg.norm(out[1:-1, 1:-1] - modes @ q.T) <= 1e-14 * np.linalg.norm(modes)
    assert np.isnan(out[[0, -1]]).all() and np.isnan(out[:, [0, -1]]).all()


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


def _raised(product):
    """The message of the ``FloatingPointError`` that ``product()`` raises under ``errstate(all="raise")``, or None."""
    with np.errstate(all="raise"):
        try:
            product()
        except FloatingPointError as exc:
            return str(exc)
    return None


# signed zeros, subnormals, the smallest normal, values near 1e300 and
# non-finite values, where products underflow, lose their sign, overflow or
# are invalid
_EDGE_ENTRIES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, np.finfo(float).tiny,
    1e300, -1e300, 1.7e308, np.inf, -np.inf, np.nan,
]


def _same_up_to_nan_payloads(actual, expected):
    """Whether ``actual`` has ``expected``'s bytes at every node where that is not NaN, and NaN at exactly its NaNs.

    Which of two NaNs a sum passes on is left open (IEEE 754-2019, 6.2.3), and
    numpy's SIMD loops pick by a node's place in the loop, so payloads are not
    compared.
    """
    actual, expected = actual.ravel(), expected.ravel()
    nan = np.isnan(expected)
    return (np.isnan(actual) == nan).all() and actual[~nan].tobytes() == expected[~nan].tobytes()


@st.composite
def _products(draw, edge_entries=tuple(_EDGE_ENTRIES)):
    """A system and a vector u over its nodes: a product's draw.

    cells_x from 3 gives nx from 2, odd and even; eps = 0 is the march's
    stencil, whose upper time diagonal is zero.  u holds a few special values
    from ``edge_entries`` and near them, so that some products raise nothing.
    """
    scheme = draw(st.sampled_from(list(Scheme)))
    alpha = draw(st.floats(1e-3, 10.0))
    alpha_slope = draw(st.sampled_from([0.0, 1.0]))
    beta = draw(st.floats(-50.0, 50.0))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    grid = Grid1p1.with_cells(draw(st.integers(3, 12)), draw(st.integers(3, 12)))

    def alpha_of_x(x):
        return alpha * (1.0 + alpha_slope * x)

    cfg = ProblemConfig(alpha=alpha_of_x, beta=beta, epsilon=eps, f=_zero, g=_zero, scheme=scheme)
    if eps == 0.0:
        system = _limit_system(cfg, grid)
    else:
        system = assemble(cfg, grid)
    special = st.one_of(
        st.sampled_from(edge_entries),
        st.floats(-1e-300, 1e-300),
        st.floats(1e299, 1e301),
        st.floats(-1e301, -1e299),
    )
    entries = st.floats(-1e6, 1e6)
    specials = draw(st.lists(special, max_size=3))
    if specials:
        entries |= st.sampled_from(specials)
    return system, np.array(draw(st.lists(entries, min_size=grid.n_nodes, max_size=grid.n_nodes)))


@settings(max_examples=200, deadline=None)
@given(case=_products())
def test_apply_equals_the_strided_kernel_byte_for_byte(case):
    system, u = case
    grid = system.grid
    with np.errstate(all="ignore"):
        expected = strided_apply(system, u)
        out = np.full(grid.shape, np.nan)  # nothing left over may survive
        solver._apply(system, u, out, np.full_like(out[1:], np.nan))
        assert _same_up_to_nan_payloads(out, expected)
        assert _same_up_to_nan_payloads(system.apply(u), expected)
    # the Dirichlet columns add no floating-point exception of their own
    out = np.empty(grid.shape)
    raised = _raised(lambda: strided_apply(system, u))
    event(f"raises {raised}")
    assert _raised(lambda: solver._apply(system, u, out, np.empty_like(out[1:]))) == raised


@settings(max_examples=200, deadline=None)
@given(case=_products(edge_entries=tuple(v for v in _EDGE_ENTRIES if np.isfinite(v))))
def test_the_lift_residual_is_rhs_minus_the_product_byte_for_byte(case):
    # the fast path starts from the Dirichlet lift x0, rhs with -0.0 on the
    # interior, and takes its residual without the product; the rhs here
    # holds finite special values on every node, the Dirichlet nodes included
    system, rhs = case
    system = dataclasses.replace(system, rhs=rhs)
    x0 = rhs.copy()
    x0.reshape(system.grid.shape)[1:, 1:-1] = -0.0
    out = np.full(system.grid.shape, np.nan)
    with np.errstate(all="ignore"):
        expected = rhs - system.apply(x0)
        assert solver._lift_residual(system, out) is out
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    case=_products(),
    diagonal=st.sampled_from(["lower", "main", "upper"]),
    value=st.sampled_from([np.inf, -np.inf, np.nan]),
    data=st.data(),
)
def test_a_stencil_coefficient_that_is_not_finite_is_named_when_the_system_is_built(case, diagonal, value, data):
    # the lift's residual needs every coefficient finite, so a system that
    # breaks it is never built: one x coefficient set through replace is
    # named (the t stencil is derived from eps, not passed)
    system, _ = case
    stencil = list(system.x_stencil)
    k = ("lower", "main", "upper").index(diagonal)
    broken = stencil[k].copy()
    index = data.draw(st.integers(0, len(broken) - 1))
    broken[index] = value
    stencil[k] = broken
    with pytest.raises(AssemblyError) as raised:
        dataclasses.replace(system, x_stencil=tuple(stencil))
    cause = f"alpha or beta too large for hx={system.grid.hx:g}"
    row = index + (diagonal == "lower")  # the lower diagonal starts at row 1
    assert str(raised.value) == f"the x stencil's {diagonal} coefficient of row {row} is not finite ({cause})"


@pytest.mark.parametrize("eps", [0.0, 0.5])
@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("border, inside", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_the_lift_residual_keeps_the_sign_of_every_zero(border, inside, scheme, eps):
    # zero data of either sign: each Dirichlet coupling of rows 1 and the
    # first and last interior columns is a signed zero, and only the sums'
    # start from 0.0 gives the product's sign to rhs - product
    grid = Grid1p1.with_cells(5, 4)
    cfg = ProblemConfig(alpha=1.0, beta=0.5, epsilon=eps, f=_zero, g=_zero, scheme=scheme)
    system = _limit_system(cfg, grid) if eps == 0.0 else assemble(cfg, grid)
    rhs = np.where(grid.dirichlet, border, inside).ravel()
    system = dataclasses.replace(system, rhs=rhs)
    x0 = rhs.copy()
    x0.reshape(grid.shape)[1:, 1:-1] = -0.0
    residual = solver._lift_residual(system, np.full(grid.shape, np.nan))
    assert residual.tobytes() == (rhs - system.apply(x0)).tobytes()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_huge_dirichlet_ends_raise_no_floating_point_error(scheme):
    # whole rows would couple the Dirichlet columns in time: 1e307 times the
    # time stencil's centre (2 eps/ht**2 = 128 for centered) overflows, where
    # the sparse product takes only the small x couplings alpha/hx**2 = 0.64
    grid = Grid1p1.with_cells(8, 8)

    def g(x, t):
        return np.where((x == 0.0) | (x == 1.0), 1e307, 0.0) + 0.0 * t

    system = assemble(ProblemConfig(alpha=1e-2, beta=0.0, epsilon=1.0, f=_zero, g=g, scheme=scheme), grid)
    assert (system.rhs.reshape(grid.shape)[:, [0, -1]] == 1e307).all()
    assert _raised(lambda: strided_apply(system, system.rhs)) is None
    with np.errstate(all="raise"):
        product = system.apply(system.rhs)
    assert product.tobytes() == strided_apply(system, system.rhs).tobytes()


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_one_non_finite_node_raises_what_the_strided_kernel_raises(scheme, value):
    # at each node in turn, including the Dirichlet columns and the nodes
    # next to them, whose values the whole rows also meet
    grid = Grid1p1.with_cells(5, 4)
    system = assemble(ProblemConfig(alpha=1.0, beta=0.5, epsilon=0.5, f=_zero, g=_zero, scheme=scheme), grid)
    for node in range(grid.n_nodes):
        u = np.linspace(-1.0, 1.0, grid.n_nodes)
        u[node] = value
        raised = _raised(lambda: strided_apply(system, u))
        assert _raised(lambda: system.apply(u)) == raised, node
        with np.errstate(all="ignore"):
            assert system.apply(u).tobytes() == strided_apply(system, u).tobytes(), node


@pytest.mark.parametrize("scheme", list(Scheme))
def test_each_row_is_summed_from_zero(scheme):
    # -0.0 on the nodes of even i + j and 0.0 on the others: every product of
    # an even row is -0.0 (a positive centre times -0.0, negative couplings
    # times 0.0), and only the sum's start from 0.0 makes the row 0.0
    grid = Grid1p1.with_cells(6, 5)
    system = assemble(ProblemConfig(alpha=1.0, beta=0.0, epsilon=1.0, f=_zero, g=_zero, scheme=scheme), grid)
    j, i = np.indices(grid.shape)
    u = np.where((i + j) % 2 == 0, -0.0, 0.0).ravel()
    product = system.apply(u)
    assert product.tobytes() == strided_apply(system, u).tobytes()
    assert not np.signbit(product).any()
    assert not np.signbit(system.matrix @ u).any()
