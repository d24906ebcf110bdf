import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from hodge4d.solver import (
    AssemblyError,
    DiscreteField,
    Grid1p1,
    LinearSystem,
    ProblemConfig,
    Scheme,
    SolveError,
    SweepEntry,
    SweepFloorError,
    _energy_integral,
    _l2_x,
    assemble,
    bernoulli,
    discrete_bilinear,
    epsilon_sweep,
    l2_error,
    reference_evolution,
    solve,
)


def zero2(x, t):
    return 0.0


def make_config(**kwargs):
    base = dict(alpha=1.0, beta=0.0, epsilon=0.1, f=zero2, g=zero2, scheme=Scheme.CENTERED)
    base.update(kwargs)
    return ProblemConfig(**base)


# -- grid ------------------------------------------------------------------------


def test_grid_geometry():
    g = Grid1p1(3, 4, lx=2.0, t0=1.0, t_final=3.0)
    assert g.hx == pytest.approx(0.5)
    assert g.ht == pytest.approx(0.4)
    assert g.xs[0] == 0.0 and g.xs[-1] == 2.0
    assert g.ts[0] == 1.0 and g.ts[-1] == 3.0
    assert Grid1p1.with_cells(32, 16).nx == 31


def test_grid_index_bijective():
    g = Grid1p1(2, 3)
    seen = {g.index(i, j) for j in range(g.nt + 2) for i in range(g.nx + 2)}
    assert seen == set(range(g.n_nodes))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1p1(1, 4)
    with pytest.raises(ValueError):
        Grid1p1(4, 4, t0=1.0, t_final=1.0)


# -- bernoulli weight ---------------------------------------------------------------


def test_bernoulli_series_and_branches():
    assert bernoulli(0.0) == 1.0
    # series branch against the closed form just outside it
    for z in (1e-5, -1e-5, 9e-5):
        assert bernoulli(z) == pytest.approx(z / math.expm1(z) if z else 1.0, rel=1e-12)
    assert bernoulli(2.0) == pytest.approx(2.0 / (math.e**2 - 1.0))
    assert bernoulli(1000.0) == 0.0 or bernoulli(1000.0) < 1e-300
    assert bernoulli(-1000.0) == 1000.0
    # identity B(-z) = z + B(z)
    for z in (0.3, 3.0, -1.7):
        assert bernoulli(-z) == pytest.approx(z + bernoulli(z), rel=1e-12)


# -- assembly ----------------------------------------------------------------------


def test_assemble_rejects_bad_parameters():
    g = Grid1p1.with_cells(8, 8)
    with pytest.raises(AssemblyError):
        assemble(make_config(epsilon=0.0), g)
    with pytest.raises(AssemblyError):
        assemble(make_config(alpha=-1.0), g)


def test_non_finite_data_is_rejected_by_name_and_node():
    g = Grid1p1.with_cells(8, 8)
    with pytest.raises(AssemblyError, match=r"^g is not finite at x=0, t=0$"):
        assemble(make_config(g=lambda x, t: np.log(x)), g)
    with pytest.raises(AssemblyError, match=r"^f is not finite at x=0.5, t=0.125$"):
        assemble(make_config(f=lambda x, t: 1.0 / (x - 0.5)), g)
    with pytest.raises(AssemblyError, match=r"^alpha is not finite at x=0.0625$"):
        assemble(make_config(alpha=lambda x: np.sqrt(x - 0.1)), g)
    with pytest.raises(AssemblyError, match=r"^g is not finite at x=0, t=0$"):
        reference_evolution(make_config(epsilon=0.0, g=lambda x, t: np.log(x)), g)


def test_dirichlet_rows_are_identity():
    g = Grid1p1.with_cells(8, 8)
    system = assemble(make_config(), g)
    dense = system.matrix.toarray()
    for r in np.nonzero(system.dirichlet)[0]:
        row = dense[r].copy()
        assert row[r] == 1.0
        row[r] = 0.0
        assert not row.any()


def test_diffusion_pattern_symmetric_on_interior():
    g = Grid1p1.with_cells(8, 8)
    system = assemble(make_config(beta=0.0), g)
    a = system.matrix.toarray()
    interior = ~system.dirichlet
    # rows touching the terminal slab carry the folded ghost column
    top = np.zeros_like(interior)
    top[g.index(0, g.nt + 1):] = True
    both = interior & ~top
    sub = a[np.ix_(both, both)]
    # the coupling pattern is symmetric; with beta = 0 the spatial couplings
    # are value-symmetric too (the time transport stays one-directional)
    assert np.array_equal(sub != 0.0, (sub != 0.0).T)
    i, j = 4, 4
    r, left = g.index(i, j), g.index(i - 1, j)
    assert a[r, left] == pytest.approx(a[left, r])


def test_assembly_matches_hand_built_matrix():
    """Independent oracle: rebuild the centered system with explicit formulas."""
    alpha, beta, eps = 1.0, 0.7, 0.3
    g = Grid1p1(2, 2)
    hx, ht = g.hx, g.ht

    def f(x, t):
        return x + 2 * t

    def bc(x, t):
        return x * t + 1.0

    cfg = make_config(alpha=alpha, beta=beta, epsilon=eps, f=f, g=bc)
    system = assemble(cfg, g)

    n = g.n_nodes
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    wl = -alpha / hx + beta / 2
    wr = alpha / hx + beta / 2
    wd = -eps / ht - 0.5
    wu = eps / ht - 0.5
    for j in range(g.nt + 2):
        for i in range(g.nx + 2):
            r = g.index(i, j)
            if i in (0, g.nx + 1) or j == 0:
                a[r, r] = 1.0
                rhs[r] = bc(g.xs[i], g.ts[j])
                continue
            a[r, g.index(i - 1, j)] += wl / hx
            a[r, g.index(i + 1, j)] += -wr / hx
            a[r, r] += (wr - wl) / hx + (wu - wd) / ht
            a[r, g.index(i, j - 1)] += wd / ht
            rhs[r] = f(g.xs[i], g.ts[j])
            if j < g.nt + 1:
                a[r, g.index(i, j + 1)] += -wu / ht
            else:
                a[r, g.index(i, j - 1)] += -wu / ht  # ghost fold, q = 0
    assert np.allclose(system.matrix.toarray(), a)
    assert np.allclose(system.rhs, rhs)


def test_scheme_names_assemble_like_the_members():
    g = Grid1p1.with_cells(6, 6)
    for scheme in Scheme:
        named = make_config(scheme=scheme.value, beta=0.5)
        assert named.scheme is scheme
        want = assemble(make_config(scheme=scheme, beta=0.5), g).matrix
        assert (assemble(named, g).matrix != want).nnz == 0
    with pytest.raises(ValueError):
        make_config(scheme="central")


def test_exp_fitted_reduces_to_centered_for_zero_convection():
    g = Grid1p1.with_cells(10, 10)
    fitted = assemble(make_config(scheme=Scheme.EXP_FITTED, beta=0.0, epsilon=1.0), g)
    # B(0) = 1 in x; in t the eps/ht edge still carries the transport term,
    # so compare only the spatial coupling columns of an interior row
    centered = assemble(make_config(scheme=Scheme.CENTERED, beta=0.0, epsilon=1.0), g)
    i, j = 4, 5
    r = g.index(i, j)
    for col in (g.index(i - 1, j), g.index(i + 1, j)):
        assert fitted.matrix[r, col] == pytest.approx(centered.matrix[r, col], rel=1e-12)


def test_manufactured_nodal_residual_refines_at_second_order():
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*t", alpha=1.0, beta=0.0, epsilon=1.0, scheme=Scheme.CENTERED
    )
    residuals = []
    for cells in (16, 32, 64):
        g = Grid1p1.with_cells(cells, cells)
        system = assemble(cfg, g)
        exact = np.array([[cfg.manufactured(x, t) for x in g.xs] for t in g.ts]).ravel()
        r = system.matrix @ exact - system.rhs
        residuals.append(np.abs(r[~system.dirichlet]).max())
    orders = [math.log2(residuals[k] / residuals[k + 1]) for k in range(2)]
    assert all(o > 1.7 for o in orders), (residuals, orders)


# -- solve -------------------------------------------------------------------------


def solve_logged(caplog, system):
    """Solve and return the field and the one solver-path log message."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hodge4d.solver"):
        field = solve(system)
    messages = [r.getMessage() for r in caplog.records if r.name == "hodge4d.solver"]
    assert len(messages) == 1, messages
    return field, messages[0]


def test_solve_takes_fast_path_for_a_diffusive_problem(caplog):
    cfg = make_config(beta=0.5, f=lambda x, t: np.sin(np.pi * x) * t, g=lambda x, t: x + t)
    _, message = solve_logged(caplog, assemble(cfg, Grid1p1.with_cells(12, 9)))
    assert message.startswith("solve path: fast-diagonalisation")


@pytest.mark.parametrize(
    "scheme, reason",
    [(Scheme.CENTERED, "complex spatial eigenvalues"), (Scheme.EXP_FITTED, "scaling ratio")],
)
def test_convection_dominated_solve_falls_back_to_splu(caplog, scheme, reason):
    # cell Peclet |beta|*hx/alpha = 31.25: centered has complex spatial
    # eigenvalues; the fitted ones are real, but the symmetrising scaling
    # spans about 1e200, so the eigenvector matrix cannot be trusted
    cfg = make_config(alpha=1e-3, beta=1.0, epsilon=1e-4, scheme=scheme, g=lambda x, t: 1.0 + x)
    _, message = solve_logged(caplog, assemble(cfg, Grid1p1.with_cells(32, 32)))
    assert message.startswith("solve path: splu, fallback because " + reason)


def _one_percent_off(eigenpairs):
    """``eigenpairs`` with every eigenvalue 1% too large: a fault in the fast path."""

    def faulty(*args, **kwargs):
        lam, q = eigenpairs(*args, **kwargs)
        return lam * 1.01, q

    return faulty


def _assert_falls_back_to_splu(caplog, system, because="backward error"):
    out, message = solve_logged(caplog, system)
    assert message.startswith(f"solve path: splu, fallback because {because}")
    # from the Dirichlet lift, rhs with -0.0 on the interior, two steps of the
    # sparse LU's correction
    lu = scipy.sparse.linalg.splu(system.matrix.tocsc())
    expected = system.rhs.copy()
    expected.reshape(system.grid.shape)[1:, 1:-1] = -0.0
    for _ in range(2):
        expected += lu.solve(system.rhs - system.matrix @ expected)
    assert out.values.ravel().tolist() == expected.tolist()


def test_wrong_spatial_eigenvalues_fail_the_residual_gate(caplog, monkeypatch):
    # alpha varies with x, so the spatial stencil is not Toeplitz and its
    # eigenpairs come from eigh_tridiagonal, which the solver imports when it
    # needs it
    g = Grid1p1.with_cells(6, 6)
    cfg = make_config(alpha=lambda x: 1.0 + x, f=lambda x, t: 1.0 + x * t, g=lambda x, t: np.sin(x + t))
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", _one_percent_off(scipy.linalg.eigh_tridiagonal))
    _assert_falls_back_to_splu(caplog, assemble(cfg, g))


def test_wrong_closed_form_eigenvalues_fail_the_residual_gate(caplog, monkeypatch):
    # constant alpha: the stencil is Toeplitz and its eigenpairs are the closed form
    from hodge4d import solver

    g = Grid1p1.with_cells(6, 6)
    cfg = make_config(f=lambda x, t: 1.0 + x * t, g=lambda x, t: np.sin(x + t))
    eigenvalues = solver._toeplitz_eigenvalues
    monkeypatch.setattr(solver, "_toeplitz_eigenvalues", lambda *args: eigenvalues(*args) * 1.01)
    _assert_falls_back_to_splu(caplog, assemble(cfg, g))


def test_fast_path_solve_never_forms_the_matrix(caplog, monkeypatch):
    def no_matrix(system):
        raise AssertionError("the fast path formed the sparse matrix")

    monkeypatch.setattr(LinearSystem, "matrix", property(no_matrix))
    cfg = make_config(beta=0.5, f=lambda x, t: np.sin(np.pi * x) * t, g=lambda x, t: x + t)
    _, message = solve_logged(caplog, assemble(cfg, Grid1p1.with_cells(12, 9)))
    assert message.startswith("solve path: fast-diagonalisation")


def test_zero_data_gives_zero_solution():
    g = Grid1p1.with_cells(12, 12)
    out = solve(assemble(make_config(beta=0.5), g))
    assert np.abs(out.values).max() < 1e-14


def test_linear_profile_reproduced_exactly():
    # with beta = 0 and f = 0 a profile linear in x solves every scheme exactly
    g = Grid1p1.with_cells(9, 7)
    for scheme in Scheme:
        cfg = make_config(beta=0.0, scheme=scheme, g=lambda x, t: 2.0 * x + 1.0)
        out = solve(assemble(cfg, g))
        exact = 2.0 * g.xs + 1.0
        assert np.abs(out.values - exact[None, :]).max() < 1e-11


def test_manufactured_convergence_second_order():
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t)", alpha=1.0, beta=0.5, epsilon=0.1, scheme=Scheme.CENTERED
    )
    errors = []
    for cells in (16, 32, 64):
        field = solve(assemble(cfg, Grid1p1.with_cells(cells, cells)))
        errors.append(l2_error(field, cfg.manufactured))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), (errors, orders)


def test_singular_system_reports_context():
    # Ax with zero off-diagonals and main = -main_t decouples the columns,
    # each into At[1:, 1:] with a zero diagonal: a tridiagonal matrix of 7
    # rows, an odd count, with a zero diagonal is singular, so splu fails
    g = Grid1p1.with_cells(6, 7)
    system = assemble(make_config(), g)
    main = np.zeros(g.nx + 2)
    main[1:-1] = -system.t_stencil[1][1]
    off = np.zeros(g.nx + 1)
    system = dataclasses.replace(system, x_stencil=(off, main, off))
    with pytest.raises(SolveError, match=r"^factorization failed \(eps=0.1, scheme=centered, grid=6x7 cells\): .*singular"):
        solve(system)


@pytest.mark.parametrize(
    "kwargs, cells, reason",
    [
        (dict(epsilon=1e305), 128, r"^the t stencil's lower coefficient of row 1 is not finite \(eps=1e\+305 "),
        (dict(alpha=1e306), 128, r"^the x stencil's lower coefficient of row 1 is not finite \(alpha or beta "),
        (dict(beta=1e308), 8, r"^the x stencil's lower coefficient of row 1 is not finite \(alpha or beta "),
        # each stencil is finite, but their centre coefficients, 1.28e308
        # each, overflow their sum
        (dict(alpha=1e306, epsilon=1e306), 8, r"^the centre coefficient main_t \+ main_x of t row 1 and x row 1 "),
    ],
    ids=["eps", "alpha", "beta", "centre"],
)
def test_coefficients_too_large_for_the_grid_raise_assembly_error(kwargs, cells, reason):
    # huge but finite coefficients overflow the stencils; a floating-point
    # warning would fail the test
    with pytest.raises(AssemblyError, match=reason):
        assemble(make_config(**kwargs), Grid1p1.with_cells(cells, cells))


def test_a_sweep_with_an_eps_too_large_for_the_grid_raises_assembly_error():
    cfg = ProblemConfig.from_manufactured("sin(pi*x)*(1+t)", epsilon=0.1, target="limit")
    with pytest.raises(AssemblyError, match=r"^the t stencil's lower coefficient of row 1 is not finite"):
        epsilon_sweep(cfg, Grid1p1.with_cells(128, 128), [1e305, 0.1])


@pytest.mark.parametrize(
    "axis, diagonal, reason",
    [
        (0, 0, "the x stencil's lower coefficient of row 3 is not finite"),
        (0, 1, "the x stencil's main coefficient of row 2 is not finite"),
        (0, 2, "the x stencil's upper coefficient of row 2 is not finite"),
    ],
)
def test_the_fast_path_rejects_a_stencil_that_is_not_finite(axis, diagonal, reason):
    # a directly built system is rejected when it is built, as assembly's
    # is: the fast path's lift residual needs every coefficient finite; axis
    # 0 is x, the only stencil a caller passes (the t stencil is derived from
    # eps, whose overflow assembly's tests cover)
    system = assemble(make_config(beta=0.5, g=lambda x, t: 1.0 + x), Grid1p1.with_cells(6, 6))
    stencil = list(system.x_stencil)
    stencil[diagonal] = stencil[diagonal].copy()
    stencil[diagonal][2] = np.inf
    with pytest.raises(AssemblyError) as raised:
        dataclasses.replace(system, x_stencil=tuple(stencil))
    assert str(raised.value) == f"{reason} (alpha or beta too large for hx=0.166667)"


# only the largest sums can overflow: eps >= 0 makes every main_t >= 0
@pytest.mark.parametrize("sign", [1.0])
def test_the_fast_path_rejects_a_centre_sum_that_is_not_finite(sign):
    # main_t = 2 eps/ht**2 = 1.08e308 at eps = 1.5e306 on 6 cells, and one
    # main_x of 1e308: each is finite, their sum is not; a directly built
    # system is rejected when it is built
    system = assemble(make_config(beta=0.5, g=lambda x, t: 1.0 + x), Grid1p1.with_cells(6, 6))
    lower, main, upper = system.x_stencil
    main = main.copy()
    main[3] = sign * 1e308
    with pytest.raises(AssemblyError) as raised:
        dataclasses.replace(system, epsilon=1.5e306, x_stencil=(lower, main, upper))
    assert str(raised.value) == "the centre coefficient main_t + main_x of t row 1 and x row 3 is not finite (eps=1.5e+306)"


@pytest.mark.parametrize("epsilon", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_a_system_rejects_an_epsilon_that_is_negative_or_not_finite(epsilon):
    system = assemble(make_config(), Grid1p1.with_cells(6, 6))
    with pytest.raises(AssemblyError, match=rf"^epsilon must be >= 0 and finite, got {epsilon}$"):
        LinearSystem(system.rhs, system.grid, epsilon, Scheme.CENTERED, system.x_stencil)


def test_the_time_stencil_is_not_an_argument():
    system = assemble(make_config(), Grid1p1.with_cells(6, 6))
    args = (system.rhs, system.grid, 0.1, Scheme.CENTERED, system.x_stencil)
    with pytest.raises(TypeError):
        LinearSystem(*args, t_stencil=system.t_stencil)
    with pytest.raises(TypeError):
        LinearSystem(*args, system.t_stencil)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(system, t_stencil=system.t_stencil)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_system_takes_a_scheme_by_name_as_the_config_does(scheme):
    g = Grid1p1.with_cells(8, 8)
    system = assemble(make_config(scheme=scheme, beta=0.5, g=lambda x, t: np.sin(np.pi * x) + t), g)
    for eps in (0.1, 0.0):
        named = LinearSystem(system.rhs, g, eps, scheme.value, system.x_stencil)
        member = LinearSystem(system.rhs, g, eps, scheme, system.x_stencil)
        assert named.scheme is scheme
        assert solve(named).values.tobytes() == solve(member).values.tobytes()
    with pytest.raises(ValueError, match="bogus"):
        LinearSystem(system.rhs, g, 0.1, "bogus", system.x_stencil)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_the_eps_zero_time_stencil_is_backward_euler_whatever_the_scheme(scheme):
    # -1/ht below the diagonal, 1/ht on it and zero above it above the
    # initial time, with no ghost coupling in the last row
    g = Grid1p1.with_cells(6, 8)
    system = assemble(make_config(scheme=scheme), g)
    lower, main, upper = dataclasses.replace(system, epsilon=0.0).t_stencil
    assert lower.tolist() == [-1.0 / g.ht] * (g.nt + 1)
    assert main.tolist() == [0.0] + [1.0 / g.ht] * (g.nt + 1)
    assert upper.tolist() == [0.0] * (g.nt + 1)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_replace_derives_the_time_stencil_again(scheme):
    from hodge4d import solver

    # eps = 0 is the backward Euler test's
    system = assemble(make_config(scheme=scheme), Grid1p1.with_cells(6, 8))
    for change in [dict(epsilon=0.05), dict(epsilon=2.0)] + [dict(scheme=other) for other in Scheme]:
        changed = dataclasses.replace(system, **change)
        expected = solver._t_stencil(changed.epsilon, changed.scheme, system.grid)
        assert [d.tobytes() for d in changed.t_stencil] == [d.tobytes() for d in expected]


def test_a_failed_time_step_factorization_raises_solve_error(monkeypatch):
    # a finite eps = 0 system whose step matrix I/ht + Ax is zero on every
    # interior row: the fallback's dgttrf meets a zero pivot in row 2, and
    # the error names the system as the splu path's does
    from hodge4d import solver

    grid = Grid1p1.with_cells(8, 6)
    main = np.full(grid.nx + 2, -1.0 / grid.ht)
    main[[0, -1]] = 0.0
    off = np.zeros(grid.nx + 1)
    system = LinearSystem(np.ones(grid.n_nodes), grid, 0.0, Scheme.UPWIND, (off, main, off))
    monkeypatch.setattr(solver, "_fast_diagonalisation", lambda system, rhs_peak: (None, "rejected"))
    message = r"^factorization failed \(eps=0.0, scheme=upwind, grid=8x6 cells\): I/ht \+ Ax is singular \(dgttrf info 2\)$"
    with pytest.raises(SolveError, match=message):
        solve(system)


# -- reference evolution -----------------------------------------------------------


def test_reference_requires_zero_epsilon():
    g = Grid1p1.with_cells(8, 8)
    with pytest.raises(ValueError):
        reference_evolution(make_config(epsilon=0.1), g)


def test_reference_zero_data():
    g = Grid1p1.with_cells(8, 8)
    out = reference_evolution(make_config(epsilon=0.0), g)
    assert np.abs(out.values).max() == 0.0


def test_reference_that_overflows_raises_with_context(caplog):
    # data near the float maximum: the fast path's result is not finite, and
    # so is the time steps', in which u/ht overflows
    cfg = make_config(alpha=1.0, beta=0.5, epsilon=0.0, g=lambda x, t: 1e307 * (1.0 + x) + 0.0 * t)
    with np.errstate(all="ignore"), caplog.at_level(logging.DEBUG, logger="hodge4d.solver"):
        with pytest.raises(SolveError, match=r"not finite \(eps=0.0, scheme=centered, grid=24x96 cells\)$"):
            reference_evolution(cfg, Grid1p1.with_cells(24, 96))
    messages = [r.getMessage() for r in caplog.records if r.name == "hodge4d.solver"]
    assert len(messages) == 1 and messages[0].startswith("solve path: time steps, fallback because")


def test_reference_heat_decay_against_kernel():
    # u0 = sin(pi x) decays as exp(-pi^2 t); backward Euler is O(ht) accurate
    def g_data(x, t):
        return np.where(t == 0.0, np.sin(np.pi * x), 0.0)

    errors = []
    for cells in (32, 64):
        g = Grid1p1.with_cells(cells, cells * 4)
        cfg = make_config(alpha=1.0, beta=0.0, epsilon=0.0, g=g_data)
        out = reference_evolution(cfg, g)
        exact = np.exp(-math.pi**2 * g.ts)[:, None] * np.sin(math.pi * g.xs)[None, :]
        errors.append(np.abs(out.values - exact).max())
    assert errors[1] < 0.6 * errors[0]
    assert errors[0] < 5e-2


def test_reference_manufactured_first_order_in_time():
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t*t)", alpha=1.0, beta=0.3, epsilon=0.0, scheme=Scheme.CENTERED,
        target="limit",
    )
    errors = []
    for cells_t in (64, 128):
        g = Grid1p1.with_cells(128, cells_t)
        out = reference_evolution(cfg, g)
        exact = np.array([[cfg.manufactured(x, t) for x in g.xs] for t in g.ts])
        errors.append(np.abs(out.values - exact).max())
    ratio = errors[0] / errors[1]
    assert 1.6 < ratio < 2.6, (errors, ratio)  # backward Euler halves with ht


def test_spacetime_at_tiny_epsilon_matches_reference():
    # the fitted t-flux degenerates to backward differencing as eps -> 0,
    # cross-validating the two independent code paths
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t*t)", alpha=1.0, beta=0.4, epsilon=1e-9,
        scheme=Scheme.EXP_FITTED, target="limit",
    )
    g = Grid1p1.with_cells(32, 64)
    spacetime = solve(assemble(cfg, g))
    reference = reference_evolution(dataclasses.replace(cfg, epsilon=0.0), g)
    diff = np.abs(spacetime.values - reference.values).max()
    assert diff < 5e-2
    assert diff < 0.05 * np.abs(reference.values).max()


# -- maximum principle -------------------------------------------------------------


def test_fitted_scheme_respects_bounds_where_centered_oscillates():
    def g_data(x, t):
        return np.where(x >= 1.0, 1.0, 0.0)

    base = dict(alpha=1e-3, beta=1.0, epsilon=1e-3, f=zero2, g=g_data)
    grid = Grid1p1.with_cells(64, 64)
    fitted = solve(assemble(ProblemConfig(**base, scheme=Scheme.EXP_FITTED), grid))
    centered = solve(assemble(ProblemConfig(**base, scheme=Scheme.CENTERED), grid))
    assert fitted.values.min() >= -1e-12
    assert fitted.values.max() <= 1.0 + 1e-12
    overshoot = max(centered.values.max() - 1.0, -centered.values.min())
    assert overshoot > 1e-3


def test_upwind_scheme_also_monotone_here():
    def g_data(x, t):
        return np.where(x >= 1.0, 1.0, 0.0)

    grid = Grid1p1.with_cells(32, 32)
    cfg = make_config(alpha=1e-3, beta=1.0, epsilon=1e-3, g=g_data, scheme=Scheme.UPWIND)
    out = solve(assemble(cfg, grid))
    assert out.values.min() >= -1e-12 and out.values.max() <= 1.0 + 1e-12


# -- sweep -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_config():
    return ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=1.0, beta=0.5, epsilon=0.1,
        scheme=Scheme.CENTERED, target="limit",
    )


def test_sweep_errors_decay_and_slope(sweep_config):
    grid = Grid1p1.with_cells(32, 256)
    result = epsilon_sweep(sweep_config, grid, [0.1, 0.05, 0.025])
    errs = [e.l2_error_T for e in result.entries]
    assert errs[1] < errs[0] / math.sqrt(2) + 1e-12
    assert errs[2] < errs[1]
    assert result.slope > 0.4
    assert not any(e.at_floor for e in result.entries)
    # layer-dominated diagnostics are also reported
    assert all(e.l2_error_mid < e.l2_error_T for e in result.entries)


def test_sweep_layer_dominated_when_reference_linear_in_time():
    # with u_tt = 0 in the reference, the interior perturbation error
    # vanishes and only the terminal-layer contribution remains; the
    # mid-time diagnostic separates the two regimes
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t)", alpha=1.0, beta=0.5, epsilon=0.1,
        scheme=Scheme.CENTERED, target="limit",
    )
    grid = Grid1p1.with_cells(32, 128)
    result = epsilon_sweep(cfg, grid, [0.1, 0.05, 0.025])
    for entry in result.entries:
        assert entry.l2_error_mid < 0.01 * entry.l2_error_T
    assert result.slope > 0.4


def test_sweep_of_spacetime_target_data_uses_homogeneous_terminal_data():
    # from_manufactured's spacetime target sets q = 0.1*u_t; kept for every
    # eps, eps*u_t = q would force a growing u_t and the errors would grow
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=1.0, beta=0.5, epsilon=0.1, scheme=Scheme.CENTERED
    )
    assert cfg.q_terminal is not None
    result = epsilon_sweep(cfg, Grid1p1.with_cells(24, 96), [0.1, 0.05, 0.025])
    errs = [e.l2_error_T for e in result.entries]
    assert errs[2] < errs[1] < errs[0]


def _unshared_sweep(config, grid, eps_list):
    """The sweep composed from public calls, each building its own data and operator."""
    config = dataclasses.replace(config, q_terminal=None)
    reference = reference_evolution(dataclasses.replace(config, epsilon=0.0), grid)
    fine_grid = dataclasses.replace(grid, nt=2 * grid.nt + 1)
    fine = reference_evolution(dataclasses.replace(config, epsilon=0.0), fine_grid)
    floor = _l2_x(fine.values[-1] - reference.values[-1], grid)
    entries = []
    for eps in eps_list:
        diff = solve(assemble(dataclasses.replace(config, epsilon=eps), grid)).values - reference.values
        l2_T = _l2_x(diff[-1], grid)
        slope = None
        if entries:
            prev = entries[-1]
            slope = math.log(l2_T / prev.l2_error_T) / math.log(eps / prev.epsilon)
        entries.append(
            SweepEntry(
                eps, l2_T, _l2_x(diff[(grid.nt + 1) // 2], grid), _energy_integral(diff, grid),
                slope, l2_T <= 3.0 * floor,
            )
        )
    logs_e = np.log([e.epsilon for e in entries])
    logs_err = np.log([e.l2_error_T for e in entries])
    slope, intercept = np.polyfit(logs_e, logs_err, 1)
    return entries, float(slope), float(np.max(np.abs(slope * logs_e + intercept - logs_err))), floor


@pytest.mark.parametrize(
    "scheme, alpha, beta, target",
    [
        ("centered", "1+x**2/2", "0.5*cos(pi*x)", "limit"),
        ("upwind", "1+x**2/2", "0.5*cos(pi*x)", "limit"),
        ("exp-fitted", "0.02+x/10", "1-2*x", "limit"),
        ("exp-fitted", "1+x**2/2", "0.5*cos(pi*x)", "spacetime"),
        ("centered", "0.01*(1+x)", "2-x", "limit"),  # every solve falls back to splu
    ],
)
def test_sweep_sharing_changes_no_bit(scheme, alpha, beta, target):
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=alpha, beta=beta, epsilon=0.1, scheme=scheme, target=target
    )
    grid = Grid1p1.with_cells(24, 96)
    eps_list = [0.1, 0.05, 0.025]
    result = epsilon_sweep(cfg, grid, eps_list)
    entries, slope, residual, floor = _unshared_sweep(cfg, grid, eps_list)
    assert [dataclasses.astuple(e) for e in result.entries] == [dataclasses.astuple(e) for e in entries]
    assert (result.slope, result.slope_residual, result.floor_estimate) == (slope, residual, floor)


def test_sweep_input_validation(sweep_config):
    grid = Grid1p1.with_cells(16, 32)
    with pytest.raises(ValueError):
        epsilon_sweep(sweep_config, grid, [])
    with pytest.raises(ValueError):
        epsilon_sweep(sweep_config, grid, [0.1, 0.0])
    with pytest.raises(ValueError):
        epsilon_sweep(sweep_config, grid, [0.05, 0.1])


def test_sweep_detects_discretization_floor(sweep_config):
    # a deliberately coarse time grid floors out quickly
    grid = Grid1p1.with_cells(16, 8)
    with pytest.raises(SweepFloorError, match="refine"):
        epsilon_sweep(sweep_config, grid, [0.1, 0.0125, 0.0015625, 0.000195])


def test_sweep_csv_rows_shape(sweep_config):
    grid = Grid1p1.with_cells(32, 128)
    result = epsilon_sweep(sweep_config, grid, [0.1, 0.05])
    rows = result.csv_rows()
    assert rows[0] == ("epsilon", "l2_error_T", "energy_integral", "slope_estimate")
    assert rows[1][3] == "" and rows[2][3] != ""
    assert rows[-1][0] == "fit"


@pytest.mark.parametrize(
    "cells, alpha, beta, target, eps_list, paths",
    [
        pytest.param(
            (64, 1024), "1.0", "0.5", "limit", [0.1, 0.05, 0.025, 0.0125], ("fast-diagonalisation",) * 2,
            id="readme-sweep",
        ),
        # centered at cell Peclet |beta|*hx/alpha up to 8.3: complex spatial
        # eigenvalues
        pytest.param(
            (24, 96), "0.01*(1+x)", "2-x", "spacetime", [0.1, 0.05],
            ("time steps, fallback because complex spatial eigenvalues",
             "splu, fallback because complex spatial eigenvalues"),
            id="complex-eigenvalues",
        ),
    ],
)
def test_sweep_logs_the_path_of_each_solve(caplog, cells, alpha, beta, target, eps_list, paths):
    cfg = ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=alpha, beta=beta, epsilon=0.1, scheme=Scheme.CENTERED, target=target,
    )
    grid = Grid1p1.with_cells(*cells)
    with caplog.at_level(logging.DEBUG, logger="hodge4d.solver"):
        epsilon_sweep(cfg, grid, eps_list)
    messages = [r.getMessage() for r in caplog.records if r.name == "hodge4d.solver"]
    assert len(messages) == 2 + len(eps_list)
    # the reference, then the floor probe's march on twice as many time
    # steps, then each eps
    expected = [(0.0, grid.nt, paths[0]), (0.0, 2 * grid.nt + 1, paths[0])]
    expected += [(eps, grid.nt, paths[1]) for eps in eps_list]
    for message, (eps, nt, path) in zip(messages, expected):
        assert message.startswith("solve path: " + path)
        assert message.endswith(f"(eps={eps}, scheme=centered, grid={grid.nx + 1}x{nt + 1} cells)")


def test_the_readme_sweep_on_8192_time_cells_passes_the_gate(caplog, sweep_config):
    # ||A|| grows like eps*4/ht**2, and with it the relative residual ||r||/||b||
    # of an accurate solve, 1.4e-10 at eps = 0.1 on this grid; the gate reads
    # the backward error, 1.9e-16 here
    grid = Grid1p1.with_cells(64, 8192)
    with caplog.at_level(logging.DEBUG, logger="hodge4d.solver"):
        result = epsilon_sweep(sweep_config, grid, [0.1, 0.05, 0.025, 0.0125])
    messages = [r.getMessage() for r in caplog.records if r.name == "hodge4d.solver"]
    assert len(messages) == 6 and all(m.startswith("solve path: fast-diagonalisation") for m in messages)
    errors = [e.l2_error_T for e in result.entries]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))


# -- bilinear form ------------------------------------------------------------------


def _field_from(grid, fn):
    return DiscreteField(
        grid, np.array([[fn(x, t) for x in grid.xs] for t in grid.ts])
    )


def test_bilinear_zero_first_argument():
    grid = Grid1p1.with_cells(16, 16)
    cfg = make_config(beta=0.5)
    zero = _field_from(grid, lambda x, t: 0.0)
    v = _field_from(grid, lambda x, t: math.sin(math.pi * x) * t)
    assert discrete_bilinear(zero, v, cfg) == 0.0


def test_bilinear_grid_mismatch():
    cfg = make_config()
    u = _field_from(Grid1p1.with_cells(8, 8), lambda x, t: x)
    v = _field_from(Grid1p1.with_cells(8, 10), lambda x, t: x)
    with pytest.raises(ValueError):
        discrete_bilinear(u, v, cfg)


def test_bilinear_energy_identity_for_zero_convection():
    # for u vanishing on the Dirichlet boundary and beta = 0:
    # B(u,u) = int alpha ux^2 + eps ut^2 + (1/2) int_{T} u^2, by parts in t
    grid = Grid1p1.with_cells(96, 96)
    alpha, eps = 1.0, 0.25
    cfg = make_config(alpha=alpha, beta=0.0, epsilon=eps)
    u = _field_from(grid, lambda x, t: math.sin(math.pi * x) * t * t)
    value = discrete_bilinear(u, u, cfg)
    # analytic: ux = pi cos(pi x) t^2, ut = 2 sin(pi x) t, u(.,1) = sin(pi x)
    expected = (
        alpha * math.pi**2 * 0.5 * (1.0 / 5.0)
        + eps * 4.0 * 0.5 * (1.0 / 3.0)
        + 0.5 * 0.5
    )
    assert value == pytest.approx(expected, rel=2e-2)


def test_bilinear_positivity_with_exponential_test_function(rng):
    grid = Grid1p1.with_cells(48, 48)
    alpha, beta, eps = 1.0, 0.5, 0.1
    cfg = make_config(alpha=alpha, beta=beta, epsilon=eps)
    psi = lambda x, t: (beta / alpha) * x - t / eps
    for _ in range(20):
        coeffs = [(rng.uniform(0.25, 1.0) * rng.choice([-1, 1])) for _ in range(3)]
        modes = [(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(3)]

        def u_fn(x, t):
            return sum(
                c * math.sin(m * math.pi * x) * t**p
                for c, (m, p) in zip(coeffs, modes)
            )

        u = _field_from(grid, u_fn)
        v = DiscreteField(
            grid,
            u.values * np.exp([[psi(x, t) for x in grid.xs] for t in grid.ts]),
        )
        assert discrete_bilinear(u, v, cfg) > 0.0
