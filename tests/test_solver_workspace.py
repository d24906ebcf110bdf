"""The fast solve's per-thread workspace: reuse must not change a bit.

``_fast_diagonalisation`` writes its grid-sized intermediates into one
workspace per thread (``solver._workspace``) and reuses it across solves of
the same grid shape.  These tests pin that the reuse is invisible on each of
its three paths (the closed-form sine basis with tridiagonal time systems,
the eps = 0 backward Euler reference, whose time systems are lower
bidiagonal, and the ``eigh_tridiagonal`` basis; the path ids name each kind
of time system by the LAPACK or BLAS routine for it, dgttrf for a general
tridiagonal and dtbsv for a triangular band system, although
``solver._cyclic_factor`` factors both and the fast path calls neither).
Each solve on every path factors all its modes' time systems in one call to
``solver._cyclic_factor`` and solves them in one call per refinement step;
the closed-form sine blocks are built once per workspace.
A solve after garbage in the workspace, or after another system of the same
shape, equals a solve in a fresh thread bit for bit; a returned result never
aliases the workspace; the Dirichlet border comes back bit for bit; and two
threads solving at once get their serial results (``test_solver_lanes``
runs four, and a forked child).  Two tracemalloc pins keep the solve from
going back to fresh grid-sized temporaries and keep a workspace above the
size cap from outliving its solve, and the sine blocks count towards that
cap once they are built.
"""

import dataclasses
import sys
import threading
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from hodge4d import solver
from hodge4d.solver import Grid1p1, LinearSystem, ProblemConfig, _fast_diagonalisation, assemble

EXPRESSION = "sin(pi*x)*(1+t**2)"


def _spacetime(alpha, phase, grid):
    cfg = ProblemConfig.from_manufactured(
        f"sin(pi*x + {phase})*(1+t**2)", alpha=alpha, beta=0.5, epsilon=0.05, scheme="exp-fitted"
    )
    return assemble(cfg, grid)


def _limit(alpha, phase, grid):
    """The eps = 0 system of the backward Euler reference (upwind time stencil at eps = 0)."""
    cfg = ProblemConfig.from_manufactured(
        f"sin(pi*x + {phase})*(1+t**2)", alpha=alpha, beta=0.5, epsilon=0.0, scheme="centered", target="limit"
    )
    return LinearSystem(solver._data(cfg, grid).ravel(), grid, 0.0, cfg.scheme, solver._x_stencil(cfg, grid))


# (build(phase, grid), the (module, function) that takes that path's spatial basis)
PATHS = {
    "closed-form dgttrf": (lambda phase, grid: _spacetime(1.0, phase, grid), (solver, "_toeplitz_eigenvalues")),
    "dtbsv march": (lambda phase, grid: _limit(1.0, phase, grid), (solver, "_toeplitz_eigenvalues")),
    "eigh_tridiagonal": (lambda phase, grid: _spacetime("1+x", phase, grid), (scipy.linalg, "eigh_tridiagonal")),
}
WORKSPACE_ARRAYS = ("grid", "rows", "modes", "scratch")
GRID = Grid1p1.with_cells(14, 10)  # 13 interior nodes, an odd count: the sine halves have a middle column


def _fast(system):
    values, reason = _fast_diagonalisation(system)
    assert reason == ""
    return values


def _in_fresh_thread(function, *args):
    """``function(*args)`` in a new thread, whose workspace starts empty."""
    result = []
    thread = threading.Thread(target=lambda: result.append(function(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return result[0]


@pytest.mark.parametrize("path", PATHS)
def test_each_system_takes_its_path(path):
    build, (module, basis) = PATHS[path]
    with ExitStack() as stack:
        basis_spy, factor, time_solve = (
            stack.enter_context(mock.patch.object(owner, name, wraps=getattr(owner, name)))
            for owner, name in ((module, basis), (solver, "_cyclic_factor"), (solver, "_cyclic_solve"))
        )
        _fast(build(0.0, GRID))
    assert basis_spy.called
    # every mode's time system is in one block: one reduction per solve, one solve per refinement step
    assert (factor.call_count, time_solve.call_count) == (1, 2)


def test_the_sine_blocks_are_built_once_per_workspace():
    # they depend on nx alone: the first closed-form solve of a workspace
    # builds them, every later solve of its shape (another eps, the eps = 0
    # march) reuses them, and a workspace of another shape builds its own
    def count(systems):
        with mock.patch.object(solver, "_sine_halves", wraps=solver._sine_halves) as halves:
            for system in systems:
                _fast(system)
        return halves.call_count

    other = Grid1p1.with_cells(9, 12)
    assert _in_fresh_thread(count, [PATHS[path][0](0.0, GRID) for path in PATHS] * 2) == 1
    assert _in_fresh_thread(count, [PATHS["eigh_tridiagonal"][0](0.0, GRID)]) == 0
    systems = [_spacetime(1.0, 0.0, GRID), _limit(1.0, 0.3, other), _spacetime(1.0, 0.7, GRID)]
    assert _in_fresh_thread(count, systems) == 3


def test_the_sine_blocks_count_towards_the_cap_once_built():
    # with the cap one byte below a workspace's four arrays and its sine
    # blocks, (nx+1)//2 x nx doubles, the arrays alone are kept, and taking
    # the blocks frees the workspace when its solve returns
    grid = Grid1p1.with_cells(41, 3)
    blocks = 8 * ((grid.nx + 1) // 2) * grid.nx

    arrays = solver._Workspace(grid.shape).nbytes

    def take():
        with mock.patch.object(solver, "_KEPT_WORKSPACE_BYTES", arrays + blocks - 1):
            work = solver._workspace(grid.shape)
            kept = solver._local.work is work and work.nbytes == arrays
            assert solver._workspace(grid.shape, sine=True) is work
            return kept, work.nbytes - arrays, solver._local.work

    kept, added, after = _in_fresh_thread(take)
    assert kept and added == blocks and after is None


@pytest.mark.parametrize("path", PATHS)
def test_garbage_in_the_workspace_changes_no_bit(path):
    build = PATHS[path][0]
    system = build(0.0, GRID)
    fresh = _in_fresh_thread(_fast, system)
    work = solver._workspace(GRID.shape)
    for name in WORKSPACE_ARRAYS:
        getattr(work, name).fill(np.nan)
    assert _fast(system).tobytes() == fresh.tobytes()
    assert solver._workspace(GRID.shape) is work  # the same shape reused it


@pytest.mark.parametrize("path", PATHS)
def test_an_earlier_solve_of_the_same_shape_changes_no_bit(path):
    build = PATHS[path][0]
    system = build(0.0, GRID)
    fresh = _in_fresh_thread(_fast, system)
    _fast(build(0.7, GRID))
    assert _fast(system).tobytes() == fresh.tobytes()
    # and a solve on another grid in between, which replaces the workspace
    _fast(build(0.7, Grid1p1.with_cells(9, 12)))
    assert _fast(system).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("path", PATHS)
def test_a_result_does_not_change_with_a_later_solve(path):
    build = PATHS[path][0]
    first = _fast(build(0.0, GRID))
    kept = first.copy()
    second = _fast(build(0.7, GRID))
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
    work = solver._workspace(GRID.shape)
    for name in WORKSPACE_ARRAYS:
        assert not np.shares_memory(first, getattr(work, name))


def test_solve_and_march_results_do_not_alias_the_workspace():
    cfg = ProblemConfig.from_manufactured(EXPRESSION, alpha=1.0, beta=0.5, epsilon=0.0, target="limit")
    march = solver.reference_evolution(cfg, GRID).values
    solved = solver.solve(_spacetime(1.0, 0.0, GRID)).values
    work = solver._workspace(GRID.shape)
    for values in (march, solved):
        for name in WORKSPACE_ARRAYS:
            assert not np.shares_memory(values, getattr(work, name))


def _solving_at_once(path, count):
    """Whether ``count`` threads, each solving its own system 30 times at once, all get their serial bytes."""
    build = PATHS[path][0]
    systems = [build(phase, GRID) for phase in (0.0, 0.3, 0.7, 1.1)[:count]]
    serial = [_in_fresh_thread(_fast, system).tobytes() for system in systems]
    start = threading.Barrier(count, timeout=60)
    mismatches = [0] * count

    def worker(index):
        start.wait()
        for _ in range(30):
            mismatches[index] += _fast(systems[index]).tobytes() != serial[index]

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return mismatches == [0] * count


@pytest.mark.parametrize("path", PATHS)
def test_two_threads_solving_at_once_get_their_serial_results(path):
    assert _solving_at_once(path, 2)


@pytest.mark.parametrize("path", PATHS)
def test_a_repeated_solve_keeps_few_grid_sized_arrays(path):
    # with the workspace warm, a solve takes the returned values, its start
    # vector and small arrays: about 6 grid-sized arrays at most on every
    # path, against 11 to 12 when every intermediate was a fresh array
    grid = Grid1p1.with_cells(96, 96)
    system = PATHS[path][0](0.0, grid)
    _fast(system)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _fast(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (grid.n_nodes * 8) < 8


@pytest.mark.parametrize("path", PATHS)
def test_the_dirichlet_border_comes_back_bit_for_bit(path):
    # the step's border is the residual's, rhs - x on the Dirichlet nodes: a
    # zero that must leave each value as it is, the sign of a zero included
    system = PATHS[path][0](0.0, GRID)
    rhs = system.rhs.copy()
    border = system.dirichlet
    rhs[border] = np.resize([0.0, -0.0, 1.5, -7.25, 5e-324, -0.0], border.sum())
    values = _fast(dataclasses.replace(system, rhs=rhs)).ravel()
    assert values[border].tobytes() == rhs[border].tobytes()


def test_a_workspace_above_the_cap_is_freed_when_its_solve_returns():
    grid = Grid1p1.with_cells(1024, 1024)
    assert 4 * grid.n_nodes * 8 > solver._KEPT_WORKSPACE_BYTES  # about 34 MB against 32 MiB
    system = _spacetime(1.0, 0.0, grid)
    small = _spacetime(1.0, 0.0, GRID)

    def one_shot():
        _fast(small)  # a small workspace, kept until the large solve replaces it
        assert solver._local.work is not None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = _fast(system)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return values, held, getattr(solver._local, "work", None)

    values, held, kept = _in_fresh_thread(one_shot)
    assert kept is None
    # the returned values stay; the workspace alone is four arrays of their size and the sine blocks
    assert held < 1.5 * values.nbytes
