"""The fast solve's per-thread workspace: reuse must not change a bit.

``_fast_diagonalisation`` writes its grid-sized intermediates into one
workspace per thread (``solver._workspace``) and reuses it across solves of
the same grid shape.  These tests pin that the reuse is invisible on each of
its three paths (the closed-form sine basis with the dgttrf time solve, the
dtbsv forward substitution of the eps = 0 backward Euler reference, and the
``eigh_tridiagonal`` basis): a solve after garbage in the workspace, or after
another system of the same shape, equals a solve in a fresh thread bit for
bit; a returned result never aliases the workspace; the Dirichlet border
comes back bit for bit; and two threads solving at once get their serial
results.  Two tracemalloc pins keep the solve from going back to fresh
grid-sized temporaries and keep a workspace above the size cap from
outliving its solve.
"""

import dataclasses
import sys
import threading
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from hodge4d import solver
from hodge4d.solver import Grid1p1, ProblemConfig, _fast_diagonalisation, assemble

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
    return solver._system(solver._data(cfg, grid), grid, 0.0, cfg.scheme, solver._x_stencil(cfg, grid))


# (build(phase, grid), the solver functions that path must call)
PATHS = {
    "closed-form dgttrf": (lambda phase, grid: _spacetime(1.0, phase, grid), ("_toeplitz_eigenpairs", "dgttrf")),
    "dtbsv march": (lambda phase, grid: _limit(1.0, phase, grid), ("_toeplitz_eigenpairs", "dtbsv")),
    "eigh_tridiagonal": (lambda phase, grid: _spacetime("1+x", phase, grid), ("eigh_tridiagonal", "dgttrf")),
}
GRID = Grid1p1.with_cells(13, 10)  # an odd interior count: the sine halves have a middle column


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
    build, called = PATHS[path]
    with ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(solver, name, wraps=getattr(solver, name))) for name in called]
        _fast(build(0.0, GRID))
    assert all(spy.called for spy in spies)


@pytest.mark.parametrize("path", PATHS)
def test_garbage_in_the_workspace_changes_no_bit(path):
    build = PATHS[path][0]
    system = build(0.0, GRID)
    fresh = _in_fresh_thread(_fast, system)
    work = solver._workspace(GRID.shape)
    for name in ("grid", "rows", "modes", "scratch", "bands"):
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
    for name in ("grid", "rows", "modes", "scratch", "bands"):
        assert not np.shares_memory(first, getattr(work, name))


def test_solve_and_march_results_do_not_alias_the_workspace():
    cfg = ProblemConfig.from_manufactured(EXPRESSION, alpha=1.0, beta=0.5, epsilon=0.0, target="limit")
    march = solver.reference_evolution(cfg, GRID).values
    solved = solver.solve(_spacetime(1.0, 0.0, GRID)).values
    work = solver._workspace(GRID.shape)
    for values in (march, solved):
        for name in ("grid", "rows", "modes", "scratch", "bands"):
            assert not np.shares_memory(values, getattr(work, name))


@pytest.mark.parametrize("path", PATHS)
def test_two_threads_solving_at_once_get_their_serial_results(path):
    build = PATHS[path][0]
    systems = [build(phase, GRID) for phase in (0.0, 0.7)]
    serial = [_in_fresh_thread(_fast, system).tobytes() for system in systems]
    start = threading.Barrier(2, timeout=60)
    mismatches = [0, 0]

    def worker(index):
        start.wait()
        for _ in range(30):
            mismatches[index] += _fast(systems[index]).tobytes() != serial[index]

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(2)]
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
    assert mismatches == [0, 0]


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
    grid = Grid1p1.with_cells(800, 800)
    assert 7 * grid.n_nodes * 8 > solver._KEPT_WORKSPACE_BYTES  # about 36 MB against 32 MiB
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
    # the returned values stay; the workspace alone is seven arrays of their size
    assert held < 1.5 * values.nbytes
