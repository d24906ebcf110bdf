"""The fast solve's workspace, its block of modes and its threads: none may change a bit.

``_fast_diagonalisation`` takes one of three paths, named here by the
spatial basis and the kind of time system: ``sine/tridiagonal`` (the
closed-form sine basis, eps > 0), ``sine/bidiagonal`` (the eps = 0 backward
Euler reference, whose time systems are lower bidiagonal) and
``eigh/tridiagonal`` (the ``eigh_tridiagonal`` basis of an x-dependent
coefficient).  Each solve factors all its modes' time systems in one call
to ``solver._cyclic_factor`` and solves them in one call per refinement
step; the closed-form sine blocks are built once per workspace.

The grid-sized intermediates live in one workspace per thread
(``solver._workspace``), reused across solves of the same grid shape.  A
solve after garbage in the workspace, or after another system of the same
shape, equals a solve in a fresh thread bit for bit; a returned result never
aliases the workspace; and the Dirichlet border comes back bit for bit.
Two tracemalloc pins keep the solve from going back to fresh grid-sized
temporaries and keep a workspace above the size cap from outliving its
solve, and the sine blocks count towards that cap once they are built.

The sine basis holds its modes as one time-major block of two halves of
columns, the antisymmetric modes and then the symmetric ones.  A zero pivot
is named by its lowest mode whichever half holds it, an exception in a time
solve reaches the caller and leaves the next solve its bits, data near the
float maximum raises no warning, a solve starts no thread, and two or four
threads solving at once, or a child forked after a solve, get the serial
bytes.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from hodge4d import solver
from hodge4d.errors import SolveError
from hodge4d.solver import Grid1p1, LinearSystem, ProblemConfig, _fast_diagonalisation, assemble, reference_evolution

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
    "sine/tridiagonal": (lambda phase, grid: _spacetime(1.0, phase, grid), (solver, "_toeplitz_eigenvalues")),
    "sine/bidiagonal": (lambda phase, grid: _limit(1.0, phase, grid), (solver, "_toeplitz_eigenvalues")),
    "eigh/tridiagonal": (lambda phase, grid: _spacetime("1+x", phase, grid), (scipy.linalg, "eigh_tridiagonal")),
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
    assert _in_fresh_thread(count, [PATHS["eigh/tridiagonal"][0](0.0, GRID)]) == 0
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
def test_four_threads_solving_at_once_get_their_serial_results(path):
    assert _solving_at_once(path, 4)


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


def _with_zero_diagonals(system, modes):
    """``_toeplitz_eigenvalues`` with the shifted diagonal of each of ``modes`` zero in every row."""
    eigenvalues, step_main = solver._toeplitz_eigenvalues, system.t_stencil[1][1]

    def singular(a, s, n):
        lam = eigenvalues(a, s, n)
        lam[list(modes)] = -step_main
        return lam

    return mock.patch.object(solver, "_toeplitz_eigenvalues", singular)


@pytest.mark.parametrize("modes, first", [((2,), 2), ((5,), 5), ((5, 2), 2)], ids=["antisymmetric", "symmetric", "both"])
def test_a_zero_diagonal_is_named_by_its_mode_over_both_sine_halves(modes, first):
    # 8 cells: 7 modes, the antisymmetric half holds modes 0-2 and the
    # symmetric half modes 3-6; a lower bidiagonal system's pivots are its diagonal
    system = PATHS["sine/bidiagonal"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        assert _fast_diagonalisation(system) == (None, f"zero pivot in the time system of mode {first}")


@pytest.mark.parametrize("modes, first", [((4,), 4), ((6, 1), 1)], ids=["symmetric", "both"])
def test_a_zero_pivot_is_named_by_its_mode_over_both_sine_halves(modes, first):
    # the tridiagonal time systems of 8 x 6 cells: 7 modes, the antisymmetric
    # half holds modes 0-2 and the symmetric half modes 3-6; a zero diagonal
    # makes the first pivot zero
    system = PATHS["sine/tridiagonal"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        assert _fast_diagonalisation(system) == (None, f"zero pivot in the time system of mode {first}")


class Injected(Exception):
    pass


def test_an_exception_in_a_time_solve_reaches_the_caller():
    system = PATHS["sine/tridiagonal"][0](0.0, GRID)
    expected = _fast(system)

    def failing(*args):
        raise Injected("time solve")

    with mock.patch.object(solver, "_cyclic_solve", failing), pytest.raises(Injected):
        _fast_diagonalisation(system)
    # the workspace the failed solve left half written gives the next solve its bits
    assert _fast(system).tobytes() == expected.tobytes()


@pytest.mark.parametrize("caller", ["warn", "raise"])
def test_data_near_the_float_maximum_warns_in_neither_sine_half(caller):
    # the fast path overflows in both sine halves before the time steps report
    # the value that is not finite; a RuntimeWarning would fail the test.
    # solve ignores floating-point exceptions whatever the caller's errstate,
    # so a caller that raises on them gets the SolveError, not FloatingPointError
    cfg = ProblemConfig.from_expressions("0", "1e307*(1+x)", alpha=1.0, beta=0.5, epsilon=0.0)
    with np.errstate(all=caller):
        with pytest.raises(SolveError, match=r"not finite \(eps=0.0, scheme=centered, grid=24x96 cells\)$"):
            reference_evolution(cfg, Grid1p1.with_cells(24, 96))


def test_a_solve_starts_no_thread():
    # a process that may start no thread solves as any other: the solve
    # asks for no thread, on any of its paths
    systems = [PATHS[path][0](0.0, GRID) for path in PATHS]
    expected = [_fast(system).tobytes() for system in systems]
    started = []

    def refuse(thread):
        started.append(thread)
        raise RuntimeError("can't start new thread")

    with mock.patch.object(threading.Thread, "start", refuse):
        assert [_fast(system).tobytes() for system in systems] == expected
    assert started == []


def _solve_into(writer, system):
    writer.send_bytes(_fast(system).tobytes())


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="fork is POSIX-only")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_child_forked_after_a_solve_gets_the_parents_bytes():
    # the child inherits the parent's workspace for the grid and reuses it
    system = PATHS["sine/tridiagonal"][0](0.0, GRID)
    parent = _fast(system)
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_solve_into, args=(writer, system))
    child.start()
    writer.close()
    try:
        assert reader.poll(60), "the forked child did not solve"
        values = reader.recv_bytes()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=60)
    assert values == parent.tobytes()
    assert child.exitcode == 0
