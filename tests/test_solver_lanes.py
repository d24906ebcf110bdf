"""The fast solve's two lanes of modes, both run in the calling thread.

``_fast_diagonalisation`` holds its modes as one time-major block.  With
the closed-form sine basis the block has two lanes of columns: lane 0 the
antisymmetric modes and lane 1 the symmetric ones, each written by its own
half product (``solver._sine_forward``); every mode's time system is then
factored and solved over the whole block, both lanes at once.  These tests
run each of the three fast paths (see ``test_solver_workspace`` for the
path ids) and pin that a zero pivot is named by its lowest mode whichever
lane holds it, that an exception in a solve reaches the caller and leaves
the next solve its bits, that data near the float maximum raises no
warning, that the solve starts no thread, and that four threads solving at
once, or a child forked after a solve, get the serial bytes.  The no-thread
test's name speaks of a helper thread: a process that cannot start one
solves in the caller, as every process does.
"""

import multiprocessing
import os
import threading
from unittest import mock

import numpy as np
import pytest
from test_solver_workspace import GRID, PATHS, _fast, _solving_at_once

from hodge4d import solver
from hodge4d.errors import SolveError
from hodge4d.solver import Grid1p1, ProblemConfig, _fast_diagonalisation, reference_evolution


def _with_zero_diagonals(system, modes):
    """``_toeplitz_eigenvalues`` with the shifted diagonal of each of ``modes`` zero in every row."""
    eigenvalues, step_main = solver._toeplitz_eigenvalues, system.t_stencil[1][1]

    def singular(a, s, n):
        lam = eigenvalues(a, s, n)
        lam[list(modes)] = -step_main
        return lam

    return mock.patch.object(solver, "_toeplitz_eigenvalues", singular)


@pytest.mark.parametrize("modes, first", [((2,), 2), ((5,), 5), ((5, 2), 2)], ids=["lane-0", "lane-1", "both"])
def test_a_zero_diagonal_is_named_by_its_mode_over_both_lanes(modes, first):
    # 8 cells: 7 modes, lane 0 holds the antisymmetric modes 0-2 and lane 1
    # the symmetric 3-6; a lower bidiagonal system's pivots are its diagonal
    system = PATHS["dtbsv march"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        assert _fast_diagonalisation(system) == (None, f"zero pivot in the time system of mode {first}")


@pytest.mark.parametrize("modes, first", [((4,), 4), ((6, 1), 1)], ids=["lane-1", "both"])
def test_a_zero_pivot_is_named_by_its_mode_over_both_lanes(modes, first):
    # the tridiagonal time systems of 8 x 6 cells: 7 modes, lane 0 holds
    # modes 0-2 and lane 1 modes 3-6; a zero diagonal makes the first pivot zero
    system = PATHS["closed-form dgttrf"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        assert _fast_diagonalisation(system) == (None, f"zero pivot in the time system of mode {first}")


class LaneError(Exception):
    pass


@pytest.mark.parametrize("where", ["caller"])  # both lanes run in the calling thread
def test_an_exception_in_a_lane_reaches_the_caller(where):
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    expected = _fast(system)
    caller, time_solve = threading.current_thread(), solver._cyclic_solve

    def failing(*args):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise LaneError(where)
        return time_solve(*args)

    with mock.patch.object(solver, "_cyclic_solve", failing), pytest.raises(LaneError, match=where):
        _fast_diagonalisation(system)
    # the workspace the failed solve left half written gives the next solve its bits
    assert _fast(system).tobytes() == expected.tobytes()


@pytest.mark.parametrize("caller", ["warn", "raise"])
def test_data_near_the_float_maximum_raises_no_warning_in_either_lane(caller):
    # the fast path overflows in both lanes before the time steps report the
    # value that is not finite; a RuntimeWarning would fail the test.  solve
    # ignores floating-point exceptions whatever the caller's errstate, so a
    # caller that raises on them gets the SolveError, not FloatingPointError
    cfg = ProblemConfig.from_expressions("0", "1e307*(1+x)", alpha=1.0, beta=0.5, epsilon=0.0)
    with np.errstate(all=caller):
        with pytest.raises(SolveError, match=r"not finite \(eps=0.0, scheme=centered, grid=23x95\)$"):
            reference_evolution(cfg, Grid1p1.with_cells(24, 96))


@pytest.mark.parametrize("path", PATHS)
def test_four_threads_solving_at_once_get_their_serial_results(path):
    assert _solving_at_once(path, 4)


def test_a_process_that_cannot_start_the_helper_solves_in_the_caller():
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
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
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
