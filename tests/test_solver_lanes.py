"""The fast solve's two lanes: where a lane runs must not change a bit.

``_fast_diagonalisation`` splits its modes into two lanes, and a helper
thread runs lane 1 while the caller runs lane 0 (``solver._in_lanes``).
The matrix-free products of the refinement steps split the grid's rows
into two lanes the same way.  These tests run each of the three fast paths
(the closed-form sine basis with tridiagonal time systems, the eps = 0
backward Euler reference with lower bidiagonal ones, and the
``eigh_tridiagonal`` basis; see ``test_solver_workspace`` for the path ids)
once with lane 1 on a helper and once with both lanes in the caller, and pin
that the results, the reasons for a rejection and an exception in a lane
are the same, and that a solve hands five lanes to the helper.  They also
pin the helper's lifecycle: it starts only while numpy's BLAS, the only one
the fast path calls, runs on one thread, solves that find it busy run both
lanes themselves, four threads solving at once get their serial results,
and a child forked after a solve gets its own helper.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from test_cli import _checkout_env
from test_solver_workspace import GRID, PATHS, _fast, _in_fresh_thread

from hodge4d import solver
from hodge4d.errors import SolveError
from hodge4d.solver import Grid1p1, ProblemConfig, _fast_diagonalisation, reference_evolution


class CountingHelper(solver._Helper):
    """A helper that counts the lanes it has run."""

    __slots__ = ("runs",)

    def __init__(self):
        self.runs = 0
        super().__init__()

    def _run(self, *task):
        self.runs += 1
        super()._run(*task)


@pytest.fixture(scope="module")
def shared_helper():
    return CountingHelper()


@pytest.fixture
def helper(shared_helper):
    """A helper that takes lane 1 of every solve in the test, small grids and one CPU included."""
    with mock.patch.object(solver, "_LANE_HELPER_NODES", (0, 0)):
        with mock.patch.object(solver, "_lane_helper", return_value=shared_helper):
            yield shared_helper


def _inline(function, *args):
    """``function(*args)`` with both lanes of every solve run by the caller."""
    with mock.patch.object(solver, "_lane_helper", return_value=None):
        return function(*args)


# interior node counts nx = 2 and 3 (a lane of one mode), 12 (even: the sine
# halves are the same size) and 13 (odd: the symmetric half has the middle column)
CELLS = {"nx=2": (3, 5), "nx=3": (4, 5), "nx=12": (13, 10), "nx=13": (14, 11)}


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("path", PATHS)
def test_the_helper_changes_no_bit(path, cells, helper):
    system = PATHS[path][0](0.0, Grid1p1.with_cells(*CELLS[cells]))
    inline = _inline(_fast, system)
    runs = helper.runs
    assert _fast(system).tobytes() == inline.tobytes()
    assert helper.runs - runs == 5  # the factorization, two refinement steps and two products


@pytest.mark.parametrize("path, runs", [("closed-form dgttrf", 5), ("dtbsv march", 0)])
def test_the_march_needs_a_larger_grid_for_the_helper(path, runs, shared_helper):
    # 127 x 127 interior nodes: above the eps > 0 threshold, below the march's
    grid = Grid1p1(127, 127)
    assert solver._LANE_HELPER_NODES[0] <= grid.nx * grid.nt < solver._LANE_HELPER_NODES[1]
    system = PATHS[path][0](0.0, grid)
    before = shared_helper.runs
    with mock.patch.object(solver, "_lane_helper", return_value=shared_helper):
        _fast(system)
    assert shared_helper.runs - before == runs


def _with_zero_diagonals(system, modes):
    """``_toeplitz_eigenpairs`` with the shifted diagonal of each of ``modes`` zero in every row."""
    eigenpairs, step_main = solver._toeplitz_eigenpairs, system.t_stencil[1][1]

    def singular(a, s, n):
        lam, halves = eigenpairs(a, s, n)
        lam[list(modes)] = -step_main
        return lam, halves

    return mock.patch.object(solver, "_toeplitz_eigenpairs", singular)


@pytest.mark.parametrize("modes, first", [((2,), 2), ((5,), 5), ((5, 2), 2)], ids=["lane-0", "lane-1", "both"])
def test_a_zero_diagonal_is_named_by_its_mode_over_both_lanes(modes, first, helper):
    # 8 cells: 7 modes, lane 0 holds modes 0-2 and lane 1 modes 3-6; a lower
    # bidiagonal system's pivots are its diagonal
    system = PATHS["dtbsv march"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        on_helper = _fast_diagonalisation(system)
        inline = _inline(_fast_diagonalisation, system)
    assert on_helper == inline == (None, f"zero pivot in the time system of mode {first}")


@pytest.mark.parametrize("modes, first", [((4,), 4), ((6, 1), 1)], ids=["lane-1", "both"])
def test_a_zero_pivot_is_named_by_its_mode_over_both_lanes(modes, first, helper):
    # the tridiagonal time systems of 8 x 6 cells: 7 modes, lane 0 holds
    # modes 0-2 and lane 1 modes 3-6; a zero diagonal makes the first pivot zero
    system = PATHS["closed-form dgttrf"][0](0.0, Grid1p1.with_cells(8, 6))
    with _with_zero_diagonals(system, modes):
        on_helper = _fast_diagonalisation(system)
        inline = _inline(_fast_diagonalisation, system)
    assert on_helper == inline == (None, f"zero pivot in the time system of mode {first}")


class LaneError(Exception):
    pass


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_an_exception_in_a_lane_reaches_the_caller(where, helper):
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    expected = _inline(_fast, system)
    caller, time_solve = threading.current_thread(), solver._cyclic_solve

    def failing(*args):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise LaneError(where)
        return time_solve(*args)

    with mock.patch.object(solver, "_cyclic_solve", failing), pytest.raises(LaneError, match=where):
        _fast_diagonalisation(system)
    # the helper is free again, and the next solve gets its bits
    assert not helper.idle.locked()
    runs = helper.runs
    assert _fast(system).tobytes() == expected.tobytes()
    assert helper.runs - runs == 5


def test_the_helper_lane_runs_under_the_callers_errstate(helper):
    def lane(index):
        return np.array([1e308]) * (10.0 if index else 1.0)  # only lane 1 overflows

    with np.errstate(over="ignore"):
        assert np.isinf(solver._in_lanes(helper, lane)[1]).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        solver._in_lanes(helper, lane)


@pytest.mark.parametrize("caller", ["warn", "raise"])
def test_data_near_the_float_maximum_raises_no_warning_in_either_lane(caller, helper):
    # the fast path overflows in both lanes before the time steps report the
    # value that is not finite; a RuntimeWarning would fail the test.  solve
    # ignores floating-point exceptions whatever the caller's errstate, so a
    # caller that raises on them gets the SolveError, not FloatingPointError
    cfg = ProblemConfig.from_expressions("0", "1e307*(1+x)", alpha=1.0, beta=0.5, epsilon=0.0)
    runs = helper.runs
    with np.errstate(all=caller):
        with pytest.raises(SolveError, match=r"not finite \(eps=0.0, scheme=centered, grid=23x95\)$"):
            reference_evolution(cfg, Grid1p1.with_cells(24, 96))
    assert helper.runs - runs == 5


def test_a_solve_that_finds_the_helper_busy_runs_both_lanes_itself(helper):
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    expected = _inline(_fast, system)
    assert helper.idle.acquire(timeout=60)  # as another thread's solve holds it
    try:
        runs = helper.runs
        values = _in_fresh_thread(_fast, system)  # it would hang if it queued
    finally:
        helper.idle.release()
    assert values.tobytes() == expected.tobytes()
    assert helper.runs == runs


@pytest.mark.parametrize("path", PATHS)
def test_four_threads_solving_at_once_get_their_serial_results(path, helper):
    build = PATHS[path][0]
    systems = [build(phase, GRID) for phase in (0.0, 0.3, 0.7, 1.1)]
    serial = [_inline(_in_fresh_thread, _fast, system).tobytes() for system in systems]
    runs = helper.runs
    start = threading.Barrier(4, timeout=60)
    mismatches = [0] * 4

    def worker(index):
        start.wait()
        for _ in range(30):
            mismatches[index] += _fast(systems[index]).tobytes() != serial[index]

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
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
    assert mismatches == [0] * 4
    assert helper.runs > runs


@pytest.fixture
def unstarted(monkeypatch):
    """A process with no helper yet, on two CPUs, with BLAS on one thread, whose every solve may use the helper."""
    monkeypatch.setattr(solver, "_LANE_HELPER_NODES", (0, 0))
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_blas_thread_counter", lambda: 1)
    monkeypatch.setattr(solver, "_helper", solver._UNSTARTED)


@pytest.mark.parametrize(
    "count, started", [(1, True), (2, False), (None, False)], ids=["one-thread", "two-threads", "numpy-blas-unknown"]
)
def test_the_helper_starts_only_when_every_blas_runs_on_one_thread(count, started, unstarted, monkeypatch):
    # the count of numpy's BLAS, the only one the fast path calls: a BLAS on
    # several threads already uses the cores, and a product called from the
    # helper at the same time stalls in it; an unknown BLAS counts as one on
    # several threads
    monkeypatch.setattr(solver, "_blas_thread_counter", None if count is None else (lambda: count))
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    expected = _inline(_fast, system)
    assert _fast(system).tobytes() == expected.tobytes()
    assert isinstance(solver._helper, solver._Helper) if started else solver._helper is solver._UNSTARTED


@pytest.mark.parametrize("threads", ["1", "2"])
def test_openblas_thread_counts_are_read_from_the_loaded_libraries(threads):
    if threads != "1" and solver._usable_cpus() < 2:
        pytest.skip("OpenBLAS takes one thread on one CPU")
    code = (
        "from hodge4d import solver; "
        "print(solver._find_blas_thread_counter() is None, solver._blas_on_one_thread())"
    )
    env = dict(_checkout_env(), OPENBLAS_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    unknown, one_thread = done.stdout.split()
    if unknown == "True":
        pytest.skip("numpy calls a BLAS other than OpenBLAS here")
    assert one_thread == str(threads == "1")


def test_a_process_that_cannot_start_the_helper_solves_in_the_caller(unstarted):
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    expected = _inline(_fast, system)

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    with mock.patch.object(threading.Thread, "start", refuse):
        assert _fast(system).tobytes() == expected.tobytes()
    assert solver._helper is None


def _solve_into(writer, system):
    writer.send_bytes(_fast(system).tobytes())


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="fork is POSIX-only")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_child_forked_after_a_solve_gets_the_parents_bytes(unstarted):
    # the child has no helper thread; without the reset at fork it would hand
    # its lane to the parent's helper and wait for it forever
    system = PATHS["closed-form dgttrf"][0](0.0, GRID)
    parent = _fast(system)
    assert isinstance(solver._helper, solver._Helper)  # the solve started the helper
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
