"""The fast path's time solves: cyclic reduction on one interior row and one last row per level.

``solver._cyclic_factor`` and ``solver._cyclic_solve`` solve one tridiagonal
(or lower bidiagonal) system per column of a time-major block.  The
couplings are scalars that every column shares, each column has a diagonal
of its own, and every row but the last is alike, the shape of the shifted
time systems (At[1:, 1:] + lam_k I) u_k = b_k.  These tests check the
solutions against ``numpy.linalg.solve`` of each column's dense matrix for
every size from one row to past 64 (odd and even, so each level meets both
parities), at widths 1 to 5, and against the general reduction that keeps
every row (``cyclic_reference``) byte for byte for every size from 1 to 70;
pin the first column with an exactly zero pivot at any level, the same
column the reference names, and that it leaves the other columns'
solutions as they are; pin that a column's bytes do not depend on which
columns share its block, or on the block being a strided view; and pin that
the factor takes no grid-sized array.  Each solve gets the n rows of scratch
its docstring promises and no more, filled with NaN so that a read of an
entry the kernel has not written shows.
"""

import tracemalloc

import numpy as np
import pytest
from cyclic_reference import cyclic_factor, cyclic_solve

from hodge4d.solver import _cyclic_factor, _cyclic_solve

SIZES = list(range(1, 18)) + [31, 32, 33, 63, 64, 65, 70]
WIDTHS = range(1, 6)


def _system(n, width, bidiagonal, seed):
    """``(row, last)`` for ``_cyclic_factor`` and the right-hand sides.

    The diagonals exceed the couplings' sum, the diagonally dominant systems
    that the reduction solves stably; the couplings take both signs, as the
    centered time stencil's do, and the last row's lower coupling is its
    own, as the ghost slab makes it.
    """
    rng = np.random.default_rng(seed)
    lower, last_lower = rng.uniform(-1.0, 1.0, 2)
    upper = None if bidiagonal else rng.uniform(-1.0, 1.0)
    reach = abs(lower) + (0.0 if bidiagonal else abs(upper))
    main, last_main = reach + rng.uniform(0.2, 3.0, (2, width))
    main[::2] *= -1.0  # a negative diagonal dominates as well
    last_main[1::2] *= -1.0
    return (lower, main, upper), (last_lower, last_main), rng.standard_normal((n, width))


def _rows(n, row, last):
    """The reference's arguments: every row's couplings as ``(n, 1)`` columns and its ``(n, width)`` diagonals.

    Row 0's lower coupling and the last row's upper one couple to no row;
    they are NaN, which must enter no result.
    """
    lower, main, upper = row
    last_lower, last_main = last
    lowers = np.full((n, 1), lower)
    lowers[-1], lowers[0] = last_lower, np.nan
    mains = np.repeat(main[None, :], n, axis=0)
    mains[-1] = last_main
    uppers = None
    if upper is not None:
        uppers = np.full((n, 1), upper)
        uppers[-1] = np.nan
    return lowers, mains, uppers


def _dense(n, row, last, column):
    """Column ``column``'s matrix: main on the diagonal, -lower below it and -upper above it."""
    lowers, mains, uppers = _rows(n, row, last)
    matrix = np.diag(mains[:, column]) - np.diag(lowers[1:, 0], -1)
    if uppers is not None:
        matrix -= np.diag(uppers[:-1, 0], 1)
    return matrix


def _solve(row, last, rhs):
    """The reduction's solution of every column, with n rows of scratch filled with NaN."""
    n, width = rhs.shape
    levels, zero = _cyclic_factor(n, row, last)
    x = rhs.copy()
    _cyclic_solve(levels, x, np.full(n * width, np.nan))
    return x, zero


def _reference(row, last, rhs):
    """The general reduction's solution of every column and its first zero-pivot column."""
    n, width = rhs.shape
    lowers, mains, uppers = _rows(n, row, last)
    store, scratch = np.full(3 * n * width, np.nan), np.full(n * width, np.nan)
    levels, zero = cyclic_factor(lowers, mains, uppers, store, scratch)
    x = rhs.copy()
    cyclic_solve(levels, x, scratch)
    return x, zero


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
@pytest.mark.parametrize("n", SIZES)
def test_every_column_meets_the_dense_solve(n, bidiagonal):
    for width in WIDTHS:
        row, last, rhs = _system(n, width, bidiagonal, seed=1000 * n + width)
        x, zero = _solve(row, last, rhs)
        assert zero is None
        for column in range(width):
            expected = np.linalg.solve(_dense(n, row, last, column), rhs[:, column])
            error = np.abs(x[:, column] - expected).max()
            assert error <= 1e-13 * np.abs(expected).max(), (width, column, error)


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
def test_every_size_equals_the_general_reduction_byte_for_byte(bidiagonal):
    # signed zeros in the data and in the last coupling take the rules for
    # -0.0 products that the general reduction has
    for n in range(1, 71):
        for width in WIDTHS:
            row, last, rhs = _system(n, width, bidiagonal, seed=7000 * n + width)
            rhs[::3, ::2] = 0.0
            rhs[1::4, 1::2] = -0.0
            if n % 5 == 0:
                last = (-0.0, last[1])
            x, zero = _solve(row, last, rhs)
            expected, expected_zero = _reference(row, last, rhs)
            assert (zero, expected_zero) == (None, None)
            assert x.tobytes() == expected.tobytes(), (n, width)


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
def test_a_columns_bytes_do_not_depend_on_its_block(n, bidiagonal):
    # one block of five columns, against a block of two and a block of three
    # columns, and against a strided view of columns inside a wider array
    (lower, main, upper), (last_lower, last_main), rhs = _system(n, 5, bidiagonal, seed=n)
    whole, _ = _solve((lower, main, upper), (last_lower, last_main), rhs)
    split = np.concatenate(
        [_solve((lower, main[s], upper), (last_lower, last_main[s]), rhs[:, s])[0] for s in (np.s_[:2], np.s_[2:])],
        axis=1,
    )
    assert split.tobytes() == whole.tobytes()
    wide = np.full((n, 9), np.nan)
    view = wide[:, 3:8]
    view[:] = rhs
    levels, _ = _cyclic_factor(n, (lower, main, upper), (last_lower, last_main))
    _cyclic_solve(levels, view, np.full(n * 5, np.nan))
    assert np.ascontiguousarray(view).tobytes() == whole.tobytes()
    assert np.isnan(wide[:, :3]).all() and np.isnan(wide[:, 8:]).all()


def test_a_zero_pivot_names_the_first_column_that_meets_one_at_any_level():
    # three rows with couplings lower = upper = 2 and last lower 1.5: column
    # 3's diagonals 4 and 1 give the pivots 4 and 1 on level 0 and
    # 4 - (2/4*2 + 2/1*1.5) = 0 on level 1; column 4 has a zero pivot on
    # level 0; columns 0 to 2 are regular
    main, last_main = np.full(5, 8.0), np.full(5, 8.0)
    main[3], last_main[3] = 4.0, 1.0
    main[4] = 0.0
    row, last = (2.0, main, 2.0), (1.5, last_main)
    rhs = np.arange(15.0).reshape(3, 5)
    with np.errstate(divide="ignore", invalid="ignore"):
        x, zero = _solve(row, last, rhs)
        assert _solve((2.0, main[4:], 2.0), (1.5, last_main[4:]), rhs[:, 4:])[1] == 0
        expected_zero = _reference(row, last, rhs)[1]
    assert zero == expected_zero == 3
    for column in range(3):
        expected = np.linalg.solve(_dense(3, row, last, column), rhs[:, column])
        assert np.abs(x[:, column] - expected).max() <= 1e-14 * np.abs(expected).max()


def test_a_zero_diagonal_is_a_zero_pivot_of_a_bidiagonal_system():
    # a lower bidiagonal system's pivots are its diagonals, on every level;
    # of six rows, the last is a pivot on level 1 (three rows) only
    main, last_main = np.full(3, 2.0), np.full(3, 2.0)
    last_main[2] = 0.0
    main[1] = 0.0
    row, last = (0.5, main, None), (0.5, last_main)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, zero = _solve(row, last, np.ones((6, 3)))
        assert _solve((0.5, main[2:], None), (0.5, last_main[2:]), np.ones((6, 1)))[1] == 0
        expected_zero = _reference(row, last, np.ones((6, 3)))[1]
    assert zero == expected_zero == 1


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
def test_the_factor_takes_no_grid_sized_array(bidiagonal):
    # one interior row and one last row per level: 12 levels of a few
    # 63-wide vectors, against 2 MB for one array of the block
    n, width = 4095, 63
    row, last, _ = _system(1, width, bidiagonal, seed=5)
    tracemalloc.start()
    try:
        levels, _ = _cyclic_factor(n, row, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(levels) == 12
    assert peak < 0.05 * n * width * 8
