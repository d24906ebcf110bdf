"""The fast path's time solves: batched cyclic reduction against a dense oracle.

``solver._cyclic_factor`` and ``solver._cyclic_solve`` solve one tridiagonal
(or lower bidiagonal) system per column of a time-major block, with
couplings that every column shares and a diagonal of its own, the shape of
the shifted time systems (At[1:, 1:] + lam_k I) u_k = b_k.  These tests
check the solutions against ``numpy.linalg.solve`` of each column's dense
matrix for every size from one row to past 64 (odd and even, so each level
meets both parities), at widths 1 to 5; pin the first column with an exactly
zero pivot at any level, and that it leaves the other columns' solutions as
they are; and pin that a column's bytes do not depend on which columns
share its block, or on the block being a strided view.  Each call gets the storage its
docstring promises and no more, filled with NaN so that a read of an entry
the kernel has not written shows: 3n rows of levels and n rows of scratch
per column.
"""

import numpy as np
import pytest

from hodge4d.solver import _cyclic_factor, _cyclic_solve

SIZES = list(range(1, 18)) + [31, 32, 33, 63, 64, 65, 70]
WIDTHS = range(1, 6)


def _system(n, width, bidiagonal, seed):
    """Shared couplings ``(lower, upper)`` as columns, per-column diagonals and right-hand sides.

    The diagonals exceed the couplings' sum in every row, the diagonally
    dominant systems that the reduction solves stably; the couplings take
    both signs, as the centered time stencil's do.  lower[0] and upper[-1]
    couple to no row and are NaN, which must enter no result.
    """
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, (n, 1))
    lower[0] = 0.0
    upper = None if bidiagonal else rng.uniform(-1.0, 1.0, (n, 1))
    reach = np.abs(lower)
    if upper is not None:
        upper[-1] = 0.0
        reach = reach + np.abs(upper)
    main = reach + rng.uniform(0.2, 3.0, (n, width))
    main[:, ::2] *= -1.0  # a negative diagonal dominates as well
    lower[0] = np.nan
    if upper is not None:
        upper[-1] = np.nan
    return lower, main, upper, rng.standard_normal((n, width))


def _dense(lower, main, upper, column):
    """Column ``column``'s matrix: main on the diagonal, -lower below it and -upper above it."""
    matrix = np.diag(main[:, column]) - np.diag(lower[1:, 0], -1)
    if upper is not None:
        matrix -= np.diag(upper[:-1, 0], 1)
    return matrix


def _solve(lower, main, upper, rhs):
    """The reduction's solution of every column, from buffers of the promised sizes filled with NaN."""
    n, width = main.shape
    store, scratch = np.full(3 * n * width, np.nan), np.full(n * width, np.nan)
    levels, zero = _cyclic_factor(lower, main.copy(), upper, store, scratch)
    x = rhs.copy()
    _cyclic_solve(levels, x, scratch)
    return x, zero


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
@pytest.mark.parametrize("n", SIZES)
def test_every_column_meets_the_dense_solve(n, bidiagonal):
    for width in WIDTHS:
        lower, main, upper, rhs = _system(n, width, bidiagonal, seed=1000 * n + width)
        x, zero = _solve(lower, main, upper, rhs)
        assert zero is None
        for column in range(width):
            expected = np.linalg.solve(_dense(lower, main, upper, column), rhs[:, column])
            error = np.abs(x[:, column] - expected).max()
            assert error <= 1e-13 * np.abs(expected).max(), (width, column, error)


@pytest.mark.parametrize("bidiagonal", [False, True], ids=["tridiagonal", "bidiagonal"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
def test_a_columns_bytes_do_not_depend_on_its_block(n, bidiagonal):
    # one block of five columns, against a block of two and a block of three
    # columns, and against a strided view of columns inside a wider array
    lower, main, upper, rhs = _system(n, 5, bidiagonal, seed=n)
    whole, _ = _solve(lower, main, upper, rhs)
    split = np.concatenate([_solve(lower, main[:, s], upper, rhs[:, s])[0] for s in (np.s_[:2], np.s_[2:])], axis=1)
    assert split.tobytes() == whole.tobytes()
    wide = np.full((n, 9), np.nan)
    view = wide[:, 3:8]
    view[:] = rhs
    store, scratch = np.full(3 * n * 5, np.nan), np.full(n * 5, np.nan)
    levels, _ = _cyclic_factor(lower, main.copy(), upper, store, scratch)
    _cyclic_solve(levels, view, scratch)
    assert np.ascontiguousarray(view).tobytes() == whole.tobytes()
    assert np.isnan(wide[:, :3]).all() and np.isnan(wide[:, 8:]).all()


def test_a_zero_pivot_names_the_first_column_that_meets_one_at_any_level():
    # three rows with unit couplings: column 3's diagonal (1, 2, 1) gives the
    # pivots 1 and 1 on level 0 and 2 - 1 - 1 = 0 on level 1; column 4 has a
    # zero pivot on level 0; columns 0 to 2 are regular
    lower = np.array([[0.0], [1.0], [1.0]])
    upper = np.array([[1.0], [1.0], [0.0]])
    main = np.full((3, 5), 4.0)
    main[:, 3] = (1.0, 2.0, 1.0)
    main[0, 4] = 0.0
    rhs = np.arange(15.0).reshape(3, 5)
    with np.errstate(divide="ignore", invalid="ignore"):
        x, zero = _solve(lower, main, upper, rhs)
        assert _solve(lower, main[:, 4:], upper, rhs[:, 4:])[1] == 0
    assert zero == 3
    for column in range(3):
        expected = np.linalg.solve(_dense(lower, main, upper, column), rhs[:, column])
        assert np.abs(x[:, column] - expected).max() <= 1e-14 * np.abs(expected).max()


def test_a_zero_diagonal_is_a_zero_pivot_of_a_bidiagonal_system():
    # a lower bidiagonal system's pivots are its diagonal, on every level
    lower = np.full((6, 1), 0.5)
    lower[0] = 0.0
    main = np.full((6, 3), 2.0)
    main[3, 2] = 0.0  # row 3 is the one row of the deepest level
    main[0, 1] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, zero = _solve(lower, main, None, np.ones((6, 3)))
        assert _solve(lower, main[:, 2:], None, np.ones((6, 1)))[1] == 0
    assert zero == 1
