"""The general batched cyclic reduction that the constant-in-time kernel replaced.

It is kept as a test oracle: ``cyclic_factor`` factors one tridiagonal (or
lower bidiagonal) system per column of a time-major block, every row with
its own diagonal, and keeps each level's pivot reciprocals and couplings
row by row; ``cyclic_solve`` solves with them.  ``hodge4d.solver`` keeps one
interior row and the last row per level instead, which takes the same
operations on every element in the same order, so the two agree byte for
byte on every system whose rows but the last are alike.  It uses nothing
from ``hodge4d``.
"""

import numpy as np


def cyclic_factor(lower: np.ndarray, main: np.ndarray, upper, store: np.ndarray, scratch: np.ndarray) -> tuple:
    """Factor the tridiagonal systems in the columns of ``main`` by cyclic reduction; returns ``(levels, zero)``.

    Column k is the system main[i, k] u[i] - lower[i] u[i-1] - upper[i] u[i+1]
    = b[i], i = 0..n-1.  ``lower`` and ``upper`` are ``(n, 1)`` columns of
    couplings that every system shares; lower[0] and upper[-1], which couple
    to no row, enter no result.  ``upper`` is None for lower bidiagonal
    systems.  Odd-even reduction (Hockney, J. ACM 12, 1965; Heller, SIAM J.
    Numer. Anal. 13, 1976) eliminates the even rows from the odd ones, which
    leaves the odd rows as one more such system of n//2 rows, down to one
    row; it does not pivot, so it is stable for diagonally dominant systems,
    and the caller judges the solution by its residual.  Every level is a
    few elementwise passes over row slices, the same arithmetic for a column
    whatever other columns share its block.

    ``main`` is overwritten (its odd rows become the next level's diagonal).
    Each level keeps the reciprocals of its even rows' pivots and, below the
    first, its own ``(rows, columns)`` couplings, at most 3n - 2 rows per
    column in all, in the flat ``store``; ``scratch`` holds n rows of
    temporaries.  ``levels`` is what ``cyclic_solve`` needs; ``zero`` is
    the first column that meets an exactly zero pivot at any level, else
    None.  Its reduction then holds infinities and NaNs, and so does its
    solution, but no other column is touched.
    """
    width = main.shape[1]
    levels, used, zero = [], 0, None

    def take(rows):
        nonlocal used
        used += rows * width
        return store[used - rows * width : used].reshape(rows, width)

    def block(start, rows):
        return scratch[start * width : (start + rows) * width].reshape(rows, width)

    while True:
        n = len(main)
        evens, odds, inner = (n + 1) // 2, n // 2, (n - 1) // 2  # inner: the odd rows with an even row above
        pivots = main[0::2]
        if not pivots.all():
            column = int(np.argmin(pivots.all(axis=0)))
            zero = column if zero is None else min(zero, column)
        reciprocal = np.divide(1.0, pivots, out=take(evens))
        levels.append((reciprocal, lower, upper))
        if n == 1:
            return levels, zero
        # odd row i meets u[i-1] = reciprocal (b + lower u[i-2] + upper u[i]) of
        # the even row below it and u[i+1] likewise from the one above
        below = np.multiply(lower[1::2], reciprocal[:odds], out=take(odds))
        main = main[1::2]
        if upper is not None:
            term = np.multiply(below, upper[0::2][:odds], out=block(0, odds))
            next_upper = take(odds)
            above = np.multiply(upper[1::2][:inner], reciprocal[1 : inner + 1], out=next_upper[:inner])
            term[:inner] += np.multiply(above, lower[2::2][:inner], out=block(odds, inner))
            main -= term
            above *= upper[2::2][:inner]
            upper = next_upper  # its top row, when n is even, couples to no row
        lower = np.multiply(below, lower[0::2][:odds], out=below)


def cyclic_solve(levels: list, x: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite each column of ``x`` (rows contiguous) with the solution of its system factored by ``cyclic_factor``.

    Going down, each level scales its even rows by their pivots' reciprocals
    and adds them, through the couplings, into its odd rows, the next
    level's right-hand sides; going up, each even row adds the solved odd
    rows beside it.  The two coupling terms of a row are summed in
    ``scratch`` (n rows), so each level reads and writes the strided rows of
    ``x`` as few times as it can.
    """
    width = x.shape[1]

    def block(start, rows):
        return scratch[start * width : (start + rows) * width].reshape(rows, width)

    views = [x]
    for reciprocal, lower, upper in levels[:-1]:
        v = views[-1]
        odds, inner = len(v) // 2, (len(v) - 1) // 2
        even, odd = v[0::2], v[1::2]
        even *= reciprocal
        term = np.multiply(lower[1::2], even[:odds], out=block(0, odds))
        if upper is not None:
            term[:inner] += np.multiply(upper[1::2][:inner], even[1 : inner + 1], out=block(odds, inner))
        odd += term
        views.append(odd)
    views[-1] *= levels[-1][0]
    for (reciprocal, lower, upper), v in zip(levels[-2::-1], views[-2::-1]):
        evens, odds = (len(v) + 1) // 2, len(v) // 2
        even, odd = v[0::2], v[1::2]
        if upper is None:
            term = np.multiply(lower[0::2][1:], odd[: evens - 1], out=block(0, evens - 1))
            even[1:] += np.multiply(term, reciprocal[1:], out=term)
        else:
            term = block(0, evens)
            np.multiply(upper[0::2][:odds], odd, out=term[:odds])
            term[odds:] = 0.0  # the top even row, when n is odd, has no odd row above it
            term[1:] += np.multiply(lower[0::2][1:], odd[: evens - 1], out=block(evens, evens - 1))
            even += np.multiply(term, reciprocal, out=term)
