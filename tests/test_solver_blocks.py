"""The grid passes outside the solver run over row blocks: no bit may change.

``solver._data`` calls ``f``, ``l2_error`` calls the exact solution, and
``_energy_integral`` computes its density once per block of grid rows of at
most ``solver._BLOCK_NODES`` nodes, in row order.  These tests compare each
pass byte for byte with its full-grid formula, written out here as the
oracle, on four grid shapes (smaller than one block, several whole blocks, a
short last block, a last block of one row); check that non-finite data is
named at the node that the full-grid evaluation names; and pin with
tracemalloc that ``_data`` and ``l2_error`` allocate no grid-sized temporary
beyond the returned values.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hodge4d import solver
from hodge4d.solver import AssemblyError, DiscreteField, Grid1p1, ProblemConfig

NX = 1000  # rows of 1000 and 1002 nodes: 32 of either make a block


def _rows_per_block(width):
    return solver._BLOCK_NODES // width


# rows that a pass over rows ``width`` long blocks, by grid shape
SHAPES = {
    "smaller than one block": lambda per_block: per_block // 2,
    "several blocks": lambda per_block: 3 * per_block,
    "short last block": lambda per_block: 2 * per_block + per_block // 2,
    "last block of one row": lambda per_block: 2 * per_block + 1,
}


def _data_grid(shape):
    """A grid whose nt + 1 rows above the initial time (NX interior nodes each) have the block shape ``shape``."""
    return Grid1p1(NX, SHAPES[shape](_rows_per_block(NX)) - 1, lx=2.0, t0=0.5, t_final=3.0)


def _node_grid(shape):
    """A grid whose nt + 2 rows of NX + 2 nodes have the block shape ``shape``."""
    return Grid1p1(NX, SHAPES[shape](_rows_per_block(NX + 2)) - 2, lx=2.0, t0=0.5, t_final=3.0)


CONFIGS = {
    "manufactured": lambda: ProblemConfig.from_manufactured(
        "sin(pi*x)*(1+t**2)", alpha=1.0, beta=0.5, epsilon=0.05, scheme="exp-fitted"
    ),
    "x and t mixed": lambda: ProblemConfig.from_expressions(
        "exp(-x*t)*cos(3*x + t) + sqrt(1 + x**2*t)", "x + t", epsilon=0.1
    ),
    "t alone": lambda: ProblemConfig(
        alpha=1.0, beta=0.0, epsilon=0.1, f=lambda x, t: np.log(1 + t), g=lambda x, t: 1.0
    ),
    "constant": lambda: ProblemConfig.from_expressions("2.5", "0", epsilon=0.1),
}

EXACT = {
    "manufactured": CONFIGS["manufactured"]().manufactured,
    "x and t mixed": CONFIGS["x and t mixed"]().f,
    "x alone": lambda x, t: np.sin(7 * x),
    "constant": lambda x, t: -0.75,
}


def _data_oracle(config, grid):
    x, t = grid.xs[None, :], grid.ts[:, None]
    values = np.empty(grid.shape)
    values[0] = config.g(x, t[:1])
    values[1:, [0, -1]] = config.g(x[:, [0, -1]], t[1:])
    values[1:, 1:-1] = config.f(x[:, 1:-1], t[1:])
    return values


def _l2_error_oracle(values, exact, grid):
    diff = values - exact(grid.xs[None, :], grid.ts[:, None])
    per_slab = np.trapezoid(diff**2, dx=grid.hx, axis=1)
    return math.sqrt(float(np.trapezoid(per_slab, dx=grid.ht)))


def _energy_oracle(diff, grid):
    dx = np.gradient(diff, grid.hx, axis=1, edge_order=1)
    density = np.trapezoid(diff**2 + dx**2, dx=grid.hx, axis=1)
    return float(np.trapezoid(density, dx=grid.ht))


def _counting(function, calls):
    def counted(x, t):
        calls.append(t.ravel().copy())
        return function(x, t)

    return counted


def _check_blocks(calls, ts, per_block):
    """One call per block: in row order, covering ``ts``, each at most a block and all but the last a whole one."""
    assert np.concatenate(calls).tobytes() == ts.tobytes()
    sizes = [len(rows) for rows in calls]
    assert len(sizes) == -(-len(ts) // per_block)
    assert all(size == per_block for size in sizes[:-1]) and 1 <= sizes[-1] <= per_block


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("data", CONFIGS)
def test_data_is_bit_for_bit_the_full_grid_formula(shape, data):
    grid = _data_grid(shape)
    config = CONFIGS[data]()
    calls = []
    counted = ProblemConfig(config.alpha, config.beta, config.epsilon, _counting(config.f, calls), config.g)
    assert solver._data(counted, grid).tobytes() == _data_oracle(config, grid).tobytes()
    _check_blocks(calls, grid.ts[1:], _rows_per_block(NX))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("exact", EXACT)
def test_l2_error_is_bit_for_bit_the_full_grid_formula(shape, exact):
    grid = _node_grid(shape)
    values = np.random.default_rng(7).standard_normal(grid.shape)
    calls = []
    error = solver.l2_error(DiscreteField(grid, values), _counting(EXACT[exact], calls))
    assert _bits(error) == _bits(_l2_error_oracle(values, EXACT[exact], grid))
    _check_blocks(calls, grid.ts, _rows_per_block(NX + 2))


@pytest.mark.parametrize("shape", SHAPES)
def test_energy_integral_is_bit_for_bit_the_full_grid_formula(shape):
    grid = _node_grid(shape)
    scale = np.exp(np.linspace(-30, 30, grid.nt + 2))[:, None]
    diff = np.random.default_rng(11).standard_normal(grid.shape) * scale
    assert _bits(solver._energy_integral(diff, grid)) == _bits(_energy_oracle(diff, grid))


# bad nodes as (row, column) of the grid, placed by the rows per block of the pass
BAD_NODES = {
    "first bad node in a later block": lambda per_block, grid: [(2 * per_block + 3, 5)],
    "bad nodes in two blocks": lambda per_block, grid: [(2 * per_block + 2, 2), (per_block + 1, 7)],
    "bad node in the last row": lambda per_block, grid: [(grid.nt + 1, grid.nx // 2)],
}


def _poisoned(nodes, grid):
    """x + t with NaN and infinity at the grid nodes ``nodes``, given by coordinates alone."""
    xs, ts = grid.xs, grid.ts

    def function(x, t):
        values = x + t
        for k, (row, col) in enumerate(nodes):
            values = np.where((t == ts[row]) & (x == xs[col]), np.inf if k % 2 else np.nan, values)
        return values

    return function


def _first_bad_message(name, function, x, t):
    """The message for the first non-finite node in row-major order, evaluated over the whole block at once."""
    with np.errstate(all="ignore"):
        values = np.broadcast_to(function(x, t), np.broadcast_shapes(x.shape, t.shape))
    row, col = np.unravel_index(np.argmax(~np.isfinite(values)), values.shape)
    return f"{name} is not finite at x={x[0, col]:.6g}, t={t[row, 0]:.6g}"


@pytest.mark.parametrize("case", BAD_NODES)
def test_non_finite_f_names_the_node_of_the_full_grid(case):
    grid = Grid1p1(NX, 4 * _rows_per_block(NX))
    nodes = BAD_NODES[case](_rows_per_block(NX), grid)
    f = _poisoned([(row, 1 + col) for row, col in nodes], grid)
    config = ProblemConfig(alpha=1.0, beta=0.0, epsilon=0.1, f=f, g=lambda x, t: 0.0)
    x, t = grid.xs[None, :], grid.ts[:, None]
    with pytest.raises(AssemblyError) as raised:
        solver._data(config, grid)
    assert str(raised.value) == _first_bad_message("f", f, x[:, 1:-1], t[1:])


@pytest.mark.parametrize("case", BAD_NODES)
def test_non_finite_exact_names_the_node_of_the_full_grid(case):
    grid = Grid1p1(NX, 4 * _rows_per_block(NX + 2))
    exact = _poisoned(BAD_NODES[case](_rows_per_block(NX + 2), grid), grid)
    with pytest.raises(AssemblyError) as raised:
        solver.l2_error(DiscreteField(grid, np.zeros(grid.shape)), exact)
    assert str(raised.value) == _first_bad_message("exact", exact, grid.xs[None, :], grid.ts[:, None])


def _traced_peak(function):
    """``function()`` and the peak of the memory it allocated, in bytes above what was held at the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = function()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_data_and_l2_error_allocate_no_grid_sized_temporary():
    # 384x384 cells: in one pass over the grid the data peaked at 5.0 grid
    # arrays (the returned values included) and the error at 3.1; in blocks of
    # about 0.22 grid arrays each they peak at 1.9 and 0.9
    grid = Grid1p1.with_cells(384, 384)
    grid_bytes = grid.n_nodes * 8
    config = CONFIGS["manufactured"]()
    values, peak = _traced_peak(lambda: solver._data(config, grid))
    assert peak - values.nbytes < grid_bytes
    field = DiscreteField(grid, values)
    _, peak = _traced_peak(lambda: solver.l2_error(field, config.manufactured))
    assert peak < grid_bytes
