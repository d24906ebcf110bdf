"""Node-by-node builders that the tensor-product solver core replaced.

They are kept as test oracles: ``loop_assemble`` builds the space-time system
one node at a time with ``add()``, ``loop_reference`` marches backward Euler
with the data functions called one point at a time and every step solved
in 40-digit decimal arithmetic, ``scalar_bernoulli``
is the branch-by-branch scalar Bernoulli weight, and ``strided_apply`` is the
matrix-free product on strided interior views that the whole-row kernel
replaced.  They use nothing from ``hodge4d.solver`` except the ``Scheme``
names, the grid and a system's stencils.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import scipy.sparse as sp

from hodge4d.solver import Scheme


def scalar_bernoulli(z):
    if abs(z) < 1e-4:
        return 1.0 - z / 2.0 + z * z / 12.0
    if z > 500.0:
        return z * math.exp(-z)
    if z < -500.0:
        return -z
    return z / math.expm1(z)


def _as_xfunc(value):
    if callable(value):
        return value
    v = float(value)
    return lambda x: v


def _loop_x_weights(config, grid):
    alpha = _as_xfunc(config.alpha)
    beta = _as_xfunc(config.beta)
    hx = grid.hx
    xs = grid.xs
    mids = 0.5 * (xs[:-1] + xs[1:])
    a = np.array([float(alpha(xm)) for xm in mids])
    b = np.array([float(beta(xm)) for xm in mids])
    if config.scheme is Scheme.CENTERED:
        return -a / hx + b / 2.0, a / hx + b / 2.0
    if config.scheme is Scheme.UPWIND:
        return -a / hx + np.minimum(b, 0.0), a / hx + np.maximum(b, 0.0)
    z = b * hx / a
    wl = -(a / hx) * np.array([scalar_bernoulli(v) for v in z])
    wr = (a / hx) * np.array([scalar_bernoulli(-v) for v in z])
    return wl, wr


def _loop_t_weights(config, grid):
    eps = float(config.epsilon)
    ht = grid.ht
    if config.scheme is Scheme.CENTERED:
        return -eps / ht - 0.5, eps / ht - 0.5
    if config.scheme is Scheme.UPWIND:
        return -eps / ht - 1.0, eps / ht
    z = -ht / eps
    return -(eps / ht) * scalar_bernoulli(z), (eps / ht) * scalar_bernoulli(-z)


def loop_assemble(config, grid):
    eps = float(config.epsilon)
    wl, wr = _loop_x_weights(config, grid)
    wd, wu = _loop_t_weights(config, grid)
    nxn, ntn = grid.nx + 2, grid.nt + 2
    hx, ht = grid.hx, grid.ht
    xs, ts = grid.xs, grid.ts

    rows, cols, data = [], [], []
    rhs = np.zeros(grid.n_nodes)
    dirichlet = np.zeros(grid.n_nodes, dtype=bool)

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        data.append(v)

    qfun = config.q_terminal or (lambda x, t: 0.0)
    top = ntn - 1
    for j in range(ntn):
        for i in range(nxn):
            r = grid.index(i, j)
            if i == 0 or i == nxn - 1 or j == 0:
                add(r, r, 1.0)
                rhs[r] = float(config.g(xs[i], ts[j]))
                dirichlet[r] = True
                continue
            add(r, grid.index(i - 1, j), wl[i - 1] / hx)
            add(r, r, (wr[i - 1] - wl[i]) / hx)
            add(r, grid.index(i + 1, j), -wr[i] / hx)
            add(r, grid.index(i, j - 1), wd / ht)
            add(r, r, (wu - wd) / ht)
            rhs[r] = float(config.f(xs[i], ts[j]))
            if j < top:
                add(r, grid.index(i, j + 1), -wu / ht)
            else:
                ghost_coeff = -wu / ht
                add(r, grid.index(i, j - 1), ghost_coeff)
                rhs[r] -= ghost_coeff * (2.0 * ht / eps) * float(qfun(xs[i], ts[j]))

    matrix = sp.csr_matrix(
        sp.coo_matrix((data, (rows, cols)), shape=(grid.n_nodes, grid.n_nodes))
    )
    return matrix, rhs, dirichlet


def _decimal_tridiagonal_solve(lower, main, upper, rhs):
    """Elimination without pivoting of a tridiagonal system, in the current decimal context."""
    main, rhs = list(main), list(rhs)
    for i in range(1, len(main)):
        factor = lower[i - 1] / main[i - 1]
        main[i] -= factor * upper[i - 1]
        rhs[i] -= factor * rhs[i - 1]
    out = [rhs[-1] / main[-1]]
    for i in range(len(main) - 2, -1, -1):
        out.append((rhs[i] - upper[i] * out[-1]) / main[i])
    return out[::-1]


def loop_reference(config, grid):
    """The backward Euler march, each step solved in 40-digit decimal arithmetic.

    The step matrix and the data are the float64 values of the node-by-node
    build; they convert to decimal exactly, and the march keeps its
    intermediate values in decimal, so the result is the solution of the
    float64 discrete problem to about 40 digits, rounded once to float64.
    """
    wl, wr = _loop_x_weights(config, grid)
    nxn = grid.nx + 2
    hx, ht = grid.hx, grid.ht
    xs, ts = grid.xs, grid.ts

    lower, main, upper = [0.0] * (nxn - 1), [1.0] * nxn, [0.0] * (nxn - 1)
    for i in range(1, nxn - 1):
        lower[i - 1] = wl[i - 1] / hx
        main[i] = 1.0 / ht + (wr[i - 1] - wl[i]) / hx
        upper[i] = -wr[i] / hx

    with decimal.localcontext(decimal.Context(prec=40)):
        lower, main, upper = ([Decimal(float(v)) for v in diagonal] for diagonal in (lower, main, upper))
        step = Decimal(ht)
        previous = [Decimal(float(config.g(x, ts[0]))) for x in xs]
        rows = [previous]
        for n in range(1, grid.nt + 2):
            rhs = [u / step + Decimal(float(config.f(x, ts[n]))) for u, x in zip(previous, xs)]
            rhs[0] = Decimal(float(config.g(xs[0], ts[n])))
            rhs[-1] = Decimal(float(config.g(xs[-1], ts[n])))
            previous = _decimal_tridiagonal_solve(lower, main, upper, rhs)
            rows.append(previous)
    return np.array([[float(u) for u in row] for row in rows])


def strided_apply(system, u):
    """``system.matrix @ u`` as a grid-shaped array, one pass per term over the strided interior view.

    Each interior row is summed in column order from 0.0; each Dirichlet row
    is 0.0 + u.  No product touches a Dirichlet column of the interior rows.
    """
    (lower_x, main_x, upper_x), (lower_t, main_t, upper_t) = system.x_stencil, system.t_stencil
    v = u.reshape(system.grid.shape)
    out = np.add(0.0, v)
    term = np.empty_like(out[1:, 1:-1])
    row = out[1:, 1:-1]
    np.multiply(lower_t[:, None], v[:-1, 1:-1], out=row)
    row += 0.0
    row += np.multiply(lower_x[:-1], v[1:, :-2], out=term)
    row += np.multiply(np.add(main_t[1:, None], main_x[1:-1], out=term), v[1:, 1:-1], out=term)
    row += np.multiply(upper_x[1:], v[1:, 2:], out=term)
    row[:-1] += np.multiply(upper_t[1:, None], v[2:, 1:-1], out=term[:-1])
    return out
