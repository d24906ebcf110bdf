"""Desk-scale 1+1D space-time solver for the scalar problem.

Discretizes -d/dx(alpha du/dx + beta u) - eps d2u/dt2 + du/dt = f on a tensor
grid over [0, Lx] x [t0, T] in edge-flux form, with Dirichlet data on the
spatial boundary and the initial-time face, and the artificial terminal
condition eps du/dt = q at the final time (q = 0 unless manufactured data is
supplied).  Three edge-flux schemes are available: centered, donor-cell
upwind, and the exponentially fitted Bernoulli-weight scheme.  The operator
is a tensor product: a 1D spatial stencil Ax and a 1D temporal stencil At,
each built once, give At (x) I + I (x) Ax on the interior nodes, which
``solve`` splits into one tridiagonal solve in t per eigenmode of Ax (fast
diagonalisation, its time solves by cyclic reduction).  The zero-perturbation
reference is backward Euler, I/ht + Ax, the eps = 0 member of the same family
under the upwind time flux (``LinearSystem``), whose modes' time systems are
lower bidiagonal.  A rejected system falls back to a sparse LU of the whole
matrix, or at eps = 0 to LAPACK time steps; ``_refined`` refines and judges
every path's solve.

The fast path needs numpy alone for a constant-coefficient spatial stencil,
so a process whose solves take it never imports scipy.  scipy is imported
where it is needed: ``scipy.linalg`` for the eigenbasis of a variable
stencil (``eigh_tridiagonal``) and for the eps = 0 fallback, and
``scipy.sparse`` for the sparse LU fallback and ``LinearSystem.matrix``.
``epsilon_sweep`` measures the decay of the difference as eps shrinks.

The fast path multiplies by the operator without forming the matrix
(``_apply``) and keeps its intermediates in a per-thread workspace
(``_Workspace``).
"""

from __future__ import annotations

import dataclasses
import logging
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SolveError
from .expressions import derivative, numpy_function, parse_expression, substitute

logger = logging.getLogger(__name__)


class Scheme(str, Enum):
    CENTERED = "centered"
    UPWIND = "upwind"
    EXP_FITTED = "exp-fitted"


class AssemblyError(ValueError):
    pass


class SweepFloorError(RuntimeError):
    """The sweep hit the discretization-error floor; refine the grid."""

    def __init__(self, message, entries):
        super().__init__(message)
        self.entries = entries


def bernoulli(z):
    """B(z) = z / (exp(z) - 1), elementwise, with a series branch near zero.

    Accepts a scalar (returns a float) or an array.  The quadratic series
    keeps full precision for |z| < 1e-4; the z > 500 branch avoids overflow of
    exp for the strongly convection-dominated edges that appear when eps is
    tiny.  Large negative z needs no branch of its own: expm1(z) is exactly
    -1.0 for z <= -38, so z / expm1(z) is -z there, overflow-free.  Each
    branch is evaluated only on its own arguments.  The two
    transcendental branches call the C library's exp and expm1 per element,
    because numpy's vectorised versions round differently in the last bit
    for some arguments and the fitted weights would then change; there is
    one call per grid edge, so this costs microseconds.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    large = z > 500.0
    middle = ~(small | large)
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs * zs / 12.0
    out[large] = [v * math.exp(-v) for v in z[large]]
    out[middle] = [v / math.expm1(v) for v in z[middle]]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Grid1p1:
    """Tensor grid over [0, Lx] x [t0, T] with interior node counts nx, nt.

    Nodes are indexed i = 0..nx+1 in x and j = 0..nt+1 in t; the flat index
    is j*(nx+2) + i.  ``with_cells`` builds the grid from subinterval counts
    (an n-cell direction has n-1 interior nodes).
    """

    nx: int
    nt: int
    lx: float = 1.0
    t0: float = 0.0
    t_final: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError(f"need at least 3 cells per direction, got {self.cells}")
        for name in ("lx", "t0", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.lx > 0 and self.t_final > self.t0):
            raise ValueError("empty domain")

    @classmethod
    def with_cells(cls, cells_x: int, cells_t: int, **kwargs) -> "Grid1p1":
        return cls(cells_x - 1, cells_t - 1, **kwargs)

    @property
    def hx(self) -> float:
        return self.lx / (self.nx + 1)

    @property
    def ht(self) -> float:
        return (self.t_final - self.t0) / (self.nt + 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.lx, self.nx + 2)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_final, self.nt + 2)

    @property
    def shape(self) -> tuple:
        return (self.nt + 2, self.nx + 2)

    @property
    def cells(self) -> str:
        """The grid as messages name it, by its cell counts in x and t: ``64x8192 cells``."""
        return f"{self.nx + 1}x{self.nt + 1} cells"

    @property
    def n_nodes(self) -> int:
        return (self.nx + 2) * (self.nt + 2)

    def index(self, i: int, j: int) -> int:
        return j * (self.nx + 2) + i

    @property
    def dirichlet(self) -> np.ndarray:
        """Boolean mask of shape ``shape`` over the Dirichlet nodes: initial time and both spatial ends."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[0] = mask[:, [0, -1]] = True
        return mask


@dataclass
class DiscreteField:
    """Nodal values over a grid, stored time-major: values[j, i]."""

    grid: Grid1p1
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid {self.grid.shape}")


@dataclass
class LinearSystem:
    """The assembled space-time system ``matrix @ u = rhs``.

    The operator is stored once, as the diagonals ``(lower, main, upper)`` of
    ``x_stencil`` (Ax) and ``t_stencil`` (At); the Dirichlet rows are the
    grid's (``Grid1p1.dirichlet``).  ``apply`` multiplies by it, and only the
    sparse LU fallback forms ``matrix``.  ``scheme`` is a ``Scheme`` or its
    value, as in ``ProblemConfig``.

    At is derived, not passed: ``_t_stencil`` of ``epsilon``, ``scheme`` and
    ``grid`` on every build, ``dataclasses.replace`` included, with the upwind
    time flux at eps = 0 whatever ``scheme``: backward Euler, row for row.
    ``epsilon`` must be >= 0 and finite, and a system is built only with
    every stencil coefficient and every centre coefficient main_t + main_x of
    the product finite, which ``_apply`` and ``_lift_residual`` rely on: the
    first one that is not (a huge but finite eps, alpha or beta can overflow
    them) raises AssemblyError naming it.
    """

    rhs: np.ndarray
    grid: Grid1p1
    epsilon: float
    scheme: Scheme
    x_stencil: tuple
    t_stencil: tuple = dataclasses.field(init=False)

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)
        eps, grid = self.epsilon, self.grid
        if not 0.0 <= eps < math.inf:
            raise AssemblyError(f"epsilon must be >= 0 and finite, got {eps}")
        self.t_stencil = _t_stencil(eps, Scheme.UPWIND if eps == 0.0 else self.scheme, grid)
        for axis, stencil, cause in (
            ("x", self.x_stencil, f"alpha or beta too large for hx={grid.hx:g}"),
            ("t", self.t_stencil, f"eps={eps:g} too large for ht={grid.ht:g}"),
        ):
            for name, diagonal in zip(("lower", "main", "upper"), stencil):
                bad = ~np.isfinite(diagonal)
                if bad.any():
                    row = int(np.argmax(bad)) + (name == "lower")  # the lower diagonal starts at row 1
                    raise AssemblyError(
                        f"the {axis} stencil's {name} coefficient of row {row} is not finite ({cause})"
                    )
        # the centre sums run over every row above the initial time and every
        # column; eps >= 0 makes every main_t >= 0, so they can overflow only
        # upward, and rounding is monotone: all are finite if the largest is
        main_t, main_x = self.t_stencil[1][1:], self.x_stencil[1]
        row, column = int(np.argmax(main_t)), int(np.argmax(main_x))
        if not math.isfinite(float(main_t[row]) + float(main_x[column])):
            raise AssemblyError(
                f"the centre coefficient main_t + main_x of t row {row + 1} and x row {column} "
                f"is not finite (eps={eps:g})"
            )

    @property
    def dirichlet(self) -> np.ndarray:
        """The grid's Dirichlet mask over flat node indices."""
        return self.grid.dirichlet.ravel()

    @property
    def matrix(self):
        """kron(I_t', Ax) + kron(At, I_x') + D in CSR: I' zero, D one on Dirichlet rows.

        scipy.sparse is imported here, so a process that never reads the
        matrix never loads it.
        """
        import scipy.sparse as sp

        dirichlet = self.grid.dirichlet
        interior = (~dirichlet).astype(float)
        x_op, t_op = (sp.diags(s, [-1, 0, 1], format="csr") for s in (self.x_stencil, self.t_stencil))
        return (
            sp.kron(sp.diags(interior[:, 1]), x_op, format="csr")
            + sp.kron(t_op, sp.diags(interior[-1]), format="csr")
            + sp.diags(dirichlet.ravel().astype(float), format="csr")
        )

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``matrix @ u`` without the matrix (see ``_apply``).

        Bit for bit the sparse product at every node where that is a number,
        and NaN at exactly the nodes where it is NaN, whose payload is left
        open.
        """
        out = np.empty(self.grid.shape)
        return _apply(self, u, out, np.empty_like(out[1:])).ravel()


def _apply(system: LinearSystem, u: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Write ``system.matrix @ u`` into the grid-shaped ``out``; returns ``out``.

    ``term``, shaped like ``out[1:]`` (the rows above the initial time), is
    scratch.  Every pass but the last covers the whole contiguous rows above
    the initial time, their two Dirichlet columns included.  Each neighbour
    term multiplies a copy of the neighbours whose Dirichlet columns are
    zeroed, and the centre coefficient there is 1.0, so those columns sum
    zeros and 1.0 * u: the identity rows of the matrix, 0.0 + u bit for bit,
    and no floating-point exception whatever ``u`` holds.  Each interior row
    is summed in column order from 0.0, as the sparse product sums it, so
    each node where the product is a number holds its bits, and each node
    where it is NaN holds a NaN, whose payload IEEE 754 leaves open;
    ``solve`` never returns a NaN, so no result depends on it.  The last
    pass writes the initial-time row, 0.0 + u.
    """
    (lower_x, main_x, upper_x), (lower_t, main_t, upper_t) = system.x_stencil, system.t_stencil
    v = u.reshape(system.grid.shape)
    flat, width = v.reshape(-1), v.shape[1]
    ends = (slice(None), slice(None, None, width - 1))  # the two Dirichlet columns
    left, right = np.zeros((2, width))
    left[1:-1], right[1:-1] = lower_x[:-1], upper_x[1:]
    rows = out[1:]
    np.copyto(rows, v[:-1])  # the neighbours below
    rows[ends] = 0.0
    np.multiply(lower_t[:, None], rows, out=rows)
    rows += 0.0  # the sum starts from 0.0, so a -0.0 product becomes 0.0
    np.copyto(term, flat[width - 1 : -1].reshape(term.shape))  # to the left
    term[ends] = 0.0
    rows += np.multiply(left, term, out=term)
    np.add(main_t[1:, None], main_x, out=term)
    term[ends] = 1.0
    rows += np.multiply(term, v[1:], out=term)
    right_of = flat[width + 1 :]  # the final row's last one lies past the grid
    np.copyto(term.reshape(-1)[: right_of.size], right_of)
    term[ends] = 0.0
    rows += np.multiply(right, term, out=term)
    above = term[:-1]  # the rows with a row above them
    np.copyto(above, v[2:])
    above[ends] = 0.0
    rows[:-1] += np.multiply(upper_t[1:, None], above, out=above)
    np.add(0.0, v[0], out=out[0])
    return out


def _lift_residual(system: LinearSystem, out: np.ndarray) -> np.ndarray:
    """Write ``rhs - apply(x0)`` into the grid-shaped ``out`` without the product, x0 being the Dirichlet lift.

    x0 is rhs with -0.0 on the interior.  With every stencil coefficient and
    centre sum finite, as ``LinearSystem`` has them, a coefficient times -0.0
    is +-0.0 and ``_apply`` sums every row from 0.0, so on an interior node
    with no Dirichlet neighbour the product is +0.0 and the residual rhs -
    0.0 is rhs, bit for bit (-0.0 included).  On a Dirichlet node the product
    is 0.0 + rhs.  On interior row 1 and the first and last interior columns
    it sums the Dirichlet couplings alone, from 0.0 and in ``_apply``'s order:
    below, left, right.  So only O(nx + nt) nodes differ from a copy of rhs,
    and each one is bit for bit what the product gives.  Returns ``out``.
    """
    (lower_x, _, upper_x), (lower_t, _, _) = system.x_stencil, system.t_stencil
    rhs = system.rhs.reshape(system.grid.shape)
    np.copyto(out, rhs)
    below = np.add(0.0, lower_t[0] * rhs[0, 1:-1])  # row 1
    left, right = np.zeros((2, len(rhs) - 1))  # the first and the last interior column, rows 1 on
    left[0], right[0] = below[0], below[-1]
    left += lower_x[0] * rhs[1:, 0]
    right += upper_x[-1] * rhs[1:, -1]
    np.subtract(rhs[1, 1:-1], below, out=out[1, 1:-1])
    np.subtract(rhs[1:, 1], left, out=out[1:, 1])
    np.subtract(rhs[1:, -2], right, out=out[1:, -2])
    for border in (np.s_[0], np.s_[1:, 0], np.s_[1:, -1]):  # the Dirichlet nodes
        np.subtract(rhs[border], np.add(0.0, rhs[border]), out=out[border])
    return out


@dataclass
class ProblemConfig:
    """Coefficients, data and scheme for one 1+1D problem.

    ``alpha`` and ``beta`` are constants or functions of x; ``f`` and the
    Dirichlet data ``g`` are functions of (x, t).  ``q_terminal`` prescribes
    eps*du/dt on the final-time face (zero when absent) as a function of
    (x, t) evaluated at the grid's final time.  ``manufactured`` optionally
    carries the exact solution for error measurement.  ``scheme`` is a
    ``Scheme`` or its value (``"exp-fitted"``); another name raises ``ValueError``.

    Every function is array-in, array-out under numpy broadcasting: it is
    called with arrays of coordinates and returns the values there
    (``np.sin``, ``np.where`` and friends, not ``math``).  A function may
    return a scalar for a constant.  Functions of (x, t) get the grid's axes
    over a tensor block of nodes, x as a ``(1, n)`` row and t as an ``(m, 1)``
    column.  Each one is evaluated only where the discretization needs it:
    ``g`` on the Dirichlet faces (one call for the initial-time row, one for
    the spatial ends of the later rows), ``f`` on all other nodes,
    ``q_terminal`` on the interior of the final-time face, ``alpha`` and
    ``beta`` at edge midpoints (and at the nodes in ``discrete_bilinear``),
    ``manufactured`` at every node.  ``f`` and ``manufactured`` are called
    once per block of grid rows (about 2**15 nodes each), so a function must
    give each node's value from that node's coordinates alone.
    """

    alpha: object
    beta: object
    epsilon: float
    f: Callable
    g: Callable
    scheme: Scheme = Scheme.CENTERED
    q_terminal: Optional[Callable] = None
    manufactured: Optional[Callable] = None

    def __post_init__(self):
        self.scheme = Scheme(self.scheme)

    @classmethod
    def from_manufactured(
        cls,
        expression,
        *,
        alpha=1.0,
        beta=0.0,
        epsilon: float,
        scheme: Scheme = Scheme.CENTERED,
        target: str = "spacetime",
    ) -> "ProblemConfig":
        """Derive forcing and boundary data from an exact solution.

        ``target='spacetime'`` makes the given expression solve the perturbed
        space-time equation (the forcing includes the -eps u_tt term and the
        terminal data equals eps*u_t), which is the manufactured-convergence
        setup.  ``target='limit'`` makes it solve the eps = 0 evolution
        problem with homogeneous terminal data, the setup used to observe the
        perturbation decay.  Expressions go through ``parse_expression``.
        """
        u, alpha_e, beta_e = (parse_expression(e) for e in (expression, alpha, beta))
        f, q = manufactured_forcing(u, alpha_e, beta_e, epsilon, target)
        exact = numpy_function(u, "x", "t")
        return cls(
            alpha=_coefficient_data(alpha_e),
            beta=_coefficient_data(beta_e),
            epsilon=epsilon,
            f=numpy_function(f, "x", "t"),
            g=exact,
            scheme=scheme,
            q_terminal=None if q is None else numpy_function(q, "x", "t"),
            manufactured=exact,
        )

    @classmethod
    def from_expressions(
        cls,
        f,
        g,
        *,
        alpha=1.0,
        beta=0.0,
        epsilon: float,
        scheme: Scheme = Scheme.CENTERED,
    ) -> "ProblemConfig":
        """Forcing ``f``, Dirichlet data ``g`` and coefficients as expressions.

        Expressions go through ``parse_expression``; the terminal data is zero.
        """
        return cls(
            alpha=_coefficient_data(parse_expression(alpha)),
            beta=_coefficient_data(parse_expression(beta)),
            epsilon=epsilon,
            f=numpy_function(parse_expression(f), "x", "t"),
            g=numpy_function(parse_expression(g), "x", "t"),
            scheme=scheme,
        )


def manufactured_forcing(u, alpha, beta, epsilon, target: str) -> tuple:
    """Trees ``(f, q)`` of the forcing and terminal data that make the tree ``u`` exact.

    ``alpha`` and ``beta`` are trees; ``epsilon`` goes through
    ``parse_expression``.  ``target`` is as in ``ProblemConfig.from_manufactured``;
    ``q`` is None for ``'limit'``.
    """
    u_t = derivative(u, "t")
    flux = substitute("alpha*u_x + beta*u", alpha=alpha, beta=beta, u=u, u_x=derivative(u, "x"))
    transport = substitute("u_t - flux_x", u_t=u_t, flux_x=derivative(flux, "x"))
    eps = parse_expression(epsilon)
    if target == "spacetime":
        f = substitute("transport - eps*u_tt", transport=transport, eps=eps, u_tt=derivative(u_t, "t"))
        return f, substitute("eps*u_t", eps=eps, u_t=u_t)
    if target == "limit":
        return transport, None
    raise ValueError(f"unknown target {target!r}")


def _coefficient_data(tree):
    """A float for a constant coefficient tree, else its numpy function of x."""
    with np.errstate(all="ignore"):
        function = numpy_function(tree, "x")
        return function if function.variables else float(function(0.0))  # a constant ignores x


def _evaluate(name: str, data, *coords: np.ndarray) -> np.ndarray:
    """Values of the data ``name`` at the nodes: a constant or an array-in, array-out function.

    ``coords`` are x, or x and t.  A constant, or a scalar result, is
    broadcast to the shape of the nodes.  A NaN or infinite value raises
    AssemblyError naming the data and the first such node.
    """
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    with np.errstate(all="ignore"):
        values = np.broadcast_to(np.asarray(data(*coords) if callable(data) else data, dtype=float), shape)
    bad = ~np.isfinite(values)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), shape)
        where = ", ".join(
            f"{axis}={np.broadcast_to(c, shape)[first]:.6g}" for axis, c in zip("xt", coords)
        )
        raise AssemblyError(f"{name} is not finite at {where}")
    return values


# The grid-sized passes outside the solver (the data, the L2 error and the
# energy integral) run over blocks of rows of at most this many nodes, 256 KiB
# of float64, so that their temporaries stay in L2 and reuse memory already
# mapped.  On 384x384 cells (2-core machine, medians of 60) the manufactured
# f on the interior took 463 us and no minor page faults in blocks of 2**15
# nodes, against 804 us and 896 faults in one pass, 501 us and 188 faults in
# blocks of 2**16 and 555 us in blocks of 2**14.  Each row takes the same
# arithmetic either way, so every value is bit for bit the same.
_BLOCK_NODES = 2**15


def _row_blocks(start: int, stop: int, width: int):
    """Slices of the rows start..stop-1 in order, each of at most ``_BLOCK_NODES`` nodes (one row at least).

    ``width`` is the number of nodes in a row.
    """
    step = max(1, _BLOCK_NODES // width)
    return (slice(row, min(row + step, stop)) for row in range(start, stop, step))


def _edge_weights(a, b, h: float, scheme: Scheme):
    """Edge-flux weights of one axis: J_e = wl*u_left + wr*u_right per edge.

    ``a`` is the diffusion and ``b`` the velocity on the edges, ``h`` the
    spacing.  x takes alpha and beta at the edge midpoints; t takes eps and
    velocity -1, so time is one more convection-diffusion axis.  The
    exponentially fitted weights are the Scharfetter-Gummel flux.
    """
    if scheme is Scheme.CENTERED:
        return -a / h + b / 2.0, a / h + b / 2.0
    if scheme is Scheme.UPWIND:
        return -a / h + np.minimum(b, 0.0), a / h + np.maximum(b, 0.0)
    if scheme is Scheme.EXP_FITTED:
        z = b * h / a
        return -(a / h) * bernoulli(z), (a / h) * bernoulli(-z)
    raise AssemblyError(f"unknown scheme {scheme}")


def _stencil(wl: np.ndarray, wr: np.ndarray, h: float) -> tuple:
    """Diagonals (lower, main, upper) of -(J_right - J_left)/h over the edges.

    Row i couples nodes i-1, i, i+1 through the weights of its two edges; the
    two end rows are zero.
    """
    lower = np.append(wl[:-1] / h, 0.0)
    main = np.concatenate(([0.0], (wr[:-1] - wl[1:]) / h, [0.0]))
    upper = np.insert(-wr[1:] / h, 0, 0.0)
    return lower, main, upper


def _x_stencil(config: ProblemConfig, grid: Grid1p1) -> tuple:
    """Diagonals of Ax = -(J_right - J_left)/hx; the Dirichlet end rows are zero.

    A coefficient may overflow (alpha or beta too large for the grid);
    ``LinearSystem`` rejects the stencil then.
    """
    xs = grid.xs
    mids = 0.5 * (xs[:-1] + xs[1:])
    a = _evaluate("alpha", config.alpha, mids)
    b = _evaluate("beta", config.beta, mids)
    if np.any(a <= 0):
        raise AssemblyError("nonpositive diffusion coefficient on an edge")
    with np.errstate(all="ignore"):
        return _stencil(*_edge_weights(a, b, grid.hx, config.scheme), grid.hx)


def _t_stencil(eps: float, scheme: Scheme, grid: Grid1p1) -> tuple:
    """Diagonals of At = -(J_up - J_down)/ht on the nodes above t0.

    The stencil spans nt + 2 edges, the last of which reaches a ghost slab
    above the final time.  The final-time row eliminates the ghost through
    the centered terminal condition eps*(u_ghost - u_below)/(2 ht) = q, which
    folds the ghost coupling into the sub-diagonal; the ghost row is then
    dropped.  Row 0 (the initial-time face) is zero.  All edges share one
    pair of weights, so the rows above t0 but the last are alike, and each
    of their upper coefficients is the ghost coupling, through which q
    enters the right-hand side.  A coefficient may overflow (eps too large
    for the grid); ``LinearSystem`` rejects the stencil then.
    """
    with np.errstate(all="ignore"):
        wd, wu = _edge_weights(eps, -1.0, grid.ht, scheme)
        edges = grid.nt + 2
        lower, main, upper = _stencil(np.full(edges, wd), np.full(edges, wu), grid.ht)
        lower[-2] += upper[-1]  # the ghost coupling
    return lower[:-1], main[:-1], upper[:-1]


def _data(config: ProblemConfig, grid: Grid1p1) -> np.ndarray:
    """Node values of the data: ``g`` on the Dirichlet faces, ``f`` on every other node.

    Each block is evaluated on the grid's axes (x a row, t a column): ``g`` on
    the initial-time row, then on the two spatial ends of the later rows,
    then ``f`` on the interior, one call per row block (``_row_blocks``) in
    row order.  Each block is checked as it is evaluated, so the error for
    non-finite data names the first bad ``g`` node in row-major order, else
    the first bad ``f`` node.
    """
    x, t = grid.xs[None, :], grid.ts[:, None]
    values = np.empty(grid.shape)
    values[0] = _evaluate("g", config.g, x, t[:1])
    values[1:, [0, -1]] = _evaluate("g", config.g, x[:, [0, -1]], t[1:])
    for rows in _row_blocks(1, grid.nt + 2, grid.nx):
        values[rows, 1:-1] = _evaluate("f", config.f, x[:, 1:-1], t[rows])
    return values


def assemble(config: ProblemConfig, grid: Grid1p1) -> LinearSystem:
    """Five-point edge-flux discretization of the space-time equation.

    The system holds the 1D stencils Ax and At (see ``LinearSystem``).  The
    final-time rows use the interior stencil with the ghost slab eliminated
    through the centered terminal condition eps*u_t = q, which preserves both
    second order and the M-matrix sign pattern of the fitted scheme.
    """
    eps = float(config.epsilon)
    if not 0 < eps < math.inf:
        raise AssemblyError(f"space-time assembly needs epsilon > 0 and finite, got {eps}")
    x_stencil = _x_stencil(config, grid)  # bad alpha or beta is reported before bad data, as by the sweep
    rhs = _data(config, grid)
    system = LinearSystem(rhs.ravel(), grid, eps, config.scheme, x_stencil)
    if config.q_terminal is not None:
        # ghost slab from eps*(u_ghost - u_below)/(2 ht) = q; its coupling is
        # every upper time coefficient above t0 (see ``_t_stencil``)
        q = _evaluate("q_terminal", config.q_terminal, grid.xs[1:-1], grid.ts[-1:])
        final = rhs[-1, 1:-1]
        with np.errstate(all="ignore"):
            final -= system.t_stencil[2][-1] * (2.0 * grid.ht / eps) * q
        bad = ~np.isfinite(final)
        if bad.any():
            x = grid.xs[1 + int(np.argmax(bad))]
            raise AssemblyError(
                f"the q_terminal term of the right-hand side is not finite at x={x:.6g}, t={grid.ts[-1]:.6g}"
            )
    return system


# Largest accepted max(d)/min(d) of the symmetrising scaling in the fast
# path; it bounds the condition number of the spatial eigenvector matrix.
_MAX_SCALING_RATIO = 1e6
# Largest accepted normwise backward error (``_refined``): every accepted
# solve measured, on every path, the fast-path property's parameters, the
# scaling guard's border and grids up to 64x16384 cells, read at most
# 2.3e-16, and eigenvalues 1% off read 1.3e-5 to 2.4e-5 on 6x6 cells.
_BACKWARD_ERROR_TOLERANCE = 1e-12


def _operator_norm(system: LinearSystem) -> float:
    """||A||_inf, the largest absolute row sum, from the two stencils in O(nx + nt); a Dirichlet row sums 1.

    |a| = max(a, -a) splits |main_t + main_x| in the sum of an interior row (j, i) into a term of j and one of i.
    """
    (lower_x, main_x, upper_x), (lower_t, main_t, upper_t) = system.x_stencil, system.t_stencil
    off_t = np.abs(lower_t) + np.abs(np.append(upper_t[1:], 0.0))  # the rows above the initial time
    off_x = np.abs(lower_x[:-1]) + np.abs(upper_x[1:])  # the interior columns
    main_t, main_x = main_t[1:], main_x[1:-1]
    return max(1.0, *(float((off_t + sign * main_t).max() + (off_x + sign * main_x).max()) for sign in (1.0, -1.0)))


def _peak(values: np.ndarray):
    """||values||_inf; NaN or infinite when ``values`` holds a value that is not finite."""
    return max(values.max(), -values.min())


def _refined(system: LinearSystem, correction: Callable, out: np.ndarray, term: np.ndarray, rhs_peak):
    """Every path's solve: two steps of x += correction(rhs - A x) from the Dirichlet lift, then the gate.

    ``correction`` maps a residual on the grid to the step, which it may
    write over the residual.  The lift is rhs with -0.0, the exact additive
    identity, on the interior, so the first step gives the first correction
    bit for bit, and its residual needs no product (``_lift_residual``); the
    later ones take ``_apply`` into ``out``, ``term`` (like ``out[1:]``) its
    scratch.  The gate reads the normwise backward error ||r|| / (||A|| ||x||
    + ||b||) in the infinity norm (Rigal & Gaches, J. ACM 14, 1967; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 7.1), which does
    not grow with ||A|| for an accurate solve, as ||r|| / ||b|| does;
    ``rhs_peak`` is ||b||, which ``solve`` has already taken.
    Returns ``(x, "")``, x fresh and grid-shaped, or ``(None, reason)``.
    """
    rhs = system.rhs.reshape(system.grid.shape)
    x = rhs.copy()
    x[1:, 1:-1] = -0.0
    x += correction(_lift_residual(system, out))
    x += correction(np.subtract(rhs, _apply(system, x, out, term), out=out))
    residual = np.subtract(rhs, _apply(system, x, out, term), out=out)
    size = _peak(x)
    if not math.isfinite(size):
        return None, "the solution is not finite"
    scale = _operator_norm(system) * size + rhs_peak
    error = _peak(residual) / scale if scale else 0.0  # a zero scale has x = b = 0, so r = 0
    if not error <= _BACKWARD_ERROR_TOLERANCE:
        return None, f"backward error {error:.3e} above {_BACKWARD_ERROR_TOLERANCE:g}"
    return x, ""


def _sine_modes(n: int) -> np.ndarray:
    """The mode numbers k = 1..n of the closed-form basis in the solver's order: 2, 4, ..., then 1, 3, ..."""
    return np.concatenate((np.arange(2, n + 1, 2), np.arange(1, n + 1, 2)))


def _toeplitz_eigenvalues(a: float, s: float, n: int) -> np.ndarray:
    """Eigenvalues of the n x n symmetric tridiagonal Toeplitz matrix, in the order of ``_sine_modes``.

    The matrix has ``a`` on the diagonal and ``s`` on both off-diagonals.
    Mode k = 1..n has lam_k = a + 2 s cos(k pi/(n+1)) and the orthonormal
    eigenvector q[j, k] = sqrt(2/(n+1)) sin(j k pi/(n+1)), j = 1..n (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964), which ``_sine_halves`` gives.
    """
    return a + 2.0 * s * np.cos(_sine_modes(n) * (np.pi / (n + 1)))


def _sine_halves(n: int) -> tuple:
    """The eigenvectors q of the n x n symmetric tridiagonal Toeplitz matrices as blocks ``(antisymmetric, symmetric)``.

    q[j, k] = sqrt(2/(n+1)) sin(j k pi/(n+1)) depends on n alone.  Every
    entry is read from one table of the sine over a full period, at j*k mod
    2(n+1).  The reflection j -> n+1-j multiplies q[j, k] by (-1)**(k+1), so
    q is returned as its two independent blocks: the first n//2 rows of the
    antisymmetric modes k = 2, 4, ... and the first (n+1)//2 rows of the
    symmetric modes k = 1, 3, ..., two views of one array of (n+1)//2 x n
    doubles.  ``_sine_forward`` and ``_sine_backward`` transform through
    them.
    """
    period = 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    half, rows = n // 2, np.arange(1, (n + 1) // 2 + 1)
    blocks = table[np.outer(rows, _sine_modes(n)) % period]
    return blocks[:half, :half], blocks[:, half:]


def _sine_forward(halves: tuple, y: np.ndarray, modes: np.ndarray, scratch: np.ndarray) -> None:
    """Write the mode coefficients ``y @ q`` of the rows of ``y`` into ``modes``, one column per mode.

    ``halves`` is the ``(antisymmetric, symmetric)`` pair of
    ``_sine_halves``, and the columns of ``modes`` come in its
    order.  An antisymmetric mode sees only the differences y[:, j] -
    y[:, n-1-j], a symmetric one only the sums (and the middle column when n
    is odd), so each half is one product of about half the size: half the
    flops of ``y @ q``.  The folded columns go to two C-contiguous blocks of
    the flat ``scratch`` (``y.size`` entries), and each half's product to its
    column slice of ``modes``.
    """
    antisymmetric, symmetric = halves
    rows, half = len(y), len(antisymmetric)
    reflected = y[:, ::-1]
    differences = scratch[: rows * half].reshape(rows, half)
    sums = scratch[rows * half : y.size].reshape(rows, len(symmetric))
    np.subtract(y[:, :half], reflected[:, :half], out=differences)
    np.matmul(differences, antisymmetric, out=modes[:, :half])
    np.copyto(sums, y[:, : len(symmetric)])  # the middle column, if any, is its own reflection
    sums[:, :half] += reflected[:, :half]
    np.matmul(sums, symmetric, out=modes[:, half:])


def _sine_backward(halves: tuple, modes: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write ``modes @ q.T`` into ``out`` from the two halves' products ``modes_half @ q_half.T``.

    ``modes`` is as ``_sine_forward`` fills it.  The half products go to two
    C-contiguous blocks of the flat ``scratch`` (``modes.size`` entries); the
    antisymmetric one is added to the symmetric one's first columns and
    subtracted from their reflections.
    """
    antisymmetric, symmetric = halves
    rows, half = len(modes), len(antisymmetric)
    antisymmetric_part = scratch[: rows * half].reshape(rows, half)
    symmetric_part = scratch[rows * half : modes.size].reshape(rows, len(symmetric))
    np.matmul(modes[:, :half], antisymmetric.T, out=antisymmetric_part)
    np.matmul(modes[:, half:], symmetric.T, out=symmetric_part)
    np.add(symmetric_part[:, :half], antisymmetric_part, out=out[:, :half])
    np.subtract(symmetric_part[:, :half], antisymmetric_part, out=out[:, ::-1][:, :half])
    out[:, half : len(symmetric)] = symmetric_part[:, half:]


def _cyclic_factor(n: int, row: tuple, last: tuple) -> tuple:
    """Factor n-row tridiagonal systems, one per column, whose rows but the last are alike; returns ``(levels, zero)``.

    ``row = (lower, main, upper)`` and ``last = (last_lower, last_main)``:
    column k is the system main[k] u[i] - lower u[i-1] - upper u[i+1] = b[i]
    on the rows i = 0..n-2 and last_main[k] u[n-1] - last_lower u[n-2] =
    b[n-1] on the last row.  The couplings are scalars that every system
    shares, the diagonals ``(columns,)`` vectors; row 0's lower coupling
    enters no result, and ``upper`` is None for lower bidiagonal systems.
    Odd-even reduction (Hockney, J. ACM 12, 1965; Heller, SIAM J. Numer.
    Anal. 13, 1976) eliminates the even rows from the odd ones, which leaves
    the odd rows as one more such system of n//2 rows, down to one row: the
    odd rows but the highest have alike rows beside them, so they stay
    alike, and the highest, the last row or the one below it, is the next
    level's last row.  So a level is one interior row and one last row of
    ``(columns,)`` vectors, and the factor takes O(columns log n) and no
    grid-sized array.  Each element takes the operations, in the same order,
    that a reduction keeping every row gives it (``tests/cyclic_reference.py``
    keeps one as the oracle).  It does not pivot, so it is stable for
    diagonally dominant systems, and the caller judges the solution by its
    residual.

    ``levels`` holds per level the reciprocals of the interior and of the
    last pivot (None where the level has no such even row) and the lower,
    last lower and upper couplings, what ``_cyclic_solve`` needs; ``zero``
    is the first column that meets an exactly zero pivot at any level, else
    None.  Its reduction then holds infinities and NaNs, and so does its
    solution, but no other column is touched.
    """
    lower, main, upper = row
    last_lower, last_main = last
    levels, zero = [], None
    while True:
        # the even rows are the pivots: row 0 up, and the last row when n is odd
        for pivots in ([main] if n > 1 else []) + ([last_main] if n % 2 else []):
            if not pivots.all():
                column = int(np.argmin(pivots != 0))
                zero = column if zero is None else min(zero, column)
        reciprocal = np.divide(1.0, main) if n > 1 else None
        last_reciprocal = np.divide(1.0, last_main) if n % 2 else None
        levels.append((reciprocal, last_reciprocal, lower, last_lower, upper))
        if n == 1:
            return levels, zero
        # odd row i meets u[i-1] = reciprocal (b + lower u[i-2] + upper u[i]) of
        # the even row below it and u[i+1] likewise from the one above; the
        # highest odd row is the last row when n is even, else the row below it
        below = np.multiply(lower, reciprocal)
        if n % 2:
            last_below, last_main = below, main
        else:
            last_below = np.multiply(last_lower, reciprocal)
        if upper is not None:
            term = np.multiply(below, upper)
            above = np.multiply(upper, reciprocal)
            main = main - (term + np.multiply(above, lower))
            if n % 2:
                last_main = last_main - (term + np.multiply(np.multiply(upper, last_reciprocal), last_lower))
            else:
                last_main = last_main - np.multiply(last_below, upper)
            upper = np.multiply(above, upper)
        last_lower = np.multiply(last_below, lower)
        lower = np.multiply(below, lower)
        n //= 2


def _cyclic_solve(levels: list, x: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite each column of ``x`` (rows contiguous) with the solution of its system factored by ``_cyclic_factor``.

    Going down, each level scales its even rows by their pivots' reciprocals
    and adds them, through the couplings, into its odd rows, the next
    level's right-hand sides; going up, each even row adds the solved odd
    rows beside it.  The interior rows take each level's vectors broadcast
    over them, and the last row its own.  The two coupling terms of a row
    are summed in ``scratch`` (n rows), so each level reads and writes the
    strided rows of ``x`` as few times as it can.
    """
    width = x.shape[1]

    def block(start, rows):
        return scratch[start * width : (start + rows) * width].reshape(rows, width)

    views = [x]
    for reciprocal, last_reciprocal, lower, last_lower, upper in levels[:-1]:
        v = views[-1]
        odds, inner = len(v) // 2, (len(v) - 1) // 2  # inner: the odd rows with an even row above
        even, odd = v[0::2], v[1::2]
        if len(v) % 2:
            even[:-1] *= reciprocal
            even[-1] *= last_reciprocal
        else:
            even *= reciprocal
        term = block(0, odds)
        np.multiply(lower, even[:inner], out=term[:inner])
        if upper is not None:
            term[:inner] += np.multiply(upper, even[1 : inner + 1], out=block(odds, inner))
        if inner < odds:  # the last row, with no row above it
            np.multiply(last_lower, even[-1], out=term[-1])
        odd += term
        views.append(odd)
    views[-1] *= levels[-1][1]
    for (reciprocal, last_reciprocal, lower, last_lower, upper), v in zip(levels[-2::-1], views[-2::-1]):
        odds = len(v) // 2
        even, odd = v[0::2], v[1::2]
        term = block(0, odds)
        if upper is None:
            coupled = np.multiply(lower, odd[: odds - 1], out=term[: odds - 1])
            even[1:odds] += np.multiply(coupled, reciprocal, out=coupled)
        else:
            np.multiply(upper, odd, out=term)
            term[1:] += np.multiply(lower, odd[: odds - 1], out=block(odds, odds - 1))
            even[:odds] += np.multiply(term, reciprocal, out=term)
        if len(v) % 2:  # the last row is even, with no odd row above it
            top = np.multiply(last_lower, odd[-1], out=term[0])
            if upper is not None:
                np.add(0.0, top, out=top)  # its sum starts from 0.0, so a -0.0 product becomes 0.0
            even[-1] += np.multiply(top, last_reciprocal, out=top)


class _Workspace:
    """The fast path's buffers for one grid shape, reused by every solve of that shape in one thread.

    Four arrays, about 4.7 MB at 384 x 384 cells.  The closed-form basis's
    sine blocks (``_sine_halves``) depend on nx alone, so the first
    closed-form solve of a workspace builds them and every later one reuses
    them (0.6 MB more at 384 x 384 cells).
    """

    __slots__ = ("shape", "grid", "rows", "modes", "scratch", "halves")

    def __init__(self, shape: tuple):
        ntn, nx = shape[0] - 1, shape[1] - 2
        self.shape = shape
        self.grid = np.empty(shape)  # apply's product, then the residual, then the step
        self.rows = np.empty((ntn, nx + 2))  # apply's term, then (its first ntn*nx entries) the residual over d
        self.modes = np.empty((ntn, nx))  # time-major, one column per mode
        self.scratch = np.empty(nx * ntn)  # the sine transforms' halves and the time solves' temporaries
        self.halves = None  # the sine blocks

    @property
    def nbytes(self) -> int:
        """The bytes it holds: the arrays and, once built, the sine blocks."""
        nx = self.shape[1] - 2
        blocks = 0 if self.halves is None else 8 * ((nx + 1) // 2) * nx
        return self.grid.nbytes + self.rows.nbytes + self.modes.nbytes + self.scratch.nbytes + blocks


_local = threading.local()

# A workspace that holds more than this many bytes (``_Workspace.nbytes``)
# serves its one solve and is freed when the solve returns, instead of being
# kept: its arrays pass it at about 1,000,000 nodes, and with the sine
# blocks, which add half an array on a square grid, at about 930,000 nodes
# when square.
_KEPT_WORKSPACE_BYTES = 32 * 2**20


def _workspace(shape: tuple, sine: bool = False) -> _Workspace:
    """The current thread's workspace for ``shape``, with the closed-form sine blocks if ``sine``.

    A workspace of another shape is replaced.  The workspace is kept for the
    next solve only while it holds at most ``_KEPT_WORKSPACE_BYTES``, so a
    thread holds at most one workspace, of at most that size.
    """
    work = getattr(_local, "work", None)
    if work is None or work.shape != shape:
        _local.work = None  # free the old buffers before taking the new ones
        work = _Workspace(shape)
    if sine and work.halves is None:
        work.halves = _sine_halves(shape[1] - 2)
    _local.work = work if work.nbytes <= _KEPT_WORKSPACE_BYTES else None
    return work


def _fast_diagonalisation(system: LinearSystem, rhs_peak=None):
    """Solve through the eigenbasis of the spatial stencil (Lynch, Rice & Thomas).

    With X = Ax[1:-1, 1:-1] and T = At[1:, 1:] the interior unknowns U (time
    by space) satisfy T U + U X^T = B, where B is the right-hand side with the
    Dirichlet values moved over.  X is tridiagonal; when every product of its
    off-diagonals is positive, X = D S D^-1 with D = diag(d) and S symmetric
    tridiagonal, so X = W diag(lam) W^-1 with W = D Q and W^-1 = Q^T D^-1.
    When S is Toeplitz (every diagonal entry equal and every off-diagonal
    entry equal, as for constant alpha and beta), its eigenpairs are known in
    closed form (``_toeplitz_eigenvalues``, ``_sine_halves``): the discrete
    sine transform, whose reflection symmetry splits each transform into two
    products of about half the size (``_sine_forward``, ``_sine_backward``;
    the split step of Cooley, Lewis & Welch, J. Sound Vib. 12, 1970).  Its
    modes come antisymmetric first (k = 2, 4, ...), then symmetric (k = 1, 3,
    ...), so each half is a contiguous range of columns.  For any other S the
    eigenpairs come from LAPACK's ``eigh_tridiagonal``, imported from scipy
    when first needed, and each transform is one full product.

    In that basis each eigenmode k is one shifted tridiagonal solve
    (T + lam_k I) u_k = b_k in time, and the modes never couple: the Fourier
    analysis and cyclic reduction scheme of Hockney (J. ACM 12, 1965).  The
    modes are held as one time-major block, one column per mode.  T has one
    perturbation eps and one step ht, so every row of T + lam_k I but the
    last, where the ghost slab is folded in, has the same coefficients
    (``LinearSystem`` derives At), and cyclic reduction keeps that on every
    level: it factors every mode's time system once per solve
    (``_cyclic_factor``, O(nx log nt)) and solves the whole block in place
    once per refinement step (``_cyclic_solve``).  When T has no upper
    diagonal (the eps = 0 reference, backward Euler), every shifted system is
    lower bidiagonal, and the reduction skips the upper couplings.  The
    reduction does not pivot; it is stable for diagonally dominant time
    systems (Heller, SIAM J. Numer. Anal. 13, 1976), and the gate judges
    every other.

    The modal solve is the correction of ``_refined``, whose refinement step
    removes most of the rounding that an ill-conditioned W adds.  Every
    grid-sized intermediate lives in the current thread's workspace
    (``_Workspace``, ``_workspace``), and everything runs in the calling
    thread.  Returns ``(values, "")``, or ``(None, reason)`` when the guard
    rejects the system (complex eigenvalues, a scaling D too ill-conditioned
    to trust, a zero pivot in a time system's reduction, named by its lowest
    mode) or the result fails the gate, with no floating-point warning.
    ``rhs_peak`` is ||rhs||_inf for the gate when the caller has taken it
    (``solve`` has); None takes it here.

    The scaling guard decides which convection-dominated problems fall back.
    For the fitted scheme D equals exp(-psi/2) up to a constant, where psi =
    beta x/alpha - t/eps is the potential that symmetrizes the operator.  With
    constant coefficients max(d)/min(d) is therefore
    exp(|beta| (lx - 2 hx)/(2 alpha)).  The guard thus rejects every fitted
    problem with |beta| (lx - 2 hx)/alpha above 2 ln(1e6) = 27.6, that is
    with |beta| lx/alpha above about 28 on all but the coarsest grids: at
    alpha = 1e-3, beta = 1 on 32 cells the ratio is exp(468.75) = 3.8e203.
    """
    lower, main, upper = (diagonal[1:-1] for diagonal in system.x_stencil)
    coupling = lower * upper
    if not np.all(coupling > 0):
        row = int(np.argmin(coupling > 0))
        return None, f"complex spatial eigenvalues (lower*upper <= 0 at interior row {row})"
    with np.errstate(all="ignore"):
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(lower / upper))))
        ratio = d.max() / d.min()
    if not ratio <= _MAX_SCALING_RATIO:
        return None, f"scaling ratio {ratio:.3g} above {_MAX_SCALING_RATIO:g}"
    off = np.sign(lower) * np.sqrt(coupling)
    toeplitz = bool(np.all(main == main[0]) and np.all(off == off[0]))
    work = _workspace(system.grid.shape, sine=toeplitz)
    modes, scratch = work.modes, work.scratch
    if toeplitz:
        lam = _toeplitz_eigenvalues(main[0], off[0], len(main))
        halves = work.halves

        def forward(y):
            _sine_forward(halves, y, modes, scratch)

        def backward(out):
            _sine_backward(halves, modes, out, scratch)

    else:
        from scipy.linalg import LinAlgError, eigh_tridiagonal

        try:
            lam, q = eigh_tridiagonal(main, off)
        except LinAlgError as exc:
            return None, f"spatial eigendecomposition failed ({exc})"

        def forward(y):
            np.matmul(y, q, out=modes)

        def backward(out):
            np.matmul(modes, q.T, out=out)

    # every row of the time system At[1:, 1:] + lam_k I of mode k but the
    # last has the couplings t_lower[1] and t_upper[1] and the diagonal
    # t_main[1] + lam_k, the last row t_lower[-1] and t_main[-1] + lam_k;
    # _cyclic_factor takes the couplings negated
    t_lower, t_main, t_upper = system.t_stencil
    t_above = -t_upper[1] if t_upper[1] else None
    # without pivoting a time solve can overflow; the gate rejects what is
    # not finite, so the fast path raises no floating-point warning
    with np.errstate(all="ignore"):
        levels, zero = _cyclic_factor(
            len(modes), (-t_lower[1], np.add(t_main[1], lam), t_above), (-t_lower[-1], np.add(t_main[-1], lam))
        )
        if zero is not None:
            return None, f"zero pivot in the time system of mode {zero}"
        scaled = work.rows.reshape(-1)[: modes.size].reshape(modes.shape)  # the residual over d

        def interior_solve(residual):
            # the step overwrites the residual inside; on the Dirichlet border
            # the residual, rhs - x there, is already a zero that leaves x as it is
            interior = residual[1:, 1:-1]
            forward(np.divide(interior, d, out=scaled))
            _cyclic_solve(levels, modes, scratch)
            backward(interior)
            interior *= d
            return residual

        if rhs_peak is None:
            rhs_peak = _peak(system.rhs)
        return _refined(system, interior_solve, work.grid, work.rows, rhs_peak)


def solve(system: LinearSystem) -> DiscreteField:
    """Solve the space-time system by one of three paths, each started, refined and judged by ``_refined``.

    The fast-diagonalisation path (``_fast_diagonalisation``) runs first.  If
    its guard rejects the system, the correction is a sparse LU of the whole
    matrix (``_sparse_lu``), or at eps = 0 the backward Euler time steps
    (``_time_steps``); a result that fails the gate raises SolveError naming
    the reason and the system.  One debug record on the ``hodge4d.solver``
    logger names the path taken and the reason for any fallback, and no
    floating-point warning is raised.  A right-hand side whose largest entry
    is subnormal has too few significant bits for any path, so it is scaled
    into the normal range by an exact power of two, and the solution back.
    """
    peak = _peak(system.rhs)
    if 0.0 < peak < np.finfo(float).tiny:
        exponent = int(np.frexp(peak)[1])
        scaled = solve(dataclasses.replace(system, rhs=np.ldexp(system.rhs, -exponent)))
        return DiscreteField(system.grid, np.ldexp(scaled.values, exponent))
    context = f"eps={system.epsilon}, scheme={system.scheme.value}, grid={system.grid.cells}"
    with np.errstate(all="ignore"):
        values, reason = _fast_diagonalisation(system, peak)
        if values is None:
            path, fallback = ("time steps", _time_steps) if system.epsilon == 0.0 else ("splu", _sparse_lu)
            logger.debug("solve path: %s, fallback because %s (%s)", path, reason, context)
            out = np.empty(system.grid.shape)
            values, reason = _refined(system, fallback(system, context), out, np.empty_like(out[1:]), peak)
            if values is None:
                raise SolveError(f"{reason} ({context})")
        else:
            logger.debug("solve path: fast-diagonalisation (%s)", context)
    return DiscreteField(system.grid, values)


def _sparse_lu(system: LinearSystem, context: str) -> Callable:
    """The eps > 0 fallback's correction by ``splu``'s factors of ``system.matrix``; SolveError if they fail."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise SolveError(f"factorization failed ({context}): {exc}") from exc
    return lambda residual: lu.solve(residual.ravel()).reshape(residual.shape)


def _time_steps(system: LinearSystem, context: str) -> Callable:
    """The eps = 0 fallback's correction: backward Euler (see ``LinearSystem``), one time step at a time.

    The t stencil at eps = 0 gives every row above t0 the centre 1/ht and
    the coupling -1/ht to the row below.  LAPACK's partially pivoting dgttrf
    factors the step matrix I/ht + Ax (identity rows at the Dirichlet ends)
    once; a zero pivot raises SolveError.  The correction solves A c = r in
    r's array: adding c_{n-1}/ht to the interior of row n makes it the
    right-hand side of step n, which one dgttrs replaces by c_n.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    grid = system.grid
    coupling, centre, _ = system.t_stencil
    step_diagonal = np.full(grid.nx + 2, centre[1])
    step_diagonal[[0, -1]] = 1.0  # Dirichlet ends
    lower, main, upper = system.x_stencil
    *factors, info = dgttrf(lower, step_diagonal + main, upper, overwrite_d=True)
    if info > 0:
        raise SolveError(f"factorization failed ({context}): I/ht + Ax is singular (dgttrf info {info})")

    def march(residual):
        for n in range(1, grid.nt + 2):
            residual[n, 1:-1] -= coupling[n - 1] * residual[n - 1, 1:-1]
            dgttrs(*factors, residual[n], overwrite_b=True)
        return residual

    return march


def reference_evolution(config: ProblemConfig, grid: Grid1p1) -> DiscreteField:
    """Backward Euler marching of the eps = 0 evolution problem.

    Each step solves (I/ht + Ax) u_n = u_{n-1}/ht + f_n with the spatial
    stencil Ax of the space-time assembly and the grid's own time step;
    unconditionally stable.  ``solve`` solves it as the eps = 0 member of the
    space-time family, the upwind time flux (see ``LinearSystem``).
    """
    if float(config.epsilon) != 0.0:
        raise ValueError("the reference evolution is the epsilon = 0 problem")
    x_stencil = _x_stencil(config, grid)  # bad alpha or beta is reported before bad data
    return solve(LinearSystem(_data(config, grid).ravel(), grid, 0.0, config.scheme, x_stencil))


# ---------------------------------------------------------------------------
# norms, errors and the perturbation sweep
# ---------------------------------------------------------------------------


def _l2_x(values_1d: np.ndarray, grid: Grid1p1) -> float:
    return math.sqrt(float(np.trapezoid(values_1d**2, dx=grid.hx)))


def _energy_integral(diff: np.ndarray, grid: Grid1p1) -> float:
    """Space-time integral of the squared graph norm (value and x-slope), its density by row blocks."""
    density = np.empty(grid.nt + 2)
    for rows in _row_blocks(0, grid.nt + 2, grid.nx + 2):
        block = diff[rows]
        dx = np.gradient(block, grid.hx, axis=1, edge_order=1)
        density[rows] = np.trapezoid(block**2 + dx**2, dx=grid.hx, axis=1)
    return float(np.trapezoid(density, dx=grid.ht))


def l2_error(field: DiscreteField, exact: Callable) -> float:
    """Space-time L2 norm of ``field`` minus ``exact``, which is called once per row block.

    A non-finite ``exact`` value raises AssemblyError naming the first such
    node in row-major order.
    """
    grid = field.grid
    x, t = grid.xs[None, :], grid.ts[:, None]
    per_slab = np.empty(grid.nt + 2)
    for rows in _row_blocks(0, grid.nt + 2, grid.nx + 2):
        diff = field.values[rows] - _evaluate("exact", exact, x, t[rows])
        per_slab[rows] = np.trapezoid(diff**2, dx=grid.hx, axis=1)
    return math.sqrt(float(np.trapezoid(per_slab, dx=grid.ht)))


@dataclass
class SweepEntry:
    epsilon: float
    l2_error_T: float
    l2_error_mid: float
    energy_integral: float
    pairwise_slope: Optional[float]
    at_floor: bool


@dataclass
class SweepResult:
    entries: list
    slope: float
    slope_residual: float
    floor_estimate: float

    def csv_rows(self) -> list:
        rows = [("epsilon", "l2_error_T", "energy_integral", "slope_estimate")]
        for e in self.entries:
            rows.append(
                (
                    format(e.epsilon, ".17g"),
                    format(e.l2_error_T, ".17g"),
                    format(e.energy_integral, ".17g"),
                    "" if e.pairwise_slope is None else format(e.pairwise_slope, ".17g"),
                )
            )
        rows.append(("fit", "", "", format(self.slope, ".17g")))
        return rows

    def text_table(self) -> str:
        lines = [
            f"{'epsilon':>12} {'l2_error_T':>14} {'l2_error_mid':>14} "
            f"{'energy':>14} {'slope':>8} {'floor?':>7}"
        ]
        for e in self.entries:
            slope = "" if e.pairwise_slope is None else f"{e.pairwise_slope:8.3f}"
            lines.append(
                f"{e.epsilon:12.6g} {e.l2_error_T:14.6e} {e.l2_error_mid:14.6e} "
                f"{e.energy_integral:14.6e} {slope:>8} {'yes' if e.at_floor else 'no':>7}"
            )
        lines.append(f"fitted slope: {self.slope:.4f} (fit residual {self.slope_residual:.2e})")
        lines.append(f"discretization floor estimate: {self.floor_estimate:.3e}")
        return "\n".join(lines)


def epsilon_sweep(config: ProblemConfig, grid: Grid1p1, eps_list: Sequence[float]) -> SweepResult:
    """Solve the perturbed problem for each eps and compare to the reference.

    Reports the spatial L2 difference on the final slab, the mid-time
    difference, and the space-time energy integral; fits the log-log decay
    slope.  A preliminary time-refinement probe of the reference estimates
    the discretization floor, and the sweep aborts if the errors stop
    decreasing while eps does.  Every solve takes homogeneous terminal data
    (eps*du/dt = 0 at the final time): the config's ``q_terminal`` is not
    used, so its ``epsilon`` shapes only the forcing.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("empty epsilon list")
    if not all(0 < e < math.inf for e in eps_list):
        raise ValueError("epsilon values must be positive and finite")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")

    # Ax and the data do not depend on eps, so the reference and every solve
    # share them, and Ax not on the time grid, so the floor probe on the
    # finer grid shares it too; Ax goes first because reference_evolution
    # reports bad alpha or beta before bad data
    x_stencil = _x_stencil(config, grid)
    rhs = _data(config, grid).ravel()
    reference = solve(LinearSystem(rhs, grid, 0.0, config.scheme, x_stencil))
    fine_grid = dataclasses.replace(grid, nt=2 * grid.nt + 1)
    fine_final = solve(LinearSystem(_data(config, fine_grid).ravel(), fine_grid, 0.0, config.scheme, x_stencil)).values[-1]
    floor_estimate = _l2_x(fine_final - reference.values[-1], grid)

    mid = (grid.nt + 1) // 2
    entries = []
    for eps in eps_list:
        perturbed = solve(LinearSystem(rhs, grid, eps, config.scheme, x_stencil))
        diff = perturbed.values - reference.values
        l2_T = _l2_x(diff[-1], grid)
        entry = SweepEntry(
            epsilon=eps,
            l2_error_T=l2_T,
            l2_error_mid=_l2_x(diff[mid], grid),
            energy_integral=_energy_integral(diff, grid),
            pairwise_slope=None,
            at_floor=l2_T <= 3.0 * floor_estimate,
        )
        if entries:
            prev = entries[-1]
            if entry.l2_error_T >= 0.98 * prev.l2_error_T:
                raise SweepFloorError(
                    "difference to the reference stopped decreasing "
                    f"({prev.l2_error_T:.3e} -> {entry.l2_error_T:.3e} while eps "
                    f"{prev.epsilon} -> {entry.epsilon}); the discretization floor "
                    "was reached, refine the grid (larger nt) or stop the sweep earlier",
                    entries + [entry],
                )
            entry.pairwise_slope = math.log(entry.l2_error_T / prev.l2_error_T) / math.log(
                entry.epsilon / prev.epsilon
            )
        entries.append(entry)

    if len(entries) >= 2:
        # every difference is positive here: a zero one fails the floor check
        logs_e = np.log([e.epsilon for e in entries])
        logs_err = np.log([e.l2_error_T for e in entries])
        slope, intercept = np.polyfit(logs_e, logs_err, 1)
        fit_residual = float(np.max(np.abs(slope * logs_e + intercept - logs_err)))
    else:
        slope, fit_residual = float("nan"), float("nan")
    return SweepResult(entries, float(slope), fit_residual, floor_estimate)


def discrete_bilinear(u: DiscreteField, v: DiscreteField, config: ProblemConfig) -> float:
    """Quadrature of the space-time bilinear form on two nodal fields.

    Integrand: alpha*ux*vx + beta*u*vx + eps*ut*vt - u*vt over the domain,
    plus the final-time boundary mass term.  Central differences inside,
    one-sided at the boundaries, trapezoidal weights throughout.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    eps = float(config.epsilon)
    ax = _evaluate("alpha", config.alpha, grid.xs)
    bx = _evaluate("beta", config.beta, grid.xs)

    ux = np.gradient(u.values, grid.hx, axis=1, edge_order=1)
    vx = np.gradient(v.values, grid.hx, axis=1, edge_order=1)
    ut = np.gradient(u.values, grid.ht, axis=0, edge_order=1)
    vt = np.gradient(v.values, grid.ht, axis=0, edge_order=1)

    integrand = ax * ux * vx + bx * u.values * vx + eps * ut * vt - u.values * vt
    volume = float(np.trapezoid(np.trapezoid(integrand, dx=grid.hx, axis=1), dx=grid.ht))
    terminal = float(np.trapezoid(u.values[-1] * v.values[-1], dx=grid.hx))
    return volume + terminal
