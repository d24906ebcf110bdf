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
diagonalisation) with a sparse LU of the whole matrix as guarded fallback.
The zero-perturbation reference is backward Euler, I/ht + Ax, which is the
eps = 0 member of the same family under the upwind time flux (``_system``);
``solve`` solves it the same way, each mode's time solve then being one
forward substitution, with one SuperLU step per time step as the guarded
fallback.  ``epsilon_sweep`` measures the decay of the difference as eps
shrinks.

The fast path multiplies by the operator without forming the matrix
(``LinearSystem.apply``), in passes over whole contiguous grid rows whose
Dirichlet columns act as the matrix's identity rows, bit for bit the sparse
product.  It writes its intermediates into one workspace per thread, kept
for the grid shape last solved (up to 32 MiB) and replaced when another
shape arrives, so repeated solves of one grid in a process reuse memory that
is already mapped.  The arithmetic is the same, so every result is bit for
bit what fresh arrays give, and no result shares memory with the workspace.
The modes never couple, so the fast path splits them into two lanes and
hands one lane to a helper thread while the caller runs the other.  The
helper is started at the first solve of at least 10,000 interior nodes in a
process that may run on two CPUs and whose BLAS runs on one thread; a BLAS
on several threads already uses the cores, so then, and for smaller
solves, the caller runs both lanes.  Each lane writes its own part of the
caller's workspace, and the results are bit for bit those of both lanes run
in the caller.
"""

from __future__ import annotations

import contextvars
import ctypes
import dataclasses
import logging
import math
import os
import queue
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import SolveError
from .expressions import derivative, numpy_function, parse_expression, substitute, variables

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
            raise ValueError("need at least two interior nodes per direction")
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
    sparse LU fallback forms ``matrix``.
    """

    rhs: np.ndarray
    grid: Grid1p1
    epsilon: float
    scheme: Scheme
    x_stencil: tuple
    t_stencil: tuple

    @property
    def dirichlet(self) -> np.ndarray:
        """The grid's Dirichlet mask over flat node indices."""
        return self.grid.dirichlet.ravel()

    @property
    def matrix(self) -> sp.csr_matrix:
        """kron(I_t', Ax) + kron(At, I_x') + D in CSR: I' zero, D one on Dirichlet rows."""
        dirichlet = self.grid.dirichlet
        interior = (~dirichlet).astype(float)
        x_op, t_op = (sp.diags(s, [-1, 0, 1], format="csr") for s in (self.x_stencil, self.t_stencil))
        return (
            sp.kron(sp.diags(interior[:, 1]), x_op, format="csr")
            + sp.kron(t_op, sp.diags(interior[-1]), format="csr")
            + sp.diags(dirichlet.ravel().astype(float), format="csr")
        )

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``matrix @ u`` without the matrix, bit for bit (see ``_apply``)."""
        out = np.empty(self.grid.shape)
        return _apply(self, u, out, np.empty_like(out[1:])).ravel()


def _apply(system: LinearSystem, u: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Write ``system.matrix @ u`` into the grid-shaped ``out``, with ``term`` (shaped like ``out[1:]``) as scratch.

    Every pass but the last covers whole contiguous rows of ``out[1:]``, the
    block above the initial time, its two Dirichlet columns included.  Each
    neighbour term multiplies a copy of the neighbours whose Dirichlet
    columns are zeroed, and the centre coefficient there is 1.0, so those
    columns sum zeros and 1.0 * u: the identity rows of the matrix, 0.0 + u
    bit for bit, and no floating-point exception whatever ``u`` holds (for a
    finite time stencil).  Each interior row is summed in column order from
    0.0, as the sparse product sums it.  The last pass writes the
    initial-time row, 0.0 + u.  Returns ``out``.
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
    np.copyto(term.reshape(-1)[:-1], flat[width + 1 :])  # to the right; the last one lies past the grid
    term[ends] = 0.0
    rows += np.multiply(right, term, out=term)
    above = term[:-1]
    np.copyto(above, v[2:])
    above[ends] = 0.0
    rows[:-1] += np.multiply(upper_t[1:, None], above, out=above)
    np.add(0.0, v[0], out=out[0])
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
    ``manufactured`` at every node.
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
        return numpy_function(tree, "x") if variables(tree) else float(numpy_function(tree)())


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
    """Diagonals of Ax = -(J_right - J_left)/hx; the Dirichlet end rows are zero."""
    xs = grid.xs
    mids = 0.5 * (xs[:-1] + xs[1:])
    a = _evaluate("alpha", config.alpha, mids)
    b = _evaluate("beta", config.beta, mids)
    if np.any(a <= 0):
        raise AssemblyError("nonpositive diffusion coefficient on an edge")
    wl, wr = _edge_weights(a, b, grid.hx, config.scheme)
    return _stencil(wl, wr, grid.hx)


def _t_stencil(eps: float, scheme: Scheme, grid: Grid1p1) -> tuple:
    """Diagonals of At = -(J_up - J_down)/ht on the nodes above t0.

    The stencil spans nt + 2 edges, the last of which reaches a ghost slab
    above the final time.  The final-time row eliminates the ghost through
    the centered terminal condition eps*(u_ghost - u_below)/(2 ht) = q, which
    folds the ghost coupling into the sub-diagonal; the ghost row is then
    dropped.  Row 0 (the initial-time face) is zero.  Returns the diagonals
    and the ghost coupling, through which q enters the right-hand side.
    """
    wd, wu = _edge_weights(eps, -1.0, grid.ht, scheme)
    edges = grid.nt + 2
    lower, main, upper = _stencil(np.full(edges, wd), np.full(edges, wu), grid.ht)
    ghost = upper[-1]
    lower[-2] += ghost
    return (lower[:-1], main[:-1], upper[:-1]), ghost


def _data(config: ProblemConfig, grid: Grid1p1) -> np.ndarray:
    """Node values of the data: ``g`` on the Dirichlet faces, ``f`` on every other node.

    Each block is evaluated on the grid's axes (x a row, t a column): ``g`` on
    the initial-time row, then on the two spatial ends of the later rows,
    then ``f`` on the interior.  The error for non-finite data therefore
    names the first bad ``g`` node in row-major order, else the first bad
    ``f`` node.
    """
    x, t = grid.xs[None, :], grid.ts[:, None]
    values = np.empty(grid.shape)
    values[0] = _evaluate("g", config.g, x, t[:1])
    values[1:, [0, -1]] = _evaluate("g", config.g, x[:, [0, -1]], t[1:])
    values[1:, 1:-1] = _evaluate("f", config.f, x[:, 1:-1], t[1:])
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
    ht = grid.ht

    t_stencil, ghost_coupling = _t_stencil(eps, config.scheme, grid)
    rhs = _data(config, grid)
    if config.q_terminal is not None:
        # ghost slab from eps*(u_ghost - u_below)/(2 ht) = q
        q = _evaluate("q_terminal", config.q_terminal, grid.xs[1:-1], grid.ts[-1:])
        rhs[-1, 1:-1] -= ghost_coupling * (2.0 * ht / eps) * q
    return LinearSystem(rhs.ravel(), grid, eps, config.scheme, _x_stencil(config, grid), t_stencil)


# Largest accepted max(d)/min(d) of the symmetrising scaling in the fast
# path; it bounds the condition number of the spatial eigenvector matrix.
_MAX_SCALING_RATIO = 1e6
_RESIDUAL_TOLERANCE = 1e-10


def _refined(system: LinearSystem, apply: Callable, correction: Callable, x0: np.ndarray):
    """Two steps of x += correction(rhs - apply(x)) from x0, then the gate.

    ``apply`` is the matrix product; the residual overwrites the array it
    returns, which ``correction`` may then reuse for its result.  Where x0
    holds no data it is -0.0, the exact additive identity of IEEE
    arithmetic, so the first step returns the first correction bit for bit.
    Returns ``(x, "")``, or ``(None, reason)`` when x is not finite or its
    relative residual is above the gate.
    """

    def rhs_minus_apply():
        product = apply(x)
        return np.subtract(system.rhs, product, out=product)

    x = x0
    for _ in range(2):
        x += correction(rhs_minus_apply())
    residual = np.linalg.norm(rhs_minus_apply())
    residual /= max(np.linalg.norm(system.rhs), 1e-300)
    if not (np.all(np.isfinite(x)) and residual <= _RESIDUAL_TOLERANCE):
        return None, f"relative residual {residual:.3e} above {_RESIDUAL_TOLERANCE:g}"
    return x, ""


def _toeplitz_eigenpairs(a: float, s: float, n: int) -> tuple:
    """Eigenpairs ``(lam, (antisymmetric, symmetric))`` of the n x n symmetric tridiagonal Toeplitz matrix.

    The matrix has ``a`` on the diagonal and ``s`` on both off-diagonals.
    Mode k = 1..n has lam_k = a + 2 s cos(k pi/(n+1)) and the orthonormal
    eigenvector q[j, k] = sqrt(2/(n+1)) sin(j k pi/(n+1)), j = 1..n (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964).  Every entry of q is read from one
    table of the sine over a full period, at j*k mod 2(n+1).

    The reflection j -> n+1-j multiplies q[j, k] by (-1)**(k+1), so q is
    returned as its two independent blocks: the first n//2 rows of the
    antisymmetric modes k = 2, 4, ... and the first (n+1)//2 rows of the
    symmetric modes k = 1, 3, ...  ``lam`` lists the modes in that order;
    ``_sine_forward`` and ``_sine_backward`` transform through the blocks.
    """
    period = 2 * (n + 1)
    k = np.concatenate((np.arange(2, n + 1, 2), np.arange(1, n + 1, 2)))
    lam = a + 2.0 * s * np.cos(k * (np.pi / (n + 1)))
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.arange(period) * (np.pi / (n + 1)))
    half, rows = n // 2, np.arange(1, (n + 1) // 2 + 1)
    blocks = table[np.outer(rows, k) % period]
    return lam, (blocks[:half, :half], blocks[:, half:])


def _sine_blocks(halves: tuple, rows: int, scratch: np.ndarray) -> tuple:
    """Two C-contiguous blocks of ``rows`` rows, one column per mode of each half, split from the flat ``scratch``."""
    half, n = len(halves[0]), len(halves[0]) + len(halves[1])
    return scratch[: rows * half].reshape(rows, half), scratch[rows * half : rows * n].reshape(rows, n - half)


def _sine_forward(halves: tuple, y: np.ndarray, modes: np.ndarray, scratch: np.ndarray, lane: int) -> None:
    """Write one half's rows of the mode coefficients ``(y @ q).T`` of the rows of ``y`` into ``modes``.

    ``halves`` is the ``(antisymmetric, symmetric)`` pair of
    ``_toeplitz_eigenpairs``, and the modes come in its order; lane 0 writes
    the antisymmetric half, lane 1 the symmetric one.  An antisymmetric mode
    sees only the differences y[:, j] - y[:, n-1-j], a symmetric one only the
    sums (and the middle column when n is odd), so each half is one product
    of about half the size: half the flops of ``y @ q``.  The folded columns
    go to the lane's block of the flat ``scratch`` (of ``y.size`` entries,
    ``_sine_blocks``), so the two lanes touch disjoint memory.
    """
    antisymmetric, symmetric = halves
    half = len(antisymmetric)
    reflected = y[:, ::-1]
    folded = _sine_blocks(halves, len(y), scratch)[lane]
    if lane == 0:
        np.subtract(y[:, :half], reflected[:, :half], out=folded)
        np.matmul(antisymmetric.T, folded.T, out=modes[:half])
    else:
        np.copyto(folded, y[:, : len(symmetric)])  # the middle column, if any, is its own reflection
        folded[:, :half] += reflected[:, :half]
        np.matmul(symmetric.T, folded.T, out=modes[half:])


def _sine_backward(halves: tuple, modes: np.ndarray, scratch: np.ndarray, lane: int) -> None:
    """Write one half's product ``modes[half's rows].T @ q_half.T`` into the lane's block of ``scratch``.

    ``_sine_combine`` then adds the two halves' products into ``modes.T @ q.T``.
    """
    half = len(halves[0])
    rows = modes[:half] if lane == 0 else modes[half:]
    np.matmul(rows.T, halves[lane].T, out=_sine_blocks(halves, modes.shape[1], scratch)[lane])


def _sine_combine(halves: tuple, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write ``modes.T @ q.T`` into ``out`` from the two half products that ``_sine_backward`` left in ``scratch``."""
    half = len(halves[0])
    antisymmetric_part, symmetric_part = _sine_blocks(halves, len(out), scratch)
    np.add(symmetric_part[:, :half], antisymmetric_part, out=out[:, :half])
    np.subtract(symmetric_part[:, :half], antisymmetric_part, out=out[:, ::-1][:, :half])
    out[:, half : len(halves[1])] = symmetric_part[:, half:]


class _Workspace:
    """The fast path's buffers for one grid shape, reused by every solve of that shape in one thread."""

    __slots__ = ("shape", "grid", "rows", "modes", "scratch", "bands")

    def __init__(self, shape: tuple):
        ntn, nx = shape[0] - 1, shape[1] - 2
        self.shape = shape
        self.grid = np.empty(shape)  # apply's product, then the residual, then the step
        self.rows = np.empty((ntn, nx + 2))  # apply's term, then (its first ntn*nx entries) the residual over d
        self.modes = np.empty((nx, ntn))
        self.scratch = np.empty(nx * ntn)  # the two half blocks of the sine transforms
        self.bands = np.empty(3 * nx * ntn)  # dgttrf's diagonals, or the dtbsv band and diagonal

    @property
    def nbytes(self) -> int:
        return self.grid.nbytes + self.rows.nbytes + self.modes.nbytes + self.scratch.nbytes + self.bands.nbytes


_local = threading.local()

# A workspace above this many bytes (a grid of about 600,000 nodes) serves its
# one solve and is freed when the solve returns, instead of being kept.
_KEPT_WORKSPACE_BYTES = 32 * 2**20


def _workspace(shape: tuple) -> _Workspace:
    """The current thread's workspace for ``shape``; one of another shape is replaced.

    A new workspace is kept for the next solve only if it is at most
    ``_KEPT_WORKSPACE_BYTES``, so a thread holds at most one workspace, of
    at most that size.
    """
    work = getattr(_local, "work", None)
    if work is None or work.shape != shape:
        _local.work = None  # free the old buffers before taking the new ones
        work = _Workspace(shape)
        if work.nbytes <= _KEPT_WORKSPACE_BYTES:
            _local.work = work
    return work


class _Helper:
    """A daemon thread that runs lane 1 of one solve at a time (see ``_in_lanes``)."""

    __slots__ = ("idle", "tasks")

    def __init__(self):
        self.idle = threading.Lock()  # taken by a caller, released by the helper when its lane is done
        self.tasks = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="hodge4d-solver-lane", daemon=True).start()

    def _serve(self):
        while True:
            self._run(*self.tasks.get())

    def _run(self, context: contextvars.Context, lane: Callable, done: queue.SimpleQueue):
        # locals end with the call, so the helper keeps no workspace alive
        try:
            result = context.run(lane), None
        except BaseException as exc:  # re-raised by the caller
            result = None, exc
        self.idle.release()
        done.put(result)


# A solve with fewer interior nodes runs both lanes itself: each of its three
# hand-offs to the helper costs tens of microseconds, more than a lane of a
# small grid saves.  With BLAS on one thread on two cores, an eps > 0 solve
# of 95 x 95 interior nodes took 3-7% longer with the helper, one of
# 111 x 111 1-5% less and one of 127 x 127 5-10% less (two runs).
_LANE_HELPER_NODES = 10_000

_UNSTARTED = object()
_helper = _UNSTARTED
_helper_lock = threading.Lock()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_OPENBLAS_THREAD_COUNTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
_blas_thread_counters = None


def _find_blas_thread_counters() -> list:
    """OpenBLAS's thread-count function behind each extension the fast path calls, or None where it has none.

    The extensions are numpy's (matmul) and SciPy's LAPACK (dgttrf, dgttrs)
    and BLAS (dtbsv) wrappers; numpy and SciPy wheels each load their own
    OpenBLAS.  Looked up through an extension's own handle, a symbol is found
    in the libraries it links.
    """
    counters = []
    for name in ("numpy._core._multiarray_umath", "scipy.linalg._flapack", "scipy.linalg._fblas"):
        try:
            library = ctypes.CDLL(sys.modules[name].__file__)
        except (KeyError, AttributeError, OSError):  # not loaded, built in, or not a shared object
            counters.append(None)
            continue
        found = [getattr(library, symbol) for symbol in _OPENBLAS_THREAD_COUNTERS if hasattr(library, symbol)]
        counters.append(found[0] if found else None)
    return counters


def _blas_on_one_thread() -> bool:
    """Whether every BLAS the fast path calls is known to run on one thread right now.

    A BLAS on several threads already spreads its products over the cores,
    and a product that another thread calls at the same time stalls in it
    (on two cores with OpenBLAS's own threads, a first product took 8-28 ms
    instead of 0.1 ms), so the fast path then runs both lanes in the caller,
    as it does for a BLAS that is not OpenBLAS.  The counts are read at
    every solve, so a limit set at run time holds.
    """
    global _blas_thread_counters
    if _blas_thread_counters is None:
        _blas_thread_counters = _find_blas_thread_counters()
    return all(count is not None and count() == 1 for count in _blas_thread_counters)


def _lane_helper() -> Optional[_Helper]:
    """The process's helper, started at the first call that may use it.

    None when BLAS may run on more than one thread (``_blas_on_one_thread``),
    when the process may run on one CPU only, or when it cannot start a
    thread.
    """
    global _helper
    if not _blas_on_one_thread():
        return None
    with _helper_lock:
        if _helper is _UNSTARTED:
            try:
                _helper = _Helper() if _usable_cpus() >= 2 else None
            except RuntimeError:  # no thread could be started: the caller runs both lanes
                _helper = None
        return _helper


def _forget_helper():
    """In a forked child, where the helper thread does not exist, start a new one at the next solve."""
    global _helper, _helper_lock
    _helper, _helper_lock = _UNSTARTED, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _in_lanes(helper: Optional[_Helper], lane: Callable) -> tuple:
    """``(lane(0), lane(1))``, with lane 1 run by ``helper`` while the caller runs lane 0.

    The two lanes must write disjoint memory.  Lane 1 runs in a copy of the
    caller's ``contextvars`` context, so numpy's ``errstate`` holds in it too,
    and an exception in either lane reaches the caller once both are done.
    Without a helper, or when another solve is using it, the caller runs both
    lanes itself, in order; the arithmetic is the same either way.
    """
    if helper is None or not helper.idle.acquire(blocking=False):
        return lane(0), lane(1)
    done = queue.SimpleQueue()
    helper.tasks.put((contextvars.copy_context(), partial(lane, 1), done))
    try:
        first = lane(0)
    finally:
        try:
            second, error = done.get()
        except BaseException:
            _local.work = None  # interrupted: the helper may still write into this thread's workspace
            raise
    if error is not None:
        raise error
    return first, second


def _fast_diagonalisation(system: LinearSystem):
    """Solve through the eigenbasis of the spatial stencil (Lynch, Rice & Thomas).

    With X = Ax[1:-1, 1:-1] and T = At[1:, 1:] the interior unknowns U (time
    by space) satisfy T U + U X^T = B, where B is the right-hand side with the
    Dirichlet values moved over.  X is tridiagonal; when every product of its
    off-diagonals is positive, X = D S D^-1 with D = diag(d) and S symmetric
    tridiagonal, so X = W diag(lam) W^-1 with W = D Q and W^-1 = Q^T D^-1.
    When S is Toeplitz (every diagonal entry equal and every off-diagonal
    entry equal, as for constant alpha and beta), its eigenpairs are known in
    closed form (``_toeplitz_eigenpairs``); for any other S they come from
    LAPACK's ``eigh_tridiagonal``.  The closed-form basis is the discrete
    sine transform, whose reflection symmetry splits each transform into two
    products of about half the size (``_sine_forward``, ``_sine_backward``;
    the split step of Cooley, Lewis & Welch, J. Sound Vib. 12, 1970), half
    the flops of the one full product per transform that the
    ``eigh_tridiagonal`` basis takes.  Its modes come antisymmetric first
    (k = 2, 4, ...), then symmetric (k = 1, 3, ...), so each half is
    contiguous.  In that basis each eigenmode k is one shifted tridiagonal
    solve (T + lam_k I) u_k = b_k in time, and the modes never couple.  The
    nx shifted systems are stacked, in the order of the modes, into one
    block-diagonal tridiagonal system, split into two lanes of contiguous
    modes: the two halves of the sine basis, or the lower and upper half of
    the ``eigh_tridiagonal`` modes.  Each lane factors its blocks by LAPACK's
    partially pivoting dgttrf; the zero couplings between blocks keep every
    pivot inside its own block, so the two calls do the arithmetic of one
    call over all modes.  When T has no upper diagonal (the eps = 0
    reference, backward Euler), every shifted system is lower bidiagonal,
    one scalar recurrence per mode: dividing each row by its diagonal leaves
    a unit lower bidiagonal matrix, and one BLAS dtbsv forward substitution
    per lane solves its modes, with no factorization.  Like the sparse LU
    path, the solve takes one refinement step, which removes most of the
    rounding that an ill-conditioned W adds.

    The caller runs one lane while a helper thread runs the other
    (``_in_lanes``): the factorization, then in each refinement step the
    lane's time solves and, in the sine basis, its half products of both
    transforms; the caller then adds the two halves of the backward
    transform.  The ``eigh_tridiagonal`` basis keeps its full products in the
    caller.  The multiplication by the operator, the residual norms and the
    gate stay in the caller too.  The helper starts at the first solve that
    may use it, and only in a process that may run on at least two CPUs; a
    solve of fewer than 10,000 interior nodes (``_LANE_HELPER_NODES``), one
    in a process whose BLAS may run on several threads
    (``_blas_on_one_thread``), or one that finds the helper busy with
    another thread's solve runs both lanes in the caller.  Each lane writes
    only its own part of the workspace, so the results are bit for bit the
    same wherever the lanes run.

    Every grid-sized intermediate lives in the current thread's workspace
    (``_workspace``): one grid-shaped array (the product, then the residual,
    then the step), one of whole rows above the initial time (the product's
    scratch term, then, in its first entries, the scaled residual) and five
    of the interior's size (the modes, the two half blocks of the sine
    transforms, and the three diagonals of the time systems), about 8.3 MB
    at 384 x 384 cells.  One workspace is kept per thread, for the last grid
    shape, if it is at most 32 MiB (``_KEPT_WORKSPACE_BYTES``); a larger one
    is freed when its solve returns.  The helper has none: its lane writes
    into the caller's.  The start vector and the returned values are always
    fresh.

    Returns ``(values, "")``, or ``(None, reason)`` when the guard rejects the
    system: complex eigenvalues, a scaling D too ill-conditioned to trust, a
    singular shifted system (a failed dgttrf, or a zero diagonal of a
    bidiagonal one), or a result that fails the residual gate.  A failed
    lane numbers its row or mode over all modes, and lane 0's failure, the
    lower modes, comes first, so the reason reads as one call over all
    modes would give it.

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
    t_lower, t_main, t_upper = system.t_stencil
    coupling = lower * upper
    if not np.all(coupling > 0):
        row = int(np.argmin(coupling > 0))
        return None, f"complex spatial eigenvalues (lower*upper <= 0 at interior row {row})"
    with np.errstate(all="ignore"):
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(lower / upper))))
        ratio = d.max() / d.min()
    if not ratio <= _MAX_SCALING_RATIO:
        return None, f"scaling ratio {ratio:.3g} above {_MAX_SCALING_RATIO:g}"
    work = _workspace(system.grid.shape)
    nx, ntn = len(main), len(t_main) - 1
    helper = _lane_helper() if nx * ntn >= _LANE_HELPER_NODES else None
    off = np.sign(lower) * np.sqrt(coupling)
    if np.all(main == main[0]) and np.all(off == off[0]):
        lam, halves = _toeplitz_eigenpairs(main[0], off[0], len(main))
        split = len(halves[0])

        def transform(y, time_solve, out):
            def lane(index):
                _sine_forward(halves, y, work.modes, work.scratch, index)
                time_solve(index)
                _sine_backward(halves, work.modes, work.scratch, index)

            _in_lanes(helper, lane)
            _sine_combine(halves, out, work.scratch)

    else:
        try:
            lam, q = eigh_tridiagonal(main, off)
        except LinAlgError as exc:
            return None, f"spatial eigendecomposition failed ({exc})"
        split = nx // 2

        def transform(y, time_solve, out):
            # splitting a product by rows of its output need not keep its bits
            np.matmul(q.T, y.T, out=work.modes)
            _in_lanes(helper, time_solve)
            np.matmul(work.modes.T, q.T, out=out)

    lanes = ((0, split), (split, nx))  # the modes of each lane
    lower_band, upper_band, shifted = work.bands.reshape(3, nx, ntn)
    if not t_upper[1:].any():
        # lower bidiagonal blocks: each row divided by its diagonal leaves a
        # unit diagonal, and one forward substitution per lane solves its modes;
        # row 1 of the band holds the sub-diagonal, and the last entry of each
        # block stays zero, the coupling to the next
        band = work.bands[: 2 * nx * ntn].reshape((2, nx * ntn), order="F")

        def factor(lane):
            lo, hi = lanes[lane]
            diagonal = np.add(t_main[1:], lam[lo:hi, None], out=shifted[lo:hi])
            if not diagonal.all():
                mode = lo + int(np.argmin(diagonal.all(axis=1)))
                return f"singular shifted time system (zero diagonal in mode {mode})"
            columns = band[:, lo * ntn : hi * ntn]
            columns[:] = 0.0
            np.divide(t_lower[1:], diagonal[:, 1:], out=columns[1].reshape(hi - lo, ntn)[:, :-1])
            return ""

        def time_solve(lane):
            lo, hi = lanes[lane]
            modes = work.modes[lo:hi].reshape(-1)
            modes /= shifted[lo:hi].reshape(-1)
            # the contiguous block is solved in place
            dtbsv(1, band[:, lo * ntn : hi * ntn], modes, lower=1, diag=1, overwrite_x=1)

    else:
        factors = [None, None]

        def factor(lane):
            # one block per mode; the last entry of each off-diagonal block
            # stays zero, the coupling to the next block, so no pivot leaves
            # its block and one dgttrf per lane does the arithmetic of one
            # over all modes
            lo, hi = lanes[lane]
            np.add(t_main[1:], lam[lo:hi, None], out=shifted[lo:hi])
            for block, values in ((lower_band[lo:hi], t_lower[1:]), (upper_band[lo:hi], t_upper[1:])):
                block[:, :-1], block[:, -1] = values, 0.0
            *lane_factors, info = dgttrf(
                lower_band[lo:hi].ravel()[:-1],
                shifted[lo:hi].ravel(),
                upper_band[lo:hi].ravel()[:-1],
                overwrite_dl=True,
                overwrite_d=True,
                overwrite_du=True,
            )
            factors[lane] = lane_factors
            if info > 0:  # the row of the first zero pivot, counted over all modes
                info += lo * ntn
            return f"shifted tridiagonal factorization failed (dgttrf info {info})" if info else ""

        def time_solve(lane):
            lo, hi = lanes[lane]
            dgttrs(*factors[lane], work.modes[lo:hi].reshape(-1, 1), overwrite_b=True)  # in place, as dtbsv

    reason = next(filter(None, _in_lanes(helper, factor)), "")  # lane 0 holds the lower modes
    if reason:
        return None, reason
    shape = system.grid.shape
    scaled = work.rows.reshape(-1)[: ntn * nx].reshape(ntn, nx)  # the residual over d

    def apply(u):
        return _apply(system, u, work.grid, work.rows).ravel()

    def interior_solve(residual):
        # the step overwrites the residual (work.grid) inside; on the
        # Dirichlet border the residual, rhs - x there, is already a zero
        # that leaves x as it is
        step = residual.reshape(shape)
        y = np.divide(step[1:, 1:-1], d, out=scaled)
        interior = step[1:, 1:-1]
        transform(y, time_solve, interior)  # one block of modes per lane
        interior *= d
        return residual

    x0 = system.rhs.copy()
    x0.reshape(shape)[1:, 1:-1] = -0.0
    values, reason = _refined(system, apply, interior_solve, x0)
    return (None if values is None else values.reshape(shape)), reason


def solve(system: LinearSystem) -> DiscreteField:
    """Solve the space-time system; checks the residual.

    The fast-diagonalisation path (``_fast_diagonalisation``) runs first.  If
    its guard rejects the system, a direct sparse LU of the whole matrix with
    one refinement step solves it instead, or, for the eps = 0 reference
    (backward Euler, see ``_system``), ``_time_steps`` marches it one time
    step at a time.  One debug record on the ``hodge4d.solver`` logger names
    the path taken and the reason for any fallback.

    A right-hand side whose largest entry is subnormal carries too few
    significant bits for any path to keep the solution inside the data's
    range, so it is scaled into the normal range by a power of two, which is
    exact, and the solution is scaled back.

    Data near the float maximum can overflow on every path; no floating-point
    warning is raised for it, and a result that is not finite ends in
    ``SolveError``.
    """
    peak = max(system.rhs.max(), -system.rhs.min())
    if 0.0 < peak < np.finfo(float).tiny:
        exponent = int(np.frexp(peak)[1])
        scaled = solve(dataclasses.replace(system, rhs=np.ldexp(system.rhs, -exponent)))
        return DiscreteField(system.grid, np.ldexp(scaled.values, exponent))
    context = (
        f"eps={system.epsilon}, scheme={system.scheme.value}, "
        f"grid={system.grid.nx}x{system.grid.nt}"
    )
    with np.errstate(all="ignore"):
        values, reason = _fast_diagonalisation(system)
        if values is not None:
            logger.debug("solve path: fast-diagonalisation (%s)", context)
            return DiscreteField(system.grid, values)
        if system.epsilon == 0.0:
            logger.debug("solve path: time steps, fallback because %s (%s)", reason, context)
            values = _time_steps(system)
            if not np.all(np.isfinite(values)):
                raise SolveError(f"the time steps reached a value that is not finite ({context})")
            return DiscreteField(system.grid, values)
        logger.debug("solve path: splu, fallback because %s (%s)", reason, context)
        matrix = system.matrix
        try:
            lu = spla.splu(matrix.tocsc())
        except RuntimeError as exc:
            raise SolveError(f"factorization failed ({context}): {exc}") from exc
        x, reason = _refined(system, matrix.dot, lu.solve, np.full(system.rhs.shape, -0.0))
        if x is None:
            raise SolveError(f"{reason} ({context})")
        return DiscreteField(system.grid, x.reshape(system.grid.shape))


def _time_steps(system: LinearSystem) -> np.ndarray:
    """Backward Euler through the eps = 0 system (see ``_system``), one time step at a time.

    Row n of a copy of the right-hand side holds the end values and f_n;
    adding u_{n-1}/ht to its interior makes it the right-hand side of step
    n, which ``SuperLU.solve`` of I/ht + Ax replaces by u_n.  The residual
    gate of ``_refined`` is not applied: a stiff march that is correct can
    fail it.
    """
    grid, ht = system.grid, system.grid.ht
    step_diagonal = np.full(grid.nx + 2, 1.0 / ht)
    step_diagonal[[0, -1]] = 1.0  # Dirichlet ends
    lower, main, upper = system.x_stencil
    lu = spla.splu(sp.diags([lower, step_diagonal + main, upper], [-1, 0, 1], format="csc"))
    values = system.rhs.reshape(grid.shape).copy()
    for n in range(1, grid.nt + 2):
        values[n, 1:-1] += values[n - 1, 1:-1] / ht
        values[n] = lu.solve(values[n])
    return values


def _system(rhs: np.ndarray, grid: Grid1p1, eps: float, scheme: Scheme, x_stencil: tuple) -> LinearSystem:
    """The space-time system over the node data ``rhs`` (see ``_data``) with homogeneous terminal data.

    At eps = 0 the time flux is upwind whatever ``scheme``: the time stencil
    is then -1/ht below the diagonal, 1/ht on it and zero above it, with no
    ghost coupling, so the interior row at time n reads (u_n - u_{n-1})/ht +
    Ax u_n = f_n, backward Euler row for row.
    """
    t_stencil, _ = _t_stencil(eps, Scheme.UPWIND if eps == 0.0 else scheme, grid)
    return LinearSystem(rhs.ravel(), grid, eps, scheme, x_stencil, t_stencil)


def reference_evolution(config: ProblemConfig, grid: Grid1p1) -> DiscreteField:
    """Backward Euler marching of the eps = 0 evolution problem.

    Each step solves (I/ht + Ax) u_n = u_{n-1}/ht + f_n with the spatial
    stencil Ax of the space-time assembly and the grid's own time step;
    unconditionally stable.  This is the eps = 0 member of the space-time
    family under the upwind time flux (``_system``), and ``solve`` solves it
    as such.
    """
    if float(config.epsilon) != 0.0:
        raise ValueError("the reference evolution is the epsilon = 0 problem")
    x_stencil = _x_stencil(config, grid)  # bad alpha or beta is reported before bad data
    return solve(_system(_data(config, grid), grid, 0.0, config.scheme, x_stencil))


# ---------------------------------------------------------------------------
# norms, errors and the perturbation sweep
# ---------------------------------------------------------------------------


def _l2_x(values_1d: np.ndarray, grid: Grid1p1) -> float:
    return math.sqrt(float(np.trapezoid(values_1d**2, dx=grid.hx)))


def _energy_integral(diff: np.ndarray, grid: Grid1p1) -> float:
    """Space-time integral of the squared graph norm (value and x-slope)."""
    dx = np.gradient(diff, grid.hx, axis=1, edge_order=1)
    density = np.trapezoid(diff**2 + dx**2, dx=grid.hx, axis=1)
    return float(np.trapezoid(density, dx=grid.ht))


def l2_error(field: DiscreteField, exact: Callable) -> float:
    grid = field.grid
    diff = field.values - _evaluate("exact", exact, grid.xs[None, :], grid.ts[:, None])
    per_slab = np.trapezoid(diff**2, dx=grid.hx, axis=1)
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
    rhs = _data(config, grid)
    reference = solve(_system(rhs, grid, 0.0, config.scheme, x_stencil))
    fine_grid = dataclasses.replace(grid, nt=2 * grid.nt + 1)
    fine_final = solve(_system(_data(config, fine_grid), fine_grid, 0.0, config.scheme, x_stencil)).values[-1]
    floor_estimate = _l2_x(fine_final - reference.values[-1], grid)

    mid = (grid.nt + 1) // 2
    entries = []
    for eps in eps_list:
        perturbed = solve(_system(rhs, grid, eps, config.scheme, x_stencil))
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

    logs_e = np.log([e.epsilon for e in entries])
    logs_err = np.log([e.l2_error_T for e in entries])
    if len(entries) >= 2:
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
