"""State propagation: closed form exp(B(t)) and the brute-force oracle.

The closed form unvec(exp(B(t)) vec(rho0)) is an exact solution of the
master equation exactly when vec(rho0) lies in the partially commutative
subspace (or when the generator satisfies one of the global
commutativity criteria). The oracle integrates the vectorized linear ODE
with an adaptive Runge-Kutta pair and knows nothing about matrix
exponentials or commutativity, so agreement between the two is a genuine
cross-check rather than a tautology. The flow ("Fedorov") residual
certifies the closed form directly: it inserts exp(B(t)) alpha into the
master equation, with the time derivative taken exactly from the Frechet
derivative of the matrix exponential.

The closed form and the residual work block by block (see
:mod:`lindblad_pc.model`): B(t) and L(t) vanish between the generator's
invariant blocks, so exp(B(t)) is the direct sum of the exponentials of
the blocks. The coefficients of B(t) on the drift and on each
dissipator, [t, Gamma_k(t)], are tabulated over the grid, and for the
residual those of L(t), [1, gamma_k(t)]. The closed form takes one
`np.exp` over every one-coordinate block per chunk of CHUNK points; each
larger block is one stacked `expm`, or `expm_frechet` for the residual,
per chunk of at most CHUNK points, fewer for a block so large that its
stack would pass STACK_BYTES. The oracle keeps the dense mu x mu
generator_at: it shares no code with the blocks, so `verify` still
tests them against an integration that does not assume them.

Only :func:`ode_oracle` uses `scipy.integrate`, and it imports it when
called: `solve` and the admissibility gate never integrate, and
scipy.integrate was the most expensive import of the package (about
0.12 s under `python -X importtime` on a 2-CPU x86-64 host).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NonFiniteError, StepSizeUnderflowError
from .expr import eval_expr
from .linalg import expm, expm_frechet, unvec, vec
# integral_at is not called here, but perfbench's tracer wraps the name in
# this module, so it stays bound.
from .model import generator_at, integral_at  # noqa: F401

__all__ = [
    "Trajectory", "propagate_closed_form", "ode_oracle",
    "fedorov_residual", "compare", "trace_distance",
]

ORACLE_TOL = 1e-10
# The cascade4 built-in takes about 2e3 evaluations on [0, 20] and 3.5e4
# on [0, 8000].
ORACLE_MAX_RHS_CALLS = 100_000
# Grid points per batched exponential: at most CHUNK, and fewer for a
# large block b, so that the b x b stacks of the closed form and the four
# b x b (or one 2b x 2b) stacks of the residual stay within STACK_BYTES
# each; expm adds an output of the same size and per-slice scratch. The
# blocks of a level-transition model up to d = 16 get the full CHUNK; a
# fully coupled generator at d = 16 (one block, b = 256) gets 8 points
# in the closed form and 2 in the residual.
CHUNK = 512
STACK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class Trajectory:
    """Density matrices on a time grid starting at t = 0."""

    times: np.ndarray   # shape (n,), strictly increasing, times[0] == 0
    states: np.ndarray  # shape (n, d, d)
    method: str         # "closed-form" or "ode-oracle"

    @property
    def dim(self):
        return self.states.shape[1]


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a 1-d array")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _chunks(count, n):
    """Slices that cover range(count) in chunks for a stack of n x n
    matrices: see CHUNK."""
    step = max(1, min(CHUNK, STACK_BYTES // (16 * n * n)))
    return [slice(start, start + step) for start in range(0, count, step)]


def _blocks(g):
    """The one-coordinate blocks as (coordinates, their entries in the
    drift and each dissipator, shape (1 + K, s)), and every larger block
    as (coordinates, its submatrices, shape (1 + K, b, b))."""
    terms = [g.drift] + [part.matrix for part in g.parts]
    singles = np.array([b[0] for b in g.blocks if b.size == 1], dtype=int)
    larger = [(b, np.array([m[np.ix_(b, b)] for m in terms]))
              for b in g.blocks if b.size > 1]
    return (singles, np.array([m[singles, singles] for m in terms])), larger


def _integral_table(g, times):
    """[t, Gamma_k(t)]: one row per time, the coefficients of B(t)."""
    return np.column_stack([times, *(part.integral.values(times) for part in g.parts)])


def _rate_table(g, times):
    """[1, gamma_k(t)]: one row per time, the coefficients of L(t)."""
    return np.column_stack([np.ones_like(times),
                            *(eval_expr(part.rate, times) for part in g.parts)])


def propagate_closed_form(g, rho0, grid):
    """Evaluate rho(t) = unvec(exp(B(t)) vec(rho0)) on the grid, block by
    block and chunk by chunk (see the module docstring).

    The formula is applied as written even for initial states outside the
    admissible subspace (callers use that for negative controls); it is a
    solution of the master equation only on the subspace.
    """
    grid = _check_grid(grid)
    v0 = vec(np.asarray(rho0, dtype=complex))
    (singles, single_terms), larger = _blocks(g)
    table = _integral_table(g, grid)
    out = np.empty((grid.size, g.mu), dtype=complex)
    for rows in _chunks(grid.size, 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out[rows, singles] = np.exp(table[rows] @ single_terms) * v0[singles]
    for coords, terms in larger:
        for rows in _chunks(grid.size, coords.size):
            out[rows, coords] = expm(np.tensordot(table[rows], terms, axes=1)) @ v0[coords]
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("closed-form propagation produced non-finite entries")
    return Trajectory(times=grid, states=unvec(out, g.dim), method="closed-form")


def ode_oracle(g, rho0, grid):
    """Integrate vec(rho)' = L(t) vec(rho) with an adaptive RK45 pair.

    Local error is kept at ORACLE_TOL; the solution is evaluated on the grid
    points through the integrator's dense output. Raises
    StepSizeUnderflowError, with the time reached, once the integrator
    asks for more than ORACLE_MAX_RHS_CALLS evaluations of the right-hand
    side (a stiff or fast-growing rate).
    """
    from scipy.integrate import solve_ivp  # on first use: see the module docstring

    grid = _check_grid(grid)
    d = g.dim
    v0 = vec(np.asarray(rho0, dtype=complex))
    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        if calls > ORACLE_MAX_RHS_CALLS:
            raise StepSizeUnderflowError(
                f"ODE oracle gave up after {ORACLE_MAX_RHS_CALLS} right-hand-side "
                f"evaluations at t={t:g} of {grid[-1]:g}")
        return generator_at(g, t) @ y

    result = solve_ivp(
        rhs, (grid[0], grid[-1]), v0, method="RK45",
        rtol=ORACLE_TOL, atol=ORACLE_TOL, t_eval=grid)
    if not result.success:
        raise StepSizeUnderflowError(result.message)
    return Trajectory(times=grid, states=unvec(result.y.T, d), method="ode-oracle")


def fedorov_residual(g, alpha, grid):
    """How badly exp(B(t)) alpha fails the master equation on the grid.

    Returns max_t || d/dt [exp(B(t)) alpha] - L(t) exp(B(t)) alpha ||
    normalized by ||alpha||. Since B'(t) = L(t), the derivative of
    exp(B(t)) is the Frechet derivative of exp at B(t) in the direction
    L(t), which `expm_frechet` returns exactly together with exp(B(t)).
    Zero at t = 0; near machine precision for admissible alpha; order
    one for inadmissible alpha.

    Blocks and chunks as in :func:`propagate_closed_form`. A
    one-coordinate block adds nothing: there the derivative of
    exp(Gamma(t)) is gamma(t) exp(Gamma(t)) exactly, so its residual
    vanishes, and only the larger blocks are exponentiated.
    """
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    norm_alpha = float(np.linalg.norm(alpha))
    if norm_alpha == 0.0:
        return 0.0
    _, larger = _blocks(g)
    integral, rates = _integral_table(g, grid), _rate_table(g, grid)
    squares = np.zeros(grid.size)
    for coords, terms in larger:
        a = alpha[coords]
        for rows in _chunks(grid.size, 2 * coords.size):
            gen = np.tensordot(rates[rows], terms, axes=1)
            flow, derivative = expm_frechet(np.tensordot(integral[rows], terms, axes=1), gen)
            residual = derivative @ a - np.einsum("tij,tj->ti", gen, flow @ a)
            squares[rows] += np.sum(residual.real ** 2 + residual.imag ** 2, axis=1)
    return float(np.sqrt(squares.max())) / norm_alpha


def trace_distance(rho, sigma):
    """(1/2) ||rho - sigma||_1, the sum of singular values of the
    difference; for two stacks of matrices, the array of distances of
    corresponding pairs."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    distance = 0.5 * np.linalg.svd(diff, compute_uv=False).sum(axis=-1)
    return float(distance) if diff.ndim == 2 else distance


def compare(a, b):
    """Largest trace distance between two trajectories on the same grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatchError("trajectories are on different time grids")
    return float(trace_distance(a.states, b.states).max())
