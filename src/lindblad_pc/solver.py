"""State propagation: closed form exp(B(t)) and the brute-force oracle.

The closed form unvec(exp(B(t)) vec(rho0)) is an exact solution of the
master equation exactly when vec(rho0) lies in the partially commutative
subspace (or when the generator satisfies one of the global
commutativity criteria). The oracle integrates the vectorized linear ODE
with an adaptive Runge-Kutta pair, one evaluation of the generator per
right-hand side, and knows nothing about matrix exponentials or
commutativity, so agreement between the two is a genuine
cross-check rather than a tautology. The flow ("Fedorov") residual
certifies the closed form directly: it inserts exp(B(t)) alpha into the
master equation, with the time derivative taken exactly from the Frechet
derivative of the matrix exponential.

The closed form and the residual work block by block (see
:mod:`lindblad_pc.model`): B(t) and L(t) vanish between the generator's
invariant blocks, so exp(B(t)) is the direct sum of the exponentials of
the blocks. The coefficients of B(t) on the drift and on each
dissipator, [t, Gamma_k(t)], are tabulated over the whole grid
(`model.integral_table`, one `values` call per rate), and for the
residual those of L(t), [1, gamma_k(t)] (`model.rate_table`). The grid
then goes through in row blocks of consecutive points (`_row_blocks`),
each of as many points as keep the row block's own arrays, its states
and the stacks of its largest group, within the package's one memory
budget (`linalg.SLAB_BYTES`, cut by `linalg._row_slices` as every
stacked loop is): the c blocks of each size b (`g.groups`) make one
(points, c, b, b) stack per row block, through `expm` for the closed
form (np.exp of the diagonal when b = 1), and through `expm_frechet` for
the residual, which skips b = 1, where it vanishes; those cut each stack
into slabs of their own working set. So neither holds more than about
two slabs of arrays at a time, whatever the number of grid points, and a
64 x 64 block still takes a few points per row block, where one slab of
`expm` holds a single slice: `closed_form_blocks` yields the closed form
one row block at a time, for a caller that consumes it so (the CLI's
`solve`), and `propagate_closed_form` fills the whole trajectory from
it. Each point's state does not depend on the block it falls in. The
oracle's mu x mu L(t) (`generator_at`) is
scattered from the generator's table of nonzero entries, not from the
blocks: it shares no code with them, so `verify` still tests them
against an integration that does not assume them.

The oracle is the Dormand-Prince 5(4) pair (Dormand and Prince, J.
Comput. Appl. Math. 6 (1980) 19-26) with the coefficients, step control
and dense output of scipy.integrate's RK45, written out here so that
`verify` needs no scipy: it takes the steps solve_ivp(method="RK45")
takes at rtol = atol = ORACLE_TOL. Neither it, nor the closed form, nor
the residual imports scipy: `expm` and `expm_frechet` are numpy code in
:mod:`lindblad_pc.linalg`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NonFiniteError, StepSizeUnderflowError
from . import linalg
from .linalg import expm, expm_frechet, unvec, vec
from .model import generator_at, integral_table, rate_table
# integral_at is not called here, but perfbench's tracer wraps the name in
# this module, so it stays bound.
from .model import integral_at  # noqa: F401

__all__ = [
    "Trajectory", "closed_form_blocks", "propagate_closed_form", "ode_oracle",
    "fedorov_residual", "compare", "trace_distance",
]

ORACLE_TOL = 1e-10
# The cascade4 built-in takes about 2e3 evaluations on [0, 20] and 3.5e4
# on [0, 8000].
ORACLE_MAX_RHS_CALLS = 100_000


class Trajectory(NamedTuple):
    """Density matrices on a time grid starting at t = 0."""

    times: np.ndarray   # shape (n,), strictly increasing, times[0] == 0
    states: np.ndarray  # shape (n, d, d)
    method: str         # "closed-form" or "ode-oracle"
    # shape (n,): a bound on the rounding error of each entry of each
    # state, or None when not known (the oracle's error is truncation)
    rounding: np.ndarray | None = None

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


def _row_blocks(g, count, frechet=False):
    """Slices that cover range(count), a grid of count points, each with
    as many points (at least one) as keep a row block's own arrays within
    one slab of :mod:`lindblad_pc.linalg` (SLAB_BYTES): its states and,
    for the largest group, its (points, c, b, b) stacks, three for the
    closed form (B(t), exp(B(t)) and its product with vec(rho0)) and four
    for the residual (A, E, exp(A) and L(A, E)). `expm` and `expm_frechet`
    cut each stack into slabs of their own working set."""
    stacks = 4 if frechet else 3
    largest = max((coords.shape[0] * coords.shape[1] ** 2 for coords, _ in g.groups
                   if not frechet or coords.shape[1] > 1), default=0)
    return linalg._row_slices(count, 16 * (g.mu + stacks * largest))


def closed_form_blocks(g, rho0, grid):
    """rho(t) = unvec(exp(B(t)) vec(rho0)) on the grid, one Trajectory of
    consecutive grid points per row block (see the module docstring).
    Raises NonFiniteError at the first block with a non-finite state.

    The formula is applied as written even for initial states outside the
    admissible subspace (callers use that for negative controls); it is a
    solution of the master equation only on the subspace.
    """
    grid = _check_grid(grid)
    v0 = vec(np.asarray(rho0, dtype=complex))
    table = integral_table(g, grid)
    norms = 0.0  # the largest 1-norm over the blocks of the drift and each dissipator
    for _, terms in g.groups:
        norms = np.maximum(norms, np.abs(terms).sum(axis=-2).max(axis=(-1, -2)))
    # The forward error of a scaling-and-squaring exponential grows like
    # eps ||B(t)||, and ||B(t)||_1 <= sum_k |Gamma_k(t)| norms_k. Twice
    # that: the noise eigenvalues of pure states under random jump-free
    # models (d = 2..5, windows up to 1e5) stayed below 0.83 of
    # d eps (1 + that bound).
    rounding = 2 * np.finfo(float).eps * (1 + np.abs(table) @ norms)
    for rows in _row_blocks(g, grid.size):
        out = np.empty((rows.stop - rows.start, g.mu), dtype=complex)
        for coords, terms in g.groups:
            # a sum of products, not matmul, rounds exp(x) * v of a 1 x 1 block
            # as np.exp did; one expression frees each stack before the next
            out[:, coords] = np.sum(expm(np.tensordot(table[rows], terms, axes=1))
                                    * v0[coords][:, None, :], axis=-1)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("closed-form propagation produced non-finite entries")
        yield Trajectory(times=grid[rows], states=unvec(out, g.dim), method="closed-form",
                         rounding=rounding[rows])


def propagate_closed_form(g, rho0, grid):
    """The whole trajectory of :func:`closed_form_blocks`, filled in block
    by block."""
    grid = _check_grid(grid)
    states = np.empty((grid.size, g.dim, g.dim), dtype=complex)
    rounding = np.empty(grid.size)
    start = 0
    for block in closed_form_blocks(g, rho0, grid):
        rows = slice(start, start + block.times.size)
        states[rows], rounding[rows] = block.states, block.rounding
        start = rows.stop
    return Trajectory(times=grid, states=states, method="closed-form", rounding=rounding)


def ode_oracle(g, rho0, grid):
    """Integrate vec(rho)' = L(t) vec(rho) with the adaptive Dormand-Prince
    5(4) pair (see :func:`_dormand_prince`).

    Local error is kept at ORACLE_TOL; the solution is evaluated on the grid
    points through the pair's dense output. Raises StepSizeUnderflowError,
    with the time reached, once the integrator asks for more than
    ORACLE_MAX_RHS_CALLS evaluations of the right-hand side (a stiff or
    fast-growing rate), or when the step it needs falls below ten times
    the float spacing at the current time.
    """
    grid = _check_grid(grid)
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

    states = _dormand_prince(rhs, v0, grid)
    return Trajectory(times=grid, states=unvec(states, g.dim), method="ode-oracle")


# The Dormand-Prince 5(4) pair (Dormand and Prince, J. Comput. Appl. Math.
# 6 (1980) 19-26): nodes C, stage weights A, fifth-order weights B, the
# weights E of the difference to the embedded fourth-order solution, and
# P, the fourth-order dense output (Shampine, Math. Comp. 46 (1986)). The
# values, and the step control below, are those of scipy.integrate's
# RK45, so the oracle takes the steps solve_ivp(method="RK45") takes.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# Step-size control: a new step is SAFETY * err^(-1/5) times the last,
# within [MIN_FACTOR, MAX_FACTOR], and never larger after a rejection.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dormand_prince(rhs, y, grid):
    """The states y(t) at each time of the grid, for y' = rhs(t, y) with
    y(0) = y: Dormand-Prince steps with an error per step of at most
    ORACLE_TOL (relative and absolute, RMS over the components), the
    first step chosen as in Hairer, Norsett and Wanner, *Solving ODEs I*,
    section II.4, and the grid points inside each step taken from its
    dense output."""
    t, t_end, tol = 0.0, grid[-1], ORACLE_TOL
    out = np.empty((grid.size, y.size), dtype=complex)
    out[0] = y
    f = rhs(t, y)
    h_abs = _initial_step(rhs, y, f, t_end)
    stages = np.empty((7, y.size), dtype=complex)
    emitted = 1
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    f"ODE oracle step size fell below ten times the float spacing "
                    f"at t={t:g} of {t_end:g}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            stages[0] = f
            for s in range(1, 6):
                stages[s] = rhs(t + _C[s] * h, y + np.dot(stages[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(stages[:-1].T, _B)
            f_new = stages[6] = rhs(t + h, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error = _rms(np.dot(stages.T, _E) * h / scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR,
                                                            _SAFETY * error ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.2)
            rejected = True
        end = np.searchsorted(grid, t_new, side="right")
        if end > emitted:
            x = (grid[emitted:end] - t) / h
            powers = np.cumprod(np.tile(x, (4, 1)), axis=0)
            out[emitted:end] = (h * np.dot(np.dot(stages.T, _P), powers) + y[:, None]).T
            emitted = end
        t, y, f = t_new, y_new, f_new
    return out


def _initial_step(rhs, y, f, t_end):
    """The first step size (Hairer, Norsett and Wanner, section II.4):
    one extra evaluation of rhs, at the end of a trial Euler step."""
    if t_end == 0.0:
        return 0.0
    scale = ORACLE_TOL + np.abs(y) * ORACLE_TOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((rhs(h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def fedorov_residual(g, alpha, grid):
    """How badly exp(B(t)) alpha fails the master equation on the grid.

    Returns max_t || d/dt [exp(B(t)) alpha] - L(t) exp(B(t)) alpha ||
    normalized by ||alpha||. Since B'(t) = L(t), the derivative of
    exp(B(t)) is the Frechet derivative of exp at B(t) in the direction
    L(t), which `expm_frechet` returns exactly together with exp(B(t)).
    Zero at t = 0; near machine precision for admissible alpha; order
    one for inadmissible alpha.

    Blocks and row blocks as in :func:`closed_form_blocks`, with four
    stacks per point of a row block. The group of one-coordinate blocks
    adds nothing and is skipped: there the derivative of exp(Gamma(t)) is
    gamma(t) exp(Gamma(t)) exactly, so its residual vanishes.
    """
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    norm_alpha = float(np.linalg.norm(alpha))
    if norm_alpha == 0.0:
        return 0.0
    integral, rates = integral_table(g, grid), rate_table(g, grid)
    squares = np.zeros(grid.size)
    blocks = _row_blocks(g, grid.size, frechet=True)
    for coords, terms in g.groups:
        if coords.shape[1] == 1:
            continue
        a = alpha[coords][..., None]
        for rows in blocks:
            gen = np.tensordot(rates[rows], terms, axes=1)
            flow, derivative = expm_frechet(np.tensordot(integral[rows], terms, axes=1), gen)
            residual = derivative @ a - gen @ (flow @ a)
            squares[rows] += np.sum(residual.real ** 2 + residual.imag ** 2, axis=(1, 2, 3))
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
