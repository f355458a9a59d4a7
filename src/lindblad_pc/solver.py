"""State propagation: closed form exp(B(t)) and the brute-force oracle.

The closed form unvec(exp(B(t)) vec(rho0)) is an exact solution of the
master equation exactly when vec(rho0) lies in the partially commutative
subspace (or when the generator satisfies one of the global
commutativity criteria). The oracle integrates the vectorized linear ODE
with an adaptive Runge-Kutta pair, one evaluation of the dense generator
per right-hand side, and knows nothing about matrix exponentials or
commutativity, so agreement between the two is a genuine
cross-check rather than a tautology. The flow ("Fedorov") residual
certifies the closed form directly: it inserts exp(B(t)) alpha into the
master equation, with the time derivative taken exactly from the Frechet
derivative of the matrix exponential.

The closed form and the residual work block by block (see
:mod:`lindblad_pc.model`): B(t) and L(t) vanish between the generator's
invariant blocks, so exp(B(t)) is the direct sum of the exponentials of
the blocks. The coefficients of B(t) on the drift and on each
dissipator, [t, Gamma_k(t)], are tabulated over the grid, and for the
residual those of L(t), [1, gamma_k(t)]. The c blocks of each size b
make one (points, c, b, b) stack per chunk of grid points, as many as
keep it within STACK_BYTES: through `expm` for the closed form (np.exp
of the diagonal when b = 1), and through `expm_frechet` for the
residual, which skips b = 1, where it vanishes. The oracle keeps the
dense mu x mu generator_at: it shares no code with the blocks, so
`verify` still tests them against an integration that does not assume
them.

The oracle is the Dormand-Prince 5(4) pair (Dormand and Prince, J.
Comput. Appl. Math. 6 (1980) 19-26) with the coefficients, step control
and dense output of scipy.integrate's RK45, written out here so that
`verify` needs no scipy: it takes the steps solve_ivp(method="RK45")
takes at rtol = atol = ORACLE_TOL. Neither it nor the closed form
imports scipy; only `expm_frechet` does, for a block larger than
`linalg.FRECHET_DOUBLING_MAX`.
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
# Bytes per stacked exponential: a chunk takes as many grid points as
# keep the b x b stacks of one block size in the closed form, and the
# four b x b (or one 2b x 2b) stacks of the residual, within STACK_BYTES
# each; expm adds an output of the same size (none for the doubled
# matrix, which it overwrites) and scratch that does not grow with the
# stack (see linalg.SLAB_BYTES). A fully coupled generator at d = 16
# (one block, b = 256) gets 8 points in the closed form and 2 in the
# residual.
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


def _chunks(count, entries):
    """Slices that cover range(count), each with as many points (at least
    one) as fit in STACK_BYTES at `entries` complex numbers per point."""
    step = max(1, STACK_BYTES // (16 * entries))
    return [slice(start, start + step) for start in range(0, count, step)]


def _blocks(g):
    """The invariant blocks grouped by size b, smallest first: for the c
    blocks of each size, their coordinates, shape (c, b), and their
    submatrices in the drift and each dissipator, shape (1 + K, c, b, b)."""
    terms = [g.drift] + [part.matrix for part in g.parts]
    groups = [np.array([b for b in g.blocks if b.size == size])
              for size in sorted({b.size for b in g.blocks})]
    return [(c, np.array([m[c[:, :, None], c[:, None, :]] for m in terms])) for c in groups]


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
    table = _integral_table(g, grid)
    out = np.empty((grid.size, g.mu), dtype=complex)
    for coords, terms in _blocks(g):
        v = v0[coords][:, None, :]
        for rows in _chunks(grid.size, terms[0].size):
            # a sum of products, not matmul, rounds exp(x) * v of a 1 x 1 block
            # as np.exp did; one expression frees each stack before the next
            out[rows, coords] = np.sum(expm(np.tensordot(table[rows], terms, axes=1)) * v,
                                       axis=-1)
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("closed-form propagation produced non-finite entries")
    return Trajectory(times=grid, states=unvec(out, g.dim), method="closed-form")


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

    Blocks and chunks as in :func:`propagate_closed_form`. The group of
    one-coordinate blocks adds nothing and is skipped: there the
    derivative of exp(Gamma(t)) is gamma(t) exp(Gamma(t)) exactly, so its
    residual vanishes.
    """
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    norm_alpha = float(np.linalg.norm(alpha))
    if norm_alpha == 0.0:
        return 0.0
    integral, rates = _integral_table(g, grid), _rate_table(g, grid)
    squares = np.zeros(grid.size)
    for coords, terms in _blocks(g):
        if coords.shape[1] == 1:
            continue
        a = alpha[coords][..., None]
        for rows in _chunks(grid.size, 4 * terms[0].size):
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
