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

Only :func:`ode_oracle` uses `scipy.integrate`, and it imports it when
called: `solve` and the admissibility gate never integrate, and
scipy.integrate was the most expensive import of the package (about
0.12 s under `python -X importtime` on a 2-CPU x86-64 host).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NonFiniteError, StepSizeUnderflowError
from .linalg import expm, expm_frechet, unvec, vec
from .model import generator_at, integral_at

__all__ = [
    "Trajectory", "propagate_closed_form", "ode_oracle",
    "fedorov_residual", "compare", "trace_distance",
]

ORACLE_TOL = 1e-10
# The cascade4 built-in takes about 2e3 evaluations on [0, 20] and 3.5e4
# on [0, 8000].
ORACLE_MAX_RHS_CALLS = 100_000


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


def propagate_closed_form(g, rho0, grid):
    """Evaluate rho(t) = unvec(exp(B(t)) vec(rho0)) on the grid.

    The formula is applied as written even for initial states outside the
    admissible subspace (callers use that for negative controls); it is a
    solution of the master equation only on the subspace.
    """
    grid = _check_grid(grid)
    d = g.dim
    v0 = vec(np.asarray(rho0, dtype=complex))
    states = np.empty((grid.size, d, d), dtype=complex)
    for i, t in enumerate(grid):
        states[i] = unvec(expm(integral_at(g, t)) @ v0, d)
    if not np.all(np.isfinite(states)):
        raise NonFiniteError("closed-form propagation produced non-finite entries")
    return Trajectory(times=grid, states=states, method="closed-form")


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
    states = np.empty((grid.size, d, d), dtype=complex)
    for i in range(grid.size):
        states[i] = unvec(result.y[:, i], d)
    return Trajectory(times=grid, states=states, method="ode-oracle")


def fedorov_residual(g, alpha, grid):
    """How badly exp(B(t)) alpha fails the master equation on the grid.

    Returns max_t || d/dt [exp(B(t)) alpha] - L(t) exp(B(t)) alpha ||
    normalized by ||alpha||. Since B'(t) = L(t), the derivative of
    exp(B(t)) is the Frechet derivative of exp at B(t) in the direction
    L(t), which `expm_frechet` returns exactly together with exp(B(t)).
    Zero at t = 0; near machine precision for admissible alpha; order
    one for inadmissible alpha.
    """
    grid = _check_grid(grid)
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    norm_alpha = float(np.linalg.norm(alpha))
    if norm_alpha == 0.0:
        return 0.0
    worst = 0.0
    for t in grid:
        gen = generator_at(g, t)
        flow, derivative = expm_frechet(integral_at(g, t), gen)
        residual = derivative @ alpha - gen @ (flow @ alpha)
        worst = max(worst, float(np.linalg.norm(residual)) / norm_alpha)
    return worst


def trace_distance(rho, sigma):
    """(1/2) ||rho - sigma||_1, the sum of singular values of the difference."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * float(np.linalg.svd(diff, compute_uv=False).sum())


def compare(a, b):
    """Largest trace distance between two trajectories on the same grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatchError("trajectories are on different time grids")
    return max(trace_distance(a.states[i], b.states[i])
               for i in range(a.times.size))
