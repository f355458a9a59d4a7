"""State propagation: closed form exp(B(t)) and the brute-force oracle.

The closed form unvec(exp(B(t)) vec(rho0)) is an exact solution of the
master equation exactly when vec(rho0) lies in the partially commutative
subspace (or when the generator satisfies one of the global
commutativity criteria). The oracle integrates the vectorized linear ODE
with an adaptive Runge-Kutta pair, applying L(t) to the state at each
stage, and knows nothing about matrix exponentials or commutativity, so
agreement between the two is a genuine cross-check rather than a
tautology. The flow ("Fedorov") residual
certifies the closed form directly: it inserts exp(B(t)) alpha into the
master equation, with the time derivative taken exactly from the Frechet
derivative of the matrix exponential. All three refuse a grid that ends past
`g.window`, where `model.assemble` checked and integrated the rates.

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
(points, c, b, b) stack per row block, through `expm`, or through
`expm_frechet` where the residual is wanted and b > 1 (at b = 1 the
residual vanishes, and such a block takes np.exp of its entry either
way); those cut each stack into slabs of their own working set. So no
pass holds more than about two slabs of arrays at a time, whatever the
number of grid points, and a 64 x 64 block still takes a few points per
row block, where one slab of `expm` holds a single complex slice (two
real ones). Each point's state does not depend on the block it falls in.

A group's stacks take the dtype of its entries (the dtype rule of
:mod:`lindblad_pc.model`): a real group, such as the populations of a
level-transition model, is exponentiated and certified in float64. Only
the closed form's products with the complex initial vector are complex:
the certificate multiplies its real stacks by the vector's real and
imaginary parts as one real right-hand side. A stack counts its itemsize
in the row blocks' budget, so a real group's row blocks hold more points.

Two callers consume the closed form so, one row block at a time. The
CLI's `solve` reads `closed_form_blocks`, through `expm`.
`verify` reads `flow_blocks` and `oracle_blocks` side by side in one
pass over the grid: per row block, one `expm_frechet` per group gives
both exp(B(t)), and so the states, and L(B(t), L(t)), and so the
residual, where three passes made the states with `expm` and then
exponentiated B(t) again for the residual; the oracle then yields its
dense output on the same points, and the caller keeps only the largest
distance and residual. The pair's exp(B(t)) is not bit for bit `expm`'s
(it takes its degree from ||B(t)||_1 alone and sets no exact diagonal on
triangular blocks), so `verify`'s states agree with `solve`'s to within
`Trajectory.rounding`, and exactly on the one-coordinate blocks.
`propagate_closed_form`, `ode_oracle` and `fedorov_residual` fill the
whole trajectory, or take the largest residual, from the same row
blocks. At the grid bound of the CLI (`cli.MAX_GRID_ENTRIES`, v3 at
466,033 points; 2-CPU x86-64 host) a `verify` process peaks at 73 MB
resident, against 247 MB for three passes over whole trajectories and
106 MB for `solve`, which keeps its CSV text.

The oracle applies L(t) from the generator's table of nonzero entries
(`rows`, `cols`, `values`), never from the blocks: it shares no code
with them, so `verify` still tests them against an integration that
does not assume them. It sorts the entries by row once per run; per
step attempt it takes one rate table over the step's nodes, times
`values`, and each stage is then one weighted sum per row of the
state's entries. It steps with the DOP853 pair of Hairer, Norsett and
Wanner (*Solving ODEs I*, sections II.5 and II.10), written out in
:mod:`lindblad_pc.dop853` so that `verify` needs no scipy: it takes the
steps solve_ivp(method="DOP853") takes at rtol = atol = ORACLE_TOL, and
makes as many evaluations of the right-hand side
(`Trajectory.rhs_calls`). `oracle_blocks` imports that module on its
first call, so `solve` never compiles the stepper and its coefficient
literals (2.2 ms of a process without a bytecode cache). Neither the
oracle, nor the closed form, nor the residual imports scipy: `expm` and
`expm_frechet` are numpy code in :mod:`lindblad_pc.exponential`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NonFiniteError, StepSizeUnderflowError
from . import linalg
from .exponential import expm, expm_frechet
from .linalg import unvec, vec
from .model import _check_window, integral_table, rate_table
# generator_at and integral_at are not called here, but perfbench's tracer
# wraps the names in this module, so they stay bound.
from .model import generator_at, integral_at  # noqa: F401

__all__ = [
    "Trajectory", "closed_form_blocks", "propagate_closed_form", "flow_blocks",
    "oracle_blocks", "ode_oracle", "fedorov_residual", "compare", "trace_distance",
]

ORACLE_TOL = 1e-10
# The cascade4 built-in takes about 2.1e3-2.5e3 evaluations on [0, 20]
# and 5.0e4-6.5e4 on [0, 8000] (400 points, admissible initial states
# other than the ground state).
ORACLE_MAX_RHS_CALLS = 100_000


class Trajectory(NamedTuple):
    """Density matrices on a time grid starting at t = 0."""

    times: np.ndarray   # shape (n,), strictly increasing, times[0] == 0
    states: np.ndarray  # shape (n, d, d)
    # shape (n,): a bound on the rounding error of each entry of each
    # state, or None when not known (the oracle's error is truncation)
    rounding: np.ndarray | None = None
    # the oracle's number of right-hand-side evaluations; None for the
    # closed form
    rhs_calls: int | None = None

    @property
    def dim(self):
        return self.states.shape[1]


def _check_grid(g, grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a 1-d array")
    if grid[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("time grid must be strictly increasing")
    _check_window(g, grid[-1])
    return grid


def _row_blocks(g, count, frechet=False):
    """Slices that cover range(count), a grid of count points, each with
    as many points (at least one) as keep a row block's own arrays within
    one slab of :mod:`lindblad_pc.linalg` (SLAB_BYTES). A row block of the
    closed form (`closed_form_blocks`) holds its states and, for its
    largest group, three (points, c, b, b) stacks: B(t) and exp(B(t)), of
    the group's dtype, and their product with vec(rho0), complex. One of
    `verify`'s one pass (frechet=True:
    `flow_blocks` and `oracle_blocks` side by side) holds up to six arrays
    of states: the closed form's and the oracle's, each as vectors and as
    d x d matrices, and the last row block's two trajectories, which the
    caller keeps until it has the next pair (`compare`'s difference comes
    after those go); and, for its largest group, four stacks of its dtype
    where b > 1 (A, E, exp(A) and L(A, E)) and the closed form's three
    where b = 1. States are complex; a stack counts its group's itemsize.
    `expm` and `expm_frechet` cut each stack into slabs of their own
    working set."""
    states = 6 if frechet else 1
    largest = max((coords.shape[0] * coords.shape[1] ** 2
                   * (4 * terms.itemsize if frechet and coords.shape[1] > 1
                      else 2 * terms.itemsize + 16)
                   for coords, terms in g.groups), default=0)
    return linalg._row_slices(count, 16 * states * g.mu + largest)


def _propagate(g, alpha, grid, frechet):
    """exp(B(t)) alpha on the grid, one (Trajectory, squares) pair per row
    block of `_row_blocks(g, grid.size, frechet)`: squares holds, at each
    point, the squared norm of the flow residual when `frechet` is true
    (see :func:`fedorov_residual`) and zeros when it is not. The group of
    one-coordinate blocks goes through `expm` either way, and with
    `frechet` each other group through one `expm_frechet`, whose exp(B(t))
    gives the states. Raises NonFiniteError at the first block with a
    non-finite state."""
    grid = _check_grid(g, grid)
    table = integral_table(g, grid)
    rates = rate_table(g, grid) if frechet else None
    norms = 0.0  # the largest 1-norm over the blocks of the drift and each dissipator
    for _, terms in g.groups:
        norms = np.maximum(norms, np.abs(terms).sum(axis=-2).max(axis=(-1, -2)))
    # The forward error of a scaling-and-squaring exponential grows like
    # eps ||B(t)||, and ||B(t)||_1 <= sum_k |Gamma_k(t)| norms_k. Twice
    # that: the noise eigenvalues of pure states under random jump-free
    # models (d = 2..5, windows up to 1e5) stayed below 0.83 of
    # d eps (1 + that bound).
    rounding = 2 * np.finfo(float).eps * (1 + np.abs(table) @ norms)
    for rows in _row_blocks(g, grid.size, frechet):
        out = np.empty((rows.stop - rows.start, g.mu), dtype=complex)
        squares = np.zeros(rows.stop - rows.start)
        for coords, terms in g.groups:
            if frechet and coords.shape[1] > 1:
                out[:, coords], group_squares = _flow_and_residual(
                    np.tensordot(table[rows], terms, axes=1),
                    np.tensordot(rates[rows], terms, axes=1), alpha[coords])
                squares += group_squares
            else:
                # a sum of products, not matmul, rounds exp(x) * v of a 1 x 1 block
                # as np.exp did; one expression frees each stack before the next
                out[:, coords] = np.sum(expm(np.tensordot(table[rows], terms, axes=1))
                                        * alpha[coords][:, None, :], axis=-1)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("closed-form propagation produced non-finite entries")
        yield Trajectory(times=grid[rows], states=unvec(out, g.dim),
                         rounding=rounding[rows]), squares


def _flow_and_residual(integral, rates, alpha):
    """For the (points, c, b, b) stacks B(t) and L(t) of one group and its
    share alpha (c, b) of the initial vector: exp(B(t)) alpha, shape
    (points, c, b), and the squared norm at each point of the flow
    residual L(B(t), L(t)) alpha - L(t) exp(B(t)) alpha, from one
    `expm_frechet` in the stacks' dtype (real for a real group).

    A real group's stacks multiply one real right-hand side, alpha's real
    and imaginary parts side by side (c, b, 2): the complex alpha would
    cast each stack to a complex temporary, outside the row block's
    budget (`_row_blocks`)."""
    flow, derivative = expm_frechet(integral, rates)
    real = np.isrealobj(flow)
    rhs = np.stack([alpha.real, alpha.imag], -1) if real else alpha[..., None]
    states = flow @ rhs
    residual = derivative @ rhs - rates @ states
    if real:
        states = states.view(complex)  # each (Re, Im) pair, contiguous, as one number
    return states[..., 0], np.sum(linalg._abs2(residual), axis=(1, 2, 3))


def _whole(g, grid, blocks):
    """The Trajectory on the whole grid from the row blocks that cover it,
    filled in block by block: their states and rounding bounds (None when
    theirs are), and the last block's rhs_calls."""
    grid = _check_grid(g, grid)
    states = np.empty((grid.size, g.dim, g.dim), dtype=complex)
    rounding = np.empty(grid.size)
    start = 0
    for block in blocks:
        rows = slice(start, start + block.times.size)
        states[rows] = block.states
        if block.rounding is not None:
            rounding[rows] = block.rounding
        start = rows.stop
    return block._replace(times=grid, states=states,
                          rounding=None if block.rounding is None else rounding)


def closed_form_blocks(g, rho0, grid):
    """rho(t) = unvec(exp(B(t)) vec(rho0)) on the grid, one Trajectory of
    consecutive grid points per row block (see the module docstring).
    Raises NonFiniteError at the first block with a non-finite state.

    The formula is applied as written even for initial states outside the
    admissible subspace (callers use that for negative controls); it is a
    solution of the master equation only on the subspace.
    """
    for block, _ in _propagate(g, vec(np.asarray(rho0, dtype=complex)), grid, frechet=False):
        yield block


def propagate_closed_form(g, rho0, grid):
    """The whole trajectory of :func:`closed_form_blocks`, filled in block
    by block."""
    return _whole(g, grid, closed_form_blocks(g, rho0, grid))


def flow_blocks(g, alpha, grid):
    """The closed form and its certificate in one pass, for `verify`: per
    row block of `_row_blocks(frechet=True)`, the Trajectory
    unvec(exp(B(t)) alpha) and the largest flow residual of its points
    over ||alpha|| (see :func:`fedorov_residual`; 0 when alpha is 0).

    Each group with b > 1 takes exp(B(t)) from the `expm_frechet` that
    gives its residual, so its states agree with those of
    :func:`closed_form_blocks` to within the Trajectory's rounding bound,
    not bit for bit; the one-coordinate group is exponentiated as there,
    and its coordinates are equal.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(-1)
    norm_alpha = float(np.linalg.norm(alpha))
    for block, squares in _propagate(g, alpha, grid, frechet=True):
        yield block, (float(np.sqrt(squares.max())) / norm_alpha if norm_alpha else 0.0)


def oracle_blocks(g, rho0, grid):
    """The oracle's trajectory (see :func:`ode_oracle`) one row block of
    `_row_blocks(frechet=True)` at a time, each yielded once the
    integration has passed its last point, with the count of
    right-hand-side evaluations made so far as its `rhs_calls`."""
    grid = _check_grid(g, grid)
    v0 = vec(np.asarray(rho0, dtype=complex))
    # a zero entry on the diagonal of each row that has none, so that
    # every row of L(t) y is one sum over a run of the sorted entries
    empty = np.flatnonzero(np.bincount(g.rows, minlength=g.mu) == 0)
    rows = np.concatenate([g.rows, empty])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([g.cols, empty])[order]
    values = np.hstack([g.values, np.zeros((len(g.values), empty.size))])[:, order]
    starts = np.searchsorted(rows[order], np.arange(g.mu))
    calls = 0

    def generator(times):
        """(i, y) -> L(times[i]) y."""
        weights = rate_table(g, times) @ values

        def apply(i, y):
            nonlocal calls
            calls += 1
            if calls > ORACLE_MAX_RHS_CALLS:
                raise StepSizeUnderflowError(
                    f"ODE oracle gave up after {ORACLE_MAX_RHS_CALLS} right-hand-side "
                    f"evaluations at t={times[i]:g} of {grid[-1]:g}")
            return np.add.reduceat(weights[i] * y[cols], starts)

        return apply

    from . import dop853

    blocks = _row_blocks(g, grid.size, frechet=True)
    for rows, states in zip(blocks, dop853._dop853(generator, v0, grid, blocks, ORACLE_TOL)):
        yield Trajectory(times=grid[rows], states=unvec(states, g.dim), rhs_calls=calls)


def ode_oracle(g, rho0, grid):
    """Integrate vec(rho)' = L(t) vec(rho) with the adaptive DOP853 pair
    (see :mod:`lindblad_pc.dop853`): the whole trajectory of
    :func:`oracle_blocks`, filled in block by block.

    Local error is kept at ORACLE_TOL; the solution is evaluated on the grid
    points through the pair's dense output. L(t) y is applied from the
    generator's table of nonzero entries, sorted by row: per step attempt,
    one rate table [1, gamma_k(t)] over the step's sixteen nodes times
    `values` weighs the entries at every node, and a stage sums each row's
    weighted entries of y. The count of evaluations is the trajectory's
    `rhs_calls`. Raises StepSizeUnderflowError, with the time reached, once
    the integrator asks for more than ORACLE_MAX_RHS_CALLS evaluations of
    the right-hand side (a stiff or fast-growing rate), or when the step it
    needs falls below ten times the float spacing at the current time.
    """
    return _whole(g, grid, oracle_blocks(g, rho0, grid))


def fedorov_residual(g, alpha, grid):
    """How badly exp(B(t)) alpha fails the master equation on the grid.

    Returns max_t || d/dt [exp(B(t)) alpha] - L(t) exp(B(t)) alpha ||
    normalized by ||alpha||. Since B'(t) = L(t), the derivative of
    exp(B(t)) is the Frechet derivative of exp at B(t) in the direction
    L(t), which `expm_frechet` returns exactly together with exp(B(t)).
    Zero at t = 0; near machine precision for admissible alpha; order
    one for inadmissible alpha.

    The largest of the residuals of :func:`flow_blocks`, so equal to the
    one `verify` prints. The group of one-coordinate blocks adds nothing:
    there the derivative of exp(Gamma(t)) is gamma(t) exp(Gamma(t))
    exactly, so its residual vanishes.
    """
    return float(np.max([residual for _, residual in flow_blocks(g, alpha, grid)]))


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
