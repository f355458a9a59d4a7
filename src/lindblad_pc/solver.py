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
row block, where one slab of `expm` holds a single slice. Each point's
state does not depend on the block it falls in.

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
state's entries. It is the DOP853 pair of Hairer, Norsett and Wanner
(*Solving ODEs I*, sections II.5 and II.10), eighth order with a
seventh-order dense output, with the coefficients, step control and
dense output of scipy.integrate's DOP853, written out here so that
`verify` needs no scipy: it takes the steps solve_ivp(method="DOP853")
takes at rtol = atol = ORACLE_TOL, and makes as many evaluations of the
right-hand side (`Trajectory.rhs_calls`). Neither it, nor the closed
form, nor the residual imports scipy: `expm` and `expm_frechet` are
numpy code in :mod:`lindblad_pc.linalg`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NonFiniteError, StepSizeUnderflowError
from . import linalg
from .linalg import expm, expm_frechet, unvec, vec
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
    largest group, three (points, c, b, b) stacks: B(t), exp(B(t)) and
    its product with vec(rho0). One of `verify`'s one pass (frechet=True:
    `flow_blocks` and `oracle_blocks` side by side) holds up to six arrays
    of states: the closed form's and the oracle's, each as vectors and as
    d x d matrices, and the last row block's two trajectories, which the
    caller keeps until it has the next pair (`compare`'s difference comes
    after those go); and, for its largest group, four stacks where b > 1
    (A, E, exp(A) and L(A, E)) and three where b = 1. `expm` and
    `expm_frechet` cut each stack into slabs of their own working set."""
    states = 6 if frechet else 1
    largest = max((coords.shape[0] * coords.shape[1] ** 2
                    * (4 if frechet and coords.shape[1] > 1 else 3)
                    for coords, _ in g.groups), default=0)
    return linalg._row_slices(count, 16 * (states * g.mu + largest))


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
    `expm_frechet`."""
    flow, derivative = expm_frechet(integral, rates)
    alpha = alpha[..., None]
    states = flow @ alpha
    residual = derivative @ alpha - rates @ states
    return states[..., 0], np.sum(residual.real ** 2 + residual.imag ** 2, axis=(1, 2, 3))


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

    blocks = _row_blocks(g, grid.size, frechet=True)
    for rows, states in zip(blocks, _dop853(generator, v0, grid, blocks)):
        yield Trajectory(times=grid[rows], states=unvec(states, g.dim), rhs_calls=calls)


def ode_oracle(g, rho0, grid):
    """Integrate vec(rho)' = L(t) vec(rho) with the adaptive DOP853 pair
    (see :func:`_dop853`): the whole trajectory of :func:`oracle_blocks`,
    filled in block by block.

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


# The Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett and Wanner,
# *Solving ODEs I*, sections II.5 and II.10), with the coefficients of
# scipy.integrate's DOP853 (scipy/integrate/_ivp/dop853_coefficients.py):
# the nodes C of the twelve stages, of the derivative at the step's end
# and of the three stages the dense output adds; row s - 1 of A weights
# stages 0..s-1 for stage s, and the row of stage 12 holds the
# eighth-order weights B; E5 weights the thirteen stages for the
# fifth-order error estimate, and B less BHH (at stages 0, 8 and 11) for
# the third-order one; D gives the last four coefficients of the
# seventh-order dense output. Kept as literals and made arrays on first
# use (`_dop853_tables`), so that a run without the oracle builds none.
_DOP853_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_DOP853_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
     3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_DOP853_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
_DOP853_BHH = (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_DOP853_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)
# Step-size control: a new step is SAFETY * err^(-1/8) times the last,
# within [MIN_FACTOR, MAX_FACTOR], and never larger after a rejection.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


@functools.cache
def _dop853_tables():
    """(C, A, E5, E3, D) as arrays, A as a 16 x 16 lower triangle. The
    weights are complex, as the stages are: np.dot would cast them on
    every call, to the same values."""
    a = np.zeros((16, 16))
    for s, row in enumerate(_DOP853_A, start=1):
        a[s, :s] = row
    e3 = np.append(a[12, :12], 0.0)
    e3[[0, 8, 11]] -= _DOP853_BHH
    return (np.array(_DOP853_C),
            *(np.asarray(w, dtype=complex) for w in (a, _DOP853_E5, e3, _DOP853_D)))


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(generator, y, grid, blocks):
    """The states y(t) on the grid, for y' = L(t) y with y(0) = y, where
    generator(times) returns (i, y) -> L(times[i]) y: one (points, y.size)
    array for each slice of `blocks`, consecutive slices that cover the
    grid, yielded once the steps have passed its last point. DOP853 steps
    with an error per step of at most ORACLE_TOL (relative and absolute,
    RMS over the components), the first step chosen as in Hairer, Norsett
    and Wanner, *Solving ODEs I*, section II.4, and the grid points up to
    each step's end taken from its dense output, grid[0] too, one slice at
    a time; each point's state does not depend on the slice it falls in.
    The steps, their error norm and the dense output are those of
    solve_ivp(method="DOP853") at rtol = atol = ORACLE_TOL."""
    c, a, e5, e3, d = _dop853_tables()
    t, t_end, tol = 0.0, grid[-1], ORACLE_TOL
    f = generator(np.zeros(1))(0, y)
    if t_end == 0.0:  # a grid of t = 0 alone takes no step
        yield y[None].copy()
        return
    h_abs = _initial_step(generator, y, f, t_end)
    stages = np.empty((16, y.size), dtype=complex)
    blocks = iter(blocks)
    rows = next(blocks)
    out = np.empty((rows.stop - rows.start, y.size), dtype=complex)
    emitted = 0
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
            rhs = generator(t + c * h)
            stages[0] = f
            for s in range(1, 12):
                stages[s] = rhs(s, y + np.dot(stages[:s].T, a[s, :s]) * h)
            y_new = y + h * np.dot(stages[:12].T, a[12, :12])
            f_new = stages[12] = rhs(12, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error = _error_norm(stages[:13], e5, e3, h, scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR,
                                                            _SAFETY * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.125)
            rejected = True
        end = np.searchsorted(grid, t_new, side="right")
        if end > emitted:
            for s in range(13, 16):
                stages[s] = rhs(s, y + np.dot(stages[:s].T, a[s, :s]) * h)
            delta = y_new - y
            coefficients = (delta, h * f - delta, 2 * delta - h * (f_new + f),
                            *(h * np.dot(d, stages)))
            while emitted < end:
                stop = min(end, rows.stop)
                x = ((grid[emitted:stop] - t) / h)[:, None]
                dense = np.zeros((stop - emitted, y.size), dtype=complex)
                for i, term in enumerate(reversed(coefficients)):
                    dense += term
                    dense *= x if i % 2 == 0 else 1 - x
                out[emitted - rows.start:stop - rows.start] = dense + y
                emitted = stop
                if stop == rows.stop:
                    yield out
                    if stop < grid.size:
                        rows = next(blocks)
                        out = np.empty((rows.stop - rows.start, y.size), dtype=complex)
        t, y, f = t_new, y_new, f_new


def _error_norm(stages, e5, e3, h, scale):
    """DOP853's error norm: the fifth-order estimate, damped where the
    third-order one is much smaller (Hairer, Norsett and Wanner, section
    II.10)."""
    err5 = np.linalg.norm(np.dot(stages.T, e5) / scale) ** 2
    err3 = np.linalg.norm(np.dot(stages.T, e3) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)


def _initial_step(generator, y, f, t_end):
    """The first step size (Hairer, Norsett and Wanner, section II.4):
    one extra evaluation of the right-hand side, at the end of a trial
    Euler step."""
    scale = ORACLE_TOL + np.abs(y) * ORACLE_TOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((generator(np.array([h0]))(0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


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
