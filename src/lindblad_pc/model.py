"""Physical models and their vectorized generators.

A model is a Hamiltonian plus jump operators with time-dependent rates.
Vectorizing the master equation turns it into a linear ODE on C^(d*d)
whose generator splits as

    L(t) = L_H + sum_k gamma_k(t) * L_k

with a constant drift L_H = i (H^T kron 1 - 1 kron H) and one constant
dissipator L_k per jump. Because only the scalar rates depend on time,
the exact integral B(t) = int_0^t L(tau) dtau is assembled from scalar
antiderivatives; no matrix-valued quadrature is ever needed.

`builtin` and the model-file loader only build a model (each refusing a
parameter that is not a finite number); `assemble` is where it is
checked, once per run: a positive finite t_max, the shapes, a Hermitian
H, and every rate finite and nonnegative on the run's window [0,
max(HORIZON, t_max)], which the generator keeps as `g.window`. The
antiderivatives are built on that window, the commutativity sample times
span it, and the solver refuses a grid that ends past it.

`assemble` stores no part as a d^2 x d^2 matrix, but the values of the
entries of L_H and every L_k (see `_entries`) on their union nonzero
pattern: one (1 + K, nnz) table. `generator_at` and `integral_at` scatter
one row of `rate_table` or `integral_table` times that table into a zero
mu x mu matrix, so the coefficients [1, gamma_k] and [t, Gamma_k] have one
formula each. No run calls them (the oracle applies the table itself);
they serve the tests' dense references and perfbench's tracer.

The connected components of that pattern are the generator's invariant
coordinate blocks. L(t), B(t) and exp(B(t)) vanish between blocks at
every t, so each block can be propagated, and tested for admissibility,
on its own: `assemble` stacks the blocks of each size (`groups`), and
`integral_table` and `rate_table` give the coefficients of B(t) and
L(t) on a grid of times, for `solver` and `commutativity` alike. Both
go through their times in runs of consecutive points cut to one memory
budget, `linalg.SLAB_BYTES`. `integral_table` refuses a time past
`g.window`, where the quadrature would extrapolate; `rate_table` does
not, since the oracle's step nodes may round past the grid's end. A
level-transition model with a diagonal H has one d x d block of
populations, real (the drift vanishes on populations, and real jump
operators give real entries), and d^2 - d blocks of one coherence each,
complex where the two levels' energies differ; a fully coupled generator
is a single block of size d^2.

The dtype rule: `assemble` stores a group's entries as float64 when
every imaginary part is exactly zero, and as complex128 otherwise,
decided from the data once per run. The coefficients [t, Gamma_k(t)] and
[1, gamma_k(t)] are real, so such a group's B(t) and L(t) are real, and
every stacked kernel keeps the dtype it is given: `exponential.expm` and
`expm_frechet`, the solver's propagation and flow certificate, and the
commutator chain, Gamma and power cap of `commutativity`. A real group
is thus exponentiated, certified and gated in real arithmetic, with the
numbers of the complex arithmetic up to rounding at a fraction of its
cost; the byte budgets count the stack's itemsize. Only the groups
follow the rule: the entry table `values` that the oracle reads stays
complex, and so do the states.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expr as _expr
from .errors import NonFiniteError, UnknownModelError
from .expr import Antiderivative, RateExpr, antiderivative, eval_expr, parse_rate_expr

__all__ = [
    "Jump", "LindbladModel", "GeneratorPart", "GeneratorDecomposition",
    "jump_operator", "assemble", "integral_table", "rate_table", "generator_at",
    "integral_at", "builtin", "builtin_names", "phase_state",
]

HERMITICITY_TOL = 1e-12

# A run to t_max has the window [0, max(HORIZON, t_max)]; `assemble`
# samples each rate there at RATE_SAMPLE_COUNT points per HORIZON time
# units, expr.RATE_CHUNK points per evaluation.
HORIZON = 20.0
RATE_SAMPLE_COUNT = 81
# The largest t_max the CLI accepts: the rate check of a run to 1e6 takes
# 4e6 samples per rate.
MAX_T_MAX = 1e6


def jump_operator(d, target, source):
    """E_ij = |i><j|: the d x d operator moving level `source` to `target`.

    Levels are 1-based.
    """
    if not (1 <= target <= d and 1 <= source <= d):
        raise ValueError(f"levels must lie in 1..{d}, got ({target}, {source})")
    e = np.zeros((d, d), dtype=complex)
    e[target - 1, source - 1] = 1.0
    return e


class Jump(NamedTuple):
    """A jump operator with its time-dependent rate.

    `source` and `target` are set when the operator is a plain level
    transition E_ij; they are presentation metadata only.
    """

    operator: np.ndarray
    rate: RateExpr
    source: int | None = None
    target: int | None = None


class LindbladModel:
    """d-level system: Hermitian Hamiltonian plus jumps with scalar rates.
    Its fields can be reassigned; `jumps` defaults to a new empty list."""

    __slots__ = ("dim", "hamiltonian", "jumps")

    def __init__(self, dim, hamiltonian, jumps=None):
        self.dim = dim
        self.hamiltonian = hamiltonian
        self.jumps = [] if jumps is None else jumps

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"LindbladModel({fields})"


def _check_rate(rate, window):
    count = math.ceil((RATE_SAMPLE_COUNT - 1) * window / HORIZON) + 1
    for start in range(0, count, _expr.RATE_CHUNK):
        times = window * np.arange(start, min(start + _expr.RATE_CHUNK, count)) / (count - 1)
        try:
            values, non_finite = eval_expr(rate, times), None
        except NonFiniteError:
            non_finite = _first_non_finite(rate, times)
            values = eval_expr(rate, times[:non_finite])
        negative = np.flatnonzero(values < -1e-12)
        if negative.size:
            raise ValueError(
                f"rate {_expr.format_expr(rate)!r} is negative at t={times[negative[0]]:g}; "
                "only nonnegative rates are supported")
        if non_finite is not None:
            raise ValueError(f"rate {_expr.format_expr(rate)!r} is not finite "
                             f"at t={times[non_finite]:g}")


def _first_non_finite(rate, times):
    """The index of the first of `times` at which `rate` does not
    evaluate. A prefix of the array fails exactly when it holds such a
    time, so bisect on it."""
    good, bad = 0, times.size  # times[:good] evaluates, times[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            eval_expr(rate, times[:mid])
            good = mid
        except NonFiniteError:
            bad = mid
    return bad - 1


class GeneratorPart(NamedTuple):
    rate: RateExpr            # gamma_k(t)
    integral: Antiderivative  # Gamma_k(t) = int_0^t gamma_k


class GeneratorDecomposition(NamedTuple):
    """Drift plus rate-weighted constant dissipators, and the invariant
    coordinate blocks they share; see module docstring."""

    dim: int
    parts: tuple[GeneratorPart, ...]
    rows: np.ndarray    # (nnz,) coordinates of the union nonzero pattern
    cols: np.ndarray
    values: np.ndarray  # (1 + K, nnz): the drift's entries, then each part's
    # Per block size b, smallest first: the sorted 0-based coordinates of
    # its c blocks, in the order of their first coordinates, shape (c, b),
    # and their entries as in `values`, shape (1 + K, c, b, b): float64
    # when every imaginary part is exactly zero, complex128 otherwise.
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    window: float  # the run's window [0, window]: rates checked and integrated there

    @property
    def mu(self):
        """Ambient dimension of the vectorized state space."""
        return self.dim * self.dim


def assemble(model, t_max=HORIZON):
    """Check the model on the window of a run to t_max (see the module
    docstring) and build its vectorized generator decomposition there."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be {'positive' if t_max <= 0 else 'finite'}, got {t_max}")
    window = max(HORIZON, t_max)
    d = model.dim
    h = np.asarray(model.hamiltonian, dtype=complex)
    if h.shape != (d, d):
        raise ValueError(f"Hamiltonian shape {h.shape} for dimension {d}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("Hamiltonian is not Hermitian")
    operators = [np.asarray(jump.operator, dtype=complex) for jump in model.jumps]
    for k, (jump, v) in enumerate(zip(model.jumps, operators)):
        if v.shape != (d, d):
            raise ValueError(f"jump operator {k} has shape {v.shape}")
        _check_rate(jump.rate, window)
    eye = np.eye(d, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = [v.conj().T @ v for v in operators]
        # where the formulas of `_entries` can be nonzero, from the d x d patterns
        pattern = np.kron(h.T != 0, eye) | np.kron(eye, h != 0)
        square = np.zeros_like(eye)
        for v, w in zip(operators, squares):
            pattern |= np.kron(v != 0, v != 0)
            square |= w != 0
        rows, cols = np.nonzero(pattern | np.kron(eye, square) | np.kron(square.T, eye))
        values = _entries(h, operators, squares, rows, cols)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("the drift or a dissipator matrix overflows")
    keep = np.any(values != 0, axis=0)  # entries that cancel, as a dephasing E_kk's
    rows, cols, values = rows[keep], cols[keep], values[:, keep]
    blocks = _invariant_blocks(d * d, rows, cols)
    coords = [np.array([b for b in blocks if b.size == size])
              for size in sorted({b.size for b in blocks})]
    groups = []
    for c in coords:
        terms = _entries(h, operators, squares, c[:, :, None], c[:, None, :])
        groups.append((c, terms if terms.imag.any() else terms.real.copy()))
    parts = tuple(GeneratorPart(jump.rate, antiderivative(jump.rate, window))
                  for jump in model.jumps)
    return GeneratorDecomposition(dim=d, parts=parts, rows=rows, cols=cols, values=values,
                                  groups=tuple(groups), window=window)


def _entries(h, operators, squares, rows, cols):
    """The drift's and each dissipator's entries at (rows, cols), index
    arrays that broadcast together, stacked on a new first axis. For rho_ab
    at a + d b, rho_pq at p + d q and W = V^dag V, rounded as kron rounds:
        drift   i (H_qb delta_ap - delta_bq H_ap)
        jump V  conj(V_bq) V_ap - 1/2 delta_bq W_ap - 1/2 W_qb delta_ap"""
    (b, a), (q, p) = np.divmod(rows, h.shape[0]), np.divmod(cols, h.shape[0])
    ap, bq = a == p, b == q
    return np.array([1j * (h[q, b] * ap - bq * h[a, p]),
                     *(v[b, q].conj() * v[a, p] - 0.5 * (bq * w[a, p]) - 0.5 * (w[q, b] * ap)
                       for v, w in zip(operators, squares))])


def _invariant_blocks(mu, rows, cols):
    """Connected components of the graph on range(mu) with an edge between
    rows[i] and cols[i]: each a sorted array of 0-based coordinates, in the
    order of their first coordinates. Each coordinate points at a smaller
    one or at itself, a root. Each pass hooks every root to the smallest
    root across its edges, then jumps pointers until all point at roots;
    once a pass hooks nothing, each points at its component's smallest."""
    ends = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    label = np.arange(mu)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[ends[0]], label[ends[1]])
        while not np.array_equal(hooked, hooked[hooked]):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def _check_window(g, end):
    """Refuse a time `end` past g.window, where the rates were neither
    checked nor integrated."""
    if end > g.window:
        raise ValueError(f"time grid ends at t={end:g}, past the window "
                         f"[0, {g.window:g}] of the generator; assemble it for that t_max")


def integral_table(g, times):
    """[t, Gamma_k(t)]: one row per time, the coefficients of B(t) on the
    drift and each dissipator (one `values` call per antiderivative).
    Refuses a time past g.window."""
    times = np.asarray(times, dtype=float)
    _check_window(g, times.max(initial=0.0))
    return np.column_stack([times, *(part.integral.values(times) for part in g.parts)])


def rate_table(g, times):
    """[1, gamma_k(t)]: one row per time, the coefficients of L(t).

    Each column is what `eval_expr` gives for its rate, but every rate is
    evaluated under one floating-point check into the table, which is
    checked for finiteness once (the oracle takes a table per step
    attempt). On a failure each rate goes through `eval_expr` again, so
    the first that fails raises its NonFiniteError."""
    times = np.asarray(times, dtype=float).reshape(-1)
    table = np.empty((times.size, 1 + len(g.parts)))
    table[:, 0] = 1.0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            for k, part in enumerate(g.parts, start=1):
                table[:, k] = _expr._eval(part.rate, times)
        if np.isfinite(table).all():
            return table
    except FloatingPointError:
        pass
    for k, part in enumerate(g.parts, start=1):
        table[:, k] = eval_expr(part.rate, times)
    return table


def generator_at(g, t):
    """L(t) = L_H + sum_k gamma_k(t) L_k: the row of `rate_table` at t."""
    return _scatter(g, rate_table(g, [t])[0])


def integral_at(g, t):
    """B(t) = t L_H + sum_k Gamma_k(t) L_k: the row of `integral_table` at t."""
    return _scatter(g, integral_table(g, [t])[0])


def _scatter(g, coefficients):
    """The mu x mu matrix with these coefficients on the drift and each
    dissipator."""
    out = np.zeros((g.mu, g.mu), dtype=complex)
    out[g.rows, g.cols] = coefficients @ g.values
    return out


def phase_state(d, levels, phases=None):
    """Density matrix of the uniform superposition of `levels` (1-based)
    with the given relative phases.

    `phases` lists the phase of each level after the first (the first is
    the reference); defaults to all zeros. For example levels (1, 2) with
    phase phi gives entries 1/2 on the diagonal of levels 1 and 2 and
    rho_12 = exp(-i phi) / 2.
    """
    levels = list(levels)
    m = len(levels)
    if m < 1 or len(set(levels)) != m:
        raise ValueError("levels must be a nonempty list of distinct indices")
    if any(not (1 <= l <= d) for l in levels):
        raise ValueError(f"levels must lie in 1..{d}")
    phases = [0.0] + list(phases if phases is not None else [0.0] * (m - 1))
    if len(phases) != m:
        raise ValueError(f"expected {m - 1} relative phases, got {len(phases) - 1}")
    psi = np.zeros(d, dtype=complex)
    for level, phi in zip(levels, phases):
        psi[level - 1] = np.exp(1j * phi) / math.sqrt(m)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# The paper's three-level V, cascade and Lambda systems and its four-level
# cascade. Each name maps to (parameters, level energies, transitions):
# - the parameters with their defaults: each number is bound into every
#   rate, and lambda3's f1 and f2 are rate texts, "{f1}" in a transition;
# - the level energies from the parameters, ground or middle level at zero;
# - the level transitions as (source, target, rate text).

_BUILTINS = {
    "v3": ({"omega": 1.0, "eps1": 1.0, "eps3": 1.0},
           lambda p: [p["eps1"], 0.0, p["eps3"]],
           ((1, 2, "sin(omega*t)^2"), (3, 2, "cos(omega*t)^2"))),
    "cascade3": ({"omega": 1.0, "eps": 1.0},
                 lambda p: [-p["eps"], 0.0, p["eps"]],
                 ((3, 2, "sin(omega*t)^2"), (2, 1, "cos(omega*t)^2"))),
    "lambda3": ({"omega": 1.0, "eps1": 1.0, "eps3": 1.0, "f1": "sin(t)^2", "f2": "cos(t)^2"},
                lambda p: [-p["eps1"], 0.0, -p["eps3"]],
                ((2, 1, "{f1}"), (2, 3, "{f2}"))),
    "cascade4": ({"omega": 1.0, "eps1": 1.0, "eps2": 1.0},
                 lambda p: [-p["eps2"], -p["eps1"], p["eps1"], p["eps2"]],
                 ((4, 3, "exp(-omega*t)"), (3, 2, "sin(3*omega*t)^2"),
                  (2, 1, "sin(3*omega*t)^2"))),
}


def builtin_names():
    return sorted(_BUILTINS)


def builtin(name, params=None):
    """Construct a built-in model by name.

    Names: v3, cascade3, lambda3, cascade4. Numeric parameters (omega and
    the level energies) default to 1; lambda3 additionally accepts the
    rate expressions f1 and f2 as strings. Each numeric parameter is
    converted here, from a number or its text, and must be finite: this is
    the one check of a parameter, the CLI's `--params` included.
    """
    try:
        defaults, energies, transitions = _BUILTINS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(builtin_names())}") from None
    params = dict(params or {})
    p = {}
    for key, default in defaults.items():
        value = params.pop(key, default)
        if isinstance(default, str):
            p[key] = str(value)
            continue
        try:
            p[key] = float(value)
        except (TypeError, ValueError, OverflowError):
            p[key] = math.nan  # refused below, as a non-finite number is
        if not math.isfinite(p[key]):
            raise ValueError(f"params: {key!r} must be a finite number")
    if params:
        raise ValueError(f"unknown parameters {sorted(params)}; allowed: {list(defaults)}")
    numbers = {key: value for key, value in p.items() if not isinstance(value, str)}
    h = np.diag(energies(p)).astype(complex)
    jumps = [Jump(jump_operator(len(h), target, source),
                  parse_rate_expr(rate.format_map(p), numbers), source, target)
             for source, target, rate in transitions]
    return LindbladModel(len(h), h, jumps)
