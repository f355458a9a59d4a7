"""Solvability classification of time-dependent generators.

Three criteria are checked, in decreasing order of strength:

* functional commutativity, [L(t), L(s)] = 0 for all t, s;
* integral commutativity, [L(t), B(t)] = 0 with B(t) = int_0^t L;
* partial commutativity: the set of vectors alpha with
  [L(t), B(t)^n] alpha = 0 for all n forms a subspace M, and on M the
  closed form exp(B(t)) alpha solves the master equation even when the
  two global criteria fail.

M is computed as the kernel of a positive semidefinite operator

    Gamma(t) = sum_{n=1}^{cap} C_n(t)^dag C_n(t),
    C_n(t) = [L(t), B(t)^n] / ||B(t)^n||,

because the kernel of a sum of PSD terms R^dag R is exactly the
intersection of the individual kernels. Summing Gamma over several
sample times intersects the per-time subspaces.

Everything here works on the generator's invariant blocks (see
:mod:`lindblad_pc.model`; Baumgartner and Narnhofer, J. Phys. A 41
(2008) 395303). L(t) and B(t) vanish between blocks, so every C_n and
Gamma are block diagonal and M is the direct sum of the kernels of the
blocks of Gamma, which is how M is kept: a linalg.SubspaceBasis with the
generator's groups of blocks. A block of one coordinate commutes with
everything: its C_n vanish, so it gets no block of Gamma, is not
factored, and lies in M. `_commutator_chain` is the one routine that
builds the C_n: for each run of consecutive sample times and each n, one
(times, c, b, b) stack per group of c blocks of size b > 1. One pass over
the sample times gives Gamma and, from the norms of C_1 and L(t), the
integral criterion; one over a grid gives the re-check in `classify`.
Each run keeps the chain's whole working set within linalg.SLAB_BYTES.

The chain stops at the power cap: the largest numerical degree, less
one, of the minimal polynomial of a block of B(t) over the blocks and the
sample times. Past that degree each block's powers are linear
combinations of lower ones (Cayley-Hamilton on the block) and add no
constraints. Two choices keep every number that of the dense mu x mu
definition up to rounding. ||B(t)^n|| is the Frobenius norm of the whole
power, the blocks' norms and the one-coordinate blocks' |b|^n together;
the scaling keeps geometrically growing powers from drowning the
small-n contributions, leaves every kernel unchanged, and overflows
where the dense norm does. The rank of M is cut where linalg.null_space
cuts the dense Gamma: at DEFAULT_REL_TOL times the largest singular
value over all blocks, and nowhere when that is at most
linalg.ABSOLUTE_FLOOR.

The sample times span the window (0, g.window] that `model.assemble`
checked the rates on, and end at its end, as the re-check does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, NotADensityMatrixError
from .expr import split_coefficient
from .linalg import (ABSOLUTE_FLOOR, DEFAULT_REL_TOL, SubspaceBasis, _abs2, _row_slices,
                     minimal_poly_degree)
# null_space, generator_at and integral_at are not called here, but
# perfbench's tracer wraps the names in this module, so they stay bound.
from .linalg import null_space  # noqa: F401
from .model import HORIZON, integral_table, rate_table
from .model import generator_at, integral_at  # noqa: F401

__all__ = [
    "default_sample_times", "functional_commutativity",
    "integral_commutativity", "gamma_operator", "partial_subspace",
    "admissible", "classify", "CommutativityReport", "excluded_coordinate",
]

ADMISSIBLE_TOL = 1e-8
# Largest entry of (complement projector - a coordinate projector) that
# still counts as that single excluded coordinate.
EXCLUDED_TOL = 1e-6
# The working set per sample time of the chain, as Gamma and the re-check
# iterate it, in stacks of all groups (sum of c b^2 entries of each
# group's itemsize), and of the power cap in stacks of power vectors
# ((b + 1) c b^2 entries per group): at most 8.7 and 5.0 under tracemalloc
# (cascades d = 3..32, whose population blocks are real, and fully coupled
# models d = 2..8, complex blocks b = 4..64).
_CHAIN_STACKS = 9
_POWER_CAP_STACKS = 5

# Six fixed sample times in (0, HORIZON / 2], where decaying rates act (a
# long window that scaled them too lost those constraints), five fixed
# fractions of the window in its second half, and its end. The fractions
# are the draws of np.random.default_rng(42).uniform(0.5, 1.0, 5), kept as
# literals so that no run loads numpy.random for them.
_STRUCTURED_TIMES = (0.2, 1.0, 2.0, 4.0, 2 * math.pi, 10.0)
_LATE_FRACTIONS = (0.8869780242779817, 0.7194392198760262, 0.9292989599556912,
                   0.8486840145296819, 0.5470886739438248)


def default_sample_times(window=HORIZON):
    """Twelve deterministic sample times in (0, window], for a window of at
    least HORIZON (as `g.window` is); the largest is the end of the window."""
    late = (fraction * window for fraction in _LATE_FRACTIONS)
    return sorted(float(t) for t in (*_STRUCTURED_TIMES, *late, window))


class _Samples:
    """The generator's block groups (`g.groups`) and the
    coefficients of B(t) and L(t) at each sample time, one row per time."""

    __slots__ = ("groups", "times", "integral", "rates")

    def __init__(self, groups, times, integral, rates):
        self.groups = groups
        self.times = times
        self.integral = integral
        self.rates = rates

    @classmethod
    def of(cls, g, times):
        times = np.asarray(times, dtype=float)
        return cls(g.groups, times, integral_table(g, times), rate_table(g, times))

    def __getitem__(self, rows):
        return _Samples(self.groups, self.times[rows], self.integral[rows], self.rates[rows])

    def stacks(self, table, rows):
        """The blocks of the matrix with coefficients table[rows], one
        (rows, c, b, b) stack per group."""
        return [np.tensordot(table[rows], terms, axes=1) for _, terms in self.groups]


def _squared_norms(stacks):
    """sum |x|^2 over every block, one value per row of the stacks."""
    return sum(np.sum(_abs2(x), axis=(1, 2, 3)) for x in stacks)


def functional_commutativity(g):
    """Whether L(t) and L(s) commute for all pairs of times.

    The drift and the dissipators are first combined into the generator's
    distinct time dependences: the drift plus every dissipator of constant
    rate, then one sum per rate up to a constant factor
    (`expr.split_coefficient`), so that L(t) = A_0 + sum_p f_p(t) A_p.
    Decided by the sufficient check that these A_p commute pairwise, with
    commutator norms compared against DEFAULT_REL_TOL relative to the
    operand norms: [sum a_p A_p, sum b_q A_q] = sum a_p b_q [A_p, A_q] then
    vanishes for all coefficients, so no sampled times are needed. The A_p
    are block diagonal, so each commutator is taken block by block.
    """
    combined = {None: [(1.0, 0)]}
    for k, part in enumerate(g.parts, start=1):
        c, core = split_coefficient(part.rate)
        combined.setdefault(core, []).append((c, k))
    count = len(combined)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        groups = [(coords, np.array([sum(c * terms[k] for c, k in members)
                                     for members in combined.values()]))
                  for coords, terms in g.groups]
        norms = np.sqrt(_squared_norms([terms for _, terms in groups]))
    # row by row of pairs, each pair as a dense check takes it, so that the
    # first row with a failing pair ends the test
    for i in range(count - 1):
        squares = np.zeros(count - 1 - i)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for coords, terms in groups:
                if coords.shape[1] > 1:
                    later = terms[i + 1:]
                    squares += _squared_norms([terms[i] @ later - later @ terms[i]])
        for j, square in enumerate(squares, start=i + 1):
            num, den = math.sqrt(square), norms[i] * norms[j]
            if not (math.isfinite(num) and math.isfinite(den)):
                raise NonFiniteError("commutator norm overflows")
            if num != 0.0 and num / den > DEFAULT_REL_TOL:
                return False
    return True


def _commutator_chain(samples, power_cap):
    """Yield (rows, n, gen, stacks) for each run of sample times and each
    n = 1..power_cap: gen[i] and stacks[i] hold L(t) and C_n = [L(t),
    B(t)^n] / ||B(t)^n|| on the blocks of samples.groups[i], shape (rows,
    c, b, b); stacks[i] is None for the one-coordinate blocks, where C_n
    vanishes. ||B(t)^n|| is the Frobenius norm over every block, and C_n
    is zero at a time where it vanishes. Raises NonFiniteError once a
    power of B(t), its norm or C_n overflows."""
    row_bytes = sum(coords.size * coords.shape[1] * terms.itemsize
                    for coords, terms in samples.groups)
    for rows in _row_slices(samples.times.size, _CHAIN_STACKS * row_bytes):
        integral = samples.stacks(samples.integral, rows)
        gen = samples.stacks(samples.rates, rows)
        single = [coords.shape[1] == 1 for coords, _ in samples.groups]
        power = integral
        for n in range(1, power_cap + 1):
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                if n > 1:
                    power = [p @ b for p, b in zip(power, integral)]
                norm = np.sqrt(_squared_norms(power))
                scale = np.where(norm == 0.0, 1.0, norm)[:, None, None, None]
                stacks = [None if one else (x @ p - p @ x) / scale
                          for one, x, p in zip(single, gen, power)]
            bad = ~np.isfinite(norm)
            for c in stacks:
                if c is not None:
                    bad |= ~np.all(np.isfinite(c), axis=(1, 2, 3))
            if bad.any():
                t = samples.times[rows][np.argmax(bad)]
                raise NonFiniteError(f"[L(t), B(t)^{n}] overflows at t={t:g}")
            yield rows, n, gen, stacks


def integral_commutativity(g):
    """Whether [L(t), B(t)] vanishes at every sample time of g.window."""
    return _gamma(_Samples.of(g, default_sample_times(g.window)), 1)[1]


def _gamma(samples, power_cap):
    """(Gamma, integral): Gamma summed over the sample times, one Hermitian
    (c, b, b) stack of the group's dtype per group, None for a group of
    one-coordinate blocks; integral, whether ||[L(t), B(t)]|| <=
    DEFAULT_REL_TOL ||L(t)|| ||B(t)|| at every sample time, read from
    C_1 = [L(t), B(t)] / ||B(t)|| in the same pass."""
    total = [None if c.shape[1] == 1 else np.zeros((*c.shape, c.shape[1]), dtype=terms.dtype)
             for c, terms in samples.groups]
    squares, gen = np.zeros((2, samples.times.size))  # ||C_1(t)||^2, ||L(t)||^2
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _subspace
        for rows, n, gen_stacks, stacks in _commutator_chain(samples, power_cap):
            if n == 1:
                squares[rows] = _squared_norms([c for c in stacks if c is not None])
                gen[rows] = _squared_norms(gen_stacks)
                if not np.all(np.isfinite(gen[rows])):
                    raise NonFiniteError("commutator norm overflows")
            for out, c in zip(total, stacks):
                if c is not None:
                    out += np.sum(c.conj().swapaxes(-1, -2) @ c, axis=0)
        gammas = [x if x is None else 0.5 * (x + x.conj().swapaxes(-1, -2)) for x in total]
    return gammas, bool(np.all(np.sqrt(squares) <= DEFAULT_REL_TOL * np.sqrt(gen)))


def gamma_operator(g, t, power_cap):
    """The PSD mu x mu operator whose kernel is the partially commutative
    subspace at time t: the direct sum of the blocks of Gamma(t); see the
    module docstring."""
    if power_cap < 1:
        raise ValueError("power_cap must be at least 1")
    samples = _Samples.of(g, [t])
    out = np.zeros((g.mu, g.mu), dtype=complex)
    for (coords, _), blocks in zip(samples.groups, _gamma(samples, power_cap)[0]):
        if blocks is not None:
            out[coords[:, :, None], coords[:, None, :]] = blocks
    return out


def _power_cap(samples):
    """The chain length the sample times need: the largest
    minimal-polynomial degree of a block of B(t) with more than one
    coordinate, less one, and at least 1. Its runs of sample times keep
    minimal_poly_degree's working set within linalg.SLAB_BYTES."""
    degree = 1
    for coords, terms in samples.groups:
        c, b = coords.shape
        if b == 1:
            continue
        row_bytes = _POWER_CAP_STACKS * terms.itemsize * (b + 1) * c * b * b
        for rows in _row_slices(samples.times.size, row_bytes):
            stack = np.tensordot(samples.integral[rows], terms, axes=1)
            degree = max(degree, int(np.max(minimal_poly_degree(stack))))
    return degree - 1 if degree > 1 else 1


def _subspace(samples):
    """(M, power cap, integral criterion): M is the kernel of Gamma summed
    over the sample times, as a SubspaceBasis of the generator's blocks.
    Each block keeps the right singular vectors of its block of Gamma
    whose singular values are at most DEFAULT_REL_TOL times the largest
    over all blocks (all of them when that is at most ABSOLUTE_FLOOR), and
    zeros in place of the others. A one-coordinate block is not factored:
    it gets the SVD of its zero block, the singular value 0 and vector 1."""
    cap = _power_cap(samples)
    gammas, integral = _gamma(samples, cap)
    if not all(np.all(np.isfinite(x)) for x in gammas if x is not None):
        raise NonFiniteError("Gamma overflows")
    svds = [np.linalg.svd(x)[1:] if x is not None else
            (np.zeros((coords.shape[0], 1)), np.ones((coords.shape[0], 1, 1), dtype=terms.dtype))
            for x, (coords, terms) in zip(gammas, samples.groups)]
    smax = max(float(s.max()) for s, _ in svds)
    groups = []
    for (coords, _), (s, vh) in zip(samples.groups, svds):
        keep = s <= DEFAULT_REL_TOL * smax if smax > ABSOLUTE_FLOOR else np.ones(s.shape, bool)
        groups.append((coords, vh.conj().swapaxes(-1, -2) * keep[:, None, :]))
    return SubspaceBasis(sum(c.size for c, _ in samples.groups), tuple(groups)), cap, integral


def partial_subspace(g):
    """Basis of M, the subspace of admissible initial vectors on g.window:
    the kernel of Gamma(t) summed over default_sample_times(g.window).
    """
    return _subspace(_Samples.of(g, default_sample_times(g.window)))[0]


def admissible(rho0, subspace):
    """Whether the density matrix rho0 vectorizes into the subspace.

    Raises :class:`NotADensityMatrixError` when rho0 fails Hermiticity,
    unit trace, or positivity within ADMISSIBLE_TOL.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if np.max(np.abs(rho0 - rho0.conj().T)) > ADMISSIBLE_TOL:
        raise NotADensityMatrixError("not Hermitian")
    trace = np.trace(rho0)
    if abs(trace.real - 1.0) > ADMISSIBLE_TOL or abs(trace.imag) > ADMISSIBLE_TOL:
        raise NotADensityMatrixError("trace is not 1")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -ADMISSIBLE_TOL:
        raise NotADensityMatrixError("not positive semidefinite")
    return subspace.residual(rho0.reshape(-1, order="F")) <= ADMISSIBLE_TOL


class CommutativityReport(NamedTuple):
    """Classification of one generator decomposition.

    `excluded_coordinate` and `excluded_level` are set when the
    complement of M is spanned by a single vectorization coordinate
    (1-based, column-major); the level is set when that coordinate is a
    diagonal entry, in which case admissible states satisfy
    rho_{level,level} = 0.
    """

    functional: bool
    integral: bool
    partial_rank: int
    subspace: SubspaceBasis
    power_cap: int
    sample_times: list[float]
    residual_max: float
    excluded_coordinate: int | None = None
    excluded_level: int | None = None

    def subspace_description(self):
        mu = self.subspace.dim
        if self.partial_rank == mu:
            return f"full (dim {mu})"
        desc = f"dim {self.partial_rank}"
        if self.excluded_level is not None:
            desc += (f"; admissible states satisfy "
                     f"rho_{self.excluded_level}{self.excluded_level} = 0")
        elif self.excluded_coordinate is not None:
            desc += f"; excluded coordinate {self.excluded_coordinate}"
        return desc


def excluded_coordinate(subspace):
    """Detect a complement spanned by one coordinate vector.

    Returns (coordinate, level) 1-based; level is None off the diagonal.
    This pattern (a single vanishing diagonal entry) is what the worked
    three- and four-level systems exhibit, but nothing guarantees it in
    general, so detection is best effort.

    At rank mu - 1, I - P = u u^dag with |u_i|^2 = 1 - sum |b_i|^2 over
    the basis vectors b of i's block. With j the largest, the largest
    entry of (I - P) - e_j e_j^T is max(|1 - |u_j|^2|, |u_i u_j| for i != j).
    """
    mu = subspace.dim
    if subspace.rank != mu - 1:
        return None, None
    diag = np.ones(mu)
    for coords, vectors in subspace.groups:
        diag[coords] -= np.sum(_abs2(vectors), axis=-1)
    diag = np.maximum(diag, 0.0)
    j = int(np.argmax(diag))
    others = np.delete(diag, j).max(initial=0.0)
    if max(abs(diag[j] - 1.0), math.sqrt(others * diag[j])) > EXCLUDED_TOL:
        return None, None
    d = math.isqrt(mu)
    row, col = j % d, j // d
    return j + 1, (row + 1 if row == col else None)


def classify(g):
    """Run all three criteria and verify the reported subspace.

    After computing M from the sample times of g.window, the defining
    property [L(t), B(t)^n] alpha = 0 is re-checked for every basis vector
    on a ten-fold denser time grid; `residual_max` records the largest
    ||[L(t), B^n(t)] b_i|| / ||B^n(t)|| seen there. This is a numerical
    verification over grids, not a proof for all t. The coefficients of
    L(t) and B(t) are tabulated once, over the sample times and the grid.
    """
    times = default_sample_times(g.window)
    grid = np.linspace(min(times), max(times), 10 * len(times))
    samples = _Samples.of(g, np.concatenate([times, grid]))
    at_times, on_grid = samples[:len(times)], samples[len(times):]
    functional = functional_commutativity(g)
    subspace, cap, integral = _subspace(at_times)

    residual_max = 0.0
    if subspace.rank > 0:
        for _, _, _, stacks in _commutator_chain(on_grid, cap):
            for c, (_, vectors) in zip(stacks, subspace.groups):
                if c is not None:
                    residual_max = max(residual_max,
                                       float(np.linalg.norm(c @ vectors, axis=-2).max()))

    coordinate, level = excluded_coordinate(subspace)
    return CommutativityReport(
        functional=functional,
        integral=integral,
        partial_rank=subspace.rank,
        subspace=subspace,
        power_cap=cap,
        sample_times=times,
        residual_max=residual_max,
        excluded_coordinate=coordinate,
        excluded_level=level,
    )
