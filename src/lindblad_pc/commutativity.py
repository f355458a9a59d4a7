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
intersection of the individual kernels. `_commutator_chain` is the one
routine that builds the normalized C_n; both Gamma and the dense
re-check in `classify` iterate it. Summing Gamma over several sample
times intersects the per-time subspaces; the power chain is truncated at
the largest numerically determined degree of the minimal polynomial of
B over the sample times (higher powers are linear combinations of lower
ones and add no constraints). The 1/||B^n|| scaling keeps geometrically
growing powers from drowning the small-n contributions in floating
point; it leaves every kernel unchanged.

The sample times span the time window (0, max(HORIZON, t_max)] of a run
and end at its end, so the dense re-check covers the whole window too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NotADensityMatrixError
from .linalg import DEFAULT_REL_TOL, SubspaceBasis, minimal_poly_degree, null_space
from .model import HORIZON, generator_at, integral_at, time_window

__all__ = [
    "default_sample_times", "functional_commutativity",
    "integral_commutativity", "gamma_operator", "partial_subspace",
    "admissible", "classify", "CommutativityReport", "excluded_coordinate",
]

ADMISSIBLE_TOL = 1e-8
# Largest entry of (complement projector - a coordinate projector) that
# still counts as that single excluded coordinate.
EXCLUDED_TOL = 1e-6

# Six fixed sample times in (0, HORIZON / 2], where decaying rates act (a
# long window that scaled them too lost those constraints), five seeded
# random times in the second half of the window, and its end.
_STRUCTURED_TIMES = (0.2, 1.0, 2.0, 4.0, 2 * math.pi, 10.0)
_RANDOM_SEED = 42
_RANDOM_COUNT = 5


def default_sample_times(t_max=HORIZON):
    """Twelve deterministic sample times in the window (0, max(HORIZON,
    t_max)] of a run to t_max; the largest is the end of the window."""
    window = time_window(t_max)
    rng = np.random.default_rng(_RANDOM_SEED)
    extra = rng.uniform(0.5, 1.0, size=_RANDOM_COUNT) * window
    return sorted(float(t) for t in (*_STRUCTURED_TIMES, *extra, window))


def _rel_commutator(a, b):
    """||[A, B]|| relative to ||A|| ||B|| (Frobenius). Raises
    NonFiniteError when a norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.linalg.norm(a @ b - b @ a)
        den = np.linalg.norm(a) * np.linalg.norm(b)
    if not (np.isfinite(num) and np.isfinite(den)):
        raise NonFiniteError("commutator norm overflows")
    return 0.0 if num == 0.0 else num / den


def functional_commutativity(g):
    """Whether L(t) and L(s) commute for all pairs of times.

    Decided by the sufficient check that the constant components
    {L_H, L_k} of the decomposition commute pairwise, with commutator
    norms compared against DEFAULT_REL_TOL relative to the operand norms:
    [sum a_i A_i, sum b_j A_j] = sum a_i b_j [A_i, A_j] then vanishes
    for all coefficients, so no sampled times are needed.
    """
    components = [g.drift] + [p.matrix for p in g.parts]
    return all(_rel_commutator(a, b) <= DEFAULT_REL_TOL
               for a, b in itertools.combinations(components, 2))


def integral_commutativity(g):
    """Whether [L(t), B(t)] vanishes at every default sample time."""
    return all(
        _rel_commutator(generator_at(g, t), integral_at(g, t)) <= DEFAULT_REL_TOL
        for t in default_sample_times())


def _commutator_chain(g, t, power_cap):
    """Yield C_n = [L(t), B(t)^n] / ||B(t)^n|| for n = 1..power_cap,
    skipping the powers of B(t) that vanish. Raises NonFiniteError once
    a power of B(t), its norm or C_n overflows."""
    gen = generator_at(g, t)
    b = integral_at(g, t)
    power = np.eye(g.mu, dtype=complex)
    for n in range(1, power_cap + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ b
            norm = np.linalg.norm(power)
            if norm == 0.0:
                continue
            c = (gen @ power - power @ gen) / norm
        if not (np.isfinite(norm) and np.all(np.isfinite(c))):
            raise NonFiniteError(f"[L(t), B(t)^{n}] overflows at t={t:g}")
        yield c


def gamma_operator(g, t, power_cap):
    """The PSD operator whose kernel is the partially commutative
    subspace at time t; see the module docstring."""
    if power_cap < 1:
        raise ValueError("power_cap must be at least 1")
    total = np.zeros((g.mu, g.mu), dtype=complex)
    for c in _commutator_chain(g, t, power_cap):
        total += c.conj().T @ c
    return 0.5 * (total + total.conj().T)


def _power_cap(g, times):
    """Highest power of B worth including: the largest minimal-polynomial
    degree of B over the sample times bounds the useful chain length."""
    degree = max(minimal_poly_degree(integral_at(g, t)) for t in times)
    return max(1, min(g.mu - 1, degree - 1))


def _subspace(g, times):
    """(M, power cap): the kernel of Gamma summed over the sample times."""
    cap = _power_cap(g, times)
    total = np.zeros((g.mu, g.mu), dtype=complex)
    for t in times:
        total += gamma_operator(g, t, cap)
    return null_space(total), cap


def partial_subspace(g, t_max=HORIZON):
    """Basis of M, the subspace of admissible initial vectors of a run
    to t_max: the kernel of Gamma(t) summed over default_sample_times(t_max).
    """
    return _subspace(g, default_sample_times(t_max))[0]


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


@dataclass
class CommutativityReport:
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
    """
    mu = subspace.dim
    if subspace.rank != mu - 1:
        return None, None
    complement = np.eye(mu) - subspace.projector()
    j = int(np.argmax(np.real(np.diagonal(complement))))
    target = np.zeros((mu, mu), dtype=complex)
    target[j, j] = 1.0
    if np.max(np.abs(complement - target)) > EXCLUDED_TOL:
        return None, None
    d = math.isqrt(mu)
    row, col = j % d, j // d
    return j + 1, (row + 1 if row == col else None)


def classify(g):
    """Run all three criteria and verify the reported subspace.

    After computing M from the default sample times, the defining property
    [L(t), B(t)^n] alpha = 0 is re-checked for every basis vector on a
    ten-fold denser time grid; `residual_max` records the largest
    ||[L(t), B^n(t)] b_i|| / ||B^n(t)|| seen there. This is a numerical
    verification over grids, not a proof for all t.
    """
    times = default_sample_times()
    functional = functional_commutativity(g)
    integral = integral_commutativity(g)
    subspace, cap = _subspace(g, times)

    residual_max = 0.0
    if subspace.rank > 0:
        for t in np.linspace(min(times), max(times), 10 * len(times)):
            for c in _commutator_chain(g, t, cap):
                residual_max = max(
                    residual_max,
                    float(np.linalg.norm(c @ subspace.basis, axis=0).max()))

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
