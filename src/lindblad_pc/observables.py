"""Derived quantities along a trajectory: populations, purity, entropy,
and selected coherences.

Each quantity is computed state by state, so the series of a
trajectory's row blocks (`solver.closed_form_blocks`, as the CLI's
`solve` takes them) are those of the whole trajectory, cut at the same
rows. A failed spectrum check names the lowest eigenvalue of the
trajectory it was given: in `solve`, of the first block that fails."""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRangeError

__all__ = [
    "populations", "purity", "entropy", "coherence",
    "ObservableSeries", "observable_series",
]

# Eigenvalues of a numerically evolved state may dip slightly negative or
# sum to slightly off 1; anything beyond these bounds is a real error,
# not noise, and is reported instead of being silently repaired.
EIGENVALUE_FLOOR = -1e-7
TRACE_SLACK = 1e-7


def populations(trajectory):
    """p_i(t) = Re rho_ii(t); shape (n_times, d)."""
    return np.real(np.diagonal(trajectory.states, axis1=1, axis2=2)).copy()


def _spectra(trajectory):
    """Clamped, renormalized eigenvalues of each state (rows ascending)."""
    herm = 0.5 * (trajectory.states + np.conj(np.swapaxes(trajectory.states, 1, 2)))
    eigs = np.linalg.eigvalsh(herm)
    low = float(eigs.min())
    if low < EIGENVALUE_FLOOR:
        raise ValueError(f"state has eigenvalue {low:.3e} below {EIGENVALUE_FLOOR:.0e}")
    eigs = np.clip(eigs, 0.0, None)
    sums = eigs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > TRACE_SLACK:
        raise ValueError("state trace deviates from 1 beyond tolerance")
    return eigs / sums[:, None]


def _purity(eigs):
    return np.sum(eigs * eigs, axis=1)


def _noise_floor(trajectory):
    """d times the trajectory's bound on the rounding of each state entry
    (the machine epsilon when it has none), shape (n, 1): eigenvalues up
    to it are the rounding noise of a zero eigenvalue."""
    rounding = np.finfo(float).eps if trajectory.rounding is None else trajectory.rounding
    return trajectory.dim * np.broadcast_to(rounding, trajectory.times.shape)[:, None]


def _entropy(eigs, floor):
    """-sum p ln p over the eigenvalues above the noise floor, renormalized
    to sum to 1, so a pure state has entropy exactly 0."""
    p = np.where(eigs > floor, eigs, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -np.sum(terms, axis=1)


def purity(trajectory):
    """pi(t) = Tr rho^2(t), from the same spectra the entropy uses."""
    return _purity(_spectra(trajectory))


def entropy(trajectory):
    """Von Neumann entropy S(t) = -sum lambda ln lambda, with 0 ln 0 = 0 and
    eigenvalues within the states' rounding taken as 0."""
    return _entropy(_spectra(trajectory), _noise_floor(trajectory))


def coherence(trajectory, i, j):
    """The complex series rho_ij(t) for 1-based levels i, j."""
    d = trajectory.dim
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexOutOfRangeError(f"levels ({i}, {j}) outside 1..{d}")
    return trajectory.states[:, i - 1, j - 1].copy()


class ObservableSeries:
    """Everything the trajectory plots need, on one time grid: `times`,
    `populations` (n, d), `purity` and `entropy` (n,), and `coherences`,
    (i, j) -> complex (n,), a new empty dict by default."""

    __slots__ = ("times", "populations", "purity", "entropy", "coherences")

    def __init__(self, times, populations, purity, entropy, coherences=None):
        self.times = times
        self.populations = populations
        self.purity = purity
        self.entropy = entropy
        self.coherences = {} if coherences is None else coherences

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"ObservableSeries({fields})"


def observable_series(trajectory, coherences=()):
    """Bundle populations, purity, entropy and the requested coherences."""
    eigs = _spectra(trajectory)
    return ObservableSeries(
        times=trajectory.times.copy(),
        populations=populations(trajectory),
        purity=_purity(eigs),
        entropy=_entropy(eigs, _noise_floor(trajectory)),
        coherences={(i, j): coherence(trajectory, i, j) for i, j in coherences},
    )
