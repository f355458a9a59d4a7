"""Dense complex matrix kernel.

Matrices are dense complex128 numpy arrays. Vectorization stacks columns
(column-major order), which is the convention under which
vec(A X B) = (B^T kron A) vec(X) holds and under which the coordinate
indices reported elsewhere in the package refer to matrix entries as
coordinate = (col - 1) * d + row, 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NonFiniteError

__all__ = [
    "kron", "vec", "unvec", "commutator", "expm", "expm_frechet", "null_space",
    "minimal_poly_degree", "SubspaceBasis", "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-10

# Singular values at or below this are treated as exact zeros even when
# they dominate the spectrum (the whole matrix is numerically zero).
ABSOLUTE_FLOOR = 1e-14


def _as_matrix(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    return a


def _as_square(a):
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains non-finite entries")


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def vec(m):
    """Stack the columns of `m` into a single vector."""
    return _as_matrix(m).reshape(-1, order="F").copy()


def unvec(v, d):
    """Inverse of :func:`vec` for a d x d matrix."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != d * d:
        raise DimensionMismatchError(f"cannot reshape length {v.size} into {d}x{d}")
    return v.reshape((d, d), order="F").copy()


def commutator(a, b):
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator of {a.shape} with {b.shape}")
    return a @ b - b @ a


def expm(a):
    """Matrix exponential (scaling-and-squaring with a Pade core)."""
    a = _as_square(a)
    _require_finite(a, "expm input")
    return scipy.linalg.expm(a)


def expm_frechet(a, e):
    """exp(A) and its Frechet derivative at A in the direction E,
    returned as the pair (exp(A), L(A, E)) (Al-Mohy & Higham, 2009)."""
    a = _as_square(a)
    e = _as_square(e)
    if a.shape != e.shape:
        raise DimensionMismatchError(f"expm_frechet of {a.shape} along {e.shape}")
    _require_finite(a, "expm_frechet input")
    _require_finite(e, "expm_frechet direction")
    return scipy.linalg.expm_frechet(a, e)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^dim, one basis vector per column."""

    dim: int
    basis: np.ndarray  # shape (dim, rank)

    @property
    def rank(self):
        return self.basis.shape[1]

    def projector(self):
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.conj().T

    def residual(self, v):
        """Norm of the component of `v` orthogonal to the subspace."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise DimensionMismatchError(f"vector of length {v.size} in C^{self.dim}")
        return float(np.linalg.norm(v - self.basis @ (self.basis.conj().T @ v)))


def null_space(a, rel_tol=DEFAULT_REL_TOL):
    """Orthonormal basis of the numerical kernel of a square matrix.

    Keeps the right singular vectors whose singular values satisfy
    sigma <= rel_tol * sigma_max; if sigma_max itself is at most the
    absolute floor the whole space is returned.
    """
    a = _as_square(a)
    _require_finite(a, "null_space input")
    n = a.shape[0]
    if n == 0:
        return SubspaceBasis(0, np.zeros((0, 0), dtype=complex))
    _, s, vh = np.linalg.svd(a)
    smax = s[0]
    if smax <= ABSOLUTE_FLOOR:
        return SubspaceBasis(n, np.eye(n, dtype=complex))
    nnz = int(np.sum(s > rel_tol * smax))
    return SubspaceBasis(n, vh[nnz:].conj().T.copy())


def minimal_poly_degree(a, rel_tol=DEFAULT_REL_TOL):
    """Degree of the minimal polynomial, determined numerically.

    Returns the smallest m such that vec(A^m) lies in the span of
    {vec(A^0), ..., vec(A^(m-1))}, decided by the rank of the Gram matrix
    of the norm-scaled power vectors. The scaling makes the result
    invariant under A -> c A.
    """
    a = _as_square(a)
    _require_finite(a, "minimal_poly_degree input")
    n = a.shape[0]
    if n == 0:
        return 0
    power = np.eye(n, dtype=complex)
    vecs = [vec(power) / np.sqrt(n)]
    for m in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ a
            norm = np.linalg.norm(power)
        if not np.isfinite(norm):
            raise NonFiniteError(f"minimal_poly_degree input overflows at power {m}")
        if norm == 0.0:
            return m  # A^m = 0 lies in every span
        vecs.append(vec(power) / norm)
        basis = np.column_stack(vecs)
        gram = basis.conj().T @ basis
        eigs = np.linalg.eigvalsh(gram)
        rank = int(np.sum(eigs > rel_tol * eigs[-1]))
        if rank <= m:
            return m
    return n
