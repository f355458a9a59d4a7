"""Dense complex matrix kernel.

Matrices are dense complex128 numpy arrays. Vectorization stacks columns
(column-major order), which is the convention under which
vec(A X B) = (B^T kron A) vec(X) holds and under which the coordinate
indices reported elsewhere in the package refer to matrix entries as
coordinate = (col - 1) * d + row, 1-based.

:func:`expm` and :func:`expm_frechet` take one matrix or a stack of
them, shape (..., n, n), so that a generator block is exponentiated at a
whole chunk of time points in one call. Up to FRECHET_DOUBLING_MAX, the
Frechet derivative is the upper-right block of exp([[A, E], [0, A]])
(Mathias 1996; Higham, *Functions of Matrices*, SIAM 2008, section
3.2): one exponential of twice the size, which a stack takes as readily
as a single matrix. Past that size the doubled matrix costs more than
scipy's own expm_frechet (Al-Mohy and Higham 2009), which then takes
the stack one slice at a time.

Only :func:`expm` and :func:`expm_frechet` need scipy, and they import
`scipy.linalg` when first called. Importing this module loads numpy
alone, so a process that never exponentiates (classify, a refused
state, an input error) does not pay for importing scipy.linalg, about
0.1 s under `python -X importtime` on a 2-CPU x86-64 host.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

__all__ = [
    "kron", "vec", "unvec", "commutator", "expm", "expm_frechet", "null_space",
    "minimal_poly_degree", "SubspaceBasis", "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-10

# The largest n for which expm_frechet exponentiates the doubled 2n x 2n
# matrix. Per slice, on one OpenBLAS thread of a 2-CPU x86-64 host, the
# doubled form against scipy.linalg.expm_frechet takes 21 us against
# 62 us at n = 6, 69 us against 78 us at n = 12, 122 us against 90 us at
# n = 16 and 102 ms against 44 ms at n = 256.
FRECHET_DOUBLING_MAX = 12

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


def _as_square_stack(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
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
    """Inverse of :func:`vec`: a vector of length d*d to the d x d matrix,
    or each row of a stack of them, shape (..., d*d), to (..., d, d)."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    if v.shape[-1] != d * d:
        raise DimensionMismatchError(f"cannot reshape length {v.shape[-1]} into {d}x{d}")
    return np.swapaxes(v.reshape(*v.shape[:-1], d, d), -1, -2).copy()


def commutator(a, b):
    """[A, B] = AB - BA for square matrices of equal dimension."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"commutator of {a.shape} with {b.shape}")
    return a @ b - b @ a


def expm(a):
    """Matrix exponential (scaling-and-squaring with a Pade core) of a
    matrix or of each matrix of a stack, shape (..., n, n)."""
    a = _as_square_stack(a)
    _require_finite(a, "expm input")
    import scipy.linalg  # on first use: see the module docstring
    return scipy.linalg.expm(a)


def expm_frechet(a, e):
    """exp(A) and its Frechet derivative at A in the direction E,
    returned as the pair (exp(A), L(A, E)), for matrices or stacks of
    them of one shape (..., n, n). Up to n = FRECHET_DOUBLING_MAX both
    come from exp([[A, E], [0, A]]) = [[exp(A), L(A, E)], [0, exp(A)]],
    past it from scipy.linalg.expm_frechet slice by slice; see the
    module docstring."""
    a = _as_square_stack(a)
    e = _as_square_stack(e)
    if a.shape != e.shape:
        raise DimensionMismatchError(f"expm_frechet of {a.shape} along {e.shape}")
    _require_finite(a, "expm_frechet input")
    _require_finite(e, "expm_frechet direction")
    n = a.shape[-1]
    if n > FRECHET_DOUBLING_MAX:
        import scipy.linalg  # on first use: see the module docstring
        exp_a, frechet = np.empty_like(a), np.empty_like(a)
        for i in np.ndindex(a.shape[:-2]):
            exp_a[i], frechet[i] = scipy.linalg.expm_frechet(a[i], e[i])
        return exp_a, frechet
    doubled = np.zeros((*a.shape[:-2], 2 * n, 2 * n), dtype=complex)
    doubled[..., :n, :n] = a
    doubled[..., :n, n:] = e
    doubled[..., n:, n:] = a
    exp_doubled = expm(doubled)
    return exp_doubled[..., :n, :n], exp_doubled[..., :n, n:]


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
