"""Dense matrix kernel.

Matrices are dense numpy arrays. The one-matrix helpers (`vec`,
`commutator`, `null_space`) work in complex128; the stacked kernels
(`minimal_poly_degree` here, `expm` and `expm_frechet` of
:mod:`lindblad_pc.exponential`) keep a stack's dtype, float64 or
complex128 (`_as_square_stack` takes an integer or bool stack as
float64), so that the real blocks of a generator (the dtype rule of
:mod:`lindblad_pc.model`) take real arithmetic. A SubspaceBasis keeps a
subspace as its basis vectors on each block of a partition of the
coordinates, real on a real block. Vectorization stacks columns (column-major order), which is
the convention under which vec(A X B) = (B^T kron A) vec(X) holds and
under which the coordinate indices reported elsewhere in the package
refer to matrix entries as coordinate = (col - 1) * d + row, 1-based.

The matrix exponential and its Frechet derivative are in
:mod:`lindblad_pc.exponential`, which only `solver` imports, so that a
process that never propagates (`classify`, a refused `verify`, `--help`)
never compiles them (3.5 ms without a bytecode cache). They cut their
stacks into slabs with `_row_slices`, as every stacked loop of the
package does, to the one memory budget SLAB_BYTES defined here.

The module, and with it the package, uses numpy alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

__all__ = [
    "vec", "unvec", "commutator", "null_space", "minimal_poly_degree", "SubspaceBasis",
    "DEFAULT_REL_TOL",
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


def _as_square_stack(a):
    """`a` as a stack of square matrices, shape (..., n, n): complex128
    when its entries are complex, float64 otherwise."""
    a = np.asarray(a)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(
            f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _require_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{what} contains non-finite entries")


def _abs2(x):
    """|x|^2 entry by entry, as a real array: re^2 + im^2 of a complex x,
    x^2 of a real one (whose imaginary part numpy would make as zeros)."""
    return x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x * x


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


# Bytes of the whole working set of one slab: every stacked loop of the
# package (expm and expm_frechet of `exponential`, the solver's row blocks,
# the commutator chain and its power cap) goes through its stack as many rows at a time
# as keep their working set within this (see `_row_slices`), so that its
# memory does not grow with the stack.
SLAB_BYTES = 2**20


def _row_slices(count, row_bytes):
    """Slices that cover range(count), each of as many consecutive rows
    (at least one) as keep row_bytes per row within SLAB_BYTES."""
    step = max(1, SLAB_BYTES // row_bytes)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


class SubspaceBasis(NamedTuple):
    """A subspace of C^dim that is a direct sum over coordinate blocks
    partitioning range(dim): one (coords (c, b), vectors (c, b, k)) pair
    in `groups` per c blocks of b coordinates. The columns of each block
    are its orthonormal basis vectors on its coordinates, or exact zeros."""

    dim: int
    groups: tuple

    @property
    def rank(self):
        return sum(int(np.count_nonzero(np.any(b != 0, axis=-2))) for _, b in self.groups)

    def projector(self):
        """Orthogonal projector onto the subspace, a dim x dim matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for coords, b in self.groups:
            out[coords[:, :, None], coords[:, None, :]] = b @ b.conj().swapaxes(-1, -2)
        return out

    def residual(self, v):
        """Norm of the component of `v` orthogonal to the subspace."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.size != self.dim:
            raise DimensionMismatchError(f"vector of length {v.size} in C^{self.dim}")
        projected = np.zeros_like(v)
        for coords, b in self.groups:
            projected[coords] = (b @ (b.conj().swapaxes(-1, -2) @ v[coords][..., None]))[..., 0]
        return float(np.linalg.norm(v - projected))


def null_space(a, rel_tol=DEFAULT_REL_TOL):
    """Orthonormal basis of the numerical kernel of a square matrix, as a
    SubspaceBasis of one block.

    Keeps the right singular vectors whose singular values satisfy
    sigma <= rel_tol * sigma_max; if sigma_max itself is at most the
    absolute floor the whole space is returned.
    """
    a = _as_square(a)
    _require_finite(a, "null_space input")
    _, s, vh = np.linalg.svd(a)
    if s.size and s[0] > ABSOLUTE_FLOOR:
        vh = vh[int(np.sum(s > rel_tol * s[0])):]
    return SubspaceBasis(a.shape[0], ((np.arange(a.shape[0])[None], vh.conj().T[None]),))


def minimal_poly_degree(a, rel_tol=DEFAULT_REL_TOL):
    """Degree of the minimal polynomial, determined numerically, of a
    matrix (an int) or of each matrix of a stack, shape (..., n, n) (an
    int array of shape (...)).

    Returns the smallest m such that vec(A^m) lies in the span of
    {vec(A^0), ..., vec(A^(m-1))}, decided by the rank of the Gram matrix
    of the norm-scaled power vectors. The scaling makes the result
    invariant under A -> c A. Each slice is decided on its own, and once
    decided takes no further powers. A real stack is decided in real
    arithmetic.
    """
    a = _as_square_stack(a)
    _require_finite(a, "minimal_poly_degree input")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    degree = np.full(flat.shape[0], n)
    live = np.flatnonzero(degree > 0)  # the undecided slices
    vecs = np.zeros((flat.shape[0], n + 1, n * n), dtype=a.dtype)
    vecs[:, 0] = np.eye(n).ravel() / np.sqrt(max(n, 1))
    gram = np.zeros((flat.shape[0], n + 1, n + 1), dtype=a.dtype)
    gram[:, 0, 0] = 1.0
    power = np.broadcast_to(np.eye(n, dtype=a.dtype), flat.shape)
    for m in range(1, n + 1):
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ flat[live]
            norm = np.sqrt(np.sum(_abs2(power), axis=(1, 2)))
        if not np.all(np.isfinite(norm)):
            raise NonFiniteError(f"minimal_poly_degree input overflows at power {m}")
        zero = norm == 0.0  # A^m = 0 lies in every span
        vecs[live, m] = power.reshape(live.size, -1) / np.where(zero, 1.0, norm)[:, None]
        column = vecs[live, :m + 1].conj() @ vecs[live, m, :, None]
        gram[live, :m + 1, m] = column[..., 0]
        gram[live, m, :m + 1] = column[..., 0].conj()
        eigs = np.linalg.eigvalsh(gram[live, :m + 1, :m + 1])
        rank = np.sum(eigs > rel_tol * eigs[:, -1:], axis=1)
        done = zero | (rank <= m)
        degree[live[done]] = m
        live, power = live[~done], power[~done]
    return int(degree[0]) if a.ndim == 2 else degree.reshape(a.shape[:-2])
