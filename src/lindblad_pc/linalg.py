"""Dense complex matrix kernel.

Matrices are dense complex128 numpy arrays; a SubspaceBasis keeps a
subspace as its basis vectors on each block of a partition of the
coordinates. Vectorization stacks columns (column-major order), which is
the convention under which vec(A X B) = (B^T kron A) vec(X) holds and
under which the coordinate indices reported elsewhere in the package
refer to matrix entries as coordinate = (col - 1) * d + row, 1-based.

:func:`expm` and :func:`expm_frechet` take one matrix or a stack of
them, shape (..., n, n), so that a generator block is exponentiated at a
whole chunk of time points in one call.

:func:`expm` is the scaling-and-squaring algorithm of Al-Mohy and Higham
("A new scaling and squaring algorithm for the matrix exponential", SIAM
J. Matrix Anal. Appl. 31 (2009) 970-989, Algorithm 5.1), with the Pade
approximants of Higham (SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193),
in numpy over a whole stack at once. Each slice gets its own Pade degree
m in {3, 5, 7, 9, 13} and scaling s from exact 1-norms of its powers, so
its result does not depend on the rest of the stack. A diagonal slice is
np.exp of its diagonal, so exp(0) is exactly I. On a triangular slice the
diagonal and first off-diagonal are set from their exact values after
each squaring (their Code Fragment 2.1). Only the slices that still need
a squaring take it, and a stack is worked through SLAB_BYTES at a time.

Up to FRECHET_DOUBLING_MAX, the Frechet derivative is the upper-right
block of exp([[A, E], [0, A]]) (Mathias 1996; Higham, *Functions of
Matrices*, SIAM 2008, section 3.2): one exponential of twice the size,
which a stack takes as readily as a single matrix. Past that size the
doubled matrix costs more (see FRECHET_DOUBLING_MAX) than scipy's own
expm_frechet (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 30 (2009)
1639-1657), which then takes the stack one slice at a time.

That branch is the package's only use of scipy: expm_frechet imports
`scipy.linalg` when it first meets a slice larger than
FRECHET_DOUBLING_MAX. Importing this module, and every other call, loads
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError

__all__ = [
    "vec", "unvec", "commutator", "expm", "expm_frechet", "null_space",
    "minimal_poly_degree", "SubspaceBasis", "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-10

# The largest n for which expm_frechet exponentiates the doubled 2n x 2n
# matrix. Per slice, on one OpenBLAS thread of a 2-CPU x86-64 host (stacks
# of 256 random complex slices of 1-norm about 2), the doubled form against
# scipy.linalg.expm_frechet takes 194-220 us against 210-300 us at n = 12,
# 255-290 us against 270-330 us at n = 13..15, 330-450 us against
# 280-380 us at n = 16 and 0.8-1.2 ms against 0.4-0.55 ms at n = 24. The
# doubled form is kept up to n = 16 (a fully coupled 4-level model),
# where it still spares a process the import of scipy.linalg: 0.27-0.33 s
# under `python -X importtime`, more than the difference on a 400-point grid.
FRECHET_DOUBLING_MAX = 16

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
    """Matrix exponential of a matrix or of each matrix of a stack, shape
    (..., n, n): see the module docstring. Raises NonFiniteError when a
    result overflows or a Pade denominator is singular."""
    a = _as_square_stack(a)
    _require_finite(a, "expm input")
    out = np.empty(a.shape, dtype=complex)
    _expm_into(a, out)
    return out


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
    _expm_into(doubled, doubled)
    return doubled[..., :n, :n], doubled[..., :n, n:]


# Pade degree m -> theta_m, the largest 1-norm on which the [m/m] Pade
# approximant of exp has a backward error below 2^-53, and |c_(2m+1)|,
# the leading coefficient of that error's series (Al-Mohy and Higham
# 2009, Table 3.1 and eq. (5.1)).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_BACKWARD = {3: 1 / 100800, 5: 1 / 10059033600, 7: 1 / 4487938430976000,
             9: 1 / 5914384781877411840000, 13: 1 / 113250775606021113483283660800000000}
# Coefficients b_0..b_m of the numerator p_m(x) of the [m/m] Pade
# approximant of exp; its denominator is p_m(-x) (Higham 2005, eq. (2.3)).
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160.,
        110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600., 670442572800.,
         33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.),
}
# Bytes of input per slab: expm works through a stack this much at a
# time, so that its temporaries (16-21 times SLAB_BYTES at the peak,
# measured at n = 6 and 64) do not grow with the stack.
SLAB_BYTES = 2**18


def _expm_into(a, out):
    """Write exp of each slice of the stack `a` to `out`, slab by slab;
    `out` may be `a` itself."""
    n = a.shape[-1]
    if a.size == 0:
        return
    flat, flat_out = a.reshape(-1, n, n), out.reshape(-1, n, n)
    step = max(1, SLAB_BYTES // (16 * n * n))
    for start in range(0, flat.shape[0], step):
        flat_out[start:start + step] = _expm_slab(flat[start:start + step])


def _expm_slab(a):
    """exp of each slice of `a`, shape (k, n, n). A diagonal slice (a zero
    one too) is np.exp of its diagonal; every other slice gets its own
    Pade degree and scaling, so its result does not depend on the rest of
    the stack."""
    out = np.zeros_like(a)
    n = a.shape[-1]
    general = np.any(a[:, ~np.eye(n, dtype=bool)] != 0, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        np.einsum("kii->ki", out)[~general] = np.exp(np.einsum("kii->ki", a[~general]))
        if general.any():
            out[general] = _expm_general(a[general])
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("the matrix exponential overflows")
    return out


def _norm1(a):
    """The 1-norm (largest column sum of moduli) of each slice."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ell(a, norm, m):
    """ell(A, m) of Al-Mohy and Higham (2009, eq. (5.3)) for each slice:
    the squarings that degree m needs on top of theta_m, from the exact
    1-norm of |A|^(2m+1), the largest entry of the row 1^T |A|^(2m+1). The
    row is formed one row-times-matrix product at a time, with |A| divided
    by its 1-norm so that no power overflows."""
    unit = np.abs(a) / norm[:, None, None]
    row = np.ones((a.shape[0], 1, a.shape[-1]))
    for _ in range(2 * m + 1):
        row = row @ unit
    with np.errstate(divide="ignore"):  # |A|^(2m+1) = 0: ell is 0
        log2_alpha = (np.log2(_BACKWARD[m]) + np.log2(row.max(axis=(1, 2)))
                      + 2 * m * np.log2(norm))
    return np.maximum(0.0, np.ceil((log2_alpha + 53) / (2 * m))).astype(int)


def _expm_general(a):
    """Algorithm 5.1 of Al-Mohy and Higham (2009), with exact 1-norms, on
    each slice of `a`: pick the Pade degree m and the scaling s, evaluate
    the [m/m] approximant at 2^-s A, and square the result s times."""
    norm = _norm1(a)
    powers = {2: a @ a}
    powers[4] = powers[2] @ powers[2]
    powers[6] = powers[4] @ powers[2]
    d6 = _norm1(powers[6]) ** (1 / 6)
    eta = np.maximum(_norm1(powers[4]) ** (1 / 4), d6)
    degree = np.full(a.shape[0], 13)
    scaling = np.zeros(a.shape[0], dtype=int)

    def settle(m):
        """Degree m for the undecided slices within theta_m with ell = 0."""
        trial = np.flatnonzero((degree == 13) & (eta <= _THETA[m]))
        if trial.size:
            degree[trial[_ell(a[trial], norm[trial], m) == 0]] = m

    settle(3)
    settle(5)
    if np.any(degree == 13):
        powers[8] = powers[4] @ powers[4]
        d8 = _norm1(powers[8]) ** (1 / 8)
        eta = np.maximum(d6, d8)
        settle(7)
        settle(9)
    rest = np.flatnonzero(degree == 13)
    if rest.size:
        d10 = _norm1(powers[4][rest] @ powers[6][rest]) ** (1 / 10)
        least = np.minimum(eta[rest], np.maximum(d8[rest], d10))
        if not np.all(np.isfinite(least)):  # a power of A overflows
            raise NonFiniteError("the matrix exponential overflows")
        with np.errstate(divide="ignore"):  # least = 0: no scaling
            s = np.maximum(0.0, np.ceil(np.log2(least / _THETA[13]))).astype(int)
        scale = 2.0 ** -s
        scaling[rest] = s + _ell(a[rest] * scale[:, None, None], norm[rest] * scale, 13)

    result = np.empty_like(a)
    for m in _THETA:  # the Pade degrees, ascending
        chosen = np.flatnonzero(degree == m)
        if not chosen.size:
            continue
        scale = 2.0 ** -scaling[chosen][:, None, None]
        needed = range(2, m, 2) if m < 13 else (2, 4, 6)
        result[chosen] = _pade(m, a[chosen] * scale,
                               {p: powers[p][chosen] * scale ** p for p in needed})

    # Squaring. On a triangular slice the diagonal and the first
    # off-diagonal of each power are set from their exact values
    # (Al-Mohy and Higham 2009, Code Fragment 2.1), before the first
    # squaring (the diagonal) and after each.
    n = a.shape[-1]
    upper = ~np.any(a[:, np.tri(n, k=-1, dtype=bool)] != 0, axis=-1)
    lower = ~upper & ~np.any(a[:, np.tri(n, k=-1, dtype=bool).T] != 0, axis=-1)
    for step in range(scaling.max(initial=0) + 1):
        live = scaling >= step
        if step:
            result[live] = result[live] @ result[live]
        for triangle, band in ((upper, _superdiagonal), (lower, _subdiagonal)):
            chosen = np.flatnonzero(live & triangle & (scaling > 0))
            scale = 2.0 ** (step - scaling[chosen])[:, None]
            diagonal = np.einsum("kii->ki", a[chosen]) * scale
            exp_diagonal = np.exp(diagonal)
            fixed = result[chosen]
            np.einsum("kii->ki", fixed)[...] = exp_diagonal
            if step:
                band(fixed)[...] = band(a[chosen]) * scale * _divided_difference(
                    diagonal, exp_diagonal)
            result[chosen] = fixed
    return result


def _superdiagonal(x):
    return np.einsum("kii->ki", x[:, :-1, 1:])


def _subdiagonal(x):
    return np.einsum("kii->ki", x[:, 1:, :-1])


def _divided_difference(x, exp_x):
    """(exp(x[i+1]) - exp(x[i])) / (x[i+1] - x[i]) along the last axis,
    exp(x[i]) where the two are equal: the first off-diagonal of exp of a
    bidiagonal 2 x 2 block, over its off-diagonal entry (Higham 2008,
    eq. (10.42))."""
    step = np.diff(x, axis=-1)
    equal = step == 0
    return np.where(equal, exp_x[..., :-1], np.diff(exp_x, axis=-1) / np.where(equal, 1, step))


def _pade(m, a, powers):
    """The [m/m] Pade approximant p_m(-A)^-1 p_m(A) of exp(A) on each slice
    of `a`, from its even powers A^2, A^4, ... (Higham 2005, section 2)."""
    b = _PADE[m]
    identity = np.eye(a.shape[-1])
    if m == 13:
        a2, a4, a6 = powers[2], powers[4], powers[6]
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * identity)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * identity)
    else:
        even = [identity] + [powers[p] for p in range(2, m, 2)]
        u = a @ sum(b[2 * j + 1] * x for j, x in enumerate(even))
        v = sum(b[2 * j] * x for j, x in enumerate(even))
    try:
        return np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError:
        raise NonFiniteError("the matrix exponential has a singular Pade denominator") from None


@dataclass(frozen=True)
class SubspaceBasis:
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
    decided takes no further powers.
    """
    a = _as_square_stack(a)
    _require_finite(a, "minimal_poly_degree input")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    degree = np.full(flat.shape[0], n)
    live = np.flatnonzero(degree > 0)  # the undecided slices
    vecs = np.zeros((flat.shape[0], n + 1, n * n), dtype=complex)
    vecs[:, 0] = np.eye(n).ravel() / np.sqrt(max(n, 1))
    gram = np.zeros((flat.shape[0], n + 1, n + 1), dtype=complex)
    gram[:, 0, 0] = 1.0
    power = np.broadcast_to(np.eye(n, dtype=complex), flat.shape)
    for m in range(1, n + 1):
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ flat[live]
            norm = np.sqrt(np.sum(power.real ** 2 + power.imag ** 2, axis=(1, 2)))
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
