"""The matrix exponential and its Frechet derivative, of a matrix or of
a stack of them.

:func:`expm` and :func:`expm_frechet` take one matrix or a stack of
them, shape (..., n, n), so that a generator block is exponentiated at a
whole chunk of time points in one call.

Both run one algorithm: the scaling and squaring of Al-Mohy and Higham
("Computing the Frechet derivative of the matrix exponential, with an
application to condition number estimation", SIAM J. Matrix Anal. Appl.
30 (2009) 1639-1657, Algorithm 6.4), with the Pade approximants of
Higham (SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193), in numpy over
a whole stack at once. Each slice gets its own Pade degree m in
{3, 5, 7, 9, 13}, the least with ||A||_1 <= ell_m, or m = 13 and its own
scaling s, so its result does not depend on the rest of the stack. One
evaluator forms the [m/m] approximant from the even powers of A and,
given a direction E, its derivative from theirs, so that the pair costs
about three exponentials; then the squarings R <- R^2, after
L <- RL + LR with a direction, run only on the slices that still need
one. expm(A) is thus, bit for bit, the exponential that
expm_frechet(A, E) returns in the same dtype, except on two kinds of
slice, where the exponential alone does more:

- a diagonal slice is np.exp of its diagonal, so exp(0) is exactly I;
- on a triangular slice the diagonal and first off-diagonal are set
  from their exact values before the first squaring and after each
  (Al-Mohy and Higham, "A new scaling and squaring algorithm for the
  matrix exponential", SIAM J. Matrix Anal. Appl. 31 (2009) 970-989,
  Code Fragment 2.1).

That refinement is the exponential's alone. On the population blocks
of cascades (level k+1 decays to k, n = 2..8) at times up to 1e6,
without it expm was up to 5.8e-11 from scipy.linalg.expm in the
relative 1-norm, and 6.0e-14 with it (3000 draws for each n). Given to
expm_frechet as well, it moved the pair's exponential 5.8e-11 from that
of scipy.linalg.expm_frechet, which the tests hold the pair to
(n = 2..64).

The degree and scaling come from ||A||_1 alone. Algorithm 5.1 of the
second paper above also bounds the 1-norms of powers of A, so as not to
scale a strongly non-normal A more than it needs. Without that guard, on
upper triangular matrices with off-diagonal entries up to 200 or 1e4,
expm was at most 5.6 eps from 40-digit arithmetic in the relative
1-norm, where Algorithm 5.1 was within 0.1 eps. No generator block of
the package's models is of that kind: on the largest block of B(t) of
v3, lambda3, cascade4 and a driven 8-level cascade, at twelve times up
to 1e3, expm stays within 0.70 of 2 eps (1 + ||B(t)||_1), the rounding
bound that :mod:`lindblad_pc.solver` states.

Both work through a stack one slab at a time: as many slices as keep
the slab's whole working set, its input, its share of the output and
every temporary, within `linalg.SLAB_BYTES` (`_slice_bytes`), the
package's one memory budget for every stacked loop (`linalg._row_slices`).
A slab is sorted by Pade degree and then by scaling, so each degree is
one run of it and the slices that still need a squaring are its tail:
the approximants and the squarings work on views of one sorted copy,
their sums accumulate in preallocated arrays (ufuncs with out=), and the
slab's share of the output is scratch until the end. The caller's input
is never written. Each slice takes the same operations in the same order
whatever slab it falls in, so its result is bit for bit the one it gets
alone. At its peak a slab of expm holds about 7 to 8 times its input
besides that input and its output, and one of expm_frechet about 13 to
14 besides A, E and the two outputs (measured under tracemalloc at
n = 3..64, every Pade degree).

Real in, real out: both keep the dtype of their input, float64 or
complex128 (an integer or bool input is taken as float64), in their
outputs and in every temporary, so that a real block of a generator
(the dtype rule of :mod:`lindblad_pc.model`) takes real products, which
cost a fraction of complex ones and give the same numbers up to
rounding. A slab counts its input's itemsize, so a real one holds twice
the slices: within the 1 MiB of `linalg.SLAB_BYTES`, a slab of expm
holds 1489 complex or 2978 real 2 x 2 slices, 165 or 330 at n = 6, 23 or
46 at n = 16, 5 or 11 at n = 32, and 1 or 2 at n = 64; one of
expm_frechet 910 or 1820, 101 or 202, 14 or 28, 3 or 7, and 1 of either.

The module uses numpy alone. It is apart from :mod:`lindblad_pc.linalg`
because only `solver` runs it: a process that never propagates does not
compile it. (It is not named `expm`: as a submodule of the package, that
name would shadow the function `lindblad_pc.expm`.)
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .linalg import _as_square_stack, _require_finite, _row_slices

__all__ = ["expm", "expm_frechet"]


def expm(a):
    """Matrix exponential of a matrix or of each matrix of a stack, shape
    (..., n, n): see the module docstring. Real in, real out: a float64
    stack (an integer or bool one is taken as float64) gives a float64
    exponential, a complex one a complex128 exponential, as the real
    blocks of a generator need (the dtype rule of :mod:`lindblad_pc.model`).
    Raises NonFiniteError when a result overflows or a Pade denominator
    is singular."""
    a = _as_square_stack(a)
    _require_finite(a, "expm input")
    out = np.empty(a.shape, dtype=a.dtype)
    n = a.shape[-1]
    if out.size == 0:
        return out
    flat, flat_out = a.reshape(-1, n, n), out.reshape(-1, n, n)
    for rows in _row_slices(flat.shape[0], _slice_bytes(n, a.itemsize)):
        _slab(flat[rows], None, flat_out[rows], None)
    return out


def expm_frechet(a, e):
    """exp(A) and its Frechet derivative at A in the direction E,
    returned as the pair (exp(A), L(A, E)), for matrices or stacks of
    them of one shape (..., n, n): see the module docstring. Both come
    in the result type of A and E, float64 when both are real. Raises
    NonFiniteError when a result overflows or a Pade denominator is
    singular."""
    a = _as_square_stack(a)
    e = _as_square_stack(e)
    if a.shape != e.shape:
        raise DimensionMismatchError(f"expm_frechet of {a.shape} along {e.shape}")
    _require_finite(a, "expm_frechet input")
    _require_finite(e, "expm_frechet direction")
    dtype = np.result_type(a, e)
    a, e = a.astype(dtype, copy=False), e.astype(dtype, copy=False)
    exp_a, frechet = np.empty(a.shape, dtype=dtype), np.empty(a.shape, dtype=dtype)
    n = a.shape[-1]
    if a.size == 0:
        return exp_a, frechet
    flat_a, flat_e, flat_exp, flat_frechet = (x.reshape(-1, n, n) for x in (a, e, exp_a, frechet))
    for rows in _row_slices(flat_a.shape[0], _slice_bytes(n, a.itemsize, frechet=True)):
        _slab(flat_a[rows], flat_e[rows], flat_exp[rows], flat_frechet[rows])
    return exp_a, frechet


# Pade degree m -> ell_m, the largest 1-norm of A on which the [m/m] Pade
# approximant of exp and its Frechet derivative have backward errors
# below 2^-53 (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 30 (2009)
# 1639-1657, Table 6.1).
_ELL = {3: 1.08e-2, 5: 2.00e-1, 7: 7.83e-1, 9: 1.78e0, 13: 4.74e0}
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


def _slice_bytes(n, itemsize, frechet=False):
    """Working set of one n x n slice of a slab of expm, or of
    expm_frechet, whose entries take itemsize bytes (16 complex, 8 real).
    At its peak a slab of expm holds 9 arrays of its input's size (the
    input, its output, A sorted, one scratch array, the Pade solution,
    and A^2, A^4, A^6 with A^8 at m = 9 or with the sum of the terms from
    A^8 on at m = 13), and one of expm_frechet up to 18 (A and E, both
    outputs, A and E sorted, the even powers of A and their derivatives
    up to the sixth, and four sums). Measured under tracemalloc at
    n = 3..64, on complex and real stacks of every Pade degree: 8.8 to
    9.6 and 17.1 to 17.7, and a single real 64 x 64 slice of
    expm_frechet 18.1; 2 x 2 slices reach 9.7 and 17.7 complex, 10.1 and
    18.4 real, since their per-slice norms, degrees and indices weigh
    more against them. The factor 11 is above all of these."""
    return (18 if frechet else 11) * itemsize * n * n


def _runs(degree):
    """Pade degree m (0 for a diagonal slice) -> the slice of a stack
    sorted by degree that holds the slices of degree m, for each degree
    present."""
    degrees = (0, *_PADE)
    bounds = np.searchsorted(degree, [*degrees, 14])
    return {m: slice(start, stop) for m, start, stop in zip(degrees, bounds, bounds[1:])
            if start < stop}


def _norm1(a):
    """The 1-norm (largest column sum of moduli) of each slice."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _slab(a, e, exp_out, frechet_out):
    """exp(A) of each slice of `a`, shape (k, n, n), into exp_out, and
    given a direction `e` (not None) L(A, E) into frechet_out, by the
    algorithm of the module docstring. The work is done on a copy of the
    slab sorted by degree and scaling, so that each degree, and the slices
    that still need a squaring, are one run of it; the outputs are scratch
    until the end."""
    if e is None:
        nonzero = a != 0
        np.einsum("kii->ki", nonzero)[...] = False  # off the diagonal
        is_diagonal = ~nonzero.any(axis=(1, 2))
        if is_diagonal.all():
            with np.errstate(over="ignore"):  # checked below
                _exp_diagonal(a, exp_out)
            if not np.all(np.isfinite(exp_out)):
                raise NonFiniteError("the matrix exponential overflows")
            return
        upper = ~np.tril(nonzero, -1).any(axis=(1, 2))
        lower = ~np.triu(nonzero, 1).any(axis=(1, 2))
        del nonzero
    norm = _norm1(a)
    if not np.all(np.isfinite(norm)):
        raise NonFiniteError("the matrix exponential overflows")
    degree = np.full(a.shape[0], 13)
    for m in (9, 7, 5, 3):
        degree[norm <= _ELL[m]] = m
    if e is None:
        degree[is_diagonal] = 0
    scaling = np.zeros(a.shape[0], dtype=int)
    large = degree == 13
    scaling[large] = np.maximum(0, np.ceil(np.log2(norm[large] / _ELL[13])))
    order = np.lexsort((scaling, degree))
    degree, scaling = degree[order], scaling[order]
    r = np.take(a, order, axis=0)
    l = None if e is None else np.take(e, order, axis=0)
    scratch = np.empty_like(r) if l is None else frechet_out
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m, run in _runs(degree).items():
            if m == 0:
                _exp_diagonal(r[run], r[run])
                continue
            if m == 13:
                scale = 2.0 ** -scaling[run, None, None]
                r[run] *= scale
                if l is not None:
                    l[run] *= scale
            _pade(m, r[run], None if l is None else l[run], exp_out[run], scratch[run])
        del scratch
        # the exponential's exact diagonal and first off-diagonal of each
        # triangular slice that is squared
        triangles = []
        if e is None:
            diagonal = np.einsum("kii->ki", a)[order]
            for triangle, band in ((upper, _superdiagonal), (lower, _subdiagonal)):
                scaled = np.flatnonzero(triangle[order] & (scaling > 0))
                if scaled.size:
                    triangles.append((scaled, band, band(a)[order]))
        for step in range(scaling[-1] + 1):
            live = slice(np.searchsorted(scaling, step), None)
            if step:
                if l is not None:
                    product = np.matmul(r[live], l[live], out=exp_out[live])
                    np.add(product, np.matmul(l[live], r[live], out=frechet_out[live]),
                           out=l[live])
                r[live] = np.matmul(r[live], r[live], out=exp_out[live])
            for scaled, band, entries in triangles:
                chosen = scaled[scaling[scaled] >= step]
                scale = 2.0 ** (step - scaling[chosen])[:, None]
                scaled_diagonal = diagonal[chosen] * scale
                exp_diagonal = np.exp(scaled_diagonal)
                np.einsum("kii->ki", r)[chosen] = exp_diagonal
                if step:
                    band(r)[chosen] = entries[chosen] * scale * _divided_difference(
                        scaled_diagonal, exp_diagonal)
    if not (np.all(np.isfinite(r)) and (l is None or np.all(np.isfinite(l)))):
        raise NonFiniteError("the matrix exponential overflows")
    exp_out[order] = r
    if l is not None:
        frechet_out[order] = l


def _exp_diagonal(a, out):
    """exp of each diagonal slice of `a` into `out` (which may be `a`):
    np.exp of its diagonal, and zeros off it."""
    exp_diagonal = np.exp(np.einsum("kii->ki", a))
    out[...] = 0
    np.einsum("kii->ki", out)[...] = exp_diagonal


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


def _series(into, coefficients, matrices, temp):
    """sum_j coefficients[j] matrices[j] into `into`, summed from the
    highest power down, each product formed in `temp`."""
    pairs = list(zip(coefficients, matrices))[::-1]
    np.multiply(*pairs[0], out=into)
    for c, x in pairs[1:]:
        into += np.multiply(c, x, out=temp)
    return into


def _pade(m, a, e, t, lu):
    """The [m/m] Pade approximant R = (V - U)^-1 (U + V) of exp at each
    slice of `a`, written over `a`, and given a direction `e` (not None)
    its Frechet derivative L, written over `e` (the Frechet paper,
    eqs. (6.11)-(6.13) and Algorithm 6.4). U = AW and V are polynomials
    in A^2; their derivatives L_U = A L_W + E W and L_V come from those of
    the even powers, M_2 = AE + EA and M_2j = A^(2j-2) M_2 + M_(2j-2) A^2;
    and L = (V - U)^-1 (L_U + L_V + (L_U - L_V) R). The sums are
    accumulated term by term in the order of the formulas, in t and lu
    (scratch of a's shape) and in arrays of their own; without a
    direction, W, U and V take lu, t and `a` itself, so that the
    exponential holds no array the pair does not need."""
    b = _PADE[m]
    frechet = e is not None
    powers, derivatives = [a @ a], []
    if frechet:
        derivatives.append(np.matmul(a, e))
        derivatives[0] += np.matmul(e, a, out=t)
    for _ in range(2, 4 if m == 13 else (m + 1) // 2):
        if frechet:
            derivatives.append(np.matmul(powers[-1], derivatives[0]))
            derivatives[-1] += np.matmul(derivatives[-2], powers[0], out=t)
        powers.append(powers[-1] @ powers[0])

    high = np.empty_like(a) if m == 13 else None
    dhigh = np.empty_like(a) if m == 13 and frechet else None
    if frechet:
        p, dp = np.empty_like(a), np.empty_like(a)
        # the buffers of W, U, V, the scratch of V's sums, and V - U
        w, u, v, scratch, q = p, e, p, t, a
    else:
        w, u, v, scratch, q = lu, t, a, lu, lu

    def polynomial(c, into, temp):
        """sum_j c_j A^2j into `into`, with a direction its derivative into
        dp; at m = 13 the terms from A^8 on as A^6 times a polynomial in
        A^2. `temp` is scratch."""
        np.add(_series(into, c[1:], powers, temp), c[0] * np.eye(a.shape[-1]), out=into)
        if frechet:
            _series(dp, c[1:], derivatives, temp)
        if m == 13:
            _series(high, c[4:], powers, temp)
            np.add(into, np.matmul(powers[2], high, out=temp), out=into)
            if frechet:
                np.matmul(powers[2], _series(dhigh, c[4:], derivatives, temp), out=temp)
                np.add(temp, np.matmul(derivatives[2], high, out=dhigh), out=temp)
                np.add(dp, temp, out=dp)

    polynomial(b[1::2], w, t)  # W and L_W
    if frechet:
        np.add(np.matmul(a, dp, out=lu), np.matmul(e, p, out=t), out=lu)  # L_U
    np.matmul(a, w, out=u)
    polynomial(b[0::2], v, scratch)  # V and L_V
    del powers, derivatives, high, dhigh
    np.subtract(v, u, out=q)
    try:
        r = np.linalg.solve(q, np.add(u, v, out=u))
        if frechet:
            np.matmul(np.subtract(lu, dp, out=t), r, out=p)
            lu += dp
            lu += p
            e[...] = np.linalg.solve(q, lu)
    except np.linalg.LinAlgError:
        raise NonFiniteError("the matrix exponential has a singular Pade denominator") from None
    a[...] = r
