"""The matrix exponential and its Frechet derivative, of a matrix or of
a stack of them.

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
a squaring take it.

The Frechet derivative L(A, E) comes with exp(A) from Algorithm 6.4 of
Al-Mohy and Higham ("Computing the Frechet derivative of the matrix
exponential, with an application to condition number estimation", SIAM
J. Matrix Anal. Appl. 30 (2009) 1639-1657), stacked the same way: the
Pade approximant of degree m in {3, 5, 7, 9, 13} and its derivative share
the even powers of A, so the pair costs about three exponentials. Each
slice gets its own degree from its 1-norm, and at m = 13 its own scaling
s; the squarings L <- RL + LR, R <- R^2 run only on the slices that
still need one.

Both work through a stack one slab at a time: as many slices as keep
the slab's whole working set, its input, its share of the output and
every temporary, within `linalg.SLAB_BYTES` (`_slice_bytes`), the
package's one memory budget for every stacked loop (`linalg._row_slices`).
A slab is sorted by Pade degree and then by scaling, so each degree is
one run of it and the slices that still need a squaring are its tail:
the approximants and the squarings work on views of one sorted copy,
their sums accumulate in preallocated arrays (ufuncs with out=), the
slab's share of the output is scratch until the end, and of A^8 only its
1-norm is kept. The
caller's input is never written. Each slice takes the same operations
in the same order whatever slab it falls in, so its result is bit for
bit the one it gets alone. At its peak a slab of expm holds about 7 to 9
times its input besides that input and its output, and one of
expm_frechet about 13 to 14 besides A, E and the two outputs (measured
under tracemalloc at n = 2..64, every slab of degree 13).

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
    (..., n, n): see the module docstring. Raises NonFiniteError when a
    result overflows or a Pade denominator is singular."""
    a = _as_square_stack(a)
    _require_finite(a, "expm input")
    out = np.empty(a.shape, dtype=complex)
    n = a.shape[-1]
    if out.size == 0:
        return out
    flat, flat_out = a.reshape(-1, n, n), out.reshape(-1, n, n)
    for rows in _row_slices(flat.shape[0], _slice_bytes(n)):
        _expm_slab(flat[rows], flat_out[rows])
    return out


def expm_frechet(a, e):
    """exp(A) and its Frechet derivative at A in the direction E,
    returned as the pair (exp(A), L(A, E)), for matrices or stacks of
    them of one shape (..., n, n): see the module docstring. Raises
    NonFiniteError when a result overflows or a Pade denominator is
    singular."""
    a = _as_square_stack(a)
    e = _as_square_stack(e)
    if a.shape != e.shape:
        raise DimensionMismatchError(f"expm_frechet of {a.shape} along {e.shape}")
    _require_finite(a, "expm_frechet input")
    _require_finite(e, "expm_frechet direction")
    exp_a, frechet = np.empty(a.shape, dtype=complex), np.empty(a.shape, dtype=complex)
    n = a.shape[-1]
    if a.size == 0:
        return exp_a, frechet
    flat_a, flat_e, flat_exp, flat_frechet = (x.reshape(-1, n, n) for x in (a, e, exp_a, frechet))
    for rows in _row_slices(flat_a.shape[0], _slice_bytes(n, frechet=True)):
        _frechet_slab(flat_a[rows], flat_e[rows], flat_exp[rows], flat_frechet[rows])
    return exp_a, frechet


# Pade degree m -> theta_m, the largest 1-norm on which the [m/m] Pade
# approximant of exp has a backward error below 2^-53, and |c_(2m+1)|,
# the leading coefficient of that error's series (Al-Mohy and Higham
# 2009, Table 3.1 and eq. (5.1)).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_BACKWARD = {3: 1 / 100800, 5: 1 / 10059033600, 7: 1 / 4487938430976000,
             9: 1 / 5914384781877411840000, 13: 1 / 113250775606021113483283660800000000}
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
def _slice_bytes(n, frechet=False):
    """Working set of one n x n slice of a slab of expm, or of
    expm_frechet. At its peak a slab of expm holds up to 11 arrays of its
    input's size (the input, its output, A sorted, A^2, A^4, A^6, two
    sums, the Pade solution and index arrays), and one of expm_frechet up
    to 18 (A and E, both outputs, A and E sorted, the even powers of A and
    their derivatives up to the sixth, and four sums); measured under
    tracemalloc at n = 2..64, on stacks of every Pade degree."""
    return (18 if frechet else 11) * 16 * n * n


def _runs(degree):
    """Pade degree m (0 for a diagonal slice) -> the slice of a stack
    sorted by degree that holds the slices of degree m, for each degree
    present."""
    degrees = (0, *_PADE)
    bounds = np.searchsorted(degree, [*degrees, 14])
    return {m: slice(start, stop) for m, start, stop in zip(degrees, bounds, bounds[1:])
            if start < stop}


def _expm_slab(a, out):
    """exp of each slice of `a`, shape (k, n, n), into `out`. A diagonal
    slice (a zero one too) is np.exp of its diagonal; every other slice
    gets its own Pade degree and scaling, so its result does not depend on
    the rest of the stack."""
    nonzero = a != 0
    np.einsum("kii->ki", nonzero)[...] = False  # off the diagonal
    general = nonzero.any(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if general.any():
            upper = ~np.tril(nonzero, -1).any(axis=(1, 2))
            lower = ~upper & ~np.triu(nonzero, 1).any(axis=(1, 2))
            _expm_general(a, out, general, upper, lower)
        else:
            out[...] = 0
            np.einsum("kii->ki", out)[...] = np.exp(np.einsum("kii->ki", a))
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("the matrix exponential overflows")


def _norm1(a):
    """The 1-norm (largest column sum of moduli) of each slice."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _ell(a, norm, m):
    """ell(A, m) of Al-Mohy and Higham (2009, eq. (5.3)) for each slice:
    the squarings that degree m needs on top of theta_m, from the exact
    1-norm of |A|^(2m+1), the largest entry of the row 1^T |A|^(2m+1). The
    row is formed one row-times-matrix product at a time, with |A| divided
    by its 1-norm so that no power overflows."""
    unit = np.abs(a)
    unit /= norm[:, None, None]
    row = np.ones((a.shape[0], 1, a.shape[-1]))
    for _ in range(2 * m + 1):
        row = row @ unit
    with np.errstate(divide="ignore"):  # |A|^(2m+1) = 0: ell is 0
        log2_alpha = (np.log2(_BACKWARD[m]) + np.log2(row.max(axis=(1, 2)))
                      + 2 * m * np.log2(norm))
    return np.maximum(0.0, np.ceil((log2_alpha + 53) / (2 * m))).astype(int)


def _expm_general(a, out, general, upper, lower):
    """Algorithm 5.1 of Al-Mohy and Higham (2009), with exact 1-norms, on
    each slice of `a` flagged `general`, into `out`: pick the Pade degree
    m and the scaling s, evaluate the [m/m] approximant at 2^-s A, and
    square the result s times. The other slices are diagonal and get
    np.exp of their diagonal. `upper` and `lower` flag the triangular
    slices. The work is done on a copy of the stack sorted by degree and
    scaling, so that each degree, and the slices that still need a
    squaring, are one run of it; `out` is scratch until the end."""
    k = a.shape[0]
    norm = _norm1(a)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d6 = _norm1(a6) ** (1 / 6)
    eta = np.maximum(_norm1(a4) ** (1 / 4), d6)
    degree = np.where(general, 13, 0)  # 0: a diagonal slice
    scaling = np.zeros(k, dtype=int)

    def settle(m):
        """Degree m for the undecided slices within theta_m with ell = 0."""
        trial = np.flatnonzero((degree == 13) & (eta <= _THETA[m]))
        if trial.size:
            degree[trial[_ell(a[trial], norm[trial], m) == 0]] = m

    settle(3)
    settle(5)
    if np.any(degree == 13):
        d8 = _norm1(np.matmul(a4, a4, out=out)) ** (1 / 8)
        eta = np.maximum(d6, d8)
        settle(7)
        settle(9)
    rest = np.flatnonzero(degree == 13)
    if rest.size:
        both = (a4, a6) if rest.size == k else (a4[rest], a6[rest])
        d10 = _norm1(np.matmul(*both, out=out[:rest.size])) ** (1 / 10)
        del both
        least = np.minimum(eta[rest], np.maximum(d8[rest], d10))
        if not np.all(np.isfinite(least)):  # a power of A overflows
            raise NonFiniteError("the matrix exponential overflows")
        with np.errstate(divide="ignore"):  # least = 0: no scaling
            s = np.maximum(0.0, np.ceil(np.log2(least / _THETA[13]))).astype(int)
        scale = 2.0 ** -s
        scaled = a[rest]
        scaled *= scale[:, None, None]
        scaling[rest] = s + _ell(scaled, norm[rest] * scale, 13)
        del scaled

    # Sorted by degree, then by scaling, the slices of each degree are one
    # run of the stack, and those that still need a squaring are its tail.
    order = np.lexsort((scaling, degree))
    degree, scaling, upper, lower = degree[order], scaling[order], upper[order], lower[order]
    r = np.take(a, order, axis=0)
    powers = {2: a2, 4: a4, 6: a6}
    del a2, a4, a6
    spare = np.empty_like(a)
    for p, power in powers.items():
        np.take(power, order, axis=0, out=spare, mode="clip")  # "raise" would buffer out
        powers[p], spare = spare, power
    x, y = spare, np.empty_like(a)

    for m, run in _runs(degree).items():
        if m == 0:
            exp_diagonal = np.exp(np.einsum("kii->ki", r[run]))
            r[run] = 0
            np.einsum("kii->ki", r[run])[...] = exp_diagonal
            continue
        if m == 13:
            scale = 2.0 ** -scaling[run, None, None]
            r[run] *= scale
            for p, power in powers.items():
                power[run] *= scale ** p
        r[run] = _pade(m, r[run], {p: power[run] for p, power in powers.items()},
                       x[run], y[run], out[run])
    del powers, x, y

    # Squaring. On a triangular slice the diagonal and the first
    # off-diagonal of each power are set from their exact values
    # (Al-Mohy and Higham 2009, Code Fragment 2.1), before the first
    # squaring (the diagonal) and after each.
    diagonal = np.einsum("kii->ki", a)[order]
    bands = {_superdiagonal: _superdiagonal(a)[order], _subdiagonal: _subdiagonal(a)[order]}
    triangles = [(np.flatnonzero(triangle & (scaling > 0)), band)
                 for triangle, band in ((upper, _superdiagonal), (lower, _subdiagonal))]
    triangles = [(scaled, band) for scaled, band in triangles if scaled.size]
    for step in range(scaling[-1] + 1):
        live = slice(np.searchsorted(scaling, step), None)
        if step:
            r[live] = np.matmul(r[live], r[live], out=out[live])
        for scaled, band in triangles:
            chosen = scaled[scaling[scaled] >= step]
            scale = 2.0 ** (step - scaling[chosen])[:, None]
            scaled_diagonal = diagonal[chosen] * scale
            exp_diagonal = np.exp(scaled_diagonal)
            np.einsum("kii->ki", r)[chosen] = exp_diagonal
            if step:
                band(r)[chosen] = bands[band][chosen] * scale * _divided_difference(
                    scaled_diagonal, exp_diagonal)
    out[order] = r


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


def _pade(m, a, powers, x, y, t):
    """The [m/m] Pade approximant p_m(-A)^-1 p_m(A) of exp(A) on each slice
    of `a`, from its even powers A^2, A^4 and A^6 (Higham 2005, section 2).
    The sums are accumulated in x, y and t, arrays of a's shape, term by
    term in the order of the formulas; `a` is overwritten."""
    b = _PADE[m]
    identity = np.eye(a.shape[-1])

    def add(into, c, power, product):
        """into += c * power, the product formed in `product`."""
        np.add(into, np.multiply(c, power, out=product), out=into)

    if m == 13:
        a2, a4, a6 = powers[2], powers[4], powers[6]
        np.multiply(b[13], a6, out=x)
        add(x, b[11], a4, t)
        add(x, b[9], a2, t)
        np.matmul(a6, x, out=y)
        for c, power in ((b[7], a6), (b[5], a4), (b[3], a2)):
            add(y, c, power, t)
        y += b[1] * identity
        u = np.matmul(a, y, out=x)
        np.multiply(b[12], a6, out=y)
        add(y, b[10], a4, t)
        add(y, b[8], a2, t)
        v = np.matmul(a6, y, out=a)
        for c, power in ((b[6], a6), (b[4], a4), (b[2], a2)):
            add(v, c, power, t)
        v += b[0] * identity
    else:
        if m == 9:
            powers = {**powers, 8: np.matmul(powers[4], powers[4], out=x)}
        even = [powers[p] for p in range(2, m, 2)]
        np.add(b[1] * identity, np.multiply(b[3], even[0], out=y), out=y)
        for j, power in enumerate(even[1:], 2):
            add(y, b[2 * j + 1], power, t)
        u = np.matmul(a, y, out=t)
        v = np.add(b[0] * identity, np.multiply(b[2], even[0], out=a), out=a)
        for j, power in enumerate(even[1:], 2):
            add(v, b[2 * j], power, y)
    q = np.subtract(v, u, out=y)
    try:
        return np.linalg.solve(q, np.add(v, u, out=v))
    except np.linalg.LinAlgError:
        raise NonFiniteError("the matrix exponential has a singular Pade denominator") from None


def _frechet_slab(a, e, exp_out, frechet_out):
    """exp(A) and L(A, E) of each slice pair of `a` and `e`, shape
    (k, n, n), into exp_out and frechet_out: Algorithm 6.4 of Al-Mohy and
    Higham's Frechet paper (see the module docstring). Each slice gets its
    own Pade degree m, the least with ||A||_1 <= ell_m, or m = 13 and its
    own scaling s, so its result does not depend on the rest of the
    stack; then L <- RL + LR and R <- R^2 on the slices that still need a
    squaring. The outputs are scratch until the end."""
    norm = _norm1(a)
    if not np.all(np.isfinite(norm)):
        raise NonFiniteError("the matrix exponential overflows")
    degree = np.full(a.shape[0], 13)
    for m in (9, 7, 5, 3):
        degree[norm <= _ELL[m]] = m
    scaling = np.zeros(a.shape[0], dtype=int)
    large = degree == 13
    scaling[large] = np.maximum(0, np.ceil(np.log2(norm[large] / _ELL[13])))
    # Sorted by degree, then by scaling, the slices of each degree are one
    # run of the stack, and those that still need a squaring are its tail.
    # The scaled slices are overwritten by R and L.
    order = np.lexsort((scaling, degree))
    degree, scaling = degree[order], scaling[order]
    r, l = np.take(a, order, axis=0), np.take(e, order, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m, run in _runs(degree).items():
            if m == 13:
                scale = 2.0 ** -scaling[run, None, None]
                r[run] *= scale
                l[run] *= scale
            _pade_frechet(m, r[run], l[run], exp_out[run], frechet_out[run])
        for step in range(1, scaling[-1] + 1):
            live = slice(np.searchsorted(scaling, step), None)
            product = np.matmul(r[live], l[live], out=exp_out[live])
            np.add(product, np.matmul(l[live], r[live], out=frechet_out[live]), out=l[live])
            r[live] = np.matmul(r[live], r[live], out=exp_out[live])
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(l))):
        raise NonFiniteError("the matrix exponential overflows")
    exp_out[order] = r
    frechet_out[order] = l


def _pade_frechet(m, a, e, t, lu):
    """The [m/m] Pade approximant R = (V - U)^-1 (U + V) of exp at each
    slice of `a` and its Frechet derivative L in the direction `e` (the
    Frechet paper, eqs. (6.11)-(6.13) and Algorithm 6.4), written over `a`
    and `e`. U = AW and V are polynomials in A^2; their derivatives
    L_U = A L_W + E W and L_V come from those of the even powers,
    M_2 = AE + EA and M_2j = A^(2j-2) M_2 + M_(2j-2) A^2; and
    L = (V - U)^-1 (L_U + L_V + (L_U - L_V) R). The sums are accumulated
    term by term in the order of the formulas, in t and lu (scratch of a's
    shape) and in arrays of their own."""
    b = _PADE[m]
    powers, derivatives = [a @ a], [np.matmul(a, e)]
    derivatives[0] += np.matmul(e, a, out=t)
    for _ in range(2, 4 if m == 13 else (m + 1) // 2):
        derivatives.append(np.matmul(powers[-1], derivatives[0]))
        derivatives[-1] += np.matmul(derivatives[-2], powers[0], out=t)
        powers.append(powers[-1] @ powers[0])

    def series(into, coefficients, matrices):  # summed from the highest power down
        pairs = list(zip(coefficients, matrices))[::-1]
        np.multiply(*pairs[0], out=into)
        for c, x in pairs[1:]:
            into += np.multiply(c, x, out=t)
        return into

    p, dp = np.empty_like(a), np.empty_like(a)
    high, dhigh = (np.empty_like(a), np.empty_like(a)) if m == 13 else (None, None)

    def polynomial(c):
        """sum_j c_j A^2j and its derivative, into p and dp; at m = 13 the
        terms from A^8 on as A^6 times a polynomial in A^2."""
        np.add(series(p, c[1:], powers), c[0] * np.eye(a.shape[-1]), out=p)
        series(dp, c[1:], derivatives)
        if m == 13:
            series(high, c[4:], powers)
            np.add(p, np.matmul(powers[2], high, out=t), out=p)
            np.matmul(powers[2], series(dhigh, c[4:], derivatives), out=t)
            np.add(t, np.matmul(derivatives[2], high, out=dhigh), out=t)
            np.add(dp, t, out=dp)

    polynomial(b[1::2])  # W and L_W
    np.add(np.matmul(a, dp, out=lu), np.matmul(e, p, out=t), out=lu)  # L_U
    u = np.matmul(a, p, out=e)
    polynomial(b[0::2])  # V and L_V
    del powers, derivatives, high, dhigh
    q = np.subtract(p, u, out=a)
    try:
        r = np.linalg.solve(q, np.add(u, p, out=u))
        np.matmul(np.subtract(lu, dp, out=t), r, out=p)
        lu += dp
        lu += p
        e[...] = np.linalg.solve(q, lu)
    except np.linalg.LinAlgError:
        raise NonFiniteError("the matrix exponential has a singular Pade denominator") from None
    a[...] = r
