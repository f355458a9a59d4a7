import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from lindblad_pc import (
    assemble,
    builtin,
    commutator,
    expm,
    integral_at,
    minimal_poly_degree,
    null_space,
    unvec,
    vec,
)
from lindblad_pc import exponential, linalg, model
from lindblad_pc.commutativity import default_sample_times
from lindblad_pc.errors import DimensionMismatchError, NonFiniteError
from lindblad_pc.exponential import expm_frechet

from conftest import MODEL_PARAMS, driven


# A float64 stack against the same stack taken as complex: the two round
# differently in each product, and the squarings compound that as they do
# any rounding, so they are held to the bound the complex results meet
# against scipy. At most 250 eps was seen (relative to the 1-norm of the
# result), on a random 48 x 48 real slice of 1-norm 196 whose real result
# is the one nearer scipy's; 7 eps on cascade population blocks.
REAL_TOL = 1e-13


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_with_identity(self):
        a, b = 2.0, -3.0
        out = np.kron(np.diag([a, b]), np.eye(2))
        assert np.array_equal(out, np.diag([a, a, b, b]))

    def test_mixed_product_with_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex(rng, 2, 2)
            b = random_complex(rng, 2, 2)
            x = random_complex(rng, 2)
            y = random_complex(rng, 2)
            lhs = np.kron(a, b) @ np.kron(x, y)
            rhs = np.kron(a @ x, b @ y)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))

    def test_unvec_inverts_vec(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, 3, 3)
        assert np.array_equal(unvec(vec(m), 3), m)

    def test_unvec_of_a_stack_unvecs_each_row(self):
        rng = np.random.default_rng(5)
        rows = random_complex(rng, 2, 4, 9)
        out = unvec(rows, 3)
        assert out.shape == (2, 4, 3, 3)
        for i in np.ndindex(2, 4):
            assert np.array_equal(out[i], unvec(rows[i], 3))

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(DimensionMismatchError):
            unvec(np.zeros(5), 2)
        with pytest.raises(DimensionMismatchError):
            unvec(np.zeros((4, 5)), 2)

    def test_column_lemma_on_random_triples(self):
        # vec(A B C) = (C^T kron A) vec(B)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 3, 3)
            c = random_complex(rng, 3, 3)
            lhs = vec(a @ b @ c)
            rhs = np.kron(c.T, a) @ vec(b)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 3, 3)
        assert np.abs(commutator(a, a)).max() == 0.0

    def test_diagonal_matrices_commute(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([-1.0, 0.5, 2.0])
        assert np.abs(commutator(a, b)).max() == 0.0

    def test_ladder_pair(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        e21 = e12.T.copy()
        assert np.array_equal(commutator(e12, e21), np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))


class TestExpm:
    def test_zero(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        lam = np.array([0.3, -1.0, 2.0 + 1.0j])
        out = expm(np.diag(lam))
        assert np.abs(out - np.diag(np.exp(lam))).max() <= 1e-13

    def test_nilpotent_is_truncated_series(self):
        n = np.zeros((3, 3), dtype=complex)
        n[0, 1] = n[1, 2] = 1.0
        expected = np.eye(3) + n + n @ n / 2.0
        assert np.abs(expm(n) - expected).max() <= 1e-15

    def test_derivative_property(self):
        # d/dt expm(t A) at t=1 equals A expm(A)
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            a /= np.linalg.norm(a)
            diff = (expm((1 + h) * a) - expm((1 - h) * a)) / (2 * h)
            assert np.abs(diff - a @ expm(a)).max() <= 1e-6

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            expm(bad)


class TestExpmFrechet:
    def test_commuting_direction_gives_e_times_exp(self):
        # for E commuting with A, L(A, E) = E exp(A)
        rng = np.random.default_rng(8)
        a = random_complex(rng, 4, 4)
        a /= np.linalg.norm(a)
        e = 0.5 * a + 2.0 * np.eye(4)
        exp_a, frechet = expm_frechet(a, e)
        assert np.abs(exp_a - expm(a)).max() <= 1e-13
        assert np.abs(frechet - e @ expm(a)).max() <= 1e-13

    def test_matches_central_difference(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(5):
            a = random_complex(rng, 4, 4)
            e = random_complex(rng, 4, 4)
            a /= np.linalg.norm(a)
            e /= np.linalg.norm(e)
            diff = (expm(a + h * e) - expm(a - h * e)) / (2 * h)
            assert np.abs(expm_frechet(a, e)[1] - diff).max() <= 1e-8

    def test_rejects_non_finite_input_and_direction(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            expm_frechet(bad, np.eye(2))
        with pytest.raises(NonFiniteError):
            expm_frechet(np.eye(2), bad)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatchError):
            expm_frechet(np.eye(2), np.eye(3))

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError, match="overflows"):
            expm_frechet(np.array([[800.0, 1.0], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(NonFiniteError, match="overflows"):
            expm_frechet(np.full((3, 3), 1e307), np.eye(3))


class TestStacks:
    def test_real_in_real_out(self):
        # a float64 stack gives float64 results, an integer or bool one is
        # taken as float64, and a real A along a complex E gives complex
        nilpotent = np.array([[0, 1], [0, 0]])
        assert expm(nilpotent).dtype == np.float64
        assert np.array_equal(expm(nilpotent), [[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(expm(np.eye(2, dtype=bool)), np.diag([np.e, np.e]))
        exp_a, frechet = expm_frechet(nilpotent, np.eye(2, dtype=bool))
        assert exp_a.dtype == frechet.dtype == np.float64
        assert np.array_equal(frechet, exp_a)  # L(A, I) = exp(A)
        pair = expm_frechet(np.zeros((3, 2, 2)), np.full((3, 2, 2), 1j))
        assert [x.dtype for x in pair] == [np.complex128] * 2
        assert expm(np.zeros((2, 2), dtype=np.complex64)).dtype == np.complex128

    def test_stacked_expm_matches_each_slice(self):
        rng = np.random.default_rng(12)
        stack = random_complex(rng, 3, 5, 4, 4)
        out = expm(stack)
        assert out.shape == stack.shape
        for index in np.ndindex(3, 5):
            assert np.abs(out[index] - expm(stack[index])).max() <= 1e-15

    def test_stacked_expm_rejects_non_square_and_non_finite(self):
        with pytest.raises(DimensionMismatchError):
            expm(np.zeros((4, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            expm(np.zeros(4))
        stack = np.zeros((4, 3, 3))
        stack[2, 1, 0] = np.nan
        with pytest.raises(NonFiniteError):
            expm(stack)

    @pytest.mark.parametrize("n", [*range(1, 9), 12, 13, 16, 17, 24, 64])
    def test_stacked_frechet_matches_scipy(self, n):
        rng = np.random.default_rng(100 + n)
        a = random_complex(rng, 2, 3, n, n) / np.sqrt(n)
        e = random_complex(rng, 2, 3, n, n)
        exp_a, frechet = expm_frechet(a, e)
        assert exp_a.shape == frechet.shape == a.shape
        for i in np.ndindex(2, 3):
            ref_exp, ref_frechet = scipy.linalg.expm_frechet(a[i], e[i])
            assert (np.linalg.norm(exp_a[i] - ref_exp)
                    <= 1e-13 * np.linalg.norm(ref_exp))
            assert (np.linalg.norm(frechet[i] - ref_frechet)
                    <= 1e-13 * np.linalg.norm(ref_frechet))

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 16])
    def test_each_expm_slice_as_it_comes_out_alone(self, n, monkeypatch):
        # zero, diagonal, upper and lower triangular and general slices,
        # with 1-norms from 1e-3 to 1e3: every Pade degree, and up to eight
        # squarings at degree 13, across slabs of a few slices each
        rng = np.random.default_rng(n)
        norms = 10.0 ** np.linspace(-3, 3, 30)
        a = random_complex(rng, norms.size, n, n)
        a *= (norms / norm1(a))[:, None, None]
        a[3::5] = np.triu(a[3::5])
        a[4::5] = np.tril(a[4::5])
        a[::10] = 0
        a[5::10] = np.einsum("kii->ki", a[5::10])[:, :, None] * np.eye(n)
        monkeypatch.setattr(linalg, "SLAB_BYTES", 1024 * n * n)
        assert 1 < linalg.SLAB_BYTES // exponential._slice_bytes(n, 16) < norms.size
        order = rng.permutation(norms.size)
        for stack in (a, a[order]):
            before = stack.copy()
            out = expm(stack)
            assert np.array_equal(stack, before)
            for i in range(norms.size):
                assert np.array_equal(out[i], expm(stack[i]))

    def test_stacked_frechet_rejects_non_finite_slices(self):
        a = np.zeros((3, 2, 2))
        e = np.zeros((3, 2, 2))
        e[1, 0, 1] = np.inf
        with pytest.raises(NonFiniteError):
            expm_frechet(a, e)
        with pytest.raises(DimensionMismatchError):
            expm_frechet(a, np.zeros((2, 2, 2)))


class TestWorkingSet:
    """expm and expm_frechet hold one slab of work at a time: on a stack of
    four or more slabs, complex or real, what a call allocates beyond its
    results stays within linalg.SLAB_BYTES, and its inputs come back
    unchanged."""

    @staticmethod
    def stacks(n, rng):
        # four slabs of SLAB_BYTES bytes of input, whatever a slab holds;
        # 1-norms from 1e-3 to 1e2 in order, so that some slabs are all of
        # degree 13 with up to five squarings; then the real parts of such
        # a pair, four real slabs, which hold twice the slices
        for itemsize in (16, 8):
            count = 4 * max(1, linalg.SLAB_BYTES // (itemsize * n * n))
            a, e = (random_complex(rng, count, n, n) for _ in range(2))
            if itemsize == 8:
                a, e = a.real.copy(), e.real.copy()
            a *= (10.0 ** np.linspace(-3, 2, count) / norm1(a))[:, None, None]
            yield a, e

    @staticmethod
    def traced(fn, *args):
        """fn(*args) and the peak bytes it allocated beyond its results."""
        tracemalloc.start()
        try:
            result = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (result if isinstance(result, tuple) else (result,)))
        return result, peak - kept

    @pytest.mark.parametrize("n", [2, 4, 6, 16, 32, 64])
    def test_expm_holds_one_slab(self, n):
        for a, _ in self.stacks(n, np.random.default_rng(n)):
            before = a.copy()
            out, extra = self.traced(expm, a)
            assert np.array_equal(a, before)
            assert out.dtype == a.dtype
            assert extra <= linalg.SLAB_BYTES
            assert np.array_equal(out[-1], expm(a[-1]))

    @pytest.mark.parametrize("n", [2, 4, 6, 16, 32, 64])
    def test_expm_frechet_holds_one_slab(self, n):
        for a, e in self.stacks(n, np.random.default_rng(n)):
            before = a.copy(), e.copy()
            (exp_a, frechet), extra = self.traced(expm_frechet, a, e)
            assert np.array_equal(a, before[0]) and np.array_equal(e, before[1])
            assert exp_a.dtype == frechet.dtype == a.dtype
            assert extra <= linalg.SLAB_BYTES
            alone = expm_frechet(a[-1], e[-1])
            assert np.array_equal(exp_a[-1], alone[0]) and np.array_equal(frechet[-1], alone[1])


SLICE_KINDS = ("random", "cascade", "ladder", "nilpotent", "zero", "diagonal")


def expm_slice(kind, n, rng):
    """One n x n slice of the kind: a random complex matrix of 1-norm up to
    about 40; the population block of an n-level cascade (level k+1 decays
    to k) at a time up to 1e6, upper bidiagonal, where expm squares up to
    about 20 times; that of the reverse ladder (k pumped to k+1), lower
    bidiagonal; a strictly upper triangular (nilpotent) matrix; zero; or a
    diagonal matrix."""
    if kind == "random":
        return random_complex(rng, n, n) * 10.0 ** rng.uniform(-3, 1) / np.sqrt(n)
    if kind in ("cascade", "ladder"):
        block = population_block(10.0 ** rng.uniform(-2, 6) * rng.uniform(0.1, 1.0, size=n - 1))
        return block if kind == "cascade" else block[::-1, ::-1]
    if kind == "nilpotent":
        return np.triu(random_complex(rng, n, n), 1) * 10.0 ** rng.uniform(-2, 0.5)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    return np.diag(random_complex(rng, n) * 10.0 ** rng.uniform(-2, 1))


def population_block(weights):
    """The population block of an n-level cascade with level k+1 decaying
    to k at weights[k - 1]: the block of B(t) for the rate integrals, of
    L(t) for the rates."""
    n = len(weights) + 1
    block = np.diag(weights, 1).astype(complex)
    block[range(1, n), range(1, n)] = -weights
    return block


def norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


class TestExpmAgainstScipy:
    """The stacked expm against scipy.linalg.expm, slice by slice, on one
    stack mixing every kind of slice; and each slice of the stack bit for
    bit as it comes out alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.lists(st.sampled_from(SLICE_KINDS), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([expm_slice(kind, n, rng) for kind in kinds])
        out = expm(stack)
        for kind, a, ours in zip(kinds, stack, out):
            assert np.array_equal(ours, expm(a))
            ref = scipy.linalg.expm(a)
            if kind in ("zero", "diagonal"):
                assert np.array_equal(ours, np.diag(np.exp(np.diag(a))))
                assert np.array_equal(ours, ref)
            else:
                assert norm1(ours - ref) <= 1e-13 * norm1(ref)
        # The real parts of the stack, a float64 stack: float64 out, within
        # REAL_TOL of the same stack taken as complex, and as close to scipy
        # as that is (a real part can be far worse conditioned than the
        # complex slice it came from).
        real, as_complex = expm(stack.real), expm(stack.real.astype(complex))
        assert real.dtype == np.float64
        for kind, a, ours, twin in zip(kinds, stack.real, real, as_complex):
            assert np.array_equal(ours, expm(a))
            assert norm1(ours - twin) <= REAL_TOL * norm1(twin)
            ref = scipy.linalg.expm(a)
            if kind in ("zero", "diagonal"):
                assert np.array_equal(ours, ref)
            else:
                assert norm1(ours - ref) <= norm1(twin - ref) + REAL_TOL * norm1(ref)

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError, match="overflows"):
            expm(np.array([[800.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteError, match="overflows"):
            expm(np.diag([1000.0, 0.0]))


class TestExpmAgainstExactArithmetic:
    """expm of the largest block of B(t) against mpmath's exponential in
    40 digits, at the twelve sample times of the window t_max = 1e3, to
    the rounding model that `solver._propagate` states: a relative 1-norm
    error within 2 eps (1 + ||B(t)||_1)."""

    @pytest.mark.parametrize("name", ["v3", "lambda3", "cascade4", "driven8"])
    def test_largest_generator_block(self, name):
        # at most 0.70 of the bound was seen (driven8), 0.27 on the others
        mpmath = pytest.importorskip("mpmath")
        loaded = driven(8) if name == "driven8" else builtin(name, MODEL_PARAMS[name])
        g = assemble(loaded, 1e3)
        _, terms = max(g.groups, key=lambda group: group[0].shape[1])
        table = model.integral_table(g, default_sample_times(g.window))
        blocks = np.tensordot(table, terms[:, 0], axes=1)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for block, ours in zip(blocks, expm(blocks)):
                exact = mpmath.expm(mpmath.matrix(block.tolist()))
                exact = np.array(exact.tolist(), dtype=complex)
                assert norm1(ours - exact) <= 2 * eps * (1 + norm1(block)) * norm1(exact)


FRECHET_KINDS = ("random", "zero", "diagonal", "upper", "lower", "cascade")


def frechet_pair(kind, n, rng):
    """One (A, E) slice pair of the kind. A is a random complex matrix of
    1-norm up to about 10 sqrt(n), or its diagonal, upper or lower
    triangle, or zero, with a random direction E; or B(t) and L(t) on the
    population block of an n-level cascade at a time t up to 1e6, whose
    rates lie in [0.1, 1]."""
    if kind == "cascade":
        t = 10.0 ** rng.uniform(-2, 6)
        return (population_block(t * rng.uniform(0.1, 1.0, size=n - 1)),
                population_block(rng.uniform(0.1, 1.0, size=n - 1)))
    a = random_complex(rng, n, n) * 10.0 ** rng.uniform(-3, 1)
    a = {"random": a, "zero": 0 * a, "diagonal": np.diag(np.diag(a)),
         "upper": np.triu(a), "lower": np.tril(a)}[kind]
    return a, random_complex(rng, n, n)


class TestFrechetAgainstScipy:
    """The stacked expm_frechet against scipy.linalg.expm_frechet, slice
    by slice; and each slice of a stack bit for bit as it comes out alone."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.lists(st.sampled_from(FRECHET_KINDS), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        a, e = map(np.array, zip(*(frechet_pair(kind, n, rng) for kind in kinds)))
        exp_a, frechet = expm_frechet(a, e)
        for i, kind in enumerate(kinds):
            ref_exp, ref_frechet = scipy.linalg.expm_frechet(a[i], e[i])
            assert norm1(exp_a[i] - ref_exp) <= 1e-13 * norm1(ref_exp), kind
            # Late in a cascade exp(B(t)) has settled, and L(B(t), L(t)),
            # its time derivative, is rounding noise far below its natural
            # scale ||exp(A)|| ||E|| (3e-18 against 1.75 at n = 13, t = 1.2e3):
            # no two implementations agree relative to that noise.
            scale = max(norm1(ref_frechet), norm1(ref_exp) * norm1(e[i]))
            assert norm1(frechet[i] - ref_frechet) <= 1e-13 * scale, kind
        # The real parts of the pair, float64 stacks: float64 out, within
        # REAL_TOL of the same pair taken as complex, and as close to scipy
        # as that is.
        a, e = a.real, e.real
        real = expm_frechet(a, e)
        assert [x.dtype for x in real] == [np.float64] * 2
        twins = expm_frechet(a.astype(complex), e.astype(complex))
        for i, kind in enumerate(kinds):
            refs = scipy.linalg.expm_frechet(a[i], e[i])
            scales = (norm1(refs[0]), max(norm1(refs[1]), norm1(refs[0]) * norm1(e[i])))
            for ours, twin, ref, scale in zip(real, twins, refs, scales):
                assert norm1(ours[i] - twin[i]) <= REAL_TOL * scale, kind
                assert norm1(ours[i] - ref) <= norm1(twin[i] - ref) + REAL_TOL * scale, kind

    @pytest.mark.parametrize("n", [1, 3, 4, 9, 16])
    def test_each_slice_as_it_comes_out_alone(self, n):
        # 1-norms from 1e-3 to 1e3: every Pade degree, and up to eight
        # squarings at degree 13
        rng = np.random.default_rng(n)
        norms = 10.0 ** np.linspace(-3, 3, 25)
        a = random_complex(rng, norms.size, n, n)
        a *= (norms / norm1(a))[:, None, None]
        e = random_complex(rng, norms.size, n, n)
        order = rng.permutation(norms.size)
        for stack_a, stack_e in ((a, e), (a[order], e[order])):
            exp_a, frechet = expm_frechet(stack_a, stack_e)
            for i in range(norms.size):
                alone = expm_frechet(stack_a[i], stack_e[i])
                assert np.array_equal(exp_a[i], alone[0])
                assert np.array_equal(frechet[i], alone[1])


class TestNullSpace:
    def test_zero_matrix_gives_full_space(self):
        sub = null_space(np.zeros((4, 4)))
        assert sub.rank == 4
        assert np.abs(sub.projector() - np.eye(4)).max() <= 1e-12

    def test_rank_one_projector(self):
        sub = null_space(np.diag([1.0, 0.0]))
        assert sub.rank == 1
        assert np.abs(np.abs(sub.groups[0][1][0][:, 0]) - np.array([0.0, 1.0])).max() <= 1e-12

    def test_basis_is_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(8)
        rel_tol = 1e-10
        for _ in range(10):
            a = random_complex(rng, 6, 6)
            a[:, :2] = 0.0  # at least a 2-dimensional kernel
            sub = null_space(a, rel_tol)
            assert sub.rank >= 2
            gram = sub.groups[0][1][0].conj().T @ sub.groups[0][1][0]
            assert np.abs(gram - np.eye(sub.rank)).max() <= 1e-12
            smax = np.linalg.svd(a, compute_uv=False)[0]
            for i in range(sub.rank):
                assert np.linalg.norm(a @ sub.groups[0][1][0][:, i]) <= 10 * rel_tol * smax

    def test_residual_measures_membership(self):
        sub = null_space(np.diag([1.0, 0.0, 0.0]))
        assert sub.residual(np.array([0.0, 1.0, 1.0])) <= 1e-14
        assert sub.residual(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)


class TestMinimalPolyDegree:
    def test_identity(self):
        assert minimal_poly_degree(np.eye(5)) == 1

    def test_zero(self):
        assert minimal_poly_degree(np.zeros((4, 4))) == 1

    def test_nilpotent_jordan_block(self):
        n = np.zeros((3, 3), dtype=complex)
        n[0, 1] = n[1, 2] = 1.0
        assert minimal_poly_degree(n) == 3

    def test_cascade_integral_with_degenerate_energies(self):
        # with the level energies degenerate the integrated generator has
        # six distinct eigenvalues, so the degree drops from 9 to 6
        g = assemble(builtin("cascade3", {"eps": 0.0}))
        for t in (0.5, 1.0, 2.0):
            assert minimal_poly_degree(integral_at(g, t)) == 6

    def test_overflowing_power_raises_without_warning(self):
        with np.errstate(all="raise"):
            with pytest.raises(NonFiniteError, match="overflows at power 2"):
                minimal_poly_degree(np.full((3, 3), 1e100))

    def test_scale_invariance(self):
        g = assemble(builtin("cascade3", {"eps": 0.0}))
        b = integral_at(g, 1.0)
        degrees = {minimal_poly_degree(c * b) for c in (1e-3, 1.0, 1e3)}
        assert degrees == {6}
