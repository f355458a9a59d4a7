import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindblad_pc import (
    LindbladModel,
    admissible,
    assemble,
    builtin,
    classify,
    commutator,
    default_sample_times,
    excluded_coordinate,
    functional_commutativity,
    gamma_operator,
    generator_at,
    integral_at,
    integral_commutativity,
    jump_operator,
    minimal_poly_degree,
    null_space,
    partial_subspace,
    parse_rate_expr,
    phase_state,
)
from lindblad_pc import commutativity
from lindblad_pc.commutativity import EXCLUDED_TOL
from lindblad_pc.linalg import SubspaceBasis
from lindblad_pc.model import Jump
from lindblad_pc.errors import NonFiniteError, NotADensityMatrixError

from conftest import diag_state, make_generator


def constant_rate_cascade():
    """Noncommuting dissipators with constant rates: L is time independent."""
    jumps = [
        Jump(jump_operator(3, 2, 3), parse_rate_expr("0.3", {}), 3, 2),
        Jump(jump_operator(3, 1, 2), parse_rate_expr("0.7", {}), 2, 1),
    ]
    return assemble(LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps))


def late_rate_cascade(t_max):
    """A cascade whose 2 -> 1 rate is below 1e-18 up to t = 20 and reaches
    1 at t = 40, so M depends on the window of the run."""
    jumps = [
        Jump(jump_operator(3, 2, 3), parse_rate_expr("1", {}), 3, 2),
        Jump(jump_operator(3, 1, 2), parse_rate_expr("(t/40)^60", {}), 2, 1),
    ]
    model = LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps)
    return assemble(model, t_max)


def single_jump_model():
    jumps = [Jump(jump_operator(3, 2, 3), parse_rate_expr("sin(t)^2", {}), 3, 2)]
    return assemble(LindbladModel(3, np.zeros((3, 3), dtype=complex), jumps))


class TestDefaultSampleTimes:
    def test_deterministic(self):
        assert default_sample_times() == default_sample_times()

    def test_enough_positive_points(self):
        times = default_sample_times()
        assert len(times) == 12
        assert all(t > 0 for t in times)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_span_the_window_of_the_run(self, t_max):
        g = assemble(LindbladModel(3, np.zeros((3, 3), dtype=complex), []), t_max)
        assert g.window == max(20.0, t_max)
        times = default_sample_times(g.window)
        assert times == default_sample_times(g.window)
        assert len(set(times)) == 12
        assert min(times) > 0
        assert max(times) == g.window

    @pytest.mark.parametrize("t_max", [20.0, 40.0, 1e5, 1e6])
    def test_late_times_are_the_seeded_draws(self, t_max):
        # The formula the literal fractions replace, bit for bit.
        window = max(20.0, t_max)
        late = np.random.default_rng(42).uniform(0.5, 1.0, size=5) * window
        structured = (0.2, 1.0, 2.0, 4.0, 2 * np.pi, 10.0)
        expected = sorted(float(t) for t in (*structured, *late, window))
        assert default_sample_times(t_max) == expected


class TestFunctionalCommutativity:
    def test_v3_is_functionally_commutative(self):
        assert functional_commutativity(make_generator("v3")) is True

    def test_cascade3_is_not(self):
        assert functional_commutativity(make_generator("cascade3")) is False

    def test_lambda3_is_not(self):
        assert functional_commutativity(make_generator("lambda3")) is False

    def test_single_jump_family_commutes(self):
        assert functional_commutativity(single_jump_model()) is True

    def test_stops_at_the_first_row_of_pairs_that_fails(self, monkeypatch):
        # cascade4's two sin^2 jumps are one time dependence, so it has 3
        # parts; its drift vanishes on its population block, so the pairs
        # (0, j) hold, and its exp and sin^2 parts do not commute: after the
        # norms of the 3 parts, the commutators of row 0 (2 pairs) and of
        # row 1 (1 pair) are formed
        formed = []
        squared_norms = commutativity._squared_norms
        monkeypatch.setattr(commutativity, "_squared_norms",
                            lambda stacks: formed.append(len(stacks[0])) or squared_norms(stacks))
        assert functional_commutativity(make_generator("cascade4")) is False
        assert formed == [3, 2, 1]

    @pytest.mark.parametrize("huge_first", [False, True])
    def test_pairs_are_decided_in_order(self, huge_first):
        # two jumps of strength 1e76, whose commutator's norm overflows,
        # beside the two of a cascade, each at a rate of its own: the first
        # failing pair decides, so an overflow after it is never reached,
        # and one before it raises
        scales = (1e76, 1e76, 1.0, 1.0) if huge_first else (1.0, 1.0, 1e76, 1e76)
        rates = ("sin(t)^2", "cos(t)^2", "exp(-t)", "1/(1 + t^2)")
        parts = [Jump(scale * jump_operator(3, target, target + 1), parse_rate_expr(rate))
                 for scale, target, rate in zip(scales, (2, 1, 2, 1), rates)]
        g = assemble(LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), parts))
        if huge_first:
            with pytest.raises(NonFiniteError, match="commutator norm overflows"):
                functional_commutativity(g)
        else:
            assert functional_commutativity(g) is False

    @pytest.mark.parametrize("rates, levels", [
        (("1", "0.5"), (-1.0, 0.0, 1.0)),
        (("2*exp(-t)", "exp(-t)"), (0.0, 1.0, 3.0)),
        (("1/(1 + t^2)", "0.5/(1 + t^2)"), (0.0, 0.0, 0.0)),
        (("1/(1 + t^2)", "0.5*(1/(1 + t^2))"), (0.0, 0.0, 0.0)),
    ])
    def test_one_time_dependence_commutes(self, rates, levels):
        # a constant generator, and rates that are constant multiples of one
        # another, a quotient's numerator too: L(t) = A + f(t) B with A and
        # B fixed, so L(t) and L(s) commute though the two dissipators do not
        jumps = [Jump(jump_operator(3, 2, 3), parse_rate_expr(rates[0]), 3, 2),
                 Jump(jump_operator(3, 1, 2), parse_rate_expr(rates[1]), 2, 1)]
        g = assemble(LindbladModel(3, np.diag(levels).astype(complex), jumps))
        assert functional_commutativity(g) is True

    def test_two_way_jumps_at_one_rate_commute(self):
        jumps = [Jump(jump_operator(2, 1, 2), parse_rate_expr("exp(-t)"), 2, 1),
                 Jump(jump_operator(2, 2, 1), parse_rate_expr("exp(-t)"), 1, 2)]
        g = assemble(LindbladModel(2, np.zeros((2, 2), dtype=complex), jumps))
        assert functional_commutativity(g) is True


class TestIntegralCommutativity:
    def test_v3(self):
        assert integral_commutativity(make_generator("v3")) is True

    def test_cascade3(self):
        assert integral_commutativity(make_generator("cascade3")) is False

    def test_constant_generator_commutes_with_integral(self):
        assert integral_commutativity(constant_rate_cascade()) is True


def test_classify_runs_the_chain_once_at_the_sample_times_and_once_on_the_grid(monkeypatch):
    # Gamma and the integral criterion share the pass at the sample times
    calls = []
    chain = commutativity._commutator_chain

    def counted(samples, power_cap):
        calls.append(len(samples.times))
        return chain(samples, power_cap)

    monkeypatch.setattr(commutativity, "_commutator_chain", counted)
    report = classify(make_generator("cascade4"))
    assert report.partial_rank > 0
    assert calls == [12, 120]


class TestGammaOperator:
    def test_vanishes_for_functionally_commutative(self):
        g = make_generator("v3")
        gam = gamma_operator(g, 1.3, 5)
        assert np.abs(gam).max() <= 1e-20

    def test_cascade3_single_diagonal_entry(self):
        g = make_generator("cascade3")
        gam = gamma_operator(g, 1.3, 5)
        peak = np.abs(gam).max()
        assert np.abs(gam[8, 8]) == pytest.approx(peak)
        off = gam.copy()
        off[8, 8] = 0.0
        assert np.abs(off).max() <= 1e-10 * peak

    @pytest.mark.parametrize("params", [
        {},  # default oscillating rates
        {"f1": "t", "f2": "exp(-t)"},
        {"f1": "exp(-2*t)", "f2": "sin(3*t)^2", "eps1": 0.4, "eps3": 2.7},
    ])
    def test_lambda3_single_diagonal_entry(self, params):
        g = make_generator("lambda3", params)
        gam = gamma_operator(g, 0.9, 8)
        peak = np.abs(gam).max()
        assert np.abs(gam[4, 4]) == pytest.approx(peak)
        off = gam.copy()
        off[4, 4] = 0.0
        assert np.abs(off).max() <= 1e-10 * peak

    def test_hermitian_positive_semidefinite(self):
        for name in ("cascade3", "lambda3", "cascade4"):
            g = make_generator(name)
            gam = gamma_operator(g, 2.2, 6)
            assert np.abs(gam - gam.conj().T).max() <= 1e-14
            eigs = np.linalg.eigvalsh(gam)
            assert eigs.min() >= -1e-12 * max(np.abs(eigs).max(), 1e-300)

    @pytest.mark.parametrize("cap", [1, 3, 6])
    def test_sums_every_power_of_the_chain(self, cap):
        g = make_generator("cascade4")
        t = 1.7
        gen, b = generator_at(g, t), integral_at(g, t)
        expected = np.zeros((g.mu, g.mu), dtype=complex)
        for n in range(1, cap + 1):
            power = np.linalg.matrix_power(b, n)
            c = commutator(gen, power) / np.linalg.norm(power)
            expected += c.conj().T @ c
        gam = gamma_operator(g, t, cap)
        assert np.abs(gam - expected).max() <= 1e-12 * np.abs(expected).max()


class TestPartialSubspace:
    def test_v3_full_space(self):
        assert partial_subspace(make_generator("v3")).rank == 9

    def test_cascade3_excludes_highest_level_population(self):
        sub = partial_subspace(make_generator("cascade3"))
        assert sub.rank == 8
        coord, level = excluded_coordinate(sub)
        assert (coord, level) == (9, 3)

    def test_cascade4_excludes_highest_level_population(self):
        sub = partial_subspace(make_generator("cascade4"))
        assert sub.rank == 15
        coord, level = excluded_coordinate(sub)
        assert (coord, level) == (16, 4)

    def test_long_window_keeps_the_early_constraints(self):
        # These rates act only early; sample times spread over the window of
        # a run to 1e5 alone miss the constraint and return the full space.
        model = builtin("lambda3", {"f1": "t*exp(-t)", "f2": "1/(1 + t^2)"})
        sub = partial_subspace(assemble(model, 1e5))
        assert excluded_coordinate(sub) == (5, 2)

    @pytest.mark.parametrize("t_max, rank", [(20.0, 9), (40.0, 8)])
    def test_is_the_kernel_of_gamma_summed_over_the_sample_times(self, t_max, rank):
        g = late_rate_cascade(t_max)
        times = default_sample_times(g.window)
        degree = max(minimal_poly_degree(integral_at(g, t)) for t in times)
        cap = min(g.mu - 1, degree - 1)
        total = sum(gamma_operator(g, t, cap) for t in times)
        expected = null_space(total)
        sub = partial_subspace(g)
        assert sub.rank == expected.rank == rank
        assert np.abs(sub.projector() - expected.projector()).max() <= 1e-12


def dense_excluded_coordinate(sub):
    """excluded_coordinate by its dense definition: at rank mu - 1, the
    largest entry of (I - P) - e_j e_j^T, with j the largest diagonal
    entry of I - P, is at most EXCLUDED_TOL."""
    mu = sub.dim
    if sub.rank != mu - 1:
        return None, None
    complement = np.eye(mu) - sub.projector()
    j = int(np.argmax(np.real(np.diagonal(complement))))
    target = np.zeros((mu, mu))
    target[j, j] = 1.0
    if np.max(np.abs(complement - target)) > EXCLUDED_TOL:
        return None, None
    d = math.isqrt(mu)
    return j + 1, (j % d + 1 if j % d == j // d else None)


def random_unitary(rng, columns):
    """A random unitary of the size of `columns`' rows whose first column
    is the unit vector columns[:, 0] up to a phase, if `columns` has one."""
    extra = rng.normal(size=(columns.shape[0], columns.shape[0])) * (1 + 1j)
    q, _ = np.linalg.qr(np.column_stack([columns, extra])[:, :columns.shape[0]])
    return q


class TestExcludedCoordinate:
    """Block-form subspaces of rank mu - 1 whose complement is a coordinate
    vector e_j rotated within its block towards a random unit vector w,
    by an angle that puts the largest entry of (I - P) - e_j e_j^T a
    factor exp(+-log_ratio) from EXCLUDED_TOL. The diagonal of I - P
    carries a rounding error of order eps / |u_i|^2 relative, about 1e-4
    at the tolerance, so the factor stays at least 1 % from 1."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(0.01, 1.0), st.booleans())
    def test_matches_the_dense_definition_at_the_tolerance(self, seed, d, log_ratio, above):
        rng = np.random.default_rng(seed)
        mu = d * d
        order = rng.permutation(mu)
        cuts = np.sort(rng.choice(np.arange(3, mu), size=rng.integers(0, mu - 3), replace=False))
        blocks = np.split(order, cuts)  # the first has at least 3 coordinates
        j = int(blocks[0][0])
        w = rng.normal(size=blocks[0].size - 1) + 1j * rng.normal(size=blocks[0].size - 1)
        w /= np.linalg.norm(w)
        entry = EXCLUDED_TOL * math.exp(log_ratio if above else -log_ratio)
        theta = 0.5 * math.asin(2 * entry / np.abs(w).max())
        u = np.concatenate([[math.cos(theta)], math.sin(theta) * w])
        vectors = [random_unitary(rng, u[:, None])]
        vectors[0][:, 0] = 0.0  # the kernel is the rest of the block
        vectors += [random_unitary(rng, np.zeros((b.size, 0))) for b in blocks[1:]]
        groups = []
        for size in sorted({b.size for b in blocks}):
            index = [i for i, b in enumerate(blocks) if b.size == size]
            groups.append((np.array([blocks[i] for i in index]),
                           np.array([vectors[i] for i in index])))
        sub = SubspaceBasis(mu, tuple(groups))
        assert sub.rank == mu - 1
        expected = (None, None) if above else (j + 1, (j % d + 1 if j % d == j // d else None))
        assert excluded_coordinate(sub) == dense_excluded_coordinate(sub) == expected


class TestKernelSumLemma:
    def test_kernel_of_psd_sum_is_kernel_intersection(self):
        # sum of R^dag R annihilates exactly the common kernel
        rng = np.random.default_rng(21)
        for _ in range(10):
            r1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            r2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            r1[:, 0] = r1[:, 1] = 0.0
            r2[:, 0] = r2[:, 2] = 0.0
            kernel_sum = null_space(r1.conj().T @ r1 + r2.conj().T @ r2)
            # independent construction of the intersection: stack and SVD
            stacked = np.vstack([r1, r2])
            sv = np.linalg.svd(stacked, compute_uv=False)
            vh = np.linalg.svd(stacked)[2]
            keep = int(np.sum(sv > 1e-10 * sv[0]))
            inter = vh[keep:].conj().T
            p_inter = inter @ inter.conj().T
            assert np.abs(kernel_sum.projector() - p_inter).max() <= 1e-10


class TestAdmissible:
    def test_cascade3_mixtures_of_lower_levels(self):
        sub = partial_subspace(make_generator("cascade3"))
        for p in (0.0, 0.3, 1.0):
            assert admissible(diag_state(p, 1 - p, 0), sub) is True

    def test_cascade3_rejects_top_level(self):
        sub = partial_subspace(make_generator("cascade3"))
        assert admissible(diag_state(0, 0, 1), sub) is False

    def test_lambda3_phase_state(self):
        sub = partial_subspace(make_generator("lambda3"))
        assert admissible(phase_state(3, [1, 3], [np.pi]), sub) is True
        assert admissible(diag_state(0, 1, 0), sub) is False

    def test_rejects_malformed_states(self):
        sub = partial_subspace(make_generator("cascade3"))
        not_hermitian = np.zeros((3, 3), dtype=complex)
        not_hermitian[0, 1] = 1.0
        not_hermitian[0, 0] = 1.0
        with pytest.raises(NotADensityMatrixError, match="Hermitian"):
            admissible(not_hermitian, sub)
        with pytest.raises(NotADensityMatrixError, match="trace"):
            admissible(np.eye(3, dtype=complex), sub)
        with pytest.raises(NotADensityMatrixError, match="positive"):
            admissible(np.diag([1.5, -0.5, 0.0]).astype(complex), sub)


class TestClassify:
    def test_samples_the_window_of_the_generator(self):
        model = builtin("cascade3", {"eps": 1.0})
        assert classify(assemble(model)).sample_times[-1] == 20.0
        assert classify(assemble(model, 40.0)).sample_times[-1] == 40.0

    def test_v3_report(self):
        report = classify(make_generator("v3"))
        assert report.functional is True
        assert report.integral is True
        assert report.partial_rank == 9
        assert report.excluded_coordinate is None
        assert report.residual_max <= 1e-8
        assert "full (dim 9)" in report.subspace_description()

    def test_cascade3_report(self):
        report = classify(make_generator("cascade3"))
        assert report.functional is False
        assert report.integral is False
        assert report.partial_rank == 8
        assert report.excluded_coordinate == 9
        assert report.excluded_level == 3
        assert report.residual_max <= 1e-8
        assert "rho_33 = 0" in report.subspace_description()

    def test_lambda3_report(self):
        report = classify(make_generator("lambda3"))
        assert report.functional is False
        assert report.integral is False
        assert report.partial_rank == 8
        assert report.excluded_coordinate == 5
        assert report.excluded_level == 2

    def test_cascade4_report(self):
        report = classify(make_generator("cascade4"))
        assert report.partial_rank == 15
        assert report.excluded_coordinate == 16
        assert report.excluded_level == 4
        assert report.residual_max <= 1e-8

    @pytest.mark.parametrize("name", ["v3", "cascade3", "lambda3", "cascade4"])
    def test_power_cap_is_the_largest_degree_over_the_sample_times(self, name):
        g = make_generator(name)
        report = classify(g)
        degree = max(minimal_poly_degree(integral_at(g, t)[np.ix_(block, block)])
                     for t in report.sample_times for coords, _ in g.groups
                     for block in coords if block.size > 1)
        assert report.power_cap == max(1, degree - 1)

    def test_implication_chain(self):
        # functional implies integral implies full rank on these samples
        for name in ("v3", "cascade3", "lambda3", "cascade4"):
            report = classify(make_generator(name))
            if report.functional:
                assert report.integral
            if report.integral:
                assert report.partial_rank == report.subspace.dim
