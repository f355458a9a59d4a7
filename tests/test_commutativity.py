import numpy as np
import pytest
from hypothesis import given, strategies as st

from lindblad_pc import (
    LindbladModel,
    admissible,
    assemble,
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
from lindblad_pc.model import Jump
from lindblad_pc.errors import NotADensityMatrixError

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
        times = default_sample_times(t_max)
        assert times == default_sample_times(t_max)
        assert len(set(times)) == 12
        assert min(times) > 0
        assert max(times) == max(20.0, t_max)

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


class TestIntegralCommutativity:
    def test_v3(self):
        assert integral_commutativity(make_generator("v3")) is True

    def test_cascade3(self):
        assert integral_commutativity(make_generator("cascade3")) is False

    def test_constant_generator_commutes_with_integral(self):
        assert integral_commutativity(constant_rate_cascade()) is True


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
        g = make_generator("lambda3", {"f1": "t*exp(-t)", "f2": "1/(1 + t^2)"})
        sub = partial_subspace(g, 1e5)
        assert excluded_coordinate(sub) == (5, 2)

    @pytest.mark.parametrize("t_max, rank", [(20.0, 9), (40.0, 8)])
    def test_is_the_kernel_of_gamma_summed_over_the_sample_times(self, t_max, rank):
        g = late_rate_cascade(t_max)
        times = default_sample_times(t_max)
        degree = max(minimal_poly_degree(integral_at(g, t)) for t in times)
        cap = min(g.mu - 1, degree - 1)
        total = sum(gamma_operator(g, t, cap) for t in times)
        expected = null_space(total)
        sub = partial_subspace(g, t_max)
        assert sub.rank == expected.rank == rank
        assert np.abs(sub.projector() - expected.projector()).max() <= 1e-12


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
                     for t in report.sample_times for block in g.blocks if block.size > 1)
        assert report.power_cap == max(1, degree - 1)

    def test_implication_chain(self):
        # functional implies integral implies full rank on these samples
        for name in ("v3", "cascade3", "lambda3", "cascade4"):
            report = classify(make_generator(name))
            if report.functional:
                assert report.integral
            if report.integral:
                assert report.partial_rank == report.subspace.dim
