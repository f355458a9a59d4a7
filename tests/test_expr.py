import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lindblad_pc import (
    ClosedFormAntiderivative,
    QuadratureAntiderivative,
    antiderivative,
    eval_expr,
    format_expr,
    parse_rate_expr,
)
from lindblad_pc.errors import ExprSyntaxError, NonFiniteError, UnboundParameterError

# The time window of a run to the default t_max.
WINDOW = 20.0


class TestParse:
    def test_parameter_substitution(self):
        assert parse_rate_expr("sin(w*t)^2", {"w": 1}) == parse_rate_expr("sin(1*t)^2")
        assert parse_rate_expr("exp(-w*t)", {"w": 2}) == parse_rate_expr("exp(-2*t)")

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError) as err:
            parse_rate_expr("sin(q*t)^2", {})
        assert err.value.name == "q"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_rate_expr("sin(t", {})
        assert err.value.position == 5
        with pytest.raises(ExprSyntaxError):
            parse_rate_expr("t +", {})
        with pytest.raises(ExprSyntaxError):
            parse_rate_expr("t ^ 1.5", {})
        with pytest.raises(ExprSyntaxError):
            parse_rate_expr("2 ? 3", {})

    def test_whitespace_insensitive(self):
        assert parse_rate_expr(" sin( t ) ^ 2 ", {}) == parse_rate_expr("sin(t)^2")

    def test_constant_folding_canonicalizes(self):
        assert parse_rate_expr("2*3 + 1", {}) == parse_rate_expr("7")
        assert parse_rate_expr("-(2)", {}) == parse_rate_expr("-2")

    def test_reserved_time_name(self):
        with pytest.raises(ValueError):
            parse_rate_expr("t", {"t": 3.0})


class TestEval:
    def test_reference_points(self):
        assert eval_expr(parse_rate_expr("sin(t)^2", {}), math.pi / 2) == pytest.approx(1.0)
        assert eval_expr(parse_rate_expr("cos(t)^2", {}), 0.0) == 1.0
        assert eval_expr(parse_rate_expr("exp(-t)", {}), 0.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(NonFiniteError):
            eval_expr(parse_rate_expr("1/t", {}), 0.0)

    def test_overflow(self):
        with pytest.raises(NonFiniteError):
            eval_expr(parse_rate_expr("exp(t)", {}), 1e6)

    @pytest.mark.parametrize("text", ["sin(1.3*t)^2 + 0.5", "t*exp(-t)/(1 + t^2)",
                                      "-cos(t) - 2", "0.4", "t", "(2*t - 1)^3"])
    def test_array_matches_scalar(self, text):
        f = parse_rate_expr(text, {})
        times = np.linspace(0.0, 30.0, 301)
        values = eval_expr(f, times)
        assert values.shape == times.shape and values.dtype == float
        scalars = np.array([eval_expr(f, t) for t in times])
        assert np.all(np.abs(values - scalars) <= 1e-15 * np.maximum(1.0, np.abs(scalars)))

    @pytest.mark.parametrize("text, t", [("1/exp(t)", -1000.0), ("1/t", 0.0),
                                         ("exp(t)", 1e6), ("t^400", 10.0),
                                         ("(t - t)/(t - t)", 1.0)])
    def test_array_raises_where_scalar_raises(self, text, t):
        f = parse_rate_expr(text, {})
        with pytest.raises(NonFiniteError):
            eval_expr(f, t)
        with pytest.raises(NonFiniteError):
            eval_expr(f, np.array([0.5, t, 2.0]))

    def test_array_raises_on_an_intermediate_overflow_the_scalar_passes(self):
        f = parse_rate_expr("1/(exp(t)*exp(t))", {})
        assert eval_expr(f, 400.0) == 0.0
        with pytest.raises(NonFiniteError):
            eval_expr(f, np.array([0.0, 400.0]))

    def test_array_underflow_is_zero(self):
        values = eval_expr(parse_rate_expr("exp(-t)", {}), np.array([0.0, 1000.0]))
        assert values.tolist() == [1.0, 0.0]


class TestAntiderivative:
    def test_sin_squared(self):
        for w in (1.0, 3.0):
            F = antiderivative(parse_rate_expr("sin(w*t)^2", {"w": w}), WINDOW)
            assert F.is_closed_form
            for t in np.linspace(0.0, 20.0, 101):
                expected = t / 2 - math.sin(2 * w * t) / (4 * w)
                assert F.value(t) == pytest.approx(expected, abs=1e-13)

    def test_cos_squared(self):
        F = antiderivative(parse_rate_expr("cos(2*t)^2", {}), WINDOW)
        assert F.is_closed_form
        for t in np.linspace(0.0, 10.0, 41):
            assert F.value(t) == pytest.approx(t / 2 + math.sin(4 * t) / 8, abs=1e-13)

    def test_constant(self):
        F = antiderivative(parse_rate_expr("2.5", {}), WINDOW)
        assert F.is_closed_form
        assert F.value(3.0) == 7.5

    def test_exponential_matches_analytic_form(self):
        w = 2.0
        F = antiderivative(parse_rate_expr("exp(-w*t)", {"w": w}), WINDOW)
        assert F.is_closed_form
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, 10.0, 100):
            assert abs(F.value(t) - (1 - math.exp(-w * t)) / w) <= 1e-12

    def test_starts_at_zero_exactly(self):
        texts = ["sin(3*t)^2", "cos(0.7*t)^2", "exp(-1.3*t)", "t^3", "4.0",
                 "sin(2*t+1)", "cos(t-0.5)", "2*exp(0.5*t)-1"]
        for text in texts:
            F = antiderivative(parse_rate_expr(text, {}), WINDOW)
            assert F.is_closed_form, text
            assert F.value(0.0) == 0.0, text

    def test_derivative_round_trip_bounded_rates(self):
        # central difference of F reproduces f on [0, 20]
        texts = ["sin(t)^2", "cos(3*t)^2", "exp(-0.5*t)", "1.5",
                 "sin(2*t+1)", "cos(t-0.5)", "t"]
        rng = np.random.default_rng(1)
        h = 1e-6
        for text in texts:
            f = parse_rate_expr(text, {})
            F = antiderivative(f, WINDOW)
            for t in rng.uniform(0.0, 20.0, 200):
                approx = (F.value(t + h) - F.value(t - h)) / (2 * h)
                assert abs(approx - eval_expr(f, t)) <= 1e-5, text

    def test_derivative_round_trip_growing_rates(self):
        # growing antiderivatives need a scale-aware bound: the finite
        # difference loses |F| * eps / h to rounding
        texts = ["t^3", "3*exp(0.5*t)-1"]
        rng = np.random.default_rng(2)
        h = 1e-6
        for text in texts:
            f = parse_rate_expr(text, {})
            F = antiderivative(f, WINDOW)
            for t in rng.uniform(0.0, 20.0, 200):
                value = eval_expr(f, t)
                approx = (F.value(t + h) - F.value(t - h)) / (2 * h)
                assert abs(approx - value) <= 1e-5 * (1.0 + abs(value)), text

    def test_quadrature_fallback_for_unknown_pattern(self):
        f = parse_rate_expr("sin(t)*cos(t)", {})
        F = antiderivative(f, WINDOW)
        assert isinstance(F, QuadratureAntiderivative)
        for t in np.linspace(0.0, 20.0, 81):
            assert F.value(t) == pytest.approx(math.sin(t) ** 2 / 2, abs=1e-9)

    def test_quadrature_fallback_for_tiny_frequency(self):
        F = antiderivative(parse_rate_expr("sin(w*t)^2", {"w": 1e-8}), WINDOW)
        assert isinstance(F, QuadratureAntiderivative)
        assert F.value(0.0) == 0.0
        # sin(w t)^2 ~ (w t)^2 for tiny w
        assert F.value(10.0) == pytest.approx((1e-8) ** 2 * 1000.0 / 3.0, rel=1e-6)

    def test_quadrature_agrees_with_closed_form(self):
        f = parse_rate_expr("sin(t)^2", {})
        quad = QuadratureAntiderivative(f, WINDOW)
        closed = antiderivative(f, WINDOW)
        assert isinstance(closed, ClosedFormAntiderivative)
        for t in np.linspace(0.0, 20.0, 101):
            assert abs(quad.value(t) - closed.value(t)) <= 1e-9

    def test_quadrature_handles_decreasing_and_negative_times(self):
        f = parse_rate_expr("cos(t)", {})
        F = QuadratureAntiderivative(f, WINDOW)
        assert F.value(5.0) == pytest.approx(math.sin(5.0), abs=1e-10)
        assert F.value(2.0) == pytest.approx(math.sin(2.0), abs=1e-10)
        assert F.value(-1.5) == pytest.approx(math.sin(-1.5), abs=1e-10)

    def test_quadrature_resolves_an_early_rate_in_a_long_window(self):
        # int_0^t x exp(-x) dx = 1 - (1 + t) exp(-t)
        F = QuadratureAntiderivative(parse_rate_expr("t*exp(-t)", {}), 1e5)
        for t in (0.5, 3.0, 40.0, 5e4, 1e5):
            assert F.value(t) == pytest.approx(1 - (1 + t) * math.exp(-t), abs=1e-10)

    @pytest.mark.parametrize("window", [1e3, 1e4, 1e5])
    def test_quadrature_resolves_a_periodic_rate_over_a_long_window(self, window):
        # An error test on a few equally spaced points aliases on cells that
        # span whole periods; the integral is t/8 - sin(4t)/32.
        F = QuadratureAntiderivative(parse_rate_expr("sin(t)^2*cos(t)^2", {}), window)
        t = np.concatenate([np.linspace(0.0, window, 1001),
                            np.random.default_rng(3).uniform(0.0, window, 1000)])
        error = np.abs(F.values(t) - (t / 8 - np.sin(4 * t) / 32))
        assert np.all(error <= 1e-10 * (1 + t))

    def test_quadrature_resolves_a_periodic_rate_over_the_longest_window(self):
        # On [0, 1e6] the cells are cut to MAX_CELL_WIDTH; with 256 cells the
        # last were 7800 wide, more than MAX_EVALUATIONS could integrate.
        F = QuadratureAntiderivative(parse_rate_expr("sin(t)^2", {}), 1e6)
        t = np.concatenate([np.linspace(0.0, 1e6, 1001),
                            np.random.default_rng(4).uniform(0.0, 1e6, 1000)])
        error = np.abs(F.values(t) - (t / 2 - np.sin(2 * t) / 4))
        assert np.all(error <= 1e-9 * (1 + t))

    def test_quadrature_work_is_bounded(self):
        # exp(t^2) overflows from t = 26.6 on, so the window is refused
        with pytest.raises(NonFiniteError):
            QuadratureAntiderivative(parse_rate_expr("exp(t^2)", {}), 40.0)
        # Finite on the window (at most e^133), but far too large for the
        # absolute tolerance: the two rules differ on rounding alone.
        with pytest.raises(NonFiniteError, match="within 100000 evaluations"):
            QuadratureAntiderivative(parse_rate_expr("exp(t^2/3)", {}), 20.0)

    def test_quadrature_memory_is_bounded(self):
        # 2e7 periods on the window: each cell needs more pieces than the cap
        # allows, and the up to 5e5 pieces of a round are evaluated in chunks
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteError):
                QuadratureAntiderivative(parse_rate_expr("sin(30*t)^2*cos(30*t)^2", {}), 1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["sin(a*t)^2", "cos(a*t)^2", "exp(-a*t)", "a*(t/w)^2"]),
           st.floats(min_value=0.25, max_value=2.0),
           st.sampled_from([WINDOW, 40.0, 1e3, 1e5]),
           st.floats(min_value=0.0, max_value=1.0))
    @example("sin(a*t)^2", 0.4, 1e5, 0.5)
    def test_quadrature_matches_the_closed_form(self, text, a, window, fraction):
        # a*(t/w)^2 keeps the ramp at most 2 on the window: a rate that
        # reaches 1e4 is past what the absolute tolerance can resolve. At
        # a = 0.4 on 1e5 the rules stay ~1e-12 apart on the rounding of t.
        f = parse_rate_expr(text, {"a": a, "w": window})
        closed = antiderivative(f, window)
        assert closed.is_closed_form
        F = QuadratureAntiderivative(f, window)
        assert F.value(0.0) == 0.0
        t = np.append(np.linspace(0.0, window, 101), fraction * window)
        assert np.all(np.abs(F.values(t) - closed.values(t)) <= 1e-12 * (1 + t))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-5.0, max_value=45.0), min_size=1, max_size=6))
    def test_quadrature_value_does_not_depend_on_earlier_queries(self, times):
        f = parse_rate_expr("exp(-t)*sin(3*t)^2", {})
        queried = QuadratureAntiderivative(f, 40.0)
        values = [queried.value(t) for t in times]
        assert values == [QuadratureAntiderivative(f, 40.0).value(t) for t in times]


class TestFormat:
    @pytest.mark.parametrize("text", [
        "sin(w*t)^2", "exp(-w*t)", "t^3 - 2*t + 1", "cos(2*t+1)/4",
        "1/(t+1)", "-(t - 3)", "2e-3*t",
    ])
    def test_round_trip(self, text):
        f = parse_rate_expr(text, {"w": 2.5})
        assert parse_rate_expr(format_expr(f), {}) == f
