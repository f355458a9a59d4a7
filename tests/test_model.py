import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lindblad_pc import (
    LindbladModel,
    assemble,
    builtin,
    eval_expr,
    gamma_operator,
    generator_at,
    integral_at,
    jump_operator,
    load_model,
    loads_model,
    model_to_dict,
    parse_rate_expr,
    phase_state,
    unvec,
    vec,
)
from lindblad_pc.expr import format_expr
from lindblad_pc.errors import ModelFileError, NonFiniteError, UnknownModelError
from lindblad_pc.model import Jump, integral_table, rate_table

from conftest import MODEL_NAMES, MODEL_PARAMS, make_generator

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def dissipator_matrix(v):
    """The d^2 x d^2 dissipator of the jump V: L(t) of the model with
    H = 0 and V alone, at rate 1."""
    d = v.shape[0]
    one = LindbladModel(d, np.zeros((d, d), dtype=complex), [Jump(v, parse_rate_expr("1"))])
    return generator_at(assemble(one), 0.0)


def drift_matrix(name):
    """The d^2 x d^2 drift of a built-in: L(t) of its model without jumps."""
    model = builtin(name, MODEL_PARAMS[name])
    model.jumps = []
    return generator_at(assemble(model), 0.0)


class TestDissipatorMatrix:
    def test_zero_operator(self):
        assert np.abs(dissipator_matrix(np.zeros((3, 3)))).max() == 0.0

    def test_two_level_decay(self):
        # V = E_21 maps diag(1, 0) to diag(-1, 1) under the dissipator
        v = jump_operator(2, 2, 1)
        out = unvec(dissipator_matrix(v) @ vec(np.diag([1.0, 0.0])), 2)
        assert np.abs(out - np.diag([-1.0, 1.0])).max() <= 1e-15

    def test_trace_is_annihilated(self):
        rng = np.random.default_rng(10)
        v = jump_operator(3, 2, 3)
        d_mat = dissipator_matrix(v)
        for _ in range(5):
            rho = random_density(rng, 3)
            out = unvec(d_mat @ vec(rho), 3)
            assert abs(np.trace(out)) <= 1e-12

    def test_matches_superoperator_action(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = random_density(rng, 3)
        direct = v @ rho @ v.conj().T - 0.5 * (v.conj().T @ v @ rho + rho @ v.conj().T @ v)
        out = unvec(dissipator_matrix(v) @ vec(rho), 3)
        assert np.abs(out - direct).max() <= 1e-12


class TestAssemble:
    def test_v3_shape(self):
        g = make_generator("v3")
        assert generator_at(g, 0.0).shape == (9, 9)
        assert len(g.parts) == 2
        assert g.parts[0].rate == parse_rate_expr("sin(w*t)^2", {"w": 1.0})
        assert g.parts[1].rate == parse_rate_expr("cos(w*t)^2", {"w": 1.0})

    def test_empty_model_gives_zero_generator(self):
        g = assemble(LindbladModel(3, np.zeros((3, 3), dtype=complex), []))
        assert np.abs(generator_at(g, 1.7)).max() == 0.0

    def test_cascade4_shape(self):
        g = make_generator("cascade4")
        assert generator_at(g, 0.0).shape == (16, 16)
        assert len(g.parts) == 3

    def test_drift_is_anti_hermitian(self):
        for name in ("v3", "cascade3", "lambda3", "cascade4"):
            drift = drift_matrix(name)
            assert np.abs(drift + drift.conj().T).max() <= 1e-12

    def test_part_columns_are_traceless(self):
        for jump in builtin("cascade4", MODEL_PARAMS["cascade4"]).jumps:
            matrix = dissipator_matrix(jump.operator)
            for j in range(16):
                assert abs(np.trace(unvec(matrix[:, j], 4))) <= 1e-12

    def test_cancelled_entries_are_dropped(self):
        # a dephasing E_11 alone: rho_11 gets 1 - 1/2 - 1/2 = 0, and the
        # coherences rho_12, rho_13, rho_21, rho_31 get -1/2
        model = LindbladModel(3, np.zeros((3, 3), dtype=complex),
                              [Jump(jump_operator(3, 1, 1), parse_rate_expr("1"))])
        g = assemble(model)
        assert list(zip(g.rows.tolist(), g.cols.tolist())) == [(1, 1), (2, 2), (3, 3), (6, 6)]
        assert np.array_equal(g.values, [[0, 0, 0, 0], [-0.5, -0.5, -0.5, -0.5]])

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.zeros((2, 2), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            assemble(LindbladModel(2, h, []))


class TestGroupDtype:
    """A group's entries are float64 when every imaginary part is exactly
    zero, complex128 otherwise (see the model module docstring)."""

    @staticmethod
    def dtypes(g):
        return [(coords.shape, terms.dtype) for coords, terms in g.groups]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_populations_are_real_and_coherences_complex(self, name):
        g = make_generator(name)
        d = g.dim
        assert self.dtypes(g) == [((d * d - d, 1), np.complex128), ((1, d), np.float64)]

    def test_quadrature_cascade_populations_are_real(self, tmp_path):
        workloads.build("quadrature-solve", 1, tmp_path)
        for d in (3, 4, 6):
            g = assemble(load_model(tmp_path / "inputs" / f"quadrature{d}.json")[0])
            assert self.dtypes(g) == [((d * d - d, 1), np.complex128), ((1, d), np.float64)]

    def test_a_driven_block_is_complex(self):
        # a real H_12 couples the populations to the coherences rho_12 and
        # rho_21: one block of 5 coordinates, and two pairs of coherences
        loaded = builtin("cascade3", MODEL_PARAMS["cascade3"])
        loaded.hamiltonian[0, 1] = loaded.hamiltonian[1, 0] = 0.4
        g = assemble(loaded)
        assert self.dtypes(g) == [((2, 2), np.complex128), ((1, 5), np.complex128)]
        assert g.groups[-1][0].tolist() == [[0, 1, 3, 4, 8]]


class TestGeneratorAt:
    def test_v3_at_time_zero(self):
        # sin^2(0) = 0, cos^2(0) = 1: only the second dissipator is on
        g = make_generator("v3")
        expected = drift_matrix("v3") + dissipator_matrix(builtin("v3").jumps[1].operator)
        assert np.abs(generator_at(g, 0.0) - expected).max() == 0.0

    def test_v3_rates_at_quarter_period(self):
        g = make_generator("v3")
        t = np.pi / 4
        assert eval_expr(g.parts[0].rate, t) == pytest.approx(0.5)
        assert eval_expr(g.parts[1].rate, t) == pytest.approx(0.5)

    def test_columns_traceless_at_sampled_times(self):
        g = make_generator("cascade3")
        tr = vec(np.eye(3)).conj()
        for t in (0.0, 0.4, 1.0, 3.3, 8.0):
            assert np.abs(tr @ generator_at(g, t)).max() <= 1e-12

    def test_hermiticity_propagation(self):
        rng = np.random.default_rng(12)
        for name in ("v3", "cascade3", "lambda3", "cascade4"):
            g = make_generator(name)
            rho = random_density(rng, g.dim)
            for t in (0.1, 1.0, 4.0):
                out = unvec(generator_at(g, t) @ vec(rho), g.dim)
                assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_matches_direct_construction(self):
        # regression guard: the decomposition must equal the generator
        # formula with the rates substituted directly: on cascade3, with a
        # dephasing E_11 added, whose entry on rho_11 cancels, and with a
        # dense complex jump added too, which makes a single block
        params = {"eps": 1.3, "omega": 0.8}
        h = np.diag([-1.3, 0.0, 1.3]).astype(complex)
        eye = np.eye(3, dtype=complex)
        rng = np.random.default_rng(14)
        dense = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jumps = [(jump_operator(3, 2, 3), "sin(0.8*t)^2", lambda t: np.sin(0.8 * t) ** 2),
                 (jump_operator(3, 1, 2), "cos(0.8*t)^2", lambda t: np.cos(0.8 * t) ** 2),
                 (jump_operator(3, 1, 1), "exp(-t)", lambda t: np.exp(-t)),
                 (dense, "0.5", lambda t: 0.5)]
        for count, blocks in ((2, 7), (3, 7), (4, 1)):
            model = builtin("cascade3", params)
            model.jumps[2:] = [Jump(v, parse_rate_expr(rate)) for v, rate, _ in jumps[2:count]]
            g = assemble(model)
            assert sum(len(coords) for coords, _ in g.groups) == blocks
            for t in (0.0, 0.7, 2.9):
                direct = 1j * (np.kron(h.T, eye) - np.kron(eye, h))
                for v, _, gamma in jumps[:count]:
                    vdv = v.conj().T @ v
                    direct += gamma(t) * (np.kron(v.conj(), v)
                                          - 0.5 * np.kron(eye, vdv)
                                          - 0.5 * np.kron(vdv.T, eye))
                assert np.abs(generator_at(g, t) - direct).max() <= 1e-14


class TestIntegralAt:
    def test_zero_at_time_zero(self):
        for name in ("v3", "cascade4"):
            g = make_generator(name)
            assert np.abs(integral_at(g, 0.0)).max() == 0.0

    def test_derivative_recovers_generator(self):
        rng = np.random.default_rng(13)
        g = make_generator("cascade4")
        h = 1e-6
        for t in rng.uniform(0.1, 15.0, 20):
            diff = (integral_at(g, t + h) - integral_at(g, t - h)) / (2 * h)
            assert np.abs(diff - generator_at(g, t)).max() <= 1e-5

    def test_cascade_rate_integral(self):
        # the sin^2 jump of cascade3 integrates to t/2 - sin(2t)/4
        g = make_generator("cascade3")
        for t in (0.3, 1.0, 2.5, 7.0):
            expected = t / 2 - np.sin(2 * t) / 4
            assert g.parts[0].integral.value(t) == pytest.approx(expected, abs=1e-13)


# Each built-in's H diagonal and its transitions (source, target, rate)
# at its defaults and at MODEL_PARAMS.
BUILTIN_LITERALS = {
    ("v3", False): ([1.0, 0.0, 1.0], [(1, 2, "sin(1*t)^2"), (3, 2, "cos(1*t)^2")]),
    ("v3", True): ([1.0, 0.0, 2.0], [(1, 2, "sin(1*t)^2"), (3, 2, "cos(1*t)^2")]),
    ("cascade3", False): ([-1.0, 0.0, 1.0], [(3, 2, "sin(1*t)^2"), (2, 1, "cos(1*t)^2")]),
    ("cascade3", True): ([-1.0, 0.0, 1.0], [(3, 2, "sin(1*t)^2"), (2, 1, "cos(1*t)^2")]),
    ("lambda3", False): ([-1.0, 0.0, -1.0], [(2, 1, "sin(t)^2"), (2, 3, "cos(t)^2")]),
    ("lambda3", True): ([-1.0, 0.0, -2.0], [(2, 1, "sin(t)^2"), (2, 3, "cos(t)^2")]),
    ("cascade4", False): ([-1.0, -1.0, 1.0, 1.0],
                          [(4, 3, "exp(-1*t)"), (3, 2, "sin(3*t)^2"), (2, 1, "sin(3*t)^2")]),
    ("cascade4", True): ([-2.0, -1.0, 1.0, 2.0],
                         [(4, 3, "exp(-1*t)"), (3, 2, "sin(3*t)^2"), (2, 1, "sin(3*t)^2")]),
}


class TestBuiltin:
    @pytest.mark.parametrize("name, with_params", list(BUILTIN_LITERALS))
    def test_levels_and_transitions(self, name, with_params):
        model = builtin(name, MODEL_PARAMS[name] if with_params else {})
        diagonal, transitions = BUILTIN_LITERALS[name, with_params]
        assert np.array_equal(model.hamiltonian, np.diag(diagonal))
        assert model.hamiltonian.dtype == complex
        assert [(j.source, j.target, format_expr(j.rate)) for j in model.jumps] == transitions
        for jump in model.jumps:
            assert np.array_equal(jump.operator,
                                  jump_operator(model.dim, jump.target, jump.source))

    def test_non_numeric_parameter_is_named(self):
        with pytest.raises(ValueError, match="params: 'omega' must be a finite number"):
            builtin("v3", {"omega": "abc"})

    def test_v3_structure(self):
        model = builtin("v3", {"eps1": 1.0, "eps3": 2.0})
        assert model.dim == 3
        assert np.array_equal(model.hamiltonian, np.diag([1.0, 0.0, 2.0]))
        assert np.array_equal(model.jumps[0].operator, jump_operator(3, 2, 1))
        assert np.array_equal(model.jumps[1].operator, jump_operator(3, 2, 3))

    def test_cascade4_has_three_jumps(self):
        model = builtin("cascade4", {})
        ops = [j.operator for j in model.jumps]
        assert len(ops) == 3
        assert np.array_equal(ops[0], jump_operator(4, 3, 4))
        assert np.array_equal(ops[1], jump_operator(4, 2, 3))
        assert np.array_equal(ops[2], jump_operator(4, 1, 2))

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            builtin("nope", {})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            builtin("v3", {"typo": 1.0})

    def test_lambda3_custom_rates(self):
        model = builtin("lambda3", {"f1": "t", "f2": "exp(-t)"})
        assert model.jumps[0].rate == parse_rate_expr("t", {})
        assert model.jumps[1].rate == parse_rate_expr("exp(-t)", {})

    # builtin() and the loader only build a model; assemble checks it.
    def test_lambda3_rejects_negative_rate(self):
        model = builtin("lambda3", {"f1": "t-5", "f2": "exp(-t)"})
        with pytest.raises(ValueError):
            assemble(model)

    def test_model_file_rejects_negative_rate(self):
        doc = '{"dimension": 3, "jumps": [{"from": 3, "to": 2, "rate": "t-5"}]}'
        model, _ = loads_model(doc)
        with pytest.raises(ValueError, match="negative"):
            assemble(model)

    def test_rates_are_checked_up_to_the_requested_horizon(self):
        doc = '{"dimension": 3, "jumps": [{"from": 3, "to": 2, "rate": "25-t"}]}'
        model, _ = loads_model(doc)
        assert assemble(model, 25.0).window == 25.0
        with pytest.raises(ValueError, match=r"negative at t=25\.25"):
            assemble(model, 40.0)

    def test_a_negative_time_before_a_non_finite_one_is_named(self):
        # the same chunk also holds t = 10, where the rate is not finite
        doc = '{"dimension": 2, "jumps": [{"from": 2, "to": 1, "rate": "(1 - t)/(t - 10)"}]}'
        model, _ = loads_model(doc)
        with pytest.raises(ValueError, match=r"negative at t=0;"):
            assemble(model)

    @pytest.mark.parametrize("rate, message", [
        ("70000 - t", r"negative at t=70000\.2;"),
        ("1/(t - 60000)^2", r"not finite at t=60000$"),
        ("exp(t - 99000)", r"not finite at t=99710$"),
        # negative from 70000.25 on, and a division by zero at 80000 in the same chunk
        ("(70000 - t)/(80000 - t)", r"negative at t=70000\.2;"),
    ])
    def test_first_bad_time_is_named_past_the_first_chunk(self, rate, message):
        # 405k samples on a 1e5 window, so the bad time lies in a later chunk
        doc = f'{{"dimension": 2, "jumps": [{{"from": 2, "to": 1, "rate": "{rate}"}}]}}'
        model, _ = loads_model(doc)
        assert assemble(model, 5e4).window == 5e4
        with pytest.raises(ValueError, match=message):
            assemble(model, 1e5)

    def test_a_rate_that_fails_at_every_time_is_named_at_zero(self):
        # 1/0 does not fold, and its division fails on every prefix of the
        # samples, the empty one too
        doc = '{"dimension": 2, "jumps": [{"from": 2, "to": 1, "rate": "1/0 + t"}]}'
        model, _ = loads_model(doc)
        with pytest.raises(ValueError, match=r"not finite at t=0$"):
            assemble(model)

    def test_antiderivatives_are_built_on_the_window(self):
        # built on the default window [0, 20], this integral is off by 1.9e-2 at t = 1e4
        jump = Jump(jump_operator(2, 1, 2), parse_rate_expr("1/(1 + 1.1*t^2)"))
        g = assemble(LindbladModel(2, np.zeros((2, 2), dtype=complex), [jump]), 1e4)
        assert g.window == 1e4
        exact = math.atan(math.sqrt(1.1) * 1e4) / math.sqrt(1.1)
        assert g.parts[0].integral.value(1e4) == pytest.approx(exact, rel=0, abs=4e-15)


class TestWindow:
    """The coefficients of B(t) are refused past g.window, where the
    quadrature would extrapolate: built on [0, 20], the integral of this
    rate is 1.93e-2 off at t = 1e4."""

    @pytest.mark.parametrize("call", [
        integral_at,
        lambda g, t: integral_table(g, [0.0, t]),
        lambda g, t: gamma_operator(g, t, 1),
    ], ids=["integral_at", "integral_table", "gamma_operator"])
    def test_a_time_past_the_window_is_refused(self, call):
        jumps = [Jump(jump_operator(3, 1, 2), parse_rate_expr("1/(1 + 1.1*t^2)"), 2, 1),
                 Jump(jump_operator(3, 2, 3), parse_rate_expr("sin(t)^2"), 3, 2)]
        g = assemble(LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps))
        assert g.window == 20.0
        with pytest.raises(ValueError, match=r"t=20\.5, past the window \[0, 20\]"):
            call(g, 20.5)
        assert np.all(np.isfinite(call(g, 20.0)))



class TestRateTable:
    """rate_table against its reference, one eval_expr per rate."""

    @staticmethod
    def reference(g, times):
        return np.column_stack([np.ones_like(times),
                                *(eval_expr(part.rate, times) for part in g.parts)])

    @staticmethod
    def generator(*rates):
        jumps = [Jump(jump_operator(2, 1, 2), parse_rate_expr(rate)) for rate in rates]
        return assemble(LindbladModel(2, np.zeros((2, 2), dtype=complex), jumps))

    @pytest.mark.parametrize("name", MODEL_PARAMS)
    def test_is_the_reference_bit_for_bit(self, name):
        g = assemble(builtin(name, MODEL_PARAMS[name]))
        for times in (np.linspace(0.0, 20.0, 97), np.array([7.25]), np.empty(0)):
            table = rate_table(g, times)
            expected = self.reference(g, times)
            assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
            assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rates, times", [
        # the first rate's value is not finite, the second raises first
        (("t", "sin(t)^2"), [1.0, math.inf]),
        (("1", "exp(t)"), [0.0, 800.0]),
        (("exp(t)", "1/(30 - t)"), [10.0, 30.0]),
    ], ids=["non-finite-value", "overflow", "division-by-zero"])
    def test_a_failure_raises_what_the_reference_raises(self, rates, times):
        g = self.generator(*rates)
        times = np.array(times)
        with pytest.raises(NonFiniteError) as expected:
            self.reference(g, times)
        with pytest.raises(NonFiniteError) as raised:
            rate_table(g, times)
        assert str(raised.value) == str(expected.value)


LEVEL_JUMP = {"from": 3, "to": 2, "rate": "1"}
MATRIX = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]


class TestModelFileKeys:
    @pytest.mark.parametrize("doc, message", [
        ({"hamiltonain": {"diagonal": [1, 0, 2]}}, "top level: unknown key 'hamiltonain'"),
        ({"jump": [LEVEL_JUMP]}, "top level: unknown key 'jump'"),
        ({"hamiltonian": {"diagonal": [1, 0, 2], "matrix": MATRIX}},
         "hamiltonian: give either 'diagonal' or 'matrix', not both"),
        ({"hamiltonian": {"diag": [1, 0, 2]}}, "hamiltonian: unknown key 'diag'"),
        ({"jumps": [{**LEVEL_JUMP, "matrix": MATRIX}]},
         "jumps[0]: give either 'from'/'to' levels or a 'matrix', not both"),
        ({"jumps": [{"to": 2, "matrix": MATRIX, "rate": "1"}]},
         "jumps[0]: give either 'from'/'to' levels or a 'matrix', not both"),
        ({"jumps": [LEVEL_JUMP, {**LEVEL_JUMP, "rates": "2"}]},
         "jumps[1]: unknown key 'rates'"),
        ({"initial_state": {"diagonal": [1, 0, 0], "trace": 1}},
         "initial_state: unknown key 'trace'"),
    ], ids=["top-level-typo", "top-level-unknown", "operator-ambiguous", "operator-unknown",
            "jump-ambiguous", "jump-half-ambiguous", "jump-unknown", "state-unknown"])
    def test_unknown_or_ambiguous_key_is_refused(self, doc, message):
        with pytest.raises(ModelFileError) as err:
            loads_model(json.dumps({"dimension": 3, **doc}))
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("jumps, message", [
        ("ab", "'jumps' must be a list of jump objects"),
        ({"from": 3, "to": 2, "rate": "1"}, "'jumps' must be a list of jump objects"),
        (None, "'jumps' must be a list of jump objects"),
        ([LEVEL_JUMP, "3->2"], "jumps[1]: a jump must be an object"),
        ([[3, 2, "1"]], "jumps[0]: a jump must be an object"),
        ([{"from": 3, "to": 2}], "jumps[0]: needs a 'rate' expression string"),
    ], ids=["string", "object", "null", "string-entry", "list-entry", "no-rate"])
    def test_jumps_must_be_a_list_of_objects(self, jumps, message):
        with pytest.raises(ModelFileError) as err:
            loads_model(json.dumps({"dimension": 3, "jumps": jumps}))
        assert str(err.value) == message

    def test_dumped_model_loads_back(self):
        # level and matrix jumps, a matrix H and a state: every kind of
        # object model_to_dict writes (built-ins: test_cli's --emit-model case)
        rng = np.random.default_rng(15)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jumps = [Jump(v, parse_rate_expr("exp(-t)")),
                 Jump(jump_operator(3, 2, 3), parse_rate_expr("sin(t)^2"), 3, 2)]
        model = LindbladModel(3, h + h.conj().T, jumps)
        state = phase_state(3, [1, 2], [0.4])
        loaded, initial_state = loads_model(json.dumps(model_to_dict(model, state)))
        assert np.array_equal(loaded.hamiltonian, model.hamiltonian)
        assert [(j.source, j.target, j.rate) for j in loaded.jumps] == \
            [(None, None, jumps[0].rate), (3, 2, jumps[1].rate)]
        assert all(np.array_equal(a.operator, b.operator) for a, b in zip(loaded.jumps, jumps))
        assert np.array_equal(initial_state, state)


class TestPhaseState:
    def test_pair_entries(self):
        phi = 0.9
        rho = phase_state(3, [1, 2], [phi])
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[0, 1] == pytest.approx(0.5 * np.exp(-1j * phi))
        assert abs(rho[2, 2]) == 0.0

    def test_is_density_matrix(self):
        rho = phase_state(4, [1, 2, 3], [np.pi, 0.3])
        assert np.trace(rho) == pytest.approx(1.0)
        assert np.abs(rho - rho.conj().T).max() <= 1e-15
        assert np.linalg.eigvalsh(rho).min() >= -1e-15
