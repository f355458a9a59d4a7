import sys
from pathlib import Path

import numpy as np
import pytest

from lindblad_pc import (
    LindbladModel,
    assemble,
    classify,
    compare,
    expm,
    fedorov_residual,
    generator_at,
    integral_at,
    jump_operator,
    ode_oracle,
    parse_rate_expr,
    phase_state,
    propagate_closed_form,
    trace_distance,
    unvec,
    vec,
)
from lindblad_pc import cli, model, modelfile, solver
from lindblad_pc.model import Jump
from lindblad_pc.errors import GridMismatchError
from lindblad_pc.solver import closed_form_blocks

from conftest import (
    MODEL_NAMES,
    MODEL_PARAMS,
    admissible_bank,
    assert_oracle_matches_scipy,
    diag_state,
    driven,
    make_generator,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

GRID = np.linspace(0.0, 10.0, 201)


def constant_rate_model():
    jumps = [
        Jump(jump_operator(3, 2, 3), parse_rate_expr("0.4", {}), 3, 2),
        Jump(jump_operator(3, 1, 2), parse_rate_expr("0.9", {}), 2, 1),
    ]
    return assemble(LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps))


class TestClosedForm:
    def test_initial_state_is_returned_at_zero(self):
        g = make_generator("cascade3")
        rho0 = phase_state(3, [1, 2], [0.4])
        tr = propagate_closed_form(g, rho0, GRID)
        assert np.abs(tr.states[0] - rho0).max() == 0.0

    def test_initial_state_is_returned_at_zero_under_a_shifted_exponential(self):
        # Gamma(0) = (exp(b) - exp(b)) / a is 0 only when the constant exp(b)
        # is rounded as the rate's exp is; at this b, math.exp and numpy's
        # exp differ by one ULP
        jumps = [Jump(jump_operator(3, 2, 3), parse_rate_expr("exp(-0.5*t + 2.992101)"), 3, 2),
                 Jump(jump_operator(3, 1, 2), parse_rate_expr("cos(t)^2"), 2, 1)]
        g = assemble(LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps))
        for rho0 in (phase_state(3, [2, 3], [0.4]), diag_state(0.2, 0.3, 0.5)):
            tr = propagate_closed_form(g, rho0, GRID)
            assert np.abs(tr.states[0] - rho0).max() == 0.0

    def test_v3_populations(self):
        g = make_generator("v3")
        tr = propagate_closed_form(g, diag_state(0.5, 0, 0.5), GRID)
        t = GRID
        p1 = 0.5 * np.exp((-2 * t + np.sin(2 * t)) / 4)
        p2 = 1 - np.exp(-t / 2) * np.cosh(np.sin(2 * t) / 4)
        p3 = 0.5 * np.exp(-(2 * t + np.sin(2 * t)) / 4)
        assert np.abs(tr.states[:, 0, 0].real - p1).max() <= 1e-12
        assert np.abs(tr.states[:, 1, 1].real - p2).max() <= 1e-12
        assert np.abs(tr.states[:, 2, 2].real - p3).max() <= 1e-12

    def test_cascade3_middle_level_decay(self):
        g = make_generator("cascade3")
        for p in (0.0, 0.35):
            tr = propagate_closed_form(g, diag_state(p, 1 - p, 0), GRID)
            xi = (1 - p) * np.exp(-(2 * GRID + np.sin(2 * GRID)) / 4)
            assert np.abs(tr.states[:, 1, 1].real - xi).max() <= 1e-12
            assert np.abs(tr.states[:, 0, 0].real - (1 - xi)).max() <= 1e-12
            assert np.abs(tr.states[:, 2, 2]).max() <= 1e-12

    def test_earlier_queries_leave_a_quadrature_solution_unchanged(self):
        # a cascade whose rates only quadrature integrates, run to 40
        model = LindbladModel(3, np.diag([-0.5, 0.0, 0.5]).astype(complex), [
            Jump(jump_operator(3, 1, 2), parse_rate_expr("1/(1 + 1.1*t^2)", {}), 2, 1),
            Jump(jump_operator(3, 2, 3), parse_rate_expr("t*exp(-0.9*t)", {}), 3, 2),
        ])
        rho0 = phase_state(3, [1, 2], [1.2])
        grid = np.linspace(0.0, 40.0, 301)
        fresh = propagate_closed_form(assemble(model, 40.0), rho0, grid)
        queried = assemble(model, 40.0)
        for t in (3.3, 17.0, 33.0, 0.05, 39.9):
            integral_at(queried, t)
        again = propagate_closed_form(queried, rho0, grid)
        assert np.array_equal(fresh.states, again.states)

    def test_grid_must_start_at_zero(self):
        g = make_generator("v3")
        with pytest.raises(ValueError):
            propagate_closed_form(g, diag_state(1, 0, 0), np.linspace(1.0, 2.0, 5))


class TestWindow:
    """Every entry point refuses a grid that ends past g.window, where the
    rates were checked and their antiderivatives built."""

    @pytest.mark.parametrize("call", [
        lambda g, rho0, grid: list(closed_form_blocks(g, rho0, grid)),
        propagate_closed_form,
        ode_oracle,
        lambda g, rho0, grid: fedorov_residual(g, vec(rho0), grid),
    ], ids=["closed_form_blocks", "propagate_closed_form", "ode_oracle", "fedorov_residual"])
    def test_a_grid_past_the_window_is_refused(self, call):
        g = make_generator("cascade3")
        rho0 = diag_state(1, 0, 0)
        with pytest.raises(ValueError, match=r"t=20\.5, past the window \[0, 20\]"):
            call(g, rho0, np.linspace(0.0, 20.5, 5))
        call(g, rho0, np.linspace(0.0, g.window, 5))

    def test_a_rate_that_turns_negative_past_the_window_is_named(self):
        # On the default window both rates pass the check; propagating to
        # t = 100 on that generator overflowed, where assembling for the
        # run names the negative rate.
        jumps = [Jump(jump_operator(3, 2, 3), parse_rate_expr("1/(1 + 1.1*t^2)"), 3, 2),
                 Jump(jump_operator(3, 1, 2), parse_rate_expr("25 - t"), 2, 1)]
        model = LindbladModel(3, np.diag([-1.0, 0.0, 1.0]).astype(complex), jumps)
        g = assemble(model)
        with pytest.raises(ValueError, match=r"past the window \[0, 20\]"):
            propagate_closed_form(g, diag_state(0, 0, 1), np.linspace(0.0, 100.0, 5))
        with pytest.raises(ValueError, match=r"rate '25 - t' is negative at t=25\.25"):
            assemble(model, 1e4)


class TestOracle:
    def test_constant_generator_matches_semigroup(self):
        g = constant_rate_model()
        rho0 = diag_state(0.2, 0.5, 0.3)
        tr = ode_oracle(g, rho0, GRID)
        gen = generator_at(g, 0.0)
        for i in (50, 120, 200):
            expected = unvec(expm(GRID[i] * gen) @ vec(rho0), 3)
            assert np.abs(tr.states[i] - expected).max() <= 1e-8

    def test_matches_closed_form_for_commutative_model(self):
        g = make_generator("v3")
        rho0 = phase_state(3, [1, 3], [np.pi])
        closed = propagate_closed_form(g, rho0, GRID)
        oracle = ode_oracle(g, rho0, GRID)
        assert compare(closed, oracle) <= 1e-7

    def test_lambda3_lower_mixture_is_stationary(self):
        g = make_generator("lambda3")
        rho0 = diag_state(0.35, 0.0, 0.65)
        tr = ode_oracle(g, rho0, GRID)
        assert max(np.abs(tr.states[i] - rho0).max() for i in range(GRID.size)) <= 1e-9

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_reads_no_blocks(self, name):
        # the oracle integrates the entry table alone, so `verify` tests the
        # blocks against an integration that does not assume them
        g = make_generator(name)
        rho0 = admissible_bank(name)[-1]
        whole, bare = ode_oracle(g, rho0, GRID), ode_oracle(g._replace(groups=()), rho0, GRID)
        assert np.array_equal(whole.states, bare.states)
        assert whole.rhs_calls == bare.rhs_calls > 0
        assert propagate_closed_form(g, rho0, GRID).rhs_calls is None


def quadrature_verifies(seed, directory):
    """(model, initial state) of each verify of the benchmark's seeded
    quadrature-solve workload: d = 3, 4, 6 cascades whose rates need
    quadrature."""
    cases = []
    for op in workloads.build("quadrature-solve", seed, directory):
        if op.command == "verify":
            path, _, spec = op.args
            loaded, _ = modelfile.load_model(path)
            cases.append((loaded, cli._parse_rho0(spec, loaded.dim)))
    return cases


class TestOracleAgainstScipy:
    """The in-package DOP853 loop takes the steps of scipy's DOP853 on the
    CLI's default grid: the same number of right-hand-side evaluations,
    and the same states to rounding."""

    def check(self, loaded, rho0):
        grid = np.linspace(0.0, model.HORIZON, cli.DEFAULT_STEPS)
        assert_oracle_matches_scipy(model.assemble(loaded), rho0, grid, 1e-14)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_builtins(self, name):
        self.check(model.builtin(name, MODEL_PARAMS[name]), admissible_bank(name)[-1])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quadrature_cascades(self, tmp_path, seed):
        for loaded, rho0 in quadrature_verifies(seed, tmp_path):
            self.check(loaded, rho0)


def central_difference_residual(g, alpha, grid):
    """The flow residual with d/dt exp(B(t)) alpha taken by central
    differences (h = 1e-5 times the grid step), skipping t < h; an
    independent reference for the exact derivative."""
    h = 1e-5 * float(np.median(np.diff(grid)))

    def flow(t):
        return expm(integral_at(g, t)) @ alpha

    worst = 0.0
    for t in grid[grid >= h]:
        derivative = (flow(t + h) - flow(t - h)) / (2.0 * h)
        residual = derivative - generator_at(g, t) @ flow(t)
        worst = max(worst, float(np.linalg.norm(residual)))
    return worst / float(np.linalg.norm(alpha))


class TestFedorovResidual:
    def test_matches_central_difference_on_negative_control(self):
        # the differences reach B(t + h) at the grid's end, so the window holds that time
        g = model.assemble(model.builtin("cascade3", MODEL_PARAMS["cascade3"]), 21.0)
        alpha = vec(diag_state(0.0, 0.0, 1.0))
        grid = np.linspace(0.0, 20.0, 400)
        exact = fedorov_residual(g, alpha, grid)
        assert exact == pytest.approx(central_difference_residual(g, alpha, grid),
                                      rel=1e-6)

    @pytest.mark.parametrize("name", ["cascade3", "cascade4"])
    def test_near_machine_precision_on_admissible_states(self, name):
        g = make_generator(name)
        grid = np.linspace(0.0, 20.0, 400)
        for rho0 in admissible_bank(name):
            assert fedorov_residual(g, vec(rho0), grid) <= 1e-13

    def test_small_on_admissible_vector(self):
        g = make_generator("cascade3")
        alpha = vec(diag_state(0.5, 0.5, 0.0))
        assert fedorov_residual(g, alpha, np.linspace(0, 5, 51)) <= 1e-6

    def test_large_on_inadmissible_vector(self):
        g = make_generator("cascade3")
        alpha = vec(diag_state(0.0, 0.0, 1.0))
        assert fedorov_residual(g, alpha, np.linspace(0, 5, 51)) > 1e-2

    def test_small_for_functionally_commutative_generator(self):
        g = make_generator("v3")
        rng = np.random.default_rng(30)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        alpha = vec(rho / np.trace(rho))
        assert fedorov_residual(g, alpha, np.linspace(0, 5, 51)) <= 1e-6


class TestCompare:
    def test_identical_trajectories(self):
        g = make_generator("v3")
        tr = propagate_closed_form(g, diag_state(0.5, 0, 0.5), GRID)
        assert compare(tr, tr) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_stacks_give_one_distance_per_pair(self):
        g = make_generator("cascade3")
        rho0 = diag_state(0, 0, 1)
        closed = propagate_closed_form(g, rho0, GRID).states
        oracle = ode_oracle(g, rho0, GRID).states
        assert np.array_equal(trace_distance(closed, oracle),
                              [trace_distance(a, b) for a, b in zip(closed, oracle)])

    def test_grid_mismatch(self):
        g = make_generator("v3")
        a = propagate_closed_form(g, diag_state(1, 0, 0), np.linspace(0, 5, 11))
        b = propagate_closed_form(g, diag_state(1, 0, 0), np.linspace(0, 5, 21))
        with pytest.raises(GridMismatchError):
            compare(a, b)


class TestSemigroupSanity:
    def test_constant_rates_compose(self):
        g = constant_rate_model()
        rho0 = diag_state(0.1, 0.6, 0.3)
        t1, t2 = 1.3, 2.4
        step1 = propagate_closed_form(g, rho0, np.array([0.0, t1]))
        step2 = propagate_closed_form(g, step1.states[1], np.array([0.0, t2]))
        direct = propagate_closed_form(g, rho0, np.array([0.0, t1 + t2]))
        assert np.abs(step2.states[1] - direct.states[1]).max() <= 1e-9


class TestTrajectoryInvariants:
    @pytest.mark.parametrize("name", ["v3", "cascade3", "lambda3", "cascade4"])
    def test_trace_hermiticity_positivity(self, name):
        g = make_generator(name)
        grid = np.linspace(0.0, 10.0, 51)
        for rho0 in admissible_bank(name)[:4]:
            for tr in (propagate_closed_form(g, rho0, grid),
                       ode_oracle(g, rho0, grid)):
                for state in tr.states:
                    assert abs(np.trace(state) - 1.0) <= 1e-9
                    assert np.abs(state - state.conj().T).max() <= 1e-9
                    herm = 0.5 * (state + state.conj().T)
                    assert np.linalg.eigvalsh(herm).min() >= -1e-7


class TestNegativeControl:
    def test_cascade3_top_level_is_not_solved_by_closed_form(self):
        g = make_generator("cascade3")
        rho0 = diag_state(0, 0, 1)
        grid = np.linspace(0.0, 5.0, 51)
        closed = propagate_closed_form(g, rho0, grid)
        oracle = ode_oracle(g, rho0, grid)
        assert compare(closed, oracle) > 1e-3


def benchmark_verifies(directory):
    """(argv, model, initial state) of each verify of the benchmark's
    workloads at seed 1 that must pass: the four built-ins and the d = 3,
    4, 6 quadrature cascades."""
    cases = []
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, directory):
            if op.command == "verify" and op.exit_code == cli.EXIT_OK:
                args = cli.build_parser().parse_args(op.argv)
                loaded, initial_state = cli._load_model(args)
                cases.append((list(op.argv), loaded,
                              cli._resolve_rho0(args, loaded.dim, initial_state)))
    return cases


class TestFlowBlocks:
    """`verify`'s one pass takes the states of each group with b > 1 from
    the exponential of `expm_frechet`, `solve` from `expm`. The two are
    one algorithm and give the same numbers, except on a triangular block,
    where `expm` alone sets the exact diagonal and first off-diagonal
    after each squaring."""

    @pytest.mark.parametrize("t_max", [20.0, 1e3])
    @pytest.mark.parametrize("name", ["v3", "lambda3", "driven8"])
    def test_states_are_the_closed_form_where_no_block_is_triangular(self, name, t_max):
        loaded = driven(8) if name == "driven8" else model.builtin(name, MODEL_PARAMS[name])
        g = model.assemble(loaded, t_max)
        assert all(np.tril(terms, -1).any() and np.triu(terms, 1).any()
                   for coords, terms in g.groups if coords.shape[1] > 1)
        rho0 = phase_state(loaded.dim, [1, 2], [0.7])
        grid = np.linspace(0.0, t_max, cli.DEFAULT_STEPS)
        closed = np.concatenate([block.states for block in closed_form_blocks(g, rho0, grid)])
        one = np.concatenate([block.states for block, _ in solver.flow_blocks(g, vec(rho0), grid)])
        assert np.array_equal(one, closed)

    @pytest.mark.parametrize("t_max", [20.0, 1e3, 1e4])
    def test_states_are_the_closed_form_to_its_rounding(self, tmp_path, t_max):
        """On the benchmark's models, whose cascades have triangular
        population blocks, the states agree to the closed form's rounding
        bound, and on the one-coordinate blocks bit for bit."""
        # at most 0.027 of the bound was seen
        grid = np.linspace(0.0, t_max, cli.DEFAULT_STEPS)
        for _, loaded, rho0 in benchmark_verifies(tmp_path):
            g = model.assemble(loaded, t_max)
            closed = propagate_closed_form(g, rho0, grid)
            one = np.concatenate([b.states for b, _ in solver.flow_blocks(g, vec(rho0), grid)])
            assert np.all(np.abs(one - closed.states).max(axis=(1, 2)) <= closed.rounding)
            single = np.concatenate([coords.ravel() for coords, _ in g.groups
                                     if coords.shape[1] == 1])
            assert single.size
            flat = [np.swapaxes(s, 1, 2).reshape(grid.size, -1)[:, single]
                    for s in (one, closed.states)]
            assert np.array_equal(*flat)

    def test_residual_is_the_one_verify_prints(self, tmp_path, capsys):
        grid = np.linspace(0.0, model.HORIZON, cli.DEFAULT_STEPS)
        for argv, loaded, rho0 in benchmark_verifies(tmp_path):
            assert cli.main(argv) == cli.EXIT_OK
            residual = fedorov_residual(model.assemble(loaded), vec(rho0), grid)
            assert f"fedorov residual: {residual:.3e}\n" in capsys.readouterr().out


def complex_typed(g):
    """g with every group's entries taken as complex128: the arithmetic
    that a float64 group replaces."""
    return g._replace(groups=tuple((coords, terms.astype(complex)) for coords, terms in g.groups))


class TestRealGroups:
    """The quadrature cascades' population groups are float64 (see the
    model module docstring): propagated, certified and gated in real
    arithmetic, they give what the same groups taken as complex give, to
    rounding."""

    @pytest.mark.parametrize("t_max", [20.0, 1e3])
    def test_solve_and_verify_are_the_complex_path_to_its_rounding(self, tmp_path, t_max):
        grid = np.linspace(0.0, t_max, cli.DEFAULT_STEPS)
        for loaded, rho0 in quadrature_verifies(1, tmp_path):
            g = model.assemble(loaded, t_max)
            assert g.groups[-1][1].dtype == np.float64
            ref = complex_typed(g)
            closed, closed_ref = (propagate_closed_form(x, rho0, grid) for x in (g, ref))
            assert np.all(np.abs(closed.states - closed_ref.states).max(axis=(1, 2))
                          <= closed_ref.rounding)
            flows = [list(solver.flow_blocks(x, vec(rho0), grid)) for x in (g, ref)]
            one, one_ref = (np.concatenate([block.states for block, _ in f]) for f in flows)
            assert np.all(np.abs(one - one_ref).max(axis=(1, 2)) <= closed_ref.rounding)
            assert max(residual for _, residual in flows[0]) <= 1e-15

    def test_the_gate_decides_as_the_complex_path(self, tmp_path):
        for loaded, _ in quadrature_verifies(1, tmp_path):
            g = model.assemble(loaded)
            ours, theirs = classify(g), classify(complex_typed(g))
            assert (ours.functional, ours.integral, ours.partial_rank, ours.power_cap) == (
                theirs.functional, theirs.integral, theirs.partial_rank, theirs.power_cap)
            assert np.abs(ours.subspace.projector() - theirs.subspace.projector()).max() <= 1e-12
            assert ours.residual_max <= 1e-15 and theirs.residual_max <= 1e-15
