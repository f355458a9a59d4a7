"""The generator's invariant blocks, and the blocked, chunked closed form,
flow residual and admissibility gate against dense references."""

import itertools
import json
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
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
    fedorov_residual,
    functional_commutativity,
    generator_at,
    integral_at,
    integral_commutativity,
    jump_operator,
    load_model,
    loads_model,
    minimal_poly_degree,
    null_space,
    parse_rate_expr,
    partial_subspace,
    phase_state,
    propagate_closed_form,
    unvec,
    vec,
)
from lindblad_pc.linalg import DEFAULT_REL_TOL
from lindblad_pc.model import Jump
from lindblad_pc import commutativity, exponential, linalg, model, solver
from lindblad_pc.cli import _use_one_blas_thread

from conftest import MODEL_NAMES, MODEL_PARAMS, assert_oracle_matches_scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402
from tools.scaling import RATES  # noqa: E402

CLOSED_FORM_RATES = ("sin({w}*t)^2", "cos({w}*t)^2", "exp(-{a}*t)", "{a}")
QUADRATURE_RATES = ("1/(1 + {a}*t^2)", "t*exp(-{a}*t)")


def cascade(d, h=None):
    """Level k+1 decays to k at rate sin^2, exp or 1/(1 + t^2) in turn."""
    rates = ("sin(1.1*t)^2", "exp(-0.9*t)", "1/(1 + t^2)")
    jumps = [Jump(jump_operator(d, k, k + 1), parse_rate_expr(rates[(k - 1) % 3]), k + 1, k)
             for k in range(1, d)]
    if h is None:
        h = np.diag(0.5 * np.arange(d) - 0.3).astype(complex)
    return LindbladModel(d, h, jumps)


def dense_closed_form(g, rho0, grid):
    v0 = vec(rho0)
    return np.array([unvec(scipy.linalg.expm(integral_at(g, t)) @ v0, g.dim) for t in grid])


def dense_residual(g, alpha, grid):
    worst = 0.0
    for t in grid:
        gen = generator_at(g, t)
        flow, derivative = scipy.linalg.expm_frechet(integral_at(g, t), gen)
        residual = derivative @ alpha - gen @ (flow @ alpha)
        worst = max(worst, float(np.linalg.norm(residual)))
    return worst / float(np.linalg.norm(alpha))


def dense_gate(g):
    """M by the dense mu x mu definition: the power cap from the minimal
    polynomial of the whole B(t), Gamma summed over the sample times, and
    null_space."""
    times = default_sample_times()
    degree = max(minimal_poly_degree(integral_at(g, t)) for t in times)
    cap = max(1, min(g.mu - 1, degree - 1))
    total = np.zeros((g.mu, g.mu), dtype=complex)
    for t in times:
        gen, b = generator_at(g, t), integral_at(g, t)
        power = np.eye(g.mu, dtype=complex)
        for _ in range(cap):
            power = power @ b
            norm = np.linalg.norm(power)
            if norm > 0.0:
                c = commutator(gen, power) / norm
                total += c.conj().T @ c
    return null_space(0.5 * (total + total.conj().T))


def dense_commute(a, b):
    return (np.linalg.norm(commutator(a, b))
            <= DEFAULT_REL_TOL * np.linalg.norm(a) * np.linalg.norm(b))


def dense_components(loaded):
    """The drift and each dissipator of a model as dense mu x mu matrices,
    from the Kronecker-product formulas."""
    eye = np.eye(loaded.dim, dtype=complex)
    h = np.asarray(loaded.hamiltonian, dtype=complex)
    out = [1j * (np.kron(h.T, eye) - np.kron(eye, h))]
    for jump in loaded.jumps:
        v = np.asarray(jump.operator, dtype=complex)
        vdv = v.conj().T @ v
        out.append(np.kron(v.conj(), v) - 0.5 * np.kron(eye, vdv) - 0.5 * np.kron(vdv.T, eye))
    return out


def dense_criteria(loaded, g):
    """(functional, integral) from dense mu x mu commutators."""
    components = dense_components(loaded)
    return (all(dense_commute(a, b) for a, b in itertools.combinations(components, 2)),
            all(dense_commute(generator_at(g, t), integral_at(g, t))
                for t in default_sample_times()))


def assert_gate_matches_dense(loaded):
    g = assemble(loaded)
    expected, sub = dense_gate(g), partial_subspace(g)
    assert sub.rank == expected.rank
    assert np.abs(sub.projector() - expected.projector()).max() <= 1e-12
    assert (functional_commutativity(g), integral_commutativity(g)) == dense_criteria(loaded, g)


class TestStructure:
    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_cascade_has_one_population_block_and_single_coherences(self, d):
        g = assemble(cascade(d))
        assert [coords.shape for coords, _ in g.groups] == [(d * d - d, 1), (1, d)]
        population = g.groups[-1][0][0]
        assert population.tolist() == [k * (d + 1) for k in range(d)]  # rho_kk

    def test_blocks_partition_the_coordinates(self):
        g = assemble(cascade(5))
        coords = [c for c, _ in g.groups]
        assert np.array_equal(np.sort(np.concatenate([c.ravel() for c in coords])),
                              np.arange(25))
        assert [c.shape[1] for c in coords] == sorted({c.shape[1] for c in coords})
        for c in coords:  # each block sorted, the blocks by first coordinate
            assert np.all(np.diff(c, axis=1) > 0)
            assert np.all(np.diff(c[:, 0]) > 0)

    def test_full_hamiltonian_is_one_block(self):
        d = 4
        rng = np.random.default_rng(11)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = assemble(cascade(d, a + a.conj().T))
        assert len(g.groups) == 1
        assert g.groups[0][0].tolist() == [list(range(d * d))]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_blocks_are_the_connected_components(self, mu, seed, density):
        # scipy's components as the reference, on random edge lists of
        # mu * density edges and on a path through a shuffled order
        rng = np.random.default_rng(seed)
        order = rng.permutation(mu)
        edges = rng.integers(0, mu, size=(2, int(mu * density)))
        for rows, cols in (edges, (order[:-1], order[1:])):
            graph = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(mu, mu))
            _, label = scipy.sparse.csgraph.connected_components(graph, directed=False)
            expected = sorted((np.flatnonzero(label == k) for k in range(label.max() + 1)),
                              key=lambda b: b[0])
            blocks = model._invariant_blocks(mu, rows, cols)
            assert [b.tolist() for b in blocks] == [b.tolist() for b in expected]


@st.composite
def models(draw):
    """A d-level model, d in 2..5: diagonal H, or one off-diagonal
    coupling; level transitions or dense jumps; closed-form and quadrature
    rates. Returned with a random density matrix."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex)
    if draw(st.booleans()):  # one off-diagonal coupling
        i, j = rng.choice(d, size=2, replace=False)
        h[i, j] = complex(*rng.normal(size=2)) / 2
        h[j, i] = np.conj(h[i, j])
    jumps = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):  # level transition
            source, target = (int(k) + 1 for k in rng.choice(d, size=2, replace=False))
            operator = jump_operator(d, target, source)
        else:
            operator = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
        template = draw(st.sampled_from(CLOSED_FORM_RATES + QUADRATURE_RATES))
        rate = template.format(a=round(rng.uniform(0.5, 1.5), 3),
                               w=round(rng.uniform(0.5, 1.5), 3))
        jumps.append(Jump(operator, parse_rate_expr(rate)))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = a @ a.conj().T
    return LindbladModel(d, h, jumps), rho0 / np.trace(rho0)


class TestAgainstDense:
    @settings(max_examples=40, deadline=None)
    @given(models(), st.floats(0.5, 5.0), st.integers(2, 40))
    def test_closed_form_and_residual_match_dense_references(self, drawn, t_max, points):
        model, rho0 = drawn
        g = assemble(model, t_max)
        grid = np.linspace(0.0, t_max, points)
        states = propagate_closed_form(g, rho0, grid).states
        assert np.abs(states - dense_closed_form(g, rho0, grid)).max() <= 1e-12
        alpha = vec(rho0)
        assert abs(fedorov_residual(g, alpha, grid)
                   - dense_residual(g, alpha, grid)) <= 1e-14

    def test_blocks_of_one_size_share_one_stack(self, monkeypatch):
        # two couplings and two dephasing jumps on d = 4: four blocks of 4
        h = np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex)
        h[0, 1] = h[1, 0] = 0.3
        h[2, 3] = h[3, 2] = 0.2
        model = LindbladModel(4, h, [
            Jump(jump_operator(4, 1, 1), parse_rate_expr("sin(t)^2")),
            Jump(jump_operator(4, 3, 3), parse_rate_expr("exp(-t)"))])
        g = assemble(model, 3.0)
        assert [coords.tolist() for coords, _ in g.groups] == [
            [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]]
        rho0 = phase_state(4, [1, 2, 3, 4], [0.3, 1.1, 2.0])
        grid = np.linspace(0.0, 3.0, 25)
        calls = []
        expm = solver.expm
        monkeypatch.setattr(solver, "expm", lambda a: calls.append(a.shape) or expm(a))
        states = propagate_closed_form(g, rho0, grid).states
        assert calls == [(25, 4, 4, 4)]
        assert np.abs(states - dense_closed_form(g, rho0, grid)).max() <= 1e-12
        alpha = vec(rho0)
        assert abs(fedorov_residual(g, alpha, grid)
                   - dense_residual(g, alpha, grid)) <= 1e-14

    def test_chunks_give_the_points_run_alone(self, monkeypatch):
        g = assemble(cascade(4), 40.0)
        rho0 = phase_state(4, [1, 2, 4], [0.3, 1.1])
        grid = np.linspace(0.0, 40.0, 1500)
        # 64 points per row block of the closed form and 25 of the residual,
        # whose stacks expm and expm_frechet cut into slabs of 23 and 14
        # 4 x 4 slices
        monkeypatch.setattr(linalg, "SLAB_BYTES", 2**16)
        assert len(solver._row_blocks(g, grid.size)) > 2
        assert len(solver._row_blocks(g, grid.size, frechet=True)) > 2
        frechet, plain = (linalg.SLAB_BYTES // exponential._slice_bytes(4, f)
                          for f in (True, False))
        assert 1 < frechet < plain < 25
        whole = propagate_closed_form(g, rho0, grid).states
        alone = np.array([propagate_closed_form(g, rho0, np.array([0.0, t])).states[-1]
                          for t in grid[1:]])
        assert np.array_equal(whole[0], rho0)
        assert np.array_equal(whole[1:], alone)
        alpha = vec(rho0)
        assert fedorov_residual(g, alpha, grid) == max(
            fedorov_residual(g, alpha, np.array([0.0, t])) for t in grid[1:])


class TestGateAgainstDense:
    @settings(max_examples=40, deadline=None)
    @given(models())
    def test_random_models(self, drawn):
        assert_gate_matches_dense(drawn[0])

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_builtins(self, name):
        assert_gate_matches_dense(builtin(name, MODEL_PARAMS[name]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quadrature_workload_cascades(self, seed, tmp_path):
        workloads.build("quadrature-solve", seed, tmp_path)
        for path in sorted((tmp_path / "inputs").glob("*.json")):
            assert_gate_matches_dense(load_model(path)[0])

    @pytest.mark.parametrize("d", range(3, 11))
    def test_cascades(self, d):
        assert_gate_matches_dense(cascade(d))

    @pytest.mark.parametrize("which", ["cascade4", "quadrature6"])
    def test_chain_runs_of_one_sample_time_keep_the_report(self, which, monkeypatch, tmp_path):
        # the commutator chain and the power cap cut their sample times to
        # linalg.SLAB_BYTES; one time per run puts a run boundary between
        # every two, in the gate's Gamma sum and in the re-check
        if which == "cascade4":
            g = assemble(builtin("cascade4", MODEL_PARAMS["cascade4"]))
        else:
            workloads.build("quadrature-solve", 1, tmp_path)
            g = assemble(load_model(tmp_path / "inputs" / "quadrature6.json")[0])
        whole = classify(g)
        runs = []
        row_slices = commutativity._row_slices
        monkeypatch.setattr(commutativity, "_row_slices",
                            lambda *args: runs.append(row_slices(*args)) or runs[-1])
        monkeypatch.setattr(linalg, "SLAB_BYTES", 2**10)
        alone = classify(g)
        assert all(s.stop - s.start == 1 for slices in runs for s in slices)
        assert {len(slices) for slices in runs} >= {12, 120}
        assert (alone.partial_rank, alone.power_cap, alone.integral, alone.residual_max) == (
            whole.partial_rank, whole.power_cap, whole.integral, whole.residual_max)
        assert np.abs(alone.subspace.projector() - whole.subspace.projector()).max() <= 1e-12

    def test_classify_builds_no_dense_generator(self, monkeypatch):
        def dense(*args):
            raise AssertionError("dense L(t) or B(t) built")

        for owner in (model, commutativity):
            monkeypatch.setattr(owner, "generator_at", dense)
            monkeypatch.setattr(owner, "integral_at", dense)
        report = classify(assemble(cascade(12)))
        assert report.partial_rank == 144 - 10
        assert report.residual_max <= 1e-15


def coupled(d):
    """A cascade under a random full Hamiltonian: one block of size d^2,
    and an initial state in it."""
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = assemble(cascade(d, (a + a.conj().T) / (2 * d)))
    assert [coords.shape for coords, _ in g.groups] == [(1, d * d)]
    return g, phase_state(d, [1, d], [0.4])


class TestMemory:
    """A fully coupled generator is one block of size d^2: its row blocks
    hold one slab of stacks (linalg.SLAB_BYTES), and expm and expm_frechet
    work through each a slab of working set at a time, whatever the number
    of time points."""

    @pytest.fixture(autouse=True)
    def one_blas_thread(self):
        # as the CLI runs: two OpenBLAS threads make these 64 x 64
        # exponentials about 20 times slower (see the cli module docstring)
        _use_one_blas_thread()

    def test_stacks_stay_within_the_budget(self, monkeypatch):
        g, rho0 = coupled(8)
        stacks = []
        expm, expm_frechet = solver.expm, solver.expm_frechet
        monkeypatch.setattr(solver, "expm", lambda a: stacks.append(a.nbytes) or expm(a))
        # the residual keeps four b x b stacks: A, E, exp(A) and L(A, E)
        monkeypatch.setattr(solver, "expm_frechet",
                            lambda a, e: stacks.append(4 * a.nbytes) or expm_frechet(a, e))
        grid = np.linspace(0.0, 20.0, 300)
        propagate_closed_form(g, rho0, grid)
        fedorov_residual(g, vec(rho0), grid)
        assert max(stacks) <= linalg.SLAB_BYTES
        # five points per closed-form row block, three per residual one
        assert len(stacks) == 60 + 100

    def test_peak_memory_does_not_grow_with_the_chunk(self):
        # 300 points in one stack would take 19 MiB for the closed form
        # and 75 MiB for the residual
        g, rho0 = coupled(8)
        grid = np.linspace(0.0, 20.0, 300)
        tracemalloc.start()
        try:
            propagate_closed_form(g, rho0, grid)
            fedorov_residual(g, vec(rho0), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


class TestOracleAgainstScipyOnLargeGenerators:
    """The oracle against scipy's DOP853 on the dense L(t) @ y where the
    entry table is large: the same number of right-hand-side evaluations,
    and states within 1e-14 (4.4e-16 and 1.5e-15 measured)."""

    GRID = np.linspace(0.0, model.HORIZON, 400)

    def test_d16_cascade(self):
        # the d = 16 cascade of tools/scaling.py, mu = 256
        doc = workloads.cascade_model(16, random.Random("scaling:16"), RATES)
        g = assemble(loads_model(json.dumps(doc))[0])
        assert_oracle_matches_scipy(g, phase_state(16, [1, 2], [0.7]), self.GRID, 1e-14)

    def test_fully_coupled_d8(self):
        g, rho0 = coupled(8)
        assert_oracle_matches_scipy(g, rho0, self.GRID, 1e-14)


def test_a_large_cascade_holds_no_dense_part():
    # the d = 32 cascade of tools/scaling.py, mu = 1024: its drift and 31
    # dissipators as dense mu x mu matrices took 512 MiB
    doc = workloads.cascade_model(32, random.Random("scaling:32"), RATES)
    loaded, _ = loads_model(json.dumps(doc))
    rho0 = phase_state(32, [1, 2], [0.7])
    tracemalloc.start()
    try:
        g = assemble(loaded)
        _, assembled = tracemalloc.get_traced_memory()
        classify(g)
        assert admissible(rho0, partial_subspace(g))
        propagate_closed_form(g, rho0, np.linspace(0.0, 20.0, 100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert assembled <= 8 * 2**20
    assert peak <= 64 * 2**20


def test_a_large_cascade_keeps_the_gate_block_sized():
    # the d = 32 cascade of tools/scaling.py: M has rank 994 of mu = 1024,
    # so each dense mu x rank basis of it takes 16 MiB; the commutator
    # chain and the power cap hold about one linalg.SLAB_BYTES at a time
    # (about 3.1 MiB at the peak)
    doc = workloads.cascade_model(32, random.Random("scaling:32"), RATES)
    loaded, _ = loads_model(json.dumps(doc))
    rho0 = phase_state(32, [1, 2], [0.7])
    tracemalloc.start()
    try:
        g = assemble(loaded)
        tracemalloc.reset_peak()
        report = classify(g)
        sub = partial_subspace(g)
        assert admissible(rho0, sub)
        assert excluded_coordinate(sub) == (None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.partial_rank == sub.rank == 994
    assert report.power_cap == 10
    assert peak <= 6 * 2**20
