"""The generator's invariant blocks, and the blocked, chunked closed form
and flow residual against dense per-point references."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from lindblad_pc import (
    LindbladModel,
    assemble,
    fedorov_residual,
    generator_at,
    integral_at,
    jump_operator,
    parse_rate_expr,
    phase_state,
    propagate_closed_form,
    unvec,
    vec,
)
from lindblad_pc.model import Jump
from lindblad_pc import solver
from lindblad_pc.cli import _use_one_blas_thread
from lindblad_pc.solver import CHUNK, STACK_BYTES

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


class TestStructure:
    @pytest.mark.parametrize("d", [2, 3, 6, 9])
    def test_cascade_has_one_population_block_and_single_coherences(self, d):
        g = assemble(cascade(d))
        sizes = sorted(b.size for b in g.blocks)
        assert sizes == [1] * (d * d - d) + [d]
        population = next(b for b in g.blocks if b.size == d)
        assert population.tolist() == [k * (d + 1) for k in range(d)]  # rho_kk

    def test_blocks_partition_the_coordinates(self):
        g = assemble(cascade(5))
        assert np.array_equal(np.sort(np.concatenate(g.blocks)), np.arange(25))
        assert [b[0] for b in g.blocks] == sorted(b[0] for b in g.blocks)

    def test_full_hamiltonian_is_one_block(self):
        d = 4
        rng = np.random.default_rng(11)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = assemble(cascade(d, a + a.conj().T))
        assert len(g.blocks) == 1
        assert g.blocks[0].tolist() == list(range(d * d))


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

    def test_chunks_give_the_points_run_alone(self):
        g = assemble(cascade(4), 40.0)
        rho0 = phase_state(4, [1, 2, 4], [0.3, 1.1])
        grid = np.linspace(0.0, 40.0, 1500)
        assert grid.size > 2 * CHUNK
        whole = propagate_closed_form(g, rho0, grid).states
        alone = np.array([propagate_closed_form(g, rho0, np.array([0.0, t])).states[-1]
                          for t in grid[1:]])
        assert np.array_equal(whole[0], rho0)
        assert np.array_equal(whole[1:], alone)
        alpha = vec(rho0)
        assert fedorov_residual(g, alpha, grid) == max(
            fedorov_residual(g, alpha, np.array([0.0, t])) for t in grid[1:])


class TestMemory:
    """A fully coupled generator is one block of size d^2: its stacks are
    cut to STACK_BYTES, not to CHUNK points."""

    @pytest.fixture(autouse=True)
    def one_blas_thread(self):
        # as the CLI runs: two OpenBLAS threads make these 64 x 64
        # exponentials about 20 times slower (see the cli module docstring)
        _use_one_blas_thread()

    def coupled(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = assemble(cascade(d, (a + a.conj().T) / (2 * d)))
        assert [b.size for b in g.blocks] == [d * d]
        return g, phase_state(d, [1, d], [0.4])

    def test_stacks_stay_within_the_budget(self, monkeypatch):
        g, rho0 = self.coupled(8)
        stacks = []
        expm, expm_frechet = solver.expm, solver.expm_frechet
        monkeypatch.setattr(solver, "expm", lambda a: stacks.append(a.nbytes) or expm(a))
        # the residual keeps four b x b stacks: A, E, exp(A) and L(A, E)
        monkeypatch.setattr(solver, "expm_frechet",
                            lambda a, e: stacks.append(4 * a.nbytes) or expm_frechet(a, e))
        grid = np.linspace(0.0, 20.0, 300)
        propagate_closed_form(g, rho0, grid)
        fedorov_residual(g, vec(rho0), grid)
        assert max(stacks) <= STACK_BYTES
        assert len(stacks) == 3 + 10  # 128 points per closed-form stack, 32 per residual stack

    def test_peak_memory_does_not_grow_with_the_chunk(self):
        # at CHUNK points per stack, 300 points would take 19 MiB for each
        # closed-form stack and 75 MiB for each residual stack
        g, rho0 = self.coupled(8)
        grid = np.linspace(0.0, 20.0, 300)
        tracemalloc.start()
        try:
            propagate_closed_form(g, rho0, grid)
            fedorov_residual(g, vec(rho0), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * STACK_BYTES
