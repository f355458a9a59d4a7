import math

import numpy as np
import pytest

from lindblad_pc import (
    LindbladModel,
    Trajectory,
    assemble,
    coherence,
    entropy,
    observable_series,
    phase_state,
    populations,
    propagate_closed_form,
    purity,
    trace_distance,
)
from lindblad_pc.errors import IndexOutOfRangeError

from conftest import diag_state, make_generator

GRID = np.linspace(0.0, 20.0, 400)


def still(rho, n=3):
    """A constant trajectory, for observables of a fixed state."""
    times = np.linspace(0.0, 1.0, n)
    return Trajectory(times=times, states=np.array([rho] * n))


class TestPopulations:
    def test_pure_state(self):
        p = populations(still(diag_state(0, 1, 0)))
        assert np.array_equal(p[0], [0.0, 1.0, 0.0])

    def test_v3_ground_population_grows_to_one(self):
        g = make_generator("v3")
        tr = propagate_closed_form(g, diag_state(0.5, 0, 0.5), GRID)
        p = populations(tr)
        expected = 1 - np.exp(-GRID / 2) * np.cosh(np.sin(2 * GRID) / 4)
        assert np.abs(p[:, 1] - expected).max() <= 1e-12
        assert np.all(np.diff(p[:, 1]) > 0)
        assert p[-1, 1] > 0.9999

    def test_cascade4_third_level(self):
        g = make_generator("cascade4")
        tr = propagate_closed_form(g, diag_state(0, 1 / 3, 2 / 3, 0), GRID)
        p = populations(tr)
        expected = (2 / 3) * np.exp((-6 * GRID + np.sin(6 * GRID)) / 12)
        assert np.abs(p[:, 2] - expected).max() <= 1e-12

    def test_rows_sum_to_one(self):
        g = make_generator("cascade4")
        tr = propagate_closed_form(g, phase_state(4, [1, 2, 3], [np.pi, 0.0]), GRID)
        p = populations(tr)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9


class TestPurityEntropy:
    def test_pure_state(self):
        tr = still(phase_state(3, [1, 3], [0.3]))
        assert np.abs(purity(tr) - 1.0).max() <= 1e-12
        assert np.abs(entropy(tr)).max() <= 1e-7

    def test_maximally_mixed(self):
        tr = still(np.eye(3, dtype=complex) / 3)
        assert np.abs(purity(tr) - 1 / 3).max() <= 1e-12
        assert np.abs(entropy(tr) - math.log(3)).max() <= 1e-12

    def test_cascade_mixing_cycle(self):
        # starting pure, the state passes through the maximally mixed
        # two-level point and purifies again
        g = make_generator("cascade3")
        tr = propagate_closed_form(g, diag_state(0, 1, 0), GRID)
        xi = np.exp(-(2 * GRID + np.sin(2 * GRID)) / 4)
        pi_exact = 2 * xi ** 2 - 2 * xi + 1
        with np.errstate(divide="ignore", invalid="ignore"):
            s_exact = np.where(
                (xi > 0) & (xi < 1),
                -(1 - xi) * np.log(np.where(xi < 1, 1 - xi, 1.0))
                - xi * np.log(np.where(xi > 0, xi, 1.0)),
                0.0)
        assert np.abs(purity(tr) - pi_exact).max() <= 1e-8
        assert np.abs(entropy(tr) - s_exact).max() <= 1e-8
        assert purity(tr).min() == pytest.approx(0.5, abs=1e-3)
        assert entropy(tr).max() == pytest.approx(math.log(2), abs=1e-3)

    def test_purity_one_iff_entropy_zero(self):
        pure = still(diag_state(1, 0, 0))
        mixed = still(diag_state(0.5, 0.5, 0))
        assert purity(pure)[0] == pytest.approx(1.0, abs=1e-12)
        assert entropy(pure)[0] <= 1e-7
        assert purity(mixed)[0] < 1.0 - 1e-7
        assert entropy(mixed)[0] > 1e-7

    def test_pure_states_have_entropy_exactly_zero(self):
        # eigenvalues of rounding noise (order 1e-16) count as zeros
        g = make_generator("lambda3")
        tr = propagate_closed_form(g, phase_state(3, [1, 3], [2.5]), GRID)
        assert entropy(tr)[0] == 0.0

    @pytest.mark.parametrize("h", [
        np.diag([1.0, 0.0, 2.0]),  # v3's Hamiltonian: phases only
        # coupled: the noise eigenvalues reach 2e-15, above 3 eps
        np.array([[0, 0.4, 0.1j], [0.4, 1, 0.3], [-0.1j, 0.3, 2.5]]),
    ], ids=["diagonal", "coupled"])
    def test_jump_free_model_keeps_entropy_exactly_zero(self, h):
        unitary = assemble(LindbladModel(3, h.astype(complex), []))
        tr = propagate_closed_form(unitary, phase_state(3, [1, 2, 3], [0.4, 1.9]), GRID)
        assert np.all(entropy(tr) == 0.0)
        assert np.abs(purity(tr) - 1.0).max() <= 1e-12

    def test_coupled_four_levels_on_a_long_window(self):
        # the rounding of exp(B(t)) grows with ||B(t)||: noise eigenvalues
        # reach 4e-11 at t = 1e5
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = assemble(LindbladModel(4, a + a.conj().T, []), 1e5)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        tr = propagate_closed_form(g, np.outer(psi, psi.conj()), np.linspace(0.0, 1e5, 200))
        assert np.all(entropy(tr) == 0.0)

    def test_floor_keeps_small_real_eigenvalues(self):
        # cascade3 started in level 2: the population left there at t = 20
        # is about 4e-5, far above the floor, and enters the entropy
        g = make_generator("cascade3")
        tr = propagate_closed_form(g, diag_state(0, 1, 0), GRID)
        assert entropy(tr)[-1] > 1e-4

    def test_rejects_badly_negative_state(self):
        with pytest.raises(ValueError):
            purity(still(np.diag([1.1, -0.1, 0.0]).astype(complex)))


class TestCoherence:
    def test_v3_phase_damping(self):
        g = make_generator("v3")
        phi = np.pi / 2
        tr = propagate_closed_form(g, phase_state(3, [1, 3], [phi]), GRID)
        r13 = coherence(tr, 1, 3)
        assert np.abs(np.abs(r13) - 0.5 * np.exp(-GRID / 2)).max() <= 1e-12
        # phase rotates by the level-energy gap (eps3 - eps1 = 1 here)
        expected = 0.5 * np.exp((-0.5 + 1j) * GRID) * np.exp(-1j * phi)
        assert np.abs(r13 - expected).max() <= 1e-12

    def test_conjugate_symmetry(self):
        g = make_generator("cascade3")
        tr = propagate_closed_form(g, phase_state(3, [1, 2], [1.1]), GRID)
        assert np.abs(coherence(tr, 2, 1) - np.conj(coherence(tr, 1, 2))).max() <= 1e-12

    def test_cascade3_coherence_formula(self):
        g = make_generator("cascade3")  # eps = 1
        phi = np.pi
        tr = propagate_closed_form(g, phase_state(3, [1, 2], [phi]), GRID)
        expected = (0.5 * np.exp((-0.25 + 1j) * GRID - np.sin(2 * GRID) / 8)
                    * np.exp(-1j * phi))
        assert np.abs(coherence(tr, 1, 2) - expected).max() <= 1e-12

    def test_cascade4_coherence_modulus(self):
        g = make_generator("cascade4")
        tr = propagate_closed_form(g, phase_state(4, [1, 2, 3], [np.pi, 0.0]), GRID)
        expected = (1 / 3) * np.exp(-GRID / 4 + np.sin(6 * GRID) / 24)
        assert np.abs(np.abs(coherence(tr, 2, 1)) - expected).max() <= 1e-12

    def test_index_out_of_range(self):
        tr = still(diag_state(1, 0, 0))
        with pytest.raises(IndexOutOfRangeError):
            coherence(tr, 0, 1)
        with pytest.raises(IndexOutOfRangeError):
            coherence(tr, 1, 4)


class TestLambdaPhaseRotation:
    def test_modulus_constant_and_phase_advances(self):
        g = make_generator("lambda3", {"eps1": 1.0, "eps3": 2.0})
        phi = np.pi
        tr = propagate_closed_form(g, phase_state(3, [1, 3], [phi]), GRID)
        r13 = coherence(tr, 1, 3)
        assert np.abs(np.abs(r13) - 0.5).max() <= 1e-8
        # with H = diag(-eps1, 0, -eps3) the level energies are
        # E1 = -eps1 and E3 = -eps3, and arg rho_13 = (E3 - E1) t - phi
        e1, e3 = -1.0, -2.0
        delta = np.angle(r13) - ((e3 - e1) * GRID - phi)
        delta = (delta + np.pi) % (2 * np.pi) - np.pi
        assert np.abs(delta).max() <= 1e-6

    def test_degenerate_energies_make_state_stationary(self):
        g = make_generator("lambda3", {"eps1": 0.0, "eps3": 0.0})
        rho0 = phase_state(3, [1, 3], [np.pi])
        tr = propagate_closed_form(g, rho0, GRID)
        assert max(trace_distance(s, rho0) for s in tr.states) <= 1e-9


class TestObservableSeries:
    def test_bundles_match_individual_functions(self):
        g = make_generator("cascade3")
        tr = propagate_closed_form(g, phase_state(3, [1, 2], [0.5]), GRID)
        series = observable_series(tr, [(1, 2), (2, 1)])
        assert np.array_equal(series.populations, populations(tr))
        assert np.array_equal(series.purity, purity(tr))
        assert np.array_equal(series.entropy, entropy(tr))
        assert np.array_equal(series.coherences[(1, 2)], coherence(tr, 1, 2))
