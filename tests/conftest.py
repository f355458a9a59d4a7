"""Shared helpers for the test suite.

Standard parameter sets keep the level energies distinct so phase
rotations are exercised; omega is 1 everywhere. The admissible state
banks mix diagonal states with phase-endowed superpositions, all lying
inside each model's admissible subspace.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lindblad_pc import assemble, builtin, phase_state

MODEL_PARAMS = {
    "v3": {"eps1": 1.0, "eps3": 2.0},
    "cascade3": {"eps": 1.0},
    "lambda3": {"eps1": 1.0, "eps3": 2.0},
    "cascade4": {"eps1": 1.0, "eps2": 2.0},
}

MODEL_NAMES = tuple(MODEL_PARAMS)


def make_generator(name, extra=None):
    params = dict(MODEL_PARAMS[name])
    if extra:
        params.update(extra)
    return assemble(builtin(name, params))


def driven(d):
    """The d-level cascade of tools/scaling.py with H_12 = H_21 = its
    DRIVE, as a loaded model: one complex block couples the populations
    to rho_12 and rho_21."""
    import json
    import random

    from lindblad_pc import modelfile

    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import cascade_model
    from tools.scaling import DRIVE, RATES

    loaded, _ = modelfile.loads_model(json.dumps(
        cascade_model(d, random.Random(f"scaling:{d}"), RATES)))
    loaded.hamiltonian[0, 1] = loaded.hamiltonian[1, 0] = DRIVE
    return loaded


def run_capped_cli(*argv, limit=2**30):
    """`python -m lindblad_pc ARGV` in a child process whose address space
    is capped at `limit` bytes; the cap is set in the child only."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "lindblad_pc", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=300)


def assert_oracle_matches_scipy(g, rho0, grid, bound):
    """The oracle takes the steps of scipy's DOP853 on the dense
    L(t) @ y at the oracle's tolerance: the same number of right-hand-side
    evaluations, and states within `bound` of scipy's."""
    from scipy.integrate import solve_ivp

    from lindblad_pc import generator_at, ode_oracle, solver, unvec, vec

    ours = ode_oracle(g, rho0, grid)
    ref = solve_ivp(lambda t, y: generator_at(g, t) @ y, (0.0, grid[-1]), vec(rho0),
                    method="DOP853", rtol=solver.ORACLE_TOL, atol=solver.ORACLE_TOL,
                    t_eval=grid)
    assert ref.success
    assert ours.rhs_calls == ref.nfev
    assert np.abs(ours.states - unvec(ref.y.T, g.dim)).max() <= bound


def diag_state(*populations):
    return np.diag(populations).astype(complex)


def admissible_bank(name):
    """Ten admissible initial states for the named built-in model."""
    third = 1.0 / 3.0
    if name == "v3":
        return [
            diag_state(1, 0, 0),
            diag_state(0, 1, 0),
            diag_state(0, 0, 1),
            diag_state(0.5, 0.0, 0.5),
            diag_state(0.3, 0.4, 0.3),
            diag_state(third, third, third),
            phase_state(3, [1, 3], [np.pi]),
            phase_state(3, [1, 3], [np.pi / 2]),
            phase_state(3, [1, 2], [0.7]),
            phase_state(3, [1, 2, 3], [0.5, 1.0]),
        ]
    if name == "cascade3":
        return [
            diag_state(0, 1, 0),
            diag_state(1, 0, 0),
            diag_state(0.25, 0.75, 0),
            diag_state(0.5, 0.5, 0),
            diag_state(0.75, 0.25, 0),
            diag_state(0.9, 0.1, 0),
            phase_state(3, [1, 2], [np.pi]),
            phase_state(3, [1, 2], [np.pi / 2]),
            phase_state(3, [1, 2], [0.0]),
            phase_state(3, [1, 2], [2.0]),
        ]
    if name == "lambda3":
        return [
            diag_state(1, 0, 0),
            diag_state(0, 0, 1),
            diag_state(0.25, 0, 0.75),
            diag_state(0.5, 0, 0.5),
            diag_state(0.75, 0, 0.25),
            phase_state(3, [1, 3], [np.pi]),
            phase_state(3, [1, 3], [np.pi / 2]),
            phase_state(3, [1, 3], [0.0]),
            phase_state(3, [1, 3], [1.2]),
            phase_state(3, [1, 3], [2.5]),
        ]
    if name == "cascade4":
        return [
            diag_state(1, 0, 0, 0),
            diag_state(0, 1, 0, 0),
            diag_state(0, 0, 1, 0),
            diag_state(0, third, 2 * third, 0),
            diag_state(0.2, 0.3, 0.5, 0),
            diag_state(third, third, third, 0),
            phase_state(4, [1, 2, 3], [np.pi, 0.0]),
            phase_state(4, [1, 2, 3], [np.pi / 2, 1.0]),
            phase_state(4, [1, 2], [np.pi]),
            phase_state(4, [2, 3], [0.8]),
        ]
    raise ValueError(name)
