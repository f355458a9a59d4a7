"""What a fresh interpreter loads and how it sets BLAS threads.

Each case runs `cli.main` (or the library) in a subprocess, because both
the set of loaded modules and the OpenBLAS pool belong to the process.
The pool size is read back with the benchmark's run-record getter, an
implementation independent of the one the CLI uses to set it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindblad_pc.linalg import FRECHET_DOUBLING_MAX

ROOT = Path(__file__).resolve().parents[1]

# Prints one JSON line: the exit code of cli.main(argv), the scipy
# modules loaded after it, and numpy's OpenBLAS threads before and after.
CLI_SNIPPET = """
import json, sys
import runrecord
from lindblad_pc import cli
before = runrecord.blas_threads().get("numpy")
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "threads": [before, runrecord.blas_threads().get("numpy")],
}))
"""

# The same pair of thread counts around a library call.
LIBRARY_SNIPPET = """
import json
import runrecord
import lindblad_pc
before = runrecord.blas_threads().get("numpy")
lindblad_pc.classify(lindblad_pc.assemble(lindblad_pc.builtin("cascade3", {"eps": 1.0})))
print(json.dumps({"threads": [before, runrecord.blas_threads().get("numpy")]}))
"""


def run_snippet(snippet, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", snippet, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_cli(*argv):
    return run_snippet(CLI_SNIPPET, json.dumps(argv))


CASCADE3 = ("--builtin", "cascade3", "--params", "eps=1")


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("classify", *CASCADE3, "--json"), 0),
    (("solve", *CASCADE3, "--rho0", "diag:nan,0.5,0.5"), 2),
    (("verify", *CASCADE3, "--rho0", "diag:0.3,0.3,0.4"), 4),
], ids=["help", "classify", "input-error", "refused-verify"])
def test_runs_that_never_exponentiate_load_no_scipy(argv, code):
    result = run_cli(*argv)
    assert (result["code"], result["scipy"]) == (code, [])


BUILTINS = {
    "v3": ("--builtin", "v3", "--params", "eps1=1,eps3=2"),
    "cascade3": CASCADE3,
    "lambda3": ("--builtin", "lambda3", "--params", "eps1=1,eps3=2"),
    "cascade4": ("--builtin", "cascade4", "--params", "eps1=1,eps2=2"),
}


def test_solve_loads_no_scipy(tmp_path):
    result = run_cli("solve", *BUILTINS["cascade4"], "--rho0", "pure:1", "--steps", "5",
                     "--out", str(tmp_path / "out.csv"))
    assert (result["code"], result["scipy"]) == (0, [])


@pytest.mark.parametrize("name", BUILTINS)
def test_admitted_verify_loads_no_scipy(name):
    result = run_cli("verify", *BUILTINS[name], "--rho0", "pure:1", "--t-max", "2",
                     "--steps", "5")
    assert (result["code"], result["scipy"]) == (0, [])


def test_verify_past_the_doubling_size_loads_scipy_linalg_only(tmp_path):
    # A dense Hamiltonian and no jumps: one invariant block of all d^2
    # coordinates, past FRECHET_DOUBLING_MAX, and every state admissible.
    d = math.isqrt(FRECHET_DOUBLING_MAX) + 1
    h = np.diag(np.arange(d, dtype=float)) + 0.3 * (np.eye(d, k=1) + np.eye(d, k=-1))
    h[0, -1] = h[-1, 0] = 0.2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dimension": d, "hamiltonian": {"matrix": h.tolist()}}))
    result = run_cli("verify", str(path), "--rho0", "pure:1", "--t-max", "2", "--steps", "5")
    assert result["code"] == 0
    assert "scipy.linalg" in result["scipy"]
    assert not any(m.startswith("scipy.integrate") for m in result["scipy"])


def _skip_unless_capping_can_show(before):
    if before is None:
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter "
                    "the run record knows (scipy_openblas, numpy >= 2.0)")
    if before == 1:
        pytest.skip("numpy's OpenBLAS pool already has one thread")


def test_cli_runs_numpy_blas_on_one_thread():
    result = run_cli("classify", *CASCADE3, "--json")
    before, after = result["threads"]
    _skip_unless_capping_can_show(before)
    assert (result["code"], after) == (0, 1)


def test_library_calls_keep_the_callers_pool():
    before, after = run_snippet(LIBRARY_SNIPPET)["threads"]
    _skip_unless_capping_can_show(before)
    assert after == before
