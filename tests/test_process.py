"""What a fresh interpreter loads, how it sets BLAS threads and the
collector, and what a CLI process hands back when it ends.

Each case runs `cli.main` (or the library, or the entry point) in a
subprocess, because the set of loaded modules, the OpenBLAS pool, the
threads and the collector's frozen heap belong to the process. The pool
size is read back with the benchmark's run-record getter, an
implementation independent of the one the CLI uses to set it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_capped_cli

ROOT = Path(__file__).resolve().parents[1]

# numpy submodules that no run on the built-ins needs.
NUMPY_EXTRAS = ("numpy.random", "numpy.ma", "numpy.polynomial")

# Prints one JSON line: the exit code of cli.main(argv), the scipy
# modules and NUMPY_EXTRAS loaded after it, and numpy's OpenBLAS threads
# before and after.
CLI_SNIPPET = """
import json, sys
import runrecord
from lindblad_pc import cli
before = runrecord.blas_threads().get("numpy")
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy": sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules),
    "threads": [before, runrecord.blas_threads().get("numpy")],
}))
"""

# The same pair of thread counts around a library call. Importing the
# package loads no numpy, so numpy is loaded first to read its pool.
LIBRARY_SNIPPET = """
import json
import numpy
import runrecord
import lindblad_pc
before = runrecord.blas_threads().get("numpy")
lindblad_pc.classify(lindblad_pc.assemble(lindblad_pc.builtin("cascade3", {"eps": 1.0})))
print(json.dumps({"threads": [before, runrecord.blas_threads().get("numpy")]}))
"""


def run_python(*args, check=True):
    """A fresh interpreter on ARGS, its stdout block-buffered as on any
    pipe or file without PYTHONUNBUFFERED: what a CLI process writes last
    reaches its reader only when the interpreter flushes stdout at exit."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120, check=check)


def run_snippet(snippet, *args):
    return json.loads(run_python("-c", snippet, *args).stdout.splitlines()[-1])


def run_cli(*argv):
    return run_snippet(CLI_SNIPPET, json.dumps(argv), json.dumps(NUMPY_EXTRAS))


CASCADE3 = ("--builtin", "cascade3", "--params", "eps=1")


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("classify", *CASCADE3, "--json"), 0),
    (("solve", *CASCADE3, "--rho0", "diag:nan,0.5,0.5"), 2),
    (("verify", *CASCADE3, "--rho0", "diag:0.3,0.3,0.4"), 4),
], ids=["help", "classify", "input-error", "refused-verify"])
def test_runs_that_never_exponentiate_load_no_scipy(argv, code):
    result = run_cli(*argv)
    assert (result["code"], result["scipy"], result["numpy"]) == (code, [], [])


BUILTINS = {
    "v3": ("--builtin", "v3", "--params", "eps1=1,eps3=2"),
    "cascade3": CASCADE3,
    "lambda3": ("--builtin", "lambda3", "--params", "eps1=1,eps3=2"),
    "cascade4": ("--builtin", "cascade4", "--params", "eps1=1,eps2=2"),
}


def test_solve_loads_no_scipy(tmp_path):
    result = run_cli("solve", *BUILTINS["cascade4"], "--rho0", "pure:1", "--steps", "5",
                     "--out", str(tmp_path / "out.csv"))
    assert (result["code"], result["scipy"], result["numpy"]) == (0, [], [])


@pytest.mark.parametrize("name", BUILTINS)
def test_admitted_verify_loads_no_scipy(name):
    result = run_cli("verify", *BUILTINS[name], "--rho0", "pure:1", "--t-max", "2",
                     "--steps", "5")
    assert (result["code"], result["scipy"], result["numpy"]) == (0, [], [])


def test_verify_of_a_large_block_loads_no_scipy(tmp_path):
    # A dense Hamiltonian and no jumps: one invariant block of all 25
    # coordinates, and every state admissible.
    d = 5
    h = np.diag(np.arange(d, dtype=float)) + 0.3 * (np.eye(d, k=1) + np.eye(d, k=-1))
    h[0, -1] = h[-1, 0] = 0.2
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dimension": d, "hamiltonian": {"matrix": h.tolist()}}))
    result = run_cli("verify", str(path), "--rho0", "pure:1", "--t-max", "2", "--steps", "5")
    assert (result["code"], result["scipy"]) == (0, [])


# The exit code of `python -m lindblad_pc ARGV` (argv[1]), run in this
# process, and which of the modules named in argv[2] it loaded.
MODULES_SNIPPET = """
import json, runpy, sys
argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])
sys.argv = ["lindblad-pc", *argv]
try:
    runpy.run_module("lindblad_pc", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": sorted(m for m in watched if m in sys.modules)}))
"""

# The package modules that only solve, verify and model files use.
PROPAGATION_MODULES = ("lindblad_pc.solver", "lindblad_pc.exponential", "lindblad_pc.dop853",
                       "lindblad_pc.observables", "lindblad_pc.modelfile")


def loaded_modules(argv, watched):
    result = run_snippet(MODULES_SNIPPET, json.dumps(argv), json.dumps(watched))
    return result["code"], result["loaded"]


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("classify", *CASCADE3, "--json"), 0),
    (("verify", *CASCADE3, "--rho0", "diag:0.3,0.3,0.4"), 4),
], ids=["help", "classify", "refused-verify"])
def test_runs_that_never_propagate_load_no_solver(argv, code):
    assert loaded_modules(argv, PROPAGATION_MODULES) == (code, [])


@pytest.mark.parametrize("argv, loaded", [
    (("solve", *BUILTINS["cascade4"], "--rho0", "pure:1", "--steps", "5"),
     ["lindblad_pc.exponential"]),
    (("verify", *BUILTINS["v3"], "--rho0", "pure:1", "--t-max", "2", "--steps", "5"),
     ["lindblad_pc.dop853", "lindblad_pc.exponential"]),
], ids=["solve", "verify"])
def test_only_verify_loads_the_oracle(argv, loaded):
    assert loaded_modules(argv, ["lindblad_pc.exponential", "lindblad_pc.dop853"]) == (0, loaded)


# A model file whose two rates have no closed-form antiderivative, so
# that `assemble` integrates them by Gauss-Legendre quadrature.
QUADRATURE_MODEL = {
    "dimension": 3,
    "hamiltonian": {"diagonal": [-1.0, 0.0, 1.0]},
    "jumps": [{"from": 3, "to": 2, "rate": "1/(1 + t^2)"},
              {"from": 2, "to": 1, "rate": "t/(1 + t^2)"}],
}


@pytest.mark.parametrize("argv", [
    ("classify",),
    ("solve", "--rho0", "pure:2", "--steps", "5"),
    ("verify", "--rho0", "pure:2", "--steps", "5"),
], ids=["classify", "solve", "verify"])
def test_quadrature_rates_load_no_numpy_polynomial(argv, tmp_path):
    from lindblad_pc import assemble, loads_model

    text = json.dumps(QUADRATURE_MODEL)
    assert not any(part.integral.is_closed_form for part in assemble(loads_model(text)[0]).parts)
    path = tmp_path / "quadrature.json"
    path.write_text(text)
    command, *options = argv
    assert loaded_modules([command, str(path), *options], ["numpy.polynomial"]) == (0, [])


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("classify", *CASCADE3, "--json"),
    ("solve", *BUILTINS["cascade4"], "--rho0", "pure:1", "--steps", "5"),
    ("verify", *BUILTINS["v3"], "--rho0", "pure:1", "--t-max", "2", "--steps", "5"),
], ids=["help", "classify", "solve", "verify"])
def test_no_run_loads_dataclasses(argv):
    assert loaded_modules(argv, ["dataclasses"]) == (0, [])


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


# Whether a fresh `import lindblad_pc` loads numpy, and, for each name in
# __all__, whether it is the object the module that defines it holds.
PACKAGE_SNIPPET = """
import json, sys
import lindblad_pc
numpy_loaded = "numpy" in sys.modules
owners = {name: getattr(lindblad_pc, name).__module__ for name in lindblad_pc.__all__}
print(json.dumps({
    "numpy": numpy_loaded,
    "owners": owners,
    "mismatched": [name for name, owner in owners.items()
                   if getattr(lindblad_pc, name) is not getattr(sys.modules[owner], name)],
}))
"""


def test_importing_the_package_loads_no_numpy():
    result = run_snippet(PACKAGE_SNIPPET)
    assert result["numpy"] is False
    assert result["owners"] and result["mismatched"] == []
    assert all(owner.startswith("lindblad_pc.") for owner in result["owners"].values())


# The exit code of `python -m lindblad_pc ARGV`, run in this process, and
# the threads the process has afterwards.
ENTRY_SNIPPET = """
import json, os, runpy, sys
sys.argv = ["lindblad-pc", *json.loads(sys.argv[1])]
try:
    runpy.run_module("lindblad_pc", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "tasks": len(os.listdir("/proc/self/task"))}))
"""

NUMPY_TASKS_SNIPPET = """
import json, os
import numpy
print(json.dumps(len(os.listdir("/proc/self/task"))))
"""


def test_entry_point_starts_no_blas_worker_thread():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads in")
    if run_snippet(NUMPY_TASKS_SNIPPET) == 1:
        pytest.skip("importing numpy starts no BLAS worker thread here")
    result = run_snippet(ENTRY_SNIPPET, json.dumps(["classify", *CASCADE3, "--json"]))
    assert result == {"code": 0, "tasks": 1}


def run_module(*argv):
    return run_python("-m", "lindblad_pc", *argv, check=False)


def test_module_help_exits_zero():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: lindblad-pc")


@pytest.mark.parametrize("argv, code, last", [
    (("classify", *CASCADE3), 0, "residual max: "),
    (("solve", *CASCADE3, "--rho0", "diag:nan,0.5,0.5"), 2, None),
    (("verify", *CASCADE3, "--rho0", "pure:3"), 4, None),
    (("verify", *CASCADE3, "--rho0", "pure:3", "--force", "--t-max", "5", "--steps", "51"),
     5, "verdict: FAIL"),
], ids=["ok", "input-error", "inadmissible", "verification-failure"])
def test_module_exit_codes(argv, code, last):
    done = run_module(*argv)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    if last is None:
        assert done.stdout == "" and done.stderr.startswith("error: ")
    else:
        assert done.stdout.splitlines()[-1].startswith(last)


SOLVE_STEPS = 400
SOLVE = ("solve", *BUILTINS["cascade4"], "--rho0", "pure:1", "--steps", str(SOLVE_STEPS),
         "--coherences", "2,3")


def assert_whole_csv(text):
    rows = text.splitlines()
    assert text.endswith("\n") and len(rows) == 1 + SOLVE_STEPS
    assert {row.count(",") for row in rows} == {rows[0].count(",")}
    assert float(rows[-1].split(",")[0]) == 20.0


def test_module_solve_prints_every_row():
    done = run_module(*SOLVE)
    assert (done.returncode, done.stderr) == (0, "")
    assert_whole_csv(done.stdout)


def test_module_solve_writes_the_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    done = run_module(*SOLVE, "--out", str(path))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert_whole_csv(path.read_text())


# Calls the script target named by argv[1] (module:function) on the
# arguments in argv[2] and prints its exit code, what it printed and the
# number of objects the collector holds frozen afterwards.
SCRIPT_SNIPPET = """
import contextlib, gc, importlib, io, json, sys
module, _, function = sys.argv[1].partition(":")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = getattr(importlib.import_module(module), function)(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "out": out.getvalue(), "frozen": gc.get_freeze_count()}))
"""


@pytest.mark.parametrize("target, argv, code, frozen", [
    ("lindblad_pc.__main__:main", ("classify", *CASCADE3, "--json"), 0, True),
    ("lindblad_pc.__main__:main", ("verify", *CASCADE3, "--rho0", "pure:3"), 4, True),
    ("lindblad_pc.cli:main", ("classify", *CASCADE3, "--json"), 0, False),
], ids=["entry-point", "entry-point-refused", "in-process"])
def test_only_the_entry_point_freezes_the_heap(target, argv, code, frozen):
    result = run_snippet(SCRIPT_SNIPPET, target, json.dumps(argv))
    assert result["code"] == code
    assert (result["frozen"] > 0) is frozen


def test_installed_script_runs_the_cli():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lindblad-pc"]
    result = run_snippet(SCRIPT_SNIPPET, target, json.dumps(["classify", *CASCADE3, "--json"]))
    assert result["code"] == 0
    assert json.loads(result["out"])["partial_rank"] == 8


def test_running_out_of_memory_exits_3_with_one_line(tmp_path):
    # 40 dense jumps on d = 32: one block of 1024 coordinates, and 41 parts
    # of 16 MiB each in every copy of the entry table, past a 1 GiB cap
    d = 32
    rng = np.random.default_rng(40)
    jumps = [{"matrix": np.stack([rng.normal(size=(d, d)), rng.normal(size=(d, d))],
                                 axis=-1).round(6).tolist(), "rate": "1"} for _ in range(40)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"dimension": d, "jumps": jumps}))
    done = run_capped_cli("classify", str(path), "--json")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("numeric failure: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
