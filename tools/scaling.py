"""Cost of each lindblad_pc stage against the number of levels d.

    python tools/scaling.py --parent ../parent/src [--change src] [--out BENCH.json]

For the package source directories of a parent and a change, fresh
interpreters time the stages in-process on the generated d-level
cascades of the benchmark
(`perfbench.workloads.cascade_model`, mu = d^2, rates sin^2, exp and
cos^2 in turn), d = 3..16, 20, 24, 28 and 32, whose population blocks are
real, and on the driven cascades "driven<d>", d = 8, 16 and 32: the same
cascade with H_12 = H_21 = DRIVE, which couples the populations to rho_12
and rho_21 in one complex block of d + 2 coordinates. Parent and change
alike time each stage:

    assemble       model.assemble
    gate           commutativity.partial_subspace: the power cap, Gamma
                   summed over the twelve sample times, and its kernel
    classify       commutativity.classify: the gate, the two global
                   criteria and the re-check on 120 times (its power cap
                   and the rank of M are stored too)
    closed_form    exp(B(t)) vec(rho0) on 100 points of [0, 20]
    flow_residual  the flow certificate on the same points
    oracle         the DOP853 oracle on the same points (and its count of
                   right-hand-side evaluations, `Trajectory.rhs_calls`)
    verify         `lindblad_pc.cli.cmd_verify` past its prologue on the
                   same points: the closed form, the oracle, their
                   distance and the flow certificate, as the CLI's
                   `verify` takes them (`cli._prepare` is replaced by the
                   prepared model, state and grid, and stdout discarded)

Parent and change are timed at one BLAS thread in ROUNDS rounds, one
process each per round, alternating (parent first in even rounds, change
first in odd ones), so that a drift of the host over the run falls on
both. Each stage's median per process is summarized across the rounds
("one_thread": the median of the rounds, with their minimum and
maximum). Then one process each runs the other pool settings of RUNS.
The pool settings:

    default  the pool the interpreter starts with (OpenBLAS takes one
             thread per CPU; OPENBLAS_NUM_THREADS and OMP_NUM_THREADS
             are removed from the environment)
    one      OPENBLAS_NUM_THREADS=1: every OpenBLAS pool at one thread
    cli      the pool as `lindblad_pc.cli.main` leaves it (called once
             with --help before timing); run for the change only, since
             the parent's cli.main leaves the pool at its default

One warm-up pass at d = 3 takes the imports and first-call costs. Each
stage then runs once, untimed, under tracemalloc, whose peak (the bytes
the stage allocates at once, "peak_mib") is kept next to its times; then
up to REPEATS times while its samples stay within BUDGET_S, and the
median, minimum and maximum are kept. The processes
run one at a time. The OpenBLAS thread counts a process ends with are
stored next to its table; the JSON names sources by role, never by path.

The `imports` table reports import apart from compute. Each source
directory is copied without its bytecode cache, and in IMPORT_ROUNDS
alternating rounds one fresh interpreter per tree, with
PYTHONDONTWRITEBYTECODE=1 and OPENBLAS_NUM_THREADS=1, loads numpy and
then times `import lindblad_pc.cli` and each package module that loads
only when a command first runs it (IMPORTS), each with the ones before
it loaded: so `exponential` comes before `solver`, which imports it. A
module a tree does not have reads null. Per tree, each module's median,
minimum and maximum over the rounds are kept, and those of their sum.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATES = ("sin({w}*t)^2", "exp(-{a}*t)", "cos({w}*t)^2")
STAGES = ("assemble", "gate", "classify", "closed_form", "flow_residual", "oracle", "verify")
DIMS = (*range(3, 17), 20, 24, 28, 32)
DRIVEN_DIMS = (8, 16, 32)
DRIVE = 0.3
ROUNDS = 5
RUNS = (("parent", "default"), ("change", "default"), ("change", "cli"))
GRID_POINTS = 100
REPEATS = 5
BUDGET_S = 1.0
IMPORT_ROUNDS = 21
IMPORTS = ("cli", "exponential", "solver", "dop853", "observables", "modelfile")
# Prints the seconds each module named in argv takes to import, in that
# order, None for a module the tree does not have. Nothing but numpy and
# time is loaded before, so that the modules the package loads count.
IMPORT_SNIPPET = """
import sys, time
import numpy
seconds = []
for name in sys.argv[1:]:
    start = time.perf_counter()
    try:
        __import__(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise
        seconds.append(None)
        continue
    seconds.append(time.perf_counter() - start)
print(seconds)
"""


def _measure(fn):
    """(last result, summary) of fn: the tracemalloc peak of one untimed
    call, then the times of up to REPEATS calls."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = []
    while len(samples) < REPEATS and sum(samples) < BUDGET_S:
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return result, {"median_s": statistics.median(samples), "min_s": min(samples),
                    "max_s": max(samples), "samples": len(samples), "peak_mib": peak / 2**20}


def _stages(d, driven=False):
    """Stage name -> timing summary for the d-level cascade, or the driven
    one, plus the oracle's count of right-hand-side evaluations. Runs in
    the worker process."""
    import numpy as np
    from lindblad_pc import commutativity, linalg, model, modelfile, solver
    from perfbench.workloads import cascade_model

    doc = cascade_model(d, random.Random(f"scaling:{d}"), RATES)
    loaded, _ = modelfile.loads_model(json.dumps(doc))
    if driven:
        loaded.hamiltonian[0, 1] = loaded.hamiltonian[1, 0] = DRIVE
    rho0 = model.phase_state(d, [1, 2], [0.7])
    grid = np.linspace(0.0, model.HORIZON, GRID_POINTS)
    out = {}

    g, out["assemble"] = _measure(lambda: model.assemble(loaded))
    _, out["gate"] = _measure(lambda: commutativity.partial_subspace(g))
    report, out["classify"] = _measure(lambda: commutativity.classify(g))
    out["power_cap"], out["rank"] = report.power_cap, report.partial_rank
    _, out["closed_form"] = _measure(lambda: solver.propagate_closed_form(g, rho0, grid))
    _, out["flow_residual"] = _measure(
        lambda: solver.fedorov_residual(g, linalg.vec(rho0), grid))
    oracle, out["oracle"] = _measure(lambda: solver.ode_oracle(g, rho0, grid))
    # None for a tree whose oracle did not count its evaluations
    out["oracle_rhs_calls"] = getattr(oracle, "rhs_calls", None)
    _, out["verify"] = _measure(lambda: verify(g, rho0, grid))
    return out


def verify(g, rho0, grid):
    """The exit code of `cli.cmd_verify` on a prepared run, with
    `cli._prepare` returning (g, rho0, grid) and stdout discarded: the
    stage takes whatever path the tree's `verify` takes after its
    prologue."""
    from lindblad_pc import cli

    prepare = cli._prepare
    cli._prepare = lambda args: (g, rho0, grid, [], None)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cmd_verify(argparse.Namespace(tol=cli.DEFAULT_VERIFY_TOL))
    finally:
        cli._prepare = prepare


def worker(pool):
    """Time every stage at each d of DIMS in this process; print one JSON
    line."""
    if pool == "cli":
        import lindblad_pc.cli

        with contextlib.redirect_stdout(io.StringIO()):
            lindblad_pc.cli.main(["--help"])
    _stages(3)  # warm-up
    table = {str(d): _stages(d) for d in DIMS}
    table.update({f"driven{d}": _stages(d, driven=True) for d in DRIVEN_DIMS})
    from perfbench.runrecord import blas_threads

    print(json.dumps({"blas_threads": blas_threads(), "stages": table}))


def _run_worker(role, src, pool):
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if pool == "one":
        env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(Path(src).resolve()), str(ROOT)])
    done = subprocess.run(
        [sys.executable, __file__, "--worker", f"{role}:{pool}"],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _across_rounds(runs):
    """d -> stage -> the median, minimum and maximum over the runs of the
    stage's median per run."""
    table = {}
    for d in runs[0]["stages"]:
        medians = {stage: [run["stages"][d][stage]["median_s"] for run in runs]
                   for stage in STAGES}
        table[d] = {stage: {"median_s": statistics.median(m), "min_s": min(m), "max_s": max(m)}
                    for stage, m in medians.items()}
    return table


def _time_imports(src):
    """Module -> seconds to import it (None where the tree has none), in
    a fresh interpreter importing from the package source directory
    `src`, which holds no bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET, *(f"lindblad_pc.{m}" for m in IMPORTS)],
        capture_output=True, text=True, env=env, cwd=src, check=True)
    return dict(zip(IMPORTS, ast.literal_eval(done.stdout.splitlines()[-1])))


def _summary(values):
    if None in values:
        return None
    return {"median_s": statistics.median(values), "min_s": min(values), "max_s": max(values)}


def imports_table(sources):
    """The `imports` table (see the module docstring) for the package
    source directories of parent and change."""
    samples = {role: [] for role in sources}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {role: Path(tmp, role) for role in sources}
        for role, src in sources.items():
            shutil.copytree(src, copies[role], ignore=shutil.ignore_patterns("__pycache__"))
        for r in range(IMPORT_ROUNDS):
            for role in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                print(f"imports round {r}: {role} ...", file=sys.stderr, flush=True)
                samples[role].append(_time_imports(copies[role]))
    table = {
        "command": "python -c 'import numpy; <time __import__(lindblad_pc.MODULE) in order>'",
        "environment": "a copy of each source directory without __pycache__, "
                       "PYTHONDONTWRITEBYTECODE=1, OPENBLAS_NUM_THREADS=1",
        "rounds": IMPORT_ROUNDS,
        "order": [f"lindblad_pc.{m}" for m in IMPORTS],
    }
    for role, runs in samples.items():
        table[role] = {m: _summary([run[m] for run in runs]) for m in IMPORTS}
        table[role]["total"] = _summary([sum(filter(None, run.values())) for run in runs])
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the parent's package source directory")
    parser.add_argument("--change", default=str(ROOT / "src"),
                        help="the change's package source directory "
                             "(default: src of this checkout)")
    parser.add_argument("--out", help="JSON file to write the table into "
                                      "(its other keys are kept); default stdout")
    parser.add_argument("--worker", choices={f"{role}:{pool}" for role in ("parent", "change")
                                             for pool in ("default", "one", "cli")},
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker.split(":")[1])
        return 0
    if not args.parent:
        parser.error("--parent is required")

    sources = {"parent": args.parent, "change": args.change}
    runs = []
    for r in range(ROUNDS):
        for role in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            print(f"round {r}: {role} one ...", file=sys.stderr, flush=True)
            runs.append({"src": role, "pool": "one", "round": r,
                         **_run_worker(role, sources[role], "one")})
    for role, pool in RUNS:
        print(f"{role} {pool} ...", file=sys.stderr, flush=True)
        runs.append({"src": role, "pool": pool, **_run_worker(role, sources[role], pool)})
    import numpy
    import scipy

    table = {
        "command": "python tools/scaling.py --parent PARENT_SRC --change CHANGE_SRC",
        "host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "rates": list(RATES),
        "driven": f"the cascade with H_12 = H_21 = {DRIVE}",
        "grid": f"{GRID_POINTS} points on [0, 20]",
        "rounds": ROUNDS,
        "one_thread": {role: _across_rounds([run for run in runs
                                             if run["src"] == role and run["pool"] == "one"])
                       for role in sources},
        "runs": runs,
    }
    tables = {"scaling": table, "imports": imports_table(sources)}
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update(tables)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(tables, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
