"""Cost of each lindblad_pc stage against the number of levels d.

    python tools/scaling.py --parent ../parent/src [--change src] [--out BENCH.json]

For the package source directories of a parent and a change, fresh
interpreters time the stages in-process on the generated d-level
cascades of the benchmark
(`perfbench.workloads.cascade_model`, mu = d^2, rates sin^2, exp and
cos^2 in turn), d = 3..16, 20, 24, 28 and 32, for parent and change alike:

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
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RATES = ("sin({w}*t)^2", "exp(-{a}*t)", "cos({w}*t)^2")
STAGES = ("assemble", "gate", "classify", "closed_form", "flow_residual", "oracle", "verify")
DIMS = (*range(3, 17), 20, 24, 28, 32)
ROUNDS = 5
RUNS = (("parent", "default"), ("change", "default"), ("change", "cli"))
GRID_POINTS = 100
REPEATS = 5
BUDGET_S = 1.0


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


def _stages(d):
    """Stage name -> timing summary for the d-level cascade, plus the
    oracle's count of right-hand-side evaluations. Runs in the worker
    process."""
    import numpy as np
    from lindblad_pc import commutativity, linalg, model, modelfile, solver
    from perfbench.workloads import cascade_model

    doc = cascade_model(d, random.Random(f"scaling:{d}"), RATES)
    loaded, _ = modelfile.loads_model(json.dumps(doc))
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
        "grid": f"{GRID_POINTS} points on [0, 20]",
        "rounds": ROUNDS,
        "one_thread": {role: _across_rounds([run for run in runs
                                             if run["src"] == role and run["pool"] == "one"])
                       for role in sources},
        "runs": runs,
    }
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["scaling"] = table
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        print(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
