"""Command-line interface.

Three subcommands over a model (a JSON file or a built-in name):

* ``classify`` prints the commutativity classification and the
  admissible-state subspace;
* ``solve`` propagates an initial state in closed form and writes a CSV
  trajectory (populations, purity, entropy, optional coherences);
* ``verify`` runs the closed form against the brute-force ODE oracle and
  reports the largest trace distance and the flow residual.

`solve` holds one row block of the grid at a time: the closed form of a
block of consecutive grid points (`solver.closed_form_blocks`, about one
slab of arrays, see `linalg.SLAB_BYTES`), its observables and its CSV
text. Only the text is kept, about 250 bytes per grid point at d = 6
with two coherences, and it is written once the last block has passed:
a failed `solve` prints nothing to stdout and neither creates nor
changes the `--out` file. A non-finite state anywhere on the grid exits
3; otherwise an eigenvalue or trace failure exits 2, raised by the first
block that fails and naming that block's lowest eigenvalue.

`verify` goes through the grid once, one row block at a time (see the
`solver` module docstring): the closed form with its flow residual
(`solver.flow_blocks`, one `expm_frechet` per group of blocks), then the
oracle's dense output on the same points (`solver.oracle_blocks`). It
keeps only the largest trace distance and residual, and prints them once
the last block has passed. At the v3 grid bound (466,033 steps; 2-CPU
x86-64 host) it peaks at 73 MB resident, below `solve`'s 106 MB. When
the closed form and the oracle both fail (a non-finite state; the
oracle's step size or count of evaluations), both exit 3, and the
failure reported is the one in the earlier row block, and within one
row block the closed form's, which is computed first.

Exit codes: 0 success, 2 input error, 3 numeric failure or out of memory,
4 inadmissible initial state without --force, 5 verification failure.
Exit 2 also refuses, before any work: a `--params` value that is NaN or
infinite; `--steps` such that steps x d^2 passes MAX_GRID_ENTRIES (the
message names the largest `--steps` for that d); and a `verify --tol`
that is not positive and finite.

No subcommand loads scipy: the matrix exponential, its Frechet
derivative (the flow residual) and the ODE oracle are numpy code in the
package.

A process loads only the package modules its subcommand runs. Every
command, `--help` too, loads this module with `errors`, `expr`,
`linalg`, `model` and `commutativity`. Once the initial state is
admitted, `solve` adds `solver`, with the matrix exponential
(`exponential`), and `observables`; `verify` adds `solver` and
`exponential`, and the DOP853 stepper (`dop853`) when the oracle
starts. `modelfile`, and with it `json`, loads for a model file,
`--emit-model` or an `--rho0 file:` state, and `json` alone for
`classify --json`. So `--help`, `classify --builtin` and a refused
`verify` compile none of `solver`, `exponential`, `dop853`,
`observables` or `modelfile`, and `solve` no `dop853`. No process
imports numpy.polynomial: the quadrature's two Gauss-Legendre rules are
literals (`expr._gauss`). No module defines its types with
`dataclasses`, whose decorators generate and `exec` the methods of each
class at import: the expression nodes share one slotted value type, and
the records are NamedTuples or slotted classes. With numpy loaded and no
bytecode cache (PYTHONDONTWRITEBYTECODE=1), `import lindblad_pc.cli`
takes 23.7 ms (medians of 21 alternating fresh processes on a 2-CPU
x86-64 host, the `imports` table of `tools/scaling.py` in
BENCH_24.json). A CLI process's entry
point (`lindblad_pc.__main__.main`) freezes the collector's heap once
the command has run, so the interpreter's last collections skip it: exit
teardown 20-24 -> 5-7 ms (the `process` table of `tools/scaling.py` in
BENCH_26.json).

The CLI runs numpy's BLAS on one thread, set in one of two places. A
CLI process (`python -m lindblad_pc`, or the installed `lindblad-pc`
script) starts in `lindblad_pc.__main__.main`, which sets
OPENBLAS_NUM_THREADS=1 before numpy loads, so the OpenBLAS of numpy
never starts a worker pool. A pool capped only after numpy has loaded
has already spun its worker during the load: on a 2-CPU x86-64 host a
bare `import numpy` takes 0.31 s of CPU for 0.19 s of wall time (0.18 s
for 0.18 s with the variable set), and a `classify` process on cascade3
takes 0.43 s of CPU that way against 0.27 s when started through
`__main__.main`. An in-process caller of
:func:`main`, whose numpy is already loaded, gets its one thread from
:func:`_use_one_blas_thread`, which :func:`main` calls before anything
else: it sets the pool of the OpenBLAS that the numpy wheels for Linux
bundle (numpy.libs; ``scipy_openblas`` from numpy 2.0 on, ``openblas64_``
before) to one thread, and leaves any other numpy build's pool alone.
That setting holds for the rest of the calling process, so an in-process
caller (a test, a tracer) keeps one BLAS thread afterwards; code that
imports the package and never calls :func:`main` keeps its own pool.

A second thread would not pay. On the same host (`tools/scaling.py`,
generated d-level cascades, 100 time points; BENCH_17.json), two threads
against one help no stage beyond the run-to-run spread. At d = 7..16
they take 0.006-0.022 s against 0.007-0.022 s for the closed form,
0.006-0.022 s against 0.007-0.022 s for the flow residual, and
0.004-0.011 s both for the blocked admissibility gate; at d = 32, 0.062
against 0.063 s, 0.067 against 0.066 s and 0.029 s both.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

import numpy as np

from . import commutativity, errors, linalg, model

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INADMISSIBLE = 4
EXIT_VERIFY = 5

DEFAULT_STEPS = 400
DEFAULT_VERIFY_TOL = 1e-6
# The most steps x d^2 that solve and verify take. Both hold one row
# block of states at a time and some arrays over the whole grid: solve
# the CSV text and the coefficient table, verify the coefficient and rate
# tables, the grid and the rounding bound. At the bound on v3 (466,033
# steps; 2-CPU x86-64 host, one process each) solve peaks at 106 MB
# resident (121 MB with one coherence pair) and verify at 73 MB.
MAX_GRID_ENTRIES = 2**22
T_MAX_HELP = (f"end of the time grid (default {model.HORIZON:g}, at most "
              f"{model.MAX_T_MAX:g}); rates and sample times are checked on the "
              f"window [0, max({model.HORIZON:g}, t-max)]")

def build_parser():
    parser = argparse.ArgumentParser(
        prog="lindblad-pc",
        description="Closed-form Lindblad dynamics via partial commutativity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_arguments(p):
        p.add_argument("model", nargs="?", metavar="MODEL.json",
                       help="path to a model file (or use --builtin)")
        p.add_argument("--builtin", metavar="NAME",
                       help="built-in model: v3, cascade3, lambda3, cascade4")
        p.add_argument("--params", action="append", default=[], metavar="K=V,...",
                       help="model parameters, e.g. omega=2,eps=1 "
                            "(lambda3 also takes f1=..., f2=...)")
        p.add_argument("--emit-model", metavar="PATH",
                       help="write the model, once checked, back out as a JSON file")

    classify = sub.add_parser("classify", help="commutativity classification")
    add_model_arguments(classify)
    classify.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable output")
    classify.set_defaults(func=cmd_classify)

    solve = sub.add_parser("solve", help="closed-form trajectory to CSV")
    add_model_arguments(solve)
    solve.add_argument("--rho0", metavar="SPEC",
                       help="initial state: diag:a,b,... | pure:k | "
                            "phase:levels[;phases] | file:PATH")
    solve.add_argument("--t-max", type=float, default=model.HORIZON, help=T_MAX_HELP)
    solve.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                       help="number of grid points including t=0 (default 400)")
    solve.add_argument("--coherences", nargs="*", default=[], metavar="I,J",
                       help="off-diagonal entries to include, e.g. 1,3 2,1")
    solve.add_argument("--out", metavar="PATH", help="CSV path (default stdout)")
    solve.add_argument("--force", action="store_true",
                       help="propagate even if the state is inadmissible")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="closed form vs ODE oracle")
    add_model_arguments(verify)
    verify.add_argument("--rho0", metavar="SPEC", required=True)
    verify.add_argument("--t-max", type=float, default=model.HORIZON, help=T_MAX_HELP)
    verify.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    verify.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL,
                        help="acceptance threshold (default 1e-6)")
    verify.add_argument("--force", action="store_true",
                        help="verify even if the state is inadmissible")
    verify.set_defaults(func=cmd_verify)

    return parser


def _parse_params(chunks):
    params = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ValueError(f"--params entries must look like k=v, got {item!r}")
            try:
                number = float(value)
            except ValueError:
                params[name] = value  # expression-valued (lambda3 f1/f2)
                continue
            if not math.isfinite(number):
                raise ValueError(f"params: {name!r} must be a finite number")
            params[name] = number
    return params


def _load_model(args):
    """Resolve the model selection; returns (model, initial_state)."""
    if (args.model is None) == (args.builtin is None):
        raise ValueError("select a model with either a file path or --builtin")
    if args.model is not None and args.params:
        raise ValueError("--params applies to built-in models only; "
                         "model files bind their own \"params\"")
    if args.builtin is not None:
        return model.builtin(args.builtin, _parse_params(args.params)), None
    from . import modelfile

    return modelfile.load_model(args.model)


def _assemble(args, loaded, initial_state, t_max=model.HORIZON):
    """Assemble the model for a run to t_max (the one check of its H and
    rates), then write it to --emit-model, if given."""
    g = model.assemble(loaded, t_max)
    if args.emit_model:
        from . import modelfile

        modelfile.dump_model(loaded, args.emit_model, initial_state)
    return g


def _parse_rho0(spec, d):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"--rho0 spec needs a kind prefix, got {spec!r}")

    if kind == "diag":
        values = [float(x) for x in rest.split(",")]
        if len(values) != d:
            raise ValueError(f"diag: expected {d} entries, got {len(values)}")
        return np.diag(values).astype(complex)
    if kind == "pure":
        k = int(rest)
        if not (1 <= k <= d):
            raise ValueError(f"pure: level {k} outside 1..{d}")
        return model.jump_operator(d, k, k)
    if kind == "phase":
        levels_part, _, phases_part = rest.partition(";")
        levels = [int(x) for x in levels_part.split(",") if x]
        phases = [float(x) for x in phases_part.split(",")] if phases_part else None
        return model.phase_state(d, levels, phases)
    if kind == "file":
        import json

        from . import modelfile

        with open(rest, encoding="utf-8") as fh:
            return modelfile._parse_operator(json.load(fh), d, "state file")
    raise ValueError(f"unknown --rho0 kind {kind!r}")


def _resolve_rho0(args, d, initial_state):
    """The initial state from --rho0, else from the model file, with unit trace."""
    if args.rho0:
        rho = _parse_rho0(args.rho0, d)
    elif initial_state is not None:
        rho = np.asarray(initial_state, dtype=complex)
    else:
        raise ValueError("no initial state: pass --rho0 or put one in the model file")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= 1e-3:  # written so that a NaN trace fails too
        raise ValueError(f"initial state trace is {trace.real:.6g}, expected 1")
    return rho / trace.real


def _coherence_pairs(items, d):
    """Parse --coherences entries "i,j" into 1-based level pairs within 1..d."""
    pairs = []
    for item in items:
        i, _, j = item.partition(",")
        i, j = int(i), int(j)
        if not (1 <= i <= d and 1 <= j <= d):
            raise errors.IndexOutOfRangeError(f"levels ({i}, {j}) outside 1..{d}")
        pairs.append((i, j))
    return pairs


def _prepare(args, coherences=()):
    """The prologue of solve and verify: load the model, resolve rho0,
    check the grid and the coherence pairs, assemble for --t-max (the one
    check of H and the rates, on the window g.window), write
    --emit-model, and run the admissibility gate on g.window.

    Returns (g, rho0, grid, coherence pairs, exit code or None when
    propagation may proceed).
    """
    loaded, initial_state = _load_model(args)
    rho0 = _resolve_rho0(args, loaded.dim, initial_state)
    if args.steps < 2 or not 0 < args.t_max < math.inf:
        raise ValueError("--steps must be >= 2 and --t-max positive and finite")
    if args.t_max > model.MAX_T_MAX:
        raise ValueError(f"--t-max must be at most {model.MAX_T_MAX:g}")
    if args.steps * loaded.dim ** 2 > MAX_GRID_ENTRIES:
        raise ValueError(f"--steps must be at most {MAX_GRID_ENTRIES // loaded.dim ** 2} "
                         f"for a {loaded.dim}-level model")
    grid = np.linspace(0.0, args.t_max, args.steps)
    pairs = _coherence_pairs(coherences, loaded.dim)
    g = _assemble(args, loaded, initial_state, args.t_max)

    subspace = commutativity.partial_subspace(g)
    if commutativity.admissible(rho0, subspace):
        return g, rho0, grid, pairs, None
    if args.force:
        print("warning: initial state is outside the admissible subspace; "
              "the closed form is not a solution (--force given)", file=sys.stderr)
        return g, rho0, grid, pairs, None
    _, level = commutativity.excluded_coordinate(subspace)
    detail = (f"admissible states satisfy rho_{level}{level} = 0"
              if level is not None else
              f"the admissible subspace has dimension {subspace.rank}")
    print(f"error: initial state is inadmissible: {detail}; "
          "rerun with --force to propagate anyway", file=sys.stderr)
    return g, rho0, grid, pairs, EXIT_INADMISSIBLE


def cmd_classify(args):
    report = commutativity.classify(_assemble(args, *_load_model(args)))
    if args.as_json:
        import json

        print(json.dumps({
            "functional": report.functional,
            "integral": report.integral,
            "partial_rank": report.partial_rank,
            "ambient_dim": report.subspace.dim,
            "excluded_coordinate": report.excluded_coordinate,
            "excluded_level": report.excluded_level,
            "power_cap": report.power_cap,
            "residual_max": report.residual_max,
            "sample_times": report.sample_times,
        }))
    else:
        print(f"functional: {'yes' if report.functional else 'no'}")
        print(f"integral: {'yes' if report.integral else 'no'}")
        print(f"M: {report.subspace_description()}")
        print(f"power cap: {report.power_cap}")
        print(f"residual max: {report.residual_max:.3e}")
    return EXIT_OK


def _csv_rows(series, header):
    """The CSV lines of an observable series, one per time, every value
    written as %.12e; after a header line when `header` is true."""
    d = series.populations.shape[1]
    names = ["t"] + [f"p_{i}" for i in range(1, d + 1)] + ["purity", "entropy"]
    columns = [series.times, *series.populations.T, series.purity, series.entropy]
    for (i, j), values in series.coherences.items():
        names += [f"re_{i}{j}", f"im_{i}{j}"]
        columns += [values.real, values.imag]
    table = np.column_stack(columns) + 0.0  # + 0.0 turns negative zero into zero
    row = ",".join(["%.12e"] * len(columns)) + "\n"
    text = row * len(table) % tuple(table.ravel().tolist())
    return ",".join(names) + "\n" + text if header else text


def cmd_solve(args):
    g, rho0, grid, pairs, failure = _prepare(args, args.coherences)
    if failure is not None:
        return failure
    from . import observables, solver

    # One row block of the closed form at a time, through the observables
    # and into CSV text; the text is written once every block has passed,
    # so a failed solve writes nothing. After a spectrum failure the closed
    # form still runs to the end of the grid, so that a non-finite state
    # anywhere fails the run as a numeric failure first.
    pieces, spectrum_failure = [], None
    for block in solver.closed_form_blocks(g, rho0, grid):
        if spectrum_failure is not None:
            continue
        try:
            series = observables.observable_series(block, pairs)
        except ValueError as exc:
            spectrum_failure, pieces = exc, []
            continue
        pieces.append(_csv_rows(series, header=not pieces))
    if spectrum_failure is not None:
        raise spectrum_failure
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


def cmd_verify(args):
    if not 0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    g, rho0, grid, _, failure = _prepare(args)
    if failure is not None:
        return failure
    from . import solver

    # One pass over the grid, a row block at a time: the closed form with
    # its flow residual, then the oracle on the same points. Only the
    # running maxima are kept; np.maximum lets a NaN through.
    distance = residual = 0.0
    for (closed, block_residual), oracle in zip(solver.flow_blocks(g, linalg.vec(rho0), grid),
                                                solver.oracle_blocks(g, rho0, grid)):
        distance = np.maximum(distance, solver.compare(closed, oracle))
        residual = np.maximum(residual, block_residual)

    print(f"max trace distance: {distance:.3e}")
    print(f"fedorov residual: {residual:.3e}")
    if distance <= args.tol and residual <= args.tol:
        print("verdict: PASS")
        return EXIT_OK
    print("verdict: FAIL")
    return EXIT_VERIFY


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return EXIT_PARSE if exc.code else EXIT_OK

    # Base classes only: every other LindbladError, and json.JSONDecodeError,
    # subclasses ValueError or ArithmeticError.
    try:
        return args.func(args)
    except (ValueError, OSError, errors.IndexOutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ArithmeticError, MemoryError, errors.StepSizeUnderflowError) as exc:
        print(f"numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC


# Thread-count setters of the OpenBLAS that numpy's Linux wheels bundle
# (64-bit interface, suffixed symbols): numpy >= 2.0, then numpy 1.x.
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _use_one_blas_thread():
    """Set numpy's bundled OpenBLAS (in numpy.libs) to one thread; do
    nothing where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if "openblas" in n)
    except OSError:
        return
    for name in names:
        try:
            # RTLD_NOLOAD: only the library numpy has already loaded.
            lib = ctypes.CDLL(os.path.join(libs, name),
                              mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for symbol in _BLAS_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def main(argv=None):
    _use_one_blas_thread()
    if argv is None:
        argv = sys.argv[1:]
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
