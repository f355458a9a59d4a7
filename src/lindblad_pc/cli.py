"""Command-line interface.

Three subcommands over a model (a JSON file or a built-in name):

* ``classify`` prints the commutativity classification and the
  admissible-state subspace;
* ``solve`` propagates an initial state in closed form and writes a CSV
  trajectory (populations, purity, entropy, optional coherences);
* ``verify`` runs the closed form against the brute-force ODE oracle and
  reports the largest trace distance and the flow residual.

Exit codes: 0 success, 2 input/parse error, 3 numeric failure,
4 inadmissible initial state without --force, 5 verification failure.
Exit 2 also refuses, before any work: a `--params` value that is NaN or
infinite; `--steps` such that steps x d^2 passes MAX_GRID_ENTRIES (the
message names the largest `--steps` for that d); and a `verify --tol`
that is not positive and finite.

No subcommand loads scipy on the models of the benchmark: the matrix
exponential and the ODE oracle are numpy code in the package. Only a
`verify` whose generator has an invariant block larger than
`linalg.FRECHET_DOUBLING_MAX` coordinates imports `scipy.linalg`, for the
flow residual of that block.

The CLI runs numpy's BLAS on one thread: :func:`main` sets the pool of
the OpenBLAS that the numpy wheel bundles to one thread before it does
anything else. Measured on a 2-CPU x86-64 host (`tools/scaling.py`,
generated d-level cascades, 100 time points), the default pool of two
threads makes the blocked closed form take 0.006-0.089 s at d = 7..16,
against 0.003-0.005 s with one thread, and the flow residual
0.007-0.048 s against 0.004-0.010 s. At d = 24 and 32 (a one-off run of
the same stages) two threads take 0.017 and 0.025 s for the closed
form, against 0.008 and 0.014 s, and 0.033 and 0.048 s for the
residual, against 0.013 and 0.022 s. Two threads help only the dense
Gamma kernel and power cap, from d = 11 or 12 on (at d = 16, 0.72 s
against 0.99 s and 1.00 s against 1.08 s). The cap reaches the OpenBLAS
of the numpy wheels for Linux (numpy.libs): ``scipy_openblas`` from
numpy 2.0 on, ``openblas64_`` before; with any other numpy build the
pool is left alone. The setting holds for the rest of the process that
calls :func:`main`, so an in-process caller (a test, a tracer) keeps one
BLAS thread afterwards; code that imports the package and never calls
:func:`main` keeps its own pool.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

import numpy as np

from . import commutativity, errors, linalg, model, modelfile, observables, solver

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INADMISSIBLE = 4
EXIT_VERIFY = 5

DEFAULT_STEPS = 400
DEFAULT_VERIFY_TOL = 1e-6
# The most steps x d^2 that solve and verify take: each holds a few
# complex arrays of that many entries (the closed-form and oracle states
# and their copies as d x d matrices), 64 MiB each at the bound. At the
# bound on v3 (466,033 steps) solve peaks at 206 MB resident and verify
# at 250 MB.
MAX_GRID_ENTRIES = 2**22
_CSV_BLOCK_ROWS = 4096  # CSV lines per formatted piece, whatever --steps is
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
                       help="write the loaded model back out as a JSON file")

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
        loaded = model.builtin(args.builtin, _parse_params(args.params))
        initial_state = None
    else:
        loaded, initial_state = modelfile.load_model(args.model)
    if args.emit_model:
        modelfile.dump_model(loaded, args.emit_model, initial_state)
    return loaded, initial_state


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
    check the grid and the coherence pairs, assemble (which validates the
    rates on the run's time window), and run the admissibility gate with
    sample times spanning that window.

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
    g = model.assemble(loaded, args.t_max)

    subspace = commutativity.partial_subspace(g, args.t_max)
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
    loaded, _ = _load_model(args)
    report = commutativity.classify(model.assemble(loaded))
    if args.as_json:
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


def _csv_pieces(series):
    """The CSV of an observable series in pieces of _CSV_BLOCK_ROWS lines
    after the header: one line per time, every value written as %.12e."""
    d = series.populations.shape[1]
    header = ["t"] + [f"p_{i}" for i in range(1, d + 1)] + ["purity", "entropy"]
    columns = [series.times, *series.populations.T, series.purity, series.entropy]
    for (i, j), values in series.coherences.items():
        header += [f"re_{i}{j}", f"im_{i}{j}"]
        columns += [values.real, values.imag]
    table = np.column_stack(columns) + 0.0  # + 0.0 turns negative zero into zero
    row = ",".join(["%.12e"] * len(columns)) + "\n"
    yield ",".join(header) + "\n"
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        yield row * len(block) % tuple(block.ravel().tolist())


def cmd_solve(args):
    g, rho0, grid, pairs, failure = _prepare(args, args.coherences)
    if failure is not None:
        return failure
    trajectory = solver.propagate_closed_form(g, rho0, grid)
    series = observables.observable_series(trajectory, pairs)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_csv_pieces(series))
    else:
        sys.stdout.writelines(_csv_pieces(series))
    return EXIT_OK


def cmd_verify(args):
    if not 0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    g, rho0, grid, _, failure = _prepare(args)
    if failure is not None:
        return failure
    closed = solver.propagate_closed_form(g, rho0, grid)
    oracle = solver.ode_oracle(g, rho0, grid)
    distance = solver.compare(closed, oracle)
    residual = solver.fedorov_residual(g, linalg.vec(rho0), grid)

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
    except (ArithmeticError, errors.StepSizeUnderflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
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
