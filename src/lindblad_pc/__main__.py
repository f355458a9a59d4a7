"""The `lindblad-pc` command: `python -m lindblad_pc` and the installed script."""

import gc
import os


def main(argv=None):
    """Run the CLI (`cli.main`) as a process of its own: numpy's BLAS on
    one thread, and the collector's heap frozen once the command has run.

    Both settings act on the whole process, so they belong to this entry
    point, which owns the process, and not to `cli.main`, which tests,
    tracers and library code call inside processes of their own.

    OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so the
    variable is set before `.cli` imports numpy: the process never starts
    the worker pool that `cli.main` would otherwise cap afterwards.

    `gc.freeze()` moves every object the collector tracks (the module
    dicts, functions and classes of numpy and the package, about 21,700
    after a `verify`) into its permanent generation, which no collection
    visits, so the interpreter's exit no longer walks them in its last
    collections. It runs in a `finally`, once the command has run,
    whatever its exit code: frozen any earlier, the modules a command
    loads lazily would stay unfrozen. On a 2-CPU x86-64 host the exit of
    a `classify`, `solve` or `verify` process (from this function's
    return to the end of the process) takes 20-24 ms unfrozen and 5-7 ms
    frozen, medians of 15 processes each (the `process` table of
    `tools/scaling.py` in BENCH_26.json); the call itself takes a few
    microseconds.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
