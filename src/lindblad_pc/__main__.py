"""The `lindblad-pc` command: `python -m lindblad_pc` and the installed script."""

import os


def main(argv=None):
    """Run the CLI (`cli.main`) with numpy's BLAS on one thread.

    OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so the
    variable is set before `.cli` imports numpy: the process never starts
    the worker pool that `cli.main` would otherwise cap afterwards.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
