"""The run record: where the numbers came from.

It holds the seed, the git commit when the checkout is a repository, a
digest of the package source, the Python, numpy and scipy versions, the
CPUs this process may run on, and the effective OpenBLAS thread count of
each BLAS library the CLI has loaded. The thread count is queried from
the library after the CLI entry point has run, never read from an
environment variable.

Run as a script (with the package on PYTHONPATH), this file calls
`lindblad_pc.cli.main(["--help"])` and prints the versions and thread
counts that process ends up with as one JSON object.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

# Thread-count getters of the OpenBLAS builds that the numpy wheel (64-bit
# interface, suffixed symbols) and the scipy wheel bundle.
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def blas_threads():
    """Library name -> thread count, for each OpenBLAS already loaded here.

    Only libraries next to the imported numpy and scipy are considered, and
    RTLD_NOLOAD makes sure none is loaded by asking.
    """
    counts = {}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is None:
            continue
        libs = os.path.dirname(os.path.dirname(module.__file__)) + f"/{name}.libs"
        for path in sorted(glob.glob(libs + "/*openblas*")):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for symbol in _GETTERS:
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    counts[name] = getter()
                    break
    return counts


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _source_digest(src):
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(root, workload, seed, env):
    """Everything but the measurements, as a JSON-ready dict."""
    helper = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                            env=env, cwd=root, timeout=120, check=True)
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **json.loads(helper.stdout.strip().splitlines()[-1]),
    }


def _after_cli():
    import contextlib
    import io

    import lindblad_pc.cli

    with contextlib.redirect_stdout(io.StringIO()):
        lindblad_pc.cli.main(["--help"])

    import numpy
    import scipy

    print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "blas_threads": blas_threads()}))


if __name__ == "__main__":
    _after_cli()
