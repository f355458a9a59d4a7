"""Checks that a CLI invocation did what its workload requires.

Any traceback, or an exit code other than the required one, is a
failure. Beyond that:

* `classify --json` reports the pinned rank and excluded level for a
  built-in, and for a generated model an ambient dimension of d^2 with
  0 < rank < d^2;
* an admissible `verify` prints PASS with exit 0, a forced negative
  control prints FAIL with exit 5, and a refused one names the state
  inadmissible with exit 4;
* a `solve` CSV has one row per grid point, only finite entries, and
  populations summing to 1 within 1e-8 on every row;
* `--help` prints the usage line.
"""

from __future__ import annotations

import csv
import json
import math

POPULATION_SUM_TOL = 1e-8


def check(op, exit_code, stdout, stderr):
    """Returns None when the invocation met `op`, else the reason it did not."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if exit_code != op.exit_code:
        return f"exit {exit_code}, expected {op.exit_code}"
    if op.command == "classify":
        return _check_classify(op, stdout)
    if op.command == "verify":
        return _check_verify(op, stdout, stderr)
    if op.command == "solve":
        return check_csv(op.csv, op.dim, op.steps)
    if "usage:" not in stdout:
        return "no usage line"
    return None


def _check_classify(op, stdout):
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        rank, mu = report["partial_rank"], report["ambient_dim"]
        level = report["excluded_level"]
    except (IndexError, ValueError, KeyError, TypeError):
        return "classify printed no JSON report"
    if mu != op.dim * op.dim:
        return f"ambient dimension {mu}, expected {op.dim * op.dim}"
    if op.rank is not None:
        if (rank, level) != (op.rank, op.excluded_level):
            return (f"rank {rank} excluding level {level}, "
                    f"expected {op.rank} excluding {op.excluded_level}")
    elif not 0 < rank < mu:
        return f"rank {rank} outside 1..{mu - 1}"
    return None


def _check_verify(op, stdout, stderr):
    if op.exit_code == 0 and "verdict: PASS" not in stdout:
        return "no PASS verdict"
    if op.exit_code == 5 and "verdict: FAIL" not in stdout:
        return "no FAIL verdict"
    if op.exit_code == 4 and "inadmissible" not in stderr:
        return "refusal does not name the state inadmissible"
    return None


def check_csv(path, d, steps):
    """The solve CSV at `path` for a d-level model on `steps` grid points."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return f"no CSV output: {exc}"
    if not rows:
        return "empty CSV"
    header, body = rows[0], rows[1:]
    populations = [k for k, name in enumerate(header) if name.startswith("p_")]
    if len(populations) != d:
        return f"{len(populations)} population columns, expected {d}"
    if len(body) != steps:
        return f"{len(body)} rows, expected {steps}"
    for n, row in enumerate(body, start=1):
        if len(row) != len(header):
            return f"row {n} has {len(row)} cells, expected {len(header)}"
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            return f"row {n} has a cell that is not a number"
        if not all(math.isfinite(v) for v in values):
            return f"row {n} has a non-finite entry"
        total = math.fsum(values[k] for k in populations)
        if abs(total - 1.0) > POPULATION_SUM_TOL:
            return f"row {n} populations sum to {total!r}"
    return None
