"""Compare the CLI's outputs on the benchmark invocations between two trees.

    python tools/identity.py record SRC OUT.json [--seeds 1 2 ...]
    python tools/identity.py compare A.json B.json

`record` imports `lindblad_pc` from the package source directory SRC
(run one process per tree), builds every invocation of every workload
in `perfbench/workloads.py` for each seed (by default 1 and 2, the seeds
of the identity gates in ROADMAP.md), adds a text `classify` next
to each `classify --json`, runs each through `lindblad_pc.cli.main` in
this process with stdout and stderr captured, and writes to OUT.json its
exit code, stdout, stderr and the CSV it wrote with --out. `--help` is
left out.

`compare` prints one line per invocation: "identical", or the exit
codes, the verdict lines, the fields that differ, and for a CSV the
number of differing rows, the largest absolute difference of a cell and
the largest in units of the last printed digit (a cell is written with
13 significant digits); for other output, the differing lines. It ends
with a count of identical invocations and, on each side, the largest
`max trace distance` and the largest flow residual (`fedorov residual`)
that a passing `verify` printed. It exits 0 when every
invocation is identical and 1 when any differs or the two records hold
different invocations, so a script can gate on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(src, out, seeds):
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT)]
    from lindblad_pc import cli
    from perfbench import workloads

    records = []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                ops = [op for op in workloads.build(name, seed, tmp) if op.command != "--help"]
                for op in ops:
                    argvs = [list(op.argv)]
                    if op.command == "classify":
                        argvs.append([a for a in op.argv if a != "--json"])
                    for argv in argvs:
                        stdout, stderr = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = cli.main(argv)
                        written = op.csv and Path(op.csv).exists()
                        records.append({
                            "seed": seed, "workload": name,
                            "argv": [a.replace(tmp, "<work>") for a in argv],
                            "code": code, "stdout": stdout.getvalue(),
                            "stderr": stderr.getvalue(),
                            "csv": Path(op.csv).read_text() if written else None})
    Path(out).write_text(json.dumps(records) + "\n")
    print(f"{len(records)} invocations recorded from {cli.__file__}")


def _csv_difference(a, b):
    """(rows that differ, largest |diff| of a cell, largest |diff| in
    units of the last printed digit) between two CSV texts."""
    rows = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
    worst = units = 0.0
    for x, y in rows:
        for p, q in zip(x.split(","), y.split(",")):
            if p != q:
                diff = abs(float(p) - float(q))
                exponent = min(int(p.split("e")[1]), int(q.split("e")[1]))
                worst = max(worst, diff)
                units = max(units, diff / 10.0 ** (exponent - 12))
    return len(rows), worst, units


def _verdicts(r):
    return [line for line in r["stdout"].splitlines() if line.startswith("verdict")]


def _passing_largest(records, name):
    """The largest value of the stdout line `name` printed by a passing
    verify."""
    values = [float(line.split(":")[1]) for r in records
              if r["argv"][0] == "verify" and r["code"] == 0
              for line in r["stdout"].splitlines() if line.startswith(name + ":")]
    return max(values, default=float("nan"))


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if [(r["seed"], r["workload"], r["argv"]) for r in a] != \
            [(r["seed"], r["workload"], r["argv"]) for r in b]:
        print("the two records hold different invocations")
        return 1
    identical = 0
    for p, c in zip(a, b):
        argv = p["argv"]
        label = f"seed {p['seed']} {p['workload']} " + " ".join(
            argv[:3] if argv[1] == "--builtin" else argv[:2])
        if "--json" in argv:
            label += " --json"
        fields = [k for k in ("code", "stdout", "stderr", "csv") if p[k] != c[k]]
        if not fields:
            identical += 1
            print(f"{label}: identical (exit {p['code']})")
            continue
        line = (f"{label}: differs in {fields}; exit {p['code']} -> {c['code']}; "
                f"verdict {_verdicts(p)} -> {_verdicts(c)}")
        if "csv" in fields:
            rows, worst, units = _csv_difference(p["csv"], c["csv"])
            line += (f"; csv rows differing {rows}, max |diff| {worst:.4e} "
                     f"({units:.3g} units of the last digit)")
        for key in ("stdout", "stderr"):
            if key in fields:
                line += f"; {key}: " + " | ".join(
                    f"{x} -> {y}" for x, y in zip(p[key].splitlines(), c[key].splitlines())
                    if x != y)
        print(line)
    print(f"{identical} of {len(a)} invocations identical; largest of a passing verify: "
          + "; ".join(f"{name} {_passing_largest(a, name):.3e} -> "
                      f"{_passing_largest(b, name):.3e}"
                      for name in ("max trace distance", "fedorov residual")))
    return 0 if identical == len(a) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every invocation against one source tree")
    rec.add_argument("src", help="package source directory (the one holding lindblad_pc)")
    rec.add_argument("out", help="JSON file to write")
    rec.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.src, args.out, args.seeds)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
