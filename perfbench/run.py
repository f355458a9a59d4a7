"""Benchmark of the lindblad-pc CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 56 --trace 0

The package is taken from the src/ directory beside this one, and
working files (model files, CSV output, the run record, the spans) go to
.bench_work/<workload>/ there.

--trace 0 drives the real CLI (`python -m lindblad_pc`) as a subprocess,
one invocation at a time, and reports the end-to-end metrics. Every
invocation's wall time is taken around the process, and its CPU time and
peak RSS come from os.wait4. No BLAS or thread environment variable is
set: the numbers are what a user gets.

On a shared host the speed of a CPU can drift by 20-30 % within tens of
seconds, more than any bound a regression check can use, so the time
metrics are relative: a reference process (an interpreter that imports numpy,
scipy.linalg and scipy.integrate and nothing of the package) runs before
the first invocation and after each one, and an invocation's wall and
CPU time are divided by the mean of the reference processes on either
side of it. The unit `ref` is one such reference process. setup_s, the
median wall time of an import-only CLI process, stays in seconds, and
the seconds behind every relative metric go to stderr and the record.

--trace 1 replays the same invocations in-process through
`lindblad_pc.cli.main`, once untraced and once traced, and reports the
per-layer metrics plus the tracing overhead (the difference between the
two replays).

A run cycles through the workload's invocations, each at least once,
for as long as the next one is expected to fit in --seconds, and an
end-to-end metric sums each invocation's mean relative time. (How many
times an invocation runs follows the host's speed; as the times skew
upwards, a median of three would read lower than the mean of two.) The
traced replay repeats whole passes while another fits, and a per-layer
metric is its median over them. Every output is checked (see
checker.py), and why each workload was chosen is in workloads.py.

A summary with every metric's unit, the fail ratio and the run record
goes to stderr; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --workload all every
workload runs in turn and the last line totals them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import runrecord
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
# Invocations still running this long after the run started are killed,
# so that a run ends within three minutes.
RUN_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "classify_rel": "ref",
    "solve_rel": "ref",
    "verify_rel": "ref",
    "cpu_rel": "ref",
    "peak_rss_mb": "MB",
}

# The reference process: the interpreter and the libraries the package
# imports, none of the package itself.
REFERENCE = ("-c", "import numpy, scipy.linalg, scipy.integrate")


@dataclass
class Outcome:
    op: workloads.Op
    exit_code: int | None
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    failure: str | None = None
    ref_wall_s: float = 1.0  # the reference process around it
    ref_cpu_s: float = 1.0


def spawn(argv, env, workdir, deadline):
    """One interpreter process; wall time around it, CPU and max RSS from
    wait4. Returns (outcome without a verdict, stdout, stderr)."""
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(deadline - start, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    outcome = Outcome(None, code, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)
    return (outcome, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def run_subprocess(op, env, workdir, deadline):
    """One CLI process, checked."""
    if time.perf_counter() >= deadline:
        return Outcome(op, None, 0.0, failure="not run: the run's time limit passed")
    outcome, out, err = spawn(["-m", "lindblad_pc", *op.argv], env, workdir, deadline)
    outcome.op = op
    outcome.failure = checker.check(op, outcome.exit_code, out, err)
    return outcome


def run_reference(env, workdir, deadline):
    """One reference process; a run cannot measure without it."""
    outcome, _, err = spawn(REFERENCE, env, workdir, deadline)
    if outcome.exit_code != 0:
        raise SystemExit(f"the reference process exited {outcome.exit_code}: "
                         + (err.strip().splitlines() or [""])[-1])
    return outcome


def run_in_process(op, cli):
    """One call of cli.main with captured output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit):
        code = None
        err.write(traceback.format_exc())
    outcome = Outcome(op, code, time.perf_counter() - start)
    outcome.failure = checker.check(op, code, out.getvalue(), err.getvalue())
    return outcome


def repeat(seconds, one_pass):
    """Run passes while another one fits in `seconds`, at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        begin = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            return passes


def cycle(seconds, ops, run_one):
    """Runs the ops in turn, each at least once, while the next one is
    expected (from its last run) to fit in `seconds`. Returns the outcomes
    of each op, in the order of `ops`."""
    start = time.perf_counter()
    samples = [[] for _ in ops]
    for k in itertools.count():
        runs = samples[k % len(ops)]
        if runs and (time.perf_counter() - start + runs[-1].wall_s
                     + runs[-1].ref_wall_s > seconds):
            return samples
        runs.append(run_one(ops[k % len(ops)]))


def relative_metrics(samples):
    """End-to-end metrics but setup_s from each op's outcomes: the mean of
    each op's relative time, summed by subcommand (wall) or over all ops
    (CPU). Returns (metrics, the same sums in seconds)."""
    rel, seconds = {}, {}
    for runs in samples:
        for name, key, ref in ((f"{runs[0].op.command}_rel", "wall_s", "ref_wall_s"),
                               ("cpu_rel", "cpu_s", "ref_cpu_s")):
            rel[name] = rel.get(name, 0.0) + statistics.fmean(
                getattr(o, key) / getattr(o, ref) for o in runs)
            seconds[name] = seconds.get(name, 0.0) + statistics.fmean(
                getattr(o, key) for o in runs)
    rel["peak_rss_mb"] = max(o.rss_mb for runs in samples for o in runs)
    return rel, seconds


def medians(rows):
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def end_to_end(ops, seconds, env, workdir, deadline):
    """Returns (metrics, seconds behind them, outcomes, passes) of the
    subprocess runs; passes counts a part of a pass as a fraction."""
    def cli(op):
        return run_subprocess(op, env, workdir, deadline)

    # The run record's helper process has already imported the package
    # once, which wrote its bytecode cache.
    setup = [cli(workloads.HELP) for _ in range(SETUP_SAMPLES)]
    before = run_reference(env, workdir, deadline)

    def measured(op):
        nonlocal before
        outcome = cli(op)
        after = run_reference(env, workdir, deadline)
        outcome.ref_wall_s = (before.wall_s + after.wall_s) / 2
        outcome.ref_cpu_s = (before.cpu_s + after.cpu_s) / 2
        before = after
        return outcome

    samples = cycle(seconds, ops, measured)
    metrics, raw = relative_metrics(samples)
    metrics["setup_s"] = raw["setup_s"] = statistics.median(o.wall_s for o in setup)
    outcomes = [o for runs in samples for o in runs]
    return ({name: metrics[name] for name in END_TO_END}, raw, [*setup, *outcomes],
            len(outcomes) / len(ops))


def per_layer(ops, seconds, env, workdir, deadline):
    """Returns (metrics, outcomes, passes) of the in-process replays."""
    sys.path.insert(0, str(SRC))
    import lindblad_pc
    import lindblad_pc.cli

    if Path(lindblad_pc.__file__).resolve().parent != SRC / "lindblad_pc":
        raise SystemExit(f"imported lindblad_pc from {lindblad_pc.__file__}, not {SRC}")

    imports = []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "lindblad_pc",
                               "--help"], capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(deadline - time.perf_counter(), 1.0),
                              check=True)
        cumulative = tracer.parse_importtime(done.stderr)
        imports.append({
            "cli.import_s": cumulative["lindblad_pc"],
            "cli.import_scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
        })

    # A first, unmeasured pass takes the one-time costs of first calls, so
    # that neither measured replay pays them.
    outcomes = [run_in_process(op, lindblad_pc.cli) for op in ops]

    def pair():
        begin = time.perf_counter()
        plain = [run_in_process(op, lindblad_pc.cli) for op in ops]
        untraced = time.perf_counter() - begin
        spans = tracer.Tracer()
        certified = set()
        spans.install(lindblad_pc)
        try:
            begin = time.perf_counter()
            traced = []
            for op in ops:
                traced.append(run_in_process(op, lindblad_pc.cli))
                if op.command == "verify" and op.exit_code == 0:
                    certified.add(spans.spans[-1].id)
            overhead = time.perf_counter() - begin - untraced
        finally:
            spans.uninstall()
        outcomes.extend(plain + traced)
        metrics = tracer.span_metrics(spans.spans, certified)
        metrics["trace.overhead_s"] = overhead
        return metrics, spans

    pairs = repeat(seconds, pair)
    pairs[-1][1].write(workdir / "spans.jsonl")
    metrics = medians([m for m, _ in pairs])
    metrics.update(medians(imports))
    metrics = {name: metrics[name] for name in tracer.LAYER_METRICS}
    return metrics, {}, outcomes, len(pairs)


def run_workload(name, seed, seconds, trace):
    """One run; prints its summary to stderr and returns the result object."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workloads.build(name, seed, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    record = runrecord.run_record(ROOT, name, seed, env)
    measure = per_layer if trace else end_to_end
    metrics, raw, outcomes, passes = measure(ops, seconds, env, workdir, deadline)
    if trace:
        record["blas_threads_in_process"] = runrecord.blas_threads()
    failures = [o for o in outcomes if o.failure is not None]
    record.update(passes=passes, invocations_per_pass=len(ops), seconds=raw,
                  wall_s=time.perf_counter() - started)
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    units = {name: unit for name, (unit, *_) in tracer.LAYER_METRICS.items()}
    units.update(END_TO_END)
    print(f"== {name} seed {seed}: {passes:.3g} pass(es) of {len(ops)} invocations, "
          f"{'in-process replay, traced and untraced' if trace else 'CLI subprocesses'}",
          file=sys.stderr)
    print("run record: " + json.dumps(record), file=sys.stderr)
    for metric, value in metrics.items():
        moves = ""
        if trace:
            _, _, end_to_end_metric, where = tracer.LAYER_METRICS[metric]
            moves = f"  moves {end_to_end_metric} on {where}"
        elif metric in raw and metric != "setup_s":
            moves = f"  ({raw[metric]:.6g} s)"
        print(f"  {metric:36s} {value:<14.6g} {units[metric]}{moves}", file=sys.stderr)
    print(f"  {'fail_ratio':36s} {len(failures) / len(outcomes):<14.6g} 1 "
          f"({len(failures)} of {len(outcomes)} attempted)", file=sys.stderr)
    for o in failures:
        print(f"  FAILED {' '.join(o.op.argv)}: {o.failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the measured invocations of one run may take")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lindblad_pc" / "__init__.py").is_file():
        print(f"error: no lindblad_pc package under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    for n, result in zip(names, results):
        print(json.dumps({"workload": n, **result}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}/{m}": v for n, r in zip(names, results)
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
