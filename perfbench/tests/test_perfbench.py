"""Tests of the benchmark itself: seeded inputs, the output checker, the
tracer, and the metric names and units that BENCHMARK.json declares."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_regenerates_identical_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a")
    again = workloads.build(name, 7, tmp_path / "b")
    other = workloads.build(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    strip = lambda ops, d: [tuple(a.replace(str(tmp_path / d), "") for a in op.argv)
                            for op in ops]
    assert strip(first, "a") == strip(again, "b")
    assert strip(first, "a") != strip(other, "c")


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inadmissible_states_weigh_on_the_excluded_level():
    import random
    rng = random.Random(0)
    for _ in range(50):
        spec = workloads._inadmissible_spec(rng, 4, 2)
        diag = [float(x) for x in spec[len("diag:"):].split(",")]
        assert len(diag) == 4 and min(diag) > 0
        assert abs(sum(diag) - 1.0) < 1e-9 and diag[1] >= 0.3


VERIFY = Op("verify", ("--builtin", "v3", "--rho0", "pure:1"), 0, 3)
REFUSED = Op("verify", ("--builtin", "cascade3", "--rho0", "pure:3"), 4, 3)
FORCED = Op("verify", ("--builtin", "cascade3", "--rho0", "pure:3", "--force"), 5, 3)
CLASSIFY = Op("classify", ("--builtin", "cascade3", "--json"), 0, 3, 8, 3)


def test_checker_accepts_expected_outcomes():
    assert checker.check(VERIFY, 0, "verdict: PASS\n", "") is None
    assert checker.check(REFUSED, 4, "", "error: initial state is inadmissible") is None
    assert checker.check(FORCED, 5, "verdict: FAIL\n", "warning") is None
    report = {"partial_rank": 8, "ambient_dim": 9, "excluded_level": 3}
    assert checker.check(CLASSIFY, 0, json.dumps(report), "") is None
    assert checker.check(workloads.HELP, 0, "usage: lindblad-pc", "") is None


def test_checker_counts_wrong_verdicts_and_exit_codes():
    assert checker.check(VERIFY, 0, "verdict: FAIL\n", "") is not None
    assert checker.check(VERIFY, 5, "verdict: FAIL\n", "") is not None
    assert checker.check(REFUSED, 5, "verdict: FAIL\n", "") is not None
    assert checker.check(REFUSED, 0, "verdict: PASS\n", "") is not None
    assert checker.check(FORCED, 4, "", "inadmissible") is not None
    assert checker.check(FORCED, 0, "verdict: PASS\n", "") is not None
    assert checker.check(VERIFY, 1, "", "Traceback (most recent call last):\nX") is not None
    assert checker.check(VERIFY, 0, "verdict: PASS\n", "Traceback (most\nboom") is not None
    assert checker.check(VERIFY, 2, "", "error: bad") is not None


def test_checker_pins_builtin_ranks():
    wrong_rank = {"partial_rank": 9, "ambient_dim": 9, "excluded_level": None}
    wrong_level = {"partial_rank": 8, "ambient_dim": 9, "excluded_level": 2}
    assert checker.check(CLASSIFY, 0, json.dumps(wrong_rank), "") is not None
    assert checker.check(CLASSIFY, 0, json.dumps(wrong_level), "") is not None
    assert checker.check(CLASSIFY, 0, "not json", "") is not None
    generated = Op("classify", ("m.json", "--json"), 0, 3)
    full = {"partial_rank": 9, "ambient_dim": 9, "excluded_level": None}
    assert checker.check(generated, 0, json.dumps(full), "") is not None


def _write_csv(path, rows):
    header = "t,p_1,p_2,purity,entropy,re_12,im_12"
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def test_checker_validates_solve_csv(tmp_path):
    good = ["0,0.5,0.5,0.5,0.69,0.1,0", "1,0.25,0.75,0.6,0.5,0.1,-0.1"]
    path = _write_csv(tmp_path / "ok.csv", good)
    assert checker.check_csv(path, 2, 2) is None
    solve = Op("solve", (), 0, 2, csv=path, steps=2)
    assert checker.check(solve, 0, "", "") is None
    assert checker.check_csv(path, 2, 3) is not None  # row count
    assert checker.check_csv(path, 3, 2) is not None  # population columns
    bad_sum = _write_csv(tmp_path / "sum.csv", ["0,0.5,0.5000001,0.5,0.69,0,0"])
    assert checker.check_csv(bad_sum, 2, 1) is not None
    nan = _write_csv(tmp_path / "nan.csv", ["0,0.5,0.5,nan,0.69,0,0"])
    assert checker.check_csv(nan, 2, 1) is not None
    assert checker.check_csv(str(tmp_path / "missing.csv"), 2, 1) is not None


def test_self_times_account_for_the_root_span():
    spans = [
        tracer.Span(2, 1, "linalg.expm", 2.0, 3.0),
        tracer.Span(1, 0, "solver.residual", 1.0, 4.0),
        tracer.Span(3, 0, "solver.oracle", 5.0, 6.5),
        tracer.Span(0, None, "cli.main", 0.0, 10.0),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5}
    metrics = tracer.span_metrics(spans, certified=set())
    assert metrics["cli.self_s"] == 5.5
    assert metrics["solver.residual_expm_calls"] == 1


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      2000 |       3000 |   scipy.integrate\n"
              "import time:       100 |     900000 | lindblad_pc\n")
    assert tracer.parse_importtime(stderr) == {"scipy.integrate": 0.003,
                                               "lindblad_pc": 0.9}


def test_end_to_end_metrics_match_the_spec():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    solve = Op("solve", (), 0, 2, csv="x.csv", steps=2)
    outcomes = [run.Outcome(op, op.exit_code, 1.0, 1.5, 80.0, ref_wall_s=0.5,
                            ref_cpu_s=0.6)
                for op in (CLASSIFY, solve, VERIFY, REFUSED)]
    relative, seconds = run.relative_metrics([[o, o] for o in outcomes])
    produced = relative | {"setup_s": 0.8}
    assert set(produced) == set(declared)
    assert all(value > 0 for value in produced.values())
    assert relative["verify_rel"] == 4.0 and seconds["verify_rel"] == 2.0
    assert relative["cpu_rel"] == pytest.approx(10.0)


def test_cycle_runs_every_op_once_and_then_while_time_remains():
    ops = [CLASSIFY, VERIFY, REFUSED]
    slow = run.cycle(0.0, ops, lambda op: run.Outcome(op, 0, 1.0))
    assert [[o.op for o in runs] for runs in slow] == [[op] for op in ops]
    fast = run.cycle(0.05, ops, lambda op: run.Outcome(op, 0, 0.0, ref_wall_s=0.0))
    counts = [len(runs) for runs in fast]
    assert min(counts) > 1 and max(counts) - min(counts) <= 1


def test_traced_call_emits_every_layer_metric():
    import lindblad_pc
    import lindblad_pc.cli

    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == {name: (unit, better) for name, (unit, better, *_)
                        in tracer.LAYER_METRICS.items()}

    spans = tracer.Tracer()
    spans.install(lindblad_pc)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lindblad_pc.cli.main(["classify", "--builtin", "cascade3", "--json"])
    finally:
        spans.uninstall()
    assert code == 0
    for module, attribute, _ in tracer.BINDINGS:  # all wrappers removed
        owner = getattr(lindblad_pc, module)
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert not hasattr(owner, "__wrapped__")

    metrics = tracer.span_metrics(spans.spans, certified=set())
    metrics.update({"trace.overhead_s": 0.0, "cli.import_s": 0.9,
                    "cli.import_scipy_integrate_s": 0.3})
    assert set(metrics) == set(declared)
    assert metrics["commutativity.rank"] == 8
    assert metrics["commutativity.classify_s"] > 0
    total_self = sum(tracer.self_times(spans.spans).values())
    assert total_self == pytest.approx(metrics["cli.main_s"])


def test_invocations_past_the_time_limit_fail_without_running(tmp_path):
    import time
    outcome = run.run_subprocess(VERIFY, {}, tmp_path, time.perf_counter() - 1.0)
    assert outcome.exit_code is None and outcome.failure is not None
    assert not (tmp_path / "cli.out").exists()
