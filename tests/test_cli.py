"""The CLI's exit-code contract, driven in-process through `cli.main`.

Exit codes: 0 success, 2 input error, 3 numeric failure, 4 inadmissible
initial state without --force, 5 verification failure. Every failure
ends in a one-line message on stderr and never in a traceback.
"""

import csv
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lindblad_pc import cli, linalg, model, modelfile, solver
from lindblad_pc.errors import NonFiniteError
from lindblad_pc.expr import format_expr
from lindblad_pc.observables import ObservableSeries

from conftest import MODEL_NAMES, MODEL_PARAMS, run_capped_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

# (rank of M, excluded level, power cap) at the suite's parameter sets.
CLASSIFICATION = {
    "v3": (9, None, 2),
    "cascade3": (8, 3, 2),
    "lambda3": (8, 2, 1),
    "cascade4": (15, 4, 3),
}

ADMISSIBLE_SPEC = {
    "v3": "diag:0.5,0,0.5",
    "cascade3": "phase:1,2;0.7",
    "lambda3": "phase:1,3;2.5",
    "cascade4": "diag:0,0.5,0.5,0",
}

SHORT_GRID = ("--t-max", "5", "--steps", "51")


def builtin_args(name):
    params = ",".join(f"{k}={v}" for k, v in MODEL_PARAMS[name].items())
    return ["--builtin", name, "--params", params]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_classify_json(capsys, name):
    code, out, err = run(capsys, "classify", *builtin_args(name), "--json")
    assert (code, err) == (cli.EXIT_OK, "")
    report = json.loads(out)
    rank, level, cap = CLASSIFICATION[name]
    assert report["partial_rank"] == rank
    assert report["excluded_level"] == level
    assert report["power_cap"] == cap


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_solve_writes_one_row_per_step(capsys, tmp_path, name):
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, "solve", *builtin_args(name),
                         "--rho0", ADMISSIBLE_SPEC[name], *SHORT_GRID,
                         "--coherences", "1,2", "--out", str(path))
    assert (code, out, err) == (cli.EXIT_OK, "", "")
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    d = int(name[-1])
    assert header[:d + 1] == ["t"] + [f"p_{i}" for i in range(1, d + 1)]
    assert header[-2:] == ["re_12", "im_12"]
    values = np.array(rows, dtype=float)
    assert values.shape == (51, len(header))
    np.testing.assert_allclose(values[:, 1:d + 1].sum(axis=1), 1.0, atol=1e-9)


def test_csv_cells_keep_their_text():
    # every cell as f"{x + 0.0:.12e}": negative zero as zero, subnormals in full
    series = ObservableSeries(
        times=np.array([0.0, 1e-320]),
        populations=np.array([[-0.0, 1.0], [2e-301, 0.5]]),
        purity=np.array([1.0, -0.0]),
        entropy=np.array([-0.0, 1e5]),
        coherences={(1, 2): np.array([complex(-0.0, -5e-324), complex(3e-310, -7.5e-17)])})
    header, *rows = cli._csv_rows(series, header=True).splitlines()
    assert header == "t,p_1,p_2,purity,entropy,re_12,im_12"
    expected = [[0.0, -0.0, 1.0, 1.0, -0.0, -0.0, -5e-324],
                [1e-320, 2e-301, 0.5, -0.0, 1e5, 3e-310, -7.5e-17]]
    assert rows == [",".join(f"{x + 0.0:.12e}" for x in row) for row in expected]
    assert rows[0].split(",")[-2:] == ["0.000000000000e+00", "-4.940656458412e-324"]


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_verify_admissible_state_passes(capsys, name):
    code, out, err = run(capsys, "verify", *builtin_args(name),
                         "--rho0", ADMISSIBLE_SPEC[name], *SHORT_GRID)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.splitlines()[-1] == "verdict: PASS"


@pytest.mark.parametrize("name", ["cascade3", "lambda3", "cascade4"])
def test_inadmissible_state_is_refused_unless_forced(capsys, name):
    level = CLASSIFICATION[name][1]
    args = ["verify", *builtin_args(name), "--rho0", f"pure:{level}", *SHORT_GRID]
    code, out, err = run(capsys, *args)
    assert (code, out) == (cli.EXIT_INADMISSIBLE, "")
    assert err == (f"error: initial state is inadmissible: admissible states satisfy "
                   f"rho_{level}{level} = 0; rerun with --force to propagate anyway\n")

    code, out, err = run(capsys, *args, "--force")
    assert code == cli.EXIT_VERIFY
    assert out.splitlines()[-1] == "verdict: FAIL"
    assert err.startswith("warning: initial state is outside the admissible subspace")


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def model_file(path, rate):
    return write_json(path, {"dimension": 3,
                             "jumps": [{"from": 3, "to": 2, "rate": rate}]})


def model_doc(path, **fields):
    """A 3-level model file with one 3 -> 2 jump, `fields` replaced."""
    return write_json(path, {"dimension": 3,
                             "jumps": [{"from": 3, "to": 2, "rate": "1"}], **fields})


INF, NAN = float("inf"), float("nan")  # json writes Infinity and NaN


# Each case once ended in a traceback, a leaked warning or an unexplained
# verdict; the argv builders take a scratch directory.
DEFECTS = {
    "verify-one-step": (
        lambda tmp: ["verify", "--builtin", "cascade3", "--rho0", "pure:1",
                     "--steps", "1"],
        "--steps must be >= 2"),
    "coherence-out-of-range": (
        lambda tmp: ["solve", "--builtin", "cascade3", "--rho0", "pure:1",
                     "--coherences", "1,7"],
        "levels (1, 7) outside 1..3"),
    "state-file-bad-entry": (
        lambda tmp: ["solve", "--builtin", "cascade3", "--rho0", "file:" + write_json(
            tmp / "rho.json", {"matrix": [[[1, 0, 0], 0, 0], [0, 0, 0], [0, 0, 0]]})],
        "state file: matrix entries"),
    "state-file-bad-diagonal": (
        lambda tmp: ["solve", "--builtin", "cascade3", "--rho0",
                     "file:" + write_json(tmp / "rho.json", {"diagonal": 5})],
        "state file: diagonal"),
    "state-nan-trace": (
        lambda tmp: ["solve", "--builtin", "v3", "--rho0", "diag:nan,0.5,0.5"],
        "initial state trace is nan"),
    "model-file-negative-rate": (
        lambda tmp: ["verify", model_file(tmp / "m.json", "-1"), "--rho0", "pure:1"],
        "rate '-1' is negative"),
    "model-file-overflowing-rate": (
        lambda tmp: ["verify", model_file(tmp / "m.json", "exp(50*t)"),
                     "--rho0", "pure:1"],
        "rate 'exp(50*t)' is not finite"),
    "model-file-rate-negative-beyond-20": (
        lambda tmp: ["verify", model_file(tmp / "m.json", "25-t"),
                     "--rho0", "pure:2", "--t-max", "40"],
        "rate '25 - t' is negative at t=25.25"),
    "params-with-model-file": (
        lambda tmp: ["classify", model_file(tmp / "m.json", "1"),
                     "--params", "omega=7,bogus=3", "--json"],
        "model files bind their own"),
    "model-file-null-param": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", params={"w": None}, jumps=[
            {"from": 3, "to": 2, "rate": "w"}])],
        "params: 'w' must be a finite number"),
    "model-file-list-param": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", params={"w": [1]}, jumps=[
            {"from": 3, "to": 2, "rate": "w"}])],
        "params: 'w' must be a finite number"),
    "model-file-infinite-jump-entry": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", jumps=[
            {"matrix": [[0, INF, 0], [0, 0, 0], [0, 0, 0]], "rate": "1"}])],
        "jumps[0]: matrix entries must be finite"),
    "model-file-infinite-hamiltonian": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", hamiltonian={
            "matrix": [[INF, 0, 0], [0, 0, 0], [0, 0, 0]]})],
        "hamiltonian: matrix entries must be finite"),
    "model-file-nan-hamiltonian": (
        lambda tmp: ["classify", model_doc(tmp / "m.json",
                                           hamiltonian={"diagonal": [NAN, 0, 0]})],
        "hamiltonian: diagonal entries must be finite"),
    "model-file-fractional-dimension": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", dimension=2.7, jumps=[])],
        "invalid 'dimension'"),
    "model-file-fractional-level": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", jumps=[
            {"from": 1.5, "to": 2, "rate": "1"}])],
        "'from' and 'to' must be integer levels"),
    "model-file-boolean-entry": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", jumps=[
            {"matrix": [[0, 0, 0], [True, 0, 0], [0, 0, 0]], "rate": "1"}])],
        "jumps[0]: matrix entries must be finite"),
    "model-file-jumps-not-a-list": (
        lambda tmp: ["classify", model_doc(tmp / "m.json",
                                           jumps={"from": 3, "to": 2, "rate": "1"})],
        "'jumps' must be a list of jump objects"),
    "model-file-misspelt-key": (
        lambda tmp: ["classify", model_doc(tmp / "m.json",
                                           hamiltonain={"diagonal": [1, 0, 2]})],
        "top level: unknown key 'hamiltonain'"),
    "model-file-huge-dimension": (
        lambda tmp: ["classify", model_doc(tmp / "m.json", dimension=10**9)],
        "dimension must lie in 2..32"),
    "solve-huge-steps": (
        lambda tmp: ["solve", "--builtin", "v3", "--rho0", "pure:2",
                     "--steps", "100000000000"],
        "--steps must be at most 466033 for a 3-level model"),
    "verify-huge-steps": (
        lambda tmp: ["verify", "--builtin", "v3", "--rho0", "pure:2",
                     "--steps", "30000000"],
        "--steps must be at most 466033 for a 3-level model"),
    "params-nan": (
        lambda tmp: ["classify", "--builtin", "v3", "--params", "eps1=nan"],
        "params: 'eps1' must be a finite number"),
    "params-infinite": (
        lambda tmp: ["classify", "--builtin", "v3", "--params", "omega=inf"],
        "params: 'omega' must be a finite number"),
    "params-not-a-number": (
        lambda tmp: ["classify", "--builtin", "v3", "--params", "omega=abc"],
        "params: 'omega' must be a finite number"),
    "params-overflowing": (
        lambda tmp: ["classify", "--builtin", "v3", "--params", "omega=1e999"],
        "params: 'omega' must be a finite number"),
    "verify-nan-tol": (
        lambda tmp: ["verify", "--builtin", "v3", "--rho0", "pure:2", "--t-max", "2",
                     "--steps", "5", "--tol=nan"],
        "--tol must be positive and finite"),
    "verify-negative-tol": (
        lambda tmp: ["verify", "--builtin", "v3", "--rho0", "pure:2", "--t-max", "2",
                     "--steps", "5", "--tol=-1"],
        "--tol must be positive and finite"),
    "verify-infinite-tol": (
        lambda tmp: ["verify", "--builtin", "v3", "--rho0", "pure:2", "--t-max", "2",
                     "--steps", "5", "--tol=inf"],
        "--tol must be positive and finite"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(DEFECTS))
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, case):
    argv, message = DEFECTS[case]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    lambda tmp: ["solve", "--builtin", "lambda3", "--params", "f1=t-5,f2=exp(-t)",
                 "--rho0", "pure:1"],
    lambda tmp: ["verify", model_file(tmp / "m.json", "25-t"), "--rho0", "pure:2",
                 "--t-max", "40"],
], ids=["builtin-negative-rate", "model-file-rate-negative-beyond-20"])
def test_emit_model_writes_only_a_checked_model(capsys, tmp_path, argv):
    path = tmp_path / "emitted.json"
    code, out, err = run(capsys, *argv(tmp_path), "--emit-model", str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error: rate ") and "is negative" in err
    assert not path.exists()


@pytest.mark.parametrize("argv, window", [
    (lambda tmp: ["classify", "--builtin", "v3"], 20.0),
    (lambda tmp: ["solve", model_doc(tmp / "m.json", jumps=[
        {"from": 3, "to": 2, "rate": "sin(t)^2"}, {"from": 2, "to": 1, "rate": "exp(-t)"}]),
        "--rho0", "pure:1", "--t-max", "40", "--steps", "5"], 40.0),
], ids=["classify-builtin", "solve-model-file"])
def test_each_rate_is_checked_once_on_the_window(capsys, monkeypatch, tmp_path, argv, window):
    checks, generators = [], []
    check, assemble = model._check_rate, model.assemble

    def counting_check(rate, end):
        checks.append((format_expr(rate), end))
        return check(rate, end)

    def recording_assemble(*args):
        generators.append(assemble(*args))
        return generators[-1]

    monkeypatch.setattr(model, "_check_rate", counting_check)
    monkeypatch.setattr(model, "assemble", recording_assemble)
    code, _, err = run(capsys, *argv(tmp_path))
    assert (code, err) == (cli.EXIT_OK, "")
    assert len(checks) == 2 and len({rate for rate, _ in checks}) == 2
    assert [g.window for g in generators] == [window]
    assert [end for _, end in checks] == [window, window]


def test_coherences_are_checked_before_propagating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("propagated before checking --coherences")

    monkeypatch.setattr("lindblad_pc.solver.closed_form_blocks", refuse)
    code, out, err = run(capsys, "solve", "--builtin", "cascade3", "--rho0", "pure:1",
                         "--steps", "20000", "--coherences", "1,7")
    assert (code, out, err) == (cli.EXIT_PARSE, "", "error: levels (1, 7) outside 1..3\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["classify"], ["solve", "--rho0", "pure:1"]])
def test_overflowing_chain_exits_3_with_one_line(capsys, tmp_path, command):
    for rate in ("exp(30*t)", "1e200"):
        path = model_file(tmp_path / "m.json", rate)
        code, out, err = run(capsys, command[0], path, *command[1:])
        assert (code, out) == (cli.EXIT_NUMERIC, ""), rate
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert "overflows" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fields", [
    {"hamiltonian": {"diagonal": [1e308, -1e308, 0]}},
    {"jumps": [{"matrix": [[0, 1e200, 0], [0, 0, 0], [0, 0, 0]], "rate": "1"}]},
], ids=["hamiltonian", "jump"])
def test_overflowing_generator_exits_3_with_one_line(capsys, tmp_path, fields):
    code, out, err = run(capsys, "classify", model_doc(tmp_path / "m.json", **fields))
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert err == "numeric failure: the drift or a dissipator matrix overflows\n"


def test_oracle_work_is_bounded(capsys, tmp_path):
    path = model_file(tmp_path / "m.json", "exp(2*t)")
    code, out, err = run(capsys, "verify", path, "--rho0", "pure:3", "--force")
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: ODE oracle gave up after ")
    assert err.count("\n") == 1
    assert "right-hand-side evaluations at t=" in err


def test_oracle_step_size_underflow_exits_3(capsys, monkeypatch):
    # No rate expression jumps, so the oracle's rates are given one: from
    # t = 0.5 on, every rate is 1e10, and v3's jump from level 1 empties
    # the initial state at that rate. A step across the jump is too
    # inaccurate at any size down to the float spacing.
    rates = solver.rate_table

    def jumping(g, times):
        table = rates(g, times)
        table[times > 0.5, 1:] = 1e10
        return table

    monkeypatch.setattr(solver, "rate_table", jumping)
    code, out, err = run(capsys, "verify", *builtin_args("v3"), "--rho0", "pure:1")
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: ODE oracle step size fell below ")
    assert "at t=0.5 of 20" in err and err.count("\n") == 1


def test_quadrature_work_is_bounded(capsys, tmp_path):
    # exp(t^2/3) is at most e^133 on [0, 20], so the rate check passes.
    path = model_file(tmp_path / "m.json", "exp(t^2/3)")
    code, out, err = run(capsys, "classify", path)
    assert (code, out) == (cli.EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: quadrature did not converge on [")
    assert err.endswith(" within 100000 evaluations of the rate\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("t_max", ["1e4", "1e5"])
def test_solve_integrates_a_periodic_rate_over_a_long_window(capsys, tmp_path, t_max):
    # 3 -> 2 leaves level 2 alone, so p_2 = exp(-0.001 (t/8 - sin(4t)/32)),
    # the integral of a rate with no closed-form antiderivative
    path = write_json(tmp_path / "m.json", {"dimension": 3, "jumps": [
        {"from": 3, "to": 2, "rate": "0.5"},
        {"from": 2, "to": 1, "rate": "0.001*sin(t)^2*cos(t)^2"}]})
    code, out, err = run(capsys, "solve", path, "--rho0", "diag:0,1,0",
                         "--steps", "3", "--t-max", t_max)
    assert (code, err) == (0, "")
    for row in csv.DictReader(out.splitlines()):
        t = float(row["t"])
        exact = np.exp(-0.001 * (t / 8 - np.sin(4 * t) / 32))
        assert abs(float(row["p_2"]) - exact) <= 1e-9


@pytest.mark.parametrize("t_max", ["1e9", "1e308"])
def test_t_max_past_the_limit_exits_2_at_once(capsys, t_max):
    # 1e9 would sample each rate 4e9 times; 1e308 overflowed the count
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--builtin", "v3", "--rho0", "diag:1,0,0",
                         "--steps", "3", "--t-max", t_max)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (cli.EXIT_PARSE, "", "error: --t-max must be at most 1e+06\n")


def test_long_window_within_the_limit_verifies(capsys):
    code, out, err = run(capsys, "verify", "--builtin", "cascade4", "--t-max", "1e5",
                         "--rho0", "diag:1,0,0,0")
    assert (code, err) == (cli.EXIT_OK, "")
    assert out.endswith("verdict: PASS\n")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_emitted_model_classifies_like_the_builtin(capsys, tmp_path, name):
    path = str(tmp_path / "model.json")
    params = ",".join(f"{k}={v}" for k, v in {**MODEL_PARAMS[name], "omega": 3}.items())
    code, builtin_out, err = run(capsys, "classify", "--builtin", name,
                                 "--params", params, "--json", "--emit-model", path)
    assert (code, err) == (cli.EXIT_OK, "")
    code, file_out, err = run(capsys, "classify", path, "--json")
    assert (code, err) == (cli.EXIT_OK, "")
    assert file_out == builtin_out


def test_many_jumps_classify_in_bounded_memory(tmp_path):
    # 300 level transitions on d = 32: stored as dense parts they took
    # 16 MiB each, 4.7 GiB in all, and ran out of a 1 GiB address space
    d = 32
    pairs = [(i, j) for i in range(1, d + 1) for j in range(1, d + 1) if i != j][:300]
    rates = ("0.1", "0.05*sin(t)^2", "0.02*exp(-t)")
    path = write_json(tmp_path / "m.json", {
        "dimension": d, "hamiltonian": {"diagonal": [0.5 * k for k in range(d)]},
        "jumps": [{"from": i, "to": j, "rate": rates[k % 3]} for k, (i, j) in enumerate(pairs)]})
    done = run_capped_cli("classify", path, "--json")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["ambient_dim"] == d * d


class TestSolveInRowBlocks:
    """`solve` takes the closed form, the observables and the CSV text one
    row block at a time (one slab of `expm` work), and writes the text once
    the last block has passed."""

    @staticmethod
    def argv(tmp_path, steps):
        """The d = 6 solve of the quadrature-solve benchmark workload (seed
        1: 1500 points on [0, 40], two coherences, to CSV), at `steps`."""
        ops = workloads.build("quadrature-solve", 1, tmp_path)
        argv = list(next(op for op in ops if op.command == "solve" and op.dim == 6).argv)
        argv[argv.index("--steps") + 1] = str(steps)
        return argv

    @staticmethod
    def blocks_of(rows, argv, monkeypatch, frechet=False):
        """Set linalg.SLAB_BYTES to the least budget that gives this solve
        (or, with `frechet`, this verify) row blocks of `rows` points; the
        row blocks do not depend on the window."""
        g = model.assemble(cli._load_model(cli.build_parser().parse_args(argv))[0])
        low, high = 0, 2**40
        while high - low > 1:
            mid = (low + high) // 2
            monkeypatch.setattr(linalg, "SLAB_BYTES", mid)
            if solver._row_blocks(g, rows + 1, frechet)[0].stop >= rows:
                high = mid
            else:
                low = mid
        monkeypatch.setattr(linalg, "SLAB_BYTES", high)
        assert solver._row_blocks(g, rows + 1, frechet)[0].stop == rows
        return len(g.groups)

    def test_memory_does_not_grow_with_the_steps(self, tmp_path, capsys):
        # The whole trajectory and its observables took about 1.9 KB per
        # grid point. What is left grows by about 250 B of CSV text and
        # 64 B of coefficient table, grid and rounding bound per point.
        assert cli.main(self.argv(tmp_path, 2)) == cli.EXIT_OK  # imports, first calls
        peaks = []
        for steps in (1500, 24000):
            argv = self.argv(tmp_path, steps)
            tracemalloc.start()
            try:
                assert cli.main(argv) == cli.EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr().err == ""
        assert (peaks[1] - peaks[0]) / (24000 - 1500) <= 512

    @pytest.mark.parametrize("rows", [1, 7, 455])
    def test_csv_does_not_depend_on_the_row_blocks(self, tmp_path, capsys, monkeypatch, rows):
        argv = self.argv(tmp_path, 1000)
        out = Path(argv[argv.index("--out") + 1])
        assert cli.main(argv) == cli.EXIT_OK
        whole = out.read_bytes()
        self.blocks_of(1000, argv, monkeypatch)
        assert cli.main(argv) == cli.EXIT_OK
        assert out.read_bytes() == whole  # one block
        self.blocks_of(rows, argv, monkeypatch)
        assert cli.main(argv) == cli.EXIT_OK
        assert out.read_bytes() == whole
        lines = whole.decode().splitlines()
        assert len(lines) == 1 + 1000 and lines[0].startswith("t,p_1,")
        assert [line.split(",")[0] for line in lines[1:]] == [
            f"{t:.12e}" for t in np.linspace(0.0, 40.0, 1000)]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("negated, overflow, code, message", [
        (False, True, cli.EXIT_NUMERIC, "numeric failure: the matrix exponential overflows\n"),
        (True, False, cli.EXIT_PARSE, "error: state has eigenvalue -"),
        (True, True, cli.EXIT_NUMERIC, "numeric failure: the matrix exponential overflows\n"),
    ], ids=["overflow", "spectrum", "spectrum-then-overflow"])
    def test_a_failed_block_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                           negated, overflow, code, message):
        # The first row block's states negated, so that its spectrum check
        # fails; the first stack of the second row block overflowing; or
        # both. A non-finite state fails the run first, wherever it is on
        # the grid, as when the whole grid went through the closed form
        # before the observables.
        argv = self.argv(tmp_path, 1000)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text("kept\n")
        groups = self.blocks_of(7, argv, monkeypatch)
        expm, calls = solver.expm, []

        def failing(a):
            calls.append(a.shape)
            if overflow and len(calls) > groups:
                raise NonFiniteError("the matrix exponential overflows")
            return -expm(a) if negated and len(calls) <= groups else expm(a)

        monkeypatch.setattr(solver, "expm", failing)
        for argv in (argv, argv[:argv.index("--out")]):
            calls.clear()
            done = run(capsys, *argv)
            assert done[:2] == (code, "")
            assert done[2].startswith(message) and done[2].count("\n") == 1
            # the closed form stops at an overflow, and only there
            assert len(calls) == (groups + 1 if overflow else groups * -(-1000 // 7))
        assert out.read_text() == "kept\n"


class TestVerifyInRowBlocks:
    """`verify` goes through the grid once, one row block at a time: the
    closed form with its flow residual (`solver.flow_blocks`), then the
    oracle's dense output on the same points (`solver.oracle_blocks`),
    keeping only the running maxima of the distance and the residual."""

    @staticmethod
    def argv(tmp_path, steps):
        """The d = 6 verify of the quadrature-solve benchmark workload (seed
        1, on [0, 20]), at `steps` points."""
        ops = workloads.build("quadrature-solve", 1, tmp_path)
        op = next(op for op in ops if op.command == "verify" and op.dim == 6)
        return [*op.argv, "--steps", str(steps)]

    def test_memory_does_not_grow_with_the_steps(self, tmp_path, capsys):
        # Three passes over whole trajectories took about 1.7 KB per grid
        # point. What is left grows by the coefficient and rate tables, the
        # grid and the rounding bound, about 112 B per point.
        assert cli.main(self.argv(tmp_path, 2)) == cli.EXIT_OK  # imports, first calls
        peaks = []
        for steps in (1500, 24000):
            argv = self.argv(tmp_path, steps)
            tracemalloc.start()
            try:
                assert cli.main(argv) == cli.EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert capsys.readouterr().err == ""
        assert (peaks[1] - peaks[0]) / (24000 - 1500) <= 256

    def test_output_does_not_depend_on_the_row_blocks(self, tmp_path, capsys, monkeypatch):
        argv = self.argv(tmp_path, 400)
        loaded, _ = modelfile.load_model(argv[1])
        g = model.assemble(loaded)
        rho0 = cli._parse_rho0(argv[argv.index("--rho0") + 1], g.dim)
        grid = np.linspace(0.0, model.HORIZON, 400)
        printed = {}
        for rows in (400, 7, 1):
            TestSolveInRowBlocks.blocks_of(rows, argv, monkeypatch, frechet=True)
            printed[rows] = run(capsys, *argv)
            blocks = list(solver.oracle_blocks(g, rho0, grid))
            assert [block.times.size for block in blocks][:-1] == [rows] * (len(blocks) - 1)
            if rows == 400:
                whole = solver.ode_oracle(g, rho0, grid)
            else:
                # some step's dense output runs across the end of a row block
                assert len({block.rhs_calls for block in blocks}) < len(blocks)
            assert np.array_equal(np.concatenate([block.states for block in blocks]),
                                  whole.states)
            assert blocks[-1].rhs_calls == whole.rhs_calls
        assert printed[400][0] == cli.EXIT_OK and printed[400][2] == ""
        assert printed[7] == printed[1] == printed[400]

    @pytest.mark.parametrize("failing_block, message", [
        (1, "numeric failure: the matrix exponential overflows\n"),
        (2, "numeric failure: ODE oracle step size fell below "),
    ], ids=["closed-form-first", "oracle-first"])
    def test_the_failure_in_the_earlier_row_block_is_reported(self, capsys, monkeypatch,
                                                              failing_block, message):
        # From t = 0.5 on every rate is 1e10, as in
        # test_oracle_step_size_underflow_exits_3, so the oracle fails in
        # the second row block of 7 points (t = 0.35..0.65); the closed form
        # fails in row block `failing_block` (v3 has one group with b > 1).
        argv = ["verify", *builtin_args("v3"), "--rho0", "pure:1"]
        TestSolveInRowBlocks.blocks_of(7, argv, monkeypatch, frechet=True)
        rates, expm_frechet, calls = solver.rate_table, solver.expm_frechet, []

        def jumping(g, times):
            table = rates(g, times)
            table[times > 0.5, 1:] = 1e10
            return table

        def failing(a, e):
            calls.append(a.shape)
            if len(calls) > failing_block:
                raise NonFiniteError("the matrix exponential overflows")
            return expm_frechet(a, e)

        monkeypatch.setattr(solver, "rate_table", jumping)
        monkeypatch.setattr(solver, "expm_frechet", failing)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err.startswith(message) and err.count("\n") == 1
        assert calls[0][1:] == (1, 3, 3)

