"""Seeded workloads of the lindblad-pc benchmark.

A workload turns a seed into model files and a list of CLI invocations,
each with the outcome the checker requires. The program receives only
those files and arguments. The same seed always writes byte-identical
files and the same invocations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the outcome it must have."""

    command: str                       # classify | solve | verify | --help
    args: tuple[str, ...]              # arguments after the subcommand
    exit_code: int                     # the exit code the checker requires
    dim: int = 0                       # d of the model (0 for --help)
    rank: int | None = None            # exact rank of M classify must report
    excluded_level: int | None = None  # level classify must report excluded
    csv: str | None = None             # solve: output file
    steps: int | None = None           # solve: grid points, one row each

    @property
    def argv(self):
        return (self.command, *self.args)


HELP = Op("--help", (), 0)

# The test suite's parameter sets, with the rank of M and the excluded
# level that the tests pin for each built-in.
BUILTINS = {
    "v3": ("eps1=1,eps3=2", 3, 9, None),
    "cascade3": ("eps=1", 3, 8, 3),
    "lambda3": ("eps1=1,eps3=2", 3, 8, 2),
    "cascade4": ("eps1=1,eps2=2", 4, 15, 4),
}

_THIRD = repr(1.0 / 3.0)
_PI = repr(math.pi)
_HALF_PI = repr(math.pi / 2)

# The test suite's admissible state banks, written as --rho0 specs.
BANKS = {
    "v3": [
        "diag:1,0,0", "diag:0,1,0", "diag:0,0,1", "diag:0.5,0,0.5",
        "diag:0.3,0.4,0.3", f"diag:{_THIRD},{_THIRD},{_THIRD}",
        f"phase:1,3;{_PI}", f"phase:1,3;{_HALF_PI}", "phase:1,2;0.7",
        "phase:1,2,3;0.5,1.0",
    ],
    "cascade3": [
        "diag:0,1,0", "diag:1,0,0", "diag:0.25,0.75,0", "diag:0.5,0.5,0",
        "diag:0.75,0.25,0", "diag:0.9,0.1,0", f"phase:1,2;{_PI}",
        f"phase:1,2;{_HALF_PI}", "phase:1,2;0.0", "phase:1,2;2.0",
    ],
    "lambda3": [
        "diag:1,0,0", "diag:0,0,1", "diag:0.25,0,0.75", "diag:0.5,0,0.5",
        "diag:0.75,0,0.25", f"phase:1,3;{_PI}", f"phase:1,3;{_HALF_PI}",
        "phase:1,3;0.0", "phase:1,3;1.2", "phase:1,3;2.5",
    ],
    "cascade4": [
        "diag:1,0,0,0", "diag:0,1,0,0", "diag:0,0,1,0",
        f"diag:0,{_THIRD},{repr(2.0 / 3.0)},0", "diag:0.2,0.3,0.5,0",
        f"diag:{_THIRD},{_THIRD},{_THIRD},0", f"phase:1,2,3;{_PI},0.0",
        f"phase:1,2,3;{_HALF_PI},1.0", f"phase:1,2;{_PI}", "phase:1,2;0.8",
    ],
}

# Rates that have no closed-form antiderivative, so they need quadrature.
QUADRATURE_RATES = ("1/(1 + {a}*t^2)", "t*exp(-{a}*t)",
                    "exp(-{a}*t)*sin({w}*t)^2")

SOLVE_STEPS = 400         # the CLI's default grid, written out
LONG_T_MAX = "40"
LONG_STEPS = 1500


def _num(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _phase_spec(rng):
    return f"phase:1,2;{_num(rng, 0.0, 2.0 * math.pi)!r}"


def _inadmissible_spec(rng, d, level):
    """A diagonal state with a weight of 0.3 to 0.6 on the excluded level."""
    weights = [_num(rng, 0.1, 1.0) for _ in range(d - 1)]
    bad = _num(rng, 0.3, 0.6)
    scale = (1.0 - bad) / sum(weights)
    diag = [round(w * scale, 6) for w in weights]
    diag.insert(level - 1, round(1.0 - sum(diag), 6))
    return "diag:" + ",".join(repr(x) for x in diag)


def cascade_model(d, rng, rates):
    """A d-level cascade: level k+1 decays to k at rate template k - 1 of
    `rates`, taken in turn.

    The seed draws the numbers, not the structure: the levels form a
    ladder with spacing 0.5 and a jitter of up to 0.1, and each rate's
    frequency and decay constant come from [0.8, 1.2]. That keeps the cost
    of a model, and the rank of M, the same across seeds.
    """
    energies = [round(0.5 * (k - (d - 1) / 2) + rng.uniform(-0.1, 0.1), 6)
                for k in range(d)]
    jumps = []
    for k in range(1, d):
        template = rates[(k - 1) % len(rates)]
        rate = template.format(a=_num(rng, 0.8, 1.2), w=_num(rng, 0.8, 1.2))
        jumps.append({"from": k + 1, "to": k, "rate": rate})
    return {"dimension": d, "hamiltonian": {"diagonal": energies}, "jumps": jumps}


def _write_model(doc, path):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def paper_cli(seed, inputs, outputs):
    """The four built-ins with the test suite's parameter sets.

    Each gets `classify --json`, a `solve` to CSV with coherences and a
    `verify` of a seeded state from its admissible bank. Each model with
    an excluded level also gets two negative controls: an inadmissible
    state, which must be refused with exit 4, and the same state with
    `--force`, which must FAIL with exit 5.

    Why: mu <= 16, so each 0.8-1.4 s process is mostly interpreter start
    and package import. Import and set-up gains show here, and
    large-matrix work (threads, blocking) should leave it flat.
    """
    rng = random.Random(f"paper-cli:{seed}")
    ops = []
    for name, (params, d, rank, level) in BUILTINS.items():
        model = ("--builtin", name, "--params", params)
        i, j = rng.sample(range(1, d + 1), 2)
        csv = str(outputs / f"{name}.csv")
        ops.append(Op("classify", (*model, "--json"), 0, d, rank, level))
        ops.append(Op("solve", (*model, "--rho0", rng.choice(BANKS[name]),
                                "--steps", str(SOLVE_STEPS),
                                "--coherences", f"{i},{j}", "--out", csv),
                      0, d, csv=csv, steps=SOLVE_STEPS))
        ops.append(Op("verify", (*model, "--rho0", rng.choice(BANKS[name])), 0, d))
        if level is not None:
            bad = _inadmissible_spec(rng, d, level)
            ops.append(Op("verify", (*model, "--rho0", bad), 4, d))
            ops.append(Op("verify", (*model, "--rho0", bad, "--force"), 5, d))
    return ops


def quadrature_solve(seed, inputs, outputs):
    """Seeded d = 3, 4, 6 cascades whose rates have no closed-form
    antiderivative.

    Each model gets `classify --json`, a long, dense `solve` (t_max 40 on
    1500 points) with two coherences written to CSV, and a default-grid
    `verify` of an admissible state as the correctness check.

    Why: the solver is used differently here, writing output with no
    oracle and no certificate, and it is the only workload where `expr`
    does real work. It catches a change that moves certificate cost into
    `solve`, or that speeds up `verify` at the cost of `solve`. Its d = 6
    model (mu = 36) is also where dense linear algebra shows: the Gamma
    chain and re-check of `classify`, the flow residual and oracle of
    `verify`.
    """
    rng = random.Random(f"quadrature-solve:{seed}")
    ops = []
    for d in (3, 4, 6):
        path = _write_model(cascade_model(d, rng, QUADRATURE_RATES),
                            inputs / f"quadrature{d}.json")
        phase = _phase_spec(rng)
        csv = str(outputs / f"quadrature{d}.csv")
        ops.append(Op("classify", (path, "--json"), 0, d))
        ops.append(Op("solve", (path, "--rho0", phase, "--t-max", LONG_T_MAX,
                                "--steps", str(LONG_STEPS),
                                "--coherences", "1,2", "2,3", "--out", csv),
                      0, d, csv=csv, steps=LONG_STEPS))
        ops.append(Op("verify", (path, "--rho0", phase), 0, d))
    return ops


WORKLOADS = {
    "paper-cli": paper_cli,
    "quadrature-solve": quadrature_solve,
}


def build(name, seed, workdir):
    """Write the workload's inputs under `workdir`; returns its invocations."""
    inputs = Path(workdir) / "inputs"
    outputs = Path(workdir) / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, inputs, outputs)
