"""Scan seeded random models for differences between the admissibility
gate and its dense definition.

    python tools/gate_scan.py SRC [--draws N] [--seed S]

Imports `lindblad_pc` from the package source directory SRC (run one
process per tree) and draws N models the way `tests/test_blocks.py::models`
draws them: d = 2..5, a diagonal H or one off-diagonal coupling, and up to
three jumps, level transitions or dense operators, at closed-form and
quadrature rates. Draw i is seeded by (S, i) alone. For each it compares
`partial_subspace` with M by the dense mu x mu definition, as
`tests/test_blocks.py::dense_gate` takes it: the power cap from the
minimal polynomial of the whole B(t), Gamma summed over the sample times,
and `null_space`. It prints each draw whose ranks differ, the number of
draws whose projectors differ by more than 1e-12 (the bound of
`TestGateAgainstDense`), and the worst difference with its draw.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

# the rate templates of tests/test_blocks.py, closed-form then quadrature
RATES = ("sin({w}*t)^2", "cos({w}*t)^2", "exp(-{a}*t)", "{a}",
         "1/(1 + {a}*t^2)", "t*exp(-{a}*t)")
BOUND = 1e-12


def draw(seed, i):
    """(model, description) of draw i."""
    import numpy as np
    from lindblad_pc import LindbladModel, jump_operator, parse_rate_expr
    from lindblad_pc.model import Jump

    r = random.Random(f"{seed}:{i}")
    d = r.randint(2, 5)
    rng = np.random.default_rng(r.getrandbits(32))
    h = np.diag(rng.uniform(-1.0, 1.0, size=d)).astype(complex)
    coupling = ""
    if r.random() < 0.5:  # one off-diagonal coupling
        a, b = rng.choice(d, size=2, replace=False)
        h[a, b] = complex(*rng.normal(size=2)) / 2
        h[b, a] = np.conj(h[a, b])
        coupling = f", H_{a + 1}{b + 1} = {h[a, b]:.3g}"
    jumps, rates = [], []
    for _ in range(r.randint(0, 3)):
        if r.random() < 0.5:  # level transition
            source, target = (int(k) + 1 for k in rng.choice(d, size=2, replace=False))
            operator, kind = jump_operator(d, target, source), f"{source}->{target}"
        else:
            operator, kind = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d, "dense"
        rate = r.choice(RATES).format(a=round(rng.uniform(0.5, 1.5), 3),
                                      w=round(rng.uniform(0.5, 1.5), 3))
        jumps.append(Jump(operator, parse_rate_expr(rate)))
        rates.append(f"{kind} at {rate}")
    return LindbladModel(d, h, jumps), f"d={d}{coupling}, jumps: {'; '.join(rates) or 'none'}"


def dense_gate(g):
    """M by the dense mu x mu definition."""
    import numpy as np
    from lindblad_pc import (commutator, default_sample_times, generator_at, integral_at,
                             minimal_poly_degree, null_space)

    times = default_sample_times()
    degree = max(minimal_poly_degree(integral_at(g, t)) for t in times)
    cap = max(1, min(g.mu - 1, degree - 1))
    total = np.zeros((g.mu, g.mu), dtype=complex)
    for t in times:
        gen, b = generator_at(g, t), integral_at(g, t)
        power = np.eye(g.mu, dtype=complex)
        for _ in range(cap):
            power = power @ b
            norm = np.linalg.norm(power)
            if norm > 0.0:
                c = commutator(gen, power) / norm
                total += c.conj().T @ c
    return null_space(0.5 * (total + total.conj().T))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the package source directory to import lindblad_pc from")
    parser.add_argument("--draws", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy as np
    from lindblad_pc import assemble, partial_subspace

    mismatches, over, worst, worst_draw = 0, 0, 0.0, None
    for i in range(args.draws):
        loaded, description = draw(args.seed, i)
        g = assemble(loaded)
        expected, sub = dense_gate(g), partial_subspace(g)
        if sub.rank != expected.rank:
            mismatches += 1
            print(f"draw {i}: rank {sub.rank}, dense {expected.rank} ({description})")
        diff = float(np.abs(sub.projector() - expected.projector()).max())
        over += diff > BOUND
        if diff > worst:
            worst, worst_draw = diff, f"draw {i} ({description})"
    print(f"{args.draws} draws at seed {args.seed}: {mismatches} rank mismatches, "
          f"{over} projector differences over {BOUND:g}; worst {worst:.2g} at {worst_draw}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
