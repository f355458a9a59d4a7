"""Every closed-form pattern of `expr.antiderivative` against sympy.

Each rate is drawn with |a| in [0.1, 3], written as text, and read both
by `parse_rate_expr` and by sympy, with the drawn floats as exact
rationals; sympy's definite integral from 0 is evaluated at 30 digits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lindblad_pc import ClosedFormAntiderivative, antiderivative, parse_rate_expr

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

# The rate of each pattern, in t and the drawn a, b, c and n.
PATTERNS = {
    "constant": "c",
    "power": "c*t^{n}",
    "scaled-power": "(a*t)^{n}",
    "sin": "c*sin(a*t + b)",
    "cos": "c*cos(a*t + b)",
    "sin-squared": "sin(a*t)^2",
    "cos-squared": "cos(a*t)^2",
    "exp": "exp(a*t + b)",
    "affine": "a*t + b",
}
GRID = np.linspace(0.0, 40.0, 81)


def sympy_integral(text, params):
    """T -> int_0^T of the rate, as a function of an mpmath number T."""
    t, T = sympy.symbols("t T")
    names = {"t": t, **{k: sympy.Rational(v) for k, v in params.items()}}
    rate = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
    return sympy.lambdify(T, sympy.integrate(rate, (t, 0, T)), "mpmath")


@pytest.mark.parametrize("pattern", PATTERNS)
@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.1, 3.0), sign=st.sampled_from([-1.0, 1.0]), b=st.floats(-3.0, 3.0),
       c=st.floats(-2.0, 2.0), n=st.integers(2, 6))
def test_closed_form_matches_sympy(pattern, a, sign, b, c, n):
    text = PATTERNS[pattern].format(n=n)
    params = {"a": sign * a, "b": b, "c": c}
    F = antiderivative(parse_rate_expr(text, params), GRID[-1])
    assert isinstance(F, ClosedFormAntiderivative)
    exact = sympy_integral(text, params)
    values = F.values(GRID)
    with mpmath.workdps(30):
        expected = np.array([float(exact(mpmath.mpf(x))) for x in GRID])
    assert np.all(np.abs(values - expected) <= 1e-12 * (1 + np.abs(expected)))
