"""Closed-form dynamics of time-dependent Lindblad master equations.

When the vectorized generator L(t) commutes with itself across times,
with its integral B(t), or at least with the powers of B(t) on a
subspace of initial vectors (partial commutativity), the solution is
exp(B(t)) applied to the vectorized initial state. This package
classifies generators by those criteria, computes the admissible
subspace, propagates states in closed form, and checks every trajectory
against an independent Runge-Kutta integration of the same equation.

Importing the package loads none of its modules, and so no numpy: each
public name, and each submodule below, is imported on first access
(PEP 562). The command-line entry point, `lindblad_pc.__main__.main`,
relies on that to set numpy's BLAS to one thread before numpy loads.
"""

import importlib

# Submodule -> the public names it defines, in the order they load.
_EXPORTS = {
    "errors": (
        "DimensionMismatchError", "ExprSyntaxError", "GridMismatchError",
        "IndexOutOfRangeError", "LindbladError", "ModelFileError", "NonFiniteError",
        "NotADensityMatrixError", "StepSizeUnderflowError", "UnboundParameterError",
        "UnknownModelError",
    ),
    "expr": (
        "Antiderivative", "ClosedFormAntiderivative", "QuadratureAntiderivative",
        "RateExpr", "antiderivative", "eval_expr", "format_expr", "parse_rate_expr",
    ),
    "linalg": (
        "SubspaceBasis", "commutator", "minimal_poly_degree", "null_space", "unvec", "vec",
    ),
    "model": (
        "GeneratorDecomposition", "Jump", "LindbladModel", "assemble", "builtin",
        "builtin_names", "generator_at", "integral_at", "jump_operator", "phase_state",
    ),
    "commutativity": (
        "CommutativityReport", "admissible", "classify", "default_sample_times",
        "excluded_coordinate", "functional_commutativity", "gamma_operator",
        "integral_commutativity", "partial_subspace",
    ),
    "exponential": ("expm",),
    "solver": (
        "Trajectory", "compare", "fedorov_residual", "ode_oracle",
        "propagate_closed_form", "trace_distance",
    ),
    "dop853": (),
    "observables": (
        "ObservableSeries", "coherence", "entropy", "observable_series",
        "populations", "purity",
    ),
    "modelfile": ("dump_model", "load_model", "loads_model", "model_to_dict"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
