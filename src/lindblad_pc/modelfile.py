"""JSON model files.

Schema::

    {
      "dimension": 3,
      "hamiltonian": {"diagonal": [1.0, 0.0, 2.0]}          # or {"matrix": ...}
      "jumps": [
        {"from": 1, "to": 2, "rate": "sin(w*t)^2"},          # E_{to,from}
        {"matrix": [[[0,0],[1,0]],[[0,0],[0,0]]], "rate": "1"}
      ],
      "params": {"w": 1.0},                                  # bound into rates
      "initial_state": {"diagonal": [0.5, 0.5, 0.0]}         # optional
    }

Matrices are lists of rows; each entry is [re, im] (a bare number is
accepted as a real entry). Levels are 1-based. Numbers must be finite,
and the dimension and levels JSON integers; true and false are not
numbers. Only the keys above are read, and any other key is refused
(a misspelt "hamiltonian" would otherwise leave H = 0), as is an
operator with both "diagonal" and "matrix", or a jump with both levels
and a "matrix". An --rho0 state file is one operator object.

The loader checks the schema only: `model.assemble` checks that H is
Hermitian and every rate finite and nonnegative, on the run's window.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ModelFileError
from .expr import format_expr, parse_rate_expr
from .model import Jump, LindbladModel, jump_operator

__all__ = ["load_model", "loads_model", "model_to_dict", "dump_model"]

# The generator of a d-level model is a d^2 x d^2 complex matrix, 16 MiB
# at d = 32; a larger dimension is refused before anything is allocated.
MAX_DIMENSION = 32

# The keys of the schema above, by object.
MODEL_KEYS = ("dimension", "hamiltonian", "jumps", "params", "initial_state")
OPERATOR_KEYS = ("diagonal", "matrix")
JUMP_KEYS = ("from", "to", "matrix", "rate")


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_entry(entry, where):
    if _is_real(entry):
        return complex(entry)
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(_is_real(x) for x in entry)):
        return complex(entry[0], entry[1])
    raise ModelFileError(
        f"{where}: matrix entries must be finite numbers or [re, im] pairs")


def _parse_matrix(obj, d, where):
    if not isinstance(obj, list) or len(obj) != d:
        raise ModelFileError(f"{where}: expected {d} rows")
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ModelFileError(f"{where}: row {i + 1} must have {d} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, where)
    return out


def _check_keys(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise ModelFileError(
                f"{where}: unknown key {key!r}; allowed: {', '.join(allowed)}")


def _parse_operator(obj, d, where):
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where}: expected an object")
    _check_keys(obj, OPERATOR_KEYS, where)
    if "diagonal" in obj and "matrix" in obj:
        raise ModelFileError(f"{where}: give either 'diagonal' or 'matrix', not both")
    if "diagonal" in obj:
        diag = obj["diagonal"]
        if not isinstance(diag, list) or len(diag) != d:
            raise ModelFileError(f"{where}: diagonal must list {d} reals")
        if not all(_is_real(x) for x in diag):
            raise ModelFileError(
                f"{where}: diagonal entries must be finite real numbers")
        return np.diag([float(x) for x in diag]).astype(complex)
    if "matrix" in obj:
        return _parse_matrix(obj["matrix"], d, where)
    raise ModelFileError(f"{where}: needs a 'diagonal' or 'matrix' field")


def loads_model(text):
    """Parse model JSON text; returns (model, initial_state or None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc}") from exc
    return _from_dict(doc)


def load_model(path):
    """Load a model file; returns (model, initial_state or None)."""
    with open(path, encoding="utf-8") as fh:
        return loads_model(fh.read())


def _from_dict(doc):
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be a JSON object")
    _check_keys(doc, MODEL_KEYS, "top level")
    d = doc.get("dimension")
    if not _is_integer(d):
        raise ModelFileError("missing or invalid 'dimension': expected an integer")
    if not 2 <= d <= MAX_DIMENSION:
        raise ModelFileError(f"dimension must lie in 2..{MAX_DIMENSION}, got {d}")

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ModelFileError("'params' must be an object")
    for name, value in params.items():
        if not _is_real(value):
            raise ModelFileError(f"params: {name!r} must be a finite number")

    hamiltonian = _parse_operator(doc.get("hamiltonian", {"diagonal": [0.0] * d}),
                                  d, "hamiltonian")

    specs = doc.get("jumps", [])
    if not isinstance(specs, list):
        raise ModelFileError("'jumps' must be a list of jump objects")
    jumps = []
    for k, spec in enumerate(specs):
        where = f"jumps[{k}]"
        if not isinstance(spec, dict):
            raise ModelFileError(f"{where}: a jump must be an object")
        if "rate" not in spec:
            raise ModelFileError(f"{where}: needs a 'rate' expression string")
        _check_keys(spec, JUMP_KEYS, where)
        rate = parse_rate_expr(str(spec["rate"]), params)
        if ("from" in spec or "to" in spec) and "matrix" in spec:
            raise ModelFileError(
                f"{where}: give either 'from'/'to' levels or a 'matrix', not both")
        if "from" in spec or "to" in spec:
            source, target = spec.get("from"), spec.get("to")
            if not (_is_integer(source) and _is_integer(target)):
                raise ModelFileError(f"{where}: 'from' and 'to' must be integer levels")
            if not (1 <= source <= d and 1 <= target <= d):
                raise ModelFileError(f"{where}: levels must lie in 1..{d}")
            jumps.append(Jump(jump_operator(d, target, source), rate, source, target))
        elif "matrix" in spec:
            jumps.append(Jump(_parse_matrix(spec["matrix"], d, where), rate))
        else:
            raise ModelFileError(f"{where}: needs 'from'/'to' levels or a 'matrix'")

    initial_state = None
    if "initial_state" in doc:
        initial_state = _parse_operator(doc["initial_state"], d, "initial_state")
    return LindbladModel(d, hamiltonian, jumps), initial_state


def _matrix_json(m):
    return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def _operator_json(m):
    if np.max(np.abs(m - np.diag(np.diagonal(m)))) == 0.0 \
            and np.max(np.abs(np.imag(np.diagonal(m)))) == 0.0:
        return {"diagonal": [float(x.real) for x in np.diagonal(m)]}
    return {"matrix": _matrix_json(m)}


def model_to_dict(model, initial_state=None):
    """Serialize a model (parameters already bound into the rates)."""
    doc = {
        "dimension": model.dim,
        "hamiltonian": _operator_json(np.asarray(model.hamiltonian, dtype=complex)),
        "jumps": [],
        "params": {},
    }
    for jump in model.jumps:
        entry = {"rate": format_expr(jump.rate)}
        if jump.source is not None and jump.target is not None:
            entry = {"from": jump.source, "to": jump.target, **entry}
        else:
            entry = {"matrix": _matrix_json(np.asarray(jump.operator, dtype=complex)),
                     **entry}
        doc["jumps"].append(entry)
    if initial_state is not None:
        doc["initial_state"] = _operator_json(np.asarray(initial_state, dtype=complex))
    return doc


def dump_model(model, path, initial_state=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model, initial_state), fh, indent=2)
        fh.write("\n")
