"""Scalar rate expressions: parsing, evaluation, antidifferentiation.

Relaxation rates enter the generator as scalar functions of time, so
integrating the full generator matrix reduces to integrating scalars.
This module parses a small expression grammar into an immutable AST,
evaluates it at an array of times, and produces antiderivatives: in
closed form when the expression matches a table of elementary patterns,
otherwise through Gauss-Legendre quadrature that integrates all pieces
of a run's window at once, in array evaluations.

All of it has one arithmetic, numpy's: a single time is evaluated as an
array of one, a folded literal is the value of the subtree it replaces,
and the constants of a closed form are the values of its terms at t = 0,
so the closed forms vanish there exactly.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | name | 't' | '(' expr ')'
            | ('sin'|'cos'|'exp') '(' expr ')' | '-' base

Parameter names are substituted as literals at parse time, so a parsed
expression depends on `t` alone.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

from .errors import ExprSyntaxError, NonFiniteError, UnboundParameterError

__all__ = [
    "RateExpr", "Const", "TimeVar", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Func", "parse_rate_expr", "eval_expr", "format_expr",
    "Antiderivative", "ClosedFormAntiderivative", "QuadratureAntiderivative",
    "antiderivative", "split_coefficient",
]

# Closed forms carrying a 1/a factor are ill-conditioned for tiny a
# (e.g. sin(2at)/(4a) -> t/2); below this we integrate numerically.
MIN_FREQUENCY = 1e-6

# The most times one array evaluation of a rate takes: the rate check and
# the quadrature evaluate in chunks of this many, which bounds their memory.
RATE_CHUNK = 65_536


class RateExpr:
    """Base class of rate-expression AST nodes. Nodes are immutable values:
    a node's fields are its __slots__, given in that order, and two nodes
    are equal (and hash alike) when they are of one type with equal fields."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} "
                            f"fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), self._values()


class Const(RateExpr):
    __slots__ = ("value",)  # float


class TimeVar(RateExpr):
    """The time variable `t`."""

    __slots__ = ()


class Neg(RateExpr):
    __slots__ = ("arg",)


class Add(RateExpr):
    __slots__ = ("lhs", "rhs")


class Sub(RateExpr):
    __slots__ = ("lhs", "rhs")


class Mul(RateExpr):
    __slots__ = ("lhs", "rhs")


class Div(RateExpr):
    __slots__ = ("lhs", "rhs")


class Pow(RateExpr):
    __slots__ = ("base", "exponent")  # exponent: int


class Func(RateExpr):
    __slots__ = ("name", "arg")  # name: one of "sin", "cos", "exp"


_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


# ---------------------------------------------------------------------------
# Constant folding. A node whose operands (its RateExpr fields) are all
# literals collapses to a literal, so that structural equality doubles as
# a canonical form. The literal is the node's value under eval_expr, bit
# for bit; a node that does not evaluate stays, and its evaluation reports
# the failure. A node with no operands (a literal, `t`) stays as it is.
# The parser folds each node it builds; those the antiderivatives build
# all hold `t`, so none of them would fold.

def _fold(node):
    operands = [x for x in node._values() if isinstance(x, RateExpr)]
    if operands and all(isinstance(x, Const) for x in operands):
        try:
            return Const(eval_expr(node, 0.0))
        except NonFiniteError:
            pass
    return node


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_INT_RE = re.compile(r"\d+\Z")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text, params):
        self.tokens = _tokenize(text)
        self.index = 0
        self.params = params

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        got = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"unexpected {got}", pos, expected)

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs = self.term()
            node = _fold(Add(node, rhs) if op == "+" else Sub(node, rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            node = _fold(Mul(node, rhs) if op == "*" else Div(node, rhs))
        return node

    def factor(self):
        node = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num" or not _INT_RE.match(value):
                self.fail(("integer exponent",))
            self.advance()
            exponent = int(value)
            if exponent == 0:
                return Const(1.0)
            if exponent > 1:
                node = _fold(Pow(node, exponent))
        return node

    def base(self):
        kind, value, _ = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(value))
        if kind == "name":
            self.advance()
            if value == "t":
                return TimeVar()
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _fold(Func(value, arg))
            if value in self.params:
                return Const(self.params[value])
            raise UnboundParameterError(value)
        if (kind, value) == ("op", "("):
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if (kind, value) == ("op", "-"):
            self.advance()
            return _fold(Neg(self.base()))
        self.fail(("number", "name", "'t'", "'('", "'-'"))

    def expect(self, op):
        if self.peek()[:2] != ("op", op):
            self.fail((f"'{op}'",))
        self.advance()


def parse_rate_expr(text, params=None):
    """Parse an expression string into a :class:`RateExpr`.

    Free names other than ``t`` must appear in `params` and are replaced
    by their numeric values during parsing.

    Raises :class:`ExprSyntaxError` on malformed input and
    :class:`UnboundParameterError` on an unknown name.
    """
    bound = {}
    for name, value in (params or {}).items():
        if name == "t":
            raise ValueError("parameter name 't' is reserved for the time variable")
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteError(f"parameter {name!r} is not finite")
        bound[name] = value
    return _Parser(text, bound).parse()


def eval_expr(f, t):
    """Evaluate `f` at time `t`, one time or an array of times.

    An array of times gives an array of the same shape, and one time (a
    float or a 0-d array) gives a float: the value at an array of that one
    time, so a time's value does not depend on how it is asked for. Raises :class:`NonFiniteError` if the
    result is not finite, or if any intermediate overflows or a division
    is by zero, so `1/exp(1000)` and `1/(exp(t)*exp(t))` at t = 400 raise;
    an intermediate that underflows to zero is fine.
    """
    times = np.asarray(t, dtype=float)
    if not times.size:  # no time to evaluate at, so none to fail at
        return np.empty(times.shape)
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        try:
            v = _eval(f, times.reshape(-1))
        except FloatingPointError as exc:
            raise NonFiniteError(f"expression {exc} on t in "
                                 f"[{times.min():g}, {times.max():g}]") from exc
    out = np.empty(times.size)
    out[:] = v
    if not np.isfinite(out).all():
        raise NonFiniteError("expression evaluated to a non-finite value")
    return out.reshape(times.shape) if times.ndim else float(out[0])


def _eval(f, t):
    if isinstance(f, Const):
        return np.float64(f.value)  # so that an unfolded 1/0 raises as arrays do
    if isinstance(f, TimeVar):
        return t
    if isinstance(f, Neg):
        return -_eval(f.arg, t)
    if isinstance(f, Add):
        return _eval(f.lhs, t) + _eval(f.rhs, t)
    if isinstance(f, Sub):
        return _eval(f.lhs, t) - _eval(f.rhs, t)
    if isinstance(f, Mul):
        return _eval(f.lhs, t) * _eval(f.rhs, t)
    if isinstance(f, Div):
        return _eval(f.lhs, t) / _eval(f.rhs, t)
    if isinstance(f, Pow):
        return _eval(f.base, t) ** f.exponent
    if isinstance(f, Func):
        return _FUNCTIONS[f.name](_eval(f.arg, t))
    raise TypeError(f"not a RateExpr node: {f!r}")


# ---------------------------------------------------------------------------
# Unparsing (used when exporting models back to files)

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def format_expr(f):
    """Render `f` as a string that reparses to an equal AST."""
    return _format(f)[0]


def _format(f):
    if isinstance(f, Const):
        if f.value < 0:
            return f"-{_unsigned(-f.value)}", _PREC_UNARY
        return _unsigned(f.value), _PREC_ATOM
    if isinstance(f, TimeVar):
        return "t", _PREC_ATOM
    if isinstance(f, Neg):
        s, p = _format(f.arg)
        if p < _PREC_UNARY:
            s = f"({s})"
        return f"-{s}", _PREC_UNARY
    if isinstance(f, (Add, Sub)):
        op = "+" if isinstance(f, Add) else "-"
        ls = _wrap(f.lhs, _PREC_ADD)
        rs = _wrap(f.rhs, _PREC_ADD + (op == "-"))
        return f"{ls} {op} {rs}", _PREC_ADD
    if isinstance(f, (Mul, Div)):
        op = "*" if isinstance(f, Mul) else "/"
        ls = _wrap(f.lhs, _PREC_MUL)
        rs = _wrap(f.rhs, _PREC_MUL + (op == "/"))
        return f"{ls}{op}{rs}", _PREC_MUL
    if isinstance(f, Pow):
        bs, bp = _format(f.base)
        if bp < _PREC_ATOM:
            bs = f"({bs})"
        return f"{bs}^{f.exponent}", _PREC_POW
    if isinstance(f, Func):
        return f"{f.name}({format_expr(f.arg)})", _PREC_ATOM
    raise TypeError(f"not a RateExpr node: {f!r}")


def _wrap(f, minimum):
    s, p = _format(f)
    return f"({s})" if p < minimum else s


def _unsigned(v):
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


# ---------------------------------------------------------------------------
# Antiderivatives

class Antiderivative:
    """F with F(0) = 0 and F' = f: value(t) at a time, values(times) at each."""

    __slots__ = ()

    is_closed_form = False


class ClosedFormAntiderivative(Antiderivative):
    """F given as a RateExpr, `expr`."""

    __slots__ = ("expr",)

    is_closed_form = True

    def __init__(self, expr):
        self.expr = expr

    def value(self, t):
        return eval_expr(self.expr, t)

    def values(self, times):
        return eval_expr(self.expr, np.asarray(times, dtype=float))


# n -> (nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1]
# that the quadrature uses, each the repr of the float that
# numpy.polynomial.legendre.leggauss(n) gives, so bit for bit its rule.
_GAUSS_LEGENDRE = {
    7: ((-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
         0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
         0.3818300505051187, 0.27970539148927687, 0.12948496616886973)),
    15: ((-0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
          -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
          -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
          0.5709721726085388, 0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
          0.9879925180204854),
         (0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
          0.13957067792615444, 0.16626920581699398, 0.1861610000155622, 0.1984314853271116,
          0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
          0.13957067792615444, 0.10715922046717141, 0.0703660474881084,
          0.030753241996117203)),
}


@functools.cache
def _gauss(n):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], as
    arrays made on first use. The rules are literals, so no run imports
    numpy.polynomial: a quadrature-rate process would load it to build two
    fixed rules, 2.4 ms after numpy (median of 11 processes, 2-CPU
    x86-64)."""
    return tuple(np.array(x) for x in _GAUSS_LEGENDRE[n])


class QuadratureAntiderivative(Antiderivative):
    """Cumulative integral of `f` from 0 by batched Gauss-Legendre quadrature.

    The window [0, window] is cut into graded cells, CELLS of them or more
    on a long window (see MAX_CELL_WIDTH). CELLS cells at a time, so that
    the pieces pending at once never outnumber those of CELLS cells, every
    pending piece of those cells (at first the cells themselves) is
    integrated at once by the 7- and 15-point rules; the pieces where the
    two agree are kept, the rest halved and integrated again. F(t) is the
    kept pieces before t plus the 15-point rule from the start of t's piece
    (an end piece outside the window), so it depends on t and the window
    alone, never on other queries. Raises NonFiniteError when `f` is not
    finite on the window, or when one cell takes more than MAX_EVALUATIONS
    evaluations.
    """

    # Requested per-unit-length tolerance; keeps accumulated error well
    # inside the documented |value(t) - integral| <= 1e-10 * (1 + t). Past
    # t = 8192 the float spacing at a piece's end is larger and replaces it,
    # since rounding the nodes' times keeps the two rules that far apart.
    ABS_TOL = 1e-12
    CELLS = 256
    # The widest cell of a long window. CELLS graded cells of [0, W] are at
    # most 2 W / CELLS wide, so windows up to CELLS * MAX_CELL_WIDTH / 2
    # (131072) keep CELLS cells and longer ones get more. On [0, 1e6] the
    # last of 256 cells would be 7800 wide, and sin(t)^2 needs more than
    # MAX_EVALUATIONS on a cell 4800 wide.
    MAX_CELL_WIDTH = 1024
    # The most integrand evaluations the pieces of one cell may take. A rate
    # that is finite but huge (exp(t^2/3) on [0, 20]) keeps the two rules
    # apart on rounding alone, and a fast oscillation on a long window
    # (sin(30*t)^2 on [0, 1e6]) needs more pieces than the cap allows.
    MAX_EVALUATIONS = 100_000

    def __init__(self, integrand, window):
        self.integrand = integrand
        # Node k at window * (k / count)^2: cells widen with t, so a rate that
        # acts early in a long window (t*exp(-t) on [0, 1e5]) spans many cells.
        count = max(self.CELLS, math.ceil(2 * window / self.MAX_CELL_WIDTH))
        edges = window * (np.arange(count + 1) / count) ** 2
        kept = []
        for first in range(0, count, self.CELLS):
            kept += self._integrate_cells(edges[first:first + self.CELLS + 1])
        starts, integrals = (np.concatenate(a) for a in zip(*kept))
        order = np.argsort(starts)
        self._starts = starts[order]
        self._before = np.concatenate([[0.0], np.cumsum(integrals[order])[:-1]])

    def _integrate_cells(self, edges):
        """(starts, integrals) of the kept pieces of the cells between
        consecutive `edges`, one pair per round of halving."""
        count = edges.size - 1
        cells, starts, widths = np.arange(count), edges[:-1], np.diff(edges)
        evaluations = np.zeros(count, dtype=int)
        kept = []
        while cells.size:
            evaluations += np.bincount(cells, minlength=count) * (7 + 15)
            over = np.flatnonzero(evaluations > self.MAX_EVALUATIONS)
            if over.size:
                k = over[0]
                raise NonFiniteError(
                    f"quadrature did not converge on [{edges[k]}, {edges[k + 1]}] "
                    f"within {self.MAX_EVALUATIONS} evaluations of the rate")
            fine = self._rule(_gauss(15), starts, widths)
            tol = widths * np.maximum(self.ABS_TOL, np.spacing(starts + widths))
            done = np.abs(fine - self._rule(_gauss(7), starts, widths)) <= tol
            kept.append((starts[done], fine[done]))
            cells, starts, half = cells[~done], starts[~done], widths[~done] / 2
            cells, widths = np.tile(cells, 2), np.tile(half, 2)
            starts = np.concatenate([starts, starts + half])
        return kept

    def _rule(self, rule, starts, widths):
        """`rule` over [start, start + width] for each pair, RATE_CHUNK
        evaluations of the integrand at a time. A sum that overflows is
        inf, so its piece never converges."""
        nodes, weights = rule
        out = np.empty(starts.size)
        step = RATE_CHUNK // nodes.size
        for i in range(0, starts.size, step):
            a, h = starts[i:i + step, None], 0.5 * widths[i:i + step, None]
            fx = eval_expr(self.integrand, (a + h * (1.0 + nodes)).ravel())
            with np.errstate(over="ignore", invalid="ignore"):
                out[i:i + step] = h[:, 0] * (fx.reshape(h.size, -1) * weights).sum(axis=1)
        return out

    def value(self, t):
        return self.values([t])[0]

    def values(self, times):
        times = np.asarray(times, dtype=float)
        k = np.maximum(np.searchsorted(self._starts, times, side="right") - 1, 0)
        starts = self._starts[k]
        return self._before[k] + self._rule(_gauss(15), starts, times - starts)


class _NoClosedForm(Exception):
    pass


def antiderivative(f, window):
    """Antidifferentiate `f`, normalized so the result vanishes at t = 0.

    A closed form is returned when `f` is a sum of constant multiples of:
    constants, t^n, sin(a*t+b), cos(a*t+b), sin(a*t)^2, cos(a*t)^2, and
    exp(a*t+b). Anything else (including the patterns above with
    |a| < 1e-6, where the 1/a prefactor is ill-conditioned) falls back to
    a :class:`QuadratureAntiderivative` on [0, window]. That one raises
    :class:`NonFiniteError` when the rate or its integral is not finite
    there, or when a cell of the window needs more than its
    MAX_EVALUATIONS evaluations of the rate.
    """
    try:
        terms = [_term_antiderivative(sign, term) for sign, term in _terms(f)]
    except _NoClosedForm:
        return QuadratureAntiderivative(f, window)
    total = terms[0]
    for term in terms[1:]:
        total = Add(total, term)
    return ClosedFormAntiderivative(total)


def _terms(f, sign=1.0):
    """Flatten top-level additions into (sign, term) pairs."""
    if isinstance(f, Add):
        return _terms(f.lhs, sign) + _terms(f.rhs, sign)
    if isinstance(f, Sub):
        return _terms(f.lhs, sign) + _terms(f.rhs, -sign)
    if isinstance(f, Neg):
        return _terms(f.arg, -sign)
    return [(sign, f)]


def _coeff_core(f):
    """Split a multiplicative term into (constant coefficient, core factor)
    for the antiderivative table (see :func:`split_coefficient`). More
    than one non-constant factor, or a non-constant divisor, has no table
    entry."""
    c, core = split_coefficient(f)
    if isinstance(core, (Mul, Div)):
        raise _NoClosedForm
    return c, core


def split_coefficient(f):
    """(c, core) with f = c * core, the constant factors of products,
    negations and quotients peeled off: core is None when f is constant.
    The non-constant factors of a product stay in its core, and so does a
    quotient's non-constant divisor, over 1 when the numerator is constant:
    `0.5/(1 + t^2)` and `0.5*(1/(1 + t^2))` are both 0.5 times
    `1/(1 + t^2)`. A quotient by zero is its own core."""
    if isinstance(f, Const):
        return f.value, None
    if isinstance(f, Neg):
        c, core = split_coefficient(f.arg)
        return -c, core
    if isinstance(f, Mul):
        cl, kl = split_coefficient(f.lhs)
        cr, kr = split_coefficient(f.rhs)
        if kl is None or kr is None:
            return cl * cr, kr if kl is None else kl
        return cl * cr, Mul(kl, kr)
    if isinstance(f, Div):
        cl, kl = split_coefficient(f.lhs)
        cr, kr = split_coefficient(f.rhs)
        if cr == 0.0:
            return 1.0, f
        if kr is None:
            return cl / cr, kl
        return cl / cr, Div(Const(1.0) if kl is None else kl, kr)
    return 1.0, f


def _linear(f):
    """Return (a, b) with f(t) = a*t + b, or raise _NoClosedForm."""
    if isinstance(f, Const):
        return 0.0, f.value
    if isinstance(f, TimeVar):
        return 1.0, 0.0
    if isinstance(f, Neg):
        a, b = _linear(f.arg)
        return -a, -b
    if isinstance(f, Add):
        al, bl = _linear(f.lhs)
        ar, br = _linear(f.rhs)
        return al + ar, bl + br
    if isinstance(f, Sub):
        al, bl = _linear(f.lhs)
        ar, br = _linear(f.rhs)
        return al - ar, bl - br
    if isinstance(f, Mul):
        al, bl = _linear(f.lhs)
        ar, br = _linear(f.rhs)
        if al == 0.0:
            return bl * ar, bl * br
        if ar == 0.0:
            return br * al, br * bl
        raise _NoClosedForm
    if isinstance(f, Div):
        ar, br = _linear(f.rhs)
        if ar != 0.0 or br == 0.0:
            raise _NoClosedForm
        al, bl = _linear(f.lhs)
        return al / br, bl / br
    if isinstance(f, Pow):
        if f.exponent == 0:
            return 0.0, 1.0
        if f.exponent == 1:
            return _linear(f.base)
        a, b = _linear(f.base)
        if a == 0.0:
            return 0.0, b ** f.exponent
        raise _NoClosedForm
    if isinstance(f, Func):
        a, _ = _linear(f.arg)
        if a == 0.0:
            return 0.0, eval_expr(f, 0.0)
        raise _NoClosedForm
    raise _NoClosedForm


def _term_antiderivative(sign, term):
    coeff, core = _coeff_core(term)
    coeff *= sign
    anti = _core_antiderivative(core)
    if coeff == 1.0:
        return anti
    if isinstance(anti, Mul) and isinstance(anti.lhs, Const):
        return Mul(Const(coeff * anti.lhs.value), anti.rhs)
    return Mul(Const(coeff), anti)


# sin and cos antidifferentiate to each other, exp to itself, up to sign and 1/a.
_PARTNERS = {"sin": "cos", "cos": "sin", "exp": "exp"}


def _core_antiderivative(core):
    if core is None:
        return TimeVar()

    if isinstance(core, Func):
        # sin(a t + b): (cos(b) - cos(a t + b)) / a; cos(a t + b):
        # (sin(a t + b) - sin(b)) / a; exp(a t + b): (exp(a t + b) - exp(b)) / a.
        # The constant is its partner's value at t = 0, so F(0) = 0 bit for bit.
        a = _slope(core.arg)
        partner = Func(_PARTNERS[core.name], core.arg)
        at_zero = Const(eval_expr(partner, 0.0))
        if core.name == "sin":
            return Div(Sub(at_zero, partner), Const(a))
        return Div(Sub(partner, at_zero), Const(a))

    if isinstance(core, Pow) and isinstance(core.base, Func):
        if core.exponent != 2 or core.base.name not in ("sin", "cos"):
            raise _NoClosedForm
        a = _slope(core.base.arg)
        if eval_expr(core.base.arg, 0.0) != 0.0:
            raise _NoClosedForm
        # sin^2(a t): t/2 - sin(2 a t)/(4 a); cos^2 flips the sign
        osc = Div(Func("sin", Mul(Const(2.0 * a), TimeVar())), Const(4.0 * a))
        half_t = Div(TimeVar(), Const(2.0))
        return Sub(half_t, osc) if core.base.name == "sin" else Add(half_t, osc)

    if isinstance(core, Pow):
        # t^n and (a t)^n with integer n >= 2
        a, b = _linear(core.base)
        if b != 0.0:
            raise _NoClosedForm
        n = core.exponent
        scale = a ** n / (n + 1)
        power = Pow(TimeVar(), n + 1)
        return power if scale == 1.0 else Mul(Const(scale), power)

    # remaining cores that are affine in t (plain t, or unfolded constants)
    a, b = _linear(core)
    if a == 0.0:
        return Mul(Const(b), TimeVar())
    ramp = Pow(TimeVar(), 2) if a == 2.0 else Mul(Const(a / 2.0), Pow(TimeVar(), 2))
    if b == 0.0:
        return ramp
    return Add(ramp, Mul(Const(b), TimeVar()))


def _slope(arg):
    """The slope a of a function argument a*t + b, guarded against tiny slopes."""
    a, _ = _linear(arg)
    if abs(a) < MIN_FREQUENCY:
        raise _NoClosedForm
    return a
