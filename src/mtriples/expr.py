"""Meromorphic expression trees and Riemann-sphere geometry.

The expression grammar (rational operations plus ``exp``) is closed under
symbolic differentiation, and every expression evaluates into the extended
complex plane: a clean pole yields the point at infinity, a 0/0 site is
resolved by comparing local vanishing orders, and anything that cannot be
resolved is reported as an explicit error instead of a silent NaN.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := number | 'i' | 'z' | 'exp' '(' expr ')' | '(' expr ')' | '-' atom

Numbers are unsigned decimal literals; the exponent after ``^`` is an
unsigned decimal integer.  Note that unary minus binds at the atom level,
so ``-z^2`` parses as ``(-z)^2``.

Every pass over a tree first lowers it, without recursion, to a program:
its post-order with equal subtrees merged into one op that carries the first
node lowered into it.  The pole-aware point evaluator, the polynomial normal
form, the printer, substitution and differentiation are op tables run over
that program (a rule reads a constant, an exponent and operand subtrees from
the op's node, so a derivative shares the subtrees of its tree), the array
evaluator runs it with one numpy operation per op, and the depth and
rationality of a tree are read from it.

The array evaluator gives the bits of a recursive numpy tree walk.  Constant
subtrees, such as the ``(a+b*i)`` coefficients configs write, are evaluated
once on one-element arrays and broadcast, never spread over the input's
shape: the ops are elementwise, so a broadcast constant gives the same bits.
Those bits need four things.  Operands keep their order, because numpy's
SIMD complex multiply is not bitwise commutative (``c*z`` and ``z*c`` can
differ).  Constant ops run out of place on their small arrays.  An op writes
into a dying operand only when the input has more than one point: numpy's
in-place complex multiply of one element runs another loop than the
out-of-place one and can change the last bit.  Out of place, an op is the
Python operator, as in a tree walk, so numpy scalars (0-d results) take
numpy's scalar arithmetic rather than the ufunc.

Expressions are immutable and every function is pure, so concurrent
evaluation of shared expressions is safe.  A node memoizes in three slots of
its own: the program it was lowered to, its reciprocal tree and its
derivative, so a tree evaluated, inverted or differentiated again does that
work once.  A memo lives and dies with its node (a program refers back to its
root, so the cyclic garbage collector frees the pair); no module-level cache
keeps trees alive or hashes them.  Two threads that fill the same memo at once
store equal values.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ExtComplex",
    "INFINITY",
    "MeroExpr",
    "Const",
    "Var",
    "Z",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Neg",
    "ParseError",
    "EvalError",
    "OrderUndeterminedError",
    "RationalFormError",
    "ArgumentError",
    "parse_mero",
    "to_source",
    "eval_ext",
    "eval_array",
    "eval_array_checked",
    "derivative",
    "substitute",
    "is_rational",
    "rational_form",
    "local_order",
    "chordal",
    "chordal_array",
    "spherical_gradient",
    "spherical_gradient_array",
    "invert_expr",
]

# Numeric order estimator: sample radii and the integer-snapping tolerance.
_ORDER_RADII = (1e-3, 1e-4, 1e-5)
_ORDER_SNAP_TOL = 0.2
_ORDER_ANGLES = 8
_LIMIT_SAMPLE_RADIUS = 1e-4
_BIG = 1e6  # array entries past this magnitude are repaired point by point
# Parser caps: nesting of parentheses, exp( and unary minus, and the depth of
# the tree.  They bound input size: every pass but the recursive-descent parser
# runs the lowered program, and the nesting cap bounds the parser's recursion
# (dataclass == and repr recurse too; no library path calls them on trees).
_MAX_NESTING = 100
_MAX_DEPTH = 120
# Degree cap on rational expressions: root finding (np.roots) builds a d x d
# companion matrix, and the grid cap of 10^6 points (lengths.MAX_GRID_POINTS)
# bounds that at d = 1000.  Past it, the polynomial normal form alone would
# take one polymul per unit of a huge exponent.
_MAX_DEGREE = 1000


class ParseError(ValueError):
    """Syntax or identifier error, or input past the nesting and depth caps;
    ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation could not produce a point of the extended plane."""


class OrderUndeterminedError(ValueError):
    """The log-log slope did not snap to an integer order."""


class RationalFormError(ValueError):
    """Expression is not rational (contains exp nodes)."""


class ArgumentError(ValueError):
    """An argument outside the range a routine accepts; ``name`` is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


# ---------------------------------------------------------------------------
# Extended complex values
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExtComplex:
    """A point of the extended complex plane; ``value is None`` means infinity."""

    value: Optional[complex]

    def __post_init__(self):
        if self.value is not None:
            v = complex(self.value)
            if math.isnan(v.real) or math.isnan(v.imag):
                raise ValueError("finite ExtComplex value must be non-NaN")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("use INFINITY for the point at infinity")
            object.__setattr__(self, "value", v)

    @property
    def is_inf(self) -> bool:
        return self.value is None

    @staticmethod
    def of(x: "ExtComplex | complex | float | int") -> "ExtComplex":
        if isinstance(x, ExtComplex):
            return x
        return ExtComplex(complex(x))

    def __repr__(self):
        return "ExtComplex(inf)" if self.is_inf else f"ExtComplex({self.value!r})"


INFINITY = ExtComplex(None)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class _Node:
    # the program a node was lowered to, its reciprocal tree and its derivative,
    # kept for the next evaluation
    __slots__ = ("_program", "_reciprocal", "_derivative")


@dataclass(frozen=True, slots=True)
class Const(_Node):
    value: complex


@dataclass(frozen=True, slots=True)
class Var(_Node):
    pass


@dataclass(frozen=True, slots=True)
class Add(_Node):
    left: "MeroExpr"
    right: "MeroExpr"


@dataclass(frozen=True, slots=True)
class Sub(_Node):
    left: "MeroExpr"
    right: "MeroExpr"


@dataclass(frozen=True, slots=True)
class Mul(_Node):
    left: "MeroExpr"
    right: "MeroExpr"


@dataclass(frozen=True, slots=True)
class Div(_Node):
    left: "MeroExpr"
    right: "MeroExpr"


@dataclass(frozen=True, slots=True)
class Pow(_Node):
    base: "MeroExpr"
    exponent: int


@dataclass(frozen=True, slots=True)
class Exp(_Node):
    arg: "MeroExpr"


@dataclass(frozen=True, slots=True)
class Neg(_Node):
    arg: "MeroExpr"


MeroExpr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Exp, Neg]

Z = Var()

_ZERO = Const(0j)
_ONE = Const(1 + 0j)


def _is_const(e: MeroExpr, value: complex | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


# Folding constructors.  Only constant folding and the obvious unit laws;
# anything smarter is out of scope on purpose.


def _add(a: MeroExpr, b: MeroExpr) -> MeroExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0j):
        return b
    if _is_const(b, 0j):
        return a
    return Add(a, b)


def _sub(a: MeroExpr, b: MeroExpr) -> MeroExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0j):
        return a
    if _is_const(a, 0j):
        return _neg(b)
    return Sub(a, b)


def _mul(a: MeroExpr, b: MeroExpr) -> MeroExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0j) or _is_const(b, 0j):
        return _ZERO
    if _is_const(a, 1 + 0j):
        return b
    if _is_const(b, 1 + 0j):
        return a
    return Mul(a, b)


def _div(a: MeroExpr, b: MeroExpr) -> MeroExpr:
    if _is_const(b, 1 + 0j):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def _pow(b: MeroExpr, n: int) -> MeroExpr:
    if n < 0:
        return Div(_ONE, _pow(b, -n))
    if n == 0:
        return _ONE
    if n == 1:
        return b
    if isinstance(b, Const):
        return Const(b.value**n)
    return Pow(b, n)


def _neg(a: MeroExpr) -> MeroExpr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            text = src[i:j]
            if text == ".":
                raise ParseError("malformed number", i)
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nested(self, offset: int, parse):
        if self.nesting >= _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", offset)
        self.nesting += 1
        node = parse()
        self.nesting -= 1
        return node

    def parse_expr(self) -> MeroExpr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> MeroExpr:
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.parse_factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_factor(self) -> MeroExpr:
        node = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            if "." in tok[1]:
                raise ParseError("exponent must be an integer", tok[2])
            node = Pow(node, int(tok[1]))
        return node

    def parse_atom(self) -> MeroExpr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(complex(float(text)))
        if kind == "ident":
            self.advance()
            if text == "z":
                return Z
            if text == "i":
                return Const(1j)
            if text == "exp":
                self.expect("(")
                inner = self.nested(offset, self.parse_expr)
                self.expect(")")
                return Exp(inner)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "(":
            self.advance()
            inner = self.nested(offset, self.parse_expr)
            self.expect(")")
            return inner
        if kind == "-":
            self.advance()
            return Neg(self.nested(offset, self.parse_atom))
        raise ParseError(f"unexpected token {text!r}", offset)


def parse_mero(src: str) -> MeroExpr:
    """Parse an expression per the module grammar."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    if _lower(node)[2] > _MAX_DEPTH:
        raise ParseError(f"expression tree deeper than {_MAX_DEPTH} levels", 0)
    if is_rational(node) and max(_run(_lower(node), _DEGREE_RULES, None)) > _MAX_DEGREE:
        raise ParseError(f"rational expression of degree above {_MAX_DEGREE}", 0)
    return node


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_const(c: complex) -> str:
    if c.imag == 0:
        return _fmt_real(c.real)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        return f"{_fmt_real(c.imag)}*i"
    sign = "-" if c.imag < 0 else "+"
    return f"({_fmt_real(c.real)} {sign} {_fmt_real(abs(c.imag))}*i)"


# Each op yields its text and the loosest context level that parenthesizes
# it.  Levels: 1 additive, 2 multiplicative operand, 3 right factor, 5 atom
# position (unary-minus operand, power base).
_ATOM = math.inf  # never parenthesized


def _wrap(operand: tuple, level: int) -> str:
    text, need = operand
    return f"({text})" if level >= need else text


def _print_const(_, t: Const):
    text = _fmt_const(t.value)
    return text, 2 if text.startswith("-") else _ATOM


_PRINT_RULES = {
    Const: _print_const,
    Var: lambda *_: ("z", _ATOM),
    Exp: lambda _, __, a: (f"exp({a[0]})", _ATOM),
    # unary minus is itself an atom; its operand must print as an atom
    Neg: lambda _, __, a: ("-" + _wrap(a, 5), _ATOM),
    Pow: lambda _, t, b: (f"{_wrap(b, 5)}^{t.exponent}", 5),
    Add: lambda _, __, a, b: (f"{_wrap(a, 1)} + {_wrap(b, 2)}", 2),
    Sub: lambda _, __, a, b: (f"{_wrap(a, 1)} - {_wrap(b, 2)}", 2),
    Mul: lambda _, __, a, b: (f"{_wrap(a, 2)}*{_wrap(b, 3)}", 3),
    Div: lambda _, __, a, b: (f"{_wrap(a, 2)}/{_wrap(b, 3)}", 3),
}


def to_source(e: MeroExpr) -> str:
    """Render back to grammar text; ``parse_mero(to_source(t)) == t`` for parsed trees."""
    return _run(_lower(e), _PRINT_RULES, None)[0]


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------


_OPERANDS = {Const: (), Var: (), Pow: ("base",), Exp: ("arg",), Neg: ("arg",)}
_OPERANDS.update(dict.fromkeys((Add, Sub, Mul, Div), ("left", "right")))


def _lower(e: MeroExpr) -> tuple[list, dict, int]:
    """Lower a tree without recursion to ``(ops, last, depth)``: its post-order
    with equal subtrees merged into one op ``(node type, node, operand slots)``,
    the node the first lowered into that slot, keyed by operand slots (no deep
    ``__hash__``) and a constant's bit pattern (``0j`` and ``-0j`` stay apart)
    or an exponent; op ``last[k]`` reads slot k last."""
    program = getattr(e, "_program", None)  # point evaluators lower the same tree again and again
    if program is not None:
        return program
    ops, depth, stack = [], [], [e]
    slot_of, lowered = {}, {}  # merge key -> slot; id(node) -> slot, each node lowered once
    while stack:
        kind = type(node := stack[-1])  # a node pushed twice is lowered twice into one op
        kids = [getattr(node, name) for name in _OPERANDS[kind]]
        pending = [c for c in kids if id(c) not in lowered]
        if pending:
            stack += reversed(pending)
            continue
        stack.pop()
        args = tuple(lowered[id(c)] for c in kids)
        exponent = getattr(node, "exponent", None)
        bits = np.complex128(node.value).tobytes() if kind is Const else exponent
        lowered[id(node)] = slot = slot_of.setdefault((kind, bits, args), len(ops))
        if slot == len(ops):
            ops.append((kind, node, args))
            depth.append(1 + max((depth[a] for a in args), default=0))
    program = ops, {a: k for k, (_, _, args) in enumerate(ops) for a in args}, depth[-1]
    object.__setattr__(e, "_program", program)
    return program


def _run(program, rules: dict, z):
    """Apply ``rules[type](z, node, *operands)`` op by op."""
    vals = []
    for kind, node, args in program[0]:
        vals.append(rules[kind](z, node, *map(vals.__getitem__, args)))
    return vals[-1]


def is_rational(e: MeroExpr) -> bool:
    return all(kind is not Exp for kind, _, _ in _lower(e)[0])


def substitute(e: MeroExpr, replacement: MeroExpr) -> MeroExpr:
    """Replace the variable by ``replacement`` (composition of functions)."""
    return _run(_lower(e), _SUBSTITUTE_RULES, replacement)


# the tree rebuilt op by op, the variable replaced by the run's argument
_SUBSTITUTE_RULES = {
    kind: lambda _, __, *xs, kind=kind: kind(*xs) for kind in (Neg, Exp, Add, Sub, Mul, Div)
}
_SUBSTITUTE_RULES.update(
    {Const: lambda _, t: t, Var: lambda r, _: r, Pow: lambda _, t, b: Pow(b, t.exponent)}
)


# ---------------------------------------------------------------------------
# Rational normal form
# ---------------------------------------------------------------------------


def rational_form(e: MeroExpr) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator polynomial coefficients (highest degree first).

    No gcd cancellation is attempted; common roots are handled downstream by
    comparing local orders.  Raises RationalFormError on exp nodes.
    """
    if not is_rational(e):
        raise RationalFormError("expression contains exp; no rational form")
    num, den = _run(_lower(e), _POLY_RULES, None)
    return np.trim_zeros(num, "f"), np.trim_zeros(den, "f")


def _poly_pow(_, t: Pow, pair):
    n = t.exponent
    num = den = np.array([1.0 + 0j])
    for _ in range(abs(n)):
        num, den = np.polymul(num, pair[0]), np.polymul(den, pair[1])
    return (den, num) if n < 0 else (num, den)


# (numerator, denominator) coefficient pairs, highest degree first
_POLY_RULES = {
    Const: lambda _, t: (np.array([t.value]), np.array([1.0 + 0j])),
    Var: lambda *_: (np.array([1.0 + 0j, 0j]), np.array([1.0 + 0j])),
    Neg: lambda _, __, a: (-a[0], a[1]),
    Add: lambda _, __, a, b: (
        np.polyadd(np.polymul(a[0], b[1]), np.polymul(b[0], a[1])), np.polymul(a[1], b[1])
    ),
    Sub: lambda _, __, a, b: (
        np.polysub(np.polymul(a[0], b[1]), np.polymul(b[0], a[1])), np.polymul(a[1], b[1])
    ),
    Mul: lambda _, __, a, b: (np.polymul(a[0], b[0]), np.polymul(a[1], b[1])),
    Div: lambda _, __, a, b: (np.polymul(a[0], b[1]), np.polymul(a[1], b[0])),
    Pow: _poly_pow,
}


def _sum_degree(_, __, a, b):
    return max(a[0] + b[1], b[0] + a[1]), a[1] + b[1]


# (numerator, denominator) degrees of the _POLY_RULES pair before numpy trims
# leading zeros: an upper bound that holds with equality unless terms cancel
_DEGREE_RULES = {
    Const: lambda *_: (0, 0),
    Var: lambda *_: (1, 0),
    Neg: lambda _, __, a: a,
    Add: _sum_degree,
    Sub: _sum_degree,
    Mul: lambda _, __, a, b: (a[0] + b[0], a[1] + b[1]),
    Div: lambda _, __, a, b: (a[0] + b[1], a[1] + b[0]),
    Pow: lambda _, t, a: (a[0] * n, a[1] * n) if (n := t.exponent) >= 0 else (-a[1] * n, -a[0] * n),
}


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def derivative(e: MeroExpr) -> MeroExpr:
    """Exact symbolic d/dz; the result is again a grammar expression, kept
    on the node for the next call."""
    d = getattr(e, "_derivative", None)
    if d is None:
        d = _run(_lower(e), _DERIVATIVE_RULES, None)
        object.__setattr__(e, "_derivative", d)
    return d


# operand derivatives, and operand subtrees read from the node, folded in the
# order written: complex multiply is not bitwise commutative
_DERIVATIVE_RULES = {
    Const: lambda *_: _ZERO,
    Var: lambda *_: _ONE,
    Neg: lambda _, __, da: _neg(da),
    Add: lambda _, __, da, db: _add(da, db),
    Sub: lambda _, __, da, db: _sub(da, db),
    Mul: lambda _, t, da, db: _add(_mul(da, t.right), _mul(t.left, db)),
    Div: lambda _, t, da, db: _div(_sub(_mul(da, t.right), _mul(t.left, db)), _pow(t.right, 2)),
    Pow: lambda _, t, db: (
        _mul(_mul(Const(complex(n)), _pow(t.base, n - 1)), db) if (n := t.exponent) else _ZERO
    ),
    Exp: lambda _, t, da: _mul(t, da),
}


def invert_expr(e: MeroExpr) -> MeroExpr:
    """Pointwise reciprocal, swapping numerator and denominator when possible.

    Built once per node, so that point evaluators near poles, which invert
    the same tree at every point, evaluate one tree lowered once."""
    inverse = getattr(e, "_reciprocal", None)
    if inverse is None:
        inverse = Div(e.right, e.left) if isinstance(e, Div) else Div(_ONE, e)
        object.__setattr__(e, "_reciprocal", inverse)
    return inverse


# ---------------------------------------------------------------------------
# Evaluation on the extended plane
# ---------------------------------------------------------------------------


class _Indeterminate(Exception):
    pass


_INF = object()  # internal marker during raw evaluation


def _check_overflow(v: complex):
    if math.isfinite(v.real) and math.isfinite(v.imag):
        return v
    if math.isnan(v.real) or math.isnan(v.imag):
        raise _Indeterminate
    return _INF


def _inf_sum(a, b):
    """_INF if one summand is infinite, None if neither is; inf - inf raises."""
    if a is _INF and b is _INF:
        raise _Indeterminate
    return _INF if a is _INF or b is _INF else None


def _raw_mul(z, _, a, b):
    if a is _INF or b is _INF:
        if a == 0 or b == 0:  # _INF == 0 is False
            raise _Indeterminate
        return _INF
    return _check_overflow(a * b)


def _raw_div(z, _, a, b):
    if (a is _INF and b is _INF) or (a == 0 and b == 0):  # _INF == 0 is False
        raise _Indeterminate
    if a is _INF or b == 0:
        return _INF
    return 0j if b is _INF else _check_overflow(a / b)


def _raw_pow(z, t: Pow, b):
    n = t.exponent
    if n == 0:
        return 1 + 0j
    if b is _INF or (b == 0 and n < 0):
        return 0j if b is _INF and n < 0 else _INF
    try:
        return _check_overflow(b**n)
    except OverflowError:
        return _INF


def _raw_exp(z, _, a):
    if a is _INF:
        raise EvalError("exp evaluated at infinity (essential singularity)")
    try:
        return _check_overflow(cmath.exp(a))
    except OverflowError:
        return _INF


# Pole-aware scalar arithmetic: complex or _INF, or raise _Indeterminate
_RAW_RULES = {
    Const: lambda z, t: t.value,
    Var: lambda z, _: z,
    Neg: lambda z, _, a: _INF if a is _INF else -a,
    Add: lambda z, _, a, b: _inf_sum(a, b) or _check_overflow(a + b),
    Sub: lambda z, _, a, b: _inf_sum(a, b) or _check_overflow(a - b),
    Mul: _raw_mul,
    Div: _raw_div,
    Pow: _raw_pow,
    Exp: _raw_exp,
}


def eval_ext(e: MeroExpr, z: complex) -> ExtComplex:
    """Evaluate at a point of the plane with pole-aware arithmetic.

    A clean pole returns INFINITY.  Forms such as 0/0 or inf - inf are
    resolved by comparing local orders when the expression is rational;
    otherwise an EvalError is raised explicitly, never a NaN.
    """
    try:
        v = _run(_lower(e), _RAW_RULES, complex(z))
    except _Indeterminate:
        if is_rational(e):
            return _resolve_by_order(e, complex(z))
        raise EvalError(f"indeterminate evaluation at z={z}") from None
    return INFINITY if v is _INF else ExtComplex(v)


def _samples_on_circle(e: MeroExpr, z0: complex, r: float, angles: int, rot: float):
    out = []
    for k in range(angles):
        w = z0 + r * cmath.exp(1j * (2 * math.pi * k / angles + rot))
        v = _run(_lower(e), _RAW_RULES, w)  # may raise _Indeterminate at unlucky sample points
        if v is _INF:
            raise _Indeterminate
        out.append(v)
    return out


def _resolve_by_order(e: MeroExpr, z0: complex) -> ExtComplex:
    num, den = rational_form(e)
    if num.size == 0:
        return ExtComplex(0j)  # exact cancellation: the zero function
    if den.size == 0:
        return INFINITY  # a denominator that cancels exactly: identically infinite
    order = local_order(e, z0)
    if order > 0:
        return ExtComplex(0j)
    if order < 0:
        return INFINITY
    # Finite nonzero limit: averaging over roots of unity kills the leading
    # Taylor terms, so the mean is the limit up to O(r^angles).
    for attempt in range(3):
        try:
            vals = _samples_on_circle(e, z0, _LIMIT_SAMPLE_RADIUS, _ORDER_ANGLES, 0.5 + 0.37 * attempt)
            return ExtComplex(sum(vals) / len(vals))
        except _Indeterminate:
            continue
    raise EvalError(f"could not resolve finite limit at z={z0}")


def local_order(e: MeroExpr, z0: complex) -> int:
    """Net vanishing order at ``z0``: zeros positive, poles negative, else 0.

    Least-squares slope of the angle-averaged log-magnitude against log radius
    over ``_ORDER_RADII``, snapped to the nearest integer within
    ``_ORDER_SNAP_TOL``.
    """
    if not is_rational(e):
        raise RationalFormError("local_order requires a rational expression")
    z0 = complex(z0)
    mean_logs = []
    for r in _ORDER_RADII:
        got = None
        for attempt in range(4):
            try:
                vals = _samples_on_circle(e, z0, r, _ORDER_ANGLES, 0.5 + 0.41 * attempt)
            except _Indeterminate:
                continue
            mags = [abs(v) for v in vals]
            if min(mags) <= 0.0:
                continue
            got = sum(math.log(m) for m in mags) / len(mags)
            break
        if got is None:
            raise OrderUndeterminedError(f"cannot sample magnitudes near z={z0}")
        mean_logs.append(got)
    xs = [math.log(r) for r in _ORDER_RADII]
    xbar = sum(xs) / len(xs)
    ybar = sum(mean_logs) / len(mean_logs)
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, mean_logs)) / denom
    nearest = round(slope)
    if abs(slope - nearest) > _ORDER_SNAP_TOL:
        raise OrderUndeterminedError(
            f"order slope {slope:.4f} at z={z0} is farther than {_ORDER_SNAP_TOL} from an integer"
        )
    return int(nearest)


# ---------------------------------------------------------------------------
# Vectorized evaluation (plain IEEE arithmetic; caller repairs non-finites)
# ---------------------------------------------------------------------------


# a tree walk's operation per node type, out of place and in place
_OPS = {
    Neg: (operator.neg, np.negative),
    Add: (operator.add, np.add),
    Sub: (operator.sub, np.subtract),
    Mul: (operator.mul, np.multiply),
    Div: (operator.truediv, np.divide),
    Exp: (np.exp, np.exp),
}


def eval_array(e: MeroExpr, zs: np.ndarray) -> np.ndarray:
    """Evaluate on a complex ndarray; poles come out as inf/nan entries.

    A constant, and an op whose operands are all constant, is evaluated once,
    out of place, on a ``(1,) * zs.ndim`` array, and broadcasting carries it
    into the first op that reads ``z``; a constant root is spread to
    ``zs.shape`` at the end, as a writable array.  Arrays die at their last use,
    and an op writes into its first operand when that depends on ``z`` and dies
    there, so no constant costs an array of the input's size.  The bits are a
    recursive tree walk's: operands keep their order, since complex multiply is
    not bitwise commutative, and nothing is written in place at a single point,
    where numpy's in-place complex multiply runs another loop (see the module
    docstring)."""
    zs = np.asarray(zs, dtype=complex)
    ops, last, _ = _lower(e)
    vals, fixed = [], []  # fixed[k]: op k does not read z
    with np.errstate(all="ignore"):
        for k, (kind, node, args) in enumerate(ops):
            xs = [vals[a] for a in args]
            for a in args:
                if last[a] == k:
                    vals[a] = None
            fixed.append(kind is not Var and all(fixed[a] for a in args))
            if kind is Var:
                vals.append(zs)
            elif kind is Const:
                vals.append(np.full((1,) * zs.ndim, node.value, dtype=complex))
            elif kind is Pow:
                vals.append(xs[0] ** node.exponent)
            else:
                fresh, ufunc = _OPS[kind]
                dies = vals[args[0]] is None and xs[0] is not zs
                mine = dies and not fixed[args[0]] and zs.size > 1
                vals.append(ufunc(*xs, out=xs[0]) if mine else fresh(*xs))
    out = np.full(zs.shape, vals[-1], dtype=complex) if fixed[-1] else vals[-1]
    return out.copy() if out is zs else out  # callers may write into the result


def eval_array_checked(e: MeroExpr, zs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation with scalar pole/limit repair of bad entries.

    Entries where the expression has a genuine pole stay infinite; removable
    sites are replaced by their local limits.
    """
    zs = np.asarray(zs, dtype=complex)
    vals = eval_array(e, zs)

    def at_point(z):
        v = eval_ext(e, z)
        return complex("inf") if v.is_inf else v.value

    return _repair(vals, ~np.isfinite(vals), zs, at_point)


def _repair(out: np.ndarray, bad: np.ndarray, zs: np.ndarray, at_point) -> np.ndarray:
    """Overwrite the ``bad`` entries of ``out`` by ``at_point`` at their points."""
    out = np.asarray(out)  # numpy hands back a 0-d result as a scalar, which cannot be written
    for k in np.nonzero(bad.ravel())[0]:
        out.flat[k] = at_point(complex(zs.flat[k]))
    return out


# ---------------------------------------------------------------------------
# Riemann-sphere geometry
# ---------------------------------------------------------------------------


def chordal(a, b) -> float:
    """Half the chordal distance between two points of the extended plane.

    Equals half the Euclidean distance between the stereographic images on
    the unit sphere; a metric bounded by 1, with distance 1 between 0 and
    the point at infinity.
    """
    av = ExtComplex.of(a)
    bv = ExtComplex.of(b)
    if av.is_inf and bv.is_inf:
        return 0.0
    if av.is_inf:
        return 1.0 / math.hypot(1.0, abs(bv.value))
    if bv.is_inf:
        return 1.0 / math.hypot(1.0, abs(av.value))
    z1, z2 = av.value, bv.value
    if abs(z1) > 1.0 and abs(z2) > 1.0:
        # chordal distance is invariant under inversion; avoids overflow
        z1, z2 = 1.0 / z1, 1.0 / z2
    return abs(z1 - z2) / (math.hypot(1.0, abs(z1)) * math.hypot(1.0, abs(z2)))


def chordal_array(zs: np.ndarray, target: "ExtComplex | complex") -> np.ndarray:
    """Chordal distance from each array entry (inf entries allowed) to ``target``."""
    zs = np.asarray(zs, dtype=complex)
    t = ExtComplex.of(target)
    mag = np.abs(zs)
    finite = np.isfinite(mag)
    out = np.empty(zs.shape, dtype=float)
    if t.is_inf:
        out[finite] = 1.0 / np.hypot(1.0, mag[finite])
        out[~finite] = 0.0
        return out
    a = t.value
    den = np.hypot(1.0, mag[finite]) * math.hypot(1.0, abs(a))
    out[finite] = np.abs(zs[finite] - a) / den
    out[~finite] = 1.0 / math.hypot(1.0, abs(a))
    return out


def _gradient_of(v, d):
    """2*sqrt(2)*|d| / (1 + |v|^2) on Python complex numbers or on numpy arrays."""
    return 2.0 * math.sqrt(2.0) * abs(d) / (1.0 + abs(v) ** 2)


def spherical_gradient(e: MeroExpr, z: complex) -> float:
    """Length of the Euclidean gradient of the sphere-valued map at ``z``.

    2*sqrt(2)*|f'| / (1 + |f|^2); finite across poles, where it is computed
    from the reciprocal expression.
    """
    v = eval_ext(e, z)
    if v.is_inf or abs(v.value) > 1.0:
        e = invert_expr(e)
        v = eval_ext(e, z)
    d = eval_ext(derivative(e), z)
    if v.is_inf or d.is_inf:
        raise EvalError(f"spherical gradient indeterminate at z={z}")
    return _gradient_of(v.value, d.value)


def spherical_gradient_array(e: MeroExpr, zs: np.ndarray) -> np.ndarray:
    """Vectorized spherical gradient with scalar repair near poles."""
    zs = np.asarray(zs, dtype=complex)
    fv = eval_array(e, zs)
    dv = eval_array(derivative(e), zs)
    with np.errstate(all="ignore"):
        out = _gradient_of(fv, dv)
        bad = ~np.isfinite(out) | (np.abs(fv) > _BIG)
    return _repair(out, bad, zs, lambda z: spherical_gradient(e, z))
