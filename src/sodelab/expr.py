"""Expression trees: parsing, evaluation, exact differentiation.

All scalar formulas in the package (Hamiltonians, conformal factors, chart
components, force blocks) are held as small immutable ASTs so that every
derivative taken downstream is symbolic and exact.  Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?            # '^' is right-associative
    base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' base

Identifiers match ``[a-zA-Z][a-zA-Z0-9_]*``.  Note that the grammar binds the
leading minus inside ``base``, so ``-x^2`` parses as ``(-x)^2``.

Construction helpers (:func:`add`, :func:`mul`, ...) fold constants and drop
algebraic no-ops (``0 + x``, ``1 * x``); no other simplification is applied, so
derivative trees may be verbose but evaluate exactly.

Nodes are interned (hash-consed): every way of building a node, the node
classes themselves included, returns the one live node with that type, leaf
value and operands, so equal trees are the same object, ``==`` is identity
and ``hash`` takes constant time.  A constant is keyed by the bits of its
float: ``Const(0.0)`` and ``Const(-0.0)`` are two nodes, and each nan payload
is one node.  The table holds its nodes weakly, so a node lives only as long
as something else holds it.  Each node carries its free variables from its
construction on, and keeps the derivatives taken of it, by coordinate name,
for as long as something holds them: a derivative often holds the node
itself (d exp(u) = exp(u)*u'), so a node holds its derivatives weakly, and
no memo keeps a tree alive or outlives the trees it was computed for.

Every walk of a tree set but differentiation numbers the nodes once into a
tape, a shared subtree one entry, and runs it under one column of the op
table ``_OPS``: evaluation and the batch backend compute, the scalar backend
writes Python, :func:`to_source` prints and :func:`substitute` rebuilds.
"""

from __future__ import annotations

import keyword
import math
import operator
import re
import struct
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EvaluationDomainError,
    ExpressionDepthError,
    ExprSyntaxError,
    NonFiniteConstantError,
    UnboundVariableError,
    UnknownIdentifierError,
)

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "VariableContext",
    "parse",
    "evaluate",
    "differentiate",
    "substitute",
    "free_variables",
    "to_source",
    "compile_scalar",
    "add",
    "sub",
    "mul",
    "sum_of_products",
    "div",
    "neg",
    "pow_",
    "call",
]

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Expression:
    """Base class for immutable, interned formula nodes.

    Trees come from :func:`parse` and the folding constructors (:func:`add`,
    :func:`mul`, ...); ``str(e)`` renders a tree with :func:`to_source`.
    Calling a node class returns the one live node of that structure, so
    ``==`` is ``is`` and ``hash`` is the identity's.  ``_fv`` holds the
    node's free variables from its construction on, and ``_d`` the
    derivatives :func:`differentiate` has taken of it, by coordinate name.
    """

    __slots__ = ("_d", "_fv", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, name)) for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return to_source(self)


# every live node by its key (its type, then its leaf value or its operands'
# identities), held weakly: the entry goes when the node dies
_NODES: dict[tuple, weakref.ref] = {}
_set = object.__setattr__
_float_bits = struct.Struct("<d").pack  # a Const key: 0.0 and -0.0 differ, as nan payloads do
_NO_NAMES: frozenset[str] = frozenset()


def _drop(key: tuple, ref: weakref.ref) -> None:
    """Forget a dead node's entry, unless a newer node has taken its key."""
    if _NODES.get(key) is ref:
        del _NODES[key]


def _live(key: tuple) -> Expression | None:
    """The live node of ``key``, else None; a node is always true."""
    ref = _NODES.get(key)
    return None if ref is None else ref()


def _new(cls: type, key: tuple, names: frozenset[str], first, second=None) -> Expression:
    """A new ``cls`` node of ``key`` holding one field or two, with free variables ``names``."""
    node = object.__new__(cls)
    _set(node, "_d", None)
    _set(node, "_fv", names)
    _set(node, cls._fields[0], first)
    if second is not None:
        _set(node, cls._fields[1], second)
    _NODES[key] = weakref.ref(node, partial(_drop, key))
    return node


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, as ``a`` or ``b`` itself where one holds the other."""
    return a if b <= a else b if a <= b else a | b


class Const(Expression):
    __slots__ = _fields = ("value",)
    value: float

    def __new__(cls, value: float) -> Const:
        key = (cls, _float_bits(value := float(value)))
        return _live(key) or _new(cls, key, _NO_NAMES, value)


class Var(Expression):
    __slots__ = _fields = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        return _live((cls, name)) or _new(cls, (cls, name), frozenset((name,)), name)


class Neg(Expression):
    __slots__ = _fields = ("arg",)
    arg: Expression

    def __new__(cls, arg: Expression) -> Neg:
        return _live((cls, id(arg))) or _new(cls, (cls, id(arg)), arg._fv, arg)


class _Binary(Expression):
    __slots__ = _fields = ("left", "right")
    left: Expression
    right: Expression

    def __new__(cls, left: Expression, right: Expression):
        key = (cls, id(left), id(right))
        return _live(key) or _new(cls, key, _union(left._fv, right._fv), left, right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expression):
    __slots__ = _fields = ("base", "exponent")
    base: Expression
    exponent: Expression

    def __new__(cls, base: Expression, exponent: Expression) -> Pow:
        key = (cls, id(base), id(exponent))
        return _live(key) or _new(cls, key, _union(base._fv, exponent._fv), base, exponent)


class Call(Expression):
    __slots__ = _fields = ("fn", "arg")
    fn: str
    arg: Expression

    def __new__(cls, fn: str, arg: Expression) -> Call:
        return _live((cls, fn, id(arg))) or _new(cls, (cls, fn, id(arg)), arg._fv, fn, arg)


ZERO = Const(0.0)
ONE = Const(1.0)
TWO = Const(2.0)  # the exponent of a square: the one Const of value 2.0


def _is_const(e: Expression, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


# --- folding constructors -------------------------------------------------


def add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("+", a.value, b.value) or Add(a, b)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        # a non-finite difference stays a node, before `a is b` could fold inf - inf to 0
        return _folded("-", a.value, b.value) or Sub(a, b)
    return ZERO if a is b else Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("*", a.value, b.value) or Mul(a, b)
    return Mul(a, b)


def sum_of_products(pairs: Iterable[tuple[Expression, Expression]]) -> Expression:
    """a1*b1 + a2*b2 + ..., folded left from zero through :func:`add` and :func:`mul`."""
    total: Expression = Const(0.0)
    for a, b in pairs:
        total = add(total, mul(a, b))
    return total


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded("/", a.value, b.value) or Div(a, b)
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Expression, exponent: Expression) -> Expression:
    if _is_const(exponent, 1.0):
        return base
    if _is_const(exponent, 0.0):
        return ONE
    if isinstance(base, Const) and isinstance(exponent, Const):
        if exponent is TWO:
            return _folded("sq", base.value) or Pow(base, exponent)
        return _folded("pow", base.value, exponent.value) or Pow(base, exponent)
    return Pow(base, exponent)


def call(fn: str, arg: Expression) -> Expression:
    if fn not in _FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    if isinstance(arg, Const):
        return _folded(fn, arg.value) or Call(fn, arg)
    return Call(fn, arg)


def _folded(kind: str, *operands: float) -> Const | None:
    """``_CHECKED_OPS[kind]`` of the operands, the value :func:`evaluate`
    computes for that operation, as a constant; None where that is a domain
    error or not finite."""
    try:
        value = _CHECKED_OPS[kind](*operands)
    except EvaluationDomainError:
        return None
    return Const(value) if math.isfinite(value) else None


# --- variable contexts ----------------------------------------------------


@dataclass(frozen=True)
class VariableContext:
    """Ordered, unique coordinate names defining point layout.

    Points are sequences ordered like :attr:`names`; the context is the single
    source of truth for name <-> index mapping across fields and charts.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) == 0:
            raise ValueError("a variable context needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate coordinate names in {self.names}")
        for name in self.names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid coordinate name '{name}'")
            if keyword.iskeyword(name):
                # the scalar backend binds coordinates as Python names
                raise ValueError(f"coordinate name '{name}' is a Python keyword")
            if name in _FUNCTIONS:
                raise ValueError(f"coordinate name '{name}' shadows a function")

    @classmethod
    def of(cls, *names: str) -> "VariableContext":
        return cls(tuple(names))

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"'{name}' is not a coordinate of this context") from None

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)


def qv_context(n: int) -> VariableContext:
    """Context (q1..qn, v1..vn) for a tangent-bundle chart."""
    names = tuple(f"q{k}" for k in range(1, n + 1)) + tuple(f"v{k}" for k in range(1, n + 1))
    return VariableContext(names)


# --- parsing ----------------------------------------------------------------

# binding powers: the parser binds by them, and the print rules parenthesise by them
_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_NEG, _PREC_ATOM = range(1, 6)
# each left-associative operator: its binding power and its folding constructor
_BINARY = {"+": (_PREC_ADD, add), "-": (_PREC_ADD, sub),
           "*": (_PREC_MUL, mul), "/": (_PREC_MUL, div)}

# ``\s`` is the whitespace of ``str.isspace``; a character no token starts with is ``bad``
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ``("end", "", len(source))``."""
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        pos = match.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character '{match[kind]}'", pos)
        tokens.append((kind, match[kind], pos))
    tokens.append(("end", "", len(source)))
    return tokens


def parse(source: str, ctx: VariableContext) -> Expression:
    """Parse ``source`` against ``ctx``; identifiers must be coordinates of ctx.

    One loop reads the binary operators by their binding powers in
    ``_BINARY``.  Text nested too deeply raises :class:`ExpressionDepthError`.
    """
    tokens = _tokenize(source)
    i = 0  # the next token's index

    def binary(least: int) -> Expression:
        nonlocal i
        node = factor()
        while (op := _BINARY.get(tokens[i][1])) and op[0] >= least:
            i += 1
            node = op[1](node, binary(op[0] + 1))
        return node

    def factor() -> Expression:
        nonlocal i
        node = base()
        if tokens[i][1] != "^":
            return node
        i += 1
        return pow_(node, factor())  # right-associative

    def base() -> Expression:
        nonlocal i
        kind, value, pos = tokens[i]
        i += 1
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"number '{value}' is out of float range", pos)
            return Const(number)
        if kind == "ident" and tokens[i][1] != "(":
            if value not in ctx:
                raise UnknownIdentifierError(value, pos)
            return Var(value)
        if value == "-":
            return neg(base())
        if kind == "ident":  # a call
            if value not in _FUNCTIONS:
                raise UnknownIdentifierError(value, pos)
            i += 1
        elif value != "(":
            message = f"unexpected token '{value}'" if value else "unexpected end of input"
            raise ExprSyntaxError(message, pos)
        inner = binary(_PREC_ADD)
        if tokens[i][1] != ")":
            raise ExprSyntaxError("expected ')'", tokens[i][2])
        i += 1
        return call(value, inner) if kind == "ident" else inner

    try:
        node = binary(_PREC_ADD)
    except RecursionError:
        raise ExpressionDepthError("expression text is nested too deeply to parse") from None
    finally:
        del binary, factor, base  # they call one another: a cycle that holds the tokens
    kind, value, pos = tokens[i]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token '{value}'", pos)
    return node


# --- evaluation -------------------------------------------------------------


def evaluate(e: Expression, env: Mapping[str, float]) -> float:
    """Evaluate ``e`` with coordinate values from ``env``, bound as Python floats.

    Pure: neither the expression nor the environment is mutated.  It runs
    the tree's tape under ``_CHECKED_OPS``, as the generated code's fallback
    does: division by zero, and log, sqrt or a fractional power outside its
    domain, raise :class:`EvaluationDomainError`; overflow saturates to
    ``inf`` so blow-up detection can see it, and an ``inf`` passed on to
    ``sin`` or ``cos`` is a domain error too.  Too deep a tree raises
    :class:`ExpressionDepthError`; an unbound coordinate,
    :class:`UnboundVariableError`.
    """
    run = _walker(*_tape((e,), env, "evaluate"), _CHECKED_OPS, float)
    return run(lambda name: float(env[name]))[0]


# --- differentiation --------------------------------------------------------


def differentiate(e: Expression, name: str) -> Expression:
    """Exact partial derivative of ``e`` with respect to coordinate ``name``.

    The one walk that does not run the tape: it recurses, because it must
    look up each node's derivative memo before it walks that node's subtree,
    and a memo hit skips the subtree.  A tree nested too deeply to recurse
    raises :class:`ExpressionDepthError`.
    """
    try:
        return _differentiate(e, name)
    except RecursionError:
        raise ExpressionDepthError("expression is nested too deeply to differentiate") from None


def _differentiate(e: Expression, name: str) -> Expression:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    memo = e._d
    if memo is None:
        memo = {}
        _set(e, "_d", memo)
    elif name in memo:
        d = memo[name]()
        if d is not None:
            return d
    d = _derivative(e, name)
    if _is_const(d, 0.0):
        d = ZERO  # not the Const(-0.0) that neg(ZERO) folds to
    # held weakly: a derivative often holds ``e`` itself (d exp(u) = exp(u)*u'),
    # and a strong memo would make that a cycle that outlives every reference
    memo[name] = weakref.ref(d)
    return d


def _derivative(e: Expression, name: str) -> Expression:
    """One differentiation rule at ``e``, an operation node."""
    if isinstance(e, Neg):
        return neg(_differentiate(e.arg, name))
    if isinstance(e, Add):
        return add(_differentiate(e.left, name), _differentiate(e.right, name))
    if isinstance(e, Sub):
        return sub(_differentiate(e.left, name), _differentiate(e.right, name))
    if isinstance(e, Mul):
        return add(
            mul(_differentiate(e.left, name), e.right),
            mul(e.left, _differentiate(e.right, name)),
        )
    if isinstance(e, Div):
        dnum, dden = _differentiate(e.left, name), _differentiate(e.right, name)
        if dden is ZERO:
            # d(a/c) = a'/c: the quotient rule's c*c would overflow for a large c
            return div(dnum, e.right)
        return div(sub(mul(dnum, e.right), mul(e.left, dden)), mul(e.right, e.right))
    if isinstance(e, Pow):
        dbase = _differentiate(e.base, name)
        dexp = _differentiate(e.exponent, name)
        if _is_const(dexp, 0.0) and isinstance(e.exponent, Const):
            # d(b^c) = c * b^(c-1) * b', valid for negative bases with integer c
            c = e.exponent.value
            return mul(mul(Const(c), pow_(e.base, Const(c - 1.0))), dbase)
        # general case needs base > 0 at evaluation time
        return mul(
            e,
            add(
                mul(dexp, call("log", e.base)),
                div(mul(e.exponent, dbase), e.base),
            ),
        )
    if isinstance(e, Call):
        darg = _differentiate(e.arg, name)
        if e.fn == "sin":
            return mul(call("cos", e.arg), darg)
        if e.fn == "cos":
            return neg(mul(call("sin", e.arg), darg))
        if e.fn == "exp":
            return mul(call("exp", e.arg), darg)
        if e.fn == "log":
            return div(darg, e.arg)
        if e.fn == "sqrt":
            return div(darg, mul(Const(2.0), call("sqrt", e.arg)))
        if e.fn == "abs":
            # sign(x) * x' away from zero; evaluation at zero is a domain error
            return mul(div(e.arg, call("abs", e.arg)), darg)
    raise TypeError(f"not an expression node: {e!r}")


# --- structural helpers -----------------------------------------------------


def free_variables(e: Expression) -> frozenset[str]:
    """The coordinate names a tree uses, kept on each node since its construction."""
    return e._fv


def substitute(e: Expression, bindings: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions, rebuilding through the folding helpers.

    It runs the tree's tape under the folding constructors, binding each
    coordinate to ``bindings.get(name, Var(name))``, so a shared subtree is
    rebuilt once.  Too deep a tree raises :class:`ExpressionDepthError`.
    """
    run = _walker(*_tape((e,), e._fv, "substitute"), _REBUILD, Const)
    return run(lambda name: bindings.get(name, Var(name)))[0]


# --- printing ---------------------------------------------------------------


def _printer(template: str, prec: int, *least: int) -> Callable[..., tuple[str, int]]:
    """The print rule of an operation of precedence ``prec``: its operands'
    (text, precedence) pairs in ``template``, each in parentheses where its
    precedence is below its slot's ``least``."""

    def op(*operands: tuple[str, int]) -> tuple[str, int]:
        texts = (f"({t})" if p < m else t for (t, p), m in zip(operands, least))
        return template.format(*texts), prec

    return op


def _printed_const(value: float) -> tuple[str, int]:
    if not math.isfinite(value):
        raise NonFiniteConstantError(f"constant {value!r} has no source text")
    text = repr(int(value)) if value == int(value) and abs(value) < 1e16 else repr(value)
    return text, _PREC_ATOM


def to_source(e: Expression) -> str:
    """Render to text that reparses to an equivalent tree under this grammar.

    It runs the tree's tape under the print rules, so a shared subtree is
    printed once.  Too deep a tree raises :class:`ExpressionDepthError`; an
    inf or nan constant, which the grammar cannot write,
    :class:`NonFiniteConstantError`.
    """
    run = _walker(*_tape((e,), e._fv, "print"), _PRINT, _printed_const)
    return run(lambda name: (name, _PREC_ATOM))[0][0]


# --- compilation ------------------------------------------------------------


def _checked(kind: str, fn: Callable[..., float]) -> Callable[..., float]:
    """``fn`` on Python floats, where a division by zero or a math domain
    error raises :class:`EvaluationDomainError` and an overflow gives inf."""

    def op(*args: float) -> float:
        try:
            return fn(*args)
        except (ValueError, ZeroDivisionError):
            at = ", ".join(map(repr, args))
            raise EvaluationDomainError(f"{kind} domain error at {at}") from None
        except OverflowError:
            return math.inf

    return op


# every operation a tape holds, one row per kind: the one place an operation
# is stated, apart from the function names and the differentiation rules.
# The folding constructors fold two constants by its checked float column,
# and the parser builds through them, by the binding powers of its print rules.
# Columns: the binary node class of the kind; its folding constructor, which
# substitution runs; its generated scalar code, a format of the operands'
# texts; its numpy ufunc, which the batch backend runs; the float operation
# the code calls, which the checked run wraps; and its print rule.
_OPS = {
    "+": (Add, add, "({} + {})", np.add, operator.add,
          _printer("{} + {}", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1)),
    "-": (Sub, sub, "({} - {})", np.subtract, operator.sub,
          _printer("{} - {}", _PREC_ADD, _PREC_ADD, _PREC_ADD + 1)),
    "*": (Mul, mul, "({} * {})", np.multiply, operator.mul,
          _printer("{}*{}", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1)),
    "/": (Div, div, "({} / {})", np.divide, operator.truediv,
          _printer("{}/{}", _PREC_MUL, _PREC_MUL, _PREC_MUL + 1)),
    "neg": (None, neg, "(-{})", np.negative, operator.neg, _printer("-{}", _PREC_NEG, _PREC_ATOM)),
    # a base that is not atomic is parenthesised: '^' grabs a bare '-x' first
    "pow": (None, pow_, "_pow({}, {})", np.power, math.pow,
            _printer("{}^{}", _PREC_POW, _PREC_ATOM, _PREC_POW)),
    # b^2: every backend computes it as b * b, as np.power does
    "sq": (None, partial(pow_, exponent=TWO), "({0} * {0})", np.square, lambda b: b * b,
           _printer("{}^2", _PREC_POW, _PREC_ATOM)),
    **{f: (None, partial(call, f), f"_{f}({{}})", getattr(np, f), fn,
           _printer(f"{f}({{}})", _PREC_ATOM, 0)) for f, fn in _FUNCTIONS.items()},
}
# each runner's table: one column of the rows, by kind
_REBUILD, _CODE, _BATCH, _FLOAT, _PRINT = (
    {kind: row[column] for kind, row in _OPS.items()} for column in range(1, 6))
_NODE_KINDS = {row[0]: kind for kind, row in _OPS.items() if row[0]}
_CHECKED_OPS = {kind: _checked(kind, fn) for kind, fn in _FLOAT.items()}


# what the generated scalar code may raise where ``_CHECKED_OPS`` raises a
# domain error or saturates an overflow
_SCALAR_RAISES = (ValueError, ZeroDivisionError, OverflowError)
_MAX_NESTING = 100  # inline text with more "(" is bound: Python's parser stops at 200


def _tape(
    exprs: tuple[Expression, ...], names: Iterable[str], verb: str = "compile"
) -> tuple[list, list]:
    """The trees' nodes, each numbered once after its operands, and the roots' numbers.

    An entry is ``("var", name)``, ``("const", value)`` or an operation: its
    kind (a key of ``_OPS``), then its operands' numbers; ``b^2`` is
    ``("sq", b)``, apart from a product ``b*b``.  Nodes are interned, so a
    subexpression used more than once, across the trees or within them, is
    one entry, and a shared subtree is walked once.  Too deep a tree raises
    :class:`ExpressionDepthError`, saying it is too deep to ``verb``; a
    coordinate outside ``names``, :class:`UnboundVariableError`.
    """
    tape: list[tuple] = []
    numbered: dict[Expression, int] = {}

    def number(e: Expression) -> int:
        if e in numbered:
            return numbered[e]
        if isinstance(e, Const):
            entry = ("const", e.value)
        elif isinstance(e, Var):
            entry = ("var", e.name)
        elif isinstance(e, Neg):
            entry = ("neg", number(e.arg))
        elif isinstance(e, _Binary):
            entry = (_NODE_KINDS[type(e)], number(e.left), number(e.right))
        elif isinstance(e, Pow):
            base = number(e.base)
            entry = ("sq", base) if e.exponent is TWO else ("pow", base, number(e.exponent))
        elif isinstance(e, Call):
            entry = (e.fn, number(e.arg))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        numbered[e] = len(tape)
        tape.append(entry)
        return numbered[e]

    try:
        roots = [number(e) for e in exprs]
    except RecursionError:
        raise ExpressionDepthError(f"expression is nested too deeply to {verb}") from None
    finally:
        numbered.clear()  # ``number`` calls itself, a cycle: it must not keep nodes alive
    if unknown := {arg for kind, arg, *_ in tape if kind == "var"} - set(names):
        message = f"expression uses {sorted(unknown)} outside context {tuple(names)}"
        raise UnboundVariableError(message)
    return tape, roots


def _walker(
    tape: list[tuple], roots: list[int], ops: Mapping[str, Callable], number: Callable
) -> Callable:
    """``run(coordinate)``, the roots' values as a tuple, from the tape run under ``ops``.

    The run binds each coordinate entry to ``coordinate(name)`` and each
    constant to ``number(value)``, applies ``ops[kind]`` to each operation's
    operands in tape order, and drops each value after its last use: the
    batch backend on numpy columns under the ufuncs, the checked scalar run
    on Python floats under ``_CHECKED_OPS``, printing on (text, precedence)
    pairs under the print rules, substitution on trees under the folding
    constructors.  It holds no tree node.
    """
    last = {arg: i for i, (kind, *args) in enumerate(tape) if kind in ops for arg in args}
    last.update(dict.fromkeys(roots))  # a root is never dropped
    initial: list = [None] * len(tape)  # a run's values before its first operation
    coordinates, steps = [], []  # (entry, name); (op, operands, entry, drops)
    for index, (kind, *args) in enumerate(tape):
        if kind == "var":
            coordinates.append((index, args[0]))
        elif kind == "const":
            initial[index] = number(args[0])
        else:
            drops = tuple({arg for arg in args if last[arg] == index})
            steps.append((ops[kind], tuple(args), index, drops))

    def run(coordinate: Callable[[str], object]) -> tuple:
        values = initial.copy()
        for index, name in coordinates:
            values[index] = coordinate(name)
        for op, args, index, drops in steps:
            values[index] = op(*[values[arg] for arg in args])
            for arg in drops:
                values[arg] = None
        return tuple(values[root] for root in roots)

    return run


def _python_source(tape: list[tuple], roots: list[int]) -> tuple[list, list, dict]:
    """Python statements, one result text per root, and the constants they name.

    An operation used more than once is computed once into a local; every
    other one is written inline where it is used, up to ``_MAX_NESTING``
    parentheses.  Each distinct constant text is a name, and the returned
    dict maps the constant's ``repr`` to it: ``0.0`` and ``-0.0`` get a name
    each, while every nan shares one.  A coordinate is written as its name.
    """
    uses = Counter(roots)
    for kind, *args in tape:
        if kind in _OPS:  # a square's text names its operand twice
            uses.update(args * 2 if kind == "sq" else args)
    lines: list[str] = []
    texts: list[str] = []  # each entry's inline text, or its local
    constants: dict[str, str] = {}
    for index, (kind, *args) in enumerate(tape):
        if kind == "var":
            text = args[0]
        elif kind == "const":
            text = constants.setdefault(repr(args[0]), f"_k{len(constants)}")
        else:
            text = _CODE[kind].format(*(texts[arg] for arg in args))
            if uses[index] > 1 or text.count("(") > _MAX_NESTING:
                lines.append(f"_{index} = {text}")
                text = f"_{index}"
        texts.append(text)
    return lines, [texts[root] for root in roots], constants


def _batch(e: Expression | Sequence[Expression], ctx: VariableContext) -> Callable:
    """Build the batch function of a tree, or one returning a tuple for a sequence.

    The function takes an (m, dim) array, one row per point, binds the
    coordinates as the columns of its float64 transpose, and runs the tape
    under ``_BATCH``, one numpy ufunc per operation, every floating-point
    error ignored, each value dropped after its last use.  It holds no tree
    node.
    """
    single = isinstance(e, Expression)
    # numpy constants, so that a constant 1/0 gives inf
    run = _walker(*_tape((e,) if single else tuple(e), ctx.names), _BATCH, np.float64)
    dim = ctx.dim

    def batch(points):
        coords = np.asarray(points, dtype=np.float64).T
        if len(coords) != dim:
            raise ValueError(f"points have {len(coords)} coordinates, context has {dim}")
        with np.errstate(all="ignore"):
            results = run(lambda name: coords[ctx.index(name)])
        return results[0] if single else results

    return batch


def compile_scalar(e: Expression | Sequence[Expression], ctx: VariableContext) -> Callable:
    """Generate ``f(t, x1, ..., xn)`` with exactly the values of :func:`evaluate`.

    The function ignores its time argument ``t`` and takes the coordinates,
    ordered as ``ctx.names``, as separate floats: the integrator calls it
    once per stage, and a point call as ``f(0.0, *point)``.  One tree gives
    a float; a sequence of trees gives a tuple of floats from one call.  It
    runs the statements of :func:`_python_source`; where they raise
    ValueError, ZeroDivisionError or OverflowError, it runs the same tape
    under ``_CHECKED_OPS`` at that point instead (built at the first such
    point), so it agrees with :func:`evaluate` by construction.  It holds no
    tree node.  Too deep a tree raises :class:`ExpressionDepthError`.
    """
    single = isinstance(e, Expression)
    tape, roots = _tape((e,) if single else tuple(e), ctx.names)
    lines, results, constants = _python_source(tape, roots)
    body = results[0] if single else "(" + "".join(f"{r}, " for r in results) + ")"
    # the operations the code calls by name, and no builtins
    namespace = {f"_{kind}": fn for kind, fn in _FLOAT.items() if _CODE[kind][0] == "_"}
    namespace["__builtins__"] = {}
    namespace.update((name, float(text)) for text, name in constants.items())
    statements = "".join(f"        {line}\n" for line in [*lines, f"return {body}"])
    coords = ", ".join(ctx.names)
    source = (
        f"def _compiled(_t, {coords}):\n    try:\n{statements}"
        f"    except _raises:\n        return _fallback({coords})\n"
    )
    run = None  # the checked run, built at the first point that falls back

    def fallback(*point):
        nonlocal run
        run = run or _walker(tape, roots, _CHECKED_OPS, float)
        values = run(dict(zip(ctx.names, map(float, point))).__getitem__)
        return values[0] if single else values

    namespace.update(_fallback=fallback, _raises=_SCALAR_RAISES)
    exec(compile(source, "<sodelab-expr>", "exec"), namespace)
    # taken out of its own globals, so that the two make no reference cycle
    return namespace.pop("_compiled")
