"""A small total expression language for right-hand sides and moduli.

Grammar (standard infix):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 't' | 'x<k>' | 'x' | NAME '(' expr (',' expr)* ')'
             | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-2^2``
is ``-(2^2) = -4``.  Variables are ``t`` and the state components ``x1`` ..
``xn``; the bare vector ``x`` is only legal as the argument of
``norm_inf``.  Functions: sin, cos, exp, log, sqrt, abs, min, max, sign,
heaviside, norm_inf, omega_k (first argument an integer literal).  There
are no user-defined functions and no conditionals; piecewise right-hand
sides are written with heaviside products, which keeps evaluation total.

Evaluation follows IEEE doubles but never lets a NaN escape: domain
violations (log of a nonpositive value, division by zero, overflow, ...)
raise ``ExprDomainError`` carrying the byte offset of the subexpression.

``ExprFunction`` wraps a parsed tree as a callable and compiles it once into
closures over numpy ufuncs.  It speaks the batch protocol that the sampling
code of the package looks for:

* ``f(t, x)`` walks the tree with ``eval_expr``.  This scalar path is the
  reference semantics and the only path that reports errors.
* ``f.batch(ts, xs) -> array`` evaluates ``m`` samples at once: ``ts`` has
  shape ``(m,)`` and ``xs`` shape ``(m, n)``, or is omitted for expressions
  in ``t`` alone.  It returns ``None`` when any sample breaks a domain rule
  (or any input is non-finite); callers then run the scalar path, which
  raises the same ``ExprDomainError``, at the same offset, as it always
  would.  Batched values agree with the scalar walk up to the last-bit
  differences between numpy's and libm's ``exp``, ``log`` and ``pow``.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprDomainError, ExprParseError, ModulusOverflowError
from .moduli import omega_k

__all__ = ["parse", "eval_expr", "to_source", "ExprFunction", "FUNCTIONS"]

# name -> arity
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "sign": 1,
    "heaviside": 1,
    "min": 2,
    "max": 2,
    "norm_inf": 1,
    "omega_k": 2,
}


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VarT:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VarX:
    index: int  # 1-based
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VecX:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = field(default=0, compare=False)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            where = len(src) - len(stripped)
            raise ExprParseError(
                f"unexpected character {stripped[0]!r}", where,
                expected=("number", "name", "operator"),
            )
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


class _Parser:
    def __init__(self, src, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprParseError(f"expected {op!r}", pos, expected=(op,))
        return self.next()

    # precedence-climbing over +- (10), */ (20), ^ (30, right-assoc);
    # unary minus sits between */ and ^ so that -2^2 == -(2^2)
    def parse_expr(self, min_bp=0):
        lhs = self.parse_unary()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _BP:
                break
            bp = _BP[text]
            if bp < min_bp:
                break
            self.next()
            rhs = self.parse_expr(bp if text == "^" else bp + 1)
            self._scalar(lhs, pos)
            self._scalar(rhs, pos)
            lhs = BinOp(op=text, left=lhs, right=rhs, pos=pos)
        return lhs

    def parse_unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            operand = self.parse_expr(25)  # tighter than */ looser than ^
            self._scalar(operand, pos)
            return Neg(operand=operand, pos=pos)
        return self.parse_atom()

    def parse_atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(value=float(text), pos=pos)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                return self.parse_call(text, pos)
            return self.parse_variable(text, pos)
        raise ExprParseError(
            f"unexpected token {text!r}", pos, expected=("number", "name", "(", "-")
        )

    def parse_variable(self, text, pos):
        if text == "t":
            return VarT(pos=pos)
        if text == "x":
            return VecX(pos=pos)
        m = re.fullmatch(r"x(\d+)", text)
        if m:
            idx = int(m.group(1))
            if not 1 <= idx <= self.n:
                raise ExprParseError(
                    f"variable x{idx} out of range (n={self.n})", pos,
                    expected=tuple(f"x{i}" for i in range(1, self.n + 1)),
                )
            return VarX(index=idx, pos=pos)
        raise ExprParseError(
            f"unknown identifier {text!r}", pos,
            expected=("t", "x<k>") + tuple(sorted(FUNCTIONS)),
        )

    def parse_call(self, name, pos):
        if name not in FUNCTIONS:
            raise ExprParseError(
                f"unknown function {name!r}", pos, expected=tuple(sorted(FUNCTIONS))
            )
        self.expect_op("(")
        args = [self.parse_expr()]
        while True:
            kind, text, p2 = self.peek()
            if kind == "op" and text == ",":
                self.next()
                args.append(self.parse_expr())
            else:
                break
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ExprParseError(
                f"{name} expects {FUNCTIONS[name]} argument(s), got {len(args)}", pos
            )
        if name == "norm_inf":
            if not isinstance(args[0], VecX):
                raise ExprParseError(
                    "norm_inf expects the state vector x as its argument", pos
                )
        else:
            for a in args:
                self._scalar(a, pos)
        if name == "omega_k":
            k = args[0]
            if not isinstance(k, Num) or k.value != int(k.value) or k.value < 1:
                raise ExprParseError(
                    "omega_k expects an integer literal k >= 1 as its first argument",
                    pos,
                )
        return Call(name=name, args=tuple(args), pos=pos)

    @staticmethod
    def _scalar(node, pos):
        if isinstance(node, VecX):
            raise ExprParseError(
                "the vector x is only legal inside norm_inf(x)", node.pos
            )


def parse(src, n):
    """Parse an expression over t and x1..xn; n = 0 forbids state variables."""
    parser = _Parser(src, n)
    tree = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ExprParseError(f"trailing input {text!r}", pos, expected=("end",))
    parser._scalar(tree, 0)
    return tree


def _fin(value, node):
    if isinstance(value, float) and not math.isfinite(value):
        raise ExprDomainError(f"non-finite value {value}", node.pos)
    return value


def eval_expr(tree, t, x=()):
    """Evaluate a parsed expression; finite result or ExprDomainError."""
    if isinstance(tree, Num):
        return tree.value
    if isinstance(tree, VarT):
        return float(t)
    if isinstance(tree, VarX):
        try:
            return float(x[tree.index - 1])
        except IndexError:
            raise ExprDomainError(
                f"state vector too short for x{tree.index}", tree.pos
            ) from None
    if isinstance(tree, Neg):
        return -eval_expr(tree.operand, t, x)
    if isinstance(tree, BinOp):
        a = eval_expr(tree.left, t, x)
        b = eval_expr(tree.right, t, x)
        op = tree.op
        if op == "+":
            return _fin(a + b, tree)
        if op == "-":
            return _fin(a - b, tree)
        if op == "*":
            return _fin(a * b, tree)
        if op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", tree.pos)
            return _fin(a / b, tree)
        if op == "^":
            if a < 0.0 and b != int(b):
                raise ExprDomainError(
                    f"negative base {a} with non-integer exponent {b}", tree.pos
                )
            if a == 0.0 and b < 0.0:
                raise ExprDomainError("zero base with negative exponent", tree.pos)
            try:
                return _fin(math.pow(a, b), tree)
            except OverflowError:
                raise ExprDomainError("overflow in power", tree.pos) from None
    if isinstance(tree, Call):
        return _eval_call(tree, t, x)
    raise TypeError(f"not an expression node: {tree!r}")


def _eval_call(tree, t, x):
    name = tree.name
    if name == "norm_inf":
        if len(x) == 0:
            raise ExprDomainError("norm_inf(x) with an empty state vector", tree.pos)
        return max(abs(float(v)) for v in x)
    if name == "omega_k":
        k = int(tree.args[0].value)
        s = eval_expr(tree.args[1], t, x)
        if s < 0:
            raise ExprDomainError(f"omega_k of negative value {s}", tree.pos)
        return _fin(float(omega_k(k, s)), tree)
    a = eval_expr(tree.args[0], t, x)
    if name == "sin":
        return math.sin(a)
    if name == "cos":
        return math.cos(a)
    if name == "exp":
        try:
            return _fin(math.exp(a), tree)
        except OverflowError:
            raise ExprDomainError(f"overflow in exp({a})", tree.pos) from None
    if name == "log":
        if a <= 0.0:
            raise ExprDomainError(f"log of nonpositive value {a}", tree.pos)
        return math.log(a)
    if name == "sqrt":
        if a < 0.0:
            raise ExprDomainError(f"sqrt of negative value {a}", tree.pos)
        return math.sqrt(a)
    if name == "abs":
        return abs(a)
    if name == "sign":
        return float((a > 0.0) - (a < 0.0))
    if name == "heaviside":
        return 1.0 if a > 0.0 else 0.0
    b = eval_expr(tree.args[1], t, x)
    if name == "min":
        return min(a, b)
    if name == "max":
        return max(a, b)
    raise TypeError(f"unhandled function {name!r}")


class _Bail(Exception):
    """A batched sample broke a domain rule; the scalar walk reports it."""


# Operands are numpy arrays or numpy scalars, so the reductions below are
# the cheap ``.all()`` / ``.any()`` methods.
def _finite(v):
    if not np.isfinite(v).all():
        raise _Bail
    return v


def _divide(a, b):
    if (b == 0.0).any():
        raise _Bail
    return _finite(a / b)


def _power(a, b):
    if ((a < 0.0) & (b != np.trunc(b))).any() or ((a == 0.0) & (b < 0.0)).any():
        raise _Bail
    return _finite(np.power(a, b))


def _log(a):
    if (a <= 0.0).any():
        raise _Bail
    return np.log(a)


def _sqrt(a):
    if (a < 0.0).any():
        raise _Bail
    return np.sqrt(a)


# The batched operations assume finite operands, which ``ExprFunction.batch``
# guarantees by checking the inputs and every operation that can overflow.
_BATCH_BINOPS = {
    "+": lambda a, b: _finite(a + b),
    "-": lambda a, b: _finite(a - b),
    "*": lambda a, b: _finite(a * b),
    "/": _divide,
    "^": _power,
}

_BATCH_UNARY = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": lambda a: _finite(np.exp(a)),
    "log": _log,
    "sqrt": _sqrt,
    "abs": np.abs,
    "sign": lambda a: np.sign(a) + 0.0,  # -0.0 -> 0.0, as in the scalar walk
    "heaviside": lambda a: np.where(a > 0.0, 1.0, 0.0),
}

# Python's min/max keep the first argument unless the second is strictly
# smaller/larger; np.minimum/np.maximum would not.
_BATCH_BINARY = {
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
}


def _compile(tree):
    """A closure ``(ts, xs) -> array or scalar`` evaluating ``tree`` batched."""
    if isinstance(tree, Num):
        value = np.float64(tree.value)
        return lambda t, x: value
    if isinstance(tree, VarT):
        return lambda t, x: t
    if isinstance(tree, VarX):
        j = tree.index - 1

        def component(t, x):
            if x.shape[1] <= j:
                raise _Bail
            return x[:, j]

        return component
    if isinstance(tree, Neg):
        operand = _compile(tree.operand)
        return lambda t, x: -operand(t, x)
    if isinstance(tree, BinOp):
        left, right, op = _compile(tree.left), _compile(tree.right), _BATCH_BINOPS[tree.op]
        return lambda t, x: op(left(t, x), right(t, x))
    if isinstance(tree, Call):
        return _compile_call(tree)
    raise TypeError(f"not an expression node: {tree!r}")


def _compile_call(tree):
    name = tree.name
    if name == "norm_inf":

        def norm_inf(t, x):
            if x.shape[1] == 0:
                raise _Bail
            return np.max(np.abs(x), axis=1)

        return norm_inf
    if name == "omega_k":
        k = int(tree.args[0].value)
        arg = _compile(tree.args[1])

        def modulus(t, x):
            s = arg(t, x)
            if (s < 0.0).any():
                raise _Bail
            try:
                return omega_k(k, s)
            except ModulusOverflowError:
                raise _Bail from None

        return modulus
    args = [_compile(a) for a in tree.args]
    if name in _BATCH_UNARY:
        fn, (a,) = _BATCH_UNARY[name], args
        return lambda t, x: fn(a(t, x))
    fn, (a, b) = _BATCH_BINARY[name], args
    return lambda t, x: fn(a(t, x), b(t, x))


class ExprFunction:
    """A parsed expression as a callable with a batched twin.

    ``f(t, x)`` is ``eval_expr(tree, t, x)``; ``f.batch(ts, xs)`` evaluates
    many samples at once or returns ``None`` (see the module docstring).
    Expressions in ``t`` alone (``n = 0``) are called as ``f(t)`` and
    batched as ``f.batch(ts)``.
    """

    def __init__(self, tree, source=None):
        self.tree = tree
        self.source = to_source(tree) if source is None else source
        self._batched = _compile(tree)

    def __call__(self, t, x=()):
        return eval_expr(self.tree, t, x)

    def batch(self, ts, xs=None):
        ts = np.asarray(ts, dtype=float)
        xs = np.empty((ts.size, 0)) if xs is None else np.asarray(xs, dtype=float)
        if not (np.isfinite(ts).all() and np.isfinite(xs).all()):
            return None
        try:
            with np.errstate(all="ignore"):
                out = self._batched(ts, xs)
        except _Bail:
            return None
        return np.array(np.broadcast_to(out, ts.shape), dtype=float)

    def __repr__(self):
        return f"ExprFunction({self.source!r})"



def to_source(tree, _ctx=0):
    """Pretty-print with minimal parentheses; reparses to an equal tree."""
    if isinstance(tree, Num):
        return repr(tree.value)
    if isinstance(tree, VarT):
        return "t"
    if isinstance(tree, VarX):
        return f"x{tree.index}"
    if isinstance(tree, VecX):
        return "x"
    if isinstance(tree, Neg):
        inner = to_source(tree.operand, 26)
        s = f"-{inner}"
        return f"({s})" if _ctx > 25 else s
    if isinstance(tree, BinOp):
        bp = _BP[tree.op]
        if tree.op == "^":
            left = to_source(tree.left, bp + 1)
            right = to_source(tree.right, bp)
        else:
            left = to_source(tree.left, bp)
            right = to_source(tree.right, bp + 1)
        s = f"{left} {tree.op} {right}"
        return f"({s})" if _ctx > bp else s
    if isinstance(tree, Call):
        args = ", ".join(to_source(a) for a in tree.args)
        return f"{tree.name}({args})"
    raise TypeError(f"not an expression node: {tree!r}")
