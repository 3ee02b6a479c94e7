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

Literals must be finite (``1e999`` is refused) and trees no deeper than
``MAX_DEPTH`` nodes; ``parse`` raises ``ExprParseError`` otherwise.

Evaluation follows IEEE doubles but never lets a NaN escape: a non-finite t
or used state component and every domain violation (log of a nonpositive
value, division by zero, overflow, ...) raise ``ExprDomainError`` carrying
the byte offset of the variable or subexpression.

``ExprFunction`` writes the tree out as one straight-line Python function
per backend, a local per node with every rule inline, from one table
(``_OPS``) that spells each operation and rule once.  The backends differ in
the names they bind, in where they check that a value is finite, and in what
a failed check does:

* ``f(t, x)`` binds ``math`` and raises ``ExprDomainError`` (message and
  offset) or ``ModulusOverflowError``.  It is the reference semantics, and
  only this scalar path reports errors.  It checks every input and every
  value that can overflow, because its error names the first subexpression
  that went non-finite.  The tests check it bit for bit against a recursive
  walk of the tree.
* ``f.batch(ts, xs) -> array`` binds numpy and evaluates ``m`` samples at
  once: ``ts`` has shape ``(m,)`` and ``xs`` shape ``(m, n)``, or is omitted
  for expressions in ``t`` alone.  It returns ``None`` when any sample
  breaks a rule; callers then run the scalar path, which raises the error.
  It only needs to know that some sample went non-finite, not where, so it
  checks the operands of the operations in ``_HIDES``, which can turn inf
  or NaN into a finite value or must not receive one, and the result once;
  every other operation carries inf or NaN through to the result or trips
  a rule.  Batched values agree with ``f`` up to the last-bit differences
  between numpy's and libm's ``exp``, ``log`` and ``pow``.

This is the batch protocol that the sampling code of the package looks for
(see ``solver.IVProblem``).

A third placement serves code that inlines the statements: the Euler step
loop of ``solver`` writes each ``ExprFunction`` rhs into its body, with its
own local names and its reads of t and the state from the loop's locals.
It binds the scalar names and checks what the batch backend checks: the
operands of ``_HIDES``, every rule, and the result.  A failed check, or an
``ArithmeticError`` or ``ValueError`` on the way, hands that evaluation to
the reference call ``f(t, x)``, which raises the scalar path's error or
returns the same bits.  Every operation and rule is still spelled once,
here.
"""

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ExprDomainError, ExprParseError, ModulusOverflowError
from .moduli import omega_k

__all__ = ["parse", "to_source", "ExprFunction", "FUNCTIONS", "MAX_DEPTH"]

# the deepest tree ``parse`` accepts, in nodes from root to leaf; it keeps the
# recursive parser, emitter and printer far from Python's recursion limit
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"

FUNCTIONS = {  # name -> arity
    "sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "sign": 1, "heaviside": 1,
    "min": 2, "max": 2, "norm_inf": 1, "omega_k": 2,
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
            raise ConfigurationError(f"the number of state variables must be >= 0, got {n}")
        self.n = n
        self.tokens = _tokenize(src)
        self.i = 0
        self.level = 0  # parse_expr calls in progress

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
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprParseError(_TOO_DEEP, self.peek()[2])
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
        self.level -= 1
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
            if float(text) == math.inf:
                raise ExprParseError(f"numeric literal {text} overflows to inf", pos)
            return Num(value=float(text), pos=pos)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                return self.parse_call(text, pos)
            return self.parse_variable(text, pos)
        raise ExprParseError(f"unexpected token {text!r}", pos, expected=("number", "name", "(", "-"))

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
            raise ExprParseError(f"unknown function {name!r}", pos, expected=tuple(sorted(FUNCTIONS)))
        self.expect_op("(")
        args = [self.parse_expr()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            args.append(self.parse_expr())
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ExprParseError(f"{name} expects {FUNCTIONS[name]} argument(s), got {len(args)}", pos)
        if name == "norm_inf":
            if not isinstance(args[0], VecX):
                raise ExprParseError("norm_inf expects the state vector x as its argument", pos)
        else:
            for a in args:
                self._scalar(a, pos)
        if name == "omega_k":
            k = args[0]
            if not isinstance(k, Num) or k.value != int(k.value) or k.value < 1:
                raise ExprParseError(
                    "omega_k expects an integer literal k >= 1 as its first argument", pos)
        return Call(name=name, args=tuple(args), pos=pos)

    @staticmethod
    def _scalar(node, pos):
        if isinstance(node, VecX):
            raise ExprParseError("the vector x is only legal inside norm_inf(x)", node.pos)


def parse(src, n):
    """Parse an expression over t and x1..xn; n = 0 forbids state variables."""
    parser = _Parser(src, n)
    tree = parser.parse_expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ExprParseError(f"trailing input {text!r}", pos, expected=("end",))
    parser._scalar(tree, 0)
    # a chain such as x1 + 0 + 0 ... nests without nesting the parser's calls
    level = [tree]
    for _ in range(MAX_DEPTH):
        level = [child for node in level for child in _children(node)]
    if level:
        raise ExprParseError(_TOO_DEEP, level[0].pos)
    return tree


def _children(node):
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    return tuple(node.args) if isinstance(node, Call) else ()


# -- the emitter -------------------------------------------------------------
#
# ``_OPS`` holds, per operation: the spelling of its value, its domain rules
# as (predicate, ExprDomainError message), the message of the finiteness
# check on its value (None: the value is finite whenever its operands are),
# and the exception its value may raise with the message that replaces it.
# Spellings name the operands {a} and {b}, the value {v}, a state index {j}
# (0-based) or {k} (1-based), the read of an input {read} (``_READS``), and
# backend names such as ``sin`` or ``trunc``.  Predicates use ``&`` so that
# they also hold elementwise.

_NONFINITE = "non-finite value {v}"

_OPS = {
    "t": ("{read}", (), "non-finite input t = {v}", None),
    "x<k>": ("{read}", (), "non-finite input x{k} = {v}",
             ("IndexError", "state vector too short for x{k}")),
    "x": ("{read}", (("nonfinite({read})", "non-finite input in the state vector x"),), None, None),
    "neg": ("-{a}", (), None, None),
    "+": ("{a} + {b}", (), _NONFINITE, None),
    "-": ("{a} - {b}", (), _NONFINITE, None),
    "*": ("{a} * {b}", (), _NONFINITE, None),
    "/": ("{a} / {b}", (("{b} == 0.0", "division by zero"),), _NONFINITE, None),
    "^": ("pow({a}, {b})", (
        ("({a} < 0.0) & ({b} != trunc({b}))", "negative base {a} with non-integer exponent {b}"),
        ("({a} == 0.0) & ({b} < 0.0)", "zero base with negative exponent"),
    ), _NONFINITE, ("OverflowError", "overflow in power")),
    "sin": ("sin({a})", (), None, None),
    "cos": ("cos({a})", (), None, None),
    "exp": ("exp({a})", (), _NONFINITE, ("OverflowError", "overflow in exp({a})")),
    "log": ("log({a})", (("{a} <= 0.0", "log of nonpositive value {a}"),), None, None),
    "sqrt": ("sqrt({a})", (("{a} < 0.0", "sqrt of negative value {a}"),), None, None),
    "abs": ("abs({a})", (), None, None),
    "sign": ("({a} > 0.0) * 1.0 - ({a} < 0.0)", (), None, None),
    "heaviside": ("({a} > 0.0) * 1.0", (), None, None),
    "min": ("min({a}, {b})", (), None, None),
    "max": ("max({a}, {b})", (), None, None),
    "norm_inf": ("norm({a})", (), None, ("ValueError", "norm_inf(x) with an empty state vector")),
    # {a} is the literal k, passed as the int {k}
    "omega_k": ("real(omega_k({k}, {b}))", (("{b} < 0.0", "omega_k of negative value {b}"),),
                _NONFINITE, None),
}


# The operations that can map a non-finite operand to a finite value (1/inf,
# inf^0, exp(-inf), sign, heaviside, min, max) or must not receive one
# (omega_k raises ValueError): the batch backend checks their operands.
_HIDES = frozenset({"/", "^", "exp", "sign", "heaviside", "min", "max", "omega_k"})


# How the inputs are read from the arguments of ``f(t, x)``.  Code that holds
# the inputs elsewhere, such as the Euler step loop with its state in locals,
# passes its own spellings.
_READS = {"t": "real(t)", "x<k>": "real(x[{j}])", "x": "x"}


class _Bail(Exception):
    """A batched sample broke a domain rule; the scalar path reports it."""


# A backend: the names of the table, the test of a rule's predicate, the test
# that a value is not finite, the statement that ends a failed check, and the
# operations whose operands are checked, or None to check each value that
# ``_OPS`` gives a finiteness message.  The batch function takes ``x``
# transposed, so that ``x[j]`` is component j in both.
_SCALAR = (
    {
        "real": float, "trunc": int, "sin": math.sin, "cos": math.cos, "exp": math.exp,
        "log": math.log, "sqrt": math.sqrt, "pow": math.pow, "abs": abs, "min": min, "max": max,
        "norm": lambda x: float(max(map(abs, x))),
        "nonfinite": lambda x: not all(map(math.isfinite, x)),
        "fail": ExprDomainError,
    },
    "{}", "{v} - {v} != 0.0", "raise fail({msg}, {pos}) from None",  # v - v is NaN for inf, NaN
    None,
)
_BATCH = (
    {
        "real": np.asarray, "trunc": np.trunc, "sin": np.sin, "cos": np.cos, "exp": np.exp,
        "log": np.log, "sqrt": np.sqrt, "pow": np.power, "abs": np.abs,
        # Python's min/max keep the first argument unless the second is
        # strictly smaller/larger; np.minimum/np.maximum would not
        "min": lambda a, b: np.where(b < a, b, a),
        "max": lambda a, b: np.where(b > a, b, a),
        "norm": lambda x: np.abs(x).max(axis=0),
        "nonfinite": lambda x: ~np.isfinite(x),
        "any": np.logical_or.reduce, "isfinite": np.isfinite, "fail": _Bail,
    },
    # a subexpression without variables is a Python float, and its rule a bool
    "any({}, axis=None)", "not isfinite({v}).all()", "raise fail", _HIDES,
)
# The third placement (see the module docstring): a failed check raises
# ``ArithmeticError``, which the code around the statements catches.
_HANDED = (*_SCALAR[:3], "raise ArithmeticError", _HIDES)


def _number(node):
    if isinstance(node, Num) and type(node.value) in (int, float) and math.isfinite(node.value):
        return float(node.value)
    raise TypeError(f"not a parsed number: {node!r}")


def _key(node):
    """The ``_OPS`` key and index fields of a node the parser can produce.

    Everything that reaches the emitted source passes here or ``_number``:
    int offsets and indices, operators of ``_BP`` and names of ``FUNCTIONS``
    with their argument counts.
    """
    if type(getattr(node, "pos", None)) is int:
        if isinstance(node, VarT):
            return "t", {}
        if isinstance(node, VecX):
            return "x", {}
        if isinstance(node, VarX) and type(node.index) is int and node.index >= 1:
            return "x<k>", {"j": node.index - 1, "k": node.index}
        if isinstance(node, Neg):
            return "neg", {}
        if isinstance(node, BinOp) and node.op in _BP:
            return node.op, {}
        if isinstance(node, Call) and FUNCTIONS.get(node.name) == len(node.args):
            if node.name != "omega_k":
                return node.name, {}
            k = _number(node.args[0])
            if k == int(k) >= 1:
                return "omega_k", {"k": int(k)}
    raise TypeError(f"not a parsed expression: {node!r}")


def _walk(tree):
    """Every node of ``tree``, level by level."""
    level = [tree]
    while level:
        yield from level
        level = [child for node in level for child in _children(node)]


def _source(tree, backend, prefix="v", reads=_READS, target="return {}"):
    """The statements that compute ``tree``: one local per node, its checks inline.

    Every backend checks every rule.  The scalar backend also checks each
    value that ``_OPS`` gives a finiteness message, so that its error names
    the subexpression; the others check only the operands of the operations
    in ``_HIDES``, and their callers check the result.
    The locals are named ``prefix`` and a number, the inputs are read as
    ``reads`` spells them, and the last statement is ``target`` with the
    value's name or literal in place of ``{}``.  A node's value takes the name
    of a value no longer needed, so that a batch holds about as many arrays
    at once as a recursive evaluation.
    """
    _, test, nonfinite, fail, checked = backend
    lines, inputs, temps, free, serial = [], {}, set(), [], itertools.count()

    def emit(node, vector=False):
        if isinstance(node, VecX) != vector:
            raise TypeError(f"the vector x is only legal inside norm_inf(x): {node!r}")
        if isinstance(node, Num):
            return repr(_number(node))
        key, fields = _key(node)
        slot = (key, fields.get("j"))
        if slot in inputs:  # inputs are loaded and checked once
            return inputs[slot]
        value, rules, finite, guard = _OPS[key]
        operands = [emit(c, key == "norm_inf") for c in _children(node)]
        free.extend(o for o in operands if o in temps)  # each is read by this node alone
        v = free.pop() if free else f"{prefix}{next(serial)}"
        (temps.add if operands else temps.discard)(v)
        names = dict(zip("ab", operands), v=v)
        if key in reads:
            fields = {**fields, "read": reads[key].format(**fields)}
        code = {**names, **fields}
        text = {**fields, **{n: "{" + s + "}" for n, s in names.items()}}

        def fails(message):
            return fail.format(msg="f" + repr(message.format(**text)), pos=node.pos)

        if checked is not None and key in checked:  # a literal is finite
            lines.extend(f"if {nonfinite.format(v=o)}: {fail}"
                         for c, o in zip(_children(node), operands) if not isinstance(c, Num))
        lines.extend(f"if {test.format(pred.format(**code))}: {fails(msg)}" for pred, msg in rules)
        statement = f"{v} = {value.format(**code)}"
        lines.extend([statement] if guard is None else [
            "try:", f"    {statement}", f"except {guard[0]}:", f"    {fails(guard[1])}"])
        if finite is not None and checked is None:
            lines.append(f"if {nonfinite.format(v=v)}: {fails(finite)}")
        if not operands:
            inputs[slot] = v
        return v

    result = emit(tree)
    return [*lines, target.format(result)]


def _define(source, name, backend, **extra):
    """The function ``name`` that ``source`` defines, run in a namespace of
    the backend's names and ``extra`` whose only builtin is ``__import__``:
    numpy's C code imports some helpers on first use (``ndarray.any`` does)
    through the builtins of the calling frame."""
    scope = {"__builtins__": {"__import__": __import__}, "omega_k": omega_k, "IndexError": IndexError,
             "OverflowError": OverflowError, "ValueError": ValueError, "ArithmeticError": ArithmeticError,
             **backend[0], **extra}
    exec(compile(source, "<expr>", "exec"), scope)
    return scope[name]


def _function(tree, backend):
    """``tree`` compiled for one backend as ``f(t, x)``."""
    body = "".join(f"    {line}\n" for line in _source(tree, backend))
    return _define("def f(t, x):\n" + body, "f", backend)


class ExprFunction:
    """A parsed expression as a callable with a batched twin.

    Construction emits and compiles two straight-line functions from the
    tree, and refuses with ``TypeError`` a tree that ``parse`` cannot
    produce.  ``f(t, x)`` is the reference value of the tree, or raises its
    domain error; ``f.batch(ts, xs)`` evaluates many samples at once or
    returns ``None`` (see the module docstring).
    Expressions in ``t`` alone (``n = 0``) are called as ``f(t)`` and
    batched as ``f.batch(ts)``.
    """

    def __init__(self, tree, source=None):
        self.tree = tree
        self.source = to_source(tree) if source is None else source
        self._evaluate = _function(tree, _SCALAR)
        self._batched = _function(tree, _BATCH)

    def __call__(self, t, x=()):
        return self._evaluate(t, x)

    def batch(self, ts, xs=None):
        ts = np.asarray(ts, dtype=float)
        xs = np.empty((ts.size, 0)) if xs is None else np.asarray(xs, dtype=float)
        if xs.ndim != 2 or len(xs) != ts.size:  # the batch function reads x[j] from xs.T
            raise ValueError(f"xs must have shape ({ts.size}, n), got {xs.shape}")
        try:
            with np.errstate(all="ignore"):
                out = self._batched(ts, xs.T)
        except (_Bail, ModulusOverflowError):
            return None
        if not np.isfinite(out).all():
            return None
        # a constant is a float and a bare variable a view of ts or xs; any
        # other value is an array the batch function made
        if np.ndim(out) == 0 or isinstance(self.tree, (VarT, VarX)):
            return np.full(ts.shape, out, dtype=float)
        return out

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
