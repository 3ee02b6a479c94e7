"""Expression language: grammar, precedence, evaluation, and totality."""

import math
import operator
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import ConfigurationError, ExprDomainError, ExprParseError, StieltjesError
from stieltjes import expr
from stieltjes.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    ExprFunction,
    Neg,
    Num,
    VarT,
    VarX,
    VecX,
    parse,
    to_source,
)
from stieltjes.measure import _sample_finite
from stieltjes.moduli import omega_k

# -- the reference tree walk --------------------------------------------------
#
# A recursive evaluation of a parsed tree, rule by rule.  ExprFunction's scalar
# function must return its bits and raise its errors (message and offset).

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_PLAIN = {"sin": math.sin, "cos": math.cos, "abs": abs, "min": min, "max": max}


def _fin(value, node, message="non-finite value {}"):
    if isinstance(value, float) and not math.isfinite(value):
        raise ExprDomainError(message.format(value), node.pos)
    return value


def eval_expr(tree, t, x=()):
    """Evaluate a parsed expression; finite result or ExprDomainError."""
    if isinstance(tree, Num):
        return tree.value
    if isinstance(tree, VarT):
        return _fin(float(t), tree, "non-finite input t = {}")
    if isinstance(tree, VarX):
        try:
            value = float(x[tree.index - 1])
        except IndexError:
            raise ExprDomainError(f"state vector too short for x{tree.index}", tree.pos) from None
        return _fin(value, tree, f"non-finite input x{tree.index} = {{}}")
    if isinstance(tree, Neg):
        return -eval_expr(tree.operand, t, x)
    if isinstance(tree, BinOp):
        a = eval_expr(tree.left, t, x)
        b = eval_expr(tree.right, t, x)
        op = tree.op
        if op in _ARITH:
            return _fin(_ARITH[op](a, b), tree)
        if op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", tree.pos)
            return _fin(a / b, tree)
        if op == "^":
            if a < 0.0 and b != int(b):
                raise ExprDomainError(f"negative base {a} with non-integer exponent {b}", tree.pos)
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
        values = [abs(float(v)) for v in x]
        if not all(map(math.isfinite, values)):
            raise ExprDomainError("non-finite input in the state vector x", tree.args[0].pos)
        return max(values)
    if name == "omega_k":
        k = int(tree.args[0].value)
        s = eval_expr(tree.args[1], t, x)
        if s < 0:
            raise ExprDomainError(f"omega_k of negative value {s}", tree.pos)
        return _fin(float(omega_k(k, s)), tree)
    args = [eval_expr(arg, t, x) for arg in tree.args]
    if name in _PLAIN:
        return _PLAIN[name](*args)
    a = args[0]
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
    if name == "sign":
        return float((a > 0.0) - (a < 0.0))
    if name == "heaviside":
        return 1.0 if a > 0.0 else 0.0
    raise TypeError(f"unhandled function {name!r}")


def ev(src, t=0.0, x=(), n=None):
    return eval_expr(parse(src, n if n is not None else len(x)), t, x)


class TestParsing:
    def test_variable(self):
        tree = parse("x1", 1)
        assert tree == VarX(index=1)

    def test_unknown_identifier(self):
        with pytest.raises(ExprParseError) as exc:
            parse("phi(t)", 1)
        assert exc.value.offset == 0
        assert "phi" in str(exc.value)
        with pytest.raises(ExprParseError, match="unknown identifier 'y'") as exc:
            parse("y", 1)
        assert exc.value.offset == 0

    def test_composed_tree(self):
        tree = parse("t*omega_k(1, norm_inf(x))", 3)
        assert isinstance(tree.right, Call)
        assert tree.right == Call(name="omega_k", args=(Num(1.0), Call(name="norm_inf", args=(VecX(),))))

    def test_unexpected_character(self):
        with pytest.raises(ExprParseError, match=r"unexpected character '\$'") as exc:
            parse("x1 $ 2", 1)
        assert exc.value.offset == 3

    def test_a_negative_state_count_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="must be >= 0, got -1"):
            parse("t", -1)

    def test_variable_out_of_range(self):
        with pytest.raises(ExprParseError):
            parse("x4", 3)

    def test_arity_mismatch(self):
        with pytest.raises(ExprParseError):
            parse("min(1)", 0)
        with pytest.raises(ExprParseError):
            parse("sin(1, 2)", 0)

    def test_vector_only_inside_norm_inf(self):
        with pytest.raises(ExprParseError):
            parse("x + 1", 2)
        with pytest.raises(ExprParseError):
            parse("sin(x)", 2)
        with pytest.raises(ExprParseError, match="norm_inf expects the state vector x"):
            parse("norm_inf(x1)", 2)

    def test_omega_k_needs_integer_literal(self):
        with pytest.raises(ExprParseError):
            parse("omega_k(t, 1)", 0)
        with pytest.raises(ExprParseError):
            parse("omega_k(1.5, 1)", 0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprParseError) as exc:
            parse("1 + * 2", 0)
        assert exc.value.offset == 4
        with pytest.raises(ExprParseError, match=r"expected '\)'") as exc:
            parse("sin(1", 0)
        assert exc.value.offset == 5

    def test_trailing_input(self):
        with pytest.raises(ExprParseError):
            parse("1 2", 0)


class TestPrecedence:
    def test_golden_mixed(self):
        assert ev("2+3*4^2") == 50.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-2^2") == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_left_assoc_subtraction(self):
        assert ev("10-3-2") == 5.0

    def test_parens(self):
        assert ev("(2+3)*4") == 20.0

    def test_division_chain(self):
        assert ev("8/4/2") == 1.0


class TestEvaluation:
    def test_arithmetic(self):
        assert ev("2+3*4") == 14.0

    def test_omega_k_zero(self):
        assert ev("omega_k(1, 0)") == 0.0

    def test_norm_inf(self):
        assert ev("norm_inf(x)", x=(1.0, -3.0, 2.0)) == 3.0

    def test_variables(self):
        assert ev("t + 2*x2", t=1.5, x=(0.0, 4.0)) == 9.5

    def test_functions(self):
        assert ev("sin(0) + cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(-2)") == 2.0
        assert ev("sign(-7)") == -1.0
        assert ev("sign(0)") == 0.0
        assert ev("min(2, 3) + max(2, 3)") == 5.0

    def test_heaviside_left_continuous_convention(self):
        assert ev("heaviside(t-1)", t=1.0) == 0.0
        assert ev("heaviside(t-1)", t=1.0 + 1e-12) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ExprDomainError):
            ev("log(0)")
        with pytest.raises(ExprDomainError):
            ev("sqrt(-1)")
        with pytest.raises(ExprDomainError):
            ev("1/ (t - t)", t=3.0)
        with pytest.raises(ExprDomainError):
            ev("(-2)^0.5")
        with pytest.raises(ExprDomainError):
            ev("exp(1000)")

    def test_domain_error_carries_offset(self):
        with pytest.raises(ExprDomainError) as exc:
            ev("1 + log(t)", t=0.0)
        assert exc.value.offset == 4


class TestPrintRoundTrip:
    CASES = [
        "2+3*4^2",
        "-2^2",
        "2^3^2",
        "(1+t)/(2-t)",
        "t*omega_k(2, norm_inf(x))",
        "min(t, 1) - max(t, x1)",
        "-(t+1)*3",
        "2^-3",
        "heaviside(t-0.5)*x1 + sign(x2)",
        "x1 ",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_fixpoint(self, src):
        tree = parse(src, 3)
        printed = to_source(tree)
        assert parse(printed, 3) == tree

    def test_a_non_node_is_refused(self):
        with pytest.raises(TypeError, match="not an expression node: 1.0"):
            to_source(1.0)

    def test_values_survive_printing(self):
        for src in self.CASES:
            tree = parse(src, 3)
            x = (0.3, -0.7, 1.1)
            assert eval_expr(parse(to_source(tree), 3), 0.8, x) == eval_expr(tree, 0.8, x)


@given(
    st.recursive(
        st.sampled_from(["t", "x1", "x2", "0.5", "2", "1e-3"]),
        lambda children: st.builds(
            lambda a, op, b: f"({a} {op} {b})",
            children,
            st.sampled_from(["+", "-", "*", "/", "^"]),
            children,
        )
        | st.builds(lambda a, f: f"{f}({a})", children, st.sampled_from(["sin", "cos", "abs", "exp"])),
        max_leaves=12,
    ),
    st.floats(-3, 3),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=300, deadline=None)
def test_no_nan_escape(src, t, a, b):
    # fuzz: evaluation either returns a finite float or raises a structured error
    try:
        tree = parse(src, 2)
    except ExprParseError:
        return
    try:
        value = eval_expr(tree, t, (a, b))
    except ExprDomainError:
        return
    assert isinstance(value, float) and math.isfinite(value)


# -- the batched evaluator -------------------------------------------------

def _leaf(rng, n):
    leaves = ["t", *(f"x{i}" for i in range(1, n + 1)), repr(round(float(rng.uniform(-2, 2)), 6))]
    return leaves[int(rng.integers(len(leaves)))]


def _squashed(s):
    """A random subexpression mapped into (-1, 1), which keeps sin, cos, exp and
    ^ well conditioned: numpy's exp, log and pow differ from libm's in the
    last bit, and a large argument would amplify that difference."""
    z = s()
    return f"({z} / (1 + abs({z})))"


# Each kind builds a node from random subexpressions and keeps every sample
# with t, x in [-2, 2] inside the domain at the depths used below.
_KINDS = {
    "+": lambda s, r: f"({s()} + {s()})",
    "-": lambda s, r: f"({s()} - {s()})",
    "*": lambda s, r: f"({s()} * {s()})",
    "/": lambda s, r: f"({s()} / (1 + abs({s()})))",
    "^": lambda s, r: f"((1.5 + {_squashed(s)}) ^ {_squashed(s)})",
    "^int": lambda s, r: f"({s()}) ^ {int(r.integers(0, 4))}",
    "neg": lambda s, r: f"-{s()}",
    "sin": lambda s, r: f"sin({_squashed(s)})",
    "cos": lambda s, r: f"cos({_squashed(s)})",
    "exp": lambda s, r: f"exp({_squashed(s)})",
    "log": lambda s, r: f"log(1e-3 + abs({s()}))",
    "sqrt": lambda s, r: f"sqrt(abs({s()}))",
    "abs": lambda s, r: f"abs({s()})",
    "sign": lambda s, r: f"sign({s()})",
    "heaviside": lambda s, r: f"heaviside({s()})",
    "min": lambda s, r: f"min({s()}, {s()})",
    "max": lambda s, r: f"max({s()}, {s()})",
    "norm_inf": lambda s, r: f"(norm_inf(x) * {s()})",
    "omega_k": lambda s, r: f"omega_k({int(r.integers(1, 4))}, abs({s()}))",
}


def random_source(rng, n, depth, root=None):
    """A random expression over t and x1..xn with ``root`` as its top node."""
    if root is None:
        if depth == 0 or rng.random() < 0.25:
            return _leaf(rng, n)
        root = list(_KINDS)[int(rng.integers(len(_KINDS)))]
    return _KINDS[root](lambda: random_source(rng, n, depth - 1), rng)


class TestBatch:
    def test_kinds_cover_every_function(self):
        assert set(FUNCTIONS) <= set(_KINDS)

    @pytest.mark.parametrize("root", sorted(_KINDS))
    def test_batch_matches_scalar_walk(self, rng, root):
        n = 2
        ts = rng.uniform(-2, 2, 64)
        xs = rng.uniform(-2, 2, (64, n))
        for _ in range(12):
            f = ExprFunction(parse(random_source(rng, n, 4, root), n))
            scalar = np.array([f(t, x) for t, x in zip(ts, xs)])
            batched = f.batch(ts, xs)
            assert batched is not None, f
            np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0, err_msg=repr(f))

    def test_unary_batch_and_constants(self):
        f = ExprFunction(parse("2", 0))
        np.testing.assert_array_equal(f.batch(np.linspace(0, 1, 3)), [2.0, 2.0, 2.0])
        g = ExprFunction(parse("1 + t", 0))
        np.testing.assert_array_equal(g.batch(np.array([0.5, 1.5])), [g(0.5), g(1.5)])

    def test_python_min_max_semantics_kept(self):
        f = ExprFunction(parse("min(x1, 0) + max(0, x1)", 1))
        xs = np.array([[-0.0], [0.0], [1.0]])
        ts = np.zeros(3)
        np.testing.assert_array_equal(f.batch(ts, xs), [f(t, x) for t, x in zip(ts, xs)])

    def test_min_max_keep_the_first_of_equal_arguments(self):
        for src in ("min(x1, 0)", "max(x1, 0)", "min(0, x1)", "max(0, x1)"):
            f = ExprFunction(parse(src, 1))
            xs = np.array([[-0.0], [0.0]])  # equal, so the first argument wins
            scalar = np.array([f(0.0, x) for x in xs])
            np.testing.assert_array_equal(np.signbit(f.batch(np.zeros(2), xs)), np.signbit(scalar))

    def test_non_finite_input_defers_to_scalar_path(self):
        f = ExprFunction(parse("heaviside(x1)", 1))
        assert f.batch(np.zeros(2), np.array([[1.0], [np.inf]])) is None

    def test_states_of_the_wrong_shape_are_refused(self):
        f = ExprFunction(parse("x1 + t", 1))
        for xs in (np.zeros(3), np.zeros((2, 1)), np.zeros((3, 1, 1))):
            with pytest.raises(ValueError):
                f.batch(np.zeros(3), xs)

    @pytest.mark.parametrize("src", [
        "1 + log(x1)",
        "sqrt(x1 - 1)",
        "t / (x1 - x1)",
        "(x1 - 3) ^ 0.5",
        "x1 ^ -1",
        "2 * exp(800 * x1)",
        "omega_k(1, x1)",
        "omega_k(4, abs(x1))",
        "x1 * 1e308 * 10",
    ])
    def test_domain_error_same_as_scalar_path(self, src):
        f = ExprFunction(parse(src, 1))
        ts = np.linspace(0.0, 1.0, 7)
        xs = np.array([[2.0], [1.5], [1.0], [0.0], [-1.0], [3.0], [0.5]])
        assert f.batch(ts, xs) is None
        with pytest.raises(StieltjesError) as scalar:
            for t, x in zip(ts, xs):
                f(t, x)
        with pytest.raises(StieltjesError) as sampled:
            _sample_finite(f, ts, lambda v, q: AssertionError(v), xs=xs)
        assert type(sampled.value) is type(scalar.value)
        assert str(sampled.value) == str(scalar.value)
        assert getattr(sampled.value, "offset", None) == getattr(scalar.value, "offset", None)


# -- where the batch backend checks finiteness ------------------------------
#
# The batch function checks only the operands of the operations in
# ``expr._HIDES`` and its result.  That is sound when every other operation
# carries a non-finite operand to a non-finite value or trips a rule, and
# each operation in the set needs its check.

_NON_FINITE = (math.inf, -math.inf, math.nan)
_PARTNERS = (0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300)

# every ``_OPS`` key as an expression whose operands are inputs
_OP_SOURCES = {
    "t": "t", "x<k>": "x1", "x": "norm_inf(x)", "norm_inf": "norm_inf(x)", "neg": "-x1",
    **{op: f"x1 {op} x2" for op in "+-*/^"},
    **{name: f"{name}(x1)" for name in ("sin", "cos", "exp", "log", "sqrt", "abs", "sign", "heaviside")},
    "min": "min(x1, x2)", "max": "max(x1, x2)", "omega_k": "omega_k(1, x1)",
}

# an operand that is not finite (t, x1, x2) and the finite value it gives
_WITNESSES = {
    "/": ((0.0, 1.0, math.inf), 0.0),
    "^": ((0.0, math.inf, 0.0), 1.0),
    "exp": ((0.0, -math.inf, 0.0), 0.0),
    "sign": ((0.0, math.inf, 0.0), 1.0),
    "heaviside": ((0.0, math.nan, 0.0), 0.0),
    "min": ((0.0, math.inf, 1.0), 1.0),
    "max": ((0.0, -math.inf, 1.0), 1.0),
}


def _unchecked(src):
    """The batch function of ``src`` without finiteness checks: its operations and rules."""
    return expr._function(parse(src, 2), (*expr._BATCH[:-1], frozenset()))


def _one_sample(fn, t, x):
    """The value of a batch function at one sample, or None when a rule fires."""
    try:
        with np.errstate(all="ignore"):
            return float(np.reshape(fn(np.array([t]), np.array([x]).T), -1)[0])
    except expr._Bail:
        return None


def _inputs(src):
    """The positions in (t, x1, x2) that ``src`` reads."""
    used = {0 if isinstance(node, VarT) else node.index for node in expr._walk(parse(src, 2))
            if isinstance(node, (VarT, VarX))}
    return sorted(used | ({1, 2} if "norm_inf" in src else set()))


class TestWhereBatchChecks:
    def test_every_operation_is_classified(self):
        assert set(_OP_SOURCES) == set(expr._OPS)
        assert expr._HIDES == set(_WITNESSES) | {"omega_k"}

    @pytest.mark.parametrize("key", sorted(set(expr._OPS) - expr._HIDES))
    def test_outside_the_set_non_finite_stays_non_finite(self, key):
        fn = _unchecked(_OP_SOURCES[key])
        positions = _inputs(_OP_SOURCES[key])
        for bad in _NON_FINITE:
            for partner in _PARTNERS:
                for where in positions:
                    sample = [partner] * 3
                    sample[where] = bad
                    value = _one_sample(fn, sample[0], sample[1:])
                    assert value is None or not math.isfinite(value), (key, sample, value)

    @pytest.mark.parametrize("key", sorted(_WITNESSES))
    def test_inside_the_set_a_finite_value_comes_out(self, key):
        (t, *x), value = _WITNESSES[key]
        assert _one_sample(_unchecked(_OP_SOURCES[key]), t, x) == value

    def test_omega_k_must_not_receive_a_non_finite_operand(self):
        # -inf trips the rule against negative values first
        assert _one_sample(_unchecked(_OP_SOURCES["omega_k"]), 0.0, (-math.inf, 0.0)) is None
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                _one_sample(_unchecked(_OP_SOURCES["omega_k"]), 0.0, (bad, 0.0))

    @pytest.mark.parametrize("src", [
        "1/exp(800*x1)",
        "exp(-exp(800*x1))",
        "sign(x1*1e308*10)",
        "heaviside(x1*1e308*10)",
        "min(x1*1e308*10, 1)",
        "(x1*1e308*10)^0",
        "omega_k(1, abs(x1*1e308*10))",
    ])
    def test_a_hidden_non_finite_value_defers_to_the_scalar_error(self, src):
        f = ExprFunction(parse(src, 1))
        ts, xs = np.array([0.0, 0.5]), np.array([[0.5], [1.0]])
        assert f.batch(ts, xs) is None  # and no ValueError
        walk, call = _walk_and_call(f, 0.5, (1.0,))
        assert walk[:2] == ("raised", ExprDomainError)
        assert call == walk

    @pytest.mark.parametrize("root", sorted(_KINDS))
    def test_no_value_where_the_scalar_path_raises(self, rng, root):
        special = np.array([math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, 5e-324])
        for _ in range(12):
            f = ExprFunction(parse(random_source(rng, 2, 4, root), 2))
            points = rng.uniform(-2, 2, (6, 3))
            points[rng.random((6, 3)) < 0.2] = rng.choice(special)
            for t, *x in points:
                batched = f.batch(np.array([t]), np.array([x]))
                if _walk_and_call(f, t, x)[1][0] == "raised":
                    assert batched is None, (f, t, x)

    @pytest.mark.parametrize("src", ["x1", "t", "2"])
    def test_batch_returns_a_fresh_array(self, src):
        ts, xs = np.linspace(0.0, 1.0, 4), np.ones((4, 2))
        out = ExprFunction(parse(src, 2)).batch(ts, xs)
        assert not np.shares_memory(out, ts) and not np.shares_memory(out, xs)
        out[:] = 7.0
        assert np.array_equal(ts, np.linspace(0.0, 1.0, 4)) and np.all(xs == 1.0)


# -- the compiled scalar evaluator -----------------------------------------

def _outcome(fn, *args):
    """The bits of a float result, or the type, message and offset of the error."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - any exception must match exactly
        return ("raised", type(exc), str(exc), getattr(exc, "offset", None))
    return ("value", type(value), struct.pack("<d", value))


def _walk_and_call(f, t, x=()):
    return _outcome(eval_expr, f.tree, t, x), _outcome(f, t, x)


class TestCompiledScalar:
    @pytest.mark.parametrize("root", sorted(_KINDS))
    def test_same_bits_as_the_walk(self, rng, root):
        n = 2
        special = np.array([0.0, -0.0, 5e-324, -1e-300, 1e300, -1e300])
        for _ in range(12):
            f = ExprFunction(parse(random_source(rng, n, 4, root), n))
            points = rng.uniform(-2, 2, (24, n + 1))
            points[::3, 1:] = rng.choice(special, (8, n))
            points[1::6, 0] = rng.choice(special, 4)
            for t, *x in points:
                walk, call = _walk_and_call(f, float(t), np.array(x))
                assert call == walk, (f, t, x)

    @pytest.mark.parametrize("src, t, x", [
        ("1 + t / (x1 - x1)", 1.0, (2.0,)),
        ("2 * log(x1)", 0.0, (0.0,)),
        ("2 * log(x1)", 0.0, (-1.5,)),
        ("t + sqrt(x1)", 0.0, (-1.0,)),
        ("(x1 - 3) ^ 0.5", 0.0, (1.0,)),
        ("1 + x1 ^ -1", 0.0, (0.0,)),
        ("1 + x1 ^ -1", 0.0, (-0.0,)),
        ("x1 * 1e308 * 10", 0.0, (1.0,)),
        ("x1 * 1e308 + 1e308", 0.0, (1.0,)),
        ("-1e308 - x1 * 1e308", 0.0, (1.0,)),
        ("1e308 / x1", 0.0, (1e-10,)),
        ("2 * exp(800 * x1)", 0.0, (1.0,)),
        ("x1 ^ 400", 0.0, (10.0,)),
        ("omega_k(1, x1)", 0.0, (-1.0,)),
        ("omega_k(4, abs(x1))", 0.0, (0.5,)),
        ("x1 + x2", 0.0, (1.0,)),
        ("norm_inf(x)", 0.0, ()),
        # non-finite inputs: ExprDomainError at the variable's offset
        ("sin(t)", math.inf, (0.0,)),
        ("t + 1", math.nan, (0.0,)),
        ("2 * exp(t)", math.inf, (0.0,)),
        ("x1 ^ t", math.inf, (-1.0,)),
        ("omega_k(1, x1)", 0.0, (math.nan,)),
    ])
    def test_same_error_as_the_walk(self, src, t, x):
        f = ExprFunction(parse(src, 2))
        walk, call = _walk_and_call(f, t, x)
        assert walk[0] == "raised"
        assert call == walk

    def test_unary_call_in_t_alone(self, rng):
        f = ExprFunction(parse("exp(-t) * sin(3*t) + t ^ 2 - log(1 + abs(t))", 0))
        for t in [*rng.uniform(-3, 3, 20), 0.0, -0.0]:
            walk, call = _walk_and_call(f, float(t))
            assert call == walk and call[0] == "value"
            assert _outcome(f, float(t)) == _outcome(eval_expr, f.tree, float(t))
        g = ExprFunction(parse("1 / t", 0))
        assert _outcome(g, 0.0) == _outcome(eval_expr, g.tree, 0.0)
        assert _outcome(g, 0.0)[0] == "raised"


class TestNonFiniteInput:
    @pytest.mark.parametrize("src, t, x, offset, message", [
        ("sin(t)", math.nan, (), 4, "non-finite input t = nan"),
        ("sin(t)", math.inf, (), 4, "non-finite input t = inf"),
        ("(-1)^t", math.inf, (), 5, "non-finite input t = inf"),
        ("2 * t + x1", 1.0, (-math.inf,), 8, "non-finite input x1 = -inf"),
        ("x1 + sin(x2)", 0.0, (1.0, math.nan), 9, "non-finite input x2 = nan"),
        ("1 + norm_inf(x)", 0.0, (1.0, math.inf), 13, "non-finite input in the state vector x"),
    ])
    def test_error_at_the_variable(self, src, t, x, offset, message):
        f = ExprFunction(parse(src, 2))
        for evaluate in (lambda: eval_expr(f.tree, t, x), lambda: f(t, x)):
            with pytest.raises(ExprDomainError) as exc:
                evaluate()
            assert str(exc.value) == f"{message} (subexpression at offset {offset})"
            assert exc.value.offset == offset

    def test_unused_components_may_be_non_finite(self):
        f = ExprFunction(parse("t + x1", 2))
        assert eval_expr(f.tree, 1.0, (2.0, math.nan)) == f(1.0, (2.0, math.nan)) == 3.0
        np.testing.assert_array_equal(f.batch([1.0], [[2.0, math.nan]]), [3.0])


class TestParseLimits:
    @pytest.mark.parametrize("src, offset", [("1e999", 0), ("x1 - 1e999", 5), ("2 * 1.8e308", 4)])
    def test_overflowing_literal(self, src, offset):
        with pytest.raises(ExprParseError) as exc:
            parse(src, 1)
        assert exc.value.offset == offset
        assert "overflows" in str(exc.value)

    def test_largest_literal_prints_and_reparses(self):
        tree = parse("1.7976931348623157e308 * x1", 1)
        assert parse(to_source(tree), 1) == tree

    @pytest.mark.parametrize("src", [
        "(" * 600 + "x1" + ")" * 600,
        "x1" + " + 0" * 1500,
        "sin(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
        "-" * MAX_DEPTH + "x1",
        "x1" + " + 0" * MAX_DEPTH,
        "2" + " ^ 1" * MAX_DEPTH,
    ], ids=["600-parentheses", "1500-terms", "calls", "negations", "terms", "powers"])
    def test_too_deep(self, src):
        with pytest.raises(ExprParseError) as exc:
            parse(src, 1)
        assert str(MAX_DEPTH) in str(exc.value)

    @pytest.mark.parametrize("src", [
        "sin(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "x1",
        "x1" + " + 0.5" * (MAX_DEPTH - 1),
        "x1" + " * 1.5" * (MAX_DEPTH - 1),
    ], ids=["calls", "negations", "terms", "factors"])
    def test_at_the_cap(self, src):
        f = ExprFunction(parse(src, 1))
        ts, xs = np.linspace(0.0, 1.0, 5), np.linspace(-0.5, 0.5, 5)[:, None]
        walk = [eval_expr(f.tree, t, x) for t, x in zip(ts, xs)]
        assert [f(t, x) for t, x in zip(ts, xs)] == walk
        np.testing.assert_allclose(f.batch(ts, xs), walk, rtol=1e-14, atol=0)


class TestEmitterInput:
    @pytest.mark.parametrize("tree", [
        Num(value="1"),
        Num(value=math.inf),
        VarX(index=1.0),
        VarX(index=0),
        Call(name="__import__", args=(Num(1.0),)),
        Call(name="sin", args=(VarT(), VarT())),
        Call(name="omega_k", args=(Num(1.5), VarT())),
        BinOp(op="**", left=VarT(), right=Num(2.0)),
        BinOp(op="+", left=VarT(), right=VarT(), pos="0"),
        VecX(),
        Call(name="norm_inf", args=(VarT(),)),
    ], ids=repr)
    def test_hand_built_tree_is_refused_before_compile(self, tree, monkeypatch):
        def compile(*args):
            raise AssertionError("compile reached")

        monkeypatch.setattr(expr, "compile", compile, raising=False)
        with pytest.raises(TypeError):
            ExprFunction(tree, source="hand-built")

    @pytest.mark.parametrize("src, x", [
        ("exp(x1)", (800.0,)),
        ("1 + x1 ^ t", (10.0,)),
        ("log(x1) + sqrt(x1)", (0.0,)),
        ("t / x1", (0.0,)),
        ("omega_k(1, x1)", (-1.0,)),
    ])
    def test_errors_name_the_operands_of_input_variables(self, src, x):
        f = ExprFunction(parse(src, 1))
        walk, call = _walk_and_call(f, 400.0, x)
        assert walk[0] == "raised"
        assert call == walk

    def test_batch_holds_few_arrays_at_once(self):
        # a value takes the name of one no longer needed, so a long chain
        # does not keep every intermediate array alive
        f = ExprFunction(parse("t" + " + x1 * 1.5" * 60, 1))
        ts, xs = np.linspace(0.0, 1.0, 10_000), np.ones((10_000, 1))
        f.batch(ts, xs)
        tracemalloc.start()
        try:
            f.batch(ts, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * ts.nbytes

    def test_emitted_code_has_no_builtin_but_import(self):
        f = ExprFunction(parse("sin(t) + x1", 1))
        assert set(f._evaluate.__globals__["__builtins__"]) == {"__import__"}
        assert "open" not in f._evaluate.__globals__

    def test_batch_in_a_fresh_interpreter(self):
        # numpy imports helpers lazily through the calling frame's builtins
        code = ("from stieltjes.expr import ExprFunction, parse; "
                "print(ExprFunction(parse('x1 * t', 1)).batch([1.0, 2.0], [[3.0], [4.0]]))")
        env = {**os.environ, "PYTHONPATH": str(Path(expr.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.stdout.strip() == "[3. 8.]", done.stderr
