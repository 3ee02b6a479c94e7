"""Expression language: grammar, precedence, evaluation, and totality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes import ExprDomainError, ExprParseError, StieltjesError
from stieltjes.expr import (
    FUNCTIONS,
    Call,
    ExprFunction,
    Num,
    VarX,
    VecX,
    eval_expr,
    parse,
    to_source,
)
from stieltjes.measure import _sample_finite


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

    def test_composed_tree(self):
        tree = parse("t*omega_k(1, norm_inf(x))", 3)
        assert isinstance(tree.right, Call)
        assert tree.right == Call(name="omega_k", args=(Num(1.0), Call(name="norm_inf", args=(VecX(),))))

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

    def test_omega_k_needs_integer_literal(self):
        with pytest.raises(ExprParseError):
            parse("omega_k(t, 1)", 0)
        with pytest.raises(ExprParseError):
            parse("omega_k(1.5, 1)", 0)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprParseError) as exc:
            parse("1 + * 2", 0)
        assert exc.value.offset == 4

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
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_fixpoint(self, src):
        tree = parse(src, 3)
        printed = to_source(tree)
        assert parse(printed, 3) == tree

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

    def test_non_finite_input_defers_to_scalar_path(self):
        f = ExprFunction(parse("heaviside(x1)", 1))
        assert f.batch(np.zeros(2), np.array([[1.0], [np.inf]])) is None

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
