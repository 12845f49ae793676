import math

import pytest

from helpers import infix

from srloop.expressions import (
    Binary,
    Const,
    Dialect,
    ExpressionSyntaxError,
    ImplicitFormError,
    Lit,
    MAX_NODES,
    TooComplexError,
    Unary,
    UnknownOperatorError,
    Var,
    complexity,
    render,
    walk,
)
from srloop.parsing import parse


def latex(text, variables=("x1",)):
    return parse(text, Dialect.LATEX, list(variables))


def test_parse_langmuir_form():
    e = infix("c1*x1/(c2+x1)")
    expected = Binary(
        "/",
        Binary("*", Const(1), Var(1)),
        Binary("+", Const(2), Var(1)),
    )
    assert e.root == expected


def test_latex_frac_matches_infix():
    a = infix("c1*x1/(c2+x1)")
    b = latex(r"\frac{c_1 x_1}{c_2 + x_1}")
    assert a.root == b.root


def test_single_variable():
    assert infix("x1").root == Var(1)


def test_bode_operator_multiset():
    e = infix("c1*exp(c2*x1)+c3")
    ops = [n.op for n in walk(e.root) if isinstance(n, (Unary, Binary))]
    assert sorted(ops) == ["*", "*", "+", "exp"]


def test_literals_become_constants_with_initial_values():
    e = infix("2*x1")
    assert e.root == Binary("*", Const(1), Var(1))
    assert e.const_inits == (2.0,)
    e2 = infix("c1*x1+3.5")
    assert e2.const_inits == (1.0, 3.5)


def test_constants_reindexed_left_to_right():
    e = infix("c7+c2*x1")
    assert render(e) == "c1+c2*x1"


def test_shared_constant_symbols_stay_shared():
    e = infix("c1*x1+c1")
    assert e.n_constants == 1


def test_two_equal_literals_become_distinct_constants():
    e = infix("3*x1+3")
    assert e.n_constants == 2
    assert e.const_inits == (3.0, 3.0)


def test_exponent_literals_are_preserved():
    e = infix("c1*x1**(3/2)")
    assert e.root == Binary("*", Const(1), Binary("^", Var(1), Lit(1.5)))
    assert infix("c1*x1^1.5").root == e.root
    free = infix("c1*x1**c2")
    assert free.root == Binary("*", Const(1), Binary("^", Var(1), Const(2)))
    assert free.root != e.root


def test_negative_exponent_literal_folds():
    e = infix("x1**-2")
    assert e.root == Binary("^", Var(1), Lit(-2.0))
    assert infix("x1**-(1/2)").root == Binary("^", Var(1), Lit(-0.5))
    # an exponent that cannot be folded keeps its literals, as fitted constants
    e = infix("x1**(1/0)")
    assert e.root == Binary("^", Var(1), Binary("/", Const(1), Const(2)))
    assert e.const_inits == (1.0, 0.0)


def test_caret_and_double_star_are_the_same():
    assert infix("x1^c1").root == infix("x1**c1").root


def test_unary_minus():
    assert infix("-x1").root == Unary("neg", Var(1))
    # a leading literal sign folds into the constant's initial value
    e = infix("-2*x1")
    assert e.root == Binary("*", Unary("neg", Const(1)), Var(1))


def test_equation_left_hand_sides():
    assert infix("y = c1*x1").root == infix("c1*x1").root
    assert infix("q = c1*x1/(c2+x1)").root == infix("c1*x1/(c2+x1)").root
    assert infix("f(x1) = c1*x1").root == infix("c1*x1").root


@pytest.mark.parametrize(
    "text",
    [
        "y = y + x1",        # dependent on both sides
        "x1 = c1",           # dependent side is an input variable
        "y + x1 = c1",       # compound left side
        "y = c1 = c2",       # two equals signs
    ],
)
def test_implicit_forms_rejected(text):
    with pytest.raises(ImplicitFormError):
        infix(text)


@pytest.mark.parametrize(
    "text",
    ["(c1*x1", "c1*)x1", "c1*", "", "   ", "c1 @ x1", "c1*zebra", "x2", "c0*x1",
     "c1*x1**1e400", "1e999*x1"],
)
def test_syntax_errors(text):
    with pytest.raises(ExpressionSyntaxError):
        infix(text)


@pytest.mark.parametrize("text", [
    "c1*x1" + "+x1" * 400,  # a flat sum that overflowed the stack in canonicalize
    "**".join(["x1"] * 2000),  # a power chain that overflowed it in the parser
])
def test_too_complex(text):
    with pytest.raises(TooComplexError):
        infix(text)


def test_node_cap_is_inclusive():
    at_cap = "-x1" + "+x1" * ((MAX_NODES - 2) // 2)
    assert complexity(infix(at_cap)) == MAX_NODES
    with pytest.raises(TooComplexError):
        infix("-" + at_cap)


def test_folded_exponent_counts_its_nodes_as_written():
    exponent = "+".join(["1"] * ((MAX_NODES - 2) // 2))  # MAX_NODES - 3 nodes, folded to one
    assert infix(f"x1**({exponent})").root == Binary("^", Var(1), Lit((MAX_NODES - 2) // 2))
    with pytest.raises(TooComplexError):
        infix(f"x1**({exponent}+1)")


def test_sign_chain_in_exponent_is_nesting_error():
    with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
        infix("x1**" + "-" * 5000 + "x1")


def test_unknown_function_is_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        infix("sin(x1)")


def test_infix_rejects_juxtaposition():
    with pytest.raises(ExpressionSyntaxError):
        infix("c1 x1")


def test_latex_constructs():
    assert latex(r"\sqrt{x_1}").root == Unary("sqrt", Var(1))
    assert latex(r"c_1 \cdot x_1").root == Binary("*", Const(1), Var(1))
    assert latex(r"x_1^{c_2}").root == Binary("^", Var(1), Const(1))
    assert latex(r"$c_1 + x_1$").root == Binary("+", Const(1), Var(1))
    assert latex(r"\left( c_1 + x_1 \right) x_1").root == Binary(
        "*", Binary("+", Const(1), Var(1)), Var(1)
    )
    assert latex(r"\exp(c_1 x_1)").root == Unary("exp", Binary("*", Const(1), Var(1)))
    assert latex(r"\ln(x_1)").root == Unary("log", Var(1))
    assert latex("2 x_1").root == Binary("*", Const(1), Var(1))


def test_latex_subscript_braces():
    two_vars = parse(r"x_{2} + c_{1} x_1", Dialect.LATEX, ["x1", "x2"])
    assert two_vars.root == Binary("+", Var(2), Binary("*", Const(1), Var(1)))


def test_unknown_latex_command():
    with pytest.raises(ExpressionSyntaxError):
        latex(r"\alpha + x_1")


def test_pi_and_e_are_literals():
    e = infix("pi*x1")
    assert e.const_inits == (math.pi,)
    assert infix("x1**e").root == Binary("^", Var(1), Lit(math.e))


def test_function_requires_argument():
    with pytest.raises(ExpressionSyntaxError):
        infix("sqrt + x1")


def test_variables_required():
    with pytest.raises(ValueError):
        parse("c1", Dialect.INFIX, [])
