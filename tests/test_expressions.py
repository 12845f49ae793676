import math
import random

import numpy as np
import pytest

from helpers import make_dataset, oracle_eval, random_expression, random_node

from srloop.expressions import (
    BINARY_OPERATORS,
    FUNCTIONS,
    Binary,
    Const,
    Dialect,
    Expression,
    Lit,
    OperatorSet,
    Unary,
    UnknownOperatorError,
    Var,
    complexity,
    evaluate_rows,
    render,
)
from srloop.parsing import parse
from srloop.prompts import operator_note


def infix(text, variables=("x1",)):
    return parse(text, Dialect.INFIX, list(variables))


def at_row(e, params, row):
    """The value of ``e`` at one input row, from a one-row matrix."""
    return float(evaluate_rows(e, params, [row])[0])


class TestRender:
    def test_simple_forms(self):
        assert render(Expression(Binary("+", Var(1), Const(1)))) == "x1+c1"
        assert render(Expression(Unary("sqrt", Var(1)))) == "sqrt(x1)"
        assert render(infix("c1*x1/(c2+x1)")) == "c1*x1/(c2+x1)"

    def test_power_forms(self):
        assert render(infix("x1**1.5")) == "x1**1.5"
        assert render(infix("(c1*x1)**2")) == "(c1*x1)**2"
        assert render(infix("x1**c1**c2")) == "x1**c1**c2"

    def test_compound_exponent_keeps_parentheses(self):
        assert render(infix("x1**(c1+c2)")) == "x1**(c1+c2)"
        assert render(infix("c1*x1**(c2*x1)")) == "c1*x1**(c2*x1)"
        assert render(infix("x1**-(c1+x1)")) == "x1**-(c1+x1)"

    def test_round_trip_raw_random_trees(self):
        # raw trees, not normalized through render, with free exponents;
        # the parser numbers constants by first appearance
        def relabel(n, seen):
            if isinstance(n, Const):
                return Const(seen.setdefault(n.index, len(seen) + 1))
            if isinstance(n, (Var, Lit)):
                return n
            if isinstance(n, Unary):
                return Unary(n.op, relabel(n.child, seen))
            return Binary(n.op, relabel(n.left, seen), relabel(n.right, seen))

        rng = random.Random(4321)
        for _ in range(1000):
            raw = random_node(rng, n_vars=2, max_depth=5, free_exponents=True)
            text = render(Expression(raw))
            assert parse(text, Dialect.INFIX, ["x1", "x2"]).root == relabel(raw, {}), text

    def test_round_trip_random_trees(self):
        rng = random.Random(1234)
        for _ in range(500):
            e = random_expression(rng, n_vars=2)
            again = parse(render(e), Dialect.INFIX, ["x1", "x2"])
            assert again.root == e.root, render(e)


class TestComplexity:
    def test_single_node(self):
        assert complexity(Expression(Var(1))) == 1

    def test_langmuir_is_seven_nodes(self):
        assert complexity(infix("c1*x1/(c2+x1)")) == 7

    def test_bode_is_eight_nodes(self):
        assert complexity(infix("c1*exp(c2*x1)+c3")) == 8

    def test_invariant_under_reindexing(self):
        assert complexity(infix("c2*x1+c1")) == complexity(infix("c1*x1+c2"))


class TestEvaluate:
    def test_basic(self):
        assert at_row(infix("x1+c1"), [2.0], [3.0]) == 5.0

    def test_protected_division(self):
        assert math.isnan(at_row(infix("c1/x1"), [1.0], [0.0]))

    def test_langmuir_value(self):
        assert at_row(infix("c1*x1/(c2+x1)"), [5.0, 2.0], [2.0]) == 2.5

    @pytest.mark.parametrize(
        "text,params,row",
        [
            ("log(x1)", (), [-1.0]),
            ("log(x1)", (), [0.0]),
            ("sqrt(x1)", (), [-4.0]),
            ("exp(x1)", (), [1e4]),
            ("x1/(x1-x1)", (), [3.0]),
            ("c1**x1", (-2.0,), [0.5]),
        ],
    )
    def test_protected_cases(self, text, params, row):
        assert math.isnan(at_row(infix(text), params, row))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_rows(infix("c1*x1"), [1.0, 2.0], [[1.0]])

    def test_rows_match_scalar(self):
        e = infix("c1*x1/(c2+x1)+sqrt(x1)")
        X = np.array([[0.5], [2.0], [7.0]])
        out = evaluate_rows(e, [3.0, 1.5], X)
        for i in range(len(X)):
            assert out[i] == evaluate_rows(e, [3.0, 1.5], X[i:i + 1])[0]

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            e = random_expression(rng, n_vars=2, max_depth=4)
            params = [rng.uniform(-3, 3) for _ in range(e.n_constants)]
            row = [rng.uniform(-5, 5), rng.uniform(-5, 5)]
            expected = oracle_eval(e.root, params, row)
            got = at_row(e, params, row)
            if expected is None:
                assert math.isnan(got), render(e)
            else:
                assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-300), render(e)
            checked += 1


class TestOperatorSet:
    def test_easy_and_hard_membership(self):
        easy = OperatorSet.easy()
        assert easy.binary == frozenset({"+", "-", "*", "/"})
        assert easy.unary == frozenset()
        hard = OperatorSet.hard()
        assert hard.unary == frozenset({"sqrt", "log", "exp", "square", "cube"})

    def test_per_dataset_extras(self):
        kepler = OperatorSet.easy(("sqrt",))
        assert "sqrt" in kepler.unary
        bode = OperatorSet.easy(("^", "exp"))
        assert "^" in bode.binary and "exp" in bode.unary

    def test_rejects_out_of_set_operators(self):
        easy = OperatorSet.easy()
        assert easy.violations(infix("exp(x1)+c1")) == ["exp"]
        assert not easy.violations(infix("c1*x1/(c2+x1)"))

    def test_restricted_power_allowed_without_caret(self):
        easy = OperatorSet.easy()
        assert not easy.violations(infix("c1*x1**(3/2)"))
        assert not easy.violations(infix("c1*x1**c2"))
        assert easy.violations(infix("c1*x1**x1")) == ["^"]
        assert not OperatorSet.easy(("^",)).violations(infix("c1*x1**x1"))

    def test_neg_rides_on_minus(self):
        assert not OperatorSet.easy().violations(infix("-c1*x1"))

    def test_needs_binary_ops(self):
        with pytest.raises(ValueError):
            OperatorSet(frozenset())

    def test_unknown_operator_name(self):
        with pytest.raises(ValueError):
            OperatorSet(frozenset({"+", "%"}))


class TestOperatorTable:
    ROWS = np.array([[-2.0, 0.5], [0.0, 3.0], [0.5, -1.0], [3.0, 0.0], [800.0, 2.5]])

    def assert_like_oracle(self, e):
        for row, got in zip(self.ROWS, evaluate_rows(e, (), self.ROWS)):
            expected = oracle_eval(e.root, (), row)
            if expected is None:
                assert math.isnan(got), (render(e), row)
            else:
                assert math.isclose(got, expected, rel_tol=1e-12), (render(e), row)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_function_parses_renders_and_evaluates(self, name):
        e = infix(f"{name}(x1)")
        assert e.root == Unary(name, Var(1))
        assert render(e) == f"{name}(x1)"
        self.assert_like_oracle(e)

    @pytest.mark.parametrize("op", list(BINARY_OPERATORS))
    def test_binary_operator_parses_and_evaluates(self, op):
        e = infix(f"x1{op}x2", ("x1", "x2"))
        assert e.root == Binary(op, Var(1), Var(2))
        self.assert_like_oracle(e)

    def test_operator_note_lists_the_table_in_order(self):
        assert operator_note(OperatorSet.hard(("^",))) == (
            f"Allowed operators: binary {', '.join(BINARY_OPERATORS)}; "
            f"unary {', '.join(FUNCTIONS)}. Use no other operators or functions.")
        assert operator_note(OperatorSet.hard()).startswith(
            "Allowed operators: binary +, -, *, /; unary sqrt, log, exp, square, cube.")

    @pytest.mark.parametrize("root", [Unary("tan", Var(1)), Binary("%", Var(1), Var(1))])
    def test_an_operator_outside_the_table_is_not_evaluated(self, root):
        with pytest.raises(UnknownOperatorError):
            evaluate_rows(Expression(root), (), [[1.0]])


def test_expression_initial_guess_defaults_to_ones():
    e = Expression(Binary("*", Const(1), Var(1)))
    assert e.initial_guess() == (1.0,)
    parsed = infix("2.5*x1")
    assert parsed.initial_guess() == (2.5,)


def test_dataset_helper_shapes():
    d = make_dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert d.X.shape == (3, 1)
    assert d.variables == ("x1",)
