import math
import random

import numpy as np
import pytest

from helpers import (infix, make_dataset, mse_objective, oracle_eval, oracle_evaluator,
                     random_expression, random_node)

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
    compile_evaluator,
    complexity,
    render,
)
from srloop.parsing import parse
from srloop.prompts import operator_note


def at_row(e, params, row):
    """The value of ``e`` at one input row, from a one-row matrix."""
    with np.errstate(all="ignore"):
        return float(compile_evaluator(e)(params, np.array([row], dtype=float))[0])


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
        assert not math.isfinite(at_row(infix("c1/x1"), [1.0], [0.0]))

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
        assert not math.isfinite(at_row(infix(text), params, row))

    def test_rows_match_scalar(self):
        e = infix("c1*x1/(c2+x1)+sqrt(x1)")
        X = np.array([[0.5], [2.0], [7.0]])
        evaluator = compile_evaluator(e)
        with np.errstate(all="ignore"):
            out = evaluator([3.0, 1.5], X)
            for i in range(len(X)):
                assert out[i] == evaluator([3.0, 1.5], X[i:i + 1])[0]

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
                assert not math.isfinite(got), render(e)
            else:
                assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-300), render(e)
            checked += 1


class TestFlatCompiler:
    """The flat compiler against the closure compiler it replaced
    (``helpers.oracle_evaluator``): ``compile_evaluator`` is non-finite
    exactly where the oracle is and bit-equal elsewhere. The forms compiled
    for one ``X``, on mixed batches of points, against ``compile_evaluator``
    at each point."""

    PARAMS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
    ROWS = [0.0, -0.0, 1e308, -1e308, 5e-324, 1.0, -1.0]

    @staticmethod
    def assert_like_oracle(e, params, X):
        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):
            got, want = compile_evaluator(e)(params, X), oracle_evaluator(e)(params, X)
        assert got.shape == want.shape == (len(X),), render(e)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), (render(e), params, got, want)
        assert got[finite].tobytes() == want[finite].tobytes(), (render(e), params)

    @staticmethod
    def assert_batch_like_single(e, points, X):
        """Row s of the batched form is ``compile_evaluator`` at point s,
        non-finite in the same places and byte-equal elsewhere; so is the
        single-point form compiled for ``X``; and the batched MSE of each
        point is the objective's value there, inf included."""
        X = np.asarray(X, dtype=float)
        P = np.asarray(points, dtype=float).reshape(len(points), e.n_constants)
        evaluator = compile_evaluator(e)
        single, batched = compile_evaluator(e, X), compile_evaluator(e, X, batched=True)
        y = np.linspace(-1.0, 1.0, len(X))
        objective = mse_objective(e, X, y)
        with np.errstate(all="ignore"):
            rows = batched(P, X)
            mses = objective.batch(P.tolist())
            for s, params in enumerate(P):
                want = evaluator(params, X)
                finite = np.isfinite(want)
                for got in (np.broadcast_to(rows, (len(P), len(X)))[s], single(params, X)):
                    assert got.shape == want.shape, render(e)
                    assert np.array_equal(np.isfinite(got), finite), (render(e), P, s, got, want)
                    assert got[finite].tobytes() == want[finite].tobytes(), (render(e), P, s)
                assert np.float64(mses[s]).tobytes() == np.float64(objective(params)).tobytes()
        assert np.broadcast_shapes(rows.shape, (len(P), len(X))) == (len(P), len(X)), render(e)

    def test_random_trees_with_adversarial_params(self):
        rng = random.Random(2024)
        nprng = np.random.default_rng(2024)
        for n_vars in (1, 2):
            X = np.concatenate([
                np.array([[v] * n_vars for v in self.ROWS]),
                nprng.standard_normal((6, n_vars)) * 3,
            ])
            # a NaN in the last column: a raw operand of ^ there is tested
            nan_X = np.concatenate([X, [[1.0] * (n_vars - 1) + [math.nan]]])
            for i in range(300):
                if i % 2:
                    e = random_expression(rng, n_vars=n_vars, max_depth=4)
                else:  # free exponents too: ^ with a non-raw exponent
                    e = Expression(random_node(rng, n_vars, 4, free_exponents=True))
                points = []
                for _ in range(2):
                    params = [rng.choice(self.PARAMS) if rng.random() < 0.3
                              else float(nprng.standard_normal()) for _ in range(e.n_constants)]
                    self.assert_like_oracle(e, params, X)
                    points.append(params)
                # mixed batches: a point whose sites fire beside finite points
                finite = [[float(v) for v in nprng.standard_normal(e.n_constants)]
                          for _ in range(3)]
                adversarial = [[rng.choice(self.PARAMS) for _ in range(e.n_constants)]]
                batch = [finite[0], *points, finite[1], *adversarial, finite[2]]
                self.assert_batch_like_single(e, batch, X if i % 3 else nan_X)
                self.assert_batch_like_single(e, batch[:1], X)

    @pytest.mark.parametrize("root,params,rows,undefined", [
        # / : c/inf is 0, and c/0 is inf, both undefined
        ("c1/(x1*x1)", [2.0], [[1e200], [0.0], [2.0]], [True, True, False]),
        # exp: exp(log(0)) is exp(-inf), 0
        ("exp(log(x1))", [], [[0.0], [1.0]], [True, False]),
        # ^, raw operand: 1**nan is 1 but the NaN is tested; 1**inf is 1 and inf is not
        ("x1**c1", [math.nan], [[1.0], [2.0]], [True, True]),
        ("x1**c1", [math.inf], [[1.0], [0.5]], [False, False]),
        ("c1**x1", [math.nan], [[0.0], [2.0]], [True, True]),
        # ^, non-raw operand: inf**0 and 1**inf are 1
        ("(c1*x1)**c2", [1e200, 0.0], [[1e200], [2.0]], [True, False]),
        ("c1**(x1*x1)", [1.0], [[1e200], [2.0]], [True, False]),
        # a constant-only subtree: the site's operand is a scalar
        ("x1+c1/(c2*c3)", [1.0, 1e200, 1e200], [[1.0], [2.0]], [True, True]),
        ("x1*exp(-(c1*c1))", [1e200], [[1.0]], [True]),
        ("c1/(c2+c3)", [1.0, 2.0, 3.0], [[1.0], [2.0]], [False, False]),
        ("(c1*c2)**x1", [1e200, 1e200], [[0.0], [1.0]], [True, True]),
        # a NaN literal exponent, which the parser never makes
        (Binary("^", Var(1), Lit(math.nan)), [], [[1.0], [0.0]], [True, True]),
        (Binary("^", Lit(math.nan), Unary("neg", Var(1))), [], [[0.0]], [True]),
        # two 1e308 rows: each site's reduce overflows, every row is finite,
        # so the row test runs and marks nothing
        ("c1/(x1*c2)", [1.0, 1.0], [[1e308], [1e308]], [False, False]),
        ("exp(c1/x1)", [1.0], [[1e308], [1e308]], [False, False]),
        ("(x1*c1)**c2", [1.0, 0.5], [[1e308], [1e308]], [False, False]),
        ("x1**c1", [1.0], [[1e308], [1e308]], [False, False]),
        ("x1*c1+c1", [1.0], [[1e308], [1e308]], [False, False]),
    ])
    def test_each_site(self, root, params, rows, undefined):
        e = infix(root) if isinstance(root, str) else Expression(root)
        self.assert_like_oracle(e, params, rows)
        ones = [1.0] * e.n_constants
        self.assert_batch_like_single(e, [ones, params, ones, params], rows)
        with np.errstate(all="ignore"):
            out = compile_evaluator(e)(params, np.array(rows, dtype=float))
        assert (~np.isfinite(out)).tolist() == undefined, render(e)

    def test_a_nan_column_is_tested_in_every_form(self):
        # nan**0 is 1, so a NaN in x1 must mark its row, on any X
        e = infix("x1**c1")
        X = np.array([[math.nan], [2.0]])
        single, batched = compile_evaluator(e, X), compile_evaluator(e, X, batched=True)
        with np.errstate(all="ignore"):
            assert np.isnan(compile_evaluator(e)([0.0], X)).tolist() == [True, False]
            assert np.isnan(single([0.0], X)).tolist() == [True, False]
            assert np.isnan(batched(np.array([[0.0], [1.0]]), X)).tolist() == [[True, False]] * 2
        # forms compiled for rows without a NaN do not test x1 on each call
        # (so, given a NaN outside their contract, they pass nan**0 through)
        clean = np.array([[1.0], [2.0]])
        single, batched = compile_evaluator(e, clean), compile_evaluator(e, clean, batched=True)
        with np.errstate(all="ignore"):
            assert single([0.0], X).tolist() == [1.0, 1.0]
            assert batched(np.array([[0.0]]), X).tolist() == [[1.0, 1.0]]

    def test_a_raw_root_passes_as_it_is(self):
        X = np.array([[math.inf], [math.nan], [-0.0]])
        with np.errstate(all="ignore"):
            assert compile_evaluator(infix("-x1"))((), X).tobytes() == (-X[:, 0]).tobytes()
            assert compile_evaluator(infix("c1"))([math.inf], X).tolist() == [math.inf] * 3


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
        with np.errstate(all="ignore"):
            out = compile_evaluator(e)((), self.ROWS)
        for row, got in zip(self.ROWS, out):
            expected = oracle_eval(e.root, (), row)
            if expected is None:
                assert not math.isfinite(got), (render(e), row)
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
            compile_evaluator(Expression(root))


def test_expression_initial_guess_defaults_to_ones():
    e = Expression(Binary("*", Const(1), Var(1)))
    assert e.initial_guess() == (1.0,)
    parsed = infix("2.5*x1")
    assert parsed.initial_guess() == (2.5,)


def test_dataset_helper_shapes():
    d = make_dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert d.X.shape == (3, 1)
    assert d.variables == ("x1",)
