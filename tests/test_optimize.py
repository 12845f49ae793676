import hashlib
import math
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from helpers import (make_dataset, mse_objective, oracle_minimize, oracle_nelder_mead,
                     random_expression)

from srloop import expressions, optimize
from srloop.data import load_builtin
from srloop.expressions import MAX_CONSTANTS, Dialect, Expression, compile_evaluator, render
from srloop.optimize import (
    HOP_WINDOW,
    FitConfig,
    NoFiniteObjectiveError,
    TooManyConstantsError,
    fit,
    linear_terms,
    minimize,
    nelder_mead,
    repeat_fit,
)
from srloop.parsing import parse


def infix(text, variables=("x1",)):
    return parse(text, Dialect.INFIX, list(variables))


LINEAR = make_dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])


class TestFit:
    def test_exact_linear(self):
        r = fit(infix("c1*x1"), LINEAR, FitConfig(hops=2, seed=0))
        assert r.mse <= 1e-12
        assert abs(r.params[0] - 2.0) < 1e-6

    def test_constant_fits_the_mean(self):
        d = make_dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        r = fit(infix("c1"), d, FitConfig(hops=2, seed=0))
        assert abs(r.params[0] - 2.0) < 1e-6
        assert abs(r.mse - 2.0 / 3.0) < 1e-9

    def test_langmuir_beats_straight_line(self):
        from srloop.data import load_builtin

        d = load_builtin("langmuir")
        x, y = d.X[:, 0], d.y
        slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
        intercept = y.mean() - slope * x.mean()
        line_mse = float(np.mean((intercept + slope * x - y) ** 2))
        r = repeat_fit(d.target, d, FitConfig(hops=10, seed=0, refits=3))
        assert r.mse < line_mse

    def test_monotone_improvement(self):
        rng = random.Random(8)
        d = make_dataset(np.linspace(0.5, 3, 8), np.linspace(1, 4, 8) ** 2)
        cfg = FitConfig(hops=2, seed=1, max_evals=800)
        for _ in range(25):
            e = random_expression(rng, n_vars=1, max_depth=3)
            with np.errstate(all="ignore"):
                start = mse_objective(e, d.X, d.y)(np.asarray(e.initial_guess()))
            try:
                r = fit(e, d, cfg)
            except NoFiniteObjectiveError:
                continue
            if math.isfinite(start):
                assert r.mse <= start + 1e-15

    def test_deterministic(self):
        cfg = FitConfig(hops=5, seed=42)
        e = infix("c1*x1/(c2+x1)")
        d = make_dataset(np.linspace(0.2, 8, 10), 2 * np.linspace(0.2, 8, 10) ** 0.5)
        a = fit(e, d, cfg)
        b = fit(e, d, cfg)
        assert a == b  # bit-identical result

    def test_no_finite_objective(self):
        d = make_dataset([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(NoFiniteObjectiveError):
            fit(infix("log(-x1)"), d, FitConfig(hops=1, seed=0, max_evals=200))

    def test_constant_cap(self):
        text = "+".join(f"c{i}*x1**{i}" for i in range(1, 12))
        with pytest.raises(TooManyConstantsError):
            fit(infix(text), LINEAR, FitConfig(hops=1, seed=0))

    def test_zero_constant_expression(self):
        r = fit(infix("x1"), LINEAR, FitConfig(hops=1, seed=0))
        assert r.params == ()
        assert abs(r.mse - np.mean((LINEAR.X[:, 0] - LINEAR.y) ** 2)) < 1e-15

    def test_literal_initial_values_used(self):
        # the literal-born constant starts at 1.9 and converges to 2
        r = fit(infix("1.9*x1"), LINEAR, FitConfig(hops=1, seed=0))
        assert abs(r.params[0] - 2.0) < 1e-6


class TestRepeatFit:
    def test_single_refit_equals_fit(self):
        d = make_dataset(np.linspace(0.5, 5, 9), np.log(np.linspace(0.5, 5, 9)) + 2)
        cfg = FitConfig(hops=3, seed=11, refits=1)
        e = infix("c1*x1/(c2+x1)")
        assert repeat_fit(e, d, cfg) == fit(e, d, cfg)

    def test_selects_lowest_mae_and_prefix_monotone(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.3, 6, 14)
        d = make_dataset(x, 1.2 * np.exp(0.4 * x) + 0.3 * rng.standard_normal(x.size))
        e = infix("c1*exp(c2*x1)+c3")
        base = FitConfig(hops=2, seed=20, max_evals=1500)
        singles = [fit(e, d, FitConfig(hops=2, seed=20 + i, max_evals=1500)) for i in range(5)]
        last = math.inf
        for k in range(1, 6):
            rk = repeat_fit(e, d, FitConfig(hops=2, seed=20, max_evals=1500, refits=k))
            assert rk.mae <= min(s.mae for s in singles[:k]) + 1e-15
            assert rk.mae <= last + 1e-15
            last = rk.mae

    def test_propagates_failure_only_when_all_fail(self):
        d = make_dataset([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(NoFiniteObjectiveError):
            repeat_fit(infix("log(-x1)"), d, FitConfig(hops=1, seed=0, refits=3, max_evals=100))


LINEAR_FORMS = ["c1*x1+c2", "c1+c2*x1+c3/x2", "c1*x1-c2*x2", "-c1*x1+x2", "x2*(c1*x1)",
                "c1*(x1+x2)", "c1*log(x1)+c2"]
NONLINEAR_FORMS = ["c1*x1/(c2+x1)", "x1/c1", "c1*c2*x1", "c1*x1+c1", "(c1+c2)*x1",
                   "exp(c1)*x1", "c1*x1**c2"]


class TestLinear:
    @pytest.mark.parametrize("text", LINEAR_FORMS + NONLINEAR_FORMS)
    def test_detection(self, text):
        e = infix(text, ("x1", "x2"))
        assert (linear_terms(e) is not None) == (text in LINEAR_FORMS)

    def test_signs_and_offset(self):
        columns, offset = linear_terms(infix("x2-(c1*x1-c2)-c3/x1", ("x1", "x2")))
        signed = [(sign, render(Expression(term))) for sign, term in columns + offset]
        assert signed == [(-1.0, "c1*x1"), (1.0, "c2"), (-1.0, "c3/x1"), (1.0, "x2")]

    def test_least_squares_matches_the_simplex(self):
        d = load_builtin("nikuradse")
        e = infix("c1+c2*x1+c3/x2", ("x1", "x2"))
        linear = fit(e, d, FitConfig())
        simplex = fit(e, d, FitConfig(solve_linear=False))
        assert (linear.evals, linear.converged) == (0, True) and simplex.evals > 0
        assert linear.mse <= simplex.mse * (1 + 1e-10)
        assert linear.params == pytest.approx(simplex.params, rel=1e-6)
        with np.errstate(all="ignore"):
            resid = compile_evaluator(e)(linear.params, d.X) - d.y
        assert linear.mse == float(np.mean(resid * resid))
        assert linear.mae == float(np.mean(np.abs(resid)))

    def test_no_worse_than_the_simplex_on_random_trees(self):
        # every fully linear seeded tree: least squares reaches the simplex's
        # MSE, and is unfittable exactly when the simplex is
        linear = unfittable = 0
        for seed, name in enumerate(("bode", "dual_site_langmuir", "hubble", "kepler",
                                     "langmuir", "nikuradse")):
            d = load_builtin(name)
            rng = random.Random(seed)
            for _ in range(300):
                e = random_expression(rng, n_vars=len(d.variables))
                if linear_terms(e) is None:
                    continue
                linear += 1
                results = []
                for solve_linear in (True, False):
                    try:
                        results.append(fit(e, d, FitConfig(solve_linear=solve_linear)))
                    except NoFiniteObjectiveError:
                        results.append(None)
                lsq, simplex = results
                assert (lsq is None) == (simplex is None), (name, render(e))
                if lsq is None:
                    unfittable += 1
                    continue
                assert lsq.evals == 0 and simplex.evals > 0
                assert lsq.mse <= simplex.mse * (1 + 1e-10), (name, render(e))
        assert linear >= 100 and unfittable

    def test_rank_deficient(self):
        d = load_builtin("hubble")
        both = fit(infix("c1*x1+c2*x1"), d, FitConfig())
        one = fit(infix("c1*x1"), d, FitConfig())
        assert both.params[0] == pytest.approx(both.params[1], rel=1e-12)
        assert both.params[0] + both.params[1] == pytest.approx(one.params[0], rel=1e-12)
        assert both.mse == pytest.approx(one.mse, rel=1e-12)

    def test_more_constants_than_rows(self):
        # 7 constants, 6 rows: the polynomial interpolates kepler's periods
        d = load_builtin("kepler")
        e = infix("+".join(["c1", *(f"c{i + 1}*x1**{i}" for i in range(1, 7))]))
        lsq = fit(e, d, FitConfig())
        simplex = fit(e, d, FitConfig(solve_linear=False))
        assert lsq.evals == 0
        assert lsq.mse <= 1e-12 * float(np.mean(d.y * d.y))
        assert lsq.mse <= simplex.mse

    def test_refits_solve_once(self, monkeypatch):
        d = load_builtin("langmuir")
        e = infix("c1*sqrt(x1)+c2")
        calls = []
        solve = optimize._least_squares
        monkeypatch.setattr(optimize, "_least_squares", lambda *a: calls.append(a) or solve(*a))
        assert repeat_fit(e, d, FitConfig(refits=3, seed=4)) == fit(e, d, FitConfig())
        assert len(calls) == 2  # one for repeat_fit, one for the fit it is compared with

    def test_unfittable_column_or_offset(self):
        bode = load_builtin("bode")
        for text in ("c1*log(-x1)", "c1*x1+log(-x1)", "c1/(x1-x1)+c2"):
            for refits in (1, 3):
                with pytest.raises(NoFiniteObjectiveError):
                    repeat_fit(infix(text), bode, FitConfig(refits=refits))

    @pytest.mark.parametrize("failure", ["inf", "raise"])
    def test_falls_back_to_the_simplex(self, failure, monkeypatch):
        # an MSE that is not finite at the solution, or a solve that fails,
        # leaves the fit to the simplex, which reuses the single-point
        # evaluator of e that the least-squares residual was taken with
        def lstsq(a, b, rcond=None):
            if failure == "raise":
                raise np.linalg.LinAlgError("SVD did not converge")
            return np.full(a.shape[1], np.inf), None, 0, None

        d = load_builtin("hubble")
        e = infix("c1*x1+c2")
        simplex = fit(e, d, FitConfig(solve_linear=False))
        compiled = []  # (expression, batched) of each compile
        raw_compile = optimize.compile_evaluator
        monkeypatch.setattr(optimize, "compile_evaluator", lambda f, X, batched=False:
                            compiled.append((f, batched)) or raw_compile(f, X, batched=batched))
        monkeypatch.setattr(optimize.np.linalg, "lstsq", lstsq)
        assert fit(e, d, FitConfig()) == simplex
        assert [batched for f, batched in compiled if f is e] == [False, True]
        assert len(compiled) == 4  # and one compile of each term, c1*x1 and c2


class TestMinimize:
    def test_quadratic_bowl(self):
        f = lambda v: float((v[0] - 3) ** 2 + (v[1] + 1) ** 2)
        x, fv, evals, conv = minimize(f, [0.0, 0.0], FitConfig(hops=2, seed=0))
        assert fv < 1e-10
        assert np.allclose(x, [3, -1], atol=1e-4)
        assert conv

    def test_rosenbrock_from_hard_start(self):
        def rosenbrock(v):
            return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)

        for seed in range(5):
            _, fv, _, _ = minimize(rosenbrock, [-1.2, 1.0], FitConfig(hops=50, seed=seed))
            assert fv < 1e-6

    def test_infinite_plateau_reported(self):
        f = lambda v: math.inf
        _, fv, _, _ = minimize(f, [1.0], FitConfig(hops=1, seed=0, max_evals=50))
        assert math.isinf(fv)

    def test_zero_dimensional(self):
        x, fv, evals, conv = nelder_mead(lambda v: 7.0, np.array([]), FitConfig(hops=1))
        assert fv == 7.0 and conv


class TestFitConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hops": 0},
            {"step_scale": 0.0},
            {"reflection": 0.0},
            {"expansion": 1.0},
            {"contraction": 1.0},
            {"shrink": 0.0},
            {"refits": 0},
            {"max_evals": 0},
            {"tol": 0.0},
            {"patience": -1},
            # NaN fails every comparison, and inf passes a lower bound alone
            *({key: value} for key in ("step_scale", "reflection", "expansion", "tol")
              for value in (math.nan, math.inf)),
            {"contraction": math.nan},
            {"shrink": math.nan},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


# FitResult reprs produced by the fitter as it stood before per-node guards,
# one errstate per solve and incremental simplex ordering (the first four) and
# before the simplex moved to Python floats with a per-solve memo (the 6-, 7-
# and 10-constant fits, which sum the centroid over many rows); every bit must
# stay with patience off. The next four are the fits that stop early at the
# default patience, pinned when it was introduced. Where a hop that gained no
# more than IDLE_GAIN was accepted, a fit is pinned under that rule
# (accept_idle) and, in the last four, at the default settings, which skip
# such a hop; the 6-, 7- and 10-constant fits accept none.
PINNED_FITS = [
    ("bode", "c1*exp(c2*x1)+c3", FitConfig(max_evals=1000, patience=0, accept_idle=True),
     "FitResult(params=(0.0576718316683838, 0.7237630662931395, 0.48529646205678434), "
     "mse=0.019845891649821985, mae=0.1069760634656383, evals=15701, converged=True)"),
    ("nikuradse", "c1*x2**c2+c3*x1", FitConfig(hops=5, patience=0, accept_idle=True),
     "FitResult(params=(0.10363854261158464, -0.24692638793487606, -7.404640850556469e-05), "
     "mse=3.779827362436026e-05, mae=0.0046511727844505, evals=3064, converged=True)"),
    ("dual_site_langmuir", None, FitConfig(patience=0, accept_idle=True),
     "FitResult(params=(1.9822831766520888, 0.04881452909081546, 4.005921062439193, "
     "9.689319881626226), mse=0.000336705687524199, mae=0.0157620069230859, evals=15751, "
     "converged=True)"),
    ("kepler", "c1*x1**c2", FitConfig(patience=0, accept_idle=True),
     "FitResult(params=(362.38258812955064, 1.5054253302193765), mse=5.807880298646893, "
     "mae=2.0909971495264705, evals=4726, converged=True)"),
    ("nikuradse", "c1+c2*x1+c3/x2+c4*x1*x2+c5*x2**c6",
     FitConfig(hops=3, max_evals=4000, patience=0),
     "FitResult(params=(20.835659427911132, 0.0008364568435457846, 0.6130767450272879, "
     "-8.92990114978363e-06, -20.843541021541846, -0.000356448196618752), "
     "mse=2.8899280114248957e-05, mae=0.004057001384139211, evals=6595, converged=True)"),
    ("dual_site_langmuir", "c1*x1/(c2+x1)+c3*x1/(c4+x1)+c5*x1/(c6+x1)+c7",
     FitConfig(hops=3, max_evals=4000, patience=0),
     "FitResult(params=(3.550310615108632, 8.545486621109157, 1.9759011822675612, "
     "0.047118645812205324, 0.5697208465175299, 31.767896285544474, -0.01239509053398087), "
     "mse=0.0003126454492380523, mae=0.015433847437308806, evals=15108, converged=False)"),
    ("bode", "c1+c2*x1+c3*x1**2+c4*x1**3+c5*x1**4+c6*x1**5+c7*x1**6+c8*exp(c9*x1+c10)",
     FitConfig(hops=3, max_evals=4000, patience=0),
     "FitResult(params=(1.9694955572306099, -2.65573846683918, 1.6712596934301156, "
     "-0.5089262729394984, 0.09470550715770008, -0.009833221520744532, "
     "0.00048222470892442595, -7.273282460219326, -6.043567762547729, -0.9106098443922606), "
     "mse=0.01467475451579041, mae=0.09997500420590599, evals=15997, converged=False)"),
    ("bode", "c1*exp(c2*x1)+c3", FitConfig(max_evals=1000, accept_idle=True),
     "FitResult(params=(0.0576718316683838, 0.7237630662931395, 0.48529646205678434), "
     "mse=0.019845891649821985, mae=0.1069760634656383, evals=6220, converged=True)"),
    ("nikuradse", "c1*x2**c2+c3*x1", FitConfig(accept_idle=True),
     "FitResult(params=(0.10363854261158464, -0.24692638793487606, -7.404640850556469e-05), "
     "mse=3.779827362436026e-05, mae=0.0046511727844505, evals=5762, converged=True)"),
    ("dual_site_langmuir", None, FitConfig(accept_idle=True),
     "FitResult(params=(1.9822831766520888, 0.04881452909081546, 4.005921062439193, "
     "9.689319881626226), mse=0.000336705687524199, mae=0.0157620069230859, evals=5912, "
     "converged=True)"),
    ("kepler", "c1*x1**c2", FitConfig(accept_idle=True),
     "FitResult(params=(362.382587959784, 1.5054253304635359), mse=5.807880298646903, "
     "mae=2.0909970562731153, evals=2125, converged=True)"),
    ("bode", "c1*exp(c2*x1)+c3", FitConfig(max_evals=1000),
     "FitResult(params=(0.05767183136430781, 0.7237630670079649, 0.4852964618410711), "
     "mse=0.019845891649822287, mae=0.10697605970804917, evals=6207, converged=True)"),
    ("nikuradse", "c1*x2**c2+c3*x1", FitConfig(),
     "FitResult(params=(0.10363854103923348, -0.24692638106639186, -7.404652624555251e-05), "
     "mse=3.779827362436027e-05, mae=0.004651172811525173, evals=5771, converged=True)"),
    ("dual_site_langmuir", None, FitConfig(),
     "FitResult(params=(1.9822831752246002, 0.048814528997677444, 4.005921061285401, "
     "9.68931986356031), mse=0.00033670568752419987, mae=0.015762006949352952, evals=5934, "
     "converged=True)"),
    ("kepler", "c1*x1**c2", FitConfig(),
     "FitResult(params=(362.3825879511895, 1.5054253304186704), mse=5.807880298647088, "
     "mae=2.090997215760242, evals=2143, converged=True)"),
]


def test_fit_results_are_pinned():
    for name, text, cfg, expected in PINNED_FITS:
        d = load_builtin(name)
        e = d.target if text is None else parse(text, Dialect.INFIX, list(d.variables))
        assert repr(fit(e, d, cfg)) == expected, name
    bode = load_builtin("bode")
    with pytest.raises(NoFiniteObjectiveError):
        fit(infix("log(-x1)*c1"), bode, FitConfig(max_evals=1000))


# nelder_mead return tuples (x as a list, so -0.0 shows) generated on the
# fitter before the per-solve memo
PINNED_SOLVES = [
    (lambda x: math.inf, [1.0, 2.0], 500, "([1.0, 2.0], inf, 499, False)"),
    # finite only within 1e-6 of the diagonal
    (lambda x: float((x[0] - 2) ** 2 + (x[1] - 2) ** 2) if abs(x[0] - x[1]) < 1e-6 else math.inf,
     [1.0, 1.0], 2000,
     "([2.0000000024083615, 2.0000000027318667], 1.3263301009853326e-17, 322, True)"),
    # -0.0 and 0.0 give different values: a memo that merged them would
    # answer 0.0 with the value of -0.0
    (lambda x: float(x[0] * x[0]) - 1e-3 * math.copysign(1, x[0]), [-0.0], 200,
     "([0.0], -0.001, 36, True)"),
]


@pytest.mark.parametrize("func,x0,max_evals,expected", PINNED_SOLVES)
def test_solves_are_pinned(func, x0, max_evals, expected):
    x, fv, evals, conv = nelder_mead(func, np.array(x0), FitConfig(max_evals=max_evals))
    assert repr((x.tolist(), fv, evals, conv)) == expected


def test_repeated_points_are_not_reevaluated():
    # 98 nested powers: every point is undefined on bode, so the simplex
    # shrinks until a shrink moves no vertex, and from then on a solve would
    # re-ask for the same few points until the cap
    bode = load_builtin("bode")
    e = infix("x1**(" * 98 + "c1*x1" + ")" * 98)
    objective = mse_objective(e, bode.X, bode.y)
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return objective(x)

    x, fv, evals, conv = nelder_mead(counted, np.array(e.initial_guess()), FitConfig())
    assert (x.tolist(), fv, evals, conv) == ([1.0], math.inf, 10001, False)
    assert calls <= 200


def _square(x, centre=0.0):
    return math.fsum((v - centre) * (v - centre) for v in x.tolist())


# objectives on which a simplex stalls: undefined everywhere or nearly so,
# flat, or telling -0.0 from 0.0
STALLING = {
    "all_inf": lambda x: math.inf,
    "all_nan": lambda x: math.nan,
    "near_diagonal": lambda x: (_square(x, 2.0) if max(abs(v - x[0]) for v in x.tolist()) < 1e-6
                                else math.inf),
    "half_line": lambda x: _square(x) if x[0] < -1 else math.inf,
    "flat": lambda x: 1.0,
    "copysign": lambda x: _square(x) - 1e-3 * math.copysign(1, x[0]),
}
BUDGETS = [*range(3, 61), 97, 250, 1001]


@pytest.mark.parametrize("name", STALLING)
def test_solves_match_the_reference_simplex(name):
    # the memo and the cycle skip change no bit of any solve; 5e-324 * 1.05
    # is 5e-324, so that start's simplex has collapsed before the first step
    # and the skip is taken at small budgets too
    func = STALLING[name]
    rng = np.random.default_rng(sorted(STALLING).index(name))
    for n in (1, 2, 3, 5, 10):
        starts = [np.zeros(n), -np.zeros(n), np.full(n, 1e300), rng.standard_normal(n),
                  np.full(n, 5e-324)]
        for x0 in starts:
            for max_evals in BUDGETS:
                x, fv, evals, conv = nelder_mead(func, x0, FitConfig(max_evals=max_evals))
                ox, ofv, oevals, oconv = oracle_nelder_mead(func, x0, max_evals)
                assert (x.tobytes(), fv, evals, conv) == (ox.tobytes(), ofv, oevals, oconv), (
                    n, x0.tolist(), max_evals)


def _seeded_objectives(rng: random.Random, n: int) -> dict:
    """Objectives on n coordinates in Python floats alone, drawn from rng: a
    tilted bowl, a banana valley, the bowl on a half-space only, the bowl
    telling -0.0 from 0.0 in its first coordinate, and nowhere finite."""
    centre = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    weight = [rng.uniform(0.5, 4.0) for _ in range(n)]

    def bowl(x):
        total = 0.0
        for v, c, w in zip(x.tolist(), centre, weight):
            total += w * (v - c) * (v - c)
        return total

    def valley(x):
        v = x.tolist()
        total = 0.0
        for a, b in zip(v, v[1:]):
            total += 100.0 * (b - a * a) * (b - a * a) + (1.0 - a) * (1.0 - a)
        return total

    def first(x):
        return (x.tolist() or [0.0])[0]

    return {
        "bowl": bowl,
        "valley": valley,
        "half_space": lambda x: bowl(x) if first(x) < 0.5 else math.inf,
        "copysign": lambda x: bowl(x) - 1e-3 * math.copysign(1.0, first(x)),
        "all_inf": lambda x: math.inf,
        "all_nan": lambda x: math.nan,
    }


# SHA-256 over the repr of every (x, fval, evals, converged) of the test
# below; its objectives use Python floats alone, so it holds on every platform
SIMPLEX_DIGEST = "19af4191d2d95563e9597a2f4f1e5a0037b2367b1f5cdfb7a9c7d49097dd946b"


def test_every_dimension_matches_the_reference_simplex(monkeypatch):
    # each n from 0 to MAX_CONSTANTS is compiled once, on its first solve, and
    # solves as the reference does: from starts with 0.0 and -0.0 coordinates
    # (which take the 0.00025 step) and at budgets up to the first few
    # iterations, so that an all-inf solve stops inside a shrink
    compiled = []
    source = optimize._source
    monkeypatch.setattr(optimize, "_source", lambda n: compiled.append(n) or source(n))
    optimize._simplex.cache_clear()
    results = []
    for n in range(MAX_CONSTANTS + 1):
        rng = random.Random(n)
        objectives = _seeded_objectives(rng, n)
        starts = [[(0.0, -0.0)[j % 2] for j in range(n)],
                  [(0.0, -0.0, rng.uniform(-3.0, 3.0))[j % 3] for j in range(n)],
                  [rng.gauss(0.0, 2.0) for _ in range(n)]]
        for name, func in objectives.items():
            for x0 in map(np.array, starts):
                for max_evals in [*range(1, 2 * n + 6), 150, 1000]:
                    got = nelder_mead(func, x0, FitConfig(max_evals=max_evals))
                    want = oracle_nelder_mead(func, x0, max_evals)
                    assert _same_result(got, want), (n, name, x0.tolist(), max_evals)
                    results.append(repr((got[0].tolist(), *got[1:])))
    assert compiled == list(range(MAX_CONSTANTS + 1))
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == SIMPLEX_DIGEST


def test_dimensions_compiled_on_concurrent_threads_solve_alike():
    # the runs of a batch fit on concurrent threads, so several threads may
    # compile the same or different dimensions at once; each solve must still
    # get its own dimension's simplex
    func = STALLING["copysign"]
    dims = list(range(1, 6))
    cfg = FitConfig(max_evals=40)
    want = {n: nelder_mead(func, np.full(n, 0.5), cfg) for n in dims}
    got, errors = [], []

    def work(order):
        try:
            for n in order:
                got.append((n, nelder_mead(func, np.full(n, 0.5), cfg)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            optimize._simplex.cache_clear()
            threads = [threading.Thread(target=work, args=(dims[::(-1) ** i],)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(got) == 10 * 6 * len(dims)
    assert all(_same_result(result, want[n]) for n, result in got)


# hop counts around the window: fewer hops than it holds, one window, a window
# and one more, two windows and one more, and the default
LOCKSTEP_HOPS = [1, HOP_WINDOW - 1, HOP_WINDOW, HOP_WINDOW + 1, 2 * HOP_WINDOW + 1, 25]
# patience off, the smallest, one inside a window, and the default
PATIENCES = [0, 1, 3, 10]


def _same_result(got, want):
    return (got[0].tobytes(), *got[1:]) == (want[0].tobytes(), *want[1:])


@pytest.mark.parametrize("accept_idle", [False, True])
def test_lockstep_hops_commit_the_sequential_ones(accept_idle):
    # every committed hop, and so the result, is the one-by-one hop's, under
    # either acceptance rule: the corpus has improvements at each slot of a
    # window (counted from the first hop after the last improvement, where
    # the window refills) and fits where no hop improves. Each fit is also
    # made with patience, each patience at each hop count, and some of those
    # stop early.
    slots, idle, stopped = set(), 0, set()
    for seed, name in enumerate(("bode", "dual_site_langmuir", "hubble", "kepler", "langmuir")):
        d = load_builtin(name)
        rng = random.Random(seed)
        for i in range(4 * len(LOCKSTEP_HOPS)):
            e = random_expression(rng, n_vars=1)
            cfg = FitConfig(hops=LOCKSTEP_HOPS[i % len(LOCKSTEP_HOPS)], seed=i, max_evals=600,
                            patience=0, accept_idle=accept_idle)
            objective = mse_objective(e, d.X, d.y)
            x0 = np.asarray(e.initial_guess(), dtype=float)
            improved = []
            want = oracle_minimize(objective, x0, cfg, improved)
            assert _same_result(minimize(objective, x0, cfg), want), (name, render(e), cfg.hops)
            start = 0
            for hop in improved:
                slots.add(hop - start)
                start = hop + 1
            idle += x0.size > 0 and not improved
            cfg = replace(cfg, patience=PATIENCES[1 + i // len(LOCKSTEP_HOPS) % 3])
            committed = []
            want = oracle_minimize(objective, x0, cfg, committed=committed)
            assert _same_result(minimize(objective, x0, cfg), want), (
                name, render(e), cfg.hops, cfg.patience)
            if x0.size and len(committed) < cfg.hops:
                stopped.add(cfg.patience)
    assert {0, HOP_WINDOW - 1} <= slots and slots & set(range(1, HOP_WINDOW - 1)), slots
    assert idle
    assert stopped == set(PATIENCES) - {0}, stopped


@pytest.mark.parametrize("name", STALLING)
def test_lockstep_hops_on_stalling_objectives(name):
    # scalar objectives without a batch: minimize calls them point by point
    func = STALLING[name]
    rng = np.random.default_rng(sorted(STALLING).index(name))
    for n in (1, 2, 3):
        for x0 in (np.full(n, -2.0), rng.standard_normal(n)):
            for hops in LOCKSTEP_HOPS:
                for max_evals in (7, 97):
                    for patience in PATIENCES:
                        for accept_idle in (False, True):
                            cfg = FitConfig(hops=hops, seed=n, max_evals=max_evals,
                                            patience=patience, accept_idle=accept_idle)
                            want = oracle_minimize(func, x0, cfg)
                            assert _same_result(minimize(func, x0, cfg), want), (
                                n, x0.tolist(), hops, max_evals, patience, accept_idle)


def test_patience_runs_every_hop_at_an_infinite_best():
    # no hop at an infinite best is idle, as any of them may find the first
    # finite point: an all-inf fit runs every hop whatever the patience
    func, x0 = STALLING["all_inf"], np.array([1.0, 2.0])
    for hops in LOCKSTEP_HOPS:
        got = minimize(func, x0, FitConfig(hops=hops, max_evals=50, patience=1))
        assert _same_result(got, minimize(func, x0, FitConfig(hops=hops, max_evals=50,
                                                               patience=0))), hops
        assert got[1] == math.inf


@pytest.mark.parametrize("patience", [1, 3, 10])
def test_patience_stops_after_that_many_idle_hops(patience):
    # every hop on a flat objective is idle: patience p runs p of the 25 hops,
    # and the fit is the one with p hops and patience off
    func, x0 = STALLING["flat"], np.array([0.5, -1.5])
    committed = []
    oracle_minimize(func, x0, FitConfig(max_evals=40, patience=patience), committed=committed)
    assert committed == list(range(patience))
    got = minimize(func, x0, FitConfig(max_evals=40, patience=patience))
    assert _same_result(got, minimize(func, x0, FitConfig(hops=patience, max_evals=40,
                                                           patience=0)))


def test_a_rounding_gain_is_idle_and_not_accepted():
    # the second hop's solve ends lower than the best by 1e-15 of it, at its
    # own start: that hop counts toward patience, so two hops run, and only
    # under accept_idle does the incumbent move to it
    cfg = FitConfig(max_evals=40, patience=2)
    x0 = np.array([0.5, -1.5])
    best_x = nelder_mead(STALLING["flat"], x0, cfg)[0]
    steps = np.random.default_rng(cfg.seed).standard_normal((cfg.hops, x0.size))
    start = (best_x + cfg.step_scale * steps[1]).tolist()

    def func(x):
        return 1.0 - 1e-15 if x.tolist() == start else 1.0

    x, fv, evals, _ = minimize(func, x0, cfg)
    assert (x.tolist(), fv) == (best_x.tolist(), 1.0)
    assert evals == minimize(func, x0, replace(cfg, hops=2, patience=0))[2]
    assert evals < minimize(func, x0, replace(cfg, hops=3, patience=0))[2]
    x, fv, _, _ = minimize(func, x0, replace(cfg, accept_idle=True))
    assert (x.tolist(), fv) == (start, 1.0 - 1e-15)


def test_hops_patience_would_drop_are_not_evaluated():
    # with patience p and i idle hops in a row, a hop past the p - i hops in
    # flight is always dropped, so none is started: every point the default
    # nikuradse fit evaluates, batched or not, is one that evals counts
    d = load_builtin("nikuradse")
    e = infix("c1*x2**c2+c3*x1", d.variables)
    objective = mse_objective(e, d.X, d.y)
    points = 0

    def counted(x):
        nonlocal points
        points += 1
        return objective(x)

    def batch(xs):
        nonlocal points
        points += len(xs)
        return objective.batch(xs)

    counted.batch = batch
    x0 = np.asarray(e.initial_guess(), dtype=float)
    _, _, evals, _ = minimize(counted, x0, FitConfig())
    assert evals == fit(e, d, FitConfig()).evals
    assert points <= evals


def test_default_fits_are_prefixes_of_the_full_hop_run():
    # a fit with patience is the fit with patience off and the hops it ran:
    # seeded nonlinear trees on every dataset, at default settings
    early = 0
    for seed, name in enumerate(("bode", "dual_site_langmuir", "hubble", "kepler", "langmuir",
                                 "nikuradse")):
        d = load_builtin(name)
        rng = random.Random(100 + seed)
        trees = 0
        while trees < 2:
            e = random_expression(rng, n_vars=len(d.variables))
            if not e.n_constants or linear_terms(e) is not None:
                continue
            committed = []
            oracle_minimize(mse_objective(e, d.X, d.y), np.asarray(e.initial_guess(), dtype=float),
                            FitConfig(), committed=committed)
            try:
                got = repr(fit(e, d, FitConfig()))
            except NoFiniteObjectiveError:
                continue
            trees += 1
            assert got == repr(fit(e, d, FitConfig(hops=len(committed), patience=0))), (
                name, render(e))
            early += len(committed) < FitConfig().hops
    assert early


@pytest.mark.parametrize("x0,max_evals,expected", [
    ([1.0, 2.0], 10**9, ([1.0, 2.0], math.inf, 10**9 - 1, False)),
    ([1.0, 2.0, 3.0], 10**9 + 1, ([1.0, 2.0, 3.0], math.inf, 10**9 + 2, False)),
])
def test_cycle_skip_reaches_a_huge_cap(x0, max_evals, expected):
    # an all-inf solve shrinks until a shrink moves no vertex; then each
    # iteration asks again for the same n + 2 points (reflection, contraction
    # and n shrink points), which the skip passes over by arithmetic: without
    # it this solve would take tens of minutes
    func = STALLING["all_inf"]
    period = len(x0) + 2
    # the reference at two small caps with the cap's residue: one period more
    # budget gives one period more evals and the same point
    small = 400 + (max_evals - 400) % period
    a, b = oracle_nelder_mead(func, x0, small), oracle_nelder_mead(func, x0, small + period)
    assert (a[0].tolist(), a[1], a[2] + period, a[3]) == (b[0].tolist(), b[1], b[2], b[3])
    assert (a[0].tolist(), a[1], a[2] + max_evals - small, a[3]) == expected
    x, fv, evals, conv = nelder_mead(func, np.array(x0), FitConfig(max_evals=max_evals))
    assert (x.tolist(), fv, evals, conv) == expected


@pytest.mark.parametrize("text,params,x,defined", [
    ("exp(log(x1-c1))", [2.0], [2.0, 3.0], [False, True]),  # exp(-inf) is 0
    ("c1/exp(exp(c2*x1))", [1.0, 1.0], [7.0, 0.0], [False, True]),  # c1/inf is 0
    ("(x1/c1)**0", [0.0], [3.0, 0.0], [False, False]),  # inf**0 and nan**0 are 1
])
def test_undefined_rows_stay_undefined(text, params, x, defined):
    e = infix(text)
    X = np.array(x).reshape(-1, 1)
    with np.errstate(all="ignore"):
        out = compile_evaluator(e, X)(params, X)
        assert mse_objective(e, X, np.zeros(len(x)))(np.array(params)) == math.inf
    assert list(np.isfinite(out)) == defined
    assert not np.isinf(out).any()  # each root is a site, so its undefined rows are NaN


@pytest.mark.parametrize("dataset,text,forms", [
    ("langmuir", "c1*x1/(c2+x1)", 2),  # the simplex: the single-point and the batched form
    ("hubble", "c1*x1+c2", 3),  # least squares: the whole expression and each term
])
def test_fits_evaluate_only_through_compile_evaluator(monkeypatch, dataset, text, forms):
    # the benchmark's tracer times evaluations by wrapping what
    # compile_evaluator returns, as optimize holds it: a fit that compiled
    # its tree another way, or evaluated it outside those functions, would
    # drop out of its figures
    made = []  # every flat function compiled, through the hook or not
    raw_compile = expressions._compile
    monkeypatch.setattr(expressions, "_compile",
                        lambda *args: made.append(args) or raw_compile(*args))
    calls = {"single": 0, "batched": 0}  # calls of the functions the hook returned
    hooked = []
    raw_evaluator = optimize.compile_evaluator

    def counting_evaluator(*args, **kwargs):
        evaluator = raw_evaluator(*args, **kwargs)
        hooked.append(evaluator)

        def counted(params, X):
            calls["batched" if np.ndim(params) == 2 else "single"] += 1
            return evaluator(params, X)

        return counted

    monkeypatch.setattr(optimize, "compile_evaluator", counting_evaluator)
    objective = {"single": 0, "batched": 0}  # calls of the objective minimize is given
    raw_minimize = optimize.minimize

    def counting_minimize(func, x0, cfg):
        def counted(x):
            objective["single"] += 1
            return func(x)

        def batch(points):
            objective["batched"] += 1
            return func.batch(points)

        counted.batch = batch
        return raw_minimize(counted, x0, cfg)

    monkeypatch.setattr(optimize, "minimize", counting_minimize)
    result = fit(infix(text), load_builtin(dataset), FitConfig())
    assert bool(result.evals) == (forms == 2)
    assert len(hooked) == len(made) == forms
    if result.evals:
        # every objective call is one evaluator call; the fit's residual is one more
        assert objective["single"] > 0 and objective["batched"] > 0
        assert calls == {"single": objective["single"] + 1, "batched": objective["batched"]}
    else:
        assert objective == {"single": 0, "batched": 0}
        assert calls == {"single": forms, "batched": 0}
