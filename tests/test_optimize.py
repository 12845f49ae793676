import math
import random
import warnings

import numpy as np
import pytest

from helpers import make_dataset, oracle_nelder_mead, random_expression

from srloop.data import load_builtin
from srloop.expressions import Dialect, evaluate_rows
from srloop.optimize import (
    FitConfig,
    NoFiniteObjectiveError,
    TooManyConstantsError,
    fit,
    minimize,
    mse_objective,
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
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


# FitResult reprs produced by the fitter as it stood before per-node guards,
# one errstate per solve and incremental simplex ordering (the first four) and
# before the simplex moved to Python floats with a per-solve memo (the 6-, 7-
# and 10-constant fits, which sum the centroid over many rows); every bit must
# stay.
PINNED_FITS = [
    ("bode", "c1*exp(c2*x1)+c3", FitConfig(max_evals=1000),
     "FitResult(params=(0.0576718316683838, 0.7237630662931395, 0.48529646205678434), "
     "mse=0.019845891649821985, mae=0.1069760634656383, evals=15701, converged=True)"),
    ("nikuradse", "c1*x2**c2+c3*x1", FitConfig(hops=5),
     "FitResult(params=(0.10363854261158464, -0.24692638793487606, -7.404640850556469e-05), "
     "mse=3.779827362436026e-05, mae=0.0046511727844505, evals=3064, converged=True)"),
    ("dual_site_langmuir", None, FitConfig(),
     "FitResult(params=(1.9822831766520888, 0.04881452909081546, 4.005921062439193, "
     "9.689319881626226), mse=0.000336705687524199, mae=0.0157620069230859, evals=15751, "
     "converged=True)"),
    ("kepler", "c1*x1**c2", FitConfig(),
     "FitResult(params=(362.38258812955064, 1.5054253302193765), mse=5.807880298646893, "
     "mae=2.0909971495264705, evals=4726, converged=True)"),
    ("nikuradse", "c1+c2*x1+c3/x2+c4*x1*x2+c5*x2**c6", FitConfig(hops=3, max_evals=4000),
     "FitResult(params=(20.835659427911132, 0.0008364568435457846, 0.6130767450272879, "
     "-8.92990114978363e-06, -20.843541021541846, -0.000356448196618752), "
     "mse=2.8899280114248957e-05, mae=0.004057001384139211, evals=6595, converged=True)"),
    ("dual_site_langmuir", "c1*x1/(c2+x1)+c3*x1/(c4+x1)+c5*x1/(c6+x1)+c7",
     FitConfig(hops=3, max_evals=4000),
     "FitResult(params=(3.550310615108632, 8.545486621109157, 1.9759011822675612, "
     "0.047118645812205324, 0.5697208465175299, 31.767896285544474, -0.01239509053398087), "
     "mse=0.0003126454492380523, mae=0.015433847437308806, evals=15108, converged=False)"),
    ("bode", "c1+c2*x1+c3*x1**2+c4*x1**3+c5*x1**4+c6*x1**5+c7*x1**6+c8*exp(c9*x1+c10)",
     FitConfig(hops=3, max_evals=4000),
     "FitResult(params=(1.9694955572306099, -2.65573846683918, 1.6712596934301156, "
     "-0.5089262729394984, 0.09470550715770008, -0.009833221520744532, "
     "0.00048222470892442595, -7.273282460219326, -6.043567762547729, -0.9106098443922606), "
     "mse=0.01467475451579041, mae=0.09997500420590599, evals=15997, converged=False)"),
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evaluate_rows(e, params, X)
        with np.errstate(all="ignore"):
            assert mse_objective(e, X, np.zeros(len(x)))(np.array(params)) == math.inf
    assert list(np.isfinite(out)) == defined
    assert not np.isinf(out).any()  # undefined rows are NaN
