"""Acceptance suite: one test per release criterion, each printing a pass/fail
line with its runtime against the stated budget (run with ``pytest -s`` to see
the lines as they happen)."""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import candidate, make_dataset, random_expression, reply, write_transcript

from srloop.cli import main as cli_main, reference_table
from srloop.data import load_builtin
from srloop.engine import RunConfig, run
from srloop.expressions import (
    Dialect,
    OperatorSet,
    canonicalize,
    complexity,
    render,
    sr_equivalent,
)
from srloop.llm import ScriptedBackend
from srloop.optimize import FitConfig, fit, mse_objective, repeat_fit
from srloop.pareto import CandidateStore
from srloop.parsing import parse
from srloop.prompts import PromptConfig, build_initial, make_data_view, operator_note

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    verdict = "PASS" if within else "FAIL"
    print(f"\n[criterion {number:02d}] {verdict}  {description} "
          f"({elapsed:.2f}s of {budget_s:.0f}s budget)")
    assert within, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def infix(text, variables=("x1",)):
    return parse(text, Dialect.INFIX, list(variables))


# --- 1. rediscovery detection --------------------------------------------------

TARGET_FORMS = {
    "langmuir": ("c1*x1/(c2+x1)", "x1*c3/(x1+c4)"),
    "dual_site_langmuir": ("c1*x1/(c2+x1)+c3*x1/(c4+x1)", "x1*c1/(x1+c2)+x1*c3/(c4+x1)"),
    "kepler": ("c1*x1**(3/2)", "c2*x1**1.5"),
    "bode": ("c1*exp(c2*x1)+c3", "c3+exp(x1*c2)*c1"),
    "hubble": ("c1*x1", "x1/c2"),
}
DECOYS = {
    "langmuir": ("c1+c2*x1", "c1*x1*x1"),
    "dual_site_langmuir": ("c1*x1/(c2+x1)", "c1+c2*x1"),
    "kepler": ("c1*x1", "c1*x1*x1"),
    "bode": ("c1*x1", "c1*x1*x1"),
    "hubble": ("c1+c2*x1*x1", "c1/x1"),
}


def test_criterion_1_rediscovery_detection():
    with criterion(1, "planted targets found at the planted iteration, 5/5 runs each", 10.0):
        for dataset_id, (form_a, form_b) in TARGET_FORMS.items():
            dataset = load_builtin(dataset_id)
            assert sr_equivalent(infix(form_a), infix(form_b))
            entries = [reply(*DECOYS[dataset_id]), reply(form_a), reply(form_b)]
            for run_index in range(5):
                cfg = RunConfig(
                    dataset=dataset_id,
                    iterations=3,
                    runs=1,
                    fit=FitConfig(hops=1, seed=run_index, max_evals=500),
                )
                log = run(cfg, dataset=dataset, backend=ScriptedBackend(entries))
                assert log.rediscovery_iteration == 2, (dataset_id, run_index)


# --- 2. fit quality anchors ----------------------------------------------------

def test_criterion_2_fit_quality_anchors():
    with criterion(2, "Langmuir beats the closed-form line; dual-site nests single-site", 10.0):
        lang = load_builtin("langmuir")
        x, y = lang.X[:, 0], lang.y
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
        intercept = float(y.mean() - slope * x.mean())
        line_mse = float(np.mean((intercept + slope * x - y) ** 2))
        t0 = time.perf_counter()
        single_on_lang = repeat_fit(lang.target, lang, FitConfig(hops=10, seed=0, refits=3))
        assert time.perf_counter() - t0 < 5.0
        assert single_on_lang.mse < line_mse

        dual = load_builtin("dual_site_langmuir")
        single_form = infix("c1*x1/(c2+x1)")
        t0 = time.perf_counter()
        single_fit = repeat_fit(single_form, dual, FitConfig(hops=10, seed=0, refits=3))
        assert time.perf_counter() - t0 < 5.0
        t0 = time.perf_counter()
        dual_fit = repeat_fit(dual.target, dual, FitConfig(hops=15, seed=0, refits=3))
        assert time.perf_counter() - t0 < 5.0
        assert dual_fit.mse <= single_fit.mse + 1e-12


# --- 3. optimizer sanity on the banana valley ----------------------------------

def _hops_to_reach(objective, x0, cfg, target=1e-6, max_hops=50):
    """Hops of the strict-descent scheme needed to push the objective below
    ``target``; None when ``max_hops`` is not enough."""
    from srloop.optimize import nelder_mead

    rng = np.random.default_rng(cfg.seed)
    x, best, _, _ = nelder_mead(objective, np.asarray(x0, dtype=float), cfg)
    for hop in range(max_hops + 1):
        if best < target:
            return hop
        trial = x + cfg.step_scale * rng.standard_normal(len(x))
        x2, f2, _, _ = nelder_mead(objective, trial, cfg)
        if f2 < best:
            x, best = x2, f2
    return None


def test_criterion_3_optimizer_sanity():
    with criterion(3, "Nelder-Mead + hopping solves the Rosenbrock surrogate, 10/10 seeds", 5.0):
        def rosenbrock(v):
            return float((v[0] - 1.0) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2)

        # data-encoded surrogate: three rows make the MSE exactly the Rosenbrock
        # function of (c1, c2), with its global minimum of 0 at (1, 1)
        t = math.sqrt(150.0)
        surrogate = infix("c1+x1*(c2-c1*c1)")
        d = make_dataset([0.0, t, -t], [1.0, 1.0, 1.0])
        objective = mse_objective(surrogate, d.X, d.y)
        rng = np.random.default_rng(17)
        for _ in range(50):
            point = rng.uniform(-2, 2, size=2)
            with np.errstate(all="ignore"):
                value = objective(point)
            assert math.isclose(value, rosenbrock(point), rel_tol=1e-12, abs_tol=1e-12)

        for seed in range(10):
            cfg = FitConfig(hops=50, seed=seed, max_evals=4000)
            # the surrogate's minimum sits at the default all-ones initial guess,
            # so also demand the classic hard start on the raw objective
            assert _hops_to_reach(objective, [1.0, 1.0], cfg) is not None, seed
            assert _hops_to_reach(rosenbrock, [-1.2, 1.0], cfg) is not None, seed
        # the full fit path (expression objective, all 50 hops) agrees
        result = fit(surrogate, d, FitConfig(hops=50, seed=0, max_evals=150))
        assert result.mse < 1e-6


# --- 4. repeated-fit contract on the large dataset ------------------------------

def test_criterion_4_repeat_fit_contract():
    with criterion(4, "refits=10 never loses to any of its 10 single fits (20 exprs)", 60.0):
        d = load_builtin("nikuradse")
        assert d.n_rows == 360
        view = make_data_view(d, rounding=3, subsample=36, seed=0)
        wider = make_data_view(d, rounding=3, subsample=72, seed=0)
        assert len(view.rows) == 36 and view.n_total == 360
        assert set(view.indices) < set(wider.indices)
        # fitting consumes the dataset itself, never the prompt view

        rng = random.Random(60)
        base = FitConfig(hops=2, seed=100, max_evals=700, refits=10)
        checked = 0
        while checked < 20:
            e = random_expression(rng, n_vars=2, max_depth=3)
            if not 1 <= e.n_constants <= 6:
                continue
            singles = []
            for i in range(10):
                try:
                    singles.append(fit(e, d, FitConfig(hops=2, seed=100 + i, max_evals=700)))
                except Exception:
                    singles.append(None)
            try:
                combined = repeat_fit(e, d, base)
            except Exception:
                assert all(s is None for s in singles), render(e)
                checked += 1
                continue
            maes = [s.mae for s in singles if s is not None]
            assert combined.mae <= min(maes) + 1e-15, render(e)
            checked += 1


# --- 5. canonicalizer equivalences ----------------------------------------------

def test_criterion_5_canonicalizer():
    with criterion(5, "constant-absorption equivalences, idempotence, non-inflation", 30.0):
        assert sr_equivalent(infix("x1+c1"), infix("x1-c1"))
        assert sr_equivalent(infix("c1*(c2+x1)"), infix("c3+c4*x1"))
        assert sr_equivalent(infix("c1*x1/(c2+x1)"), infix("c3*x1/(x1+c4)"))

        rng = random.Random(2718)
        for _ in range(1000):
            e = random_expression(rng, n_vars=2)
            canon = canonicalize(e)
            assert canonicalize(canon).root == canon.root
            assert complexity(canon) <= complexity(e)

        pairs = [
            ("x1+c1", "x1-c1"),
            ("c1*(c2+x1)", "c3+c4*x1"),
            ("c1*x1/(c2+x1)", "c3*x1/(x1+c4)"),
            ("x1/c1", "c2*x1"),
            ("c1+x1+c2", "x1+c1"),
            ("c1*x1*c2", "c3*x1"),
            ("c1/(c2+x1)", "c3/(x1+c4)"),
            ("(x1-c1)*c2", "c3+c4*x1"),
            ("x1*x1+c1-c2", "x1*x1+c3"),
            ("c1*exp(c2*x1)+c3", "exp(x1*c2)*c1+c3"),
        ]
        assert len(pairs) == 10
        rng_np = np.random.default_rng(5)
        xs = np.linspace(0.5, 4.0, 12)
        ys = 1.7 * xs / (0.8 + xs) + 0.05 * rng_np.standard_normal(xs.size)
        d = make_dataset(xs, ys)
        cfg = FitConfig(hops=8, seed=3, max_evals=4000)
        for left, right in pairs:
            a, b = infix(left), infix(right)
            assert sr_equivalent(a, b), (left, right)
            assert abs(fit(a, d, cfg).mse - fit(b, d, cfg).mse) < 1e-10, (left, right)


# --- 6. pareto front vs brute force ---------------------------------------------

def test_criterion_6_pareto_front_oracle():
    with criterion(6, "front matches the O(n^2) domination oracle on 200 stores", 5.0):
        def brute_force(items):
            keep = []
            for c in items:
                dominated = any(
                    o is not c and o.complexity <= c.complexity and o.mse <= c.mse
                    and (o.complexity < c.complexity or o.mse < c.mse)
                    for o in items
                )
                if not dominated:
                    keep.append(c)
            return sorted(keep, key=lambda c: (c.complexity, c.mse, c.iteration_born))

        rng = random.Random(66)
        for trial in range(200):
            store = CandidateStore()
            for i in range(rng.randint(1, 50)):
                expr = infix(f"x1**{trial * 50 + i}.5")
                mse, born = rng.choice([0.25, 0.5, 1.0, 2.0, rng.random()]), rng.randint(1, 8)
                store.insert(candidate(expr, mse, mae=1.0, complexity=rng.randint(1, 12),
                                       born=born))
            assert store.pareto_front() == brute_force(list(store))


# --- 7. candidate arithmetic over a long run ------------------------------------

def test_criterion_7_candidate_arithmetic():
    with criterion(7, "a 50-iteration run evaluates at most 153 candidates", 10.0):
        entries = [
            reply(f"c1*x1**{k}.5", f"c1*x1**{k}.25", f"c1+c2*x1**{k}.5")
            for k in range(1, 51)
        ]
        cfg = RunConfig(
            dataset="langmuir",
            iterations=50,
            runs=1,
            fit=FitConfig(hops=1, seed=0, max_evals=400),
        )
        backend = ScriptedBackend(entries)
        log = run(cfg, backend=backend)
        evaluated = sum(len(rec.candidates) for rec in log.records)
        assert evaluated <= 153
        assert evaluated == 150  # 3 per completion, one completion per iteration
        assert len(log.records) == 50
        assert backend.cursor == 50


# --- 8. ablation prompts and operator notes -------------------------------------

def test_criterion_8_ablation_prompts():
    with criterion(8, "ablation blocks gate exactly; operator notes list the exact sets", 1.0):
        kepler = load_builtin("kepler")
        view = make_data_view(kepler, rounding=3)
        note = operator_note(OperatorSet.easy(kepler.easy_extra_ops))

        def cfg(**kw):
            return PromptConfig(operator_note=note, **kw)

        all_tools = build_initial(view, kepler.context, cfg())
        assert "semi-major axis" in all_tools
        assert "Data (6 rows" in all_tools
        assert "scratchpad" in all_tools
        no_context = build_initial(view, kepler.context, cfg(use_context=False))
        assert "semi-major axis" not in no_context and "Data (6 rows" in no_context
        no_data = build_initial(view, kepler.context, cfg(include_data=False))
        assert "Data (" not in no_data and "semi-major axis" in no_data
        no_scratch = build_initial(view, kepler.context, cfg(use_scratchpad=False))
        assert "scratchpad" not in no_scratch and "Data (6 rows" in no_scratch

        assert operator_note(OperatorSet.easy()) == (
            "Allowed operators: binary +, -, *, /. Use no other operators or functions."
        )
        assert operator_note(OperatorSet.easy(("sqrt",))) == (
            "Allowed operators: binary +, -, *, /; unary sqrt. "
            "Use no other operators or functions."
        )
        assert operator_note(OperatorSet.easy(("^", "exp"))) == (
            "Allowed operators: binary +, -, *, /, ^; unary exp. "
            "Use no other operators or functions."
        )
        assert operator_note(OperatorSet.hard()) == (
            "Allowed operators: binary +, -, *, /; unary sqrt, log, exp, square, cube. "
            "Use no other operators or functions."
        )


# --- 9. replay determinism -------------------------------------------------------

def test_criterion_9_replay_determinism(tmp_path, capsys):
    with criterion(9, "cmd_replay reproduces every metric of a fresh scripted log", 10.0):
        transcript = tmp_path / "t.txt"
        write_transcript(
            [reply("c1*x1", "c1+x1*c2"), reply("x1*c3/(x1+c4)"), reply("c1*x1*x1")],
            transcript,
        )
        ini = tmp_path / "config.ini"
        ini.write_text(f"""
[run]
dataset = langmuir
iterations = 3
runs = 2

[fit]
hops = 2
max_evals = 600
seed = 1

[llm]
kind = scripted
transcript = {transcript}
""")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(ini), "--out", str(out)]) == 0
        logs = sorted(str(p) for p in out.glob("run*.jsonl"))
        assert len(logs) == 2
        assert cli_main(["replay", *logs]) == 0
        printed = capsys.readouterr().out
        assert printed.count("ok") >= 2


# --- 10. reference constants in reports ------------------------------------------

def test_criterion_10_reference_constants():
    with criterion(10, "published reference scores render verbatim from the manifest", 5.0):
        table = reference_table()
        for anchor in (
            "BMS", "0.00392", "37",
            "GPT-4 best", "0.01086", "41",
            "GPT-4o best", "0.00924", "27",
            "EFS", "0.00941",
            "P1S1", "0.02270419", "13",
            "P2S1", "0.00897093", "69",
            "P3S2o", "0.01144178", "19",
        ):
            assert anchor in table, anchor
