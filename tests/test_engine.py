import math
from dataclasses import replace

import pytest

from helpers import make_dataset, reply

from srloop.data import load_builtin
from srloop.engine import (
    BackendConfig,
    IterationRecord,
    RunConfig,
    RunLog,
    config_from_dict,
    diff_replay,
    load_runlog_data,
    replay,
    resolve_operator_set,
    run,
    save_runlog,
    score_runs,
    to_json,
)
from srloop.expressions import Dialect, OperatorSet, Unary, canonicalize, sr_equivalent
from srloop.llm import HttpBackend, ScriptedBackend
from srloop.optimize import FitConfig
from srloop.pareto import Candidate, FeedbackPolicy
from srloop.parsing import parse
from srloop.prompts import PromptConfig

FAST_FIT = FitConfig(hops=1, seed=5, max_evals=600)


def config(**kwargs) -> RunConfig:
    kwargs.setdefault("dataset", "langmuir")
    kwargs.setdefault("iterations", 3)
    kwargs.setdefault("runs", 1)
    kwargs.setdefault("fit", FAST_FIT)
    return RunConfig(**kwargs)


class TestRun:
    def test_planted_target_found_at_iteration(self):
        entries = [
            reply("c1*x1", "c1+x1*c2"),
            reply("x1*c3/(x1+c4)", "c1/x1"),
            reply("c1*x1*x1"),
        ]
        log = run(config(), backend=ScriptedBackend(entries))
        assert log.rediscovery_iteration == 2
        assert len(log.records) == 3
        assert [rec.target_found for rec in log.records] == [False, True, True]

    def test_target_in_first_response(self):
        entries = [reply("c1*x1/(c2+x1)")]
        log = run(config(iterations=1), backend=ScriptedBackend(entries))
        assert log.rediscovery_iteration == 1

    def test_latex_dialect_end_to_end(self):
        entries = [reply(r"\frac{c_1 x_1}{c_2 + x_1}", r"c_1 \cdot x_1")]
        cfg = config(iterations=1, prompt=PromptConfig(dialect=Dialect.LATEX))
        log = run(cfg, backend=ScriptedBackend(entries))
        assert log.rediscovery_iteration == 1
        assert sorted(c.equation for c in log.store) == ["c1*x1", "c1*x1/(c2+x1)"]

    def test_malformed_candidate_skipped_not_fatal(self):
        entries = [reply("c1*x1", "c1*+/x1", "c1+x1")]
        log = run(config(iterations=1), backend=ScriptedBackend(entries))
        assert len(log.store) == 2
        statuses = [o.status for o in log.records[0].outcomes]
        assert statuses == ["fitted", "syntax_error", "fitted"]

    def test_every_iteration_gets_a_record(self):
        entries = [reply(f"c1*x1**{k}.5") for k in range(1, 16)]
        log = run(config(iterations=15), backend=ScriptedBackend(entries))
        assert [rec.index for rec in log.records] == list(range(1, 16))

    def test_retry_on_missing_markers(self):
        entries = ["no markers in sight", reply("c1*x1"), reply("c1+x1")]
        log = run(config(iterations=2), backend=ScriptedBackend(entries))
        assert len(log.records) == 2
        assert len(log.records[0].responses) == 2  # original + retry
        assert len(log.store) == 2

    def test_empty_retry_recorded_and_loop_continues(self):
        entries = ["nothing", "still nothing", reply("c1*x1")]
        log = run(config(iterations=2), backend=ScriptedBackend(entries))
        assert log.records[0].extracted == []
        assert log.records[0].candidates == []
        assert len(log.store) == 1

    def test_extracted_is_the_outcomes_texts(self):
        log = run(config(iterations=1), backend=ScriptedBackend([reply("c1*x1", "c1*+/x1")]))
        assert log.records[0].extracted == [o.text for o in log.records[0].outcomes]
        assert log.records[0].extracted == ["c1*x1", "c1*+/x1"]

    def test_a_failed_reprompt_keeps_the_response_and_target_on_front(self):
        entries = [reply("c1*x1/(c2+x1)"), "no markers in sight"]
        log = run(config(), backend=ScriptedBackend(entries))
        assert log.error
        first, cut = log.records
        assert first.target_found and first.target_on_front
        assert (cut.index, cut.responses, cut.outcomes, cut.candidates) == (
            2, ["no markers in sight"], [], [])
        assert cut.completion_tokens == 4 and cut.prompt_tokens > 0
        # the store did not change, so neither did the flags
        assert cut.target_found and cut.target_on_front
        assert log.rediscovery_iteration == 1

    def test_duplicates_within_and_across_iterations(self):
        entries = [
            reply("c1*x1", "x1*c2"),          # second is sr-equivalent to first
            reply("c1*x1"),                   # already stored
        ]
        log = run(config(iterations=2), backend=ScriptedBackend(entries))
        assert len(log.store) == 1
        assert [o.status for o in log.records[0].outcomes] == ["fitted", "duplicate"]
        assert [o.status for o in log.records[1].outcomes] == ["duplicate"]

    def test_operator_validation(self):
        entries = [reply("exp(x1)+c1", "c1*x1")]
        log = run(config(iterations=1, operators="easy"), backend=ScriptedBackend(entries))
        assert [o.status for o in log.records[0].outcomes] == ["operator_rejected", "fitted"]

    def test_all_variables_rule(self):
        d = load_builtin("nikuradse")
        entries = [reply("c1*x1", "c1*x1+c2*x2")]
        log = run(
            config(dataset="nikuradse", iterations=1, subsample=20),
            dataset=d,
            backend=ScriptedBackend(entries),
        )
        assert [o.status for o in log.records[0].outcomes] == ["missing_variables", "fitted"]

    def test_unfittable_candidate_stored_with_infinite_mse(self):
        entries = [reply("c1/(x1-x1)", "c1*x1")]
        log = run(config(iterations=1), backend=ScriptedBackend(entries))
        assert [o.status for o in log.records[0].outcomes] == ["unfittable", "fitted"]
        stored = {c.equation: c for c in log.store}
        assert math.isinf(stored["c1/(x1-x1)"].mse)
        # and it is suppressed as a duplicate later but never fed back
        feedback = log.store.select_feedback(FeedbackPolicy())
        assert all(math.isfinite(c.mse) for c in feedback)

    def test_too_many_constants_rejected_before_fitting(self):
        text = "+".join(f"c{i}*x1**{i}" for i in range(1, 12))
        log = run(config(iterations=1), backend=ScriptedBackend([reply(text)]))
        assert [o.status for o in log.records[0].outcomes] == ["too_many_constants"]
        assert len(log.store) == 0

    def test_repeat_of_an_unstored_proposal_is_evaluated(self):
        # a proposal rejected before it is stored is no duplicate of a later
        # proposal in the same batch with the same canonical form
        over = "+".join(f"c{i}" for i in range(1, 12)) + "+c12*x1"
        log = run(config(iterations=1), backend=ScriptedBackend([reply(over, "c1+c2*x1")]))
        assert [o.status for o in log.records[0].outcomes] == ["too_many_constants", "fitted"]
        assert [c.equation for c in log.store] == ["c1+c2*x1"]

    def test_canonicalize_without_fixpoint_is_internal_error(self, monkeypatch):
        import srloop.expressions

        def growing_pass(node, counts, fresh):
            return Unary("neg", node)  # a new tree on every pass

        monkeypatch.setattr(srloop.expressions, "_canon_pass", growing_pass)
        e = parse("c1*x1", Dialect.INFIX, ["x1"])
        with pytest.raises(RuntimeError, match="no fixpoint in 64 passes"):
            canonicalize(e)
        # a dataset without a target, so only the proposals are canonicalized
        d = make_dataset([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        log = run(config(iterations=1), dataset=d, backend=ScriptedBackend([reply("c1*x1")]))
        [outcome] = log.records[0].outcomes
        assert outcome.status == "internal_error"
        assert outcome.detail.startswith("RuntimeError: canonicalize reached no fixpoint")
        assert len(log.store) == 0

    def test_too_complex_rejected_before_canonicalizing(self):
        entries = [reply("c1*x1" + "+x1" * 400, "**".join(["x1"] * 2000), "c1*x1")]
        log = run(config(iterations=1), backend=ScriptedBackend(entries))
        assert [o.status for o in log.records[0].outcomes] == [
            "too_complex", "too_complex", "fitted"]

    def test_unexpected_failure_is_internal_error(self, monkeypatch):
        import srloop.engine

        def broken_fit(e, d, cfg):
            if e.n_constants == 2:
                raise RecursionError("maximum recursion depth exceeded")
            return real_fit(e, d, cfg)

        real_fit = srloop.engine.repeat_fit
        monkeypatch.setattr(srloop.engine, "repeat_fit", broken_fit)
        entries = [reply("c1*x1+c2", "c1*x1"), reply("c1/x1")]
        log = run(config(iterations=2), backend=ScriptedBackend(entries))
        outcomes = log.records[0].outcomes
        assert [o.status for o in outcomes] == ["internal_error", "fitted"]
        assert outcomes[0].detail.startswith("RecursionError: maximum recursion depth")
        assert [o.status for o in log.records[1].outcomes] == ["fitted"]
        assert sorted(c.equation for c in log.store) == ["c1*x1", "c1/x1"]

    def test_backend_failure_keeps_partial_log(self):
        entries = [reply("c1*x1")]  # transcript too short for 3 iterations
        log = run(config(iterations=3), backend=ScriptedBackend(entries))
        assert len(log.records) == 1
        assert log.error

    @pytest.mark.parametrize("owned", [True, False])
    @pytest.mark.parametrize("turns", [2, 1])  # with 1, the run ends with its error set
    def test_only_an_http_backend_the_run_makes_is_closed(self, owned, turns, monkeypatch):
        script = ScriptedBackend([reply("c1*x1"), reply("c1/x1")][:turns])
        closed, close = [], HttpBackend.close
        monkeypatch.setattr(HttpBackend, "complete", lambda self, req: script.complete(req))
        monkeypatch.setattr(HttpBackend, "close", lambda self: (closed.append(self), close(self)))
        passed = None if owned else HttpBackend(BackendConfig(kind="http"))
        cfg = config(iterations=2, backend=BackendConfig(kind="http"))
        assert (run(cfg, backend=passed).error is not None) == (turns == 1)
        assert len(closed) == (1 if owned else 0) and all(isinstance(b, HttpBackend) for b in closed)
        if passed is not None:
            passed.close()

    def test_candidate_count_bound(self):
        entries = [reply(f"c1*x1**{k}.5", f"c1*x1**{k}.25", f"c1*x1**{k}.75", "c1*x1")
                   for k in range(1, 6)]
        cfg = config(iterations=5)
        log = run(cfg, backend=ScriptedBackend(entries))
        evaluated = sum(len(rec.candidates) for rec in log.records)
        assert evaluated <= cfg.iterations * cfg.prompt.n_expressions

    def test_token_accounting_matches_backend(self):
        entries = [reply("c1*x1"), reply("c1+x1"), reply("c1/x1")]
        backend = ScriptedBackend(entries)
        log = run(config(), backend=backend)
        per_call_completion = sum(len(e.split()) for e in entries)
        assert log.usage.completion_tokens == per_call_completion
        assert log.usage.prompt_tokens == sum(r.prompt_tokens for r in log.records)

    def test_requests_carry_no_history(self):
        entries = [reply("c1*x1"), reply("c1+x1")]
        log = run(config(iterations=2), backend=ScriptedBackend(entries))
        # one request per record, whose prompt is its user string
        assert [len(rec.responses) for rec in log.records] == [1, 1]
        # each request is one system + one user string; no prior-turn text
        first_user = log.records[0].prompt
        assert first_user not in log.records[1].prompt

    def test_fitted_values_only_in_prompts_when_policy_shares_them(self):
        entries = [reply("c1*x1"), reply("c1+x1"), reply("c1/x1")]
        plain = run(config(policy=FeedbackPolicy()), backend=ScriptedBackend(entries))
        assert all('"params"' not in rec.prompt for rec in plain.records)
        sharing = run(config(policy=FeedbackPolicy(kind="top_k", include_params=True)),
                      backend=ScriptedBackend(entries))
        assert any('"params"' in rec.prompt for rec in sharing.records)


class TestRediscovery:
    def test_target_vs_itself(self):
        d = load_builtin("langmuir")
        assert sr_equivalent(d.target, d.target)

    def test_sr_similar_variant(self):
        d = load_builtin("langmuir")
        variant = parse("x1*c3/(x1+c4)", Dialect.INFIX, ["x1"])
        assert sr_equivalent(variant, d.target)

    def test_free_exponent_does_not_match_fixed(self):
        target = parse("c1*x1**1.5", Dialect.INFIX, ["x1"])
        free = parse("c1*x1**c2", Dialect.INFIX, ["x1"])
        assert not sr_equivalent(free, target)


def _log_with_rediscovery(iteration):
    # six iterations, whose store holds the target from ``iteration`` on (never for None)
    records = [IterationRecord(i, "", target_found=iteration is not None and i >= iteration)
               for i in range(1, 7)]
    return RunLog(dataset_id="langmuir", config={}, records=records)


class TestScore:
    def test_counting_example(self):
        logs = [_log_with_rediscovery(i) for i in (1, 1, 3, None, None)]
        score = score_runs(logs, iterations=5)
        assert score == [2, 2, 3, 3, 3]

    def test_all_zero_without_rediscovery(self):
        logs = [_log_with_rediscovery(None) for _ in range(4)]
        assert score_runs(logs, iterations=3) == [0, 0, 0]

    def test_bounded_and_non_decreasing(self):
        logs = [_log_with_rediscovery(i) for i in (2, 4, 4, 1)]
        score = score_runs(logs, iterations=6)
        assert all(a <= b for a, b in zip(score, score[1:]))
        assert score[-1] <= len(logs)

    def test_front_mode_uses_per_iteration_flags(self):
        def rec(i, flag):
            return IterationRecord(i, "", target_on_front=flag)

        log1 = RunLog("d", {}, records=[rec(1, False), rec(2, True)])
        log2 = RunLog("d", {}, records=[rec(1, True), rec(2, False)])
        assert score_runs([log1, log2], mode="front") == [1, 1]


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            dataset="bode",
            operators=OperatorSet.easy(("^", "exp")),
            prompt=PromptConfig(n_expressions=2, rounding_decimals=3,
                                operator_note="note", extra_instructions=("x",)),
            policy=FeedbackPolicy(kind="top_k", include_params=True),
            fit=FitConfig(hops=2, seed=9),
            iterations=4,
            runs=2,
            backend=BackendConfig(kind="scripted", transcript="t.txt"),
            temperature=0.3,
            seed=12,
            subsample=5,
        )
        assert config_from_dict(to_json(cfg)) == cfg

    def test_header_line_is_pinned(self, tmp_path):
        cfg = RunConfig(
            dataset="bode",
            operators=OperatorSet(frozenset({"^", "/", "*", "+", "-"}),
                                  frozenset({"exp", "log"}), "mine"),
            prompt=PromptConfig(use_scratchpad=False, n_expressions=2, operator_note="note",
                                extra_instructions=("a", "b"), rounding_decimals=3,
                                dialect=Dialect.LATEX),
            policy=FeedbackPolicy(kind="top_k", k=4, include_params=True),
            fit=FitConfig(hops=2, step_scale=0.5, max_evals=700, tol=1e-6, seed=9, refits=2),
            iterations=4,
            runs=2,
            backend=BackendConfig(kind="http", endpoint="http://127.0.0.1:1/v1", model="m",
                                  key_env_var="K", timeout=5.0, max_retries=1, max_tokens=256),
            temperature=0.3,
            seed=12,
            subsample=5,
            score_mode="front",
        )
        path = tmp_path / "log.jsonl"
        save_runlog(RunLog("bode", to_json(cfg)), path)
        assert path.read_text().splitlines()[0] == (
            '{"type": "header", "dataset": "bode", "config": {"dataset": "bode", '
            '"operators": {"binary": ["*", "+", "-", "/", "^"], "unary": ["exp", "log"], '
            '"name": "mine"}, "prompt": {"use_scratchpad": false, "use_context": true, '
            '"include_data": true, "n_expressions": 2, "operator_note": "note", '
            '"extra_instructions": ["a", "b"], "rounding_decimals": 3, "dialect": "latex"}, '
            '"policy": {"kind": "top_k", "min_count": 6, "k": 4, "include_params": true}, '
            '"fit": {"hops": 2, "step_scale": 0.5, "reflection": 1.0, "expansion": 2.0, '
            '"contraction": 0.5, "shrink": 0.5, "max_evals": 700, "tol": 1e-06, "seed": 9, '
            '"refits": 2, "solve_linear": true, "patience": 10, "accept_idle": false}, '
            '"iterations": 4, "runs": 2, '
            '"backend": {"kind": "http", '
            '"endpoint": "http://127.0.0.1:1/v1", "model": "m", "key_env_var": "K", '
            '"timeout": 5.0, "max_retries": 1, "max_tokens": 256, "transcript": null}, '
            '"temperature": 0.3, "seed": 12, "subsample": 5, "score_mode": "front"}}'
        )
        assert config_from_dict(load_runlog_data(path).config) == cfg

    def test_missing_keys_take_defaults(self):
        d = to_json(RunConfig("kepler", fit=FitConfig(hops=3)))
        del d["score_mode"]
        del d["fit"]["refits"]
        assert config_from_dict(d) == RunConfig("kepler", fit=FitConfig(hops=3))

    def test_unknown_key_is_value_error(self):
        d = to_json(RunConfig("kepler"))
        d["fit"]["no_such_key"] = 5
        with pytest.raises(ValueError, match="no_such_key"):
            config_from_dict(d)

    def test_operator_resolution(self):
        bode = load_builtin("bode")
        easy = resolve_operator_set("easy", bode)
        assert "^" in easy.binary and "exp" in easy.unary
        hard = resolve_operator_set("hard", bode)
        assert hard.unary >= {"sqrt", "log", "exp", "square", "cube"}


class TestReplay:
    def test_round_trip_exact(self, tmp_path):
        entries = [reply("c1*x1", "c1+x1*c2"), reply("x1*c3/(x1+c4)"), reply("c1*x1*x1")]
        log = run(config(), backend=ScriptedBackend(entries))
        path = tmp_path / "log.jsonl"
        save_runlog(log, path)
        data = load_runlog_data(path)
        fresh = replay(data)
        assert diff_replay(data, fresh) == []
        assert fresh.rediscovery_iteration == log.rediscovery_iteration

    def test_replay_fails_unless_where_the_logged_run_failed(self, tmp_path):
        entries = [reply("c1*x1"), "no markers in sight"]
        log = run(config(), backend=ScriptedBackend(entries))
        path = tmp_path / "log.jsonl"
        save_runlog(log, path)
        data = load_runlog_data(path)
        assert diff_replay(data, replay(data)) == []  # the re-prompt of iteration 2 fails again
        with pytest.raises(ValueError, match="^transcript replay exhausted after"):
            replay(replace(data, error=None))
        # iteration 1 now takes iteration 2's response and fails in its own re-prompt
        data.records[0].responses = []
        with pytest.raises(ValueError, match="^transcript replay exhausted after"):
            replay(data)

    def test_a_saved_run_aborted_in_a_reprompt_loads_back_equal(self, tmp_path):
        log = run(config(), backend=ScriptedBackend([reply("c1*x1"), "no markers in sight"]))
        assert log.error
        save_runlog(log, tmp_path / "log.jsonl")
        loaded = load_runlog_data(tmp_path / "log.jsonl")
        assert replace(loaded, store=None) == replace(log, store=None)

    def test_tampered_equation_detected(self, tmp_path):
        entries = [reply("c1*x1"), reply("c1+x1"), reply("c1/x1")]
        log = run(config(), backend=ScriptedBackend(entries))
        path = tmp_path / "log.jsonl"
        save_runlog(log, path)
        text = path.read_text().replace('"c1/x1"', '"c1*x1*x1"')
        path.write_text(text)
        data = load_runlog_data(path)
        fresh = replay(data)
        assert diff_replay(data, fresh) != []

    def test_tampered_metric_detected(self, tmp_path):
        entries = [reply("c1*x1")]
        log = run(config(iterations=1), backend=ScriptedBackend(entries))
        path = tmp_path / "log.jsonl"
        save_runlog(log, path)
        stored = next(iter(log.store))
        text = path.read_text().replace(repr(stored.mse), repr(stored.mse + 0.5))
        path.write_text(text)
        data = load_runlog_data(path)
        assert diff_replay(data, replay(data)) != []
