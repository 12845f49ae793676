"""Spans around the public functions of each srloop module, installed from outside.

Nothing in the program changes: each hooked function is replaced, in every
srloop module that holds it, by a wrapper that records a span (name, start,
end, parent span, run id, phase, round). The objective evaluator that
``compile_evaluator`` returns is too hot for a span per call; its calls are
timed and counted on the span they run under instead. Spans stay in memory
and are written out when the run ends. A hook whose target no longer exists
is listed in ``missing`` and its metrics are left out; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "engine", "llm", "prompts", "parsing", "expressions", "optimize",
          "pareto", "data")

PROMPT_BUILDERS = ("prompts.make_data_view", "prompts.build_system", "prompts.build_initial",
                   "prompts.build_iteration", "prompts.retry_reminder", "prompts.operator_note")


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "run_id", "phase", "round",
                 "child_t", "eval_t", "eval_n", "info", "error")

    def __init__(self, sid, name, parent, run_id, phase, rnd):
        self.sid, self.name, self.parent = sid, name, parent
        self.run_id, self.phase, self.round = run_id, phase, rnd
        self.child_t = self.eval_t = 0.0
        self.eval_n = 0
        self.info = None
        self.error = None
        self.t1 = None
        self.t0 = perf_counter()

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_t - self.eval_t


def _prompt_bytes(span, args, result):
    req = args[1]
    span.info = len(req.system.encode()) + len(req.user.encode())


def _file_bytes(index):
    def after(span, args, result):
        span.info = os.path.getsize(args[index])
    return after


def _run_info(span, args, log):
    span.info = {
        "iterations": len(log.records),
        "proposals": sum(len(rec.extracted) for rec in log.records),
        "store": len(log.store),
    }


def _solve_info(span, args, result):
    _, fval, evals, converged = result
    span.info = (int(evals), bool(converged))
    if span.parent is not None and span.parent.name == "optimize.minimize":
        span.parent.info.append(float(fval))


def _minimize_start(span):
    span.info = []  # local-solve results in order: the first solve, then one per hop


class Tracer:
    """Records spans for the hooked functions; ``round`` and ``phase`` are set
    by the benchmark before each command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.hooked: set[str] = set()
        self.round = 0
        self.phase = "setup"
        self._stack: list[Span] = []
        self._run_id = None
        self._runs = 0
        self._opened = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn, after=None, start=None, new_run=False, wrap_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_run:
                tracer._runs += 1
                outer, tracer._run_id = tracer._run_id, f"{tracer.round}.{tracer._runs}"
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(tracer._opened, name, parent, tracer._run_id, tracer.phase, tracer.round)
            tracer._opened += 1
            if start is not None:
                start(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_t += span.t1 - span.t0
                tracer.spans.append(span)
                if new_run:
                    tracer._run_id = outer
            if after is not None:
                after(span, args, result)
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        return traced

    def _timed_evaluator(self, evaluator):
        stack = self._stack

        def timed(params, X):
            t0 = perf_counter()
            out = evaluator(params, X)
            dt = perf_counter() - t0
            if stack:
                stack[-1].eval_t += dt
                stack[-1].eval_n += 1
            return out

        return timed

    # -- installing hooks ---------------------------------------------------

    def hook(self, module: str, attr: str, **options) -> None:
        name = f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{attr}")
            return
        self.hooked.add(name)
        if path:  # a method: replace it on its class
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, **options))
            else:
                new = self._wrap(name, raw, **options)
            self._replace(owner, leaf, new)
            return
        new = self._wrap(name, raw, **options)
        for modname, mod in list(sys.modules.items()):
            if modname == "srloop" or modname.startswith("srloop."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._replace(mod, key, new)

    def _replace(self, owner, key, new):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def install(self) -> None:
        self.missing = []
        h = self.hook
        h("srloop.cli", "main")
        h("srloop.engine", "run", new_run=True, after=_run_info)
        h("srloop.engine", "save_runlog", after=_file_bytes(1))
        h("srloop.engine", "load_runlog_data", after=_file_bytes(0))
        h("srloop.llm", "ScriptedBackend.complete", after=_prompt_bytes)
        h("srloop.llm", "HttpBackend.complete", after=_prompt_bytes)
        for fn in ("make_data_view", "build_system", "build_initial", "build_iteration",
                   "retry_reminder", "operator_note", "extract_expressions"):
            h("srloop.prompts", fn)
        h("srloop.parsing", "parse")
        for fn in ("canonicalize", "render", "sr_equivalent"):
            h("srloop.expressions", fn)
        h("srloop.expressions", "compile_evaluator", wrap_result=self._timed_evaluator)
        h("srloop.optimize", "repeat_fit")
        h("srloop.optimize", "fit")
        h("srloop.optimize", "minimize", start=_minimize_start)
        h("srloop.optimize", "nelder_mead", after=_solve_info)
        for fn in ("insert", "pareto_front", "select_feedback", "find_equivalent", "to_csv"):
            h("srloop.pareto", f"CandidateStore.{fn}")
        h("srloop.pareto", "Candidate.build")
        h("srloop.pareto", "to_feedback_json")
        h("srloop.data", "load_builtin")
        h("srloop.data", "dataset_info")

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.t0, "end": s.t1,
                    "parent": s.parent.sid if s.parent is not None else None,
                    "run": s.run_id, "phase": s.phase, "round": s.round,
                    "self_s": s.self_time, "evals": s.eval_n, "eval_s": s.eval_t,
                    "info": s.info, "error": s.error,
                }) + "\n")


def round_metrics(spans: list[Span], hooked: set[str]) -> dict[str, float]:
    """Per-layer metrics of one round's spans. A metric whose hook is missing is omitted."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def get(name):
        return by_name.get(name, [])

    def total(*names, phase=None):
        return sum(s.duration for n in names for s in get(n) if phase in (None, s.phase))

    def count(name, phase=None):
        return sum(1 for s in get(name) if phase in (None, s.phase))

    m: dict[str, float] = {}
    if {"optimize.fit", "optimize.repeat_fit", "optimize.minimize",
            "optimize.nelder_mead", "expressions.compile_evaluator"} <= hooked:
        solves = get("optimize.nelder_mead")
        evals = sum(s.info[0] for s in solves if s.info)
        capped = [s for s in solves if s.info and not s.info[1]]
        hops = useful = 0
        for mini in get("optimize.minimize"):
            fvals = mini.info or []
            hops += max(len(fvals) - 1, 0)
            best = fvals[0] if fvals else None
            for f in fvals[1:]:
                if f < best:
                    useful += 1
                    best = f
        solve_eval_t = sum(s.eval_t for s in solves)
        m.update({
            "optimize.fits": count("optimize.fit"),
            "optimize.fit_s": total("optimize.fit"),
            "optimize.local_solves": len(solves),
            "optimize.capped_solves": len(capped),
            "optimize.evals": evals,
            "optimize.capped_evals": sum(s.info[0] for s in capped),
            "optimize.step_us": (total("optimize.nelder_mead") - solve_eval_t) / evals * 1e6
            if evals else 0.0,
            "optimize.hops": hops,
            "optimize.useful_hops": useful,
            "optimize.unfittable": sum(1 for s in get("optimize.repeat_fit")
                                       if s.error == "NoFiniteObjectiveError"),
            "optimize.failed_refits": sum(1 for s in get("optimize.fit")
                                          if s.error == "NoFiniteObjectiveError"),
        })
        n_eval = sum(s.eval_n for s in spans)
        m["expressions.eval_us"] = sum(s.eval_t for s in spans) / n_eval * 1e6 if n_eval else 0.0
    for phase in ("run", "analyze"):
        for fn in ("canonicalize", "render"):
            if f"expressions.{fn}" in hooked:
                m[f"expressions.{fn}_calls.{phase}"] = count(f"expressions.{fn}", phase)
                m[f"expressions.{fn}_s.{phase}"] = total(f"expressions.{fn}", phase=phase)
        if "parsing.parse" in hooked:
            m[f"parsing.calls.{phase}"] = count("parsing.parse", phase)
            m[f"parsing.s.{phase}"] = total("parsing.parse", phase=phase)
    if "pareto.insert" in hooked:
        m["pareto.inserts"] = count("pareto.insert")
        m["pareto.insert_s"] = total("pareto.insert")
    if "pareto.pareto_front" in hooked:
        m["pareto.front_s"] = total("pareto.pareto_front")
    if {"pareto.select_feedback", "pareto.to_feedback_json"} <= hooked:
        m["pareto.select_s"] = total("pareto.select_feedback", "pareto.to_feedback_json")
    if set(PROMPT_BUILDERS) <= hooked:
        m["prompts.build_s"] = total(*PROMPT_BUILDERS)
    if "prompts.extract_expressions" in hooked:
        m["prompts.extract_s"] = total("prompts.extract_expressions")
    if "engine.run" in hooked:
        runs = [s.info for s in get("engine.run") if s.info]
        m["engine.iterations"] = sum(r["iterations"] for r in runs)
        m["engine.proposals"] = sum(r["proposals"] for r in runs)
        m["pareto.store_size"] = sum(r["store"] for r in runs)
    if "engine.save_runlog" in hooked:
        m["engine.save_s"] = total("engine.save_runlog")
        m["engine.save_bytes"] = sum(s.info or 0 for s in get("engine.save_runlog"))
    if "engine.load_runlog_data" in hooked:
        m["engine.load_s"] = total("engine.load_runlog_data")
        m["engine.load_bytes"] = sum(s.info or 0 for s in get("engine.load_runlog_data"))
    if "llm.complete" in hooked:
        m["llm.calls"] = count("llm.complete")
        m["llm.wait_s"] = total("llm.complete")
        m["llm.prompt_bytes"] = sum(s.info or 0 for s in get("llm.complete"))
    self_t = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_t[s.name.split(".", 1)[0]] += s.self_time
        self_t["expressions"] += s.eval_t
    for layer in LAYERS:
        if any(name.startswith(layer + ".") for name in hooked):
            m[f"{layer}.self_s"] = self_t[layer]
    return m


def combine_rounds(per_round: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median of each metric over rounds. The optimize counters must repeat
    exactly from round to round; a mismatch is returned as a problem."""
    problems = []
    out = {}
    for key in per_round[0]:
        values = [r[key] for r in per_round if key in r]
        if isinstance(values[0], int):
            if key.startswith("optimize.") and len(set(values)) > 1:
                problems.append(f"{key} differs between rounds: {values}")
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out, problems
