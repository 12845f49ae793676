"""The iteration loop: prompt, complete, extract, parse, fit, store, feed back.

One engine run drives a single conversation-free loop against a backend:
iteration 1 sends the initial prompt, later iterations embed feedback selected
from the candidate store. Every raw response (scratchpad text included) is
kept in the run log, and a log replays deterministically through a scripted
backend built from its own responses.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .data import Dataset, load_builtin
from .expressions import (
    ExpressionSyntaxError,
    ImplicitFormError,
    OperatorSet,
    TooComplexError,
    UnknownOperatorError,
    canonicalize,
    complexity,
)
from .llm import (
    BackendError,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    TokenUsage,
)
from .optimize import (
    FitConfig,
    NoFiniteObjectiveError,
    TooManyConstantsError,
    repeat_fit,
)
from .pareto import Candidate, CandidateStore, FeedbackPolicy, to_feedback_json
from .parsing import parse
from .prompts import (
    PromptConfig,
    build_initial,
    build_iteration,
    build_system,
    extract_expressions,
    make_data_view,
    operator_note,
    retry_reminder,
)


class ConfigError(Exception):
    """The run configuration cannot be executed as given."""


class BackendFailure(Exception):
    """The backend gave up mid-run; carries the partial log."""

    def __init__(self, message: str, log: "RunLog"):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "scripted"  # "http" | "scripted"
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o"
    key_env_var: str = "OPENAI_API_KEY"
    timeout: float = 120.0
    max_retries: int = 3
    max_tokens: int | None = None
    transcript: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; serialized next to its log for replay."""

    dataset: str
    operators: str | OperatorSet = "easy"
    prompt: PromptConfig = PromptConfig()
    policy: FeedbackPolicy = FeedbackPolicy.standard()
    fit: FitConfig = FitConfig()
    iterations: int = 15
    runs: int = 5
    backend: BackendConfig = BackendConfig()
    temperature: float = 0.7
    seed: int = 0
    subsample: int | None = None
    score_mode: str = "cumulative"  # or "front"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.score_mode not in ("cumulative", "front"):
            raise ValueError(f"unknown score mode {self.score_mode!r}")


@dataclass
class ParseOutcome:
    text: str
    status: str  # fitted | duplicate | syntax_error | too_complex |
    #              unknown_operator | implicit_form | operator_rejected |
    #              missing_variables | too_many_constants | unfittable |
    #              internal_error
    detail: str = ""


@dataclass
class IterationRecord:
    index: int
    prompt: str
    responses: list[str]
    extracted: list[str]
    outcomes: list[ParseOutcome]
    candidates: list[Candidate]
    prompt_tokens: int
    completion_tokens: int
    target_on_front: bool


@dataclass
class RunLog:
    """Append-only record of one run plus the final store snapshot."""

    dataset_id: str
    config: dict
    records: list[IterationRecord] = field(default_factory=list)
    store: CandidateStore = field(default_factory=CandidateStore)
    rediscovery_iteration: int | None = None
    error: str | None = None

    @property
    def usage(self) -> TokenUsage:
        u = TokenUsage()
        for rec in self.records:
            u.prompt_tokens += rec.prompt_tokens
            u.completion_tokens += rec.completion_tokens
        return u


def resolve_operator_set(spec: str | OperatorSet, dataset: Dataset) -> OperatorSet:
    if isinstance(spec, OperatorSet):
        return spec
    if spec == "easy":
        return OperatorSet.easy(dataset.easy_extra_ops)
    if spec == "hard":
        return OperatorSet.hard(dataset.easy_extra_ops)
    raise ConfigError(f"unknown operator set {spec!r}")


def make_backend(bcfg: BackendConfig):
    if bcfg.kind == "scripted":
        if not bcfg.transcript:
            raise ConfigError("scripted backend needs a transcript path")
        return ScriptedBackend.from_file(bcfg.transcript)
    if bcfg.kind == "http":
        return HttpBackend(
            endpoint=bcfg.endpoint,
            model=bcfg.model,
            key_env_var=bcfg.key_env_var,
            timeout=bcfg.timeout,
            max_retries=bcfg.max_retries,
        )
    raise ConfigError(f"unknown backend kind {bcfg.kind!r}")


def run(cfg: RunConfig, dataset: Dataset | None = None, backend=None) -> RunLog:
    """Execute one run. A malformed candidate never aborts the loop: it is
    logged and skipped, and so is one whose evaluation fails unexpectedly
    (outcome ``internal_error``, the exception and where it was raised in its
    detail). Backend failure raises BackendFailure carrying the partial log."""
    dataset = dataset if dataset is not None else load_builtin(cfg.dataset)
    opset = resolve_operator_set(cfg.operators, dataset)
    pcfg = cfg.prompt
    if not pcfg.operator_note:
        pcfg = replace(pcfg, operator_note=operator_note(opset))
    owned = backend is None
    if owned:
        backend = make_backend(cfg.backend)
    view = make_data_view(dataset, pcfg.rounding_decimals, cfg.subsample, seed=cfg.seed)
    system = build_system()
    target_canonical = canonicalize(dataset.target) if dataset.target is not None else None
    required_vars = frozenset(range(1, len(dataset.variables) + 1))

    resolved = replace(cfg, prompt=pcfg, operators=opset)
    log = RunLog(dataset_id=dataset.id, config=config_to_dict(resolved))

    try:
        for iteration in range(1, cfg.iterations + 1):
            if iteration == 1:
                user = build_initial(view, dataset.context, pcfg)
            else:
                chosen = log.store.select_feedback(cfg.policy)
                feedback = to_feedback_json(chosen, cfg.policy.include_params)
                user = build_iteration(view, feedback, dataset.context, pcfg)
            responses = []
            resp = backend.complete(
                ChatRequest(system=system, user=user, temperature=cfg.temperature,
                            model=cfg.backend.model, max_tokens=cfg.backend.max_tokens)
            )
            responses.append(resp)
            extracted = extract_expressions(resp.text, pcfg.n_expressions)
            if not extracted:
                # one re-prompt with a format reminder; an empty retry is recorded as-is
                resp = backend.complete(
                    ChatRequest(system=system,
                                user=user + "\n\n" + retry_reminder(pcfg),
                                temperature=cfg.temperature, model=cfg.backend.model,
                                max_tokens=cfg.backend.max_tokens)
                )
                responses.append(resp)
                extracted = extract_expressions(resp.text, pcfg.n_expressions)

            outcomes: list[ParseOutcome] = []
            fitted: list[Candidate] = []
            for text in extracted:
                try:
                    cand = _evaluate_candidate(
                        text, dataset, opset, required_vars, log.store,
                        cfg.fit, iteration, pcfg, outcomes,
                    )
                except Exception as exc:  # a defect; logged so the run goes on
                    outcomes.append(ParseOutcome(text, "internal_error", _describe(exc)))
                    continue
                if cand is None:
                    continue
                log.store.insert(cand)
                fitted.append(cand)
                if (
                    log.rediscovery_iteration is None
                    and target_canonical is not None
                    and cand.canonical.root == target_canonical.root
                ):
                    log.rediscovery_iteration = iteration

            on_front = False
            if target_canonical is not None:
                incumbent = log.store.find_equivalent(target_canonical)
                if incumbent is not None:
                    on_front = any(c is incumbent for c in log.store.pareto_front())
            log.records.append(
                IterationRecord(
                    index=iteration,
                    prompt=user,
                    responses=[r.text for r in responses],
                    extracted=extracted,
                    outcomes=outcomes,
                    candidates=fitted,
                    prompt_tokens=sum(r.prompt_tokens for r in responses),
                    completion_tokens=sum(r.completion_tokens for r in responses),
                    target_on_front=on_front,
                )
            )
    except BackendError as exc:
        log.error = str(exc)
        raise BackendFailure(str(exc), log) from exc
    finally:
        if owned and isinstance(backend, HttpBackend):
            backend.close()
    return log


def _evaluate_candidate(text, dataset, opset, required_vars, store,
                        fit_cfg, iteration, pcfg, outcomes) -> Candidate | None:
    try:
        expr = parse(text, pcfg.dialect, list(dataset.variables))
    except ImplicitFormError as exc:
        outcomes.append(ParseOutcome(text, "implicit_form", str(exc)))
        return None
    except UnknownOperatorError as exc:
        outcomes.append(ParseOutcome(text, "unknown_operator", str(exc)))
        return None
    except TooComplexError as exc:
        outcomes.append(ParseOutcome(text, "too_complex", str(exc)))
        return None
    except ExpressionSyntaxError as exc:
        outcomes.append(ParseOutcome(text, "syntax_error", str(exc)))
        return None
    violations = opset.violations(expr)
    if violations:
        outcomes.append(ParseOutcome(text, "operator_rejected", ", ".join(violations)))
        return None
    if expr.variables != required_vars:
        outcomes.append(ParseOutcome(text, "missing_variables"))
        return None
    canonical = canonicalize(expr)
    # run() stores a returned candidate before evaluating the next proposal,
    # so the store catches repeats within a batch as well as across batches
    if store.find_equivalent(canonical) is not None:
        outcomes.append(ParseOutcome(text, "duplicate"))
        return None
    try:
        result = repeat_fit(expr, dataset, fit_cfg)
    except TooManyConstantsError as exc:
        outcomes.append(ParseOutcome(text, "too_many_constants", str(exc)))
        return None
    except NoFiniteObjectiveError as exc:
        # stored with infinite error for duplicate suppression; never fed back
        outcomes.append(ParseOutcome(text, "unfittable", str(exc)))
        params, mse, mae = expr.initial_guess(), math.inf, math.inf
    else:
        outcomes.append(ParseOutcome(text, "fitted"))
        params, mse, mae = result.params, result.mse, result.mae
    return Candidate(
        expr=expr, canonical=canonical, params=params, mse=mse, mae=mae,
        complexity=complexity(expr), iteration_born=iteration,
    )


def _describe(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"


def score_runs(logs: list[RunLog], iterations: int | None = None,
               mode: str = "cumulative") -> list[int]:
    """Per-iteration count of runs that found the target.

    ``cumulative`` counts runs whose rediscovery iteration is <= i (the
    default, non-decreasing); ``front`` counts runs whose target sits on the
    complexity/error front at iteration i.
    """
    if iterations is None:
        iterations = max((len(log.records) for log in logs), default=0)
    score = []
    for i in range(1, iterations + 1):
        if mode == "cumulative":
            n = sum(
                1 for log in logs
                if log.rediscovery_iteration is not None and log.rediscovery_iteration <= i
            )
        elif mode == "front":
            n = sum(
                1 for log in logs
                if len(log.records) >= i and log.records[i - 1].target_on_front
            )
        else:
            raise ValueError(f"unknown score mode {mode!r}")
        score.append(n)
    return score


# ---------------------------------------------------------------------------
# Config and log (de)serialization

def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready form of a config: dataclasses become dicts in field order,
    enums their values, frozensets sorted lists and tuples lists."""
    if is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, Enum):
        return cfg.value
    if isinstance(cfg, frozenset):
        return sorted(cfg)
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


def config_from_dict(d: dict) -> RunConfig:
    """Inverse of config_to_dict, typed by the dataclass annotations. A missing
    key takes the field's default, so older logs still load; an unknown key or
    a missing required one is a ValueError."""
    return _decode(RunConfig, d)


def _decode(tp, v):
    if get_origin(tp) in (Union, UnionType):  # a dict selects the dataclass member
        tp = next((t for t in get_args(tp) if is_dataclass(t)), None) if isinstance(v, dict) else None
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        unknown = set(v) - {f.name for f in fields(tp)}
        if unknown:
            raise ValueError(f"unknown {tp.__name__} config key(s): {', '.join(sorted(unknown))}")
        try:
            return tp(**{k: _decode(hints[k], x) for k, x in v.items()})
        except TypeError as exc:  # a required key is missing or a value has the wrong type
            raise ValueError(f"bad {tp.__name__} config: {exc}") from exc
    if get_origin(tp) in (frozenset, tuple):
        return get_origin(tp)(v)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(v)
    return v


def _num(v: float):
    return v if math.isfinite(v) else None


def _candidate_dict(c: Candidate) -> dict:
    return {
        "equation": c.equation,
        "params": list(c.params),
        "mse": _num(c.mse),
        "mae": _num(c.mae),
        "complexity": c.complexity,
        "iteration": c.iteration_born,
    }


def save_runlog(log: RunLog, path) -> None:
    """Persist as line-delimited JSON: header, one record per iteration, summary.
    Infinite errors are stored as null."""
    lines = [json.dumps({"type": "header", "dataset": log.dataset_id, "config": log.config})]
    for rec in log.records:
        lines.append(json.dumps({
            "type": "iteration",
            "index": rec.index,
            "prompt": rec.prompt,
            "responses": rec.responses,
            "extracted": rec.extracted,
            "outcomes": [{"text": o.text, "status": o.status, "detail": o.detail}
                         for o in rec.outcomes],
            "candidates": [_candidate_dict(c) for c in rec.candidates],
            "prompt_tokens": rec.prompt_tokens,
            "completion_tokens": rec.completion_tokens,
            "target_on_front": rec.target_on_front,
        }))
    usage = log.usage
    lines.append(json.dumps({
        "type": "summary",
        "rediscovery_iteration": log.rediscovery_iteration,
        "store": [_candidate_dict(c) for c in log.store],
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "error": log.error,
    }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_runlog_data(path) -> dict:
    """Load the raw JSONL structure: {header, iterations, summary}. A line
    that is not a JSON object, a log without its header or summary, or one
    without a key of theirs that replay, score or pareto reads, is a
    ValueError."""
    header = None
    iterations = []
    summary = None
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: a line is not a JSON object")
        if obj["type"] == "header":
            header = obj
        elif obj["type"] == "iteration":
            iterations.append(obj)
        elif obj["type"] == "summary":
            summary = obj
    if header is None or summary is None:
        raise ValueError(f"{path}: not a complete run log")
    for part, obj, keys in (("header", header, ("dataset", "config")),
                            ("summary", summary, ("rediscovery_iteration", "store"))):
        missing = [key for key in keys if key not in obj]
        if missing:
            raise ValueError(f"{path}: the {part} has no {', '.join(missing)}")
    return {"header": header, "iterations": iterations, "summary": summary}


def replay(log_data: dict, dataset: Dataset | None = None) -> RunLog:
    """Re-run the engine against a scripted backend built from the logged
    responses; with an unchanged log this reproduces the store exactly."""
    cfg = config_from_dict(log_data["header"]["config"])
    responses = [text for rec in log_data["iterations"] for text in rec["responses"]]
    return run(cfg, dataset=dataset, backend=ScriptedBackend(responses, name="replay"))


def diff_replay(log_data: dict, fresh: RunLog, rtol: float = 1e-9) -> list[str]:
    """Compare a stored summary against a freshly replayed run. Returns
    human-readable divergences (empty when everything matches within rtol)."""
    problems = []
    logged = {c["equation"]: c for c in log_data["summary"]["store"]}
    current = {c.equation: c for c in fresh.store}
    for eq in sorted(set(logged) - set(current)):
        problems.append(f"missing from replay: {eq}")
    for eq in sorted(set(current) - set(logged)):
        problems.append(f"absent from log: {eq}")
    for eq in sorted(set(logged) & set(current)):
        old, new = logged[eq], current[eq]
        checks = [
            ("mse", math.inf if old["mse"] is None else old["mse"], new.mse),
            ("mae", math.inf if old["mae"] is None else old["mae"], new.mae),
            ("complexity", old["complexity"], new.complexity),
        ]
        for name, a, b in checks:
            if a == b:
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                problems.append(f"{eq}: {name} {a} != {b}")
            elif abs(a - b) > rtol * max(1.0, abs(a), abs(b)):
                problems.append(f"{eq}: {name} diverged {a} vs {b}")
    old_red = log_data["summary"]["rediscovery_iteration"]
    if old_red != fresh.rediscovery_iteration:
        problems.append(
            f"rediscovery iteration {old_red} != {fresh.rediscovery_iteration}"
        )
    return problems
