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
    Dialect,
    ExpressionError,
    ExpressionSyntaxError,
    ImplicitFormError,
    OperatorSet,
    TooComplexError,
    UnknownOperatorError,
    canonicalize,
    complexity,
)
from .llm import (
    BackendConfig,
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
class RunConfig:
    """Everything one run needs; serialized next to its log for replay."""

    dataset: str
    operators: str | OperatorSet = "easy"
    prompt: PromptConfig = PromptConfig()
    policy: FeedbackPolicy = FeedbackPolicy()
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
        if not 0.0 <= self.temperature <= 2.0:  # ChatRequest's range, checked before a run starts
            raise ValueError("temperature must be in [0, 2]")
        if self.score_mode not in ("cumulative", "front"):
            raise ValueError(f"unknown score mode {self.score_mode!r}")
        if isinstance(self.operators, str) and self.operators not in ("easy", "hard"):
            raise ValueError(f"unknown operator set {self.operators!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"--subsample {self.subsample} is below 1")


@dataclass
class ParseOutcome:
    """What became of one extracted proposal. Field order is the log's key order."""
    text: str
    status: str  # fitted | duplicate | syntax_error | too_complex |
    #              unknown_operator | implicit_form | operator_rejected |
    #              missing_variables | too_many_constants | unfittable |
    #              internal_error
    detail: str = ""


@dataclass
class IterationRecord:
    """One iteration of a run, logged by ``to_json``: field order is the log's key order."""
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
    return OperatorSet.hard(dataset.easy_extra_ops)


def make_backend(bcfg: BackendConfig):
    if bcfg.kind == "http":
        return HttpBackend(bcfg)
    if not bcfg.transcript:
        raise ConfigError("scripted backend needs a transcript path")
    return ScriptedBackend.from_file(bcfg.transcript)


def run(cfg: RunConfig, dataset: Dataset | None = None, backend=None,
        iterations: int | None = None) -> RunLog:
    """Execute one run of ``iterations`` (by default ``cfg.iterations``)
    iterations. A malformed candidate never aborts the loop: it is
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
    log = RunLog(dataset_id=dataset.id, config=to_json(resolved))

    try:
        for iteration in range(1, (cfg.iterations if iterations is None else iterations) + 1):
            if iteration == 1:
                user = build_initial(view, dataset.context, pcfg)
            else:
                chosen = log.store.select_feedback(cfg.policy)
                feedback = to_feedback_json(chosen, cfg.policy.include_params)
                user = build_iteration(view, feedback, dataset.context, pcfg)
            responses, prompt = [], user
            while True:
                resp = backend.complete(
                    ChatRequest(system=system, user=prompt, temperature=cfg.temperature)
                )
                responses.append(resp)
                extracted = extract_expressions(resp.text, pcfg.n_expressions)
                if extracted or len(responses) == 2:
                    break
                # one re-prompt with a format reminder; an empty retry is recorded as-is
                prompt = user + "\n\n" + retry_reminder(pcfg)

            outcomes: list[ParseOutcome] = []
            fitted: list[Candidate] = []
            for text in extracted:
                try:
                    outcome, cand = _evaluate_candidate(
                        text, dataset, opset, required_vars, log.store,
                        cfg.fit, iteration, pcfg,
                    )
                except Exception as exc:  # a defect; logged so the run goes on
                    outcome, cand = ParseOutcome(text, "internal_error", _describe(exc)), None
                outcomes.append(outcome)
                if cand is not None:
                    log.store.insert(cand)
                    fitted.append(cand)

            # the store is the one equivalence check: for duplicates, rediscovery and the front
            on_front = False
            incumbent = (log.store.find_equivalent(target_canonical)
                         if target_canonical is not None else None)
            if incumbent is not None:
                log.rediscovery_iteration = log.rediscovery_iteration or iteration
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
                        fit_cfg, iteration, pcfg) -> tuple[ParseOutcome, Candidate | None]:
    """The outcome of one proposal, and the candidate to store when there is one."""
    try:
        expr = parse(text, pcfg.dialect, list(dataset.variables))
    except ImplicitFormError as exc:
        return ParseOutcome(text, "implicit_form", str(exc)), None
    except UnknownOperatorError as exc:
        return ParseOutcome(text, "unknown_operator", str(exc)), None
    except TooComplexError as exc:
        return ParseOutcome(text, "too_complex", str(exc)), None
    except ExpressionSyntaxError as exc:
        return ParseOutcome(text, "syntax_error", str(exc)), None
    violations = opset.violations(expr)
    if violations:
        return ParseOutcome(text, "operator_rejected", ", ".join(violations)), None
    if expr.variables != required_vars:
        return ParseOutcome(text, "missing_variables"), None
    canonical = canonicalize(expr)
    # run() stores a returned candidate before evaluating the next proposal,
    # so the store catches repeats within a batch as well as across batches
    if store.find_equivalent(canonical) is not None:
        return ParseOutcome(text, "duplicate"), None
    try:
        result = repeat_fit(expr, dataset, fit_cfg)
    except TooManyConstantsError as exc:
        return ParseOutcome(text, "too_many_constants", str(exc)), None
    except NoFiniteObjectiveError as exc:
        # stored with infinite error for duplicate suppression; never fed back
        outcome = ParseOutcome(text, "unfittable", str(exc))
        params, mse, mae = expr.initial_guess(), math.inf, math.inf
    else:
        outcome = ParseOutcome(text, "fitted")
        params, mse, mae = result.params, result.mse, result.mae
    return outcome, Candidate(
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

def to_json(v):
    """JSON-ready form of a config or a log record: dataclasses become dicts in
    field order, a Candidate its log entry (an infinite error as null), enums
    their values, frozensets sorted lists, and tuples and lists lists."""
    if isinstance(v, Candidate):
        return {"equation": v.equation, "params": list(v.params), "mse": _num(v.mse),
                "mae": _num(v.mae), "complexity": v.complexity, "iteration": v.iteration_born}
    if is_dataclass(v):
        return {f.name: to_json(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, (tuple, list)):
        return [to_json(x) for x in v]
    return v


def config_from_dict(d: dict) -> RunConfig:
    """Inverse of to_json, typed by the dataclass annotations. A missing
    key takes the field's default, so older logs still load; an unknown key,
    a missing required one or a value its field does not take (``_takes``)
    is a ValueError."""
    return _decode(RunConfig, d)


def _decode(tp, v):
    if get_origin(tp) in (Union, UnionType):  # a dict selects the dataclass member
        tp = next((t for t in get_args(tp) if is_dataclass(t)), None) if isinstance(v, dict) else None
    if is_dataclass(tp):
        if not isinstance(v, dict):
            raise ValueError(f"bad {tp.__name__} config: {v!r} is not a mapping")
        hints = get_type_hints(tp)
        unknown = set(v) - {f.name for f in fields(tp)}
        if unknown:
            raise ValueError(f"unknown {tp.__name__} config key(s): {', '.join(sorted(unknown))}")
        for k, x in v.items():  # a dataclass field names its own class when it is no mapping
            if not (is_dataclass(hints[k]) or _takes(hints[k], x)):
                raise ValueError(f"bad {tp.__name__} config: {k} cannot be {x!r}")
        try:
            return tp(**{k: _decode(hints[k], x) for k, x in v.items()})
        except TypeError as exc:  # a required key is missing or a value has the wrong type
            raise ValueError(f"bad {tp.__name__} config: {exc}") from exc
    if get_origin(tp) in (frozenset, tuple):
        return get_origin(tp)(v)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp(v)
    return v


#: the JSON values a scalar field takes, by the field's type: an int is not
#: true or false, and a float may be written as an integer
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _takes(tp, v) -> bool:
    """Whether a field of type ``tp`` takes the value ``v``: a scalar of its
    kind, None where ``tp`` allows it, a tuple or frozenset as a list of its
    elements, and a dataclass as a mapping. An enum checks its own values."""
    if get_origin(tp) in (Union, UnionType):
        return any(_takes(t, v) for t in get_args(tp))
    if get_origin(tp) in (frozenset, tuple):
        return isinstance(v, (list, tuple)) and all(_takes(get_args(tp)[0], x) for x in v)
    if is_dataclass(tp):
        return isinstance(v, dict)
    if tp is type(None):
        return v is None
    return tp not in _SCALARS or type(v) in _SCALARS[tp]


def _num(v: float):
    return v if math.isfinite(v) else None


def _error(v) -> float:  # the inverse of _num
    return math.inf if v is None else float(v)


def save_runlog(log: RunLog, path) -> None:
    """Persist as line-delimited JSON: header, one record per iteration, summary.
    Records and stored candidates are written by to_json."""
    lines = [json.dumps({"type": "header", "dataset": log.dataset_id, "config": log.config})]
    lines += (json.dumps({"type": "iteration", **to_json(rec)}) for rec in log.records)
    usage = log.usage
    lines.append(json.dumps({
        "type": "summary",
        "rediscovery_iteration": log.rediscovery_iteration,
        "store": to_json(list(log.store)),
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "error": log.error,
    }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_runlog_data(path) -> dict:
    """Load the raw JSONL structure: {header, iterations, summary}. A line
    that is not a JSON object, is nested too deeply to decode or has no
    type, a log without its header or summary, or one without a key that
    replay, score or pareto reads, or with such a key of another JSON type,
    is a ValueError; its message leaves naming the file to the caller."""
    header = None
    iterations = []
    summary = None
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except RecursionError:
            raise ValueError("a line is nested too deeply to decode") from None
        if not isinstance(obj, dict):
            raise ValueError("a line is not a JSON object")
        if "type" not in obj:
            raise ValueError("a line has no type")
        if obj["type"] == "header":
            header = obj
        elif obj["type"] == "iteration":
            iterations.append(obj)
        elif obj["type"] == "summary":
            summary = obj
    if header is None or summary is None:
        raise ValueError("not a complete run log")
    _check_keys("the header", header)
    _check_keys("the summary", summary)
    for entry in summary["store"]:
        _check_keys("a store entry", entry)
    for rec in iterations:
        _check_keys("an iteration", rec)
    return {"header": header, "iterations": iterations, "summary": summary}


# the JSON kind of each key that replay, score or pareto reads, by the part of a log holding it
_LOG_KEYS = {
    "the header": {"dataset": "a string", "config": "an object"},
    "the summary": {"rediscovery_iteration": "an integer or null", "store": "a list"},
    "a store entry": {"equation": "a string", "params": "a list", "mse": "a number or null",
                      "mae": "a number or null", "complexity": "an integer",
                      "iteration": "an integer"},
    "an iteration": {"responses": "a list of strings"},
}
_JSON_KINDS = {  # type() rather than isinstance(), so that true is not an integer
    "a string": lambda v: type(v) is str,
    "an object": lambda v: type(v) is dict,
    "a list": lambda v: type(v) is list,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "an integer": lambda v: type(v) is int,
    "an integer or null": lambda v: v is None or type(v) is int,
    "a number or null": lambda v: v is None or type(v) in (int, float),
}


def _check_keys(part: str, obj) -> None:
    """A ValueError unless ``obj`` holds each key of ``part``, of its JSON kind."""
    keys = _LOG_KEYS[part]
    missing = [key for key in keys if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise ValueError(f"{part} has no {', '.join(missing)}")
    for key, kind in keys.items():
        if not _JSON_KINDS[kind](obj[key]):
            raise ValueError(f"{part}'s {key} is not {kind}")


def store_from_log(log_data: dict, variables) -> CandidateStore:
    """The summary store of a run log, rebuilt over the dataset's ``variables``.
    An entry that does not decode is a ValueError."""
    store = CandidateStore()
    for entry in log_data["summary"]["store"]:
        try:
            expr = parse(entry["equation"], Dialect.INFIX, variables)
            store.insert(Candidate(
                expr=expr, canonical=canonicalize(expr),
                params=tuple(float(v) for v in entry["params"]),
                mse=_error(entry["mse"]), mae=_error(entry["mae"]),
                complexity=complexity(expr), iteration_born=entry["iteration"],
            ))
        except (ExpressionError, TypeError, ValueError) as exc:
            raise ValueError(f"store entry {entry['equation']!r}: {exc}") from exc
    return store


#: The value of each fit key that a log written before the key existed was
#: fitted with, unlike the key's default: before ``solve_linear`` every
#: candidate was fitted with the simplex, and before ``patience`` every hop ran.
_LEGACY_FIT = {"solve_linear": False, "patience": 0}


def replay(log_data: dict, dataset: Dataset | None = None) -> RunLog:
    """Re-run the engine against a scripted backend built from the logged
    responses, for as many iterations as the log holds, so the partial log
    of an aborted run replays too; with an unchanged log this reproduces the
    store exactly. A fit key of ``_LEGACY_FIT`` missing from the logged
    configuration takes the value there, so a log written before the key
    existed replays as it was fitted."""
    config = log_data["header"]["config"]
    fit = config.get("fit", {})
    if isinstance(fit, dict):
        config = {**config, "fit": {**_LEGACY_FIT, **fit}}
    cfg = config_from_dict(config)
    responses = [text for rec in log_data["iterations"] for text in rec["responses"]]
    return run(cfg, dataset=dataset, backend=ScriptedBackend(responses, name="replay"),
               iterations=len(log_data["iterations"]))


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
            ("mse", _error(old["mse"]), new.mse),
            ("mae", _error(old["mae"]), new.mae),
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
