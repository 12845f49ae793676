"""The iteration loop: prompt, complete, extract, parse, fit, store, feed back.

One engine run drives a single conversation-free loop against a backend:
iteration 1 sends the initial prompt, later iterations embed feedback selected
from the candidate store. Every raw response (scratchpad text included) is
kept in the run log, and a log replays deterministically through a scripted
backend built from its own responses.
"""

from __future__ import annotations

import functools
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
    """One iteration of a run, logged by ``to_json`` in field order. ``run``
    fills it in as the iteration runs, and logs it from its first response on:
    one cut short by a failed re-prompt keeps that response and its tokens."""
    index: int
    prompt: str
    responses: list[str] = field(default_factory=list)
    outcomes: list[ParseOutcome] = field(default_factory=list)
    candidates: list[dict] = field(default_factory=list)  # each stored candidate's log entry
    prompt_tokens: int = 0
    completion_tokens: int = 0
    target_found: bool = False  # the store holds a form equivalent to the target
    target_on_front: bool = False

    @property
    def extracted(self) -> list[str]:
        # not logged: kept only for perfbench/tracing.py (_run_info), until it counts outcomes
        return [o.text for o in self.outcomes]


@dataclass
class RunLog:
    """One run, as ``run`` makes it and ``load_runlog_data`` reads it back:
    every paid response included, and the ``error`` that ended it, if one did.
    A loaded log's ``store`` is empty until ``store_from_log`` fills it."""

    dataset_id: str
    config: dict
    records: list[IterationRecord] = field(default_factory=list)
    store: CandidateStore = field(default_factory=CandidateStore)
    error: str | None = None

    @property
    def rediscovery_iteration(self) -> int | None:
        """The first iteration, counted from 1 by position, whose store held the
        target, or None."""
        return next((i for i, rec in enumerate(self.records, start=1) if rec.target_found), None)

    @property
    def usage(self) -> TokenUsage:
        return TokenUsage(sum(rec.prompt_tokens for rec in self.records),
                          sum(rec.completion_tokens for rec in self.records))


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
    detail). A backend failure ends the run: the partial log is returned with
    its ``error`` set."""
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
            # a record cut short keeps the last one's flags: the store has not changed
            last = log.records[-1] if log.records else IterationRecord(0, "")
            rec = IterationRecord(iteration, user, target_found=last.target_found,
                                  target_on_front=last.target_on_front)
            prompt = user
            while True:
                resp = backend.complete(ChatRequest(system=system, user=prompt,
                                                    temperature=cfg.temperature))
                if not rec.responses:  # logged from the first response on: none paid for is lost
                    log.records.append(rec)
                rec.responses.append(resp.text)
                rec.prompt_tokens += resp.prompt_tokens
                rec.completion_tokens += resp.completion_tokens
                extracted = extract_expressions(resp.text, pcfg.n_expressions)
                if extracted or len(rec.responses) == 2:
                    break
                # one re-prompt with a format reminder; an empty retry is recorded as-is
                prompt = user + "\n\n" + retry_reminder(pcfg)

            for text in extracted:
                try:
                    outcome, cand = _evaluate_candidate(
                        text, dataset, opset, required_vars, log.store,
                        cfg.fit, iteration, pcfg,
                    )
                except Exception as exc:  # a defect; logged so the run goes on
                    outcome, cand = ParseOutcome(text, "internal_error", _describe(exc)), None
                rec.outcomes.append(outcome)
                if cand is not None:
                    log.store.insert(cand)
                    rec.candidates.append(to_json(cand))

            # the store is the one equivalence check: for duplicates, rediscovery and the front
            incumbent = (log.store.find_equivalent(target_canonical)
                         if target_canonical is not None else None)
            rec.target_found = incumbent is not None
            rec.target_on_front = rec.target_found and any(
                c is incumbent for c in log.store.pareto_front())
    except BackendError as exc:
        log.error = str(exc)
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
    """Per-iteration count of runs that found the target: ``cumulative`` counts
    runs whose rediscovery iteration is <= i (the default, non-decreasing),
    ``front`` runs whose target sits on the complexity/error front at iteration i."""
    if iterations is None:
        iterations = max((len(log.records) for log in logs), default=0)
    if mode == "cumulative":
        found = [log.rediscovery_iteration for log in logs]
        return [sum(r is not None and r <= i for r in found) for i in range(1, iterations + 1)]
    if mode == "front":
        return [sum(rec.target_on_front for log in logs for rec in log.records[i - 1:i])
                for i in range(1, iterations + 1)]
    raise ValueError(f"unknown score mode {mode!r}")


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


@functools.cache
def field_types(cls) -> dict:
    """``typing.get_type_hints(cls)``, resolved once per class. The dict is
    shared between callers, so it must not be changed."""
    return get_type_hints(cls)


def _decode(tp, v):
    if get_origin(tp) in (Union, UnionType):  # a dict selects the dataclass member
        tp = next((t for t in get_args(tp) if is_dataclass(t)), None) if isinstance(v, dict) else None
    if is_dataclass(tp):
        if not isinstance(v, dict):
            raise ValueError(f"bad {tp.__name__} config: {v!r} is not a mapping")
        hints = field_types(tp)
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
#: true or false (a float field takes what ``_is_number`` does)
_SCALARS = {bool: (bool,), int: (int,), str: (str,)}


def _takes(tp, v) -> bool:
    """Whether a field of type ``tp`` takes the value ``v``: a scalar of its
    kind, None where ``tp`` allows it, a tuple or frozenset as a list of its
    elements, a dataclass as a mapping, and an enum one of its values."""
    if get_origin(tp) in (Union, UnionType):
        return any(_takes(t, v) for t in get_args(tp))
    if get_origin(tp) in (frozenset, tuple):
        return isinstance(v, (list, tuple)) and all(_takes(get_args(tp)[0], x) for x in v)
    if is_dataclass(tp):
        return isinstance(v, dict)
    if tp is type(None):
        return v is None
    if isinstance(tp, type) and issubclass(tp, Enum):
        return any(type(v) is type(m.value) and v == m.value for m in tp)
    if tp is float:  # an integer too, if float() takes it
        return _is_number(v)
    return tp not in _SCALARS or type(v) in _SCALARS[tp]


def _num(v: float):
    return v if math.isfinite(v) else None


def _error(v) -> float:  # the inverse of _num
    return math.inf if v is None else float(v)


def save_runlog(log: RunLog, path) -> None:
    """Persist as line-delimited JSON: header, one to_json record per iteration,
    summary. srloop reads the summary's ``error`` alone; its ``store`` repeats the
    lines' ``candidates`` for the benchmark, whose ``perfbench/checks.py`` reads it."""
    lines = [json.dumps({"type": "header", "dataset": log.dataset_id, "config": log.config})]
    lines += (json.dumps({"type": "iteration", **to_json(rec)}) for rec in log.records)
    summary = {"type": "summary", "store": to_json(list(log.store)), "error": log.error}
    Path(path).write_text("\n".join([*lines, json.dumps(summary)]) + "\n")


def load_runlog_data(path) -> RunLog:
    """The RunLog of a JSONL run log: its header's dataset and configuration, a
    record per iteration line (other keys dropped; a line without ``index``
    takes its position) and the summary's ``error``, None without a summary.
    A line that is not a JSON object, is nested too deeply to decode or has no
    type, a log without its header, a line out of place (a second header, an
    iteration before the header, any line after the summary), or a key that
    replay, score or pareto reads missing or of another JSON type, is a
    ValueError naming no file. Lines without ``target_found``, written before
    it was logged, take it from the summary's ``rediscovery_iteration``."""
    header, iterations, summary = None, [], None
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
        # one file is one log: a second run's lines would merge two runs' stores
        if summary is not None:
            raise ValueError("a line follows the summary")
        if obj["type"] == "header":
            if header is not None:
                raise ValueError("a second header")
            header = obj
        elif obj["type"] == "iteration":
            if header is None:
                raise ValueError("an iteration line comes before the header")
            iterations.append(obj)
        elif obj["type"] == "summary":
            summary = obj
    if header is None:
        raise ValueError("the log has no header")
    _check_keys("the header", header)
    if summary is not None and "rediscovery_iteration" in summary:  # written before target_found
        _check_keys("the summary", summary)
        found = summary["rediscovery_iteration"]
        for i, rec in enumerate(iterations, start=1):
            rec.setdefault("target_found", found is not None and found <= i)
    for rec in iterations:
        _check_keys("an iteration", rec)
        for entry in rec["candidates"]:
            _check_keys("a candidate", entry)
    records = [IterationRecord(  # in field order, the log's key order
        rec.get("index", i), rec.get("prompt", ""), rec["responses"],
        [ParseOutcome(o["text"], o["status"], o.get("detail", "")) for o in rec["outcomes"]],
        rec["candidates"], rec.get("prompt_tokens", 0), rec.get("completion_tokens", 0),
        rec["target_found"], rec["target_on_front"]) for i, rec in enumerate(iterations, start=1)]
    return RunLog(header["dataset"], header["config"], records,
                  error=summary.get("error") if summary else None)


# the JSON kind of each key that replay, score or pareto reads, by the part of a log holding it
_LOG_KEYS = {
    "the header": {"dataset": "a string", "config": "an object"},
    "the summary": {"rediscovery_iteration": "an integer or null"},
    "an iteration": {"responses": "a list of strings", "outcomes": "a list of outcomes",
                     "candidates": "a list", "target_found": "a boolean",
                     "target_on_front": "a boolean"},
    "a candidate": {"equation": "a string", "params": "a list of numbers",
                    "mse": "a number or null", "mae": "a number or null",
                    "complexity": "an integer", "iteration": "an integer"},
}
_JSON_KINDS = {  # type() rather than isinstance(), so that true is not an integer
    "a boolean": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "an object": lambda v: type(v) is dict,
    "a list": lambda v: type(v) is list,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of outcomes": lambda v: type(v) is list and all(
        type(x) is dict and type(x.get("text")) is str and type(x.get("status")) is str for x in v),
    "an integer": lambda v: type(v) is int,
    "an integer or null": lambda v: v is None or type(v) is int,
    "a number or null": lambda v: v is None or _is_number(v),
    "a list of numbers": lambda v: type(v) is list and all(_is_number(x) for x in v),
}


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number that float() takes: true, false and an
    integer too large for a float are not."""
    if type(v) not in (int, float):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _check_keys(part: str, obj) -> None:
    """A ValueError unless ``obj`` holds each key of ``part``, of its JSON kind."""
    keys = _LOG_KEYS[part]
    missing = [key for key in keys if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise ValueError(f"{part} has no {', '.join(missing)}")
    for key, kind in keys.items():
        if not _JSON_KINDS[kind](obj[key]):
            raise ValueError(f"{part}'s {key} is not {kind}")


def store_from_log(log: RunLog, variables) -> CandidateStore:
    """The store of a run log, rebuilt over the dataset's ``variables`` from
    its records' ``candidates`` in order. An entry that does not
    decode is a ValueError."""
    store = CandidateStore()
    for entry in (entry for rec in log.records for entry in rec.candidates):
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
#: candidate was fitted with the simplex, before ``patience`` every hop ran,
#: and before ``accept_idle`` an idle hop that was lower at all was accepted.
_LEGACY_FIT = {"solve_linear": False, "patience": 0, "accept_idle": True}


def replay(log: RunLog, dataset: Dataset | None = None) -> RunLog:
    """Re-run the engine against a scripted backend built from the logged
    responses, for as many iterations as the log holds, so the partial log
    of an aborted run replays too: a logged error with a failure in the last
    iteration, as when a re-prompt failed, returns the partial replay, and
    any other failure is a ValueError. With an unchanged log this reproduces
    the store exactly. A fit key of ``_LEGACY_FIT`` missing from the logged
    configuration takes the value there, so a log written before the key
    existed replays as it was fitted."""
    config = log.config
    fit = config.get("fit", {})
    if isinstance(fit, dict):
        config = {**config, "fit": {**_LEGACY_FIT, **fit}}
    cfg = config_from_dict(config)
    responses = [text for rec in log.records for text in rec.responses]
    fresh = run(cfg, dataset=dataset, backend=ScriptedBackend(responses, name="replay"),
                iterations=len(log.records))
    if fresh.error is not None and not (log.error and len(fresh.records) == len(log.records)):
        raise ValueError(fresh.error)
    return fresh


def diff_replay(logged: RunLog, fresh: RunLog, rtol: float = 1e-9) -> list[str]:
    """Compare a logged run against its fresh replay: each iteration's
    proposals and their statuses (not the detail, which can name a source
    line), ``target_found`` and ``target_on_front``, and each stored candidate's
    MSE and MAE within ``rtol`` relative, its complexity and birth iteration.
    Returns human-readable divergences, none when everything matches."""
    problems = []
    for k, (rec, new) in enumerate(zip(logged.records, fresh.records), start=1):
        old_outcomes = [(o.text, o.status) for o in rec.outcomes]
        new_outcomes = [(o.text, o.status) for o in new.outcomes]
        if old_outcomes != new_outcomes:
            problems.append(f"iteration {k}: outcomes {old_outcomes} != {new_outcomes}")
        for flag in ("target_found", "target_on_front"):
            was, now = getattr(rec, flag), getattr(new, flag)
            if was != now:
                problems.append(f"iteration {k}: {flag} {was} != {now}")
    old_store, new_store = ({c["equation"]: c for rec in log.records for c in rec.candidates}
                            for log in (logged, fresh))
    for eq in sorted(set(old_store) - set(new_store)):
        problems.append(f"missing from replay: {eq}")
    for eq in sorted(set(new_store) - set(old_store)):
        problems.append(f"absent from log: {eq}")
    for eq in sorted(set(old_store) & set(new_store)):
        old, new = old_store[eq], new_store[eq]
        checks = [(name, _error(old[name]), _error(new[name])) for name in ("mse", "mae")]
        checks += [(name, old[name], new[name]) for name in ("complexity", "iteration")]
        for name, a, b in checks:
            if a == b:
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                problems.append(f"{eq}: {name} {a} != {b}")
            elif abs(a - b) > rtol * max(abs(a), abs(b)):
                problems.append(f"{eq}: {name} diverged {a} vs {b}")
    return problems
