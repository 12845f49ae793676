"""Command-line front end: launch runs, replay logs, score runs, export fronts.

Configuration is an INI file (sections [run], [prompt], [fit], [llm],
[prices]); command-line flags override file values. Every run writes its
resolved configuration next to its log so each subcommand is reproducible
from persisted artifacts alone.

Exit codes: 0 success, 1 config/user error, 2 backend/runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import os
import sys
import threading
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import get_args

from . import data, engine
from .engine import ConfigError, RunConfig
from .expressions import Dialect
from .llm import BackendConfig, ScriptedBackend, TokenUsage, UnknownModelError, estimate_cost
from .optimize import FitConfig
from .pareto import Candidate, CandidateStore, FeedbackPolicy
from .parsing import parse
from .prompts import PromptConfig, extra_instruction

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

MAX_CONCURRENT_RUNS = 5  # runs of a batch in flight at once; the paper's batch size
EXTRAS = ("long_a", "long_b", "mae_challenge")  # the names [prompt] extra takes
SECTIONS = ("run", "prompt", "fit", "llm", "prices")  # the INI sections srloop reads


def _load_ini(path: str | None) -> configparser.ConfigParser:
    """The INI file ``path``, values read as written (a ``%`` is literal); a
    file configparser cannot read is a ConfigError."""
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            read = ini.read(path)  # a file that cannot be opened is skipped, not raised
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: "
                              f"{' '.join(str(exc).splitlines())}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    return ini


def _ini_value(tp, text: str):
    """An INI value read as a field of type ``tp``: a bool is 1/true/yes/on,
    an int or a float is parsed, an empty value of an optional field is None,
    and anything else stays a string."""
    kinds = get_args(tp) or (tp,)  # the members of a union
    if not text and type(None) in kinds:
        return None
    if bool in kinds:
        return text.lower() in ("1", "true", "yes", "on")
    for kind in (int, float):
        if kind in kinds:
            return kind(text)
    return text


def _section(ini: configparser.ConfigParser, name: str, cls) -> dict:
    """The keys of INI section ``name``, each value read as the type of the
    field of ``cls`` it names. Any other key passes through unchanged, for
    config_from_dict to reject."""
    hints = engine.field_types(cls)
    sec = ini[name] if ini.has_section(name) else {}
    values = {}
    for key, text in sec.items():
        try:
            values[key] = _ini_value(hints.get(key), text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    return values


def _extra_instructions(prompt: dict) -> list[str]:
    """The extra instructions named by ``[prompt] extra``, a comma list, with
    ``mae_target`` and ``mae_complexity`` filled into ``mae_challenge``. The
    three keys are taken out of ``prompt``."""
    values = {"target_mae": prompt.pop("mae_target", "?"),
              "target_complexity": prompt.pop("mae_complexity", "?")}
    names = [e.strip() for e in prompt.pop("extra", "").split(",") if e.strip()]
    unknown = [name for name in names if name not in EXTRAS]
    if unknown:
        raise ConfigError(f"unknown [prompt] extra {', '.join(unknown)} "
                          f"(one of {', '.join(EXTRAS)})")
    return [extra_instruction(name, **values) for name in names]


def _policy(name: str) -> FeedbackPolicy:
    if name in ("standard", ""):
        return FeedbackPolicy()
    if name in ("top5", "top_k"):
        return FeedbackPolicy(kind="top_k", include_params=True)
    raise ConfigError(f"unknown feedback policy {name!r}")


def build_run_config(args, ini: configparser.ConfigParser) -> RunConfig:
    """The sections of ``ini`` and the flags as one nested dict, decoded by
    engine.config_from_dict: a missing key takes its default and an unknown
    key is an error. A flag overrides the file, except that ``--iterations 0``
    and ``--runs 0`` keep the file's value; ``[fit] seed`` defaults to
    ``--seed`` (or 0), not to ``[run] seed``."""
    unknown = [f"[{name}]" for name in ini.sections() if name not in SECTIONS]
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    run = _section(ini, "run", RunConfig)
    prompt = _section(ini, "prompt", PromptConfig)
    fit = _section(ini, "fit", FitConfig)
    backend = _section(ini, "llm", BackendConfig)
    filled = sorted(prompt.keys() & {"operator_note", "extra_instructions"})
    if filled:
        raise ConfigError(f"[prompt] {', '.join(filled)}: filled in by srloop, not a config key")
    prompt["extra_instructions"] = _extra_instructions(prompt)
    flags = vars(args)
    run.update((key, flags[key]) for key in ("dataset", "operators", "iterations", "runs")
               if flags[key])
    run.update((key, flags[key]) for key in ("temperature", "seed", "subsample")
               if flags[key] is not None)
    if not run.get("dataset"):
        raise ConfigError("no dataset given (use --dataset or [run] dataset=...)")
    off = {"use_scratchpad": args.no_scratchpad, "use_context": args.no_context,
           "include_data": args.no_data}
    prompt.update((key, False) for key, flag in off.items() if flag)
    fit.setdefault("seed", args.seed or 0)
    backend.update((key, flag) for key, flag in (("kind", args.backend),
                                                 ("transcript", args.transcript)) if flag)
    try:
        return engine.config_from_dict({
            "prompt": prompt, "fit": fit, "backend": backend, **run,
            "policy": engine.to_json(_policy(args.policy or run.get("policy", "standard"))),
        })
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _price_table(ini: configparser.ConfigParser) -> dict[str, tuple[float, float]]:
    """``[prices]``: per model, lower-cased as every INI key, its prompt and its
    completion price per token, each finite and at least 0."""
    table = {}
    for model, value in (ini["prices"].items() if ini.has_section("prices") else ()):
        try:
            prompt, completion = (float(v) for v in value.split(","))
            if not (0 <= prompt < math.inf and 0 <= completion < math.inf):  # NaN fails too
                raise ValueError
        except ValueError:
            raise ConfigError(f"[prices] {model} must be two finite numbers of at least 0, "
                              f"the prompt and the completion price per token, "
                              f"not {value!r}") from None
        table[model] = (prompt, completion)
    return table


def _preflight(cfg: RunConfig) -> data.Dataset:
    """Check the batch ``cfg`` before ``--out`` is made; return its dataset."""
    if cfg.backend.kind == "http" and not os.environ.get(cfg.backend.key_env_var):
        raise ConfigError(
            f"http backend needs the API key environment variable "
            f"{cfg.backend.key_env_var} to be set"
        )
    if cfg.backend.kind == "scripted":
        if not cfg.backend.transcript:
            raise ConfigError("scripted backend needs --transcript")
        if not Path(cfg.backend.transcript).exists():
            raise ConfigError(f"transcript not found: {cfg.backend.transcript}")
        try:
            ScriptedBackend.from_file(cfg.backend.transcript)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read transcript {cfg.backend.transcript}: {exc}") from exc
    try:
        dataset = data.load_builtin(cfg.dataset)
    except data.UnknownDatasetError:
        raise ConfigError(f"unknown dataset {cfg.dataset!r}") from None
    if cfg.subsample is not None and cfg.subsample > dataset.n_rows:
        raise ConfigError(
            f"--subsample {cfg.subsample} exceeds the {dataset.n_rows} rows of {cfg.dataset}"
        )
    return dataset


def _start_run(outdir: Path, k: int, cfg: RunConfig,
               dataset: data.Dataset) -> tuple[threading.Thread, Future]:
    """Start ``_run_and_save`` for run ``k`` on a daemon thread of its own; return
    the thread and a future that holds the run's log or whatever it raised."""
    future = Future()

    def work():
        try:
            future.set_result(_run_and_save(outdir, k, cfg, dataset))
        except BaseException as exc:  # handed to the main thread in run order
            future.set_exception(exc)

    thread = threading.Thread(target=work, name=f"srloop-run-{k}", daemon=True)
    thread.start()
    return thread, future


def _out_dir(path: str) -> Path:
    """The output directory ``path``, made with its parents; a ConfigError when
    it cannot be made."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {_reason(exc)}") from exc
    return outdir


def _open_csv(path):
    """``path`` opened for writing a CSV; a ConfigError when it cannot be."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {_reason(exc)}") from exc


def _reason(exc: Exception) -> str:
    """``exc`` for a message that names its file already: an OSError's text
    without the path (its ``strerror``), where it has one."""
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


def _run_and_save(outdir: Path, k: int, cfg: RunConfig, dataset: data.Dataset) -> engine.RunLog:
    """Run ``k`` of a batch and save its files, on the run's own thread; a failed run
    saves its partial log alone. A failed write is a ConfigError."""
    log = engine.run(cfg, dataset=dataset)
    try:
        engine.save_runlog(log, outdir / f"run{k:02d}.jsonl")
        if log.error is None:
            (outdir / f"run{k:02d}.config.json").write_text(json.dumps(log.config, indent=2) + "\n")
            log.store.to_csv(outdir / f"run{k:02d}.store.csv")
    except OSError as exc:
        raise ConfigError(f"cannot write run {k}: {exc}") from exc
    return log


def cmd_run(args) -> int:
    ini = _load_ini(args.config)
    cfg = build_run_config(args, ini)
    dataset = _preflight(cfg)
    prices = _price_table(ini)
    outdir = _out_dir(args.out)
    logs, code = [], EXIT_OK
    cfgs = [replace(cfg, fit=replace(cfg.fit, seed=cfg.fit.seed + r)) for r in range(cfg.runs)]
    started = [_start_run(outdir, k, c, dataset)
               for k, c in enumerate(cfgs[:MAX_CONCURRENT_RUNS], start=1)]
    # taken in run order, as in a sequential batch, and the loop takes the runs it
    # appends: run k + MAX_CONCURRENT_RUNS starts once run k has ended well, so a
    # batch whose first failed run is k has started runs 1 to k + MAX_CONCURRENT_RUNS - 1
    for k, (_, future) in enumerate(started, start=1):
        try:
            log = future.result()
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
            break
        if log.error is not None:
            print(f"error: run {k} aborted: {log.error} (partial log kept)", file=sys.stderr)
            code = EXIT_RUNTIME
            break
        if len(started) < len(cfgs):
            started.append(_start_run(outdir, len(started) + 1, cfgs[len(started)], dataset))
        logs.append(log)
        found = log.rediscovery_iteration
        print(f"run {k}: {len(log.store)} candidates, "
              f"rediscovery {'at iteration ' + str(found) if found else 'not reached'}")
    for thread, _ in started:  # an exception, Ctrl-C included, leaves before this wait
        thread.join()
    if code != EXIT_OK:
        return code
    score = engine.score_runs(logs, iterations=cfg.iterations, mode=cfg.score_mode)
    print(f"score by iteration ({cfg.score_mode}): {score}")
    usage = TokenUsage(sum(log.usage.prompt_tokens for log in logs),
                       sum(log.usage.completion_tokens for log in logs))
    print(f"tokens: {usage.prompt_tokens} prompt + {usage.completion_tokens} completion")
    try:  # configparser lower-cases every INI key, so a model is matched in any case
        cost = estimate_cost(usage, cfg.backend.model.lower(), prices)
        print(f"estimated cost: ${cost:.4f}")
    except UnknownModelError:
        print(f"estimated cost: n/a (no price entry for {cfg.backend.model})")
    return EXIT_OK


def cmd_replay(args) -> int:
    if not args.logs:
        raise ConfigError("no run logs given")
    failures = 0
    for path in args.logs:
        try:
            log = engine.load_runlog_data(path)
            fresh = engine.replay(log)
            problems = engine.diff_replay(log, fresh)
        except (OSError, ValueError, KeyError) as exc:
            print(f"{path}: replay failed: {_reason(exc)}", file=sys.stderr)
            failures += 1
            continue
        if problems:
            failures += 1
            print(f"{path}: DIVERGED")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"{path}: ok ({len(fresh.store)} candidates reproduced)")
    return EXIT_RUNTIME if failures else EXIT_OK


def _load_logs(paths, with_stores: bool = False) -> list[engine.RunLog]:
    """Each run log, with ``with_stores`` its store rebuilt; a log that
    cannot be read is a ConfigError."""
    logs = []
    for path in paths:
        try:
            log = engine.load_runlog_data(path)
            if with_stores:
                info = data.dataset_info(log.dataset_id)
                log.store = engine.store_from_log(log, list(info["variables"]))
        except data.UnknownDatasetError as exc:
            raise ConfigError(f"{path}: cannot load run log: unknown dataset {exc}") from exc
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: cannot load run log: {_reason(exc)}") from exc
        logs.append(log)
    return logs


def cmd_score(args) -> int:
    if not args.logs:
        raise ConfigError("no run logs given")
    try:
        info = data.dataset_info(args.target)  # the manifest alone: score reads no rows
    except data.UnknownDatasetError:
        raise ConfigError(f"unknown dataset {args.target!r}") from None
    if not info["target"]:
        raise ConfigError(f"dataset {args.target!r} has no target model")
    target = parse(info["target"], Dialect.INFIX, list(info["variables"]))
    logs = _load_logs(args.logs)
    for path, log in zip(args.logs, logs):
        if log.dataset_id != args.target:
            raise ConfigError(f"{path} is a run on {log.dataset_id!r}, not on {args.target!r}")
    score = engine.score_runs(logs)
    found = sum(log.rediscovery_iteration is not None for log in logs)
    out = Path(args.out)
    with _open_csv(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "count"])
        for i, n in enumerate(score, start=1):
            writer.writerow([i, n])
    print(f"target: {target}")
    print(f"runs: {len(logs)}, rediscovered in {found}")
    print("iteration  found-by")
    for i, n in enumerate(score, start=1):
        print(f"{i:9d}  {n}/{len(logs)}")
    print(f"score CSV written to {out}")
    return EXIT_OK


def _write_front_csv(front: list[Candidate], path) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["complexity", "mse", "equation"])
        for c in front:
            writer.writerow([c.complexity, repr(c.mse), c.equation])


def cmd_pareto(args) -> int:
    if not args.logs:
        raise ConfigError("no run logs given")
    logs = _load_logs(args.logs, with_stores=True)
    datasets = sorted({log.dataset_id for log in logs})
    if len(datasets) > 1:
        raise ConfigError(f"the logs are runs on different datasets ({', '.join(datasets)}); "
                          f"a merged front needs runs on one")
    outdir = _out_dir(args.out)
    merged = CandidateStore()
    for i, log in enumerate(logs, start=1):
        front = log.store.pareto_front()
        _write_front_csv(front, outdir / f"pareto_run{i:02d}.csv")
        for cand in log.store:
            merged.insert(cand)
    total = merged.pareto_front()
    _write_front_csv(total, outdir / "pareto_total.csv")
    print(f"wrote {len(args.logs)} per-run fronts and the best total front "
          f"({len(total)} points) to {outdir}")
    if datasets == ["nikuradse"]:
        print()
        print(reference_table())
    return EXIT_OK


def reference_table(dataset_id: str = "nikuradse") -> str:
    """Plain-text comparison table of published reference scores."""
    refs = data.reference_models(dataset_id)
    lines = ["Reference models (display anchors, not reproduction targets)",
             f"{'model':<14}{'MAE':<12}{'complexity'}"]
    for entry in refs["external"]:
        cx = entry["complexity"] if entry["complexity"] is not None else "-"
        lines.append(f"{entry['name']:<14}{entry['mae']!r:<12}{cx}")
    lines.append("")
    lines.append("Prompt-variant results (P = prompt version, S = data sample)")
    lines.append(f"{'run':<8}{'MAE':<14}{'complexity'}")
    for entry in refs["prompt_table"]:
        lines.append(f"{entry['run']:<8}{entry['mae']!r:<14}{entry['complexity']}")
    return "\n".join(lines)


def cmd_datasets(args) -> int:
    if args.references:
        print(reference_table())
        return EXIT_OK
    print(f"{'id':<20}{'rows':<7}{'vars':<6}{'target'}")
    for dataset_id in data.builtin_ids():
        info = data.dataset_info(dataset_id)
        target = info["target"] or "-"
        print(f"{dataset_id:<20}{info['rows']:<7}{len(info['variables']):<6}{target}")
        if args.verbose:
            print(f"    source: {info['source']}")
            context = data.load_builtin(dataset_id).context or ""
            print(f"    context: {context[:90]}{'...' if len(context) > 90 else ''}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srloop",
        description="LLM-in-the-loop symbolic regression runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a batch of independent runs")
    p_run.add_argument("--config", help="INI config file")
    p_run.add_argument("--dataset", help="builtin dataset id")
    p_run.add_argument("--operators", choices=["easy", "hard"])
    p_run.add_argument("--iterations", type=int)
    p_run.add_argument("--runs", type=int)
    p_run.add_argument("--temperature", type=float)
    p_run.add_argument("--policy", choices=["standard", "top5"])
    p_run.add_argument("--no-context", action="store_true")
    p_run.add_argument("--no-data", action="store_true")
    p_run.add_argument("--no-scratchpad", action="store_true")
    p_run.add_argument("--backend", choices=["http", "scripted"])
    p_run.add_argument("--transcript", help="transcript file for the scripted backend")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--subsample", type=int, help="rows shown in the prompt")
    p_run.add_argument("--out", default="runs", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="recompute stores from logged responses")
    p_replay.add_argument("logs", nargs="*", help="run log files (JSONL)")
    p_replay.set_defaults(func=cmd_replay)

    p_score = sub.add_parser("score", help="per-iteration rediscovery counts")
    p_score.add_argument("logs", nargs="*", help="run log files (JSONL)")
    p_score.add_argument("--target", required=True, help="dataset id providing the target")
    p_score.add_argument("--out", default="score.csv")
    p_score.set_defaults(func=cmd_score)

    p_pareto = sub.add_parser("pareto", help="per-run and merged Pareto fronts as CSV")
    p_pareto.add_argument("logs", nargs="*", help="run log files (JSONL)")
    p_pareto.add_argument("--out", default="pareto")
    p_pareto.set_defaults(func=cmd_pareto)

    p_ds = sub.add_parser("datasets", help="list bundled datasets")
    p_ds.add_argument("--verbose", action="store_true")
    p_ds.add_argument("--references", action="store_true",
                      help="print the published reference-model table")
    p_ds.set_defaults(func=cmd_datasets)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
