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
import json
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from pathlib import Path

from . import data, engine
from .engine import BackendConfig, BackendFailure, ConfigError, RunConfig
from .expressions import Dialect, canonicalize, complexity
from .llm import TokenUsage, UnknownModelError, estimate_cost
from .optimize import FitConfig
from .pareto import Candidate, CandidateStore, FeedbackPolicy
from .parsing import parse
from .prompts import PromptConfig, extra_instruction

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

MAX_CONCURRENT_RUNS = 5  # runs of a batch in flight at once; the paper's batch size


def _bool(s: str) -> bool:
    return s.strip().lower() in ("1", "true", "yes", "on")


def _load_ini(path: str | None) -> configparser.ConfigParser:
    ini = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        ini.read(path)
    return ini


def _prompt_config(ini: configparser.ConfigParser, args) -> PromptConfig:
    sec = ini["prompt"] if ini.has_section("prompt") else {}
    extras = []
    for name in [e.strip() for e in sec.get("extra", "").split(",") if e.strip()]:
        if name == "mae_challenge":
            extras.append(extra_instruction(
                "mae_challenge",
                target_mae=sec.get("mae_target", "?"),
                target_complexity=sec.get("mae_complexity", "?"),
            ))
        else:
            extras.append(extra_instruction(name))
    rounding = sec.get("rounding_decimals", "")
    return PromptConfig(
        use_scratchpad=_bool(sec.get("use_scratchpad", "true")) and not args.no_scratchpad,
        use_context=_bool(sec.get("use_context", "true")) and not args.no_context,
        include_data=_bool(sec.get("include_data", "true")) and not args.no_data,
        n_expressions=int(sec.get("n_expressions", "3")),
        extra_instructions=tuple(extras),
        rounding_decimals=int(rounding) if rounding else None,
        dialect=Dialect(sec.get("dialect", "infix")),
    )


def _ini_fields(cls, sec) -> dict:
    """The keys of an INI section that name fields of ``cls`` with a non-None
    default, each coerced by the type of that default. Absent keys are left
    to the dataclass defaults."""
    return {f.name: type(f.default)(sec[f.name]) for f in fields(cls)
            if f.name in sec and f.default is not None}


def _fit_config(ini: configparser.ConfigParser, args) -> FitConfig:
    sec = ini["fit"] if ini.has_section("fit") else {}
    return FitConfig(**{"seed": args.seed or 0, **_ini_fields(FitConfig, sec)})


def _backend_config(ini: configparser.ConfigParser, args) -> BackendConfig:
    sec = ini["llm"] if ini.has_section("llm") else {}
    cfg = BackendConfig(**_ini_fields(BackendConfig, sec))
    max_tokens = sec.get("max_tokens", "")
    return replace(
        cfg,
        kind=args.backend or cfg.kind,
        max_tokens=int(max_tokens) if max_tokens else None,
        transcript=args.transcript or sec.get("transcript") or None,
    )


def _policy(name: str) -> FeedbackPolicy:
    if name in ("standard", ""):
        return FeedbackPolicy.standard()
    if name in ("top5", "top_k"):
        return FeedbackPolicy.top_k_by_mse(k=5, include_params=True)
    raise ConfigError(f"unknown feedback policy {name!r}")


def build_run_config(args) -> RunConfig:
    ini = _load_ini(args.config)
    sec = ini["run"] if ini.has_section("run") else {}
    dataset = args.dataset or sec.get("dataset")
    if not dataset:
        raise ConfigError("no dataset given (use --dataset or [run] dataset=...)")
    subsample = args.subsample if args.subsample is not None else (
        int(sec["subsample"]) if sec.get("subsample") else None
    )
    try:
        return RunConfig(
            dataset=dataset,
            operators=args.operators or sec.get("operators", "easy"),
            prompt=_prompt_config(ini, args),
            policy=_policy(args.policy or sec.get("policy", "standard")),
            fit=_fit_config(ini, args),
            iterations=args.iterations or int(sec.get("iterations", "15")),
            runs=args.runs or int(sec.get("runs", "5")),
            backend=_backend_config(ini, args),
            temperature=args.temperature if args.temperature is not None
            else float(sec.get("temperature", "0.7")),
            seed=args.seed if args.seed is not None else int(sec.get("seed", "0")),
            subsample=subsample,
            score_mode=sec.get("score_mode", "cumulative"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _price_table(ini: configparser.ConfigParser) -> dict[str, tuple[float, float]]:
    if not ini.has_section("prices"):
        return {}
    table = {}
    for model, value in ini["prices"].items():
        parts = [float(v) for v in value.split(",")]
        table[model] = (parts[0], parts[1])
    return table


def _preflight(cfg: RunConfig) -> None:
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
    info = data.dataset_info(cfg.dataset)  # raises UnknownDatasetError early
    if cfg.subsample is not None and cfg.subsample > info["rows"]:
        raise ConfigError(
            f"--subsample {cfg.subsample} exceeds the {info['rows']} rows of {cfg.dataset}"
        )


@contextmanager
def _concurrent_runs(cfgs: list[RunConfig], dataset: data.Dataset):
    """Start ``engine.run`` on each config, in order, on at most
    MAX_CONCURRENT_RUNS daemon threads, and yield one future per run holding
    its log or whatever it raised. Once a run raises, runs not yet started
    never start. On leaving the block every future not yet started is
    cancelled; the workers are joined after a clean exit only, so an
    exception (Ctrl-C included) does not wait for the runs in flight."""
    futures = [Future() for _ in cfgs]
    jobs = deque(zip(cfgs, futures))

    def work():
        while True:
            try:
                cfg, future = jobs.popleft()
            except IndexError:
                return
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(engine.run(cfg, dataset=dataset))
            except BaseException as exc:  # handed to the main thread in run order
                future.set_exception(exc)
                for pending in futures:
                    pending.cancel()

    workers = [threading.Thread(target=work, name=f"srloop-run-worker-{k + 1}", daemon=True)
               for k in range(min(len(cfgs), MAX_CONCURRENT_RUNS))]
    for worker in workers:
        worker.start()
    try:
        yield futures
    finally:
        for future in futures:
            future.cancel()
    for worker in workers:
        worker.join()


def _save_run(outdir: Path, k: int, future: Future) -> engine.RunLog:
    """Wait for run ``k`` and save its log, config and store. A run that failed
    leaves its partial log, and its BackendFailure is raised again."""
    log_path = outdir / f"run{k:02d}.jsonl"
    try:
        log = future.result()
    except BackendFailure as exc:
        engine.save_runlog(exc.log, log_path)
        raise
    engine.save_runlog(log, log_path)
    (outdir / f"run{k:02d}.config.json").write_text(json.dumps(log.config, indent=2) + "\n")
    log.store.to_csv(outdir / f"run{k:02d}.store.csv")
    return log


def cmd_run(args) -> int:
    try:
        cfg = build_run_config(args)
        _preflight(cfg)
    except (ConfigError, data.UnknownDatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    prices = _price_table(_load_ini(args.config))
    usage = TokenUsage()
    logs = []
    cfgs = [replace(cfg, fit=replace(cfg.fit, seed=cfg.fit.seed + r)) for r in range(cfg.runs)]
    with _concurrent_runs(cfgs, data.load_builtin(cfg.dataset)) as futures:
        # results are handled in run order, so files and output match a sequential batch
        for k, future in enumerate(futures, start=1):
            try:
                log = _save_run(outdir, k, future)
            except BackendFailure as exc:
                print(f"error: run {k} aborted: {exc} (partial log kept)", file=sys.stderr)
                for later, pending in enumerate(futures[k:], start=k + 1):
                    # runs in flight are paid for: keep what they return
                    if not pending.cancel():
                        with suppress(BackendFailure):
                            _save_run(outdir, later, pending)
                return EXIT_RUNTIME
            logs.append(log)
            u = log.usage
            usage.prompt_tokens += u.prompt_tokens
            usage.completion_tokens += u.completion_tokens
            found = log.rediscovery_iteration
            print(f"run {k}: {len(log.store)} candidates, "
                  f"rediscovery {'at iteration ' + str(found) if found else 'not reached'}")
    score = engine.score_runs(logs, iterations=cfg.iterations, mode=cfg.score_mode)
    print(f"score by iteration ({cfg.score_mode}): {score}")
    print(f"tokens: {usage.prompt_tokens} prompt + {usage.completion_tokens} completion")
    try:
        cost = estimate_cost(usage, cfg.backend.model, prices)
        print(f"estimated cost: ${cost:.4f}")
    except UnknownModelError:
        print(f"estimated cost: n/a (no price entry for {cfg.backend.model})")
    return EXIT_OK


def cmd_replay(args) -> int:
    if not args.logs:
        print("error: no run logs given", file=sys.stderr)
        return EXIT_CONFIG
    failures = 0
    for path in args.logs:
        try:
            log_data = engine.load_runlog_data(path)
            fresh = engine.replay(log_data)
            problems = engine.diff_replay(log_data, fresh)
        except (OSError, ValueError, KeyError, BackendFailure) as exc:
            print(f"{path}: replay failed: {exc}", file=sys.stderr)
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


def _load_logs(paths) -> list[dict]:
    """The raw data of each run log; a log that cannot be read is a ConfigError."""
    logs = []
    for path in paths:
        try:
            logs.append(engine.load_runlog_data(path))
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: cannot load run log: {exc}") from exc
    return logs


def cmd_score(args) -> int:
    if not args.logs:
        print("error: no run logs given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        dataset = data.load_builtin(args.target)
    except data.UnknownDatasetError:
        print(f"error: unknown dataset {args.target!r}", file=sys.stderr)
        return EXIT_CONFIG
    if dataset.target is None:
        print(f"error: dataset {args.target!r} has no target model", file=sys.stderr)
        return EXIT_CONFIG
    logs = []
    iterations = 0
    for path, log_data in zip(args.logs, _load_logs(args.logs)):
        header, summary = log_data["header"], log_data["summary"]
        if header["dataset"] != args.target:
            raise ConfigError(f"{path} is a run on {header['dataset']!r}, not on {args.target!r}")
        logs.append(engine.RunLog(dataset_id=header["dataset"], config=header["config"],
                                  rediscovery_iteration=summary["rediscovery_iteration"]))
        iterations = max(iterations, len(log_data["iterations"]))
    score = engine.score_runs(logs, iterations=iterations, mode="cumulative")
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "count"])
        for i, n in enumerate(score, start=1):
            writer.writerow([i, n])
    found = sum(1 for log in logs if log.rediscovery_iteration is not None)
    print(f"target: {dataset.target}")
    print(f"runs: {len(logs)}, rediscovered in {found}")
    print("iteration  found-by")
    for i, n in enumerate(score, start=1):
        print(f"{i:9d}  {n}/{len(logs)}")
    print(f"score CSV written to {out}")
    return EXIT_OK


def _store_from_log(log_data: dict, variables: list[str]) -> CandidateStore:
    store = CandidateStore()
    for cand in log_data["summary"]["store"]:
        expr = parse(cand["equation"], Dialect.INFIX, variables)
        store.insert(Candidate(
            expr=expr, canonical=canonicalize(expr),
            params=tuple(float(v) for v in cand["params"]),
            mse=math.inf if cand["mse"] is None else float(cand["mse"]),
            mae=math.inf if cand["mae"] is None else float(cand["mae"]),
            complexity=complexity(expr), iteration_born=cand["iteration"],
        ))
    return store


def _write_front_csv(front: list[Candidate], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["complexity", "mse", "equation"])
        for c in front:
            writer.writerow([c.complexity, repr(c.mse), c.equation])


def cmd_pareto(args) -> int:
    if not args.logs:
        print("error: no run logs given", file=sys.stderr)
        return EXIT_CONFIG
    logs = _load_logs(args.logs)
    datasets = sorted({log_data["header"]["dataset"] for log_data in logs})
    if len(datasets) > 1:
        raise ConfigError(f"the logs are runs on different datasets ({', '.join(datasets)}); "
                          f"a merged front needs runs on one")
    dataset_id = datasets[0]
    variables = list(data.dataset_info(dataset_id)["variables"])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    merged = CandidateStore()
    for i, log_data in enumerate(logs, start=1):
        store = _store_from_log(log_data, variables)
        front = store.pareto_front()
        _write_front_csv(front, outdir / f"pareto_run{i:02d}.csv")
        for cand in store:
            merged.insert(cand)
    total = merged.pareto_front()
    _write_front_csv(total, outdir / "pareto_total.csv")
    print(f"wrote {len(args.logs)} per-run fronts and the best total front "
          f"({len(total)} points) to {outdir}")
    if dataset_id == "nikuradse":
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
    except BackendFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
