#!/usr/bin/env python3
"""The srloop benchmark: runs a workload through the public ``srloop`` CLI.

    python3 perfbench/run.py --workload capped_fits --seed 1 --seconds 25 --trace 0

Each round runs the workload's ``srloop run`` batches, then ``srloop score``
(datasets with a target) and ``srloop pareto`` over the logs each batch
wrote, all in this process through ``srloop.cli.main``. Rounds repeat until
``--seconds`` have passed; every round's outputs are checked by
``checks.py``. The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics (medians over rounds), with
``--trace 1`` the per-layer metrics of a run with hooks installed around
every module's public functions (see ``tracing.py``).

The program is imported from ``src/`` of the checkout; no install step and
no network are needed. Outputs go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one process, at most two threads (main and stub): keep NumPy's BLAS from adding its own
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402 (after the thread limit, before NumPy loads)
import stub  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PASSES = 3  # per round
ANALYZE_PASSES = 20  # analysis takes milliseconds; many passes steady its median
STUB_DELAY_S = 0.25


def _import_srloop():
    """Import srloop afresh from the checkout's src/ (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "srloop" or m.startswith("srloop.")]:
        del sys.modules[name]
    srloop = importlib.import_module("srloop")
    importlib.import_module("srloop.cli")
    if Path(srloop.__file__).resolve().parent != (SRC / "srloop").resolve():
        raise ImportError(f"srloop was imported from {srloop.__file__}, not from {SRC}")
    return srloop


class Setup:
    """What one set-up pass produces: the program, its data and the workload's inputs."""

    def __init__(self, workload: str, seed: int, wdir: Path):
        t0 = time.perf_counter()
        self.srloop = _import_srloop()
        t1 = time.perf_counter()
        data = self.srloop.data
        self.datasets = {i: data.load_builtin(i) for i in data.builtin_ids()}
        self.load_s = time.perf_counter() - t1
        self.batches = workloads.make_batches(workload, seed)
        self.stub = None
        if workload == "live_endpoint":
            self.stub = stub.StubEndpoint(self.batches[0].responses, STUB_DELAY_S)
        self.inis = workloads.write_inputs(self.batches, wdir / "inputs",
                                           self.stub.url if self.stub else None)
        self.seconds = time.perf_counter() - t0

    def close(self):
        if self.stub is not None:
            self.stub.close()


def _cli(srloop, argv: list[str]) -> tuple[object, str]:
    """Run one srloop command; returns (exit code or exception text, its stdout and stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = srloop.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue() + err.getvalue()


class Round:
    def __init__(self):
        self.run_s = 0.0
        self.analyze_s: list[float] = []  # one sample per analysis pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stub_s = 0.0

    def op(self, problems: list[str]):
        """Count one operation; it failed when any problem is given."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _checked(check, *args) -> list[str]:
    """Problems a check finds; a check that cannot read the output is one more problem."""
    try:
        return check(*args)
    except Exception as exc:  # malformed program output must not stop the benchmark
        return [f"{check.__name__} could not check the output: {exc!r}"]


def _run_batch(rnd: Round, setup: Setup, batch, ini: Path, out: Path) -> list[dict]:
    """One timed ``srloop run`` batch; returns the run logs that pass their checks."""
    violations_before = len(setup.stub.violations) if setup.stub else 0
    gc.collect()
    t0 = time.perf_counter()
    code, text = _cli(setup.srloop, ["run", "--config", str(ini), "--out", str(out)])
    rnd.run_s += time.perf_counter() - t0

    dataset = setup.datasets[batch.dataset]
    stub_problems = setup.stub.violations[violations_before:] if setup.stub else []
    logs = []
    for k in range(1, batch.runs + 1):
        where = f"{batch.dataset} run {k}"
        if code != 0:
            rnd.op([f"{where}: srloop run exited {code}: {text[-400:]}"])
            continue
        try:
            log = checks.read_log(out / f"run{k:02d}.jsonl")
        except (OSError, ValueError) as exc:
            rnd.op([f"{where}: {exc}"])
            continue
        found = _checked(checks.check_log, log, batch, dataset.X, dataset.y) + stub_problems
        rnd.op([f"{where}: {p}" for p in found])
        logs.append(log)
    return logs


def _analyze_batch(rnd: Round, setup: Setup, batch, out: Path, logs: list[dict]) -> float:
    """Timed ``srloop score`` (when the dataset has a target) and ``srloop pareto``
    over one batch's logs, then their checks; returns the timed seconds."""
    paths = [str(out / f"run{k:02d}.jsonl") for k in range(1, batch.runs + 1)]
    score_csv, pareto_dir = out / "score.csv", out / "pareto"
    gc.collect()
    t0 = time.perf_counter()
    if batch.target_iteration is not None:
        score = _cli(setup.srloop, ["score", *paths, "--target", batch.dataset,
                                    "--out", str(score_csv)])
    pareto = _cli(setup.srloop, ["pareto", *paths, "--out", str(pareto_dir)])
    seconds = time.perf_counter() - t0

    if batch.target_iteration is not None:
        code, text = score
        found = _checked(checks.check_score, score_csv, batch) if code == 0 else [
            f"exited {code}: {text[-400:]}"]
        rnd.op([f"{batch.dataset} score: {p}" for p in found])
    code, text = pareto
    if code != 0:
        found = [f"exited {code}: {text[-400:]}"]
    elif len(logs) != batch.runs:
        found = ["not checked: a run log failed its checks"]
    else:
        found = _checked(checks.check_pareto, pareto_dir, logs)
    rnd.op([f"{batch.dataset} pareto: {p}" for p in found])
    return seconds


def run_round(index: int, setup: Setup, wdir: Path, tracer) -> Round:
    """Each batch of the workload, each followed by the analysis passes over its
    logs; analysis sample k of the round sums pass k over the batches. A traced
    round makes one analysis pass, so its analyze-phase figures are per pass."""
    rnd = Round()
    rdir = wdir / "round"
    shutil.rmtree(rdir, ignore_errors=True)
    served_before = len(setup.stub.served) if setup.stub else 0
    passes = [0.0] * (1 if tracer else ANALYZE_PASSES)
    for batch, ini in zip(setup.batches, setup.inis):
        out = rdir / batch.dataset
        if tracer:
            tracer.round, tracer.phase = index, "run"
        logs = _run_batch(rnd, setup, batch, ini, out)
        if tracer:
            tracer.phase = "analyze"
        for k in range(len(passes)):
            passes[k] += _analyze_batch(rnd, setup, batch, out, logs)
    rnd.analyze_s = passes
    if setup.stub:
        rnd.stub_s = sum(t1 - t0 for t0, t1 in setup.stub.served[served_before:])
    return rnd


def replay_check(setup: Setup, wdir: Path) -> list[str]:
    """The first run log of the first batch replays without divergence."""
    path = wdir / "round" / setup.batches[0].dataset / "run01.jsonl"
    code, text = _cli(setup.srloop, ["replay", str(path)])
    if code != 0 or "DIVERGED" in text:
        return [f"replay of {path.name} failed ({code}): {text[-400:]}"]
    return []


def unit_of(metric: str) -> str:
    """Unit from the metric's name: ``_s``/``.s`` seconds, ``_us`` microseconds,
    ``_bytes`` bytes, anything else a count. A ``.run``/``.analyze`` suffix names the phase."""
    base = metric.removesuffix(".run").removesuffix(".analyze").split(".", 1)[1]
    for suffix, unit in (("_us", "us"), ("_bytes", "bytes"), ("_s", "s")):
        if base.endswith(suffix):
            return unit
    return "s" if base == "s" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.setdefault(workloads.STUB_KEY_ENV, "local-stub-key")
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"  # the stub is local; never via a proxy
    sys.path.insert(0, str(SRC))
    wdir = OUT / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)

    setup, setup_times, load_times = None, [], []
    tracer = tracing.Tracer() if args.trace else None
    rounds: list[Round] = []
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            # set-up passes spread over the run, so setup_s sees the same
            # machine as run_s; the first pass also pays for cold imports
            if tracer:
                tracer.uninstall()
            for _ in range(SETUP_PASSES):
                if setup is not None:
                    setup.close()
                gc.collect()
                setup = Setup(args.workload, args.seed, wdir)
                setup_times.append(setup.seconds)
                load_times.append(setup.load_s)
            if tracer:
                tracer.install()
            rounds.append(run_round(len(rounds) + 1, setup, wdir, tracer))
            if time.perf_counter() >= deadline:
                break
        if tracer:
            tracer.uninstall()
            for name in tracer.missing:
                print(f"warning: no hook for {name}; its metrics are left out", file=sys.stderr)
        problems += replay_check(setup, wdir)
    except ImportError as exc:
        print(f"error: cannot import srloop from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        if setup is not None:
            setup.close()

    for r in rounds:
        problems += r.problems
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    run_s = statistics.median(r.run_s for r in rounds)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "run_s": [r.run_s for r in rounds],
        "analyze_s": [r.analyze_s for r in rounds], "setup_s": setup_times,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems[:50],
    }
    if tracer:
        per_round = []
        for k in range(1, len(rounds) + 1):
            spans = [s for s in tracer.spans if s.round == k]
            m = tracing.round_metrics(spans, tracer.hooked)
            m["llm.stub_s"] = rounds[k - 1].stub_s
            per_round.append(m)
        layer, mismatch = tracing.combine_rounds(per_round)
        problems += mismatch
        if args.workload == "converging_fits" and layer.get("optimize.capped_solves"):
            problems.append(f"{layer['optimize.capped_solves']} capped solves on converging_fits")
        layer["data.load_s"] = statistics.median(load_times)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layer.items())}
        tracer.write(wdir / "spans.jsonl")
        summary["traced_run_s"] = run_s
        summary["layers"] = layer
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "analyze_s": {"value": statistics.median(t for r in rounds for t in r.analyze_s),
                          "unit": "s"},
        }
    (wdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, run_s median {run_s:.4f}, "
          f"peak RSS {summary['peak_rss_kib']} KiB", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
