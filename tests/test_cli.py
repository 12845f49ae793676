import csv
import json
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import candidate, reply

from srloop import cli, engine
from srloop.cli import main, reference_table
from srloop.data import dataset_info
from srloop.engine import BackendConfig, RunConfig, load_runlog_data, save_runlog
from srloop.llm import TransportError, write_transcript
from srloop.optimize import FitConfig
from srloop.pareto import CandidateStore
from srloop.parsing import parse
from srloop.expressions import Dialect


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def scripted_ini(tmp_path, transcript, **run_overrides) -> Path:
    run = {
        "dataset": "langmuir",
        "iterations": "3",
        "runs": "2",
        "seed": "0",
    }
    run.update({k: str(v) for k, v in run_overrides.items()})
    run_lines = "\n".join(f"{k} = {v}" for k, v in run.items())
    text = f"""
[run]
{run_lines}

[fit]
hops = 1
max_evals = 500
seed = 3

[llm]
kind = scripted
transcript = {transcript}
model = test-model

[prices]
test-model = 1e-6, 2e-6
"""
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


def standard_transcript(tmp_path) -> Path:
    path = tmp_path / "transcript.txt"
    write_transcript(
        [reply("c1*x1", "c1+x1*c2"), reply("x1*c3/(x1+c4)"), reply("c1*x1*x1")], path
    )
    return path


class TestRun:
    def test_scripted_batch(self, workdir, capsys):
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript)
        code = main(["run", "--config", str(ini), "--out", "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert (workdir / "out" / "run01.jsonl").exists()
        assert (workdir / "out" / "run02.jsonl").exists()
        assert (workdir / "out" / "run01.config.json").exists()
        with open(workdir / "out" / "run01.store.csv") as fh:
            header = fh.readline().strip()
        assert header == "equation,complexity,mse,mae,iteration"
        assert "rediscovery at iteration 2" in out
        cost_line = next(ln for ln in out.splitlines() if ln.startswith("estimated cost"))
        assert float(cost_line.split("$")[1]) > 0
        # the accounting is reproducible: a second identical batch costs the same
        assert main(["run", "--config", str(ini), "--out", "out2"]) == 0
        rerun = capsys.readouterr().out
        assert cost_line in rerun

    def test_missing_api_key_names_variable(self, workdir, capsys, monkeypatch):
        monkeypatch.delenv("MISSING_TEST_KEY", raising=False)
        ini = workdir / "config.ini"
        ini.write_text(
            "[run]\ndataset = langmuir\n\n[llm]\nkind = http\nkey_env_var = MISSING_TEST_KEY\n"
        )
        code = main(["run", "--config", str(ini), "--out", "out"])
        assert code == 1
        assert "MISSING_TEST_KEY" in capsys.readouterr().err

    def test_unknown_dataset(self, workdir, capsys):
        transcript = standard_transcript(workdir)
        code = main(["run", "--dataset", "phlogiston", "--backend", "scripted",
                     "--transcript", str(transcript), "--out", "out"])
        assert code == 1

    def test_missing_transcript(self, workdir, capsys):
        code = main(["run", "--dataset", "langmuir", "--backend", "scripted",
                     "--transcript", "nope.txt", "--out", "out"])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_short_transcript_keeps_partial_log(self, workdir, capsys):
        path = workdir / "short.txt"
        write_transcript([reply("c1*x1")], path)
        ini = scripted_ini(workdir, path, runs=1)
        code = main(["run", "--config", str(ini), "--out", "out"])
        assert code == 2
        data = load_runlog_data(workdir / "out" / "run01.jsonl")
        assert len(data["iterations"]) == 1

    def test_output_directory_created(self, workdir):
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=1)
        code = main(["run", "--config", str(ini), "--out", "deep/nested/dir"])
        assert code == 0
        assert (workdir / "deep" / "nested" / "dir" / "run01.jsonl").exists()

    def test_oversized_subsample_is_config_error(self, workdir, capsys):
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=1)
        code = main(["run", "--config", str(ini), "--subsample", "999", "--out", "out"])
        assert code == 1
        assert "999" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["run", "--bogus-flag"]) == 1


@pytest.fixture
def batch_threads():
    """The threads started since the test began that are still alive."""
    before = set(threading.enumerate())
    return lambda: [t for t in threading.enumerate() if t not in before and t.is_alive()]


class StepBackend:
    """A scripted backend that calls ``hook(n)`` before its n-th completion (from 1)."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.calls = inner, hook, 0

    def complete(self, req):
        self.calls += 1
        self.hook(self.calls)
        return self.inner.complete(req)


def patch_run(monkeypatch, backends: dict):
    """Run k of a batch (fit seed 3 + k - 1, as in ``scripted_ini``) completes
    through ``backends[k](transcript backend)``; other runs are left alone."""
    real = engine.run

    def run(cfg, dataset=None, backend=None):
        make = backends.get(cfg.fit.seed - 3 + 1)
        if make is not None:
            backend = make(engine.make_backend(cfg.backend))
        return real(cfg, dataset=dataset, backend=backend)

    monkeypatch.setattr(engine, "run", run)


class TestConcurrentBatch:
    def test_files_and_output_match_sequential_runs(self, workdir, capsys, batch_threads):
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=3)
        assert main(["run", "--config", str(ini), "--out", "out"]) == 0
        out = capsys.readouterr().out
        assert not batch_threads()

        base = RunConfig(
            dataset="langmuir", iterations=3, runs=3, seed=0,
            fit=FitConfig(hops=1, max_evals=500, seed=3),
            backend=BackendConfig(kind="scripted", transcript=str(transcript), model="test-model"),
        )
        ref = workdir / "ref"
        ref.mkdir()
        lines = []
        for k in (1, 2, 3):
            log = engine.run(replace(base, fit=replace(base.fit, seed=3 + k - 1)))
            save_runlog(log, ref / f"run{k:02d}.jsonl")
            (ref / f"run{k:02d}.config.json").write_text(json.dumps(log.config, indent=2) + "\n")
            log.store.to_csv(ref / f"run{k:02d}.store.csv")
            lines.append(f"run {k}: {len(log.store)} candidates")
        for path in sorted(ref.iterdir()):
            assert (workdir / "out" / path.name).read_bytes() == path.read_bytes(), path.name
        assert sorted(p.name for p in (workdir / "out").iterdir()) == sorted(
            p.name for p in ref.iterdir())
        run_lines = [ln for ln in out.splitlines() if ln.startswith("run ")]
        assert [ln.split(",")[0] for ln in run_lines] == lines

    def test_each_run_starts_once_and_is_reported_in_order(self, workdir, monkeypatch, capsys,
                                                           batch_threads):
        # more runs than workers and more workers than cores, switching threads
        # as often as the interpreter allows
        seeds = []
        real = engine.run

        def run(cfg, dataset=None, backend=None):
            seeds.append(cfg.fit.seed)
            return real(cfg, dataset=dataset, backend=backend)

        monkeypatch.setattr(engine, "run", run)
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=12, iterations=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(["run", "--config", str(ini), "--out", "out"])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert not batch_threads()
        assert sorted(seeds) == list(range(3, 15))
        out = capsys.readouterr().out
        assert [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("run ")] == [
            f"run {k}" for k in range(1, 13)]
        for k in range(1, 13):
            config = json.loads((workdir / "out" / f"run{k:02d}.config.json").read_text())
            assert config["fit"]["seed"] == 3 + k - 1

    def test_runs_overlap(self, workdir, monkeypatch, batch_threads):
        # each run's first completion waits for the other two: a batch that
        # ran its runs one after another would break the barrier
        barrier = threading.Barrier(3, timeout=5)
        real = engine.make_backend

        def make_backend(bcfg):
            return StepBackend(real(bcfg), lambda n: n == 1 and barrier.wait())

        monkeypatch.setattr(engine, "make_backend", make_backend)
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=3)
        assert main(["run", "--config", str(ini), "--out", "out"]) == 0
        assert not barrier.broken
        assert not batch_threads()

    @pytest.mark.parametrize("pool", [1, cli.MAX_CONCURRENT_RUNS])
    def test_backend_failure_keeps_partial_log(self, pool, workdir, monkeypatch, capsys,
                                               batch_threads):
        def fail_second(n):
            if n == 2:
                raise TransportError("connection reset")

        monkeypatch.setattr(cli, "MAX_CONCURRENT_RUNS", pool)
        patch_run(monkeypatch, {2: lambda inner: StepBackend(inner, fail_second)})
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=3)
        assert main(["run", "--config", str(ini), "--out", "out"]) == 2
        out, err = capsys.readouterr()
        assert not batch_threads()
        assert err.splitlines() == [
            "error: run 2 aborted: connection reset (partial log kept)"]
        assert [ln.split(":")[0] for ln in out.splitlines()] == ["run 1"]
        outdir = workdir / "out"
        assert len(load_runlog_data(outdir / "run01.jsonl")["iterations"]) == 3
        assert (outdir / "run01.config.json").exists()
        assert (outdir / "run01.store.csv").exists()
        partial = load_runlog_data(outdir / "run02.jsonl")
        assert len(partial["iterations"]) == 1
        assert partial["summary"]["error"] == "connection reset"
        assert not (outdir / "run02.config.json").exists()
        if pool == 1:  # run 3 had not started, so it never does
            assert not (outdir / "run03.jsonl").exists()
        elif (outdir / "run03.jsonl").exists():  # in flight: kept whole
            assert len(load_runlog_data(outdir / "run03.jsonl")["iterations"]) == 3
            assert (outdir / "run03.store.csv").exists()

    def test_interrupt_does_not_wait_for_runs_in_flight(self, workdir, monkeypatch,
                                                        batch_threads):
        run3_started, release = threading.Event(), threading.Event()
        run3_released = []

        def interrupt(n):
            if n == 2:
                assert run3_started.wait(timeout=5)
                raise KeyboardInterrupt

        def hold(n):
            if n == 1:
                run3_started.set()
                release.wait(timeout=30)
                run3_released.append(n)

        patch_run(monkeypatch, {2: lambda inner: StepBackend(inner, interrupt),
                                 3: lambda inner: StepBackend(inner, hold)})
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=3)
        try:
            with pytest.raises(KeyboardInterrupt):
                main(["run", "--config", str(ini), "--out", "out"])
            # main raised while run 3 still waited on its first completion
            assert not run3_released
            assert batch_threads()
        finally:
            release.set()
        for thread in batch_threads():
            thread.join(timeout=10)
        assert not batch_threads()
        assert (workdir / "out" / "run01.jsonl").exists()
        assert not (workdir / "out" / "run02.jsonl").exists()


@pytest.fixture
def finished_runs(workdir):
    transcript = standard_transcript(workdir)
    ini = scripted_ini(workdir, transcript)
    assert main(["run", "--config", str(ini), "--out", "out"]) == 0
    return sorted(str(p) for p in (workdir / "out").glob("run*.jsonl"))


def unreadable_log(kind, workdir, finished_runs) -> str:
    """A run log that cannot be loaded: no file at all, a header alone, or a
    complete log with a line that is JSON but not an object."""
    path = workdir / f"{kind}.jsonl"
    if kind == "header_only":
        path.write_text(Path(finished_runs[0]).read_text().splitlines()[0] + "\n")
    elif kind == "not_an_object":
        path.write_text(Path(finished_runs[0]).read_text() + "[1, 2]\n")
    return str(path)


def assert_refused(argv, bad, workdir, capsys):
    """The command prints one error line naming ``bad``, writes nothing and exits 1."""
    capsys.readouterr()
    before = sorted(workdir.rglob("*"))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad}: cannot load run log: ")
    assert sorted(workdir.rglob("*")) == before


class TestReplay:
    def test_fresh_logs_replay_clean(self, finished_runs, capsys):
        assert main(["replay", *finished_runs]) == 0
        assert "ok" in capsys.readouterr().out

    def test_tampered_log_diverges(self, finished_runs, capsys):
        path = Path(finished_runs[0])
        path.write_text(path.read_text().replace('"c1*x1*x1"', '"c1*x1*x1*x1"'))
        assert main(["replay", *finished_runs]) == 2
        assert "DIVERGED" in capsys.readouterr().out

    def test_no_logs_is_usage_error(self, capsys):
        assert main(["replay"]) == 1

    def test_unknown_config_key_fails_replay(self, finished_runs, capsys):
        path = Path(finished_runs[0])
        path.write_text(path.read_text().replace('"refits": 1', '"refits": 1, "patience": 5', 1))
        assert main(["replay", str(path)]) == 2
        assert "replay failed" in capsys.readouterr().err


class TestScore:
    def test_score_csv(self, finished_runs, workdir, capsys):
        out = workdir / "score.csv"
        code = main(["score", *finished_runs, "--target", "langmuir", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "count"]
        assert [r[1] for r in rows[1:]] == ["0", "2", "2"]

    def test_target_required_to_exist(self, finished_runs):
        assert main(["score", *finished_runs, "--target", "nikuradse"]) == 1

    def test_logs_must_be_runs_on_the_target(self, finished_runs, workdir, capsys):
        out = workdir / "hubble.csv"
        assert main(["score", *finished_runs, "--target", "hubble", "--out", str(out)]) == 1
        assert "not on 'hubble'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_logs(self):
        assert main(["score", "--target", "langmuir"]) == 1

    @pytest.mark.parametrize("kind", ["missing", "header_only", "not_an_object"])
    def test_unreadable_log(self, kind, finished_runs, workdir, capsys):
        bad = unreadable_log(kind, workdir, finished_runs)
        argv = ["score", *finished_runs, bad, "--target", "langmuir", "--out", "score.csv"]
        assert_refused(argv, bad, workdir, capsys)


class TestPareto:
    def test_merged_front_is_union_front(self, finished_runs, workdir):
        code = main(["pareto", *finished_runs, "--out", "fronts"])
        assert code == 0
        per_run = sorted((workdir / "fronts").glob("pareto_run*.csv"))
        assert len(per_run) == len(finished_runs)

        union = CandidateStore()
        for log_path in finished_runs:
            data = load_runlog_data(log_path)
            for cand in data["summary"]["store"]:
                expr = parse(cand["equation"], Dialect.INFIX, ["x1"])
                mse = cand["mse"] if cand["mse"] is not None else math.inf
                union.insert(candidate(expr, mse, born=cand["iteration"], params=cand["params"]))
        expected = {(c.complexity, c.equation) for c in union.pareto_front()}

        with open(workdir / "fronts" / "pareto_total.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["complexity", "mse", "equation"]
        got = {(int(r[0]), r[2]) for r in rows[1:]}
        assert got == expected

    def test_single_run(self, finished_runs, workdir):
        assert main(["pareto", finished_runs[0], "--out", "one"]) == 0
        with open(workdir / "one" / "pareto_total.csv") as fh:
            total = list(csv.reader(fh))
        with open(workdir / "one" / "pareto_run01.csv") as fh:
            single = list(csv.reader(fh))
        assert total == single

    def test_empty_store_gives_header_only(self, workdir):
        path = workdir / "empty.txt"
        write_transcript(["no markers", "still none"], path)
        ini = scripted_ini(workdir, path, runs=1, iterations=1)
        assert main(["run", "--config", str(ini), "--out", "eout"]) == 0
        log = str(workdir / "eout" / "run01.jsonl")
        assert main(["pareto", log, "--out", "efronts"]) == 0
        with open(workdir / "efronts" / "pareto_total.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["complexity", "mse", "equation"]]

    def test_non_finite_literals_rejected(self, workdir):
        path = workdir / "huge.txt"
        write_transcript([reply("c1*x1**1e400", "1e999*x1", "c1*x1")], path)
        ini = scripted_ini(workdir, path, runs=1, iterations=1)
        assert main(["run", "--config", str(ini), "--out", "hout"]) == 0
        log = str(workdir / "hout" / "run01.jsonl")
        outcomes = load_runlog_data(log)["iterations"][0]["outcomes"]
        assert [o["status"] for o in outcomes] == ["syntax_error", "syntax_error", "fitted"]
        assert main(["pareto", log, "--out", "hfronts"]) == 0

    def test_logs_must_share_a_dataset(self, finished_runs, workdir, capsys):
        transcript = workdir / "hubble.txt"
        write_transcript([reply("c1*x1")], transcript)
        ini = scripted_ini(workdir, transcript, dataset="hubble", runs=1, iterations=1)
        assert main(["run", "--config", str(ini), "--out", "hubble"]) == 0
        logs = [*finished_runs, str(workdir / "hubble" / "run01.jsonl")]
        assert main(["pareto", *logs, "--out", "mixed"]) == 1
        assert "different datasets (hubble, langmuir)" in capsys.readouterr().err
        assert not (workdir / "mixed").exists()

    def test_no_logs(self):
        assert main(["pareto"]) == 1

    @pytest.mark.parametrize("kind", ["missing", "header_only", "not_an_object"])
    def test_unreadable_log(self, kind, finished_runs, workdir, capsys):
        bad = unreadable_log(kind, workdir, finished_runs)
        assert_refused(["pareto", *finished_runs, bad, "--out", "fronts"], bad, workdir, capsys)


@pytest.mark.parametrize("part,key", [("header", "dataset"), ("header", "config"),
                                      ("summary", "rediscovery_iteration"),
                                      ("summary", "store")])
def test_log_without_a_required_key(part, key, finished_runs, workdir, capsys):
    lines = Path(finished_runs[0]).read_text().splitlines()
    index = 0 if part == "header" else -1
    obj = json.loads(lines[index])
    del obj[key]
    lines[index] = json.dumps(obj)
    bad = workdir / "incomplete.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    argv = ["score", *finished_runs, str(bad), "--target", "langmuir", "--out", "score.csv"]
    assert_refused(argv, bad, workdir, capsys)
    assert_refused(["pareto", *finished_runs, str(bad), "--out", "fronts"], bad, workdir, capsys)
    assert main(["replay", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"{bad}: replay failed: {bad}: the {part} has no {key}"]


class TestDatasets:
    def test_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for dataset_id in ("langmuir", "kepler", "nikuradse"):
            assert dataset_id in out

    def test_reference_table_verbatim(self, capsys):
        assert main(["datasets", "--references"]) == 0
        out = capsys.readouterr().out
        for anchor in ("BMS", "0.00392", "37", "EFS", "0.00941",
                       "0.01086", "41", "0.00924", "27", "P1S1", "0.02270419", "13"):
            assert anchor in out

    def test_reference_table_matches_manifest(self):
        table = reference_table()
        info = dataset_info("nikuradse")
        assert info["rows"] == 360
        assert "0.00923655" in table
