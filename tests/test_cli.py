import configparser
import csv
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from helpers import candidate, reply, write_transcript

from srloop import cli, engine
from srloop.cli import main, reference_table
from srloop.data import dataset_info
from srloop.engine import BackendConfig, RunConfig, load_runlog_data, save_runlog
from srloop.llm import TransportError
from srloop.optimize import FitConfig
from srloop.pareto import CandidateStore
from srloop.parsing import parse
from srloop.prompts import PromptConfig
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
        assert capsys.readouterr().err == "error: unknown dataset 'phlogiston'\n"
        assert not (workdir / "out").exists()

    def test_missing_transcript(self, workdir, capsys):
        code = main(["run", "--dataset", "langmuir", "--backend", "scripted",
                     "--transcript", "nope.txt", "--out", "out"])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"c1*x1\n\xff\n"),
    ], ids=["directory", "not_utf8"])
    def test_unreadable_transcript_is_config_error(self, make, workdir, capsys):
        make(workdir / "t.txt")
        code = main(["run", "--dataset", "hubble", "--backend", "scripted", "--transcript",
                     "t.txt", "--iterations", "1", "--runs", "1", "--out", "out"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot read transcript t.txt: ")
        assert not (workdir / "out").exists()

    def test_http_batch(self, workdir, capsys, monkeypatch):
        # every run builds its HttpBackend from the INI through engine.make_backend
        answer = reply("c1*x1", "c1*x1+c2")
        seen = []

        class Stub(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                seen.append((body["model"], self.headers.get("Authorization")))
                data = json.dumps({
                    "choices": [{"message": {"role": "assistant", "content": answer}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 7},
                }).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Stub)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        monkeypatch.setenv("TEST_HTTP_BATCH_KEY", "sk-batch")
        ini = workdir / "config.ini"
        ini.write_text(
            "[run]\ndataset = hubble\niterations = 2\nruns = 2\n\n[fit]\nhops = 1\n"
            "max_evals = 200\n\n[llm]\nkind = http\nmodel = stub-model\n"
            f"endpoint = http://127.0.0.1:{server.server_port}/v1/chat/completions\n"
            "key_env_var = TEST_HTTP_BATCH_KEY\n"
        )
        try:
            code = main(["run", "--config", str(ini), "--out", "out"])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        out = capsys.readouterr().out
        assert code == 0
        assert [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("run ")] == [
            "run 1", "run 2"]
        assert seen == [("stub-model", "Bearer sk-batch")] * 4
        for k in (1, 2):
            iterations = load_runlog_data(workdir / "out" / f"run0{k}.jsonl")["iterations"]
            assert [rec["responses"] for rec in iterations] == [[answer], [answer]]

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

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_subsample_below_one_is_config_error(self, value, workdir, capsys):
        transcript = standard_transcript(workdir)
        ini = scripted_ini(workdir, transcript, runs=1)
        code = main(["run", "--config", str(ini), "--subsample", value, "--out", "out"])
        assert code == 1
        assert capsys.readouterr().err == f"error: --subsample {value} is below 1\n"
        assert not (workdir / "out").exists()

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["run", "--bogus-flag"]) == 1

    def test_out_that_is_a_file_is_config_error(self, workdir, capsys):
        ini = scripted_ini(workdir, standard_transcript(workdir), runs=1)
        (workdir / "taken").write_text("keep\n")
        assert main(["run", "--config", str(ini), "--out", "taken"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot make output "
                                                             "directory taken: ")
        assert (workdir / "taken").read_text() == "keep\n"


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

    def test_run_that_cannot_be_written_keeps_runs_in_flight(self, workdir, monkeypatch,
                                                             capsys, batch_threads):
        # all three runs are in flight before run 1 finds it cannot write its log
        barrier = threading.Barrier(3, timeout=5)
        real = engine.make_backend

        def make_backend(bcfg):
            return StepBackend(real(bcfg), lambda n: n == 1 and barrier.wait())

        monkeypatch.setattr(engine, "make_backend", make_backend)
        ini = scripted_ini(workdir, standard_transcript(workdir), runs=3)
        (workdir / "out" / "run01.jsonl").mkdir(parents=True)
        assert main(["run", "--config", str(ini), "--out", "out"]) == 1
        out, err = capsys.readouterr()
        assert not batch_threads()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write run 1: ")
        for k in (2, 3):
            assert len(load_runlog_data(workdir / "out" / f"run0{k}.jsonl")["iterations"]) == 3
            assert (workdir / "out" / f"run0{k}.config.json").exists()
            assert (workdir / "out" / f"run0{k}.store.csv").exists()
        assert not (workdir / "out" / "run01.config.json").exists()

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


# a required key of another JSON type: where it sits, and the value it takes
WRONG_TYPES = {
    "equation_not_a_string": ("candidate", "equation", 3),
    "dataset_not_a_string": ("header", "dataset", ["hubble"]),
    "mse_not_a_number": ("candidate", "mse", [1]),
    "responses_not_a_list": ("iteration", "responses", 5),
    "found_not_a_boolean": ("iteration", "target_found", 1),
    "rediscovery_not_an_integer": ("legacy summary", "rediscovery_iteration", "2"),
    "config_not_an_object": ("header", "config", [1]),
    "outcome_without_status": ("iteration", "outcomes", [{"text": "c1*x1"}]),
}

GOLDEN = Path(__file__).parent / "golden"
# a langmuir log written before the lines held target_found
LEGACY_LOG = Path(__file__).parent / "legacy_logs" / "langmuir" / "run01.jsonl"


def unreadable_log(kind, workdir, finished_runs) -> str:
    """A run log that cannot be loaded: no file at all, a complete log with a
    line that is JSON but not an object, one nested too deeply to decode or an
    object without a type, or one whose dataset is not bundled, whose first
    logged candidate's equation does not parse or params are not numbers, or
    with a key of WRONG_TYPES (the summary's in a log of LEGACY_LOG's format)."""
    path = workdir / f"{kind}.jsonl"
    legacy = kind in WRONG_TYPES and WRONG_TYPES[kind][0] == "legacy summary"
    lines = Path(LEGACY_LOG if legacy else finished_runs[0]).read_text().splitlines()
    header, iteration, summary = (json.loads(lines[i]) for i in (0, 1, -1))
    if kind == "not_an_object":
        lines.append("[1, 2]")
    elif kind == "too_deep":
        lines.append("[" * 100_000 + "]" * 100_000)
    elif kind == "no_type":
        lines.append('{"index": 3}')
    elif kind == "unknown_dataset":
        header["dataset"] = "phlogiston"
    elif kind == "bad_equation":
        iteration["candidates"][0]["equation"] = "c1*/x1"
    elif kind == "bad_params":
        iteration["candidates"][0]["params"] = ["many"]
    elif kind in WRONG_TYPES:
        part, key, value = WRONG_TYPES[kind]
        obj = {"header": header, "legacy summary": summary, "iteration": iteration,
               "candidate": iteration["candidates"][0]}[part]
        obj[key] = value
    if kind in ("unknown_dataset", "bad_equation", "bad_params", *WRONG_TYPES):
        lines = [json.dumps(header), json.dumps(iteration), *lines[2:-1], json.dumps(summary)]
    if kind != "missing":
        path.write_text("\n".join(lines) + "\n")
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


@pytest.mark.parametrize("make,reason", [(None, "No such file or directory"),
                                         (Path.mkdir, "Is a directory")])
def test_an_unreadable_log_is_named_once(make, reason, workdir, capsys):
    if make is not None:
        make(workdir / "nothere.jsonl")
    for argv in (["score", "--target", "langmuir"], ["pareto"]):
        assert main([*argv, "nothere.jsonl"]) == 1
        assert capsys.readouterr().err == f"error: nothere.jsonl: cannot load run log: {reason}\n"
    assert main(["replay", "nothere.jsonl"]) == 2
    assert capsys.readouterr().err == f"nothere.jsonl: replay failed: {reason}\n"


# the operator set of the golden hubble log's header
OPERATORS = '"operators": {"binary": ["*", "+", "-", "/"], "unary": [], "name": "easy"}'


def edited_golden(workdir, old, new) -> Path:
    """A copy in ``workdir`` of the golden hubble log, its first ``old`` made ``new``."""
    golden = Path(__file__).parent / "golden" / "hubble" / "run01.jsonl"
    path = workdir / "run01.jsonl"
    path.write_text(golden.read_text().replace(old, new, 1))
    return path


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

    @pytest.mark.parametrize("turns,stored", [(2, 2), (0, 0)])
    def test_an_aborted_run_replays(self, turns, stored, workdir, capsys):
        # the transcript runs out after ``turns`` of 4 iterations; with 0 the first call fails
        write_transcript([reply("c1*x1"), reply("c1*x1*x1")][:turns], workdir / "t.txt")
        argv = ["run", "--dataset", "hubble", "--backend", "scripted", "--transcript", "t.txt",
                "--iterations", "4", "--runs", "1", "--out", "out"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: run 1 aborted: transcript scripted:t.txt "
                                           f"exhausted after {turns} turns (partial log kept)\n")
        path = workdir / "out" / "run01.jsonl"
        assert len(load_runlog_data(path)["iterations"]) == turns
        assert main(["replay", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: ok ({stored} candidates reproduced)\n"

    def test_a_run_aborted_in_its_reprompt_keeps_the_paid_response(self, workdir, capsys):
        # the one response has no marker block, and the transcript ends before the re-prompt
        write_transcript(["I cannot propose a model yet."], workdir / "t.txt")
        argv = ["run", "--dataset", "hubble", "--backend", "scripted", "--transcript", "t.txt",
                "--iterations", "2", "--runs", "1", "--out", "out"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: run 1 aborted: transcript scripted:t.txt "
                                           "exhausted after 1 turns (partial log kept)\n")
        path = workdir / "out" / "run01.jsonl"
        data = load_runlog_data(path)
        [rec] = data["iterations"]
        assert rec["responses"] == ["I cannot propose a model yet."]
        assert (rec["prompt_tokens"], rec["completion_tokens"]) == (305, 6)
        assert (rec["outcomes"], rec["candidates"], rec["target_on_front"]) == ([], [], False)
        assert data["summary"]["error"] == "transcript scripted:t.txt exhausted after 1 turns"
        assert main(["replay", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: ok (0 candidates reproduced)\n"
        assert main(["score", str(path), "--target", "hubble", "--out", "score.csv"]) == 0
        assert (workdir / "score.csv").read_text().splitlines() == ["iteration,count", "1,0"]
        assert main(["pareto", str(path), "--out", "fronts"]) == 0
        assert (workdir / "fronts" / "pareto_total.csv").read_text().splitlines() == [
            "complexity,mse,equation"]

    @pytest.mark.parametrize("flag", ["target_found", "target_on_front"])
    def test_a_flipped_flag_diverges(self, flag, workdir, capsys):
        lines = (GOLDEN / "hubble" / "run01.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        logged = rec[flag] = not rec[flag]
        path = workdir / "run01.jsonl"
        path.write_text("\n".join([*lines[:2], json.dumps(rec), *lines[3:]]) + "\n")
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: DIVERGED", f"  iteration 2: {flag} {logged} != {not logged}"]

    def test_a_small_relative_drift_diverges(self, workdir, capsys):
        # nikuradse's MSEs are about 1e-4, so 1e-6 relative is well below 1e-9 absolute
        golden = Path(__file__).parent / "golden" / "nikuradse_latex" / "run01.jsonl"
        lines = golden.read_text().splitlines()
        recs = [json.loads(line) for line in lines[1:-1]]
        entry = next(c for rec in recs for c in rec["candidates"] if c["equation"] == "c1*x1+c2*x2")
        mse, mae = entry["mse"], entry["mae"]
        entry["mse"], entry["mae"] = mse * (1 + 1e-6), mae * (1 + 1e-6)
        path = workdir / "run01.jsonl"
        path.write_text("\n".join([lines[0], *map(json.dumps, recs), lines[-1]]) + "\n")
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: DIVERGED",
            f"  c1*x1+c2*x2: mse diverged {entry['mse']} vs {mse}",
            f"  c1*x1+c2*x2: mae diverged {entry['mae']} vs {mae}"]

    def test_an_edited_outcome_or_birth_iteration_diverges(self, workdir, capsys):
        path = edited_golden(workdir, '"status": "syntax_error"', '"status": "too_complex"')
        lines = path.read_text().splitlines()
        recs = [json.loads(line) for line in lines[1:-1]]
        born_late = [c for rec in recs for c in rec["candidates"]][-1]
        born_late["iteration"] += 1
        path.write_text("\n".join([lines[0], *map(json.dumps, recs), lines[-1]]) + "\n")
        assert main(["replay", str(path)]) == 2
        outcomes = [("c1*x1+c2", "fitted"), ("c1*+/x1", "too_complex"), ("c1*x1**2", "fitted")]
        replayed = [outcomes[0], ("c1*+/x1", "syntax_error"), outcomes[2]]
        assert capsys.readouterr().out.splitlines() == [
            f"{path}: DIVERGED",
            f"  iteration 1: outcomes {outcomes} != {replayed}",
            f"  {born_late['equation']}: iteration diverged {born_late['iteration']} vs 3"]

    def test_unknown_config_key_fails_replay(self, finished_runs, capsys):
        path = Path(finished_runs[0])
        path.write_text(path.read_text().replace('"refits": 1', '"refits": 1, "no_such_key": 5', 1))
        assert main(["replay", str(path)]) == 2
        assert "replay failed" in capsys.readouterr().err

    def test_subsample_below_one_fails_replay(self, workdir, capsys):
        golden = Path(__file__).parent / "golden" / "hubble" / "run01.jsonl"
        path = workdir / "run01.jsonl"
        path.write_text(golden.read_text().replace('"subsample": null', '"subsample": -3', 1))
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == (f"{path}: replay failed: "
                                           f"--subsample -3 is below 1\n")

    @pytest.mark.parametrize("old,new,error", [
        ('"iterations": 3', '"iterations": 2.5', "RunConfig config: iterations cannot be 2.5"),
        ('"iterations": 3', '"iterations": true', "RunConfig config: iterations cannot be True"),
        ('"n_expressions": 3', '"n_expressions": 2.0',
         "PromptConfig config: n_expressions cannot be 2.0"),
        ('"max_tokens": null', '"max_tokens": 2.5', "BackendConfig config: max_tokens cannot be 2.5"),
        ('"use_scratchpad": true', '"use_scratchpad": 1',
         "PromptConfig config: use_scratchpad cannot be 1"),
        ('"score_mode": "cumulative"', '"score_mode": 5', "RunConfig config: score_mode cannot be 5"),
        ('"extra_instructions": []', '"extra_instructions": [1]',
         "PromptConfig config: extra_instructions cannot be [1]"),
        ('"extra_instructions": []', '"extra_instructions": "ab"',
         "PromptConfig config: extra_instructions cannot be 'ab'"),
        ('"unary": []', '"unary": [null]', "OperatorSet config: unary cannot be [None]"),
        (OPERATORS, '"operators": 5', "RunConfig config: operators cannot be 5"),
        ('"temperature": 0.7', '"temperature": "0.7"',
         "RunConfig config: temperature cannot be '0.7'"),
        # an enum field takes only its values, and says so like the others
        ('"dialect": "infix"', '"dialect": 5', "PromptConfig config: dialect cannot be 5"),
        ('"dialect": "infix"', '"dialect": "Infix"',
         "PromptConfig config: dialect cannot be 'Infix'"),
        ('"dialect": "infix"', '"dialect": ["infix"]',
         "PromptConfig config: dialect cannot be ['infix']"),
    ])
    def test_a_config_value_of_another_kind_fails_replay(self, old, new, error, workdir, capsys):
        path = edited_golden(workdir, old, new)
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == f"{path}: replay failed: bad {error}\n"

    @pytest.mark.parametrize("old,new", [('"temperature": 0.7', '"temperature": 1'),
                                         (OPERATORS, '"operators": "easy"'),
                                         ('"max_tokens": null', '"max_tokens": 9')])
    def test_a_config_value_of_its_kind_replays(self, old, new, workdir, capsys):
        # a float field takes an integer, and an optional one its type or null
        path = edited_golden(workdir, old, new)
        assert main(["replay", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"{path}: ok (")

    @pytest.mark.parametrize("value", ["Infinity", "1e10"])
    def test_oversized_timeout_fails_replay(self, value, workdir, capsys):
        golden = Path(__file__).parent / "golden" / "hubble" / "run01.jsonl"
        path = workdir / "run01.jsonl"
        path.write_text(golden.read_text().replace('"timeout": 120.0', f'"timeout": {value}', 1))
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == (f"{path}: replay failed: timeout must be at most "
                                           f"86400.0, not {float(value)}\n")

    @pytest.mark.parametrize("kind,error", [("too_deep", "a line is nested too deeply to decode"),
                                            ("no_type", "a line has no type")])
    def test_undecodable_line_fails_replay(self, kind, error, finished_runs, workdir, capsys):
        bad = unreadable_log(kind, workdir, finished_runs)
        assert main(["replay", bad]) == 2
        assert capsys.readouterr().err == f"{bad}: replay failed: {error}\n"


class TestScore:
    def test_score_csv(self, finished_runs, workdir, capsys):
        out = workdir / "score.csv"
        code = main(["score", *finished_runs, "--target", "langmuir", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "count"]
        assert [r[1] for r in rows[1:]] == ["0", "2", "2"]

    def test_reads_the_target_from_the_manifest(self, finished_runs, workdir, capsys,
                                                monkeypatch):
        # score loads no dataset, and prints each target as the loaded one renders
        datasets = [cli.data.load_builtin(name) for name in cli.data.builtin_ids()]
        targets = {d.id: str(d.target) for d in datasets if d.target is not None}
        lines = Path(finished_runs[0]).read_text().splitlines()
        header = json.loads(lines[0])

        def no_rows(name):
            raise AssertionError(f"score loaded {name}")

        monkeypatch.setattr(cli.data, "load_builtin", no_rows)
        for name, target in targets.items():
            header["dataset"] = name
            log = workdir / f"{name}.jsonl"
            log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
            assert main(["score", str(log), "--target", name, "--out", "s.csv"]) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"target: {target}"
        assert set(targets) == {"bode", "dual_site_langmuir", "hubble", "kepler", "langmuir"}

    def test_target_required_to_exist(self, finished_runs):
        assert main(["score", *finished_runs, "--target", "nikuradse"]) == 1

    def test_logs_must_be_runs_on_the_target(self, finished_runs, workdir, capsys):
        out = workdir / "hubble.csv"
        assert main(["score", *finished_runs, "--target", "hubble", "--out", str(out)]) == 1
        assert "not on 'hubble'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_logs(self):
        assert main(["score", "--target", "langmuir"]) == 1

    def test_out_in_a_missing_directory_is_config_error(self, finished_runs, workdir, capsys):
        out = workdir / "nonexistent" / "x.csv"
        capsys.readouterr()
        assert main(["score", *finished_runs, "--target", "langmuir", "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {out}: ")
        assert not (workdir / "nonexistent").exists()

    @pytest.mark.parametrize("kind", ["missing", "not_an_object", "too_deep", "no_type"])
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

    def test_out_that_is_a_file_is_config_error(self, finished_runs, workdir, capsys):
        (workdir / "taken").write_text("keep\n")
        capsys.readouterr()
        assert main(["pareto", *finished_runs, "--out", "taken"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot make output "
                                                             "directory taken: ")
        assert (workdir / "taken").read_text() == "keep\n"

    @pytest.mark.parametrize("kind", ["missing", "not_an_object", "too_deep", "no_type",
                                      "unknown_dataset", "bad_equation", "bad_params"])
    def test_unreadable_log(self, kind, finished_runs, workdir, capsys):
        bad = unreadable_log(kind, workdir, finished_runs)
        assert_refused(["pareto", *finished_runs, bad, "--out", "fronts"], bad, workdir, capsys)

    @pytest.mark.parametrize("name", ["pareto_run01.csv", "pareto_total.csv"])
    def test_front_that_cannot_be_written_is_config_error(self, name, finished_runs, workdir,
                                                          capsys):
        (workdir / "fr" / name).mkdir(parents=True)
        capsys.readouterr()
        assert main(["pareto", *finished_runs, "--out", "fr"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write "
                                                             f"{Path('fr', name)}: ")


def test_commands_in_one_process_are_independent(finished_runs, workdir, capsys):
    # main builds its parser once per process: no command's arguments or
    # defaults may reach the next one
    assert main(["score", *finished_runs, "--target", "langmuir", "--out", "first.csv"]) == 0
    assert main(["score", *finished_runs, "--target", "langmuir"]) == 0
    assert main(["pareto", *finished_runs, "--out", "fronts"]) == 0
    capsys.readouterr()
    assert main(["score", *finished_runs, "--target", "langmuir", "--frobnicate"]) == cli.EXIT_CONFIG
    assert "--frobnicate" in capsys.readouterr().err
    assert main(["pareto", *finished_runs]) == 0
    assert main(["score", *finished_runs, "--target", "langmuir", "--out", "last.csv"]) == 0
    first = (workdir / "first.csv").read_text()
    assert (workdir / "score.csv").read_text() == first == (workdir / "last.csv").read_text()
    for name in ("pareto_run01.csv", "pareto_total.csv"):
        assert (workdir / "pareto" / name).read_text() == (workdir / "fronts" / name).read_text()
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("part,key", [
    ("header", "dataset"), ("header", "config"),
    *(("candidate", key) for key in ("equation", "params", "mse", "mae", "complexity",
                                     "iteration")),
    *(("iteration", key) for key in ("responses", "outcomes", "candidates", "target_found",
                                     "target_on_front")),
])
def test_log_without_a_required_key(part, key, finished_runs, workdir, capsys):
    lines = Path(finished_runs[0]).read_text().splitlines()
    index = 0 if part == "header" else 1
    obj = json.loads(lines[index])
    del (obj["candidates"][0] if part == "candidate" else obj)[key]
    lines[index] = json.dumps(obj)
    bad = workdir / "incomplete.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    argv = ["score", *finished_runs, str(bad), "--target", "langmuir", "--out", "score.csv"]
    assert_refused(argv, bad, workdir, capsys)
    assert_refused(["pareto", *finished_runs, str(bad), "--out", "fronts"], bad, workdir, capsys)
    assert main(["replay", str(bad)]) == 2
    err = capsys.readouterr().err
    where = {"candidate": "a candidate", "iteration": "an iteration"}.get(part, f"the {part}")
    assert err.splitlines() == [f"{bad}: replay failed: {where} has no {key}"]


@pytest.mark.parametrize("kind", WRONG_TYPES)
def test_log_with_a_key_of_another_type(kind, finished_runs, workdir, capsys):
    bad = unreadable_log(kind, workdir, finished_runs)
    argv = ["score", *finished_runs, bad, "--target", "langmuir", "--out", "score.csv"]
    assert_refused(argv, bad, workdir, capsys)
    assert_refused(["pareto", *finished_runs, bad, "--out", "fronts"], bad, workdir, capsys)
    assert main(["replay", bad]) == 2
    part, key, _ = WRONG_TYPES[kind]
    where = {"header": "the header's", "legacy summary": "the summary's",
             "candidate": "a candidate's", "iteration": "an iteration's"}[part]
    assert capsys.readouterr().err.startswith(f"{bad}: replay failed: {where} {key} "
                                              f"is not ")


@pytest.mark.parametrize("first,second", [("langmuir/run01", "langmuir/run02"),
                                          ("hubble/run01", "langmuir/run01")])
def test_two_logs_in_one_file_are_refused(first, second, workdir, capsys):
    # read as one log, two runs' stores, maybe of two datasets, would merge
    bad = workdir / "two.jsonl"
    bad.write_text("".join((GOLDEN / f"{name}.jsonl").read_text() for name in (first, second)))
    argv = ["score", str(bad), "--target", "langmuir", "--out", "score.csv"]
    assert_refused(argv, bad, workdir, capsys)
    assert_refused(["pareto", str(bad), "--out", "fronts"], bad, workdir, capsys)
    assert main(["replay", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}: replay failed: a line follows the summary\n"


@pytest.mark.parametrize("order,error", [
    ("H1H2", "a second header"),
    ("H1SS", "a line follows the summary"),
    ("H1S2", "a line follows the summary"),
    ("SH1", "a line follows the summary"),
    ("1H2", "an iteration line comes before the header"),
    ("S", "the log has no header"),
])
def test_a_line_out_of_place_is_refused(order, error, workdir, capsys):
    # H the header, 1 and 2 the first two iteration lines, S the summary of golden hubble
    lines = (GOLDEN / "hubble" / "run01.jsonl").read_text().splitlines()
    line = {"H": lines[0], "1": lines[1], "2": lines[2], "S": lines[-1]}
    bad = workdir / "bad.jsonl"
    bad.write_text("".join(line[c] + "\n" for c in order))
    assert main(["replay", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}: replay failed: {error}\n"
    assert_refused(["pareto", str(bad), "--out", "fronts"], bad, workdir, capsys)


def test_the_summary_store_repeats_the_lines(finished_runs):
    # srloop reads the store from the lines, the benchmark's checks from the summary
    for path in finished_runs:
        lines = [json.loads(line) for line in Path(path).read_text().splitlines()]
        assert lines[-1]["store"] == [c for rec in lines[1:-1] for c in rec["candidates"]]
        assert lines[-1]["store"]


# ---------------------------------------------------------------------------
# What an INI key means: every key of the README block with a non-default
# value, and each flag's precedence over the file. The literals were produced
# by the per-section INI reader that build_run_config replaced, so they pin
# that the reader kept the meaning of every key and flag; [fit] solve_linear,
# patience and accept_idle, added after that reader, were written into them
# by hand.

FULL_INI = """[run]
dataset = kepler
operators = hard
iterations = 7
runs = 2
temperature = 0.3
seed = 4
policy = top5
subsample = 4
score_mode = front

[prompt]
n_expressions = 5
use_scratchpad = false
use_context = no
include_data = 0
rounding_decimals = 2
dialect = latex
extra = long_b, mae_challenge
mae_target = 0.00392
mae_complexity = 37

[fit]
hops = 3
step_scale = 0.5
reflection = 1.5
expansion = 2.5
contraction = 0.25
shrink = 0.75
max_evals = 500
tol = 1e-06
seed = 11
refits = 2
solve_linear = false
patience = 3
accept_idle = true

[llm]
kind = http
endpoint = http://localhost:9/v1/chat/completions
model = test-model
key_env_var = TEST_KEY
timeout = 30
max_retries = 1
max_tokens = 256
transcript = t.txt

[prices]
test-model = 1e-6, 2e-6
"""

SWITCHES_ON_INI = """[run]
dataset = hubble
seed = 4

[prompt]
use_scratchpad = true
use_context = yes
include_data = on

[llm]
transcript = t.txt
"""

INI_CASES = [
    ("full", FULL_INI, []),
    # --iterations 0 and --runs 0 keep the file's values
    ("full_zero_counts", FULL_INI, ["--iterations", "0", "--runs", "0"]),
    # every flag overrides the file, except that [fit] seed stays
    ("full_every_flag", FULL_INI, [
        "--dataset", "hubble", "--operators", "easy", "--iterations", "2", "--runs", "3",
        "--temperature", "0.9", "--policy", "standard", "--no-context", "--no-data",
        "--no-scratchpad", "--backend", "scripted", "--transcript", "other.txt",
        "--seed", "5", "--subsample", "3"]),
    ("on", SWITCHES_ON_INI, []),
    ("on_off_flags", SWITCHES_ON_INI, ["--no-context", "--no-data", "--no-scratchpad"]),
    # without [fit] seed the fit seed is --seed (or 0), not [run] seed
    ("on_seed", SWITCHES_ON_INI, ["--seed", "9"]),
    ("on_seed_zero", SWITCHES_ON_INI, ["--seed", "0", "--temperature", "0", "--subsample", "1"]),
    ("dataset_flag_only", None, ["--dataset", "langmuir", "--backend", "http"]),
]

INI_MEANING = {  # json.dumps(to_json(cfg)) of each case, read by the old reader
    "full": (
        '{"dataset": "kepler", "operators": "hard", "prompt": {"use_scratchpad": false, '
        '"use_context": false, "include_data": false, "n_expressions": 5, '
        '"operator_note": "", '
        '"extra_instructions": ["Do not limit yourself to short forms: nested and multi-term '
        'expressions are encouraged whenever they reduce the error.", '
        '"A model from the literature reaches a mean absolute error of 0.00392 at complexity '
        '37 on this dataset. Try to match or beat that error."], "rounding_decimals": 2, '
        '"dialect": "latex"}, "policy": {"kind": "top_k", "min_count": 6, "k": 5, '
        '"include_params": true}, "fit": {"hops": 3, "step_scale": 0.5, "reflection": 1.5, '
        '"expansion": 2.5, "contraction": 0.25, "shrink": 0.75, "max_evals": 500, '
        '"tol": 1e-06, "seed": 11, "refits": 2, '
        '"solve_linear": false, "patience": 3, "accept_idle": true}, "iterations": 7, "runs": 2, '
        '"backend": {"kind": "http", "endpoint": "http://localhost:9/v1/chat/completions", '
        '"model": "test-model", "key_env_var": "TEST_KEY", "timeout": 30.0, '
        '"max_retries": 1, "max_tokens": 256, "transcript": "t.txt"}, "temperature": 0.3, '
        '"seed": 4, "subsample": 4, "score_mode": "front"}'
    ),
    "full_zero_counts": (
        '{"dataset": "kepler", "operators": "hard", "prompt": {"use_scratchpad": false, '
        '"use_context": false, "include_data": false, "n_expressions": 5, '
        '"operator_note": "", '
        '"extra_instructions": ["Do not limit yourself to short forms: nested and multi-term '
        'expressions are encouraged whenever they reduce the error.", '
        '"A model from the literature reaches a mean absolute error of 0.00392 at complexity '
        '37 on this dataset. Try to match or beat that error."], "rounding_decimals": 2, '
        '"dialect": "latex"}, "policy": {"kind": "top_k", "min_count": 6, "k": 5, '
        '"include_params": true}, "fit": {"hops": 3, "step_scale": 0.5, "reflection": 1.5, '
        '"expansion": 2.5, "contraction": 0.25, "shrink": 0.75, "max_evals": 500, '
        '"tol": 1e-06, "seed": 11, "refits": 2, '
        '"solve_linear": false, "patience": 3, "accept_idle": true}, "iterations": 7, "runs": 2, '
        '"backend": {"kind": "http", "endpoint": "http://localhost:9/v1/chat/completions", '
        '"model": "test-model", "key_env_var": "TEST_KEY", "timeout": 30.0, '
        '"max_retries": 1, "max_tokens": 256, "transcript": "t.txt"}, "temperature": 0.3, '
        '"seed": 4, "subsample": 4, "score_mode": "front"}'
    ),
    "full_every_flag": (
        '{"dataset": "hubble", "operators": "easy", "prompt": {"use_scratchpad": false, '
        '"use_context": false, "include_data": false, "n_expressions": 5, '
        '"operator_note": "", '
        '"extra_instructions": ["Do not limit yourself to short forms: nested and multi-term '
        'expressions are encouraged whenever they reduce the error.", '
        '"A model from the literature reaches a mean absolute error of 0.00392 at complexity '
        '37 on this dataset. Try to match or beat that error."], "rounding_decimals": 2, '
        '"dialect": "latex"}, "policy": {"kind": "standard", "min_count": 6, "k": 5, '
        '"include_params": false}, "fit": {"hops": 3, "step_scale": 0.5, "reflection": 1.5, '
        '"expansion": 2.5, "contraction": 0.25, "shrink": 0.75, "max_evals": 500, '
        '"tol": 1e-06, "seed": 11, "refits": 2, '
        '"solve_linear": false, "patience": 3, "accept_idle": true}, "iterations": 2, "runs": 3, '
        '"backend": {"kind": "scripted", '
        '"endpoint": "http://localhost:9/v1/chat/completions", "model": "test-model", '
        '"key_env_var": "TEST_KEY", "timeout": 30.0, "max_retries": 1, "max_tokens": 256, '
        '"transcript": "other.txt"}, "temperature": 0.9, "seed": 5, "subsample": 3, '
        '"score_mode": "front"}'
    ),
    "on": (
        '{"dataset": "hubble", "operators": "easy", "prompt": {"use_scratchpad": true, '
        '"use_context": true, "include_data": true, "n_expressions": 3, "operator_note": "", '
        '"extra_instructions": [], "rounding_decimals": null, "dialect": "infix"}, '
        '"policy": {"kind": "standard", "min_count": 6, "k": 5, "include_params": false}, '
        '"fit": {"hops": 25, "step_scale": 1.0, "reflection": 1.0, "expansion": 2.0, '
        '"contraction": 0.5, "shrink": 0.5, "max_evals": 10000, "tol": 1e-08, "seed": 0, '
        '"refits": 1, '
        '"solve_linear": true, "patience": 10, "accept_idle": false}, "iterations": 15, "runs": 5, "backend": {"kind": "scripted", '
        '"endpoint": "https://api.openai.com/v1/chat/completions", "model": "gpt-4o", '
        '"key_env_var": "OPENAI_API_KEY", "timeout": 120.0, "max_retries": 3, '
        '"max_tokens": null, "transcript": "t.txt"}, "temperature": 0.7, "seed": 4, '
        '"subsample": null, "score_mode": "cumulative"}'
    ),
    "on_off_flags": (
        '{"dataset": "hubble", "operators": "easy", "prompt": {"use_scratchpad": false, '
        '"use_context": false, "include_data": false, "n_expressions": 3, '
        '"operator_note": "", "extra_instructions": [], "rounding_decimals": null, '
        '"dialect": "infix"}, "policy": {"kind": "standard", "min_count": 6, "k": 5, '
        '"include_params": false}, "fit": {"hops": 25, "step_scale": 1.0, "reflection": 1.0, '
        '"expansion": 2.0, "contraction": 0.5, "shrink": 0.5, "max_evals": 10000, '
        '"tol": 1e-08, "seed": 0, "refits": 1, '
        '"solve_linear": true, "patience": 10, "accept_idle": false}, "iterations": 15, "runs": 5, '
        '"backend": {"kind": "scripted", '
        '"endpoint": "https://api.openai.com/v1/chat/completions", "model": "gpt-4o", '
        '"key_env_var": "OPENAI_API_KEY", "timeout": 120.0, "max_retries": 3, '
        '"max_tokens": null, "transcript": "t.txt"}, "temperature": 0.7, "seed": 4, '
        '"subsample": null, "score_mode": "cumulative"}'
    ),
    "on_seed": (
        '{"dataset": "hubble", "operators": "easy", "prompt": {"use_scratchpad": true, '
        '"use_context": true, "include_data": true, "n_expressions": 3, "operator_note": "", '
        '"extra_instructions": [], "rounding_decimals": null, "dialect": "infix"}, '
        '"policy": {"kind": "standard", "min_count": 6, "k": 5, "include_params": false}, '
        '"fit": {"hops": 25, "step_scale": 1.0, "reflection": 1.0, "expansion": 2.0, '
        '"contraction": 0.5, "shrink": 0.5, "max_evals": 10000, "tol": 1e-08, "seed": 9, '
        '"refits": 1, '
        '"solve_linear": true, "patience": 10, "accept_idle": false}, "iterations": 15, "runs": 5, "backend": {"kind": "scripted", '
        '"endpoint": "https://api.openai.com/v1/chat/completions", "model": "gpt-4o", '
        '"key_env_var": "OPENAI_API_KEY", "timeout": 120.0, "max_retries": 3, '
        '"max_tokens": null, "transcript": "t.txt"}, "temperature": 0.7, "seed": 9, '
        '"subsample": null, "score_mode": "cumulative"}'
    ),
    "on_seed_zero": (
        '{"dataset": "hubble", "operators": "easy", "prompt": {"use_scratchpad": true, '
        '"use_context": true, "include_data": true, "n_expressions": 3, "operator_note": "", '
        '"extra_instructions": [], "rounding_decimals": null, "dialect": "infix"}, '
        '"policy": {"kind": "standard", "min_count": 6, "k": 5, "include_params": false}, '
        '"fit": {"hops": 25, "step_scale": 1.0, "reflection": 1.0, "expansion": 2.0, '
        '"contraction": 0.5, "shrink": 0.5, "max_evals": 10000, "tol": 1e-08, "seed": 0, '
        '"refits": 1, '
        '"solve_linear": true, "patience": 10, "accept_idle": false}, "iterations": 15, "runs": 5, "backend": {"kind": "scripted", '
        '"endpoint": "https://api.openai.com/v1/chat/completions", "model": "gpt-4o", '
        '"key_env_var": "OPENAI_API_KEY", "timeout": 120.0, "max_retries": 3, '
        '"max_tokens": null, "transcript": "t.txt"}, "temperature": 0.0, "seed": 0, '
        '"subsample": 1, "score_mode": "cumulative"}'
    ),
    "dataset_flag_only": (
        '{"dataset": "langmuir", "operators": "easy", "prompt": {"use_scratchpad": true, '
        '"use_context": true, "include_data": true, "n_expressions": 3, "operator_note": "", '
        '"extra_instructions": [], "rounding_decimals": null, "dialect": "infix"}, '
        '"policy": {"kind": "standard", "min_count": 6, "k": 5, "include_params": false}, '
        '"fit": {"hops": 25, "step_scale": 1.0, "reflection": 1.0, "expansion": 2.0, '
        '"contraction": 0.5, "shrink": 0.5, "max_evals": 10000, "tol": 1e-08, "seed": 0, '
        '"refits": 1, '
        '"solve_linear": true, "patience": 10, "accept_idle": false}, "iterations": 15, "runs": 5, "backend": {"kind": "http", '
        '"endpoint": "https://api.openai.com/v1/chat/completions", "model": "gpt-4o", '
        '"key_env_var": "OPENAI_API_KEY", "timeout": 120.0, "max_retries": 3, '
        '"max_tokens": null, "transcript": null}, "temperature": 0.7, "seed": 0, '
        '"subsample": null, "score_mode": "cumulative"}'
    ),
}


@pytest.mark.parametrize("name,text,flags", INI_CASES, ids=[case[0] for case in INI_CASES])
def test_ini_meaning(name, text, flags, tmp_path):
    argv = ["run", *flags]
    if text is not None:
        (tmp_path / "config.ini").write_text(text)
        argv += ["--config", str(tmp_path / "config.ini")]
    args = cli._parser().parse_args(argv)
    cfg = cli.build_run_config(args, cli._load_ini(args.config))
    assert json.dumps(engine.to_json(cfg)) == INI_MEANING[name]


# ---------------------------------------------------------------------------
# The README's configuration block runs as written, and names every key


def readme_ini() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("```ini\n", readme.index("## Configuration file")) + len("```ini\n")
    return readme[start:readme.index("```", start)]


def test_readme_example_runs_as_written(workdir, capsys):
    (workdir / "config.ini").write_text(readme_ini())
    write_transcript([reply("c1*x1/(c2+x1)")], workdir / "transcript.txt")
    argv = ["run", "--config", "config.ini", "--iterations", "1", "--runs", "1", "--out", "out"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "run 1: 1 candidates, rediscovery at iteration 1" in out
    assert json.loads((workdir / "out" / "run01.config.json").read_text())["prompt"][
        "rounding_decimals"] == 3


def test_readme_names_every_key_the_reader_accepts():
    ini = configparser.ConfigParser(inline_comment_prefixes=(";",))
    ini.read_string(readme_ini())
    names = {section: {f.name for f in fields(cls)}
             for section, cls in (("run", RunConfig), ("prompt", PromptConfig),
                                  ("fit", FitConfig), ("llm", BackendConfig))}
    accepted = {
        "run": names["run"] - {"prompt", "fit", "backend"},
        "prompt": names["prompt"] - {"operator_note", "extra_instructions"}
        | {"extra", "mae_target", "mae_complexity"},
        "fit": names["fit"],
        "llm": names["llm"],
    }
    documented = {section: set(ini[section]) for section in ini.sections()}
    assert documented.pop("prices") == {"gpt-4o"}
    assert documented == accepted


def write_config(workdir, section, line) -> None:
    """A hubble config with a scripted transcript and ``line`` added to
    ``section``; a ``section`` of None puts it before the first header."""
    sections = {"run": ["dataset = hubble"], "llm": ["transcript = t.txt"]}
    sections.setdefault(section, []).append(line)
    head = "".join(f"{text}\n" for text in sections.pop(None, []))
    (workdir / "config.ini").write_text(head + "".join(
        f"[{name}]\n" + "".join(f"{text}\n" for text in lines) + "\n"
        for name, lines in sections.items()))
    write_transcript([reply("c1*x1")], workdir / "t.txt")


def assert_config_refused(error, workdir, capsys, flags=()):
    """srloop run, given ``flags``, prints one line ``error: <error>...``, writes
    nothing and exits 1."""
    assert main(["run", "--config", "config.ini", *flags, "--out", "out"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("section,line,error", [
    ("fit", "max_eval = 5", "unknown FitConfig config key(s): max_eval"),
    ("run", "iteration = 2", "unknown RunConfig config key(s): iteration"),
    ("llm", "time_out = 5", "unknown BackendConfig config key(s): time_out"),
    ("prompt", "operator_note = x", "[prompt] operator_note: filled in by srloop"),
    ("prompt", "extra_instructions = x", "[prompt] extra_instructions: filled in by srloop"),
    ("prompt", "extra = long_a, long_c", "unknown [prompt] extra long_c"),
    ("run", "iterations = many", "[run] iterations: invalid literal"),
    ("run", "fit = 3", "bad FitConfig config: '3' is not a mapping"),
    ("run", "temperature = 5", "temperature must be in [0, 2]"),
    ("fitt", "hops = 3", "unknown config section(s): [fitt]"),
    ("run", "operators = medium", "unknown operator set 'medium'"),
    ("run", "seed = -1", "seed must be >= 0, not -1"),
    ("fit", "seed = -1", "fit seed must be >= 0, not -1"),
    ("llm", "kind = htp", "unknown backend kind 'htp'"),
    ("llm", "timeout = 0", "timeout must be above 0, not 0.0"),
    ("llm", "timeout = nan", "timeout must be above 0, not nan"),
    ("llm", "timeout = inf", "timeout must be at most 86400.0, not inf"),
    ("llm", "timeout = 1e10", "timeout must be at most 86400.0, not 10000000000.0"),
    ("llm", "timeout = 86401", "timeout must be at most 86400.0, not 86401.0"),
    ("llm", "max_retries = -1", "max_retries must be >= 0, not -1"),
    ("llm", "max_tokens = 0", "max_tokens must be >= 1, not 0"),
    ("llm", "max_tokens = -5", "max_tokens must be >= 1, not -5"),
    ("fit", "tol = inf", "tol must be positive and finite, not inf"),
    ("fit", "tol = nan", "tol must be positive and finite, not nan"),
    ("fit", "tol = 0", "tol must be positive and finite, not 0.0"),
    ("fit", "step_scale = inf", "step_scale must be positive and finite, not inf"),
    ("fit", "step_scale = nan", "step_scale must be positive and finite, not nan"),
    ("fit", "reflection = nan", "reflection coefficient must be > 0 and finite, not nan"),
    ("fit", "reflection = inf", "reflection coefficient must be > 0 and finite, not inf"),
    ("fit", "expansion = nan", "expansion coefficient must be > 1 and finite, not nan"),
    ("fit", "expansion = inf", "expansion coefficient must be > 1 and finite, not inf"),
    ("prompt", "rounding_decimals = 2147483648",
     "rounding_decimals must be in [0, 17], not 2147483648"),
    ("prompt", "rounding_decimals = 18", "rounding_decimals must be in [0, 17], not 18"),
    ("prompt", "rounding_decimals = -1", "rounding_decimals must be in [0, 17], not -1"),
    (None, "iterations = 1", "cannot read config file config.ini: File contains no section "
                             "headers. file: 'config.ini', line: 1 'iterations = 1\\n'"),
    ("run", "[run]", "cannot read config file config.ini: While reading from 'config.ini' "
                     "[line  3]: section 'run' already exists"),
    ("run", "dataset = kepler", "cannot read config file config.ini: While reading from "
                                "'config.ini' [line  3]: option 'dataset' in section 'run' "
                                "already exists"),
])
def test_a_key_the_reader_cannot_take_is_refused(section, line, error, workdir, capsys):
    write_config(workdir, section, line)
    assert_config_refused(error, workdir, capsys)


def test_a_config_that_is_not_a_file_is_refused(workdir, capsys):
    (workdir / "config.ini").mkdir()
    assert_config_refused("cannot read config file config.ini", workdir, capsys)


def test_a_percent_sign_is_read_as_written(workdir, capsys):
    write_config(workdir, "llm", "endpoint = http://x/%7e")
    argv = ["run", "--config", "config.ini", "--iterations", "1", "--runs", "1", "--out", "out"]
    assert main(argv) == 0
    config = json.loads((workdir / "out" / "run01.config.json").read_text())
    assert config["backend"]["endpoint"] == "http://x/%7e"


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", "-1", "--subsample", "2"]])
def test_a_negative_seed_flag_is_refused(flags, workdir, capsys):
    write_config(workdir, "run", "iterations = 1")
    assert_config_refused("fit seed must be >= 0, not -1", workdir, capsys, flags)


@pytest.mark.parametrize("value", ["2.5e-6", "2.5e-6, 1e-5, 1e-5", "cheap, 1e-5", "",
                                   "nan, -1", "2.5e-6, -1e-5", "inf, 1e-5", "2.5e-6, nan"])
def test_a_price_is_two_numbers(value, workdir, capsys):
    write_config(workdir, "prices", f"gpt-4o = {value}")
    assert_config_refused(f"[prices] gpt-4o must be two finite numbers of at least 0, the "
                          f"prompt and the completion price per token, not {value!r}",
                          workdir, capsys)

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


def test_import_leaves_requests_out():
    # only an http backend needs requests, the slowest import of the package:
    # score, pareto, replay, datasets and scripted runs do not pay for it
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, srloop.cli; print(sorted(m for m in sys.modules if 'requests' in m))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
