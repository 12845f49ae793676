import csv
import math
from pathlib import Path

import pytest

from helpers import candidate, reply

from srloop.cli import main, reference_table
from srloop.data import dataset_info
from srloop.engine import load_runlog_data
from srloop.llm import write_transcript
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
def finished_runs(workdir):
    transcript = standard_transcript(workdir)
    ini = scripted_ini(workdir, transcript)
    assert main(["run", "--config", str(ini), "--out", "out"]) == 0
    return sorted(str(p) for p in (workdir / "out").glob("run*.jsonl"))


def unreadable_log(kind, workdir, finished_runs) -> str:
    """A run log that cannot be loaded: no file at all, or a header alone."""
    path = workdir / f"{kind}.jsonl"
    if kind == "header_only":
        path.write_text(Path(finished_runs[0]).read_text().splitlines()[0] + "\n")
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

    @pytest.mark.parametrize("kind", ["missing", "header_only"])
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

    @pytest.mark.parametrize("kind", ["missing", "header_only"])
    def test_unreadable_log(self, kind, finished_runs, workdir, capsys):
        bad = unreadable_log(kind, workdir, finished_runs)
        assert_refused(["pareto", *finished_runs, bad, "--out", "fronts"], bad, workdir, capsys)


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
