"""The golden replay corpus: scripted runs whose logs are committed in
``tests/golden/`` and must replay exactly, and which ``srloop run`` on each
case's INI file must write again byte for byte. ``tools/make_golden.py``
regenerates a log; only a change that alters results on purpose may."""

import json
from pathlib import Path

import pytest

from srloop.cli import main
from srloop.engine import load_runlog_data, replay, save_runlog

GOLDEN = Path(__file__).parent / "golden"
LOGS = sorted(GOLDEN.glob("*/run*.jsonl"))
CASES = sorted(path.parent.name for path in GOLDEN.glob("*/config.ini"))


def log_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize("log", LOGS, ids=log_id)
def test_replays_ok(log, capsys):
    assert main(["replay", str(log)]) == 0
    out = capsys.readouterr().out
    assert "DIVERGED" not in out
    assert out.startswith(f"{log}: ok (")


@pytest.mark.parametrize("log", LOGS, ids=log_id)
def test_replay_rewrites_the_same_bytes(log, tmp_path):
    # stricter than `srloop replay`: every outcome, candidate and token count
    fresh = replay(load_runlog_data(log))
    save_runlog(fresh, tmp_path / "replayed.jsonl")
    assert (tmp_path / "replayed.jsonl").read_text() == log.read_text()


@pytest.mark.parametrize("case", CASES)
def test_run_writes_the_same_logs(case, tmp_path, monkeypatch):
    # what tools/make_golden.py does: the INI paths are relative to tests/golden/
    monkeypatch.chdir(GOLDEN)
    assert main(["run", "--config", f"{case}/config.ini", "--out", str(tmp_path)]) == 0
    fresh = sorted(tmp_path.glob("run*.jsonl"))
    committed = sorted((GOLDEN / case).glob("run*.jsonl"))
    assert [p.name for p in fresh] == [p.name for p in committed]
    for new, old in zip(fresh, committed):
        assert new.read_bytes() == old.read_bytes(), new.name


def test_corpus_coverage():
    datasets, dialects, policies, statuses = set(), set(), set(), set()
    for log in LOGS:
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        config = lines[0]["config"]
        datasets.add(config["dataset"])
        dialects.add(config["prompt"]["dialect"])
        policies.add(config["policy"]["kind"])
        for rec in lines[1:-1]:
            statuses.update(o["status"] for o in rec["outcomes"])
    assert datasets == {"bode", "dual_site_langmuir", "hubble", "kepler", "langmuir",
                        "nikuradse"}
    assert dialects == {"infix", "latex"}
    assert policies == {"standard", "top_k"}
    assert {"fitted", "duplicate", "syntax_error", "too_complex", "unfittable",
            "too_many_constants", "operator_rejected", "missing_variables"} <= statuses
