"""The golden replay corpus: scripted runs whose logs are committed in
``tests/golden/`` and must replay exactly, and which ``srloop run`` on each
case's INI file must write again byte for byte. ``tools/make_golden.py``
regenerates a log; only a change that alters results on purpose, or a
declared log-format change, may. ``tests/legacy_logs/`` keeps logs written
before fits had their least-squares path (no ``solve_linear`` in their
configuration), stopped basin hopping after idle hops (no ``patience``:
``kepler_default_fit``, one kepler proposal fitted at the default settings)
or skipped idle hops that were lower (no ``accept_idle``: ``kepler_idle_hop``,
the same proposal at the default settings of that time), or logged facts
twice (``hubble_extracted``, the golden hubble log of that time: each
iteration line repeats its outcomes' texts as ``extracted``, and the summary
sums the lines' tokens), which must still replay ``ok``. Every legacy log
also stands for the format whose lines have no ``target_found``, which each
line takes from the summary's ``rediscovery_iteration``; a log of the
current format is read from its header and lines alone, so it reads cut
after any line."""

import json
from pathlib import Path

import pytest

from srloop.cli import main
from srloop.data import dataset_info
from srloop.engine import load_runlog_data, replay, save_runlog

GOLDEN = Path(__file__).parent / "golden"
LOGS = sorted(GOLDEN.glob("*/run*.jsonl"))
LEGACY = Path(__file__).parent / "legacy_logs"
LEGACY_LOGS = sorted(LEGACY.glob("*/run*.jsonl"))
CASES = sorted(path.parent.name for path in GOLDEN.glob("*/config.ini"))


def log_id(path: Path) -> str:
    return f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize("log", LOGS, ids=log_id)
def test_replays_ok(log, capsys):
    assert main(["replay", str(log)]) == 0
    out = capsys.readouterr().out
    assert "DIVERGED" not in out
    assert out.startswith(f"{log}: ok (")


@pytest.mark.parametrize("log", LEGACY_LOGS, ids=log_id)
def test_legacy_log_replays_ok(log, capsys):
    assert main(["replay", str(log)]) == 0
    assert capsys.readouterr().out.startswith(f"{log}: ok (")


def test_legacy_log_needs_the_simplex(tmp_path, capsys):
    # the legacy rule matters: with solve_linear on, bode's quadratic is
    # fitted by least squares and its MAE moves by about 6e-9 relative
    lines = (LEGACY / "bode" / "run01.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert "solve_linear" not in header["config"]["fit"]
    header["config"]["fit"]["solve_linear"] = True
    log = tmp_path / "run01.jsonl"
    log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert main(["replay", str(log)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{log}: DIVERGED" and len(out) == 2
    assert out[1].startswith("  c1+c2*x1+c3*x1**2: mae diverged 2.775299680165561 vs 2.77529966")


def test_legacy_log_needs_every_hop(tmp_path, capsys):
    # the legacy rule matters: with patience on, kepler's c1*x1**c2 stops
    # after 10 of its 25 hops and its MAE moves by about 4.5e-8 relative
    lines = (LEGACY / "kepler_default_fit" / "run01.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert "patience" not in header["config"]["fit"]
    header["config"]["fit"]["patience"] = 10
    log = tmp_path / "run01.jsonl"
    log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert main(["replay", str(log)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{log}: DIVERGED",
        "  c1*x1**c2: mae diverged 2.0909971495264705 vs 2.0909970562731153"]


def test_legacy_log_needs_the_idle_hops(tmp_path, capsys):
    # the legacy rule matters: without accept_idle, kepler's c1*x1**c2 keeps
    # the incumbent where a later hop gained only rounding, and its MAE moves
    # by about 7.6e-8 relative
    lines = (LEGACY / "kepler_idle_hop" / "run01.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert "accept_idle" not in header["config"]["fit"]
    assert header["config"]["fit"]["patience"] == 10
    header["config"]["fit"]["accept_idle"] = False
    log = tmp_path / "run01.jsonl"
    log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert main(["replay", str(log)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"{log}: DIVERGED",
        "  c1*x1**c2: mae diverged 2.0909970562731153 vs 2.090997215760242"]


def test_legacy_log_with_extracted_scores_as_today(tmp_path, capsys):
    # score and pareto read the extracted lists and summary token counts of
    # hubble_extracted as if they were not there
    old, new = LEGACY / "hubble_extracted" / "run01.jsonl", GOLDEN / "hubble" / "run01.jsonl"
    assert '"extracted"' in old.read_text() and '"extracted"' not in new.read_text()
    for name, log in (("old", old), ("new", new)):
        assert main(["score", str(log), "--target", "hubble",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert main(["pareto", str(log), "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert (tmp_path / "old.csv").read_text() == (tmp_path / "new.csv").read_text()
    for front in ("pareto_run01.csv", "pareto_total.csv"):
        assert (tmp_path / "old" / front).read_text() == (tmp_path / "new" / front).read_text()


@pytest.mark.parametrize("log", LOGS, ids=log_id)
def test_a_log_cut_after_any_line_reads(log, tmp_path, capsys):
    # the header and the first k iteration lines, without the summary, as a crash leaves them
    lines = log.read_text().splitlines()
    dataset = json.loads(lines[0])["dataset"]
    scored = dataset_info(dataset)["target"] is not None  # nikuradse has no target to score
    if scored:
        assert main(["score", str(log), "--target", dataset, "--out", str(tmp_path / "a.csv")]) == 0
        rows = (tmp_path / "a.csv").read_text().splitlines()
    for k in range(len(lines) - 1):
        cut = tmp_path / f"cut{k}.jsonl"
        cut.write_text("".join(line + "\n" for line in lines[:k + 1]))
        capsys.readouterr()
        assert main(["replay", str(cut)]) == 0
        assert capsys.readouterr().out.startswith(f"{cut}: ok (")
        if scored:
            out = tmp_path / f"cut{k}.csv"
            assert main(["score", str(cut), "--target", dataset, "--out", str(out)]) == 0
            assert out.read_text().splitlines() == rows[:k + 1]
        assert main(["pareto", str(cut), "--out", str(tmp_path / f"fronts{k}")]) == 0


@pytest.mark.parametrize("log", LOGS, ids=log_id)
def test_a_log_without_its_summary_reads_as_the_whole_log(log, tmp_path):
    dataset = json.loads(log.read_text().splitlines()[0])["dataset"]
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(line + "\n" for line in log.read_text().splitlines()[:-1]))
    for name, path in (("whole", log), ("cut", cut)):
        assert main(["pareto", str(path), "--out", str(tmp_path / name)]) == 0
        if dataset_info(dataset)["target"] is not None:  # nikuradse has no target to score
            out = tmp_path / name / "score.csv"
            assert main(["score", str(path), "--target", dataset, "--out", str(out)]) == 0
    for name in ("score.csv", "pareto_run01.csv", "pareto_total.csv"):
        whole = tmp_path / "whole" / name
        assert whole.exists() == (tmp_path / "cut" / name).exists()
        if whole.exists():
            assert whole.read_bytes() == (tmp_path / "cut" / name).read_bytes()


@pytest.mark.parametrize("log", LOGS + LEGACY_LOGS,
                         ids=lambda path: f"{path.parent.parent.name}/{log_id(path)}")
def test_the_summary_store_repeats_the_lines(log):
    # srloop reads the store from the lines, the benchmark's checks from the summary
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[-1]["store"] == [c for rec in lines[1:-1] for c in rec["candidates"]]


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
