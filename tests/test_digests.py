"""``tools/digest.py``: the parse digest and the CLI cases whose output holds no
freshly fitted number, pinned (a change made on purpose updates a pin in the same
diff), and the ``--against`` reports on hand-written lines."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from digest import cli_lines, compare, fit_report, hashed, parse_lines  # noqa: E402

PARSE_DIGEST = "84fe59dd768960b5d00e076f713beca33b68b5bf2ebe5e3c037365c525ab0639"
PARSES = 36112
CLI_DIGEST = "52a68826278d20870e483dbad10ea0f121ff5473e1be0f9fcfd52acacc3cbabe"
CLI_CASES = 68


def test_parse_digest_is_pinned():
    sha, lines, _ = hashed(parse_lines())
    assert (sha, len(lines)) == (PARSE_DIGEST, PARSES)


def test_cli_output_without_a_fresh_fit_is_pinned():
    sha, lines, _ = hashed(cli_lines(fits=False))
    assert (sha, len(lines)) == (CLI_DIGEST, CLI_CASES)


def test_every_corpus_compares_two_runs_alike():
    # the fields before the last are the key, and a repeated key is told apart by its place
    earlier = ['["replay", "a.jsonl"]\t1', '["replay", "a.jsonl"]\t2', "x\ty\t3", "gone\t4"]
    later = ['["replay", "a.jsonl"]\t1', '["replay", "a.jsonl"]\t5', "x\ty\t6", "new\t7"]
    assert compare(earlier, later, "cases") == [
        "3 cases in both runs (1 only in the earlier, 1 only in this one)",
        "changed: 2",
        '  ["replay", "a.jsonl"]  #2',
        "  x  y",
    ]
    assert compare(later, later, "cases")[1:] == ["changed: 0"]
    many = compare([f"{i}\t0" for i in range(12)], [f"{i}\t1" for i in range(12)], "parses")
    assert many[1:] == ["changed: 12", *(f"  {i}" for i in range(10))]  # up to 10 named


def result(mse: float, evals: int) -> str:
    return (f"FitResult(params=(1.0, -2.5e-05), mse={mse!r}, mae=0.5, evals={evals}, "
            f"converged=True)")


def test_fit_digest_compares_two_runs(tmp_path):
    # the fields before the last name a fit; the last is its FitResult repr
    # or the exception it raised, and a repeated fit is told apart by its place
    earlier = tmp_path / "earlier.txt"
    earlier.write_text("\n".join([
        f"kepler\tc1*x1**c2\t{{}}\t{result(5.807880298646903, 2125)}",
        f"bode\tc1*exp(c2*x1)+c3\t{{'max_evals': 1000}}\t{result(0.02, 6220)}",
        f"hubble\tc1*x1\t{result(1.0, 0)}",
        f"hubble\tc1*x1\t{result(2.0, 0)}",  # the same fit again
        f"kepler\tlog(x1)*c1\t{result(4.0, 100)}",
        "kepler\tsqrt(c1-x1)\tNoFiniteObjectiveError",
        f"langmuir\tc1/x1\t{result(3.0, 50)}",
    ]) + "\n")
    later = [
        f"kepler\tc1*x1**c2\t{{}}\t{result(5.807880298647088, 2143)}",  # 3.2e-14 worse
        f"bode\tc1*exp(c2*x1)+c3\t{{'max_evals': 1000}}\t{result(0.01, 6207)}",
        f"hubble\tc1*x1\t{result(1.0, 0)}",
        f"hubble\tc1*x1\t{result(2.5, 0)}",
        "kepler\tlog(x1)*c1\tNoFiniteObjectiveError",
        f"kepler\tsqrt(c1-x1)\t{result(9.0, 70)}",
        "langmuir\tc1*x1\tTooManyConstantsError",
    ]
    assert fit_report(earlier.read_text().splitlines(), later) == [
        "6 fits in both runs (1 only in the earlier, 1 only in this one)",
        "MSE at 1e-09 relative: 1 worse, 1 better, 2 equal",
        "largest relative loss: 0.2 (hubble  c1*x1  #2)",
        "turned unfittable: 1",
        "  kepler  log(x1)*c1",
        "turned fittable: 1",
        "  kepler  sqrt(c1-x1)",
        "evals over the 4 fits fitted in both: 8345 -> 8350 (+0.1%)",
    ]
    # a run against itself, and a loss below the tolerance, which is named
    assert fit_report(later, later)[1:3] == ["MSE at 1e-09 relative: 0 worse, 0 better, "
                                             "5 equal", "largest relative loss: none"]
    assert fit_report(earlier.read_text().splitlines()[:1], later[:1])[1:3] == [
        "MSE at 1e-09 relative: 0 worse, 0 better, 1 equal",
        "largest relative loss: 3.2e-14 (kepler  c1*x1**c2  {})"]
    # --against prints this first line once, as compare's
    assert fit_report(later, later)[0] == compare(later, later, "fits")[0]
