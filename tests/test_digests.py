"""The parse digest of ``tools/parse_digest.py``, pinned, and the fit digest's
comparison of two runs.

Every tree, constant initial value, exception class and message the parser
gives over the digest's fixed corpus must stay as it is. A parser change made
on purpose updates the pin in the same diff. The fit digest is not pinned
here: it takes far longer and depends on NumPy's float kernels. Its
``--against`` comparison is tested on hand-written lines.
"""

import hashlib
import importlib.util
from pathlib import Path

PARSE_DIGEST = "84fe59dd768960b5d00e076f713beca33b68b5bf2ebe5e3c037365c525ab0639"
PARSES = 36112


def load_tool(name: str):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_parse_digest_is_pinned():
    tool = load_tool("parse_digest")
    digest = hashlib.sha256()
    count = 0
    for line in tool.corpus_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    assert (digest.hexdigest(), count) == (PARSE_DIGEST, PARSES)


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
    tool = load_tool("fit_digest")
    assert tool.compare(earlier.read_text().splitlines(), later) == [
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
    assert tool.compare(later, later)[1:3] == ["MSE at 1e-09 relative: 0 worse, 0 better, "
                                               "5 equal", "largest relative loss: none"]
    assert tool.compare(earlier.read_text().splitlines()[:1], later[:1])[1:3] == [
        "MSE at 1e-09 relative: 0 worse, 0 better, 1 equal",
        "largest relative loss: 3.2e-14 (kepler  c1*x1**c2  {})"]
