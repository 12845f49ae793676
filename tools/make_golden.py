"""Regenerate the run logs of the golden replay corpus in ``tests/golden/``.

Each case is a directory holding an INI file (``config.ini``) and a scripted
transcript (``transcript.txt``). ``srloop run`` on them writes the case's
run logs (``run01.jsonl``, ...), which ``tests/test_golden.py`` replays.
Paths in the INI files are relative to ``tests/golden/``, so the logs carry
no checkout path:

    python tools/make_golden.py                      # every case, srloop from ./src
    python tools/make_golden.py hubble bode          # only the named cases
    python tools/make_golden.py --src ../other/src   # srloop from elsewhere

Regenerate a log only with a change that alters results on purpose, or with
a declared log-format change, and say so in the change's description.
``tests/legacy_logs/`` keeps logs of earlier formats, which are never
regenerated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def regenerate(case: str) -> list[str]:
    from srloop.cli import main

    for old in (GOLDEN / case).glob("run*.jsonl"):
        old.unlink()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", f"{case}/config.ini", "--out", out])
        if code != 0:
            raise SystemExit(f"{case}: srloop run exited {code}")
        logs = sorted(Path(out).glob("run*.jsonl"))
        for log in logs:
            shutil.copy(log, GOLDEN / case / log.name)
    return [log.name for log in logs]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="*", help="case directories (default: all)")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding srloop")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    cases = args.cases or sorted(p.parent.name for p in GOLDEN.glob("*/config.ini"))
    os.chdir(GOLDEN)
    for case in cases:
        print(f"{case}: {', '.join(regenerate(case))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
