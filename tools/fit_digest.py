"""Print one SHA-256 over the FitResult reprs of a fixed corpus of fits.

A change to the fitter that claims to be bit-identical should print the same
digest before and after. The corpus is defined here, not imported from the
tests, so that two checkouts are compared on the same corpus by this one
script:

    python tools/fit_digest.py                      # srloop from ./src
    python tools/fit_digest.py --src ../other/src   # srloop from elsewhere
    python tools/fit_digest.py --lines out.txt      # also write one line per fit
    python tools/fit_digest.py --against old.txt    # compare with an earlier --lines file
    python tools/fit_digest.py --fit accept_idle=true   # set a FitConfig key for every fit

The corpus is the fits pinned in ``tests/test_optimize.py``, at the default
``patience``, plus seeded ``random_expression`` fits (300 per dataset on the
five one-variable datasets, ``hops=3, max_evals=600``). An unfittable or
over-capped expression contributes the name of its exception. It takes
about 12 s on two cores.
The count after the digest is how many of the fits took the least-squares
path, their expressions being linear in every constant: the ones it solved
and the ones that raised NoFiniteObjectiveError on it (128 and 8 of the
136 in this corpus; bode's ``log(-x1)*c1`` is one of the 8).

``--fit KEY=VALUE`` (a JSON value, repeatable) sets that ``FitConfig`` key
on every fit, over the corpus's own keywords; the lines, and so the digest,
still show only the corpus's keywords. ``--against`` reads the
``FitResult`` repr at the end of each line of an earlier ``--lines`` file
and compares the fits that both runs hold: how many got worse, better or
stayed equal in MSE (relative ``RTOL``), the largest relative loss, the
fits that turned unfittable or fittable, and the change in total evals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (dataset, expression or None for the dataset's target, FitConfig keywords)
PINNED = [
    ("bode", "c1*exp(c2*x1)+c3", {"max_evals": 1000}),
    ("nikuradse", "c1*x2**c2+c3*x1", {"hops": 5}),
    ("dual_site_langmuir", None, {}),
    ("kepler", "c1*x1**c2", {}),
    ("bode", "log(-x1)*c1", {"max_evals": 1000}),
    ("nikuradse", "c1+c2*x1+c3/x2+c4*x1*x2+c5*x2**c6", {"hops": 3, "max_evals": 4000}),
    ("dual_site_langmuir", "c1*x1/(c2+x1)+c3*x1/(c4+x1)+c5*x1/(c6+x1)+c7",
     {"hops": 3, "max_evals": 4000}),
    ("bode", "c1+c2*x1+c3*x1**2+c4*x1**3+c5*x1**4+c6*x1**5+c7*x1**6+c8*exp(c9*x1+c10)",
     {"hops": 3, "max_evals": 4000}),
]
RANDOM_DATASETS = ("bode", "dual_site_langmuir", "hubble", "kepler", "langmuir")
PER_DATASET = 300
#: MSEs within this relative distance compare as equal in ``--against``
RTOL = 1e-9


def corpus_lines(overrides=None):
    """Each fit's line, and whether it took the least-squares path; each
    fit's FitConfig gets the keys of ``overrides`` too."""
    overrides = overrides or {}
    from helpers import random_expression
    from srloop.data import load_builtin
    from srloop.expressions import MAX_CONSTANTS, Dialect
    from srloop.optimize import (FitConfig, NoFiniteObjectiveError, TooManyConstantsError, fit,
                                 linear_terms)
    from srloop.parsing import parse

    def outcome(e, d, cfg):
        try:
            return repr(fit(e, d, cfg))
        except (NoFiniteObjectiveError, TooManyConstantsError) as exc:
            return type(exc).__name__

    def linear(e, cfg):
        return cfg.solve_linear and e.n_constants <= MAX_CONSTANTS and linear_terms(e) is not None

    for name, text, kwargs in PINNED:
        d = load_builtin(name)
        e = d.target if text is None else parse(text, Dialect.INFIX, list(d.variables))
        cfg = FitConfig(**{**kwargs, **overrides})
        yield f"{name}\t{e}\t{kwargs}\t{outcome(e, d, cfg)}", linear(e, cfg)
    cfg = FitConfig(**{"hops": 3, "max_evals": 600, **overrides})
    for seed, name in enumerate(RANDOM_DATASETS):
        d = load_builtin(name)
        rng = random.Random(seed)
        for _ in range(PER_DATASET):
            e = random_expression(rng, n_vars=1)
            yield f"{name}\t{e}\t{outcome(e, d, cfg)}", linear(e, cfg)


_RESULT = re.compile(r"FitResult\(.*, mse=(.+), mae=.+, evals=(\d+), converged=\w+\)")


def _outcomes(lines) -> dict:
    """Each fit's ``(mse, evals)``, or None where the fit raised, keyed by
    the fields before its outcome and, as the corpus repeats some fits, by
    how many times they came before."""
    outcomes, seen = {}, {}
    for line in lines:
        fit, outcome = line.rsplit("\t", 1)
        fit = fit.replace("\t", "  ")
        seen[fit] = seen.get(fit, 0) + 1
        m = _RESULT.fullmatch(outcome)
        outcomes[fit if seen[fit] == 1 else f"{fit}  #{seen[fit]}"] = (
            (float(m[1]), int(m[2])) if m else None)
    return outcomes


def _relative(old: float, new: float) -> float:
    """How much higher ``new`` is than ``old``, relative to the larger magnitude."""
    scale = max(abs(old), abs(new))
    return (new - old) / scale if scale else 0.0


def compare(old_lines, new_lines) -> list[str]:
    """The ``--against`` report of ``new_lines`` against ``old_lines``."""
    old, new = _outcomes(old_lines), _outcomes(new_lines)
    both = [fit for fit in new if fit in old]
    fitted = [fit for fit in both if old[fit] and new[fit]]
    losses = {fit: _relative(old[fit][0], new[fit][0]) for fit in fitted}
    worse = sum(losses[fit] > RTOL for fit in fitted)
    better = sum(losses[fit] < -RTOL for fit in fitted)
    report = [f"{len(both)} fits in both runs ({len(old) - len(both)} only in the earlier, "
              f"{len(new) - len(both)} only in this one)",
              f"MSE at {RTOL:g} relative: {worse} worse, {better} better, "
              f"{len(fitted) - worse - better} equal"]
    worst = max(fitted, key=losses.get, default=None)
    if worst is None or losses[worst] <= 0:
        report.append("largest relative loss: none")
    else:
        report.append(f"largest relative loss: {losses[worst]:.3g} ({worst})")
    for turned, fits in (("unfittable", [f for f in both if old[f] and not new[f]]),
                         ("fittable", [f for f in both if new[f] and not old[f]])):
        report.append(f"turned {turned}: {len(fits)}")
        report += (f"  {fit}" for fit in fits)
    before, after = (sum(side[fit][1] for fit in fitted) for side in (old, new))
    change = f" ({(after - before) / before:+.1%})" if before else ""
    report.append(f"evals over the {len(fitted)} fits fitted in both: {before} -> {after}{change}")
    return report


def _fit_key(text: str):
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VALUE")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: the value is not JSON ({exc})") from exc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding srloop")
    ap.add_argument("--lines", type=Path, help="also write the hashed lines to this file")
    ap.add_argument("--against", type=Path, help="compare with the lines of an earlier run")
    ap.add_argument("--fit", type=_fit_key, action="append", default=[], metavar="KEY=VALUE",
                    help="set a FitConfig key (a JSON value) on every fit")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    digest = hashlib.sha256()
    lines = []
    by_least_squares = 0
    for line, linear in corpus_lines(dict(args.fit)):
        digest.update(line.encode() + b"\n")
        lines.append(line)
        by_least_squares += linear
    if args.lines is not None:
        args.lines.write_text("".join(line + "\n" for line in lines))
    print(f"{digest.hexdigest()}  {len(lines)} fits, {by_least_squares} by least squares")
    if args.against is not None:
        print(f"against {args.against}:")
        for line in compare(args.against.read_text().splitlines(), lines):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
