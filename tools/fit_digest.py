"""Print one SHA-256 over the FitResult reprs of a fixed corpus of fits.

A change to the fitter that claims to be bit-identical should print the same
digest before and after. The corpus is defined here, not imported from the
tests, so that two checkouts are compared on the same corpus by this one
script:

    python tools/fit_digest.py                      # srloop from ./src
    python tools/fit_digest.py --src ../other/src   # srloop from elsewhere
    python tools/fit_digest.py --lines out.txt      # also write one line per fit

The corpus is the fits pinned in ``tests/test_optimize.py``, at the default
``patience``, plus seeded ``random_expression`` fits (300 per dataset on the
five one-variable datasets, ``hops=3, max_evals=600``). An unfittable or
over-capped expression contributes the name of its exception. It takes
about 12 s on two cores.
The count after the digest is how many of the fits took the least-squares
path, their expressions being linear in every constant: the ones it solved
and the ones that raised NoFiniteObjectiveError on it (128 and 8 of the
136 in this corpus; bode's ``log(-x1)*c1`` is one of the 8).
"""

from __future__ import annotations

import argparse
import hashlib
import random
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


def corpus_lines():
    """Each fit's line, and whether it took the least-squares path."""
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
        cfg = FitConfig(**kwargs)
        yield f"{name}\t{e}\t{kwargs}\t{outcome(e, d, cfg)}", linear(e, cfg)
    cfg = FitConfig(hops=3, max_evals=600)
    for seed, name in enumerate(RANDOM_DATASETS):
        d = load_builtin(name)
        rng = random.Random(seed)
        for _ in range(PER_DATASET):
            e = random_expression(rng, n_vars=1)
            yield f"{name}\t{e}\t{outcome(e, d, cfg)}", linear(e, cfg)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding srloop")
    ap.add_argument("--lines", type=Path, help="also write the hashed lines to this file")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    digest = hashlib.sha256()
    lines = []
    by_least_squares = 0
    for line, linear in corpus_lines():
        digest.update(line.encode() + b"\n")
        lines.append(line)
        by_least_squares += linear
    if args.lines is not None:
        args.lines.write_text("".join(line + "\n" for line in lines))
    print(f"{digest.hexdigest()}  {len(lines)} fits, {by_least_squares} by least squares")
    return 0


if __name__ == "__main__":
    sys.exit(main())
