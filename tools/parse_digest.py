"""Print one SHA-256 over the parses of a fixed corpus of model text.

The parser's counterpart of ``tools/fit_digest.py``: a change to the parser
that claims the same behaviour should print the same digest before and
after. Each text is parsed in both dialects, and each parse contributes its
tree ``repr`` and ``const_inits``, or its exception class and message:

    python tools/parse_digest.py                      # srloop from ./src
    python tools/parse_digest.py --src ../other/src   # srloop from elsewhere
    python tools/parse_digest.py --lines out.txt      # also write one line per parse

The corpus is seeded renders of ``random_node`` trees (half of them with free
exponents) and of powers of ``x1`` with purely numeric exponents, three
``mutate`` edits of each render, ``token_soup`` texts, and the hand cases
below. Each hashed line holds its text, so the corpus of two checkouts can be
compared line by line. It takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VARIABLES = ["x1", "x2"]
RENDERS = 2000  # of each kind of tree
MUTATIONS = 3  # per render
SOUPS = 2000
HAND = [
    "x1**-(1/2)", "x1^(3/2)", "x1**2**3", "x1**-2**-1", "x1**(1/0)", "x1**((-8)**(1/3))",
    "x1**(10**400)", "x1**(1e308*10)", "x1**(1e308*10-1e308*10)", "x1**pi", "x1**e",
    "x1**-+2", "x1**(+2)", "2**x1", "(2**3)**x1", "x1**(2*c1)", "+-+-x1", "--x1",
    "x1^{1/2}", "x_1^{-\\frac{1}{2}}", "\\frac{c_1 x_1}{c_2 + x_1}", "\\sqrt{x_1}^{2}",
    "x1**1e400", "1e400", "1e-400*x1", "\u2212x1", "y = c1*x1", "y(x1, x2) = c1*x1",
    "x1 = c1", "y = y*c1", "c1 = c2 = x1", "= x1", "{x1}", "{{x1}+1}", "(x1}",
    "\\left(x_1\\right)^{-1}", "$c_1 x_1^{3/2}$", "c_1 x_1 x_2", "\\exp{x_1}", "\\ln(x_1)",
    "\\log{x_{12}}", "\\alpha x_1", "sqrt x1", "foo(x1)", "x3", "c0", "x1 +", "", "   ",
    "x1" + "+x1" * 99,  # 199 nodes
    "x1" + "+x1" * 100,  # 201 nodes
    "x1" + "**x1" * 120,
    "(" * 99 + "x1" + ")" * 99,
    "(" * 150 + "x1" + ")" * 150,  # 150 deep
    "-" * 150 + "x1",
    "x1**" + "-(" * 60 + "2" + ")" * 60,
]


def numeric_node(rng: random.Random, depth: int = 0):
    """A random tree of literals, signs and + - * / ^: an exponent the parser folds,
    or keeps when it fails, overflows or turns complex."""
    from srloop.expressions import BINARY_OPERATORS, Binary, Lit, Unary

    if depth >= 3 or rng.random() < 0.4:
        return Lit(float(rng.choice([0, 1, 2, 3, 0.5, 1.5, 10, 400, 1e308])))
    if rng.random() < 0.2:
        return Unary("neg", numeric_node(rng, depth + 1))
    return Binary(rng.choice(list(BINARY_OPERATORS)), numeric_node(rng, depth + 1),
                  numeric_node(rng, depth + 1))


def corpus():
    from helpers import mutate, random_node, token_soup
    from srloop.expressions import Binary, Expression, Var, render

    rng = random.Random(0)
    for i in range(RENDERS):
        trees = [random_node(rng, free_exponents=i % 2 == 1),
                 Binary("^", Var(1), numeric_node(rng))]
        for tree in trees:
            text = render(Expression(tree))
            yield text
            for _ in range(MUTATIONS):
                yield mutate(rng, text)
    for _ in range(SOUPS):
        yield token_soup(rng, rng.randint(1, 12))
    yield from HAND


def corpus_lines():
    from srloop.expressions import Dialect
    from srloop.parsing import parse

    for text in corpus():
        for dialect in Dialect:
            try:
                e = parse(text, dialect, VARIABLES)
                outcome = f"{e.root!r}\t{e.const_inits!r}"
            except Exception as exc:  # the class and message are the outcome
                outcome = f"{type(exc).__name__}: {exc}"
            yield f"{dialect.name}\t{text!r}\t{outcome}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding srloop")
    ap.add_argument("--lines", type=Path, help="also write the hashed lines to this file")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "tests")]
    digest = hashlib.sha256()
    lines = []
    for line in corpus_lines():
        digest.update(line.encode() + b"\n")
        lines.append(line)
    if args.lines is not None:
        args.lines.write_text("".join(line + "\n" for line in lines))
    print(f"{digest.hexdigest()}  {len(lines)} parses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
