"""Print one SHA-256 over the lines of a fixed corpus: parses, fits or CLI output.

A change that claims the same behaviour should print the same digest before
and after. Each corpus is a generator of text lines, each hashed with a newline:

    python tools/digest.py parse                        # srloop from ./src
    python tools/digest.py fit --src ../other/src       # srloop from elsewhere
    python tools/digest.py cli --lines cli.txt          # also write the hashed lines
    python tools/digest.py cli --against cli.txt        # compare with an earlier --lines file
    python tools/digest.py fit --fit accept_idle=true   # set a FitConfig key on every fit

``parse_lines``, ``fit_lines`` and ``cli_lines`` say what each corpus holds;
they take about 2, 8 and 10 s on two cores. ``--against`` prints ``compare``'s
report, and for ``fit`` then ``fit_report``'s.
"""

import argparse
import hashlib
import json
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"


def hashed(corpus) -> tuple[str, list[str], str]:
    """The SHA-256 over the lines of the generator ``corpus``, each with a
    newline, the lines, and the text the generator returned, if any."""
    digest, lines = hashlib.sha256(), []
    while True:
        try:
            line = next(corpus)
        except StopIteration as stop:
            return digest.hexdigest(), lines, stop.value or ""
        digest.update(line.encode() + b"\n")
        lines.append(line)


def keyed(lines) -> dict[str, str]:
    """Each line's last field, keyed by the fields before it (joined by two
    spaces) and, where a key repeats, by how many times it came before."""
    fields, seen = {}, {}
    for key, value in (line.rsplit("\t", 1) for line in lines):
        key = key.replace("\t", "  ")
        seen[key] = seen.get(key, 0) + 1
        fields[key if seen[key] == 1 else f"{key}  #{seen[key]}"] = value
    return fields


def compare(old_lines, new_lines, noun: str) -> list[str]:
    """The ``--against`` report of every corpus: how many keys of ``keyed`` both
    runs hold, only one of them holds, or hold with another last field, and up to
    10 of the last kind."""
    old, new = keyed(old_lines), keyed(new_lines)
    both = [key for key in new if key in old]
    changed = [key for key in both if old[key] != new[key]]
    return [f"{len(both)} {noun} in both runs ({len(old) - len(both)} only in the earlier, "
            f"{len(new) - len(both)} only in this one)",
            f"changed: {len(changed)}", *(f"  {key}" for key in changed[:10])]


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


def parse_lines():
    """Seeded renders of ``random_node`` trees (half of them with free exponents)
    and of powers of ``x1`` with purely numeric exponents, three ``mutate`` edits
    of each render, ``token_soup`` texts and ``HAND``, each parsed in each dialect:
    a line holds the text and its tree ``repr`` and ``const_inits``, or its
    exception class and message."""
    from helpers import mutate, random_node, token_soup
    from srloop.expressions import Binary, Dialect, Expression, Var, render
    from srloop.parsing import parse

    def texts():
        rng = random.Random(0)
        for i in range(RENDERS):
            for tree in (random_node(rng, free_exponents=i % 2 == 1),
                         Binary("^", Var(1), numeric_node(rng))):
                text = render(Expression(tree))
                yield text
                for _ in range(MUTATIONS):
                    yield mutate(rng, text)
        for _ in range(SOUPS):
            yield token_soup(rng, rng.randint(1, 12))
        yield from HAND

    for text in texts():
        for dialect in Dialect:
            try:
                e = parse(text, dialect, ["x1", "x2"])
                outcome = f"{e.root!r}\t{e.const_inits!r}"
            except Exception as exc:  # the class and message are the outcome
                outcome = f"{type(exc).__name__}: {exc}"
            yield f"{dialect.name}\t{text!r}\t{outcome}"


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


def fit_lines(**overrides):
    """The fits pinned in ``tests/test_optimize.py`` and seeded ``random_expression``
    fits, each line ending in the ``FitResult`` repr or the name of the exception
    raised. ``overrides`` (``--fit``) sets FitConfig keys on every fit, over the
    corpus's own keywords, which alone the lines show. Returns how many fits took
    the least-squares path: 128 it solved, 8 raised NoFiniteObjectiveError on it."""
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

    by_least_squares = 0
    for name, text, kwargs in PINNED:
        d = load_builtin(name)
        e = d.target if text is None else parse(text, Dialect.INFIX, list(d.variables))
        cfg = FitConfig(**{**kwargs, **overrides})
        by_least_squares += linear(e, cfg)
        yield f"{name}\t{e}\t{kwargs}\t{outcome(e, d, cfg)}"
    cfg = FitConfig(**{"hops": 3, "max_evals": 600, **overrides})
    for seed, name in enumerate(RANDOM_DATASETS):
        d = load_builtin(name)
        rng = random.Random(seed)
        for _ in range(PER_DATASET):
            e = random_expression(rng, n_vars=1)
            by_least_squares += linear(e, cfg)
            yield f"{name}\t{e}\t{outcome(e, d, cfg)}"
    return f", {by_least_squares} by least squares"


_RESULT = re.compile(r"FitResult\(.*, mse=(.+), mae=.+, evals=(\d+), converged=\w+\)")


def fit_report(old_lines, new_lines) -> list[str]:
    """The fit corpus's ``--against`` report: ``compare``'s first line, then
    the MSEs and evals of the fits both runs hold."""
    def outcomes(lines):  # each fit's (mse, evals), or None where the fit raised
        return {fit: (float(m[1]), int(m[2])) if (m := _RESULT.fullmatch(outcome)) else None
                for fit, outcome in keyed(lines).items()}

    def loss(a, b):  # how much higher b is than a, relative to the larger magnitude
        return (b - a) / (max(abs(a), abs(b)) or 1.0)

    old, new = outcomes(old_lines), outcomes(new_lines)
    both = [fit for fit in new if fit in old]
    fitted = [fit for fit in both if old[fit] and new[fit]]
    losses = {fit: loss(old[fit][0], new[fit][0]) for fit in fitted}
    worse = sum(losses[fit] > RTOL for fit in fitted)
    better = sum(losses[fit] < -RTOL for fit in fitted)
    report = [compare(old_lines, new_lines, "fits")[0],
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


def cli_cases(fits: bool = True):
    """Each CLI case's argv and the files it adds to copies of the golden cases and
    ``legacy_logs/`` (bytes, or None for a directory). The cases whose output holds
    no freshly fitted number come first: each committed log's ``replay``, ``pareto``
    and ``score``, refusals, a batch that runs out before a fit, and ``datasets``."""
    from srloop.data import dataset_info

    for root, logs in ((GOLDEN, "*/run*.jsonl"), (TESTS, "legacy_logs/*/run*.jsonl")):
        for path in sorted(root.glob(logs)):
            name = path.relative_to(root).as_posix()  # hubble/run01.jsonl
            dataset = json.loads(path.read_text().split("\n", 1)[0])["dataset"]
            yield ["replay", name], {}
            yield ["pareto", name, "--out", "fronts"], {}
            if dataset_info(dataset)["target"]:
                yield ["score", name, "--target", dataset], {}
    yield ["pareto", "langmuir/run01.jsonl", "langmuir/run02.jsonl", "--out", "fronts"], {}
    yield ["score", "hubble/run01.jsonl", "--target", "kepler"], {}
    ini = b"[run]\ndataset = hubble\nItrations = 3\n"  # a misspelt key
    yield ["run", "--config", "bad.ini", "--out", "out"], {"bad.ini": ini}
    yield exhausted(1, "")  # refused: the transcript holds no turn
    # a syntax error and a missing variable
    yield exhausted(2, "BEGIN_EXPRESSIONS\nc1*(x1\nc1 + c2\nEND_EXPRESSIONS\n")
    for flags in ([], ["--verbose"], ["--references"]):
        yield ["datasets", *flags], {}
    if fits:  # the rest
        yield from grid_cases()


def exhausted(at: int, transcript: str):
    """A 7-run hubble batch whose transcript runs out at iteration ``at``: each
    run reads it from its start, so runs 1 to 5 start and run 1 fails first."""
    return (["run", "--dataset", "hubble", "--backend", "scripted", "--transcript", "t.txt",
             "--iterations", "3", "--runs", "7", "--out", f"exhausted-at-{at}"],
            {"t.txt": transcript.encode()})


def grid_cases():
    """The cases whose output holds freshly fitted numbers: each golden case at
    the default FitConfig and 5 runs, the paper's grid of scratchpad and
    context on hubble and langmuir, and more failing batches."""
    def batch(case, *flags, ini="default.ini", prompt=""):
        # the golden INI without its [fit] hops and max_evals, and with ``prompt``
        lines = (GOLDEN / case / "config.ini").read_text().splitlines(keepends=True)
        text = "".join(line for line in lines
                       if line.partition("=")[0].strip() not in ("hops", "max_evals"))
        return (["run", "--config", f"{case}/{ini}", "--runs", "5", *flags, "--out", "out"],
                {f"{case}/{ini}": text.replace("[prompt]\n", f"[prompt]\n{prompt}").encode()})

    for case in sorted(path.parent.name for path in GOLDEN.glob("*/config.ini")):
        yield batch(case)
    for case in ("hubble", "langmuir"):
        for flags in (["--no-scratchpad"], ["--no-context"], ["--no-scratchpad", "--no-context"]):
            yield batch(case, *flags)
    yield batch("hubble", "--no-data")
    yield batch("hubble", ini="rounded.ini", prompt="rounding_decimals = 2\n")
    turns = (GOLDEN / "hubble" / "transcript.txt").read_text().split("%%%\n")
    yield exhausted(3, "%%%\n".join(turns[:2]) + "%%%\n")
    yield (["run", "--config", "hubble/config.ini", "--runs", "3", "--out", "unwritable"],
           {"unwritable/run02.jsonl": None})


def cli_lines(fits: bool = True):
    """``srloop.cli.main`` in process on each of ``cli_cases``, in a directory of its
    own, and then on the ``replay`` of each log a failed batch wrote: a line holds
    the argv as JSON and the SHA-256 of the exit code, stdout, stderr, and the name
    (relative to that directory) and bytes of each file the case wrote."""
    from helpers import run_cli

    def line(where, argv, files):  # the case's line, its exit code and the files it wrote
        code, out, err, written = run_cli(where, argv, files)
        digest = hashlib.sha256(json.dumps([code, out, err]).encode())
        for name, data in written.items():
            digest.update(f"\n{name}\t{len(data)}\n".encode() + data)
        return f"{json.dumps(argv)}\t{digest.hexdigest()}", code, written

    with tempfile.TemporaryDirectory() as tmp:
        base = shutil.copytree(GOLDEN, Path(tmp) / "base")
        shutil.copytree(TESTS / "legacy_logs", base / "legacy_logs")
        for k, (argv, files) in enumerate(cli_cases(fits)):
            where = shutil.copytree(base, Path(tmp) / str(k))
            text, code, written = line(where, argv, files)
            yield text
            if argv[0] == "run" and code:
                for name in (name for name in written if name.endswith(".jsonl")):
                    yield line(where, ["replay", name], {})[0]
            shutil.rmtree(where)


CORPORA = {"parse": (parse_lines, "parses"), "fit": (fit_lines, "fits"),
           "cli": (cli_lines, "cases")}


def _fit_key(text: str):
    key, _, value = text.partition("=")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VALUE, the value JSON "
                                         f"({exc})") from exc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus", choices=CORPORA)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding srloop")
    ap.add_argument("--lines", type=Path, help="also write the hashed lines to this file")
    ap.add_argument("--against", type=Path, help="compare with the lines of an earlier run")
    ap.add_argument("--fit", type=_fit_key, action="append", default=[], metavar="KEY=VALUE",
                    help="set a FitConfig key (a JSON value) on every fit of the fit corpus")
    args = ap.parse_args(argv)
    if args.fit and args.corpus != "fit":
        ap.error("--fit sets a FitConfig key of the fit corpus only")
    sys.path[:0] = [str(args.src.resolve()), str(TESTS)]
    lines_of, noun = CORPORA[args.corpus]
    digest, lines, tail = hashed(lines_of(**dict(args.fit)))
    if args.lines:
        args.lines.write_text("".join(line + "\n" for line in lines))
    print(f"{digest}  {len(lines)} {noun}{tail}")
    if args.against:
        old = args.against.read_text().splitlines()
        report = compare(old, lines, noun)
        if args.corpus == "fit":
            report += fit_report(old, lines)[1:]  # its first line is compare's
        print(f"against {args.against}:")
        for line in report:
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
