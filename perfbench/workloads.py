"""Seeded inputs for the srloop benchmark: transcripts, INI files and the
stub endpoint's reply plan.

The seed decides where each target is planted, how each line is spelled and
which slot it sits in. It does not decide which models get fitted: every seed
fits the same models with the same fit seeds, and every spelling of a fitted
model evaluates bit-identically (operands commuted next to a variable,
constants renumbered in the same order, ``^`` for ``**``, an optional
``y =``). So the fit work of a workload is the same on every seed and only
its text changes; run-to-run spread is the machine's, not the generator's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

BEGIN = "BEGIN_EXPRESSIONS"
END = "END_EXPRESSIONS"
STUB_KEY_ENV = "PERFBENCH_STUB_KEY"  # the http backend needs a key; the stub ignores it

# outcome statuses srloop documents for a proposal (engine.ParseOutcome)
FITTED = "fitted"
DUPLICATE = "duplicate"
UNFITTABLE = "unfittable"
SYNTAX = "syntax_error"
REJECTED = "operator_rejected"
MISSING = "missing_variables"


@dataclass(frozen=True)
class Model:
    """A model the loop should fit, in the spellings a chat model might use.

    ``infix`` is the same model for the benchmark's own evaluator; ``basis``
    lists one column per constant when the model is linear in its constants;
    ``repeats`` are constant-absorption rewrites srloop must call duplicates.
    """

    spellings: tuple[str, ...]
    infix: str
    basis: tuple[str, ...] = ()
    repeats: tuple[str, ...] = ()
    status: str = FITTED


@dataclass(frozen=True)
class Pool:
    dataset: str
    dialect: str  # infix | latex
    target: Model | None
    decoys: tuple[Model, ...]
    bad: tuple[tuple[str, tuple[str, ...]], ...]  # (status, spellings): one line each


@dataclass(frozen=True)
class Line:
    """One planted proposal: the text the model emits and what srloop must make of it."""

    text: str
    status: str
    infix: str | None = None
    basis: tuple[str, ...] = ()
    target: bool = False


@dataclass
class Batch:
    """One ``srloop run`` batch: its configuration and its planted lines per iteration."""

    dataset: str
    dialect: str
    policy: str
    operators: str
    runs: int
    n_expressions: int
    iterations: list[list[Line]]
    responses: list[str]
    target_iteration: int | None
    fit: dict = field(default_factory=dict)

    def ini_text(self, backend: dict) -> str:
        sections = {
            "run": {
                "dataset": self.dataset,
                "operators": self.operators,
                "iterations": len(self.iterations),
                "runs": self.runs,
                "temperature": 0.7,
                "seed": 0,
                "policy": self.policy,
            },
            "prompt": {"n_expressions": self.n_expressions, "dialect": self.dialect},
            "fit": {"seed": 0, **self.fit},
            "llm": backend,
        }
        out = []
        for name, values in sections.items():
            out.append(f"[{name}]")
            out.extend(f"{k} = {v}" for k, v in values.items())
            out.append("")
        return "\n".join(out)


def _m(spellings, infix=None, basis=(), repeats=(), status=FITTED) -> Model:
    spellings = (spellings,) if isinstance(spellings, str) else tuple(spellings)
    return Model(spellings, infix or spellings[0], tuple(basis), tuple(repeats), status)


# ---------------------------------------------------------------------------
# Proposal pools. Every fitted model here was measured to converge (or, in
# BODE, to hit the evaluation cap) with the fit settings its workload uses.

HUBBLE = Pool(
    "hubble", "infix",
    target=_m(["c1*x1", "x1*c1", "c2*x1"], basis=["x1"],
              repeats=["x1/c1", "-c1*x1", "c1*c2*x1"]),
    decoys=(
        _m(["c1*x1+c2", "x1*c1+c2", "c2*x1+c5"], basis=["x1", "1"],
           repeats=["c1-c2*x1", "x1*c1-c2"]),
        _m(["c1*x1/(c2+x1)", "x1*c1/(x1+c2)", "c3*x1/(c4+x1)"], repeats=["c1*x1/(x1-c2)"]),
    ),
    bad=((SYNTAX, ("c1*x1+*c2", "c1*(x1+c2", "c1 x1 +")),
         (REJECTED, ("c1*sqrt(x1)", "c1*exp(c2*x1)")),
         (MISSING, ("c1+c2", "c1"))),
)

KEPLER = Pool(
    "kepler", "infix",
    target=_m(["c1*x1**1.5", "x1**1.5*c1", "c1*x1^1.5", "c1*x1**(3/2)", "x1^(3/2)*c2"],
              basis=["x1**1.5"], repeats=["x1**1.5/c1", "-c1*x1**1.5"]),
    decoys=(
        _m(["c1*x1**2", "x1**2*c1", "c1*x1^2"], basis=["x1**2"], repeats=["x1**2/c1"]),
        _m(["c1*x1+c2", "x1*c1+c2"], basis=["x1", "1"]),
        _m(["c1*x1**c2", "c1*x1^c2", "c3*x1**c4"]),
    ),
    bad=((SYNTAX, ("c1*x1**", "c1*x1)")),
         (REJECTED, ("c1*exp(x1)", "c1*log(x1)")),
         (MISSING, ("c1+c2",))),
)

LANGMUIR = Pool(
    "langmuir", "latex",
    target=_m([r"\frac{c_1 x_1}{c_2 + x_1}", r"\frac{x_1 c_1}{x_1 + c_2}",
               r"\frac{c_{1} x_{1}}{c_{2}+x_{1}}", r"$\frac{c_1 x_1}{c_2 + x_1}$"],
              infix="c1*x1/(c2+x1)",
              repeats=[r"\frac{c_1 x_1}{x_1 - c_2}", r"\frac{- c_1 x_1}{c_2 + x_1}"]),
    decoys=(
        _m([r"c_1 x_1 + c_2", r"x_1 c_1 + c_2", r"c_1 \cdot x_1 + c_2"],
           infix="c1*x1+c2", basis=["x1", "1"]),
        _m([r"c_1 x_1", r"x_1 c_1", r"c_1 \times x_1"], infix="c1*x1", basis=["x1"],
           repeats=[r"\frac{x_1}{c_1}"]),
        _m([r"\frac{c_1 x_1}{c_2 + x_1^{2}}", r"\frac{x_1 c_1}{c_2 + x_1^2}"],
           infix="c1*x1/(c2+x1**2)"),
    ),
    bad=((SYNTAX, (r"\frac{c_1 x_1}{c_2 + x_1", r"\frac{c_1}")),
         (REJECTED, (r"c_1 \sqrt{x_1}", r"\exp(c_1 x_1)")),
         (MISSING, (r"c_1 + c_2",))),
)

DUAL_SITE = Pool(
    "dual_site_langmuir", "infix",
    target=_m(["c1*x1/(c2+x1)+c3*x1/(c4+x1)", "x1*c3/(x1+c4)+x1*c1/(x1+c2)",
               "c3*x1/(c4+x1)+c5*x1/(c6+x1)"],
              repeats=["c1*x1/(x1-c2)+c3*x1/(c4+x1)", "-c1*x1/(c2+x1)+c3*x1/(c4+x1)"]),
    decoys=(
        _m(["c1*x1/(c2+x1)", "x1*c1/(x1+c2)"], repeats=["x1*c1/(x1-c2)"]),
        _m(["c1*x1+c2", "x1*c1+c2"], basis=["x1", "1"], repeats=["c2*x1+c1", "c1-c2*x1"]),
    ),
    bad=((SYNTAX, ("c1*x1/(c2+x1)+", "c1*x1/(c2+x1))")),
         (REJECTED, ("c1*x1^x1", "c1*exp(c2*x1)")),
         (MISSING, ("c1/(c2+c3)",))),
)

NIKURADSE = Pool(
    "nikuradse", "infix",
    target=None,
    decoys=(
        _m(["c1*x1+c2*x2", "x1*c1+c2*x2"], basis=["x1", "x2"], repeats=["x2*c1+x1*c2"]),
        _m(["c1+c2*x1+c3/x2", "c1+x1*c2+c3/x2"], basis=["1", "x1", "1/x2"],
           repeats=["c1+c2/x2-c3*x1"]),
        _m(["c1*x2**c2+c3*x1", "c1*x2^c2+x1*c3"]),
    ),
    bad=((SYNTAX, ("c1*(x1+x2", "c1*x1 x2")),
         (REJECTED, ("c1*log(x1)+c2*x2", "c1*sqrt(x2)+c2*x1")),
         (MISSING, ("c1+c2/x2", "c2/x2")),
         (MISSING, ("c1*x1+c2", "x1*c1"))),
)

BODE = Pool(
    "bode", "infix",
    target=_m(["c1*exp(c2*x1)+c3", "c1*exp(x1*c2)+c3", "c2*exp(c4*x1)+c7"],
              repeats=["c1*exp(c2*x1)-c3", "c3+c1*exp(c2*x1)", "-c1*exp(c2*x1)+c3"]),
    decoys=(
        _m(["log(-x1)*c1", "c1*log(-x1)", "c3*log(-x1)"], status=UNFITTABLE),
        _m(["sqrt(-x1-c1*c1)", "sqrt(-x1-c2*c2)"], status=UNFITTABLE),
        _m(["c1*x1+c2", "x1*c1+c2"], basis=["x1", "1"], repeats=["c1-c2*x1"]),
        _m(["c1*exp(c2*x1)", "c1*exp(x1*c2)"]),
    ),
    bad=((SYNTAX, ("c1*exp(c2*x1+c3", "c1*exp(c2*x1))+c3")),
         (MISSING, ("c1*exp(c2)+c3",))),
)

LIVE = Pool(
    "kepler", "infix",
    target=KEPLER.target,
    decoys=(
        _m(["c1*x1", "x1*c1"], basis=["x1"]),
        _m(["c1*x1**2", "x1**2*c1", "c1*x1^2"], basis=["x1**2"]),
        _m(["c1*sqrt(x1)", "sqrt(x1)*c1"], basis=["sqrt(x1)"]),
    ),
    bad=((SYNTAX, ("c1*x1**", "c1*x1)")),
         (REJECTED, ("c1*exp(x1)", "c1*log(x1)")),
         (MISSING, ("c1+c2", "c1"))),
)

INTROS = (
    "Looking at the data, y grows faster than linearly with x1.",
    "The feedback suggests trying a saturating form and a power law.",
    "Let me think step by step about the scaling of y with the inputs.",
    "A few diverse candidates, from simple to more flexible.",
    "The residuals of the best expression so far look systematic.",
)


def _spell(rng: random.Random, text: str, dialect: str) -> str:
    if dialect == "infix" and rng.random() < 0.25:
        return "y = " + text
    return text


def _lines(rng: random.Random, pool: Pool) -> list[tuple[Line, int | None]]:
    """All planted lines of one batch; the int names the line a duplicate follows."""
    out: list[tuple[Line, int | None]] = []
    models = ([pool.target] if pool.target else []) + list(pool.decoys)
    for model in models:
        is_target = model is pool.target
        text = _spell(rng, rng.choice(model.spellings), pool.dialect)
        line = Line(text, model.status, model.infix, model.basis, is_target)
        out.append((line, None))
        if model.repeats:
            rep = _spell(rng, rng.choice(model.repeats), pool.dialect)
            out.append((Line(rep, DUPLICATE, target=is_target), len(out) - 1))
    for status, spellings in pool.bad:
        out.append((Line(rng.choice(spellings), status), None))
    return out


def _arrange(rng: random.Random, planted, iterations: int, n: int,
             target_iteration: int | None, one_fit_per_iteration: bool) -> list[list[Line]]:
    """Place the planted lines in iterations x n slots. Rejection sampling keeps
    the rules plain: the target sits in its planted iteration, every duplicate
    comes after the line it repeats, and (for the live endpoint) each iteration
    adds exactly one new fitted model."""
    if len(planted) != iterations * n:
        raise ValueError(f"{len(planted)} planted lines for {iterations}x{n} slots")
    for _ in range(100_000):
        order = list(range(len(planted)))
        rng.shuffle(order)
        slot = {line_idx: s for s, line_idx in enumerate(order)}
        ok = all(slot[i] > slot[o] for i, (_, o) in enumerate(planted) if o is not None)
        if ok and target_iteration is not None:
            t = next(i for i, (ln, o) in enumerate(planted) if ln.target and o is None)
            ok = slot[t] // n + 1 == target_iteration
        if ok and one_fit_per_iteration:
            fits = [slot[i] // n for i, (ln, _) in enumerate(planted) if ln.status == FITTED]
            ok = sorted(fits) == list(range(iterations))
        if ok:
            lines = [planted[i][0] for i in order]
            return [lines[k * n:(k + 1) * n] for k in range(iterations)]
    raise RuntimeError("no arrangement satisfies the planting rules")


def _response(rng: random.Random, lines: list[Line]) -> str:
    style = rng.choice(["plain", "numbered", "dash", "tick"])
    body = []
    for k, ln in enumerate(lines, start=1):
        if style == "numbered":
            body.append(f"{k}. {ln.text}")
        elif style == "dash":
            body.append(f"- {ln.text}")
        elif style == "tick":
            body.append(f"`{ln.text}`")
        else:
            body.append(ln.text)
    return "\n".join([rng.choice(INTROS), "", BEGIN, *body, END])


def _batch(rng: random.Random, pool: Pool, iterations: int, n: int, runs: int,
           policy: str = "standard", operators: str = "easy", fit: dict | None = None,
           one_fit_per_iteration: bool = False) -> Batch:
    planted = _lines(rng, pool)
    target_iteration = rng.randint(2, iterations) if pool.target else None
    its = _arrange(rng, planted, iterations, n, target_iteration, one_fit_per_iteration)
    return Batch(
        dataset=pool.dataset, dialect=pool.dialect, policy=policy, operators=operators,
        runs=runs, n_expressions=n, iterations=its,
        responses=[_response(rng, lines) for lines in its],
        target_iteration=target_iteration, fit=dict(fit or {}),
    )


WORKLOADS = ("capped_fits", "converging_fits", "live_endpoint")


def make_batches(workload: str, seed: int) -> list[Batch]:
    """The batches a workload runs each round; the same seed gives the same batches."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "capped_fits":
        # max_evals 1000 keeps a round short; the default 25 hops stay, so the
        # share of evaluations spent in capped solves is as at the default cap
        return [_batch(rng, BODE, 3, 3, runs=1, operators="hard",
                       fit={"max_evals": 1000})]
    if workload == "converging_fits":
        return [
            _batch(rng, HUBBLE, 3, 3, runs=1),
            _batch(rng, KEPLER, 3, 3, runs=1),
            _batch(rng, LANGMUIR, 3, 3, runs=1),
            _batch(rng, DUAL_SITE, 3, 3, runs=1, policy="top5"),
            _batch(rng, NIKURADSE, 3, 3, runs=1),
        ]
    if workload == "live_endpoint":
        return [_batch(rng, LIVE, 4, 2, runs=3, one_fit_per_iteration=True)]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(batches: list[Batch], directory: Path, endpoint: str | None = None) -> list[Path]:
    """Write one transcript and one INI file per batch; returns the INI paths.
    With an endpoint, batches talk to it over HTTP instead of a transcript."""
    directory.mkdir(parents=True, exist_ok=True)
    inis = []
    for b in batches:
        if endpoint is None:
            transcript = directory / f"{b.dataset}.transcript.txt"
            transcript.write_text("\n%%%\n".join(b.responses) + "\n")
            backend = {"kind": "scripted", "transcript": str(transcript)}
        else:
            backend = {"kind": "http", "endpoint": endpoint, "model": "stub-model",
                       "key_env_var": STUB_KEY_ENV, "timeout": 30}
        ini = directory / f"{b.dataset}.ini"
        ini.write_text(b.ini_text(backend))
        inis.append(ini)
    return inis
