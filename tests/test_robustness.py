"""Seeded checks of the promises srloop makes about model text.

The parser either refuses a text with an ExpressionError or returns a tree
that survives render -> parse. A run fed mutated replies never aborts and
never hits a defect, stores only candidates that re-parse to their canonical
tree, and saves a log that replays with no divergence and exports a front."""

import random

from helpers import SOUP, mutate, random_expression, random_node, reply, token_soup

from srloop.cli import main
from srloop.data import builtin_ids, load_builtin
from srloop.engine import RunConfig, diff_replay, load_runlog_data, replay, run, save_runlog
from srloop.expressions import Dialect, Expression, ExpressionError, canonicalize, render
from srloop.llm import ScriptedBackend
from srloop.optimize import FitConfig
from srloop.parsing import parse
from srloop.prompts import PromptConfig

VARIABLES = ["x1", "x2"]
EXTREMES = [
    "x1" + "+x1" * 100,  # 201 nodes
    "(" * 150 + "x1" + ")" * 150,  # 150 deep
    "x1**-(1/2)", "x1**(1/0)", "x1**((-8)**(1/3))", "x1**(1e308*10)", "1e400*x1",
    "\u2212x1", "y = c1*x1 = x1", "{x1}+c1", "\\frac{c_1}{x_1}^{2}",
]


def texts(rng: random.Random, n: int):
    """``n`` renders of random trees, a mutation of each, and ``n`` token soups."""
    for i in range(n):
        text = render(Expression(random_node(rng, free_exponents=i % 2 == 1)))
        yield text
        yield mutate(rng, text)
        yield token_soup(rng, rng.randint(1, 12))


def test_parse_refuses_or_round_trips():
    rng = random.Random(13)
    parsed = 0
    for text in [*texts(rng, 1000), *EXTREMES, *SOUP]:
        for dialect in Dialect:
            try:
                e = parse(text, dialect, VARIABLES)
            except ExpressionError:
                continue
            parsed += 1
            assert parse(render(e), Dialect.INFIX, VARIABLES).root == e.root, (text, dialect)
    assert parsed > 2000  # most renders parse, so the round trip is checked, not skipped


def mutated_reply(rng: random.Random, n_vars: int) -> str:
    """A reply of 1 to 4 proposals, most of them mutated; now and then the
    mutation hits the reply around them."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        text = render(random_expression(rng, n_vars=n_vars, max_depth=3))
        lines.append(mutate(rng, text) if rng.random() < 0.7 else text)
    text = reply(*lines)
    return mutate(rng, text) if rng.random() < 0.1 else text


def test_mutated_replies_never_break_a_run(tmp_path):
    rng = random.Random(29)
    datasets = {name: load_builtin(name) for name in builtin_ids()}
    logs = {name: [] for name in datasets}
    for i in range(100):
        name = sorted(datasets)[i % len(datasets)]
        dataset = datasets[name]
        variables = list(dataset.variables)
        dialect = list(Dialect)[i // len(datasets) % 2]
        cfg = RunConfig(dataset=name, iterations=3, runs=1, seed=i,
                        prompt=PromptConfig(dialect=dialect),
                        fit=FitConfig(hops=1, max_evals=100, seed=i))
        # two replies per iteration, for a reply with no proposal and its retry
        entries = [mutated_reply(rng, len(variables)) for _ in range(6)]
        log = run(cfg, dataset=dataset, backend=ScriptedBackend(entries))
        defects = [o for rec in log.records for o in rec.outcomes if o.status == "internal_error"]
        assert not defects, defects
        for cand in log.store:
            again = canonicalize(parse(cand.equation, Dialect.INFIX, variables))
            assert again.root == cand.canonical.root, cand.equation
        path = tmp_path / f"run{i:03d}.jsonl"
        save_runlog(log, path)
        log_data = load_runlog_data(path)
        assert diff_replay(log_data, replay(log_data, dataset=dataset)) == [], path.name
        logs[name].append(str(path))
    for name, paths in logs.items():
        assert main(["pareto", *paths, "--out", str(tmp_path / name)]) == 0, name
