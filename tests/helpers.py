"""Shared test utilities: random expression trees, an independent scalar
evaluation oracle, the reference closure evaluator, simplex and basin
hopping, small ad-hoc datasets, and scripted model replies and transcripts."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from operator import add
from pathlib import Path

import numpy as np

from srloop import expressions
from srloop.data import Dataset
from srloop.expressions import Binary, Const, Dialect, Expression, Lit, Unary, Var, render
from srloop.llm import TRANSCRIPT_DELIMITER
from srloop.optimize import _mse_of
from srloop.pareto import Candidate
from srloop.parsing import parse

# in table order, which fixes what a seeded tree draws (tools/fit_digest.py relies on it)
UNARY_CHOICES = list(expressions.UNARY_OPERATORS)
BINARY_CHOICES = list(expressions.BINARY_OPERATORS)


def random_node(rng: random.Random, n_vars: int = 2, max_depth: int = 4,
                allow_pow: bool = True, depth: int = 0, free_exponents: bool = False):
    """A random tree. Exponents are literals or constants; with
    ``free_exponents`` a third of them are random subtrees instead."""
    def child():
        return random_node(rng, n_vars, max_depth, allow_pow, depth + 1, free_exponents)

    if depth >= max_depth or (depth > 0 and rng.random() < 0.35):
        roll = rng.random()
        if roll < 0.45:
            return Const(rng.randint(1, 3))
        return Var(rng.randint(1, n_vars))
    roll = rng.random()
    if roll < 0.25:
        op = rng.choice(UNARY_CHOICES)
        return Unary(op, child())
    op = rng.choice(BINARY_CHOICES if allow_pow else BINARY_CHOICES[:4])
    if op == "^":
        if free_exponents and rng.random() < 1 / 3:
            exponent = child()
        elif rng.random() < 0.6:
            exponent = Lit(float(rng.choice([2, 3, 0.5, 1.5, -1])))
        else:
            exponent = Const(rng.randint(1, 3))
        return Binary("^", child(), exponent)
    return Binary(op, child(), child())


def random_expression(rng: random.Random, n_vars: int = 2, max_depth: int = 4,
                      allow_pow: bool = True) -> Expression:
    """A random expression normalized through parse(render(.)) so constant
    indices follow the left-to-right convention the parser guarantees."""
    raw = Expression(random_node(rng, n_vars, max_depth, allow_pow))
    variables = [f"x{i + 1}" for i in range(n_vars)]
    return parse(render(raw), Dialect.INFIX, variables)


# what a mutation puts into model text: LaTeX commands, literals out of a
# float's range, a Unicode minus, '=', braces and the infix vocabulary
# (in this order, which fixes what a seeded mutation draws: tools/parse_digest.py relies on it)
SOUP = ["\\frac", "\\sqrt", "\\cdot", "\\times", "\\left(", "\\right)", "\\exp", "\\ln",
        "\\alpha", "$", "{", "}", "(", ")", "=", "y =", "1e400", "1e308", "1e-400", "nan",
        "inf", "\u2212", "**", "^", "-", "+", "*", "/", ",", "_", "x1", "x_{2}", "c1", "c_3",
        "sqrt(", "log", "ln(", "exp", "pi", "e", "0", "2.5", ".5", "1/0", " "]


def mutate(rng: random.Random, text: str, edits: int = 3) -> str:
    """``text`` after 1 to ``edits`` random edits, each deleting a character,
    replacing one with a token of SOUP, or inserting a token of SOUP."""
    for _ in range(rng.randint(1, edits)):
        pos = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 1 / 3:
            text = text[:pos] + text[pos + 1:]
        elif roll < 2 / 3:
            text = text[:pos] + rng.choice(SOUP) + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(SOUP) + text[pos:]
    return text


def token_soup(rng: random.Random, n: int = 8) -> str:
    """``n`` tokens of SOUP, run together or spaced at random."""
    return "".join(rng.choice(SOUP) + rng.choice(["", " "]) for _ in range(n))


def oracle_eval(node, params, row):
    """Independent brute-force tree walk with explicit Undefined (None) handling."""
    if isinstance(node, Const):
        return float(params[node.index - 1])
    if isinstance(node, Var):
        return float(row[node.index - 1])
    if isinstance(node, Lit):
        return float(node.value)
    if isinstance(node, Unary):
        v = oracle_eval(node.child, params, row)
        if v is None:
            return None
        try:
            if node.op == "sqrt":
                if v < 0:
                    return None
                out = math.sqrt(v)
            elif node.op == "log":
                if v <= 0:
                    return None
                out = math.log(v)
            elif node.op == "exp":
                out = math.exp(v)
            elif node.op == "square":
                out = v * v
            elif node.op == "cube":
                out = v * v * v
            elif node.op == "neg":
                out = -v
            else:
                raise AssertionError(node.op)
        except OverflowError:
            return None
        return out if math.isfinite(out) else None
    left = oracle_eval(node.left, params, row)
    right = oracle_eval(node.right, params, row)
    if left is None or right is None:
        return None
    try:
        if node.op == "+":
            out = left + right
        elif node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        elif node.op == "/":
            if right == 0:
                return None
            out = left / right
        elif node.op == "^":
            out = left**right
        else:
            raise AssertionError(node.op)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if isinstance(out, complex):
        return None
    return out if math.isfinite(out) else None


def oracle_evaluator(e: Expression):
    """The closure-tree evaluator ``expressions`` compiled each tree to before
    its flat compiler: every site is guarded on every call by setting its
    non-finite values to NaN, and each ^ result is NaN wherever it or a
    tested operand is. Returns ``f(params, X)`` as ``compile_evaluator``
    does."""

    def guard(v):
        return np.where(np.isfinite(v), v, np.nan)

    def is_raw(n):
        while isinstance(n, Unary) and n.op == "neg":
            n = n.child
        return isinstance(n, (Const, Var, Lit))

    def pow_operand_test(n):
        if isinstance(n, Lit) and not math.isnan(n.value):
            return None
        return np.isnan if is_raw(n) else (lambda v: ~np.isfinite(v))

    def node(n, guarded=False):
        if isinstance(n, Const):
            i = n.index - 1
            return lambda p, X: p[i]
        if isinstance(n, Var):
            j = n.index - 1
            return lambda p, X: X[:, j]
        if isinstance(n, Lit):
            v = float(n.value)
            return lambda p, X: v
        fn = op(n)
        if guarded and not is_raw(n):
            return lambda p, X: guard(fn(p, X))
        return fn

    def op(n):
        if isinstance(n, Unary):
            f, c = expressions.UNARY_OPERATORS[n.op], node(n.child, guarded=n.op == "exp")
            return lambda p, X: f(c(p, X))
        f = expressions.BINARY_OPERATORS[n.op]
        lf, rf = node(n.left), node(n.right, guarded=n.op == "/")
        if n.op != "^":
            return lambda p, X: f(lf(p, X), rf(p, X))
        ta, tb = pow_operand_test(n.left), pow_operand_test(n.right)

        def pw(p, X):
            a, b = lf(p, X), rf(p, X)
            r = f(a, b)
            bad = ~np.isfinite(r)
            if ta is not None:
                bad = bad | ta(a)
            if tb is not None:
                bad = bad | tb(b)
            return np.where(bad, np.nan, r)
        return pw

    fn = node(e.root)

    def evaluator(params, X):
        X = np.asarray(X, dtype=float)
        out = np.asarray(fn(np.asarray(params, dtype=float), X), dtype=float)
        if out.ndim == 0:
            out = np.full(X.shape[0], float(out))
        return out

    return evaluator


def mse_objective(e: Expression, X, y):
    """The objective ``fit`` minimizes for ``e`` on rows ``X`` and target
    ``y``: ``_mse_of`` over the single-point and the batched form of
    ``compile_evaluator`` for ``X``. Call it under ``np.errstate``."""
    X = np.asarray(X, dtype=float)
    return _mse_of(expressions.compile_evaluator(e, X),
                   expressions.compile_evaluator(e, X, batched=True), X,
                   np.asarray(y, dtype=float))


def oracle_nelder_mead(func, x0, max_evals: int, tol: float = 1e-8):
    """The simplex of ``optimize.nelder_mead`` at the default coefficients,
    with neither its memo nor its cycle skip: every point is a call of
    ``func``. Returns the same ``(x, fval, evals, converged)``."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        v = float(func(np.array(x, dtype=float)))
        return v if math.isfinite(v) else math.inf

    with np.errstate(all="ignore"):
        if n == 0:
            return x0, call(x0), evals, True
        sim = [x0.tolist()]
        for i in range(n):
            y = list(sim[0])
            y[i] = y[i] * 1.05 if y[i] != 0 else 0.00025
            sim.append(y)
        fsim = [call(x) for x in sim]
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        converged = False
        while evals + 2 <= max_evals:
            if fsim[-1] - fsim[0] <= tol and all(
                abs(v - b) <= tol for row in sim[1:] for v, b in zip(row, sim[0])
            ):
                converged = True
                break
            centroid = sim[0]
            for row in sim[1:n]:
                centroid = list(map(add, centroid, row))
            centroid = [c / n for c in centroid]
            worst = sim[-1]
            xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
            fr = call(xr)
            if fr < fsim[0]:
                xe = [c + gamma * (r - c) for c, r in zip(centroid, xr)]
                fe = call(xe)
                x, f = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fsim[-2]:
                x, f = xr, fr
            else:
                if fr < fsim[-1]:
                    x = [c + rho * (r - c) for c, r in zip(centroid, xr)]
                    f = call(x)
                    accepted = f <= fr
                else:
                    x = [c + rho * (w - c) for c, w in zip(centroid, worst)]
                    f = call(x)
                    accepted = f < fsim[-1]
                if not accepted:
                    best = sim[0]
                    for i in range(1, n + 1):
                        sim[i] = [b + sigma * (v - b) for b, v in zip(best, sim[i])]
                        fsim[i] = call(sim[i])
                        if evals >= max_evals:
                            break
                    order = sorted(range(n + 1), key=fsim.__getitem__)
                    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
                    continue
            k = bisect_right(fsim, f, 0, n)
            del sim[-1], fsim[-1]
            sim.insert(k, x)
            fsim.insert(k, f)
    return np.array(sim[0]), fsim[0], evals, converged


def oracle_minimize(func, x0, cfg, improved: list | None = None,
                    committed: list | None = None):
    """``optimize.minimize`` as it was before its hops ran in lockstep: one
    hop after another, each perturbation drawn as the hop starts, every
    objective value from a call of ``func`` on one point. It stops after
    ``cfg.patience`` idle hops in a row, when that is not 0: hops that leave
    a finite best lower by no more than ``IDLE_GAIN`` times its magnitude.
    Appends the index of each hop that improves to ``improved``, and of each
    hop run to ``committed``, when given."""
    from srloop.optimize import IDLE_GAIN, nelder_mead

    rng = np.random.default_rng(cfg.seed)
    best_x, best_f, evals, converged = nelder_mead(func, x0, cfg)
    n = np.size(x0)
    idle = 0
    if n:
        for hop in range(cfg.hops):
            if cfg.patience and idle == cfg.patience:
                break
            trial = best_x + cfg.step_scale * rng.standard_normal(n)
            x, fv, ev, conv = nelder_mead(func, trial, cfg)
            evals += ev
            if committed is not None:
                committed.append(hop)
            if math.isfinite(best_f) and best_f - fv <= IDLE_GAIN * abs(best_f):
                idle += 1
            else:
                idle = 0
            if fv < best_f:
                best_x, best_f, converged = x, fv, conv
                if improved is not None:
                    improved.append(hop)
    return best_x, best_f, evals, converged


class OracleStore:
    """The candidate store ``pareto`` had before it kept one dict: a list of
    candidates and a dict of positions into it by canonical tree, a hand-rolled
    group-by for the front and a list plus an ``id`` set for the selection."""

    def __init__(self):
        self._items: list[Candidate] = []
        self._by_canonical: dict = {}

    def insert(self, cand: Candidate) -> bool:
        key = cand.canonical.root
        pos = self._by_canonical.get(key)
        if pos is None:
            self._by_canonical[key] = len(self._items)
            self._items.append(cand)
            return True
        if cand.mse < self._items[pos].mse:
            self._items[pos] = cand
            return True
        return False

    def pareto_front(self) -> list[Candidate]:
        finite = [c for c in self._items if math.isfinite(c.mse)]
        finite.sort(key=lambda c: (c.complexity, c.mse, c.iteration_born))
        front: list[Candidate] = []
        best = math.inf
        i = 0
        while i < len(finite):
            j = i
            while j < len(finite) and finite[j].complexity == finite[i].complexity:
                j += 1
            group_min = finite[i].mse
            if group_min < best:
                front.extend(c for c in finite[i:j] if c.mse == group_min)
                best = group_min
            i = j
        return front

    def select_feedback(self, policy) -> list[Candidate]:
        finite = [c for c in self._items if math.isfinite(c.mse)]
        if policy.kind == "top_k":
            chosen = sorted(finite, key=lambda c: (c.mse, c.complexity, c.iteration_born))
            chosen = chosen[: policy.k]
        else:
            if len(finite) <= policy.min_count:
                chosen = list(finite)
            else:
                chosen = list(self.pareto_front())
                picked = set(id(c) for c in chosen)
                by_mse = sorted(finite, key=lambda c: (c.mse, c.complexity, c.iteration_born))
                for c in by_mse:
                    if len(chosen) >= policy.min_count:
                        break
                    if id(c) not in picked:
                        chosen.append(c)
                        picked.add(id(c))
                newest = sorted(finite, key=lambda c: -c.iteration_born)[:2]
                for c in newest:
                    if id(c) not in picked:
                        chosen.append(c)
                        picked.add(id(c))
        return sorted(chosen, key=lambda c: (-c.mse, c.complexity, c.equation))


def reply(*exprs: str, scratchpad: str = "scratchpad: looking at trends.") -> str:
    """A scripted model response carrying the given candidate lines."""
    from srloop.prompts import BEGIN_MARKER, END_MARKER

    return "\n".join([scratchpad, BEGIN_MARKER, *exprs, END_MARKER])


def write_transcript(entries: list[str], path) -> None:
    """Write turns in the transcript file format (delimiter line between turns)."""
    lines = []
    for entry in entries:
        lines.append(entry.rstrip("\n"))
        lines.append(TRANSCRIPT_DELIMITER)
    Path(path).write_text("\n".join(lines) + "\n")


def candidate(expr: Expression, mse: float, mae: float | None = None,
              complexity: int | None = None, born: int = 1, params=()) -> Candidate:
    """A store candidate for ``expr``; ``mae`` defaults to ``mse`` and
    ``complexity`` to the expression's node count."""
    return Candidate(
        expr=expr, canonical=expressions.canonicalize(expr), params=tuple(params),
        mse=mse, mae=mse if mae is None else mae,
        complexity=expressions.complexity(expr) if complexity is None else complexity,
        iteration_born=born,
    )


def make_dataset(X, y, dataset_id: str = "adhoc", **kwargs) -> Dataset:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and np.asarray(y).size > 1:
        X = X.T
    variables = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return Dataset(
        id=dataset_id, variables=variables, X=X,
        y=np.asarray(y, dtype=float), **kwargs,
    )
