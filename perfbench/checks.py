"""Output checks made apart from the program.

The benchmark reads srloop's run logs and CSV outputs as plain files and
recomputes what they claim with its own evaluator: a whitelist walk over
Python's ``ast`` evaluated with NumPy. Nothing here calls srloop, so a fault
in srloop's parser, evaluator or store cannot hide itself.
"""

from __future__ import annotations

import ast
import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import FITTED, UNFITTABLE, Batch, Line

_FUNCS = {
    "sqrt": np.sqrt,
    "log": np.log,
    "exp": np.exp,
    "square": lambda v: v * v,
    "cube": lambda v: v * v * v,
}
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant, ast.Load,
          ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def compile_model(text: str):
    """``f(params, X)`` for an infix model over c1..cK and x1..xN."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _NODES):
            raise ValueError(f"{text!r}: {type(node).__name__} is not allowed")
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in _FUNCS and len(node.args) == 1
        ):
            raise ValueError(f"{text!r}: unknown call")
        if isinstance(node, ast.Name) and node.id not in _FUNCS and not (
            node.id[0] in "cx" and node.id[1:].isdigit()
        ):
            raise ValueError(f"{text!r}: unknown name {node.id!r}")
    code = compile(tree, "<model>", "eval")

    def f(params, X):
        env = dict(_FUNCS)
        env.update({f"c{i + 1}": float(p) for i, p in enumerate(params)})
        env.update({f"x{j + 1}": X[:, j] for j in range(X.shape[1])})
        with np.errstate(all="ignore"):
            out = eval(code, {"__builtins__": {}}, env)  # names and nodes whitelisted above
        return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],))

    return f


def mse(text: str, params, X, y) -> float:
    resid = compile_model(text)(params, X) - y
    if not np.all(np.isfinite(resid)):
        return math.inf
    return float(np.mean(resid * resid))


def lstsq_mse(basis: tuple[str, ...], X, y) -> float:
    cols = [compile_model(b)((), X) for b in basis]
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ coef - y
    return float(np.mean(resid * resid))


def read_log(path) -> dict:
    header, iterations, summary = None, [], None
    for raw in Path(path).read_text().splitlines():
        if not raw.strip():
            continue
        obj = json.loads(raw)
        if obj["type"] == "header":
            header = obj
        elif obj["type"] == "iteration":
            iterations.append(obj)
        elif obj["type"] == "summary":
            summary = obj
    if header is None or summary is None:
        raise ValueError(f"{path}: incomplete run log")
    return {"header": header, "iterations": iterations, "summary": summary}


def _logged_mse(v) -> float:
    return math.inf if v is None else float(v)


def check_log(log: dict, batch: Batch, X, y) -> list[str]:
    """Statuses of every planted line, and the stored candidates' MSEs."""
    problems = []
    if len(log["iterations"]) != len(batch.iterations):
        return [f"{len(log['iterations'])} iterations logged, {len(batch.iterations)} planned"]
    source: dict[tuple[int, str], Line] = {}  # (iteration, equation) -> planted line
    for rec, planted in zip(log["iterations"], batch.iterations):
        k = rec["index"]
        outcomes = rec["outcomes"]
        if [o["text"] for o in outcomes] != [ln.text for ln in planted]:
            problems.append(f"iteration {k}: extracted {[o['text'] for o in outcomes]}, "
                            f"planted {[ln.text for ln in planted]}")
            continue
        evaluated = []
        for o, ln in zip(outcomes, planted):
            if o["status"] != ln.status:
                problems.append(f"iteration {k}: {ln.text!r} got {o['status']}, "
                                f"expected {ln.status}")
            if o["status"] in (FITTED, UNFITTABLE):
                evaluated.append(ln)
        if len(evaluated) != len(rec["candidates"]):
            problems.append(f"iteration {k}: {len(rec['candidates'])} candidates for "
                            f"{len(evaluated)} evaluated lines")
            continue
        for cand, ln in zip(rec["candidates"], evaluated):
            source[(k, cand["equation"])] = ln
    for cand in log["summary"]["store"]:
        eq, params = cand["equation"], cand["params"]
        logged = _logged_mse(cand["mse"])
        ours = mse(eq, params, X, y)
        if not (ours == logged or math.isclose(ours, logged, rel_tol=1e-9)):
            problems.append(f"{eq}: logged MSE {logged!r}, recomputed {ours!r}")
        ln = source.get((cand["iteration"], eq))
        if ln is None or ln.infix is None:  # a wrong status, reported above
            problems.append(f"{eq}: stored, but no planted model was fitted as it")
            continue
        start = mse(ln.infix, [1.0] * len(params), X, y)
        if logged > start * (1 + 1e-12):
            problems.append(f"{eq}: fitted MSE {logged!r} worse than {start!r} at the initial guess")
        if ln.basis:
            best = lstsq_mse(ln.basis, X, y)
            if not math.isclose(logged, best, rel_tol=1e-6):
                problems.append(f"{eq}: fitted MSE {logged!r}, least-squares optimum {best!r}")
    return problems


def check_score(path, batch: Batch) -> list[str]:
    """The planted target is found at its planted iteration in every run, never earlier."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["iteration", "count"]:
        return [f"{path}: unexpected header {rows[0]}"]
    got = [(int(i), int(n)) for i, n in rows[1:]]
    want = [(i, batch.runs if i >= batch.target_iteration else 0)
            for i in range(1, len(batch.iterations) + 1)]
    return [] if got == want else [f"score {got}, expected {want}"]


def pareto_front(points) -> set[tuple[int, float, str]]:
    """Points not dominated in (complexity, mse); equal points are all kept."""
    points = set(points)
    return {
        p for p in points
        if not any(q[0] <= p[0] and q[1] <= p[1] and (q[0], q[1]) != (p[0], p[1])
                   for q in points)
    }


def _store_points(log: dict):
    return [(c["complexity"], float(c["mse"]), c["equation"])
            for c in log["summary"]["store"] if c["mse"] is not None]


def _read_front(path) -> set[tuple[int, float, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {(int(c), float(m), eq) for c, m, eq in rows[1:]}


def check_pareto(outdir: Path, logs: list[dict]) -> list[str]:
    """pareto_runNN.csv and pareto_total.csv against fronts computed from the logs."""
    problems = []
    union = []
    for i, log in enumerate(logs, start=1):
        points = _store_points(log)
        union.extend(points)
        if _read_front(outdir / f"pareto_run{i:02d}.csv") != pareto_front(points):
            problems.append(f"pareto_run{i:02d}.csv is not the front of run {i}")
    total = _read_front(outdir / "pareto_total.csv")
    if total != pareto_front(union):
        problems.append(f"pareto_total.csv {sorted(total)} != {sorted(pareto_front(union))}")
    return problems

