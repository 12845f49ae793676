"""Constant fitting: one least-squares solve when every constant is linear,
else a Nelder-Mead simplex inside a strict-descent basin-hopping loop.

A candidate whose every constant scales one top-level term of a sum
(``linear_terms``) has a closed-form optimum: ``fit`` solves it with one
``numpy.linalg.lstsq`` call over the terms' columns, unless
``FitConfig.solve_linear`` is off (as it is for logs written before that
path existed, so they replay with the simplex).

The local method is implemented here rather than borrowed because the simplex
coefficients are part of the public fit configuration and the hopping
acceptance rule is strictly-better-only (no Metropolis temperature), which
together with a seeded generator makes every fit bit-reproducible.

The simplex is one generator that asks for one point at a time. It is
generated as source and compiled once per number of coordinates, on the
first solve of that dimension, with each coordinate a local of its own; the
source holds only names and indices made from that number. ``nelder_mead``
drives one of them with a scalar objective; ``minimize`` drives
``HOP_WINDOW`` basin hops in lockstep, one batched objective call per
round, and commits them in hop order, so a fit's hops, result and
evaluation count are those of running the hops one by one. A hop is
accepted only when it is lower and not idle (see ``IDLE_GAIN``), and no
more hops start once ``FitConfig.patience`` committed hops in a row have
been idle, so such a fit is the one with fewer hops and no patience.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .expressions import (
    MAX_CONSTANTS,
    Binary,
    Const,
    Expression,
    Node,
    Unary,
    compile_evaluator,
    walk,
)


class NoFiniteObjectiveError(RuntimeError):
    """No parameter vector ever produced a finite loss; the candidate is unfittable."""


class TooManyConstantsError(ValueError):
    """Expression exceeds the fitted-constant cap."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fit: hop count, perturbation scale, simplex coefficients,
    evaluation budget per local solve, convergence tolerance, seeding,
    whether a candidate linear in every constant is solved by least squares
    (``solve_linear``; the simplex knobs then go unused), after how many
    idle hops in a row basin hopping stops (``patience``; 0 runs every hop),
    and whether an idle hop that is lower at all is accepted
    (``accept_idle``, the rule before idle hops were skipped). A log
    written before one of these keys existed replays with the value fits
    had before it: ``solve_linear`` and ``patience`` off, ``accept_idle``
    on."""

    hops: int = 25
    step_scale: float = 1.0
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    max_evals: int = 10000
    tol: float = 1e-8
    seed: int = 0
    refits: int = 1
    solve_linear: bool = True
    patience: int = 10
    accept_idle: bool = False

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be a positive integer")
        # each test is one that NaN fails, and the upper bounds refuse inf
        if not 0 < self.step_scale < math.inf:
            raise ValueError(f"step_scale must be positive and finite, not {self.step_scale}")
        if not 0 < self.reflection < math.inf:
            raise ValueError(f"reflection coefficient must be > 0 and finite, not {self.reflection}")
        if not 1 < self.expansion < math.inf:
            raise ValueError(f"expansion coefficient must be > 1 and finite, not {self.expansion}")
        if not 0 < self.contraction < 1:
            raise ValueError("contraction coefficient must be in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink coefficient must be in (0, 1)")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, not {self.tol}")
        if self.refits < 1:
            raise ValueError("refits must be >= 1")
        if self.seed < 0:
            raise ValueError(f"fit seed must be >= 0, not {self.seed}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0 (0 turns it off), not {self.patience}")


@dataclass(frozen=True)
class FitResult:
    """The fitted constants, in index order, with the MSE and MAE over all
    rows at them. ``evals`` counts objective evaluations and ``converged``
    tells whether the best solve met ``tol``; a least-squares fit makes no
    evaluation and is exact, so it reports ``evals=0, converged=True``."""

    params: tuple[float, ...]
    mse: float
    mae: float
    evals: int
    converged: bool


#: Basin hops that ``minimize`` runs at once, in lockstep. A wider window
#: makes fewer, larger objective calls but drops more work when an early hop
#: improves; of 4, 5 and 6, 6 fitted the benchmark's fits fastest.
HOP_WINDOW = 6

#: A committed hop is idle when the best value is finite and the hop does not
#: lower it by more than this fraction of its magnitude: gains of rounding
#: alone neither keep basin hopping going nor, unless ``accept_idle``, replace
#: the incumbent. A hop at an infinite best is never idle, so a fit that has
#: found no finite point yet runs every hop.
IDLE_GAIN = 1e-12


def nelder_mead(func, x0, cfg: FitConfig):
    """One downhill-simplex run from x0.

    Returns ``(x, fval, evals, converged)``. Infinite objective values are
    legal and simply lose comparisons, so undefined regions are never
    attractive. ``func`` runs under ``np.errstate(all="ignore")``, entered
    once for the whole solve, and is given a float64 array.

    ``func`` must be a pure function of ``x``: a point already evaluated in
    this solve (same float64 bytes, so -0.0 and 0.0 differ) gets its stored
    value instead of a second call. A remembered point still counts toward
    ``evals`` and ``cfg.max_evals``, so both are as if every point were
    evaluated. A simplex that returns to an earlier state with no new point
    would repeat that cycle until the budget, so whole cycles are skipped by
    adding their evaluations to ``evals``: the result is the same.
    The simplex is a generator compiled once per process for x0's dimension
    (see ``_simplex``); ``minimize`` runs the same one on its hops, several
    at once. Its source holds only names and indices made from the
    dimension, and it keeps the float operations of the NumPy form in their
    order (the centroid summed row by row, never by ``sum()``), so its
    results are bit for bit those of that form.
    """
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(all="ignore"):
        solve = _simplex(x0.size)(x0.tolist(), cfg)
        try:
            x = next(solve)
            while True:
                x = solve.send(_finite(float(func(np.array(x, dtype=float)))))
        except StopIteration as done:
            return done.value


def _finite(v: float) -> float:
    return v if math.isfinite(v) else math.inf


@functools.cache
def _simplex(n: int):
    """The simplex of ``nelder_mead`` on n coordinates, compiled on its first
    use: a generator function ``simplex(x0, cfg)`` over a list of n floats.
    It yields each point (a tuple of floats) whose value it needs, is sent
    that value (a float, inf where not finite), and returns ``(x, fval,
    evals, converged)``. Points found in its memo are not yielded. Two
    threads may both compile an n; either function is correct."""
    ns = {"key": struct.Struct(f"{n}d").pack, "array": np.array, "bisect_right": bisect_right,
          "nonzero_step": 1.05, "zero_step": 0.00025}
    exec(compile(_source(n), f"<srloop simplex {n}>", "exec"), ns)
    return ns["simplex"]


# The simplex as source, for _source to fill in. Its coordinates are written
# out one statement or term each: {v0} is the tuple of locals v0_0, v0_1, ...
# that holds vertex 0 (the best), {centroid} the statements c0 = ..., c1 =
# ..., and so on.
_START = """\
def simplex(x0, cfg):
    alpha, gamma, rho, sigma = cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink
    tol, max_evals = cfg.tol, cfg.max_evals
    evals = 0
    seen = {{}}  # float64 bytes of a point -> its value
    {v0} = x0
    sim = [{vertices}]
    fsim = []
    for x in sim:
        evals += 1
        f = seen.get(k := key(*x))
        if f is None:
            f = seen[k] = yield x
        fsim.append(f)
"""
_STEPS = """\
    order = sorted(range({n1}), key=fsim.__getitem__)
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    converged = False
    # func is pure and each fsim[i] is its value at sim[i], so the loop body
    # is a function of the vertices' bytes: a state that comes back repeats
    # with the same period until the budget. States are only looked up over a
    # stretch with no new point (a cycle's second pass has none), and whole
    # periods are skipped on evals. The skipped ones end at or before
    # max_evals - 1, so neither budget test (the while bound, the shrink's
    # break) would have fired inside them.
    states = {{}}  # vertex bytes since the last new point -> evals
    known = len(seen)
    while evals + 2 <= max_evals:
        if len(seen) > known:
            known = len(seen)
            states.clear()
        else:
            state = tuple(key(*row) for row in sim)
            first = states.setdefault(state, evals)
            if first < evals:
                period = evals - first
                evals += (max_evals - 1 - evals) // period * period
                states = {{state: evals}}
                continue
        {vertices} = sim
        # fsim is sorted, so its spread is fsim[-1] - fsim[0]; inf - inf is
        # NaN and NaN <= tol is False, so an all-inf simplex never converges,
        # and neither does one with a NaN coordinate
        if fsim[-1] - fsim[0] <= tol{close}:
            converged = True
            break
        {centroid}
        {reflection}
        xr = {xr}
        evals += 1
        fr = seen.get(k := key({r}))
        if fr is None:
            fr = seen[k] = yield xr
        if fr < fsim[0]:
            {expansion}
            xe = {xe}
            evals += 1
            fe = seen.get(k := key({e}))
            if fe is None:
                fe = seen[k] = yield xe
            x, f = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            x, f = xr, fr
        else:
            outside = fr < fsim[-1]
            if outside:
                {outside}
            else:
                {inside}
            x = {xt}
            evals += 1
            f = seen.get(k := key({t}))
            if f is None:
                f = seen[k] = yield x
            if not (f <= fr if outside else f < fsim[-1]):
                for i in range(1, {n1}):
                    {w} = sim[i]
                    sim[i] = x = {shrunk}
                    evals += 1
                    f = seen.get(k := key(*x))
                    if f is None:
                        f = seen[k] = yield x
                    fsim[i] = f
                    if evals >= max_evals:
                        break
                order = sorted(range({n1}), key=fsim.__getitem__)
                sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
                continue
        # only the worst vertex changed: move it to where a stable sort puts it
        k = bisect_right(fsim, f, 0, {n})
        del sim[-1], fsim[-1]
        sim.insert(k, x)
        fsim.insert(k, f)
    return array(sim[0]), fsim[0], evals, converged
"""


def _source(n: int) -> str:
    """The source of ``_simplex(n)``. It holds only names and indices made
    from n: coefficients and budgets are read from ``cfg`` as it runs, and
    the start's perturbation factors are bound by name.

    Fits must stay bit-identical to those of the NumPy form of the simplex
    (earlier logs and the pinned tests hold its bits), so every point takes
    its operations in NumPy's order: the centroid is a row-by-row sum, left
    to right, then a division by the int n (the order of
    np.add.reduce(sim[:-1], axis=0) / n; never sum(), which Python 3.12 made
    compensated), each trial point is c + coef * (p - c) per coordinate, and
    the vertex order is a stable sort by value. Each point is looked up in
    the memo before it is yielded, and evals counts it either way."""
    J = range(n)

    def tup(items) -> str:
        items = list(items)
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"

    def point(template: str) -> str:  # a tuple of template per coordinate j
        return tup(template.format(j=j) for j in J)

    def each(template: str, indent: int) -> str:  # one statement per coordinate j
        return ("\n" + " " * indent).join(template.format(j=j) for j in J)

    v0 = point("v0_{j}")
    perturbed = (tup(f"v0_{j} * nonzero_step if v0_{j} != 0 else zero_step" if j == i
                     else f"v0_{j}" for j in J) for i in J)
    start = _START.format(v0=v0, vertices=", ".join([v0, *perturbed]))
    if n == 0:
        return start + "    return array(sim[0]), fsim[0], evals, True\n"
    return start + _STEPS.format(
        n=n, n1=n + 1,
        vertices=", ".join(point(f"v{i}_{{j}}") for i in range(n + 1)),
        close="".join(f" and abs(v{i}_{j} - v0_{j}) <= tol" for i in range(1, n + 1) for j in J),
        centroid=each(f"c{{j}} = ({' + '.join(f'v{i}_{{j}}' for i in J)}) / {n}", 8),
        reflection=each(f"r{{j}} = c{{j}} + alpha * (c{{j}} - v{n}_{{j}})", 8),
        expansion=each("e{j} = c{j} + gamma * (r{j} - c{j})", 12),
        outside=each("t{j} = c{j} + rho * (r{j} - c{j})", 16),
        inside=each(f"t{{j}} = c{{j}} + rho * (v{n}_{{j}} - c{{j}})", 16),
        xr=point("r{j}"), r=", ".join(f"r{j}" for j in J),
        xe=point("e{j}"), e=", ".join(f"e{j}" for j in J),
        xt=point("t{j}"), t=", ".join(f"t{j}" for j in J),
        w=point("w{j}"), shrunk=point("v0_{j} + sigma * (w{j} - v0_{j})"))


def minimize(func, x0, cfg: FitConfig):
    """Nelder-Mead plus up to ``cfg.hops`` basin hops: perturb the incumbent
    with a per-coordinate Gaussian of scale ``step_scale``, re-minimize
    locally, and accept only strict improvements that are not idle: a hop
    is idle when the best is finite and the hop lowers it by no more than
    ``IDLE_GAIN`` times its magnitude. With ``cfg.accept_idle`` an idle hop
    that is lower at all is accepted too. Hops at an infinite best are never
    idle. Deterministic given ``cfg.seed``.

    With ``cfg.patience`` > 0, no hop is started once that many committed
    hops in a row have been idle. The perturbations are drawn for all
    ``cfg.hops`` up front, so a fit that stops after h hops is bit for bit
    the fit with ``hops=h, patience=0``.

    The first solve calls ``func`` on one point at a time. The hops run
    ``HOP_WINDOW`` at a time in lockstep: each round evaluates the next point
    of every unfinished hop in one call of ``func.batch`` (a list of points
    in, their values out) when ``func`` has one, else ``func`` point by
    point. Hops are committed in hop order; at the first that is accepted,
    the later ones in flight are dropped and restarted from the new
    incumbent, with the same perturbations. So the committed hops, the
    result and ``evals`` are those of running the hops one after another,
    and the dropped work is not counted, nor are the hops in flight when
    patience runs out. At a finite best, with i idle hops in a row, a hop
    past the first ``patience - i`` in flight is always dropped (the hops
    before it are all idle, so patience runs out, or one is accepted), so
    at most that many are in flight.
    """
    rng = np.random.default_rng(cfg.seed)
    best_x, best_f, evals, converged = nelder_mead(func, x0, cfg)
    n = np.size(x0)
    if not n:
        return best_x, best_f, evals, converged
    simplex = _simplex(n)
    steps = rng.standard_normal((cfg.hops, n))  # the numbers of one standard_normal(n) per hop
    batch = getattr(func, "batch", None) or (
        lambda points: [_finite(float(func(np.array(x, dtype=float)))) for x in points])
    flight: list[list] = []  # per hop in flight, in hop order: [solve, point, result or None]
    hop = 0  # the next hop to start
    idle = 0  # idle hops committed in a row
    with np.errstate(all="ignore"):
        while flight or hop < cfg.hops:
            # a hop past the patience left would always be dropped (see above)
            window = HOP_WINDOW
            if cfg.patience and math.isfinite(best_f):
                window = min(window, cfg.patience - idle)
            while len(flight) < window and hop < cfg.hops:
                solve = simplex((best_x + cfg.step_scale * steps[hop]).tolist(), cfg)
                flight.append([solve, next(solve), None])  # a new memo: x0 is a new point
                hop += 1
            live = [h for h in flight if h[2] is None]
            for h, v in zip(live, batch([h[1] for h in live])):
                try:
                    h[1] = h[0].send(v)
                except StopIteration as done:
                    h[2] = done.value
            while flight and flight[0][2] is not None:
                x, fv, ev, conv = flight.pop(0)[2]
                evals += ev
                gained = not math.isfinite(best_f) or best_f - fv > IDLE_GAIN * abs(best_f)
                idle = 0 if gained else idle + 1
                if fv < best_f and (gained or cfg.accept_idle):
                    best_x, best_f, converged = x, fv, conv
                    hop -= len(flight)
                    flight.clear()
                if cfg.patience and idle == cfg.patience:
                    hop = cfg.hops
                    flight.clear()
    return best_x, best_f, evals, converged


def _mse_of(evaluator, batched, X: np.ndarray, y: np.ndarray):
    """The MSE over all rows as ``f(params)``, from the single-point and the
    batched form of ``compile_evaluator``; an undefined row makes it +inf.
    Its ``batch`` maps a list of points to their MSEs, each bit-equal to one
    call. Call both under ``np.errstate(all="ignore")``, as ``minimize`` does."""

    def objective(params):
        resid = evaluator(params, X) - y
        # the sum and division of np.mean; non-finite whenever a residual is
        mse = float(np.add.reduce(resid * resid) / resid.size)
        return mse if math.isfinite(mse) else math.inf

    def batch(points):
        resid = batched(np.array(points), X) - y
        # each row of resid is summed as a 1-D reduce sums it (pairwise)
        mse = (np.add.reduce(resid * resid, axis=-1) / y.size).tolist()
        if not isinstance(mse, list):  # no constant: every point has the same rows
            mse = [mse] * len(points)
        return [v if math.isfinite(v) else math.inf for v in mse]

    objective.batch = batch
    return objective


def linear_terms(e: Expression) -> tuple[list[tuple[float, Node]], list[tuple[float, Node]]] | None:
    """The linear form of ``e``, or None when some constant is not linear.

    ``e`` is read as a sum of top-level terms, each with the sign (1.0 or
    -1.0) that the ``+`` and ``-`` nodes above it give it. It is linear when
    it has constants c1..ck, k >= 1, each occurring once, in a term of the
    form ``c``, ``c*t``, ``t*c`` or ``(c*t)/u`` with t and u free of
    constants (nested, so ``x2*(c1*x1)`` and ``c1/x2`` are too), with unary
    minus anywhere along the way to ``c``; every other term holds no
    constant. Returns ``(columns, offset)``: the signed term of each
    constant in index order, and the signed constant-free terms."""
    terms: list[tuple[float, Node]] = []
    stack = [(1.0, e.root)]
    while stack:
        sign, n = stack.pop()
        if isinstance(n, Binary) and n.op in ("+", "-"):
            stack.append((-sign if n.op == "-" else sign, n.right))
            stack.append((sign, n.left))
        else:
            terms.append((sign, n))
    columns: dict[int, tuple[float, Node]] = {}
    offset = []
    for sign, term in terms:
        consts = [n for n in walk(term) if isinstance(n, Const)]
        if not consts:
            offset.append((sign, term))
            continue
        if len(consts) > 1 or consts[0].index in columns or not _scales(term, consts[0]):
            return None
        columns[consts[0].index] = (sign, term)
    if not columns or sorted(columns) != list(range(1, len(columns) + 1)):
        return None
    return [columns[i] for i in sorted(columns)], offset


def _scales(n: Node, c: Const) -> bool:
    """Whether ``n``, which holds ``c`` once and no other constant, is ``c``
    times a constant-free factor: the way down to ``c`` passes only unary
    minus, either operand of ``*`` and the numerator of ``/``."""
    while n is not c:
        if isinstance(n, Unary) and n.op == "neg":
            n = n.child
        elif isinstance(n, Binary) and n.op == "*":
            n = n.left if any(m is c for m in walk(n.left)) else n.right
        elif isinstance(n, Binary) and n.op == "/" and any(m is c for m in walk(n.left)):
            n = n.left
        else:
            return False
    return True


def _least_squares(e: Expression, terms, X: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The least-squares constants of ``e`` in its linear form ``terms``, or
    None when ``lstsq`` raises. Column j is the term of constant j evaluated
    with the constants at 1, times its sign; the target is y minus the
    signed constant-free terms. A row whose column or target value is
    non-finite at 1 is non-finite at every value of the constants, so it
    raises NoFiniteObjectiveError: the simplex would find no finite point
    either. Each column is scaled to a largest magnitude of 1 for the solve,
    so that a column of large values does not drown a small one."""
    columns, offset = terms
    functions = [compile_evaluator(Expression(t), X) for _, t in columns + offset]
    ones = np.ones(len(columns))
    with np.errstate(all="ignore"):
        values = [f(ones, X) for f in functions]
        A = np.column_stack([sign * v for (sign, _), v in zip(columns, values)])
        b = y - sum((sign * v for (sign, _), v in zip(offset, values[len(columns):])), 0.0)
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise NoFiniteObjectiveError(f"no finite objective found for {e}")
        scale = np.abs(A).max(axis=0)
        scale[scale == 0] = 1.0
        try:
            return np.linalg.lstsq(A / scale, b, rcond=None)[0] / scale
        except np.linalg.LinAlgError:
            return None


def _result(evaluator, x, X: np.ndarray, y: np.ndarray, evals: int, converged: bool) -> FitResult:
    """The ``FitResult`` of constants ``x``: its MSE and MAE over all rows."""
    with np.errstate(all="ignore"):
        resid = evaluator(x, X) - y
    mse = float(np.mean(resid * resid))
    mae = float(np.mean(np.abs(resid)))
    return FitResult(tuple(float(v) for v in x), mse, mae, evals, converged)


def fit(e: Expression, d, cfg: FitConfig) -> FitResult:
    """Fit the constants of ``e`` to dataset ``d`` (anything with ``X`` and ``y``).

    The objective is MSE over all rows. With ``cfg.solve_linear``, an
    expression linear in every constant (see ``linear_terms``) is solved by
    one least-squares call, whose result has ``evals=0`` and
    ``converged=True``; ``hops``, ``seed``, ``max_evals`` and ``patience``
    are not used. Where that solve raises or its MSE is not finite, and for
    every other expression, the simplex with basin hopping fits it
    (``minimize``); it stops hopping after ``cfg.patience`` idle hops in a
    row, and ``evals`` counts the evaluations of the first solve and of the
    hops it ran. Either way ``e`` is compiled once for one point, and
    ``_result`` makes the one ``FitResult``. Raises NoFiniteObjectiveError
    when no visited parameter vector gives a finite loss, and
    TooManyConstantsError when ``e`` has more than MAX_CONSTANTS constants.
    """
    k = e.n_constants
    if k > MAX_CONSTANTS:
        raise TooManyConstantsError(f"{k} constants exceeds the cap of {MAX_CONSTANTS}")
    X = np.asarray(d.X, dtype=float)
    y = np.asarray(d.y, dtype=float)
    if len(y) < 1:
        raise ValueError("dataset has no rows")
    evaluator = compile_evaluator(e, X)
    if cfg.solve_linear and (terms := linear_terms(e)) is not None:
        solution = _least_squares(e, terms, X, y)
        if solution is not None:
            result = _result(evaluator, solution, X, y, 0, True)
            if math.isfinite(result.mse):
                return result
    batched = compile_evaluator(e, X, batched=True)
    x0 = np.asarray(e.initial_guess(), dtype=float)
    best_x, best_f, evals, converged = minimize(_mse_of(evaluator, batched, X, y), x0, cfg)
    if not np.isfinite(best_f):
        raise NoFiniteObjectiveError(f"no finite objective found for {e}")
    return _result(evaluator, best_x, X, y, evals, converged)


def repeat_fit(e: Expression, d, cfg: FitConfig) -> FitResult:
    """``cfg.refits`` independent fits with seeds seed, seed+1, ...; returns the
    one with the lowest MAE (ties: lower MSE, then lower seed index). A fit
    by least squares does not depend on the seed, so an expression ``fit``
    solves that way is fitted once, whatever ``cfg.refits`` is."""
    if cfg.solve_linear and linear_terms(e) is not None:
        cfg = replace(cfg, refits=1)
    best: FitResult | None = None
    failures = 0
    for i in range(cfg.refits):
        try:
            result = fit(e, d, replace(cfg, seed=cfg.seed + i, refits=1))
        except NoFiniteObjectiveError:
            failures += 1
            continue
        if best is None or (result.mae, result.mse) < (best.mae, best.mse):
            best = result
    if best is None:
        raise NoFiniteObjectiveError(f"all {failures} refits failed for {e}")
    return best
