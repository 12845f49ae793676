"""Constant fitting: Nelder-Mead simplex inside a strict-descent basin-hopping loop.

The local method is implemented here rather than borrowed because the simplex
coefficients are part of the public fit configuration and the hopping
acceptance rule is strictly-better-only (no Metropolis temperature), which
together with a seeded generator makes every fit bit-reproducible.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from operator import add

import numpy as np

from .expressions import MAX_CONSTANTS, Expression, compile_evaluator


class NoFiniteObjectiveError(RuntimeError):
    """No parameter vector ever produced a finite loss; the candidate is unfittable."""


class TooManyConstantsError(ValueError):
    """Expression exceeds the fitted-constant cap."""


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fit: hop count, perturbation scale, simplex coefficients,
    evaluation budget per local solve, convergence tolerance and seeding."""

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

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be a positive integer")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")
        if self.reflection <= 0:
            raise ValueError("reflection coefficient must be > 0")
        if self.expansion <= 1:
            raise ValueError("expansion coefficient must be > 1")
        if not 0 < self.contraction < 1:
            raise ValueError("contraction coefficient must be in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink coefficient must be in (0, 1)")
        if self.max_evals < 1 or self.tol <= 0:
            raise ValueError("max_evals and tol must be positive")
        if self.refits < 1:
            raise ValueError("refits must be >= 1")
        if self.seed < 0:
            raise ValueError(f"fit seed must be >= 0, not {self.seed}")


@dataclass(frozen=True)
class FitResult:
    params: tuple[float, ...]
    mse: float
    mae: float
    evals: int
    converged: bool


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
    """
    with np.errstate(all="ignore"):
        return _nelder_mead(func, x0, cfg)


def _nelder_mead(func, x0, cfg: FitConfig):
    # The simplex is kept as lists of Python floats: on 1 to 10 coordinates
    # that is cheaper than NumPy calls. Fits must stay bit-identical to those
    # of the NumPy form (earlier logs and the pinned tests hold its bits), so
    # every point takes its operations in NumPy's order: the centroid is a
    # row-by-row sum then / n (the order of np.add.reduce(sim[:-1], axis=0)
    # / n), each trial point is c + coef * (p - c) per coordinate, and the
    # vertex order is a stable sort by value.
    alpha, gamma, rho, sigma = cfg.reflection, cfg.expansion, cfg.contraction, cfg.shrink
    tol, max_evals = cfg.tol, cfg.max_evals
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0
    seen: dict[bytes, float] = {}  # float64 bytes of a point -> its value
    key = struct.Struct(f"{n}d").pack

    def call(x):
        nonlocal evals
        evals += 1
        k = key(*x)
        v = seen.get(k)
        if v is None:
            v = float(func(np.array(x, dtype=float)))
            v = seen[k] = v if math.isfinite(v) else math.inf
        return v

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
    # func is pure and each fsim[i] is its value at sim[i], so the loop body
    # is a function of the vertices' bytes: a state that comes back repeats
    # with the same period until the budget. States are only looked up over a
    # stretch with no new point (a cycle's second pass has none), and whole
    # periods are skipped on evals. The skipped ones end at or before
    # max_evals - 1, so neither budget test (the while bound, the shrink's
    # break) would have fired inside them.
    states: dict[tuple[bytes, ...], int] = {}  # vertex bytes since the last new point -> evals
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
                states = {state: evals}
                continue
        # fsim is sorted, so its spread is fsim[-1] - fsim[0]; inf - inf is
        # NaN and NaN <= tol is False, so an all-inf simplex never converges,
        # and neither does one with a NaN coordinate
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
        # only the worst vertex changed: move it to where a stable sort puts it
        k = bisect_right(fsim, f, 0, n)
        del sim[-1], fsim[-1]
        sim.insert(k, x)
        fsim.insert(k, f)

    return np.array(sim[0]), fsim[0], evals, converged


def minimize(func, x0, cfg: FitConfig):
    """Nelder-Mead plus ``cfg.hops`` basin hops: perturb the incumbent with a
    per-coordinate Gaussian of scale ``step_scale``, re-minimize locally, and
    accept only strict improvements. Deterministic given ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    best_x, best_f, evals, converged = nelder_mead(func, x0, cfg)
    n = np.size(x0)
    if n:
        for _ in range(cfg.hops):
            trial = best_x + cfg.step_scale * rng.standard_normal(n)
            x, fv, ev, conv = nelder_mead(func, trial, cfg)
            evals += ev
            if fv < best_f:
                best_x, best_f, converged = x, fv, conv
    return best_x, best_f, evals, converged


def mse_objective(e: Expression, X, y):
    """Mean squared error over all rows; any undefined row maps to +inf.
    Call the objective under ``np.errstate(all="ignore")``, as ``nelder_mead``
    does once per solve: it enters none itself."""
    evaluator = compile_evaluator(e)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)

    def objective(params):
        resid = evaluator(params, X) - y
        # the sum and division of np.mean; non-finite whenever a residual is
        mse = float(np.add.reduce(resid * resid) / resid.size)
        return mse if math.isfinite(mse) else math.inf

    return objective


def fit(e: Expression, d, cfg: FitConfig) -> FitResult:
    """Fit the constants of ``e`` to dataset ``d`` (anything with ``X`` and ``y``).

    The objective is MSE over all rows. Raises NoFiniteObjectiveError when no
    visited parameter vector gives a finite loss, and TooManyConstantsError
    when the expression has more than MAX_CONSTANTS constants.
    """
    k = e.n_constants
    if k > MAX_CONSTANTS:
        raise TooManyConstantsError(f"{k} constants exceeds the cap of {MAX_CONSTANTS}")
    X = np.asarray(d.X, dtype=float)
    y = np.asarray(d.y, dtype=float)
    if len(y) < 1:
        raise ValueError("dataset has no rows")
    objective = mse_objective(e, X, y)
    x0 = np.asarray(e.initial_guess(), dtype=float)
    best_x, best_f, evals, converged = minimize(objective, x0, cfg)
    if not np.isfinite(best_f):
        raise NoFiniteObjectiveError(f"no finite objective found for {e}")
    with np.errstate(all="ignore"):
        resid = compile_evaluator(e)(best_x, X) - y
    mse = float(np.mean(resid * resid))
    mae = float(np.mean(np.abs(resid)))
    return FitResult(tuple(float(v) for v in best_x), mse, mae, evals, converged)


def repeat_fit(e: Expression, d, cfg: FitConfig) -> FitResult:
    """``cfg.refits`` independent fits with seeds seed, seed+1, ...; returns the
    one with the lowest MAE (ties: lower MSE, then lower seed index)."""
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
