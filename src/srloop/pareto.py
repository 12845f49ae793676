"""Candidate store, complexity/error Pareto front, and feedback selection.

The store keeps at most one candidate per canonical form, in the order in
which the forms were first stored; a lower-MSE equivalent takes the
incumbent's place (only the merged store of ``srloop pareto`` ever replaces
one). It computes the non-dominated front over (complexity, mse), and
selects the records that get serialized back into the next iteration prompt.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import groupby

from .expressions import Expression, Node, render


@dataclass(frozen=True)
class Candidate:
    """One evaluated expression: raw tree, canonical form, fitted constants and scores."""

    expr: Expression
    canonical: Expression
    params: tuple[float, ...]
    mse: float
    mae: float
    complexity: int
    iteration_born: int

    @property
    def equation(self) -> str:
        return render(self.expr)


@dataclass(frozen=True)
class FeedbackPolicy:
    """How feedback for the next prompt is selected.

    ``standard``: the whole Pareto front, padded with the best-MSE leftovers up
    to ``min_count`` entries, plus at most two of the newest candidates.
    ``top_k``: the k lowest-MSE candidates regardless of domination (the
    modified loop used for long/dual-site style runs).
    """

    kind: str = "standard"
    min_count: int = 6
    k: int = 5
    include_params: bool = False

    def __post_init__(self):
        if self.kind not in ("standard", "top_k"):
            raise ValueError(f"unknown feedback policy {self.kind!r}")
        if self.min_count < 1 or self.k < 1:
            raise ValueError("min_count and k must be >= 1")


class CandidateStore:
    """Single-writer store of evaluated candidates, deduplicated by canonical form."""

    def __init__(self):
        self._cands: dict[Node, Candidate] = {}  # by canonical tree, in first-insertion order

    def __len__(self) -> int:
        return len(self._cands)

    def __iter__(self):
        return iter(self._cands.values())

    def find_equivalent(self, canonical: Expression) -> Candidate | None:
        return self._cands.get(canonical.root)

    def insert(self, cand: Candidate) -> bool:
        """Add a candidate; an sr-equivalent incumbent is kept unless the new
        fit has strictly lower MSE, which then takes its place. Returns True
        when the store changed."""
        incumbent = self._cands.get(cand.canonical.root)
        if incumbent is not None and not cand.mse < incumbent.mse:
            return False
        self._cands[cand.canonical.root] = cand  # a replaced key keeps its place
        return True

    def pareto_front(self) -> list[Candidate]:
        """Finite-MSE candidates not dominated in (complexity, mse), sorted by
        ascending complexity; ties keep the earlier iteration first."""
        finite = sorted((c for c in self if math.isfinite(c.mse)),
                        key=lambda c: (c.complexity, c.mse, c.iteration_born))
        front: list[Candidate] = []
        best = math.inf
        for _, group in groupby(finite, key=lambda c: c.complexity):
            group = list(group)
            if group[0].mse < best:
                best = group[0].mse
                front.extend(c for c in group if c.mse == best)
        return front

    def select_feedback(self, policy: FeedbackPolicy) -> list[Candidate]:
        """Pick the candidates to send back, ordered by descending MSE (best last).
        Infinite-MSE candidates are stored for duplicate suppression but never fed back."""
        finite = [c for c in self if math.isfinite(c.mse)]
        by_mse = sorted(finite, key=lambda c: (c.mse, c.complexity, c.iteration_born))
        if policy.kind == "top_k":
            chosen = by_mse[: policy.k]
        elif len(finite) <= policy.min_count:
            chosen = finite
        else:
            picked = {id(c): c for c in self.pareto_front()}  # an ordered set of candidates
            for c in by_mse:
                if len(picked) >= policy.min_count:
                    break
                picked.setdefault(id(c), c)
            for c in sorted(finite, key=lambda c: -c.iteration_born)[:2]:
                picked.setdefault(id(c), c)
            chosen = picked.values()
        return sorted(chosen, key=lambda c: (-c.mse, c.complexity, c.equation))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["equation", "complexity", "mse", "mae", "iteration"])
            for c in self:
                writer.writerow([c.equation, c.complexity, repr(c.mse), repr(c.mae), c.iteration_born])


def _sig6(v: float) -> float:
    if not math.isfinite(v):
        return v
    return float(f"{v:.6g}")


def to_feedback_json(cands: list[Candidate], include_params: bool = False) -> str:
    """Serialize feedback records: equation, complexity, mse (+ params when the
    policy shares fitted values). Numbers carry 6 significant digits."""
    records = []
    for c in cands:
        rec = {"equation": c.equation, "complexity": c.complexity, "mse": _sig6(c.mse)}
        if include_params:
            rec["params"] = [_sig6(p) for p in c.params]
        records.append(rec)
    return json.dumps(records)
