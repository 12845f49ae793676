"""Candidate store, complexity/error Pareto front, and feedback selection.

The store keeps at most one candidate per canonical form (the best-MSE fit
wins), computes the non-dominated front over (complexity, mse), and selects
the records that get serialized back into the next iteration prompt.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

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
        self._items: list[Candidate] = []
        self._by_canonical: dict[Node, int] = {}  # by canonical tree, sr_equivalent's equality

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def find_equivalent(self, canonical: Expression) -> Candidate | None:
        pos = self._by_canonical.get(canonical.root)
        return self._items[pos] if pos is not None else None

    def insert(self, cand: Candidate) -> bool:
        """Add a candidate; an sr-equivalent incumbent is kept unless the new
        fit has strictly lower MSE. Returns True when the store changed."""
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
        """Finite-MSE candidates not dominated in (complexity, mse), sorted by
        ascending complexity; ties keep the earlier iteration first."""
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

    def select_feedback(self, policy: FeedbackPolicy) -> list[Candidate]:
        """Pick the candidates to send back, ordered by descending MSE (best last).
        Infinite-MSE candidates are stored for duplicate suppression but never fed back."""
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["equation", "complexity", "mse", "mae", "iteration"])
            for c in self._items:
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
