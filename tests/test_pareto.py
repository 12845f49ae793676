import csv
import json
import math
import random
from dataclasses import replace

import pytest

from helpers import OracleStore, candidate

from srloop.expressions import Dialect
from srloop.pareto import CandidateStore, FeedbackPolicy, to_feedback_json
from srloop.parsing import parse


def cand(mse, cx=None, born=1, key=None, mae=None):
    """Candidate with an arbitrary (complexity, mse) point.

    ``key`` controls the canonical identity; distinct keys give distinct
    store entries (x1**k has a unique literal exponent per k).
    """
    key = key if key is not None else (mse, cx, born)
    expr = parse(f"x1**{abs(hash(key)) % 10_000_000}.5", Dialect.INFIX, ["x1"])
    return candidate(expr, mse, mae=mae, complexity=cx, born=born)


def langmuir_like(text):
    return parse(text, Dialect.INFIX, ["x1"])


class TestInsert:
    def test_insert_into_empty(self):
        store = CandidateStore()
        assert store.insert(cand(1.0, 3))
        assert len(store) == 1

    def test_duplicate_with_higher_mse_keeps_incumbent(self):
        store = CandidateStore()
        a = candidate(langmuir_like("x1+c1"), 1.0, born=1, params=(2.0,))
        b = candidate(langmuir_like("x1+c1"), 5.0, born=2, params=(9.0,))
        store.insert(a)
        assert not store.insert(b)
        assert len(store) == 1
        assert next(iter(store)).params == (2.0,)

    def test_sr_equivalent_forms_deduplicate(self):
        store = CandidateStore()
        store.insert(candidate(langmuir_like("x1+c1"), 1.0, born=1, params=(2.0,)))
        better = candidate(langmuir_like("x1-c1"), 0.5, born=2, params=(-2.0,))
        assert store.insert(better)
        assert len(store) == 1
        assert next(iter(store)).mse == 0.5


def brute_force_front(items):
    front = []
    for c in items:
        if not math.isfinite(c.mse):
            continue
        dominated = any(
            other is not c
            and other.complexity <= c.complexity
            and other.mse <= c.mse
            and (other.complexity < c.complexity or other.mse < c.mse)
            and math.isfinite(other.mse)
            for other in items
        )
        if not dominated:
            front.append(c)
    return sorted(front, key=lambda c: (c.complexity, c.mse, c.iteration_born))


class TestParetoFront:
    def test_three_point_example(self):
        store = CandidateStore()
        a, b, c = cand(1.0, 5), cand(0.5, 7), cand(2.0, 9)
        for item in (a, b, c):
            store.insert(item)
        assert store.pareto_front() == [a, b]

    def test_single_candidate(self):
        store = CandidateStore()
        only = cand(3.0, 4)
        store.insert(only)
        assert store.pareto_front() == [only]

    def test_matches_brute_force_on_random_stores(self):
        rng = random.Random(2024)
        for trial in range(100):
            store = CandidateStore()
            for i in range(rng.randint(1, 50)):
                store.insert(cand(
                    mse=rng.choice([0.25, 0.5, 1.0, 2.0, 4.0, rng.random()]),
                    cx=rng.randint(1, 12),
                    born=rng.randint(1, 9),
                    key=(trial, i),
                ))
            assert store.pareto_front() == brute_force_front(list(store))

    def test_infinite_mse_excluded(self):
        store = CandidateStore()
        store.insert(cand(math.inf, 1, key="inf"))
        keeper = cand(1.0, 5, key="fin")
        store.insert(keeper)
        assert store.pareto_front() == [keeper]

    def test_no_member_dominates_another(self):
        rng = random.Random(7)
        store = CandidateStore()
        for i in range(40):
            store.insert(cand(rng.random(), rng.randint(1, 10), key=i))
        front = store.pareto_front()
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    a.complexity <= b.complexity and a.mse <= b.mse
                    and (a.complexity < b.complexity or a.mse < b.mse)
                )

    def test_every_outsider_dominated_by_a_front_member(self):
        rng = random.Random(41)
        for trial in range(20):
            store = CandidateStore()
            for i in range(rng.randint(2, 50)):
                store.insert(cand(rng.choice([0.5, 1.0, 2.0, rng.random()]),
                                  rng.randint(1, 10), key=(trial, i)))
            front = store.pareto_front()
            on_front = {id(c) for c in front}
            for c in store:
                if id(c) in on_front:
                    continue
                assert any(
                    f.complexity <= c.complexity and f.mse <= c.mse
                    and (f.complexity < c.complexity or f.mse < c.mse)
                    for f in front
                )


class TestSelectFeedback:
    def test_small_store_returned_whole(self):
        store = CandidateStore()
        for i in range(4):
            store.insert(cand(float(i + 1), i + 1, key=i))
        assert len(store.select_feedback(FeedbackPolicy())) == 4

    def test_standard_includes_whole_front(self):
        rng = random.Random(12)
        store = CandidateStore()
        for i in range(30):
            store.insert(cand(rng.random() * 4, rng.randint(1, 10), born=i, key=i))
        chosen = store.select_feedback(FeedbackPolicy())
        ids = {id(c) for c in chosen}
        for member in store.pareto_front():
            assert id(member) in ids
        assert len(chosen) <= max(6, len(store.pareto_front())) + 2

    def test_top_k(self):
        store = CandidateStore()
        for i in range(12):
            store.insert(cand(float(i), 3, key=i))
        chosen = store.select_feedback(FeedbackPolicy(kind="top_k"))
        assert len(chosen) == 5
        assert {c.mse for c in chosen} == {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_descending_mse_order(self):
        rng = random.Random(5)
        store = CandidateStore()
        for i in range(15):
            store.insert(cand(rng.random() * 10, rng.randint(1, 8), key=i))
        for policy in (FeedbackPolicy(), FeedbackPolicy(kind="top_k")):
            chosen = store.select_feedback(policy)
            mses = [c.mse for c in chosen]
            assert mses == sorted(mses, reverse=True)

    def test_infinite_mse_never_selected(self):
        store = CandidateStore()
        store.insert(cand(math.inf, 2, key="bad"))
        store.insert(cand(1.0, 3, key="ok"))
        for policy in (FeedbackPolicy(), FeedbackPolicy(kind="top_k")):
            assert all(math.isfinite(c.mse) for c in store.select_feedback(policy))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FeedbackPolicy(kind="nope")
        with pytest.raises(ValueError):
            FeedbackPolicy(min_count=0)


def test_store_matches_the_reference_store():
    """Random stores with repeated canonical forms stored at higher, equal and
    lower MSE, infinite MSEs and ties in complexity, MSE and iteration keep,
    front and select the same candidates in the same order as OracleStore."""
    rng = random.Random(22)
    forms = [cand(1.0, key=k) for k in range(30)]  # one canonical form each
    policies = [*(FeedbackPolicy(min_count=m) for m in (1, 2, 6, 12, 40)),
                *(FeedbackPolicy(kind="top_k", k=k) for k in (1, 3, 5, 40))]
    seen = {"new": 0, "lower": 0, "equal": 0, "higher": 0}
    for _ in range(300):
        store, oracle = CandidateStore(), OracleStore()
        pool = forms[: rng.randint(1, len(forms))]
        for _ in range(rng.randint(0, 60)):
            c = replace(rng.choice(pool), mse=rng.choice([0.25, 0.5, 1.0, math.inf, rng.random()]),
                        complexity=rng.randint(1, 6), iteration_born=rng.randint(1, 5))
            incumbent = store.find_equivalent(c.canonical)
            seen["new" if incumbent is None else "lower" if c.mse < incumbent.mse
                 else "equal" if c.mse == incumbent.mse else "higher"] += 1
            assert store.insert(c) == oracle.insert(c)
        got, want = [list(store), store.pareto_front()], [oracle._items, oracle.pareto_front()]
        for policy in policies:
            got.append(store.select_feedback(policy))
            want.append(oracle.select_feedback(policy))
        for g, w in zip(got, want):
            assert len(g) == len(w) and all(a is b for a, b in zip(g, w))
    assert min(seen.values()) > 500


class TestFeedbackJson:
    def test_schema(self):
        c = candidate(langmuir_like("c1*x1"), 0.125, mae=0.25, params=(2.0,))
        records = json.loads(to_feedback_json([c]))
        assert records == [{"equation": "c1*x1", "complexity": 3, "mse": 0.125}]

    def test_params_included_on_request(self):
        c = candidate(langmuir_like("c1*x1"), 0.125, mae=0.25, params=(2.0,))
        records = json.loads(to_feedback_json([c], include_params=True))
        assert records[0]["params"] == [2.0]

    def test_empty_list(self):
        assert to_feedback_json([]) == "[]"

    def test_six_significant_digits(self):
        c = candidate(langmuir_like("c1*x1"), 0.123456789, mae=0.1, params=(1.23456789,))
        records = json.loads(to_feedback_json([c], include_params=True))
        assert records[0]["mse"] == 0.123457
        assert records[0]["params"] == [1.23457]


def test_store_csv_export(tmp_path):
    store = CandidateStore()
    store.insert(candidate(langmuir_like("c1*x1"), 0.5, born=3, params=(2.0,)))
    path = tmp_path / "store.csv"
    store.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["equation", "complexity", "mse", "mae", "iteration"]
    assert rows[1][0] == "c1*x1"
    assert rows[1][4] == "3"
