import random

import numpy as np
import pytest

from helpers import infix, make_dataset, random_expression

from srloop.expressions import (
    Const,
    Dialect,
    canonicalize,
    complexity,
    render,
    sr_equivalent,
    walk,
)
from srloop.optimize import FitConfig, fit
from srloop.parsing import parse


class TestRewrites:
    def test_subtracted_constant_becomes_added(self):
        assert sr_equivalent(infix("x1+c1"), infix("x1-c1"))

    def test_constant_distributes_over_sum(self):
        assert render(canonicalize(infix("c1*(c2+x1)"))) == "c1+c2*x1"
        assert sr_equivalent(infix("c1*(c2+x1)"), infix("c3+c4*x1"))

    def test_langmuir_surface_forms_coincide(self):
        assert sr_equivalent(infix("c1*x1/(c2+x1)"), infix("c3*x1/(x1+c4)"))

    def test_division_by_constant_folds(self):
        assert sr_equivalent(infix("x1/c1"), infix("c2*x1"))

    def test_negated_constant_absorbed(self):
        assert sr_equivalent(infix("x1*(-c1)"), infix("c1*x1"))

    def test_constant_chain_folds(self):
        assert sr_equivalent(infix("c1+x1+c2"), infix("x1+c1"))
        assert sr_equivalent(infix("c1*x1*c2"), infix("c3*x1"))

    def test_sign_absorbs_into_product_head(self):
        assert sr_equivalent(infix("x1*x1-c1*x1"), infix("x1*x1+c1*x1"))
        assert sr_equivalent(infix("c1-c2/x1"), infix("c1+c2/x1"))
        # but not when the constant is shared elsewhere
        assert not sr_equivalent(infix("c1-c1*x1"), infix("c1+c1*x1"))

    def test_different_shapes_stay_apart(self):
        assert not sr_equivalent(infix("c1*x1"), infix("c1*x1+c2"))
        assert not sr_equivalent(infix("c1*x1"), infix("c1/x1"))

    def test_shared_constants_not_split(self):
        # c1*x1+c1 has one degree of freedom, c1*x1+c2 has two
        assert not sr_equivalent(infix("c1*x1+c1"), infix("c1*x1+c2"))

    def test_fixed_vs_free_exponent_distinct(self):
        assert not sr_equivalent(infix("c1*x1**c2"), infix("c1*x1**1.5"))

    def test_commutative_sorting(self):
        assert canonicalize(infix("x1+c1")).root == canonicalize(infix("c1+x1")).root
        a = parse("x2*x1", Dialect.INFIX, ["x1", "x2"])
        b = parse("x1*x2", Dialect.INFIX, ["x1", "x2"])
        assert canonicalize(a).root == canonicalize(b).root

    def test_pow_with_constant_exponent_left_intact(self):
        e = canonicalize(infix("c1*x1**c2"))
        assert "**" in render(e)


class TestProperties:
    def test_idempotent_and_complexity_non_increasing(self):
        rng = random.Random(4321)
        for _ in range(1000):
            e = random_expression(rng, n_vars=2)
            canon = canonicalize(e)
            assert canonicalize(canon).root == canon.root, render(e)
            assert complexity(canon) <= complexity(e), render(e)

    def test_canonical_constants_contiguous(self):
        rng = random.Random(777)
        for _ in range(200):
            canon = canonicalize(random_expression(rng))
            indices = sorted({n.index for n in walk(canon.root) if isinstance(n, Const)})
            assert indices == list(range(1, len(indices) + 1))

    def test_equivalence_relation_on_variant_corpus(self):
        base_forms = [
            "x1+c1", "c1*(c2+x1)", "c1*x1/(c2+x1)", "c1*exp(c2*x1)+c3",
            "c1/(c2+x1)", "c1*x1*x1+c2*x1+c3",
        ]
        groups = []
        for text in base_forms:
            variants = _variants(text)
            assert len(variants) >= 15
            groups.append([canonicalize(v) for v in variants])
        total = sum(len(g) for g in groups)
        assert total >= 120
        for group in groups:
            # one canonical representative per class gives transitivity for free
            keys = {render(c) for c in group}
            assert len(keys) == 1, keys
        # distinct classes stay distinct
        reps = [render(group[0]) for group in groups]
        assert len(set(reps)) == len(groups)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(31)
        for _ in range(50):
            a = random_expression(rng)
            b = random_expression(rng)
            assert sr_equivalent(a, a)
            assert sr_equivalent(a, b) == sr_equivalent(b, a)


def _variants(text):
    """SR-equivalent rewritten variants of a base form."""
    e = infix(text)
    out = [e, infix(f"({text})"), infix(f"  {text}  ")]
    k = e.n_constants
    # re-label constants
    for shift in range(1, 4):
        relabeled = text
        for i in range(k, 0, -1):
            relabeled = relabeled.replace(f"c{i}", f"c{i + shift}")
        out.append(infix(relabeled))
    # flip the sign/role of an unshared constant
    for i in range(1, k + 1):
        out.append(infix(text.replace(f"+c{i}", f"-c{i}")))
        out.append(infix(text.replace(f"*c{i}", f"/c{i}")))
        out.append(infix(text.replace(f"c{i}*", f"-c{i}*")))
        out.append(infix(text.replace(f"c{i}", f"(--c{i})")))
    # swap commutative operands where the pattern appears
    swaps = [
        (f"c{i}+x1", f"x1+c{i}") for i in range(1, k + 1)
    ] + [
        (f"c{i}*x1", f"x1*c{i}") for i in range(1, k + 1)
    ]
    for old, new in swaps:
        if old in text:
            out.append(infix(text.replace(old, new)))
    # render round trip of the first dozen
    out.extend(parse(render(v), Dialect.INFIX, ["x1"]) for v in list(out)[:12])
    return out


class TestFitCrossCheck:
    PAIRS = [
        ("x1+c1", "x1-c1"),
        ("c1*(c2+x1)", "c3+c4*x1"),
        ("c1*x1/(c2+x1)", "c3*x1/(x1+c4)"),
        ("x1/c1", "c2*x1"),
        ("c1+x1+c2", "x1+c1"),
        ("c1*x1*c2", "c3*x1"),
        ("c1/(c2+x1)", "c3/(x1+c4)"),
        ("(x1-c1)*c2", "c3+c4*x1"),
        ("x1*x1+c1-c2", "x1*x1+c3"),
        ("c1*exp(c2*x1)+c3", "exp(x1*c2)*c1+c3"),
    ]

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_equivalent_pairs_reach_equal_mse(self, left, right):
        a, b = infix(left), infix(right)
        assert sr_equivalent(a, b)
        rng = np.random.default_rng(5)
        x = np.linspace(0.5, 4.0, 12)
        y = 1.7 * x / (0.8 + x) + 0.05 * rng.standard_normal(x.size)
        d = make_dataset(x, y)
        cfg = FitConfig(hops=8, seed=3, max_evals=4000)
        mse_a = fit(a, d, cfg).mse
        mse_b = fit(b, d, cfg).mse
        assert abs(mse_a - mse_b) < 1e-10
