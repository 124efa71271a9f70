"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; every comparison below is exact
(rational or Q(sqrt(2))) except where a runtime ceiling is stated.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from jameslab.basis_tools import (
    Basis,
    modulus_functional,
    modulus_vector,
    random_invertible_basis,
    ratio_sq,
    uc_lower_bound,
)
from jameslab.cli import main as cli_main
from jameslab.hierarchy import (
    OMEGA,
    CompareResult,
    EvalBudget,
    Exact,
    ExceedsBudget,
    HierarchyExpr,
    fgh_compare,
    fgh_eval,
    threshold_arg,
)
from jameslab.james_core import (
    StableIndex,
    Violation,
    canonical,
    chain_stability_check,
    coordinate_chain_check,
    dual_ball_sample,
    eval_functional,
    james_norm_sq,
    james_norm_sq_oracle,
    violation_to_witness,
)
from jameslab.measure_space import build, check_identities, product_matrix
from jameslab.metastability import (
    BudgetExceeded,
    IndexFunction,
    conclusion_search,
    count_fluctuations,
    find_stable_interval,
)
from jameslab.scalars import Root2Scalar, ceil_inverse, ceil_sqrt_rational

from helpers import planted_violator, random_chain, random_vector

EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))


def _report(num: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def models():
    """Canonical plus 100 random invertible bases at each K in 1..6."""
    rng = random.Random("acceptance:models")
    out = []
    for K in range(1, 7):
        out.append(build(Basis.canonical(K)))
        for _ in range(100):
            out.append(build(random_invertible_basis(K, rng)))
    return out


def test_criterion_1_norm_oracle_equivalence():
    ok = False
    try:
        rng = random.Random("acceptance:crit1")
        start = time.monotonic()
        for K in range(2, 11):
            for _ in range(500):
                x = random_vector(rng, K, max_num=20, max_den=8)
                assert james_norm_sq(x)[0] == james_norm_sq_oracle(x)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"
        ok = True
    finally:
        _report(1, "norm oracle equivalence, 500 vectors per K in 2..10", ok)


def test_criterion_2_dual_chain_lemma():
    ok = False
    try:
        rng = random.Random("acceptance:crit2")
        K = 200
        for eps in EPSILONS:
            k = 2 * ceil_inverse(eps) ** 2
            for _ in range(500):
                y, _cert = dual_ball_sample(
                    rng.randrange(2**63), K, rng.randint(0, 5)
                )
                chain = random_chain(rng, K, k + 1)
                result = chain_stability_check(y, eps, chain)
                assert isinstance(result, StableIndex)
        # planted violators: scaled dual-ball members with engineered gaps
        plan = [(Fraction(1, 2), 50), (Fraction(1, 4), 40), (Fraction(1, 10), 10)]
        for eps, count in plan:
            k = 2 * ceil_inverse(eps) ** 2
            for _ in range(count):
                chain = random_chain(rng, K, k + 1)
                y, _cert, scale = planted_violator(chain, eps)
                assert scale > 1
                violation = chain_stability_check(y, eps, chain)
                assert isinstance(violation, Violation)
                w = violation_to_witness(y, eps, chain, violation)
                assert w.lhs_sq > Root2Scalar(w.rhs_sq)
        ok = True
    finally:
        _report(2, "dual-ball chain stability + 100/100 planted witnesses", ok)


def test_criterion_3_coordinate_chain_lemma():
    ok = False
    try:
        rng = random.Random("acceptance:crit3")
        K = 200
        for eps in EPSILONS:
            k = 2 * ceil_inverse(eps) ** 2
            for trial in range(500):
                x = random_vector(rng, K)
                if trial < 10:
                    # rescale through the exact norm
                    norm_sq, _ = james_norm_sq(x)
                    if norm_sq > 1:
                        x = x.scale(Fraction(1, ceil_sqrt_rational(norm_sq)))
                else:
                    # rescale through the certified cheap bound
                    bound = 2 * sum((c * c for c in x.coeffs), Fraction(0))
                    if bound > 1:
                        x = x.scale(Fraction(1, ceil_sqrt_rational(bound)))
                chain = random_chain(rng, K + 1, k + 1)
                result = coordinate_chain_check(x, eps, chain)
                assert isinstance(result, StableIndex)
        ok = True
    finally:
        _report(3, "unit-ball coordinate chain stability, zero failures", ok)


def test_criterion_4_measure_space_exactness(models):
    ok = False
    try:
        rng = random.Random("acceptance:crit4")
        # canonical K = 2 against the direct-summation oracle
        oracle_35_64 = sum(
            Fraction(1, 2 ** (j + jp + 2))
            for j in range(3)
            for jp in range(j, 3)
        )
        assert oracle_35_64 == Fraction(35, 64)
        assert build(Basis.canonical(2)).d_star_d == Fraction(35, 64)
        for model in models:
            assert sum(model.mu) == 1
            assert model.d_star_d >= Fraction(1, 4)
            # the K + 1 moduli of each family once per model, then the same
            # (K + 1)^2 pairings
            e_star_moduli = [
                modulus_functional(model.basis, canonical("e_star", j, model.K))
                for j in range(model.K + 1)
            ]
            d_moduli = [
                modulus_vector(model.basis, canonical("d", jp, model.K))
                for jp in range(model.K + 1)
            ]
            pairings = [
                eval_functional(e_mod, d_mod).rational()
                for e_mod in e_star_moduli
                for d_mod in d_moduli
            ]
            assert model.d_star_d <= max(pairings)
            report = check_identities(model, 2, seed=rng.randrange(2**32))
            assert report.all_passed
        ok = True
    finally:
        _report(4, "measure-space identities exact on 600+ models", ok)


def test_criterion_5_product_matrix_refutation(models):
    ok = False
    try:
        for model in models:
            pm = product_matrix(model)  # raises on any structure violation
            for n in range(model.K + 1):
                for p in range(model.K + 1):
                    expect = model.d_star_d if p <= n else Fraction(0)
                    assert pm.entries[n][p] == expect
            assert conclusion_search(model, Fraction(1, 80)) is None
        ok = True
    finally:
        _report(5, "product matrix structure + conclusion impossible at 1/80", ok)


def test_criterion_6_unconditional_constant_certificates():
    ok = False
    try:
        est = uc_lower_bound(Basis.canonical(3), "exhaustive", budget=2, seed=0)
        assert est.lower_bound_sq >= 8
        # replay with both norms recomputed by exhaustive cycle enumeration
        basis = Basis.canonical(3)
        flipped = basis.combine(
            tuple(e * a for e, a in zip(est.sign_pattern.entries, est.alpha))
        )
        base = basis.combine(est.alpha)
        assert (
            james_norm_sq_oracle(flipped) / james_norm_sq_oracle(base)
            == est.lower_bound_sq
        )
        assert ratio_sq(basis, est.sign_pattern, est.alpha) == est.lower_bound_sq
        rng = random.Random("acceptance:crit6")
        for K in (0, 1, 2):
            for b in (Basis.canonical(K), random_invertible_basis(K, rng)):
                e = uc_lower_bound(b, "exhaustive", budget=1, seed=1)
                assert e.lower_bound_sq >= 1
        ok = True
    finally:
        _report(6, "uc lower bound >= 8 at canonical K=3, replay exact", ok)


def test_criterion_7_hierarchy():
    ok = False
    try:
        for n in range(17):
            assert fgh_eval(0, n) == Exact(n + 1)
            assert fgh_eval(1, n) == Exact(2 * n)
            assert fgh_eval(2, n) == Exact(2**n * n)
        assert fgh_eval(3, 2) == Exact(2048)
        result = fgh_eval(3, 3, EvalBudget(max_digits=10**6, max_steps=10**4))
        assert isinstance(result, ExceedsBudget)
        assert result.certified_lower_bound > 10**100
        assert threshold_arg(Fraction(2)) == 8589934597
        ok = True
    finally:
        _report(7, "hierarchy closed forms, budgets, threshold arithmetic", ok)


def test_criterion_8_fluctuation_finder_completeness():
    ok = False
    try:
        rng = random.Random("acceptance:crit8")
        eps = Fraction(1, 2)
        F = IndexFunction.from_callable(lambda n: n + rng.randint(2, 5), 400)
        for _ in range(200):
            values = [Fraction(0)]
            for _step in range(rng.randint(20, 60)):
                values.append(values[-1] + Fraction(rng.choice([-2, -1, 0, 0, 1, 2]), 4))
            values = tuple(values)
            c = count_fluctuations(values, eps / 2, (0, 400))
            budget = c + rng.randint(0, 3)
            interval = find_stable_interval(values, eps, F, 0, budget)
            assert interval.fluctuations_used <= budget
            window = [
                values[min(j, len(values) - 1)]
                for j in range(interval.m, interval.end + 1)
            ]
            assert max(window) - min(window) < eps
        # adversarial staircases against undersized budgets
        for _ in range(20):
            length = rng.randint(40, 80)
            values = tuple(
                Fraction(0) if i % 2 == 0 else eps for i in range(length)
            )
            Fstep = IndexFunction.from_callable(lambda n: n + 1, length + 10)
            c = count_fluctuations(values, eps / 2, (0, length - 1))
            with pytest.raises(BudgetExceeded):
                find_stable_interval(values, eps, Fstep, 0, rng.randint(0, c - 1))
        ok = True
    finally:
        _report(8, "fluctuation finder complete vs greedy oracle, 200 planted", ok)


def test_criterion_9_headline_not_reproduced(capsys):
    ok = False
    try:
        # the threshold is astronomically beyond desk scale: evaluation
        # under any sane budget breaches, and the comparison certificate
        # works purely structurally
        t = threshold_arg(Fraction(1))
        assert t == 536870917
        expr = HierarchyExpr(OMEGA, t)
        assert expr.render() == "f_w(536870917)"
        assert fgh_compare(expr, 10**100) == CompareResult.GREATER_OR_EQUAL
        result = fgh_eval(t, t, EvalBudget(max_digits=100, max_steps=1000))
        assert isinstance(result, ExceedsBudget)
        # symbolic threshold printing through the CLI
        code = cli_main(["--json", "threshold", "--B", "1/1"])
        out = capsys.readouterr().out
        assert code == 0
        obj = json.loads(out)
        assert obj["threshold_symbolic"] == "f_w(536870917)"
        code = cli_main(["--json", "refute", "--canonical", "3", "--B", "1/1"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["threshold_symbolic"] == "f_w(536870917)"
        ok = True
    finally:
        _report(9, "headline bound handled symbolically, never materialized", ok)
