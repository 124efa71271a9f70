"""Adversarial paths: certificate tie-breaks, irrational witnesses,
chain clamping beyond the dimension, and deep hierarchy breaches."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from jameslab.basis_tools import (
    Basis,
    DimensionTooLargeForPatterns,
    SignPattern,
    random_invertible_basis,
    ratio_sq,
    uc_lower_bound,
)
from jameslab.hierarchy import EvalBudget, ExceedsBudget, fgh_eval
from jameslab.james_core import (
    CertTerm,
    Cycle,
    DualBallCertificate,
    DualFunctional,
    JVector,
    Violation,
    chain_stability_check,
    cycle_value,
    dual_norm_lower_bound,
    eval_functional,
    functional_from_certificate,
    james_norm_sq,
    violation_to_witness,
)
from jameslab.scalars import Root2Scalar

from helpers import random_vector


def lex_least_optimal_cycle(x: JVector) -> tuple[tuple[int, ...], Fraction]:
    """Independent oracle: enumerate every cycle, keep the best value and
    the lexicographically least cycle achieving it."""
    T = x.K + 2
    best_val = Fraction(0)
    best_cycle = (0,)
    candidates = [(i,) for i in range(T)]
    for m in range(2, T + 1):
        candidates.extend(combinations(range(T), m))
    for cyc in candidates:
        v = cycle_value(x, Cycle(cyc))
        if v > best_val or (v == best_val and cyc < best_cycle):
            best_val = v
            best_cycle = cyc
    return best_cycle, best_val


def test_certificate_tie_break_matches_lex_oracle():
    rng = random.Random(31337)
    for trial in range(150):
        K = rng.randint(0, 6)
        # small coefficient range to force plenty of ties
        den = rng.randint(1, 2)
        x = JVector(
            K, tuple(Fraction(rng.randint(-2, 2), den) for _ in range(K + 1))
        )
        value, cert = james_norm_sq(x)
        oracle_cycle, oracle_val = lex_least_optimal_cycle(x)
        assert value == oracle_val
        assert cert.cycle.indices == oracle_cycle


def test_witness_with_irrational_evaluations():
    # a certificate-built functional evaluates into sqrt(2) multiples, so
    # the witness comparison runs through the exact Q(sqrt(2)) order
    eps = Fraction(1, 2)
    k = 8
    chain = tuple(range(k + 1))
    m = k + 1
    t = 3  # ceil(sqrt(9))
    u = tuple(Fraction((-1) ** i, t) for i in range(m))
    cert = DualBallCertificate((CertTerm(Fraction(1), Cycle(chain), u),))
    y = functional_from_certificate(cert, k).scale(Fraction(t))
    violation = chain_stability_check(y, eps, chain)
    assert isinstance(violation, Violation)
    assert all(g == Root2Scalar(0, Fraction(1)) for g in violation.gaps)
    w = violation_to_witness(y, eps, chain, violation)
    # both sides exact: lhs = (k/2 * sqrt(2))^2 = k^2/2, rhs = k/2 blocks
    assert w.lhs_sq == Root2Scalar(Fraction(k * k, 2))
    assert w.rhs_sq == Fraction(k, 2)


def test_witness_chain_clamped_beyond_dimension():
    # the last chain index lives past the top coordinate; the d-values
    # clamp and the witness blocks are intersected with the ambient range
    eps = Fraction(1, 2)
    g = eps * Fraction(101, 100)
    K = 10
    coeffs = [Fraction(0)]
    for i in range(7):
        coeffs.append(g if i % 2 == 0 else -g)
    coeffs.append(-g)  # index 8: the jump seen between d_7 and d_14
    coeffs.extend([Fraction(0), Fraction(0)])  # indices 9, 10
    y = DualFunctional.from_rationals(K, tuple(coeffs))
    chain = (0, 1, 2, 3, 4, 5, 6, 7, 14)
    violation = chain_stability_check(y, eps, chain)
    assert isinstance(violation, Violation)
    assert len(violation.gaps) == 8
    w = violation_to_witness(y, eps, chain, violation)
    assert w.xhat.K == K
    assert w.lhs_sq > Root2Scalar(w.rhs_sq)


def test_dual_norm_bound_rounds_down_on_irrational_ratio():
    # pure-sqrt(2) functional: y(e_i)^2 is rational but mixed coefficients
    # drive the rounding path; the bound must stay below the exact ratio
    y = DualFunctional(
        2,
        (
            Root2Scalar(Fraction(1, 2), Fraction(1, 3)),
            Root2Scalar(Fraction(-1, 4), Fraction(1, 5)),
            Root2Scalar(0, Fraction(-1, 2)),
        ),
    )
    lb, witness = dual_norm_lower_bound(y, budget=3)
    assert not witness.is_zero()
    norm_sq, _ = james_norm_sq(witness)
    exact = eval_functional(y, witness).square()
    assert Root2Scalar(lb * norm_sq) <= exact


def test_deep_hierarchy_breach_has_no_recursion_error():
    # enormous level: the frame stack grows until the step budget halts it
    result = fgh_eval(10**9, 10**9, EvalBudget(max_digits=50, max_steps=500))
    assert isinstance(result, ExceedsBudget)
    assert result.certified_lower_bound >= 10**9


def test_exhaustive_pattern_guard():
    rng = random.Random(41)
    basis = random_invertible_basis(1, rng)
    # guard applies to the strategy on a basis that is not monomial; a
    # random K=13 basis trips it (a monomial one is searched by class)
    with pytest.raises(DimensionTooLargeForPatterns):
        uc_lower_bound(random_invertible_basis(13, rng), "exhaustive", budget=1, seed=0)
    est = uc_lower_bound(basis, "anneal", budget=1, seed=0)
    assert est.lower_bound_sq >= 1


def test_ratio_involution_random_bases():
    rng = random.Random(42)
    for _ in range(6):
        basis = random_invertible_basis(3, rng)
        entries = tuple(rng.choice((-1, 1)) for _ in range(4))
        eps = SignPattern(entries)
        alpha = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
        )
        if basis.combine(alpha).is_zero():
            continue
        flipped = tuple(e * a for e, a in zip(entries, alpha))
        assert ratio_sq(basis, eps, alpha) * ratio_sq(basis, eps, flipped) == 1


def test_norm_certificate_on_negative_heavy_vectors():
    # certificates must stay valid when optima use interior non-virtual cycles
    x = JVector(4, (Fraction(-3), Fraction(2), Fraction(-3), Fraction(2), Fraction(-3)))
    value, cert = james_norm_sq(x)
    oracle_cycle, oracle_val = lex_least_optimal_cycle(x)
    assert value == oracle_val
    assert cert.cycle.indices == oracle_cycle
    assert cycle_value(x, cert.cycle) == value
