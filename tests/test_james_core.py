"""Norm computation, dual-ball soundness, and the chain-stability lemmas."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jameslab.james_core import (
    CertTerm,
    ChainError,
    Cycle,
    DimensionMismatch,
    DimensionTooLarge,
    DualBallCertificate,
    DualFunctional,
    JVector,
    NormCertificateOfExcess,
    StableIndex,
    Violation,
    WitnessPreconditionError,
    canonical,
    chain_stability_check,
    coordinate_chain_check,
    cycle_value,
    dual_ball_sample,
    dual_norm_lower_bound,
    eval_functional,
    functional_from_certificate,
    james_norm_sq,
    james_norm_sq_float,
    james_norm_sq_oracle,
    james_norm_sq_upper_bound,
    violation_to_witness,
)
from jameslab.scalars import Root2Scalar, ceil_inverse

from helpers import (
    planted_violator,
    random_chain,
    random_vector,
    rescale_into_unit_ball,
    zigzag_functional,
)


# ---------------------------------------------------------------------------
# canonical constructors
# ---------------------------------------------------------------------------

def test_canonical_d():
    assert canonical("d", 2, 3).coeffs == (1, 1, 1, 0)


def test_canonical_e_single_coordinate():
    assert canonical("e", 0, 0).coeffs == (1,)


def test_canonical_e_star_duality():
    es = canonical("e_star", 1, 2)
    assert eval_functional(es, canonical("e", 1, 2)) == Root2Scalar(1)
    assert eval_functional(es, canonical("e", 0, 2)) == Root2Scalar(0)


def test_canonical_range_errors():
    with pytest.raises(IndexError):
        canonical("e", 3, 2)
    with pytest.raises(IndexError):
        canonical("d", -1, 2)
    with pytest.raises(ValueError):
        canonical("q", 0, 2)


# ---------------------------------------------------------------------------
# cycle values
# ---------------------------------------------------------------------------

def test_cycle_value_constant_vector():
    x = JVector(2, (Fraction(5), Fraction(5), Fraction(5)))
    assert cycle_value(x, Cycle((0, 1, 2))) == 0


def test_cycle_value_unit_vector_with_virtual():
    x = canonical("e", 0, 3)
    # virtual index is 4: (1-0)^2 + (0-1)^2, halved
    assert cycle_value(x, Cycle((0, 4))) == 1


def test_cycle_value_alternating():
    x = JVector(3, (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)))
    # direct evaluation of the displayed sum: (2^2)*4 / 2
    assert cycle_value(x, Cycle((0, 1, 2, 3))) == 8


def test_cycle_value_singleton_is_zero():
    x = JVector(1, (Fraction(7), Fraction(2)))
    assert cycle_value(x, Cycle((0,))) == 0


def test_cycle_validation():
    with pytest.raises(ValueError):
        Cycle((2, 1))
    with pytest.raises(ValueError):
        Cycle(())
    with pytest.raises(IndexError):
        cycle_value(JVector(1, (Fraction(1), Fraction(0))), Cycle((0, 3)))


# ---------------------------------------------------------------------------
# norm: frozen examples and oracle agreement
# ---------------------------------------------------------------------------

def test_norm_of_d_vectors_is_one():
    # brute force over all cycles confirms nothing exceeds 1
    x = canonical("d", 3, 3)
    value, cert = james_norm_sq(x)
    assert value == 1 == james_norm_sq_oracle(x)
    assert cycle_value(x, cert.cycle) == value


def test_norm_of_zero_vector():
    value, cert = james_norm_sq(JVector.zero(4))
    assert value == 0
    assert cert.cycle.indices == (0,)


def test_norm_counts_alternating_blocks():
    # two 1-blocks: squared norm equals the block count
    x = JVector(3, (Fraction(1), Fraction(0), Fraction(1), Fraction(0)))
    value, _ = james_norm_sq(x)
    assert value == 2 == james_norm_sq_oracle(x)


def test_block_sum_vector_norm():
    # sum of b disjoint d-differences has squared norm b
    for K, blocks, expect in [(9, [(1, 3), (5, 6)], 2), (11, [(0, 2), (4, 5), (8, 10)], 3)]:
        coeffs = [Fraction(0)] * (K + 1)
        for lo, hi in blocks:
            for j in range(lo + 1, hi + 1):
                coeffs[j] = Fraction(1)
        value, _ = james_norm_sq(JVector(K, tuple(coeffs)))
        assert value == expect


def test_oracle_enumeration_j1():
    # the 4 admissible cycles of J_1: (0,1), (0,2), (1,2), (0,1,2)
    x = JVector(1, (Fraction(1), Fraction(-1)))
    by_hand = max(
        cycle_value(x, Cycle(c)) for c in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    )
    assert by_hand == 4
    assert james_norm_sq_oracle(x) == 4
    assert james_norm_sq(x)[0] == 4


def test_oracle_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        james_norm_sq_oracle(JVector.zero(15))


def test_oracle_equivalence_randomized():
    rng = random.Random(1001)
    for K in range(2, 9):
        for _ in range(30):
            x = random_vector(rng, K)
            value, cert = james_norm_sq(x)
            assert value == james_norm_sq_oracle(x)
            assert cycle_value(x, cert.cycle) == value


def test_virtual_reduction_against_appended_zeros():
    # one virtual zero captures the supremum: appending two real zero
    # coordinates must not change the norm
    rng = random.Random(77)
    for _ in range(25):
        K = rng.randint(1, 7)
        x = random_vector(rng, K)
        padded = JVector(K + 2, x.coeffs + (Fraction(0), Fraction(0)))
        assert james_norm_sq(x)[0] == james_norm_sq_oracle(padded)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8),
        min_size=1,
        max_size=7,
    ),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
)
def test_norm_homogeneity_and_symmetry(coeffs, c):
    x = JVector(len(coeffs) - 1, tuple(coeffs))
    base, _ = james_norm_sq(x)
    assert james_norm_sq(x.scale(c))[0] == c * c * base
    assert james_norm_sq(-x)[0] == base


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=11))
@example([0])
@example([7])
@example([0] * 11)
def test_float_norm_matches_exact_on_small_integers(cs):
    # |c| <= 1000 and K <= 10 keep every difference, square and cycle sum far
    # below 2^53, so the float DP makes no rounding error at all.
    exact, _ = james_norm_sq(JVector(len(cs) - 1, tuple(cs)))
    assert james_norm_sq_float([float(c) for c in cs]) == float(exact)


def test_certificate_dominates_random_cycles():
    rng = random.Random(2002)
    x = random_vector(rng, 9)
    value, cert = james_norm_sq(x)
    assert cycle_value(x, cert.cycle) == value
    for _ in range(1000):
        size = rng.randint(1, 11)
        cyc = Cycle(tuple(random_chain(rng, 10, size)))
        assert cycle_value(x, cyc) <= value


def test_certificate_cycle_is_lexicographically_least():
    x = canonical("d", 3, 3)
    _, cert = james_norm_sq(x)
    # every optimal cycle pairs a prefix of equal coordinates with the
    # virtual index; padding costs nothing, so the least tuple is full
    assert cert.cycle.indices == (0, 1, 2, 3, 4)


def test_norm_upper_bound_is_valid():
    rng = random.Random(3003)
    for _ in range(30):
        x = random_vector(rng, rng.randint(0, 8))
        assert james_norm_sq(x)[0] <= james_norm_sq_upper_bound(x)


# ---------------------------------------------------------------------------
# functional evaluation
# ---------------------------------------------------------------------------

def test_e_star_on_d_prefix_rule():
    for p in range(4):
        for n in range(4):
            es = canonical("e_star", p, 3)
            dn = canonical("d", n, 3)
            expect = Root2Scalar(1 if p <= n else 0)
            assert eval_functional(es, dn) == expect
            assert es.eval_on_d(n) == expect


def test_zero_functional_evaluates_to_zero():
    y = DualFunctional.zero(3)
    rng = random.Random(5)
    assert eval_functional(y, random_vector(rng, 3)) == Root2Scalar(0)


def test_certificate_expansion_example():
    # single term (weight 1, cycle (0,1), u = (1, 0)) acts as x_0/sqrt(2)
    cert = DualBallCertificate(
        (CertTerm(Fraction(1), Cycle((0, 1)), (Fraction(1), Fraction(0))),)
    )
    y = functional_from_certificate(cert, 1)
    assert eval_functional(y, canonical("e", 0, 1)) == Root2Scalar(0, Fraction(1, 2))


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_functional(DualFunctional.zero(2), JVector.zero(3))


def test_prefix_values_agree_with_direct_evaluation():
    rng = random.Random(606)
    for trial in range(10):
        K = rng.randint(0, 7)
        y, _ = dual_ball_sample(seed=trial, K=K, num_terms=rng.randint(0, 4))
        for n in (0, 1, K, K + 3):
            direct = eval_functional(y, canonical("d", min(n, K), K))
            assert y.eval_on_d(n) == direct


# ---------------------------------------------------------------------------
# dual ball sampling
# ---------------------------------------------------------------------------

def test_dual_ball_sample_zero_terms():
    y, cert = dual_ball_sample(3, 4, 0)
    assert y.is_zero()
    assert cert.terms == ()


def test_dual_ball_single_term_j0():
    cert = DualBallCertificate(
        (CertTerm(Fraction(1), Cycle((0, 1)), (Fraction(3, 5), Fraction(-4, 5))),)
    )
    y = functional_from_certificate(cert, 0)
    val = eval_functional(y, canonical("e", 0, 0))
    assert val == Root2Scalar(0, Fraction(7, 10))
    assert val.square() == Root2Scalar(Fraction(49, 50))
    assert val.square() < Root2Scalar(1)


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        CertTerm(Fraction(-1), Cycle((0, 1)), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        CertTerm(Fraction(1), Cycle((0, 1)), (Fraction(1),))
    with pytest.raises(ValueError):
        CertTerm(Fraction(1), Cycle((0, 1)), (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        DualBallCertificate(
            (
                CertTerm(Fraction(3, 4), Cycle((0, 1)), (Fraction(1), Fraction(0))),
                CertTerm(Fraction(1, 2), Cycle((0, 1)), (Fraction(1), Fraction(0))),
            )
        )


def test_dual_ball_soundness_exact():
    # every sampled functional is bounded by the norm on every test vector
    rng = random.Random(4004)
    for trial in range(25):
        K = rng.randint(0, 8)
        y, cert = dual_ball_sample(seed=trial, K=K, num_terms=rng.randint(0, 5))
        assert sum((t.weight for t in cert.terms), Fraction(0)) <= 1
        for _ in range(8):
            x = random_vector(rng, K)
            norm_sq, _ = james_norm_sq(x)
            assert eval_functional(y, x).square() <= Root2Scalar(norm_sq)


def test_dual_ball_sample_deterministic():
    a1 = dual_ball_sample(99, 6, 4)
    a2 = dual_ball_sample(99, 6, 4)
    assert a1 == a2
    assert a1 != dual_ball_sample(100, 6, 4)


# ---------------------------------------------------------------------------
# dual norm lower bounds
# ---------------------------------------------------------------------------

def test_dual_norm_lower_bound_on_e_star():
    lb, witness = dual_norm_lower_bound(canonical("e_star", 2, 4), budget=2)
    assert lb == 1
    assert not witness.is_zero()


def test_dual_norm_lower_bound_zero_functional():
    lb, witness = dual_norm_lower_bound(DualFunctional.zero(3), budget=2)
    assert lb == 0
    assert witness.is_zero()


def test_dual_norm_lower_bound_scaled():
    y = canonical("e_star", 0, 0).scale(Fraction(2))
    lb, witness = dual_norm_lower_bound(y, budget=2)
    assert lb == 4


def test_dual_norm_lower_bound_is_valid_bound():
    # the returned value never exceeds the exact witness ratio, and for
    # dual-ball members it never exceeds 1
    rng = random.Random(6006)
    for trial in range(10):
        K = rng.randint(1, 6)
        y, _ = dual_ball_sample(seed=1000 + trial, K=K, num_terms=rng.randint(1, 4))
        lb, witness = dual_norm_lower_bound(y, budget=3)
        assert lb <= 1
        if not witness.is_zero():
            norm_sq, _ = james_norm_sq(witness)
            exact = eval_functional(y, witness).square()
            assert Root2Scalar(lb * norm_sq) <= exact


# ---------------------------------------------------------------------------
# chain stability (dual side)
# ---------------------------------------------------------------------------

def test_chain_stability_e_star_0():
    y = canonical("e_star", 0, 10)
    assert chain_stability_check(y, Fraction(1, 2), (0, 3, 7)) == StableIndex(0)


def test_chain_stability_zero_functional():
    y = DualFunctional.zero(10)
    assert chain_stability_check(y, Fraction(1, 4), (1, 2, 5)) == StableIndex(0)


def test_chain_stability_planted_violation():
    # y = eps * sum of e*_j climbs by exactly eps at every chain step
    eps = Fraction(1, 2)
    K = 12
    y = DualFunctional.from_rationals(K, (eps,) * (K + 1))
    chain = tuple(range(9))
    result = chain_stability_check(y, eps, chain)
    assert isinstance(result, Violation)
    assert len(result.gaps) == 8
    assert all(g == Root2Scalar(eps) for g in result.gaps)


def test_chain_validation_errors():
    y = DualFunctional.zero(5)
    with pytest.raises(ChainError):
        chain_stability_check(y, Fraction(1, 2), (3, 2))
    with pytest.raises(ChainError):
        chain_stability_check(y, Fraction(1, 2), (3,))


def test_lemma_property_sampled_dual_ball():
    # dual-ball members never produce a violation on bound-length chains
    rng = random.Random(7007)
    K = 60
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        k = 2 * ceil_inverse(eps) ** 2
        for trial in range(12):
            y, _ = dual_ball_sample(rng.randrange(2**32), K, rng.randint(0, 5))
            chain = random_chain(rng, K, min(k, K) + 1)
            result = chain_stability_check(y, eps, chain)
            assert isinstance(result, StableIndex)


# ---------------------------------------------------------------------------
# violation witnesses
# ---------------------------------------------------------------------------

def test_witness_from_monotone_climb():
    # all increments on the increasing side; blocks merge into one, and the
    # certificate still holds strictly
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    K = 20
    y = DualFunctional.from_rationals(K, (eps,) * (K + 1))
    chain = tuple(range(k + 1))
    violation = chain_stability_check(y, eps, chain)
    w = violation_to_witness(y, eps, chain, violation)
    assert w.side == "I<"
    assert w.partition_used == tuple(range(k))
    assert w.rhs_sq == 1  # single merged block
    assert w.lhs_sq == Root2Scalar(Fraction(k * k) * eps * eps)
    assert w.lhs_sq > Root2Scalar(w.rhs_sq)


def test_witness_symmetric_side():
    # descending values make the other partition the majority
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    K = 20
    y = DualFunctional.from_rationals(K, (-eps,) * (K + 1))
    chain = tuple(range(k + 1))
    violation = chain_stability_check(y, eps, chain)
    w = violation_to_witness(y, eps, chain, violation)
    assert w.side == "I>"
    assert w.lhs_sq > Root2Scalar(w.rhs_sq)


def test_witness_boundary_gaps():
    # minimal chain length, every gap exactly eps*(1+delta)
    eps = Fraction(1, 4)
    delta = Fraction(1, 100)
    k = 2 * ceil_inverse(eps) ** 2
    y = zigzag_functional(k, eps * (1 + delta))
    chain = tuple(range(k + 1))
    violation = chain_stability_check(y, eps, chain)
    assert isinstance(violation, Violation)
    w = violation_to_witness(y, eps, chain, violation)
    half = Fraction(k, 2)
    assert w.rhs_sq == half
    assert w.lhs_sq == Root2Scalar(half * half * (eps * (1 + delta)) ** 2)
    assert w.lhs_sq > Root2Scalar(w.rhs_sq)


def test_witness_from_scaled_dual_ball_sample():
    rng = random.Random(8008)
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    for _ in range(5):
        chain = random_chain(rng, 60, k + 1)
        y, cert, scale = planted_violator(chain, eps)
        assert scale > 1
        violation = chain_stability_check(y, eps, chain)
        assert isinstance(violation, Violation)
        w = violation_to_witness(y, eps, chain, violation)
        assert w.lhs_sq > Root2Scalar(w.rhs_sq)


def test_witness_precondition_k():
    eps = Fraction(1, 2)
    K = 10
    y = DualFunctional.from_rationals(K, (eps,) * (K + 1))
    chain = (0, 1, 2, 3)  # 3 gaps < 8 required
    violation = chain_stability_check(y, eps, chain)
    with pytest.raises(WitnessPreconditionError):
        violation_to_witness(y, eps, chain, violation)


# ---------------------------------------------------------------------------
# coordinate chains (primal side)
# ---------------------------------------------------------------------------

def test_coordinate_chain_d_vector_stabilizes():
    x = canonical("d", 4, 8)
    result = coordinate_chain_check(x, Fraction(1, 2), (0, 1, 2))
    assert result == StableIndex(0)


def test_coordinate_chain_zero_vector():
    assert coordinate_chain_check(
        JVector.zero(5), Fraction(1, 3), (0, 2, 4)
    ) == StableIndex(0)


def test_coordinate_chain_excess_certificate():
    x = JVector(3, (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)))
    result = coordinate_chain_check(x, Fraction(1), (0, 1, 2, 3))
    assert isinstance(result, NormCertificateOfExcess)
    assert result.cycle.indices == (0, 1, 2, 3)
    assert result.value_sq == 8
    assert result.value_sq > 1


def test_coordinate_chain_boundary_certificate_reaches_one():
    # gaps exactly eps on a minimal chain: the cycle value reaches 1
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    coeffs = [Fraction(0)]
    for i in range(k):
        coeffs.append(coeffs[-1] + (eps if i % 2 == 0 else -eps))
    x = JVector(k, tuple(coeffs))
    result = coordinate_chain_check(x, eps, tuple(range(k + 1)))
    assert isinstance(result, NormCertificateOfExcess)
    assert result.value_sq >= 1


def test_lemma_property_unit_ball_vectors():
    rng = random.Random(9009)
    K = 60
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        k = 2 * ceil_inverse(eps) ** 2
        for _ in range(15):
            x = rescale_into_unit_ball(random_vector(rng, K))
            chain = random_chain(rng, K + 1, min(k, K) + 1)
            result = coordinate_chain_check(x, eps, chain)
            assert isinstance(result, StableIndex)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jvector_json_roundtrip():
    x = JVector(2, (Fraction(1, 3), Fraction(-2), Fraction(0)))
    obj = x.to_json_obj()
    assert obj == {"K": 2, "coeffs": ["1/3", "-2/1", "0/1"]}
    assert JVector.from_json_obj(obj) == x


def test_dual_functional_json_roundtrip():
    y = DualFunctional(
        1, (Root2Scalar(Fraction(1, 2), Fraction(3)), Root2Scalar(0, 0))
    )
    obj = y.to_json_obj()
    assert obj["coeffs"][0] == ["1/2", "3/1"]
    assert DualFunctional.from_json_obj(obj) == y
