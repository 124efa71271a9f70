"""Norm computation, dual-ball soundness, and the chain-stability lemmas."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from jameslab import james_core
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
    ORACLE_MAX_DIMENSION,
    StableIndex,
    Violation,
    WitnessPreconditionError,
    canonical,
    chain_stability_check,
    coordinate_chain_check,
    cycle_sum_max,
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
    _longest_cycle_table,
    _norm_sq_value,
    _turning_points,
)
from jameslab.scalars import Root2Scalar, ceil_inverse

from helpers import (
    every_start_cycle_table,
    full_float_norm_sq,
    planted_violator,
    random_chain,
    random_vector,
    reference_chain_stability_check,
    reference_chain_values,
    reference_coordinate_chain_check,
    reference_cycle_sum_max,
    reference_dual_norm_lower_bound,
    reference_eval_functional,
    reference_turning_points,
    reference_violation_to_witness,
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


# value lists as the norm DP sees them (virtual zero appended): tiny
# alphabets give ties, plateaus and 0/1 blocks; the wide draws reach 10^30
@st.composite
def _kernel_values(draw):
    if draw(st.booleans()):
        alphabet = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        coords = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=41))
    else:
        bound = 10 ** draw(st.sampled_from([1, 3, 9, 30]))
        coords = draw(
            st.lists(st.integers(min_value=-bound, max_value=bound), min_size=1, max_size=41)
        )
    return coords + [0]


@settings(max_examples=300, deadline=None)
@given(_kernel_values())
@example([7] * 40 + [0])
@example([1, 0] * 20 + [0])
def test_value_skip_keeps_every_start_table(vals):
    assert _longest_cycle_table(vals) == every_start_cycle_table(vals)


@settings(max_examples=200, deadline=None)
@given(_kernel_values(), st.sampled_from([1.0, 0.1, 1e-20]))
def test_value_skip_keeps_every_start_table_in_floats(vals, scale):
    fvals = [v * scale for v in vals]
    assert _longest_cycle_table(fvals) == every_start_cycle_table(fvals)


def test_value_skip_treats_signed_zeros_as_one_value():
    vals = [-0.0, 1.5, 0.0, -2.0, -0.0, 0.0]
    assert _longest_cycle_table(vals) == every_start_cycle_table(vals)


@pytest.mark.parametrize(
    "vals, best, start",
    [
        ([0], 0, 0),  # a single point closes no cycle
        ([0, 0, 0, 0], 0, 0),  # all zero: no cycle has a positive sum
        ([4, 0], 32, 0),  # one value against the virtual zero: 2 * 4^2
        ([3, 3, 3, 0], 18, 0),  # all equal: still 2 * 3^2, first start wins
    ],
)
def test_norm_table_degenerate_inputs(vals, best, start):
    table = _longest_cycle_table(vals)
    assert table == every_start_cycle_table(vals)
    assert table[:2] == (best, start)


def test_value_skip_keeps_every_start_table_exhaustively_at_small_k():
    # every start that can win is run: repeated values must not skip one
    for K in range(4):
        for coords in product(range(-3, 4), repeat=K + 1):
            vals = [*coords, 0]
            assert _longest_cycle_table(vals) == every_start_cycle_table(vals)


def test_value_skip_keeps_every_start_table_at_k120():
    rng = random.Random(120)
    vals = [rng.choice((-5, -1, 0, 0, 1, 2, 7)) * rng.randint(1, 3) for _ in range(121)]
    vals.append(0)
    assert _longest_cycle_table(vals) == every_start_cycle_table(vals)


# value lists with heavy repeats (virtual zero appended): runs of 1-5 over
# a small alphabet of ints, or of floats with both signed zeros, cut to
# 1-40 coordinates, so plateaus and values shared far apart are common
@st.composite
def _repeated_values(draw):
    if draw(st.booleans()):
        alphabet, zero = st.integers(-4, 4), 0
    else:
        alphabet = st.sampled_from([0.0, -0.0, 0.1, -0.3, 0.7, 2.5, 1e-20])
        zero = draw(st.sampled_from([0.0, -0.0]))
    runs = draw(st.lists(st.tuples(alphabet, st.integers(1, 5)), min_size=1))
    coords = [v for v, n in runs for _ in range(n)][: draw(st.integers(1, 40))]
    return coords + [zero]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_repeated_values(), _kernel_values()))
@example([7] * 40 + [0])
@example([-0.0, 1.5, 0.0, -2.0, -0.0, 0.0])
@example([0.0, -0.0, 0.0, -0.0])
def test_value_relaxation_is_the_index_relaxation_bit_for_bit(vals):
    assert repr(_longest_cycle_table(vals)) == repr(every_start_cycle_table(vals))


@settings(max_examples=200, deadline=None)
@given(
    _repeated_values().map(lambda vals: vals[:-1]),
    st.sampled_from([1, 3, 10]),
)
@example([2] * 40, 1)
@example([1, 0] * 20, 1)
def test_certificate_cycle_is_the_same_on_the_every_start_table(coords, den):
    # the walk reads g at every index, so the certificate is the same
    # cycle when the table comes from the index relaxation of every start,
    # which ignores the known maximum and runs them all
    x = JVector(len(coords) - 1, tuple(Fraction(c).limit_denominator(10) / den for c in coords))
    result = james_norm_sq(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            james_core,
            "_longest_cycle_table",
            lambda vals, stop_at=None: every_start_cycle_table(vals),
        )
        assert james_norm_sq(x) == result


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _kernel_values(),
        _repeated_values().filter(lambda vals: isinstance(vals[0], int)),
    )
)
@example([5, 5, 1, 5, 5, 0])  # ties at the maximum, on plateaus and apart
@example([3, 3, 3, 3, 0])  # all equal
@example([0, 0, 0, 0])  # maximum 0: no start stops the scan
@example([1, 2, 1, 2, 1, 2, 10, -10, 0])  # first optimal start comes late
def test_early_stop_is_the_every_start_table(vals):
    # stopping at the first start that reaches the known maximum gives the
    # full scan's best, first best start and table
    assert _longest_cycle_table(vals, cycle_sum_max(vals)) == every_start_cycle_table(vals)


@pytest.mark.parametrize("n", [1, 5, 40])
def test_early_stop_finds_a_late_first_optimal_start(n):
    # small zigzags before the pair (10, -10): every optimal cycle is that
    # pair, worth 2 * 20^2, so the scan runs every earlier value first
    vals = [1, 2] * n + [10, -10, 0]
    best, start, table = _longest_cycle_table(vals, cycle_sum_max(vals))
    assert (best, start) == (800, 2 * n)
    assert (best, start, table) == every_start_cycle_table(vals)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 0.25, -1.5, 3.0, 1e-30]), min_size=1, max_size=20),
    st.randoms(use_true_random=False),
)
@example([0.0], random.Random(0))
def test_cycle_sum_max_ignores_the_sign_of_a_zero(coords, rng):
    vals = coords + [0.0]
    flipped = [-0.0 if v == 0 and rng.random() < 0.5 else v for v in vals]
    assert repr(cycle_sum_max(flipped)) == repr(cycle_sum_max(vals))
    assert repr(cycle_sum_max([-v if v == 0 else v for v in vals])) == repr(
        cycle_sum_max(vals)
    )


# floats at the edges of the DP: both signed zeros, repeats, squares that
# overflow to inf, +-inf, whose differences with themselves are NaN, and NaN
@st.composite
def _special_floats(draw):
    alphabet = [
        0.0, -0.0, 0.5, -1.25, 2.0, 1e-200, 1e200, -1e200, math.inf, -math.inf, math.nan
    ]
    coords = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=12))
    return coords + [draw(st.sampled_from([0.0, -0.0]))]


def _cyclic_sum(vals: list, positions: tuple[int, ...]) -> int:
    prev = vals[positions[-1]]
    total = 0
    for p in positions:
        total += (vals[p] - prev) ** 2
        prev = vals[p]
    return total


def test_a_largest_value_joins_some_optimal_cycle():
    # the lemma behind the single start, by brute force: adding a position
    # that holds the maximum to any nonempty position set never lowers its
    # cyclic sum, ties at the maximum included
    rng = random.Random(2525)
    sequences = [list(p) for T in range(1, 5) for p in product((-1, 0, 2), repeat=T)]
    sequences += [
        [rng.choice((-3, -1, 0, 0, 2, 2, 5)) for _ in range(rng.randint(5, 8))]
        for _ in range(150)
    ]
    for vals in sequences:
        top = max(vals)
        tops = [m for m, v in enumerate(vals) if v == top]
        for n in range(1, len(vals) + 1):
            for positions in combinations(range(len(vals)), n):
                value = _cyclic_sum(vals, positions)
                for m in tops:
                    joined = tuple(sorted({*positions, m}))
                    assert _cyclic_sum(vals, joined) >= value


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _kernel_values(),
        _repeated_values().filter(lambda vals: isinstance(vals[0], int)),
        _kernel_values().map(lambda vals: [Fraction(v, 3) for v in vals]),
    )
)
@example([5, 5, 1, 5, 5, 0])  # ties at the maximum, on plateaus and apart
@example([-2, -2, -7, -2, 0])  # the virtual zero is the maximum
@example([3, 0, 3, 0, 3, 0])
@example([Fraction(1, 2)] * 6 + [0])
def test_one_start_is_the_every_start_value_exactly(vals):
    assert cycle_sum_max(vals) == reference_cycle_sum_max(vals)
    assert cycle_sum_max(vals) == every_start_cycle_table(vals)[0]
    if len(vals) <= ORACLE_MAX_DIMENSION + 2:
        x = JVector(len(vals) - 2, tuple(vals[:-1]))
        assert Fraction(cycle_sum_max(vals), 2) == james_norm_sq_oracle(x)


# small dyadic values: every difference, square and sum below is exact
@st.composite
def _dyadic_values(draw):
    alphabet = [0.0, -0.0, 0.25, -0.75, 1.5, 2.0, 3.0]
    coords = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40))
    return coords + [draw(st.sampled_from([0.0, -0.0]))]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _special_floats().filter(lambda vals: not all(map(math.isfinite, vals))),
        _dyadic_values(),
    )
)
@example([math.inf, 1.0, math.inf, 0.0])
@example([-0.0, math.inf, -math.inf, 0.5, math.inf, -0.0])
@example([1e200, -1e200, 1e200, 0.0])  # finite, but each optimal square is inf
@example([math.nan, 2.0, 0.0])
@example([3.0, -0.75, 3.0, 3.0, 0.0])
@example([0.0, 0.0])  # a zero maximum is the int 0
def test_cycle_sum_max_is_the_reference_bit_for_bit_on_non_finite_and_dyadic_values(vals):
    # an inf or NaN takes the every-start table, whose floats are the
    # reference's; dyadic sums are exact, so one start gives them too
    assert repr(cycle_sum_max(vals)) == repr(reference_cycle_sum_max(vals))


# ---------------------------------------------------------------------------
# turning points
# ---------------------------------------------------------------------------

# coordinates of length 1-14 built from runs, so plateaus (at either end
# too), all-equal vectors and monotone stretches are common; negatives in
@st.composite
def _run_coords(draw):
    alphabet = draw(
        st.sampled_from(
            [st.integers(-3, 3), st.integers(-50, 50), st.integers(-10**12, 10**12)]
        )
    )
    coords = []
    for value, length in draw(st.lists(st.tuples(alphabet, st.integers(1, 4)), min_size=1)):
        coords.extend([value] * length)
    return coords[: draw(st.integers(1, 14))]


@pytest.mark.parametrize(
    "vals, kept",
    [
        ([0], [0]),
        ([0, 0], [0]),  # a zero before the virtual zero: one value left
        ([3, 3, 3, 0], [3, 0]),  # all equal
        ([1, 2, 3, 0], [1, 3, 0]),  # interior of a rising run
        ([3, 2, 1, 0], [3, 0]),  # the first value stays
        ([2, 2, 5, 5, 1, 1, 0], [2, 5, 0]),  # plateaus at the turns
        ([1, -1, 1, -1, 0], [1, -1, 1, -1, 0]),  # nothing to drop
    ],
)
def test_turning_points_examples(vals, kept):
    assert _turning_points(vals) == kept


@settings(max_examples=400, deadline=None)
@given(_run_coords())
@example([5])
@example([0])
@example([4] * 14)
@example([0] * 14)
@example([2, 2, 2, 1, 1, 5])
@example([-3, 1, 1, 1])
def test_turning_points_keep_the_norm(coords):
    vals = coords + [0]
    assert _longest_cycle_table(_turning_points(vals))[0] == _longest_cycle_table(vals)[0]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_special_floats(), _repeated_values(), _kernel_values()))
@example([math.nan, 1.0, math.nan, 2.0, 0.0])
@example([1.0, math.nan, 2.0, 3.0, 0.0])
def test_turning_points_are_the_list_reading_loop(vals):
    assert repr(_turning_points(vals)) == repr(reference_turning_points(vals))


@settings(max_examples=150, deadline=None)
@given(_run_coords())
@example([4] * 14)
@example([-2, -2, 3, 3, 3, 1, 0, 0])
def test_turning_points_match_the_oracle(coords):
    x = JVector(len(coords) - 1, tuple(coords))
    assert Fraction(cycle_sum_max(coords + [0]), 2) == james_norm_sq_oracle(x)


def _rounding_bound(T: int) -> Fraction:
    # gamma(T + 2) of the cycle_sum_max docstring, u = 2^-53
    nu = Fraction(T + 2, 2**53)
    return nu / (1 - nu)


def _assert_within_the_rounding_bound(coords: list[float]) -> None:
    vals = coords + [0.0]
    exact = reference_cycle_sum_max([Fraction(v) for v in vals])
    T = len(_turning_points(vals))
    value = Fraction(james_norm_sq_float(coords)) * 2
    assert abs(value - exact) <= _rounding_bound(T) * exact
    # both start sets meet an optimal cycle, of at most len(vals) points
    every_start = Fraction(full_float_norm_sq(coords)) * 2
    assert abs(value - every_start) <= 2 * _rounding_bound(len(vals)) * exact


_finite = st.floats(min_value=-1e100, max_value=1e100).map(
    lambda v: v if abs(v) >= 1e-100 else 0.0  # no squares below the normal range
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(_finite, min_size=1, max_size=14),
        _run_coords().map(lambda cs: [c * 0.37 for c in cs]),
    )
)
@example([0.1, 0.7, 0.1, 0.7, 0.3])
def test_float_norm_is_within_the_rounding_bound(coords):
    _assert_within_the_rounding_bound(coords)


def test_float_norm_is_within_the_rounding_bound_on_uniform_draws():
    rng = random.Random(4242)
    for _ in range(3000):
        _assert_within_the_rounding_bound(
            [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 11))]
        )


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

def _chain_scalars(y: DualFunctional, chain: tuple[int, ...]) -> list[Root2Scalar]:
    """The integer chain walk's values as Root2Scalars."""
    return [
        Root2Scalar(Fraction(P, D), Fraction(Q, D))
        for P, Q, D in james_core._chain_values(y, chain)
    ]


def test_e_star_on_d_prefix_rule():
    for p in range(4):
        for n in range(4):
            es = canonical("e_star", p, 3)
            dn = canonical("d", n, 3)
            expect = Root2Scalar(1 if p <= n else 0)
            assert eval_functional(es, dn) == expect
            assert _chain_scalars(es, (n,)) == [expect]


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
        chain = tuple(sorted({0, 1, K, K + 3}))
        direct = [eval_functional(y, canonical("d", min(n, K), K)) for n in chain]
        assert _chain_scalars(y, chain) == direct
        assert reference_chain_values(y, chain) == direct


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


def test_dual_norm_lower_bound_matches_the_certificate_norm():
    # the value-only norm of the witness is the certificate DP's, exactly
    rng = random.Random(6116)
    for trial in range(8):
        K = rng.randint(0, 6)
        y, _ = dual_ball_sample(seed=2000 + trial, K=K, num_terms=rng.randint(1, 4))
        lb, witness = dual_norm_lower_bound(y, budget=2)
        if witness.is_zero():
            continue
        norm_sq, _ = james_norm_sq(witness)
        exact = eval_functional(y, witness).square().rational_lower_bound()
        assert lb == exact / norm_sq


def test_dual_norm_lower_bound_matches_its_ascent_oracle():
    # the shared coordinate ascent keeps the (lb, witness) of the old loop
    rng = random.Random(6226)
    for trial in range(150):
        K = rng.randint(0, 9)
        budget = trial % 5
        rational = DualFunctional.from_rationals(
            K, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(K + 1))
        )
        ball, _ = dual_ball_sample(seed=3000 + trial, K=K, num_terms=rng.randint(1, 4))
        y = (rational, ball, rational + ball)[trial % 3]
        assert dual_norm_lower_bound(y, budget) == reference_dual_norm_lower_bound(
            y, budget
        )
    y, _ = dual_ball_sample(3, 20, 4)
    assert dual_norm_lower_bound(y, 3) == reference_dual_norm_lower_bound(y, 3)


def test_an_ascent_evaluates_each_point_once():
    # dyadic moves land on the same floats again: the second coordinate's
    # last move returns to (0.75, 0.0), and the closing sweep retries
    # points of the first; each is looked up, not evaluated
    points = []

    def objective(x: list[float]) -> float:
        points.append(tuple(x))
        return 10.0 - (x[0] - 0.75) ** 2 - (x[1] + 0.5) ** 2

    x = james_core._coordinate_ascent(objective, [0.0, 0.0], (-0.5, -0.25, 0.25, 0.5))
    assert x == [0.75, -0.5]
    assert len(set(points)) == len(points)
    assert len(points) < 1 + 2 * 2 * 4  # the trials of two sweeps


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


def test_lazy_chain_check_is_the_prefix_check():
    # sparse dual-ball samples, planted chains and dense rationals, on
    # chains that may run past K, where y(d_n) = y(d_K): the same stable
    # index, or a violation with the same gaps
    rng = random.Random(4242)
    outcomes = set()
    for trial in range(150):
        K = rng.randint(0, 30)
        eps = rng.choice((Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(3)))
        chain = random_chain(rng, K + 4, rng.randint(2, min(K + 5, 12)))
        kind = trial % 3
        if kind == 0:
            y, _ = dual_ball_sample(rng.randrange(2**32), K, rng.randint(0, 4))
        elif kind == 1:
            y, _, _ = planted_violator(chain, eps)
            chain += tuple(range(max(chain) + 1, max(chain) + rng.randint(1, 3)))
        else:
            y = DualFunctional.from_rationals(
                K, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(K + 1))
            )
        expected = reference_chain_stability_check(y, eps, chain)
        assert chain_stability_check(y, eps, chain) == expected
        outcomes.add((type(expected), max(chain) > y.K))
    assert len(outcomes) == 4  # both outcomes, with chains inside and past K


def test_chain_check_sums_no_further_than_the_first_stable_gap():
    # e*_0 at K = 10^4: the gap between d_0 and d_3 is 0, found after
    # reading coefficients 0..3, where every prefix would read 10^4
    reads = []

    class RecordingTuple(tuple):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    y = canonical("e_star", 0, 10**4)
    object.__setattr__(y, "coeffs", RecordingTuple(y.coeffs))
    assert chain_stability_check(y, Fraction(1, 2), (0, 3, 7, 9000)) == StableIndex(0)
    assert reads and max(key.stop for key in reads) <= 4


# rationals with denominators 1..12, for coordinates and for the rational
# and sqrt(2) parts of coefficients
_rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)


@st.composite
def _chain_cases(draw):
    """(y, eps, chain) at K <= 30.  Half the cases plant one coefficient of
    size at least eps at each chain step past the first, of either sign,
    with sqrt(2) parts of the same sign, so violations are common; the
    rest are random functionals, sparse or dense."""
    planted = draw(st.booleans())
    K = draw(st.integers(1 if planted else 0, 30))
    eps = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1, 10)]))
    top = K if planted else K + 3  # a planted chain stays inside 0..K
    length = draw(st.integers(2, min(top + 1, 20)))
    chain = tuple(sorted(draw(st.sets(st.integers(0, top), min_size=length, max_size=length))))
    if planted:
        coeffs = [Root2Scalar(0)] * (K + 1)
        for n in chain[1:]:
            a = eps * (1 + draw(_rationals.map(abs)))
            b = draw(_rationals.map(abs))
            sign = draw(st.sampled_from([-1, 1]))
            coeffs[n] = Root2Scalar(sign * a, sign * b)
    else:
        part = st.one_of(st.just(Fraction(0)), _rationals)
        coeffs = draw(st.lists(st.builds(Root2Scalar, part, part), min_size=K + 1, max_size=K + 1))
    return DualFunctional(K, tuple(coeffs)), eps, chain


# steps of +-(1/2 + sqrt(2)/(n+1)): every gap is at least 1/2, the
# denominator grows along the chain, and the two sides tie at 4 steps each
_ZIGZAG_MIXED = DualFunctional(
    8,
    (Root2Scalar(0),)
    + tuple(
        Root2Scalar((-1) ** n * Fraction(1, 2), (-1) ** n * Fraction(1, n + 1))
        for n in range(1, 9)
    ),
)


@settings(max_examples=300, deadline=None)
@given(_chain_cases())
@example((_ZIGZAG_MIXED, Fraction(1, 2), tuple(range(9))))
@example((_ZIGZAG_MIXED, Fraction(2, 3), tuple(range(9))))
@example((_ZIGZAG_MIXED, Fraction(2, 3), (0, 2, 3, 4, 5, 6, 7, 8, 9, 11)))
@example((_ZIGZAG_MIXED, Fraction(1, 10), tuple(range(9))))
def test_integer_chain_walk_matches_the_root2_reference(case):
    y, eps, chain = case
    assert _chain_scalars(y, chain) == reference_chain_values(y, chain)
    result = chain_stability_check(y, eps, chain)
    assert result == reference_chain_stability_check(y, eps, chain)
    if isinstance(result, Violation) and len(chain) - 1 >= 2 * ceil_inverse(eps) ** 2:
        witness = violation_to_witness(y, eps, chain, result)
        assert witness == reference_violation_to_witness(y, eps, chain)
        assert witness.lhs_sq == eval_functional(y, witness.xhat).square()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda K: st.tuples(
            st.lists(st.builds(Root2Scalar, _rationals, _rationals), min_size=K + 1, max_size=K + 1),
            st.lists(_rationals, min_size=K + 1, max_size=K + 1),
        )
    )
)
def test_eval_functional_matches_the_fraction_sum(parts):
    ys, xs = parts
    y = DualFunctional(len(ys) - 1, tuple(ys))
    x = JVector(len(xs) - 1, tuple(xs))
    assert eval_functional(y, x) == reference_eval_functional(y, x)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda K: st.tuples(
            st.lists(_rationals, min_size=K + 1, max_size=K + 1),
            st.sets(st.integers(0, K + 1), min_size=2, max_size=K + 2),
        )
    ),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1, 10), Fraction(3)]),
)
@example(([Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)], {0, 1, 2, 3}), Fraction(1))
@example(([Fraction(1, 2), Fraction(0), Fraction(1, 2)], {0, 1, 2, 3}), Fraction(1, 2))
def test_coordinate_chain_check_matches_the_fraction_gaps(parts, eps):
    # gaps exactly eps count as large, on either side of the virtual zero
    coeffs, indices = parts
    x = JVector(len(coeffs) - 1, tuple(coeffs))
    chain = tuple(sorted(indices))
    assert coordinate_chain_check(x, eps, chain) == reference_coordinate_chain_check(x, eps, chain)


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


def test_witness_norm_is_the_certificate_dp_value():
    # rhs_sq is the number of blocks of ones of the 0/1 witness; it equals
    # the certificate DP's value and the brute-force norm on planted and
    # random witnesses
    rng = random.Random(8010)
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    cases = []
    for _ in range(10):
        chain = random_chain(rng, 14, k + 1)
        y, _cert, _scale = planted_violator(chain, eps)
        cases.append((y, chain))
    for _ in range(20):
        chain = random_chain(rng, 14, k + 1)
        coeffs = [Fraction(0)] * (chain[-1] + 1)
        for n in chain[1:]:  # each chain gap is one coefficient, above eps
            stretch = 1 + Fraction(rng.randint(1, 20), 10)
            coeffs[n] = rng.choice((-1, 1)) * eps * stretch
        cases.append((DualFunctional.from_rationals(chain[-1], tuple(coeffs)), chain))
    for y, chain in cases:
        violation = chain_stability_check(y, eps, chain)
        assert isinstance(violation, Violation)
        w = violation_to_witness(y, eps, chain, violation)
        assert w.rhs_sq == james_norm_sq(w.xhat)[0] == james_norm_sq_oracle(w.xhat)
    # witnesses have integer coordinates; the shared helper also clears
    # denominators
    for _ in range(20):
        x = random_vector(rng, rng.randint(0, 8))
        assert _norm_sq_value(x) == james_norm_sq(x)[0] == james_norm_sq_oracle(x)


def test_a_zero_one_vector_has_its_block_count_as_squared_norm():
    # the closed form behind the witness's rhs_sq, exhaustively at K <= 7
    for K in range(8):
        for bits in product((0, 1), repeat=K + 1):
            blocks = sum(b > a for a, b in zip((0, *bits), bits))
            assert james_norm_sq_oracle(JVector(K, bits)) == blocks


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


@pytest.mark.parametrize("K", [1.0, 1.5, True, "1", None])
def test_json_readers_refuse_a_k_that_is_not_an_integer(K):
    # "K": int in the file formats: nothing is truncated or coerced
    with pytest.raises(TypeError, match="'K' must be an integer"):
        JVector.from_json_obj({"K": K, "coeffs": ["1/1", "2/1"]})
    with pytest.raises(TypeError, match="'K' must be an integer"):
        DualFunctional.from_json_obj({"K": K, "coeffs": [["1/1", "0/1"], ["0/1", "1/1"]]})


@pytest.mark.parametrize("entry", [True, False, 1.0, 0.1])
def test_json_readers_refuse_a_bool_or_float_entry(entry):
    # an entry is a "p/q" string or an integer: nothing is coerced
    with pytest.raises(TypeError, match="must be a \"p/q\" string or an integer"):
        JVector.from_json_obj({"K": 1, "coeffs": ["1/1", entry]})
    with pytest.raises(TypeError, match="must be a \"p/q\" string or an integer"):
        DualFunctional.from_json_obj({"K": 1, "coeffs": [["1/1", "0/1"], ["0/1", entry]]})


@pytest.mark.parametrize("value", ["12", {"1": 0, "2": 0}, 12, None])
def test_json_readers_refuse_a_non_array_for_an_array(value):
    # a string would be read as its characters, an object as its keys
    with pytest.raises(TypeError, match="coeffs must be an array"):
        JVector.from_json_obj({"K": 1, "coeffs": value})
    with pytest.raises(TypeError, match="coeffs must be an array"):
        DualFunctional.from_json_obj({"K": 1, "coeffs": value})
    with pytest.raises(TypeError, match="a Q\\(sqrt 2\\) pair must be an array"):
        DualFunctional.from_json_obj({"K": 1, "coeffs": [["1", "0"], value]})


def test_json_readers_take_strings_and_integers():
    assert JVector.from_json_obj({"K": 1, "coeffs": ["1/2", 3]}) == JVector(
        1, (Fraction(1, 2), Fraction(3))
    )
    assert DualFunctional.from_json_obj({"K": 0, "coeffs": [[-2, "1/3"]]}) == DualFunctional(
        0, (Root2Scalar(-2, Fraction(1, 3)),)
    )
