"""Dual bases, moduli, sign alignment, and unconditional-constant bounds."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from jameslab import basis_tools, james_core
from jameslab.basis_tools import (
    Basis,
    DualBasis,
    SignPattern,
    SingularBasis,
    StructureViolation,
    UCEstimate,
    ZeroVector,
    modulus_functional,
    modulus_vector,
    random_invertible_basis,
    ratio_sq,
    sign_align,
    uc_lower_bound,
    uc_sign_patterns,
)
from jameslab.james_core import (
    DimensionMismatch,
    DualFunctional,
    JVector,
    canonical,
    dual_ball_sample,
    dual_norm_lower_bound,
    eval_functional,
    james_norm_sq_oracle,
)
from jameslab.measure_space import IrrationalAtomValue, build, pi_star
from jameslab.scalars import Root2Scalar

from helpers import (
    dense_combine,
    fraction_free_inverse,
    gauss_jordan_inverse,
    monomial_basis,
    random_vector,
    reference_ascend_alpha,
    reference_combine,
    reference_coords_of,
    reference_functional_values,
    reference_modulus_functional,
    reference_ratio_sq,
    reference_uc_lower_bound,
)


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def test_invert_identity():
    inv = fraction_free_inverse(frac_matrix([[1, 0], [0, 1]]))
    assert inv == frac_matrix([[1, 0], [0, 1]])


def test_invert_known_matrix():
    inv = fraction_free_inverse(frac_matrix([[2, 1], [1, 1]]))
    assert inv == frac_matrix([[1, -1], [-1, 2]])


def test_invert_singular_raises():
    with pytest.raises(SingularBasis):
        fraction_free_inverse(frac_matrix([[1, 2], [2, 4]]))


def test_invert_random_verifies_by_multiplication():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 5)
        while True:
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            try:
                inv = fraction_free_inverse(rows)
                break
            except SingularBasis:
                continue
        for i in range(n):
            for j in range(n):
                prod = sum(rows[i][t] * inv[t][j] for t in range(n))
                assert prod == (1 if i == j else 0)


def _inverse_or_error(invert, rows):
    try:
        return invert(rows)
    except SingularBasis as exc:
        return f"SingularBasis: {exc}"


_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_nonzero = _entries.filter(bool)


def _square(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _sparse_matrices(draw):
    """Identity, permutation, diagonal and triangular matrices up to n = 9,
    or one whose entries are mostly zero: pivot steps with f = 0 rows."""
    n = draw(st.integers(1, 9))
    kind = draw(
        st.sampled_from(["identity", "permutation", "diagonal", "triangular", "zeros"])
    )
    if kind == "zeros":
        zero = st.just(Fraction(0))
        return draw(_square(st.one_of(zero, zero, zero, _entries), n))
    if kind in ("identity", "permutation"):
        perm = draw(st.permutations(range(n))) if kind == "permutation" else range(n)
        return [[Fraction(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    rows = draw(_square(_entries, n))
    for i, row in enumerate(rows):
        row[i] = draw(_nonzero)
        for j in range(i if kind == "triangular" else 0, n):
            if j != i:
                row[j] = Fraction(0)
    return [list(col) for col in zip(*rows)] if draw(st.booleans()) else rows


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(1, 7).flatmap(lambda n: _square(_entries, n)),
        _sparse_matrices(),
    )
)
@example(frac_matrix([[int(i == j) for j in range(9)] for i in range(9)]))
@example(frac_matrix([[1, 2], [2, 4]]))
@example(frac_matrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]))
@example(frac_matrix([[1, 1, 1], [1, 1, 2], [2, 2, 3]]))
@example(frac_matrix([[0, 1], [1, 0]]))
@example([[2, 1], [1, 1]])
def test_fraction_free_inverse_matches_gauss_jordan(rows):
    # same inverse, or the same SingularBasis message for the same column
    assert _inverse_or_error(fraction_free_inverse, rows) == _inverse_or_error(
        gauss_jordan_inverse, rows
    )


# ---------------------------------------------------------------------------
# dual bases
# ---------------------------------------------------------------------------

def test_dual_of_identity_basis_is_e_star():
    dual = Basis.canonical(3).dual
    for i in range(4):
        f = dual.functional(i)
        assert f.rational_coeffs() == tuple(
            Fraction(1 if j == i else 0) for j in range(4)
        )


def test_dual_of_diagonal_basis_scales():
    basis = Basis(1, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))))
    assert basis.dual.rows == (
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    )


def test_dual_basis_biorthogonality_random():
    # independent oracle: direct dot products, no inversion involved
    rng = random.Random(33)
    for _ in range(8):
        basis = random_invertible_basis(3, rng)
        for i in range(4):
            for j in range(4):
                value = sum(
                    r * c for r, c in zip(basis.dual.rows[i], basis.columns[j])
                )
                assert value == (1 if i == j else 0)


@pytest.mark.parametrize("K", [-1, 1.5, 1.0, True, Fraction(1), "1"], ids=repr)
def test_basis_refuses_a_dimension_index_that_is_not_a_natural_number(K):
    # int(K) would build a K = 1 basis from 1.5 or True
    with pytest.raises(ValueError, match="dimension index must be"):
        Basis(K, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))


def test_singular_basis_rejected():
    cols = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    with pytest.raises(SingularBasis):
        Basis(1, cols)


def test_basis_rejects_dual_failing_biorthogonality(monkeypatch):
    # an integer inverse that is off in one entry must not become the
    # basis's dual
    invert = basis_tools.integer_inverse

    def bad_inverse(D, m):
        E, inv = invert(D, m)
        inv[0][0] += 1
        return E, inv

    monkeypatch.setattr(basis_tools, "integer_inverse", bad_inverse)
    with pytest.raises(StructureViolation, match="biorthogonality check failed"):
        Basis.canonical(2)


def _sparse_basis(kind):
    if kind == "canonical":
        return Basis.canonical(3)
    rows, basis = monomial_basis(random.Random(5), 3, permuted=True)
    assert rows != [0, 1, 2, 3]
    assert any(abs(v) != 1 for col in basis.columns for v in col)
    return basis


def test_a_built_basis_refuses_assignment_and_deletion():
    # the forms its one biorthogonality check passed are the ones every
    # later reader sees, as on the frozen dataclasses
    basis = random_invertible_basis(3, random.Random(9))
    for name in ("K", "columns", "int_columns", "dual"):
        value = getattr(basis, name)
        with pytest.raises(AttributeError):
            setattr(basis, name, value)
        with pytest.raises(AttributeError):
            delattr(basis, name)
        assert getattr(basis, name) is value


@pytest.mark.parametrize("form", ["dual rows", "columns"])
@pytest.mark.parametrize("kind", ["canonical", "scaled permuted monomial"])
def test_each_corrupted_entry_fails_the_check(kind, form):
    # on a sparse basis most entries of E * W^-1 and F * W are zero; one
    # entry, zero or not, is moved past the guard of the built basis (plain
    # assignment is refused), and the check must fail
    for i, j in product(range(4), repeat=2):
        basis = _sparse_basis(kind)
        basis.check_biorthogonality()
        E, rows = basis.dual.int_rows
        F, columns = basis.int_columns
        if form == "dual rows":
            rows = [list(row) for row in rows]
            rows[i][j] += 1
            name, value = "dual", DualBasis(3, (E, tuple(map(tuple, rows))))
        else:
            columns = [list(col) for col in columns]
            columns[i][j] += 1
            name, value = "int_columns", (F, tuple(map(tuple, columns)))
        with pytest.raises(AttributeError):
            setattr(basis, name, value)
        object.__setattr__(basis, name, value)
        with pytest.raises(StructureViolation, match="biorthogonality"):
            basis.check_biorthogonality()


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_modulus_vector_canonical_componentwise():
    basis = Basis.canonical(2)
    x = JVector(2, (Fraction(1), Fraction(-2), Fraction(3)))
    assert modulus_vector(basis, x).coeffs == (1, 2, 3)


def test_modulus_functional_matches_the_q_sqrt2_sum():
    rng = random.Random(46)
    rejected = 0
    for K in range(6):
        basis = random_invertible_basis(K, rng)
        for _ in range(3):
            parts = [
                Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(2 * K + 2)
            ]
            rational = DualFunctional.from_rationals(K, tuple(parts[: K + 1]))
            mixed = DualFunctional(
                K, tuple(map(Root2Scalar, parts[: K + 1], parts[K + 1 :]))
            )
            pure_sqrt2 = DualFunctional(
                K, tuple(Root2Scalar(0, b) for b in parts[K + 1 :])
            )
            assert modulus_functional(basis, rational) == (
                reference_modulus_functional(basis, rational)
            )
            for x_star in (mixed, pure_sqrt2):
                if x_star.has_rational_coeffs:  # every sqrt(2) part drawn as 0
                    continue
                assert_rejected_by_the_rational_maps(basis, x_star)
                rejected += 1
    assert rejected > 0


def assert_rejected_by_the_rational_maps(basis: Basis, x_star: DualFunctional) -> None:
    """The basis maps and pi_star each raise IrrationalAtomValue on x*."""
    model = build(basis)
    x = JVector.zero(basis.K)
    for call in (
        lambda: basis.functional_values(x_star),
        lambda: modulus_functional(basis, x_star),
        lambda: sign_align(basis, x, x_star),
        lambda: pi_star(model, x_star),
    ):
        with pytest.raises(IrrationalAtomValue):
            call()


def _sample_functional(rng: random.Random, K: int, kind: str) -> DualFunctional:
    """A rational functional, a dual-ball sample (sqrt(2) parts) or their sum."""
    rational = DualFunctional.from_rationals(
        K, tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(K + 1))
    )
    ball, _ = dual_ball_sample(rng.randrange(10**6), K, rng.randint(0, 4))
    return {"rational": rational, "dual_ball": ball, "mixed": rational + ball}[kind]


_BASIS_CASES = (
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.sampled_from(["rational", "dual_ball", "mixed"]),
    st.integers(min_value=0, max_value=2**32),
)


def _basis_case(K: int, canonical_basis: bool, seed: int) -> tuple[random.Random, Basis]:
    rng = random.Random(seed)
    return rng, Basis.canonical(K) if canonical_basis else random_invertible_basis(K, rng)


@settings(max_examples=150, deadline=None)
@given(*_BASIS_CASES)
def test_basis_coordinate_maps_match_their_fraction_oracles(
    K, canonical_basis, kind, seed
):
    rng, basis = _basis_case(K, canonical_basis, seed)
    x = random_vector(rng, K)
    alpha = random_vector(rng, K).coeffs
    x_star = _sample_functional(rng, K, kind)
    coords = basis.dual.coords_of(x)
    assert coords == reference_coords_of(basis.dual, x)
    assert all(type(c) is Fraction for c in coords)
    assert basis.combine(alpha) == reference_combine(basis, alpha)
    assert basis.combine(coords) == x
    if x_star.has_rational_coeffs:
        assert basis.functional_values(x_star) == (
            reference_functional_values(basis, x_star)
        )
    else:
        assert_rejected_by_the_rational_maps(basis, x_star)


@settings(max_examples=100, deadline=None)
@given(*_BASIS_CASES)
def test_modulus_functional_matches_the_oracle_on_every_kind(
    K, canonical_basis, kind, seed
):
    rng, basis = _basis_case(K, canonical_basis, seed)
    x_star = _sample_functional(rng, K, kind)
    if x_star.has_rational_coeffs:
        assert modulus_functional(basis, x_star) == reference_modulus_functional(
            basis, x_star
        )
    else:
        assert_rejected_by_the_rational_maps(basis, x_star)


def test_functional_values_checks_the_dimension():
    with pytest.raises(DimensionMismatch):
        Basis.canonical(2).functional_values(DualFunctional.zero(3))


def test_modulus_vector_idempotent():
    rng = random.Random(44)
    for _ in range(6):
        basis = random_invertible_basis(2, rng)
        x = random_vector(rng, 2)
        m1 = modulus_vector(basis, x)
        assert modulus_vector(basis, m1) == m1


def test_modulus_functional_canonical_fixed_points():
    basis = Basis.canonical(3)
    for j in range(4):
        es = canonical("e_star", j, 3)
        assert modulus_functional(basis, es) == es
    for j in range(4):
        dj = canonical("d", j, 3)
        assert modulus_vector(basis, dj) == dj


def test_canonical_d_mixture():
    # d = sum of 2^{-j-1} |d_j| for the canonical basis
    basis = Basis.canonical(2)
    total = JVector.zero(2)
    for j in range(3):
        total = total + modulus_vector(basis, canonical("d", j, 2)).scale(
            Fraction(1, 2 ** (j + 1))
        )
    assert total.coeffs == (Fraction(7, 8), Fraction(3, 8), Fraction(1, 8))


def test_modulus_nonnegative_vectors_fixed():
    basis = Basis.canonical(4)
    x = JVector(4, tuple(Fraction(i, 3) for i in range(5)))
    assert modulus_vector(basis, x) == x


# ---------------------------------------------------------------------------
# sign alignment
# ---------------------------------------------------------------------------

def test_sign_align_zero_functional():
    basis = Basis.canonical(2)
    x = JVector(2, (Fraction(1), Fraction(-1), Fraction(2)))
    _, pairing = sign_align(basis, x, DualFunctional.zero(2))
    assert pairing == Root2Scalar(0)


def test_sign_align_resolves_ties_to_plus_one():
    # where x*(w_i) = 0 the coordinate keeps its sign, on any basis
    rng = random.Random(57)
    for K in range(4):
        basis = random_invertible_basis(K, rng)
        x = random_vector(rng, K)
        x_prime, _ = sign_align(basis, x, DualFunctional.zero(K))
        assert x_prime == x
        x_star = basis.dual.functional(0)  # vanishes on w_1..w_K
        coords = basis.dual.coords_of(x)
        x_prime, _ = sign_align(basis, x, x_star)
        assert basis.dual.coords_of(x_prime) == (abs(coords[0]),) + coords[1:]


def test_sign_align_canonical_example():
    basis = Basis.canonical(1)
    x = JVector(1, (Fraction(1), Fraction(-1)))
    x_star = DualFunctional.from_rationals(1, (Fraction(1), Fraction(1)))
    x_prime, pairing = sign_align(basis, x, x_star)
    assert x_prime.coeffs == (1, 1)
    assert pairing == Root2Scalar(2)


def test_sign_align_pairing_nonnegative():
    rng = random.Random(55)
    for _ in range(10):
        basis = random_invertible_basis(3, rng)
        x = random_vector(rng, 3)
        x_star = DualFunctional.from_rationals(
            3, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        )
        x_prime, pairing = sign_align(basis, x, x_star)
        assert pairing.sign() >= 0
        assert eval_functional(x_star, x_prime) == pairing


def test_sign_align_matches_modulus_pairing():
    rng = random.Random(56)
    for _ in range(6):
        basis = random_invertible_basis(2, rng)
        x = random_vector(rng, 2)
        x_star = DualFunctional.from_rationals(
            2, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        )
        _, pairing = sign_align(basis, x, x_star)
        mod_x = modulus_vector(basis, x)
        mod_star = modulus_functional(basis, x_star)
        assert eval_functional(mod_star, mod_x) == pairing


# ---------------------------------------------------------------------------
# ratios and unconditional-constant bounds
# ---------------------------------------------------------------------------

def test_ratio_all_plus_ones_is_one():
    basis = Basis.canonical(3)
    alpha = (Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2))
    assert ratio_sq(basis, SignPattern((1, 1, 1, 1)), alpha) == 1


def test_ratio_flip_involution():
    basis = Basis.canonical(3)
    eps = SignPattern((1, -1, 1, -1))
    alpha = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3))
    flipped = tuple(e * a for e, a in zip(eps.entries, alpha))
    assert ratio_sq(basis, eps, alpha) * ratio_sq(basis, eps, flipped) == 1


def test_ratio_canonical_k3_example():
    # independent route: brute-force cycle enumeration for both norms
    basis = Basis.canonical(3)
    eps = SignPattern((1, -1, 1, -1))
    alpha = (Fraction(1),) * 4
    flipped = JVector(3, (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)))
    base = JVector(3, (Fraction(1),) * 4)
    oracle_ratio = james_norm_sq_oracle(flipped) / james_norm_sq_oracle(base)
    assert oracle_ratio == 8
    assert ratio_sq(basis, eps, alpha) == 8


def test_ratio_zero_vector_rejected():
    basis = Basis.canonical(1)
    with pytest.raises(ZeroVector):
        ratio_sq(basis, SignPattern((1, -1)), (Fraction(0), Fraction(0)))


def _random_alpha(rng: random.Random, K: int) -> tuple[Fraction, ...]:
    if rng.random() < 0.1:
        return (Fraction(0),) * (K + 1)
    return tuple(
        Fraction(0) if rng.random() < 0.3
        else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for _ in range(K + 1)
    )


def test_ratio_matches_the_fraction_reference():
    rng = random.Random(7070)
    zero_cases = 0
    for _ in range(400):
        K = rng.randint(0, 6)
        basis = random_invertible_basis(K, rng) if rng.random() < 0.8 else Basis.canonical(K)
        eps = SignPattern(tuple(rng.choice((-1, 1)) for _ in range(K + 1)))
        alpha = _random_alpha(rng, K)
        try:
            expected = reference_ratio_sq(basis, eps, alpha)
        except ZeroVector:
            zero_cases += 1
            with pytest.raises(ZeroVector):
                ratio_sq(basis, eps, alpha)
            continue
        assert ratio_sq(basis, eps, alpha) == expected
    assert zero_cases > 0


def test_ratio_rejects_mismatched_lengths():
    with pytest.raises(DimensionMismatch):
        ratio_sq(Basis.canonical(2), SignPattern((1, 1)), (Fraction(1),) * 3)
    with pytest.raises(DimensionMismatch):
        ratio_sq(Basis.canonical(2), SignPattern((1, 1, 1)), (Fraction(1),) * 2)


def _ascent_start(rng: random.Random, K: int) -> list[float]:
    # steps of the ascent's deltas from these starts reach exact zeros,
    # which a -1 sign turns into -0.0
    return [
        rng.choice((0.0, 0.15, -0.15, 0.6, rng.uniform(-1.0, 1.0))) for _ in range(K + 1)
    ]


@pytest.mark.parametrize("kind", ["canonical", "diagonal", "random", "uniform"])
def test_ascent_matches_the_sparse_ascent(kind, monkeypatch):
    # _ascend_alpha, which sums only the nonzero column entries, against
    # the dense oracle, which adds every entry and uses the full float
    # norm; the first three kinds start from _ascent_start, the last from
    # uniform draws on random and canonical bases.  At each point it
    # evaluates, the lists it takes the norm of are the dense sums of the
    # point and of the flipped point (the latter only when the first norm
    # is above 1e-12), bit for bit
    normed, calls = [], []

    def norm(coords: list[float]) -> float:
        normed.append(list(coords))
        return james_core.james_norm_sq_float(coords)

    def ascent(objective, x, deltas):
        def wrapped(p: list[float]) -> float:
            normed.clear()
            value = objective(p)
            calls.append((list(p), list(normed)))
            return value

        return james_core._coordinate_ascent(wrapped, x, deltas)

    monkeypatch.setattr(basis_tools, "james_norm_sq_float", norm)
    monkeypatch.setattr(basis_tools, "_coordinate_ascent", ascent)
    rng = random.Random(f"ascent:{kind}")
    for _ in range(30):
        K = rng.randint(0, 6)
        if kind == "canonical":
            basis = Basis.canonical(K)
        elif kind == "diagonal":
            basis = Basis(
                K,
                tuple(
                    tuple(Fraction(rng.choice((1, -1, 2)) if i == j else 0) for j in range(K + 1))
                    for i in range(K + 1)
                ),
            )
        elif kind == "random" or rng.random() < 0.7:
            basis = random_invertible_basis(K, rng)
        else:
            basis = Basis.canonical(K)
        cols_float = [[float(v) for v in col] for col in basis.columns]
        eps = tuple(rng.choice((-1, 1)) for _ in range(K + 1))
        if kind == "uniform":
            start = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
        else:
            start = _ascent_start(rng, K)
        expected = reference_ascend_alpha(cols_float, eps, list(start))
        calls.clear()
        assert basis_tools._ascend_alpha(cols_float, eps, list(start)) == expected
        for point, lists in calls:
            sums = [dense_combine(cols_float, point)]
            if james_core.james_norm_sq_float(sums[0]) > 1e-12:
                flipped = [e * v for e, v in zip(eps, point)]
                sums.append(dense_combine(cols_float, flipped))
            assert repr(lists) == repr(sums)


def test_uc_and_dual_ascents_evaluate_no_point_twice(monkeypatch):
    # wrap the objective of every ascent: within one ascent no two
    # evaluated points are equal, on the canonical and a random basis and
    # in the dual-norm search
    ascents = []
    ascent = james_core._coordinate_ascent

    def recording(objective, x, deltas):
        points = []
        ascents.append(points)

        def wrapped(p: list[float]) -> float:
            points.append(tuple(p))
            return objective(p)

        return ascent(wrapped, x, deltas)

    monkeypatch.setattr(basis_tools, "_coordinate_ascent", recording)
    monkeypatch.setattr(james_core, "_coordinate_ascent", recording)
    uc_lower_bound(Basis.canonical(3), "exhaustive", 2, 0)
    uc_lower_bound(random_invertible_basis(3, random.Random(5)), "exhaustive", 2, 0)
    dual_norm_lower_bound(dual_ball_sample(3, 12, 4)[0], 4)
    # two restarts per pattern the sign-change bound leaves: on canonical
    # K=3, 4 of 16 (the first pattern with s = 1 and with s = 2, then both
    # alternating ones, bound 9 against the 8 found), on the random basis
    # all but the 2 constant ones; and 4 dual ascents
    assert len(ascents) == 2 * (4 + 14) + 4
    assert all(len(set(points)) == len(points) for points in ascents)


def _changing_edges_bound(sigma) -> int:
    """e(sigma) = s + (s mod 2), s the number of sign changes of sigma."""
    s = sum(a != b for a, b in zip(sigma, sigma[1:]))
    return s + s % 2


def _row_signs(rows: list[int], entries) -> list[int]:
    """eps read along canonical coordinates: sigma[rows[i]] = eps_i."""
    sigma = [0] * len(rows)
    for row, e in zip(rows, entries):
        sigma[row] = e
    return sigma


@pytest.mark.parametrize("T", range(1, 9))
def test_no_cycle_has_more_sign_changing_edges_than_e(T):
    # every sign vector on T real indices, every increasing cycle on them
    # and the virtual zero T: the most edges (p, q) of one cycle, wrap
    # included, with two real ends of opposite sign is exactly e(sigma)
    cycles = [
        [t for t in range(T + 1) if mask >> t & 1]
        for mask in range(1, 2 ** (T + 1))
        if mask & (mask - 1)
    ]
    for sigma in product((-1, 1), repeat=T):
        signs = [*sigma, 0]
        most = max(
            sum(
                signs[p] * signs[q] < 0
                for p, q in zip(cycle, cycle[1:] + cycle[:1])
            )
            for cycle in cycles
        )
        assert most == _changing_edges_bound(sigma)


@pytest.mark.parametrize("permuted", [False, True], ids=["scaled", "permuted"])
def test_monomial_ratio_is_at_most_the_sign_change_bound(permuted):
    # exact ratios on random monomial bases at K <= 8 never pass 1 + 2e of
    # eps read along the rows, and that is the bound the search prunes by
    rng = random.Random(f"monomial-bound:{permuted}")
    for _ in range(600):
        K = rng.randint(0, 8)
        rows, basis = monomial_basis(rng, K, permuted)
        entries = tuple(rng.choice((-1, 1)) for _ in range(K + 1))
        if rng.random() < 0.3:
            alpha = (Fraction(1),) * (K + 1)
        else:
            alpha = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K + 1))
            if not any(alpha):
                continue
        bound = 1 + 2 * _changing_edges_bound(_row_signs(rows, entries))
        assert basis_tools._sign_change_bound(basis)(entries) == bound
        assert ratio_sq(basis, SignPattern(entries), alpha) <= bound


def test_sign_change_bound_off_monomial_bases_covers_constant_patterns_only():
    rng = random.Random(4242)
    for K in range(1, 6):
        basis = random_invertible_basis(K, rng)
        if all(sum(map(bool, col)) == 1 for col in basis.columns):
            continue
        bound = basis_tools._sign_change_bound(basis)
        for entries in uc_sign_patterns(K, "exhaustive", 1):
            expected = 1 if len(set(entries)) == 1 else None
            assert bound(entries) == expected
            if expected == 1:
                alpha = tuple(Fraction(rng.randint(1, 3)) for _ in range(K + 1))
                assert ratio_sq(basis, SignPattern(entries), alpha) == 1


@pytest.mark.parametrize("K", range(17))
def test_alternating_pattern_on_ones_meets_the_bound_at_even_k(K):
    # s = K sign changes: 2K + 1 = 1 + 2e at even K, 2K + 2 = 1 + 2e - 1 at odd K
    entries = tuple((-1) ** i for i in range(K + 1))
    r = ratio_sq(Basis.canonical(K), SignPattern(entries), (Fraction(1),) * (K + 1))
    assert r == (2 * K + 1 if K % 2 == 0 else 2 * K + 2)


def _uc_cases():
    rng = random.Random(9090)
    for K in range(5):
        bases = {"canonical": Basis.canonical(K), "random": random_invertible_basis(K, rng)}
        for kind, basis in bases.items():
            for strategy in ("exhaustive", "anneal"):
                for budget in (1, 2):
                    yield pytest.param(
                        basis,
                        strategy,
                        budget,
                        K + budget,
                        id=f"{kind}-K{K}-{strategy}-budget{budget}",
                    )
    # monomial bases, whose sign-change bound reads eps in row order
    rng = random.Random(9191)
    for K in range(1, 6):
        for kind in ("scaled", "permuted"):
            _, basis = monomial_basis(rng, K, kind == "permuted")
            for strategy in ("exhaustive", "anneal"):
                for budget in (1, 2):
                    yield pytest.param(
                        basis,
                        strategy,
                        budget,
                        K + budget,
                        id=f"{kind}-K{K}-{strategy}-budget{budget}",
                    )
    # the benchmark's exhaustive searches
    for K in (5, 6):
        yield pytest.param(
            Basis.canonical(K), "exhaustive", 2, 0, id=f"canonical-K{K}-exhaustive-budget2-seed0"
        )


@pytest.mark.parametrize("basis, strategy, budget, seed", list(_uc_cases()))
def test_uc_lower_bound_matches_the_reference_search(basis, strategy, budget, seed):
    expected = reference_uc_lower_bound(basis, strategy, budget, seed)
    assert uc_lower_bound(basis, strategy, budget, seed) == expected


@pytest.mark.parametrize("K", range(9))
def test_exhaustive_patterns_are_the_sorted_bit_mask_enumeration(K):
    masks = sorted(
        tuple(1 if mask >> i & 1 else -1 for i in range(K + 1))
        for mask in range(2 ** (K + 1))
    )
    assert uc_sign_patterns(K, "exhaustive", 1) == masks


def test_uc_sign_patterns_counts_and_checks():
    assert len(uc_sign_patterns(3, "exhaustive", 1)) == 16
    assert len(uc_sign_patterns(12, "exhaustive", 1)) == 2**13
    assert len(uc_sign_patterns(3, "anneal", 1, seed=4)) == 16
    assert len(uc_sign_patterns(20, "anneal", 1, seed=4)) == 128
    with pytest.raises(ValueError, match="budget"):
        uc_sign_patterns(13, "exhaustive", 0)
    with pytest.raises(basis_tools.DimensionTooLargeForPatterns):
        uc_sign_patterns(13, "exhaustive", 1)
    with pytest.raises(ValueError, match="unknown strategy"):
        uc_sign_patterns(2, "greedy", 1)


def test_uc_lower_bound_k0_is_one():
    est = uc_lower_bound(Basis.canonical(0), "exhaustive", budget=1, seed=0)
    assert est.lower_bound_sq == 1


def test_uc_lower_bound_canonical_k3():
    basis = Basis.canonical(3)
    est = uc_lower_bound(basis, "exhaustive", budget=2, seed=0)
    assert est.lower_bound_sq >= 8
    # certificate replay, with the norms recomputed by brute force
    flipped = basis.combine(
        tuple(e * a for e, a in zip(est.sign_pattern.entries, est.alpha))
    )
    base = basis.combine(est.alpha)
    assert (
        james_norm_sq_oracle(flipped) / james_norm_sq_oracle(base)
        == est.lower_bound_sq
    )


def test_uc_lower_bound_at_least_one_random():
    rng = random.Random(66)
    for K in (1, 2):
        basis = random_invertible_basis(K, rng)
        est = uc_lower_bound(basis, "exhaustive", budget=1, seed=5)
        assert est.lower_bound_sq >= 1
        assert ratio_sq(basis, est.sign_pattern, est.alpha) == est.lower_bound_sq


def test_uc_lower_bound_monotone_in_budget():
    basis = Basis.canonical(2)
    values = [
        uc_lower_bound(basis, "exhaustive", budget=b, seed=3).lower_bound_sq
        for b in (1, 2, 3)
    ]
    assert values[0] <= values[1] <= values[2]


def test_uc_lower_bound_anneal_strategy():
    basis = Basis.canonical(3)
    est = uc_lower_bound(basis, "anneal", budget=2, seed=0)
    assert est.lower_bound_sq >= 1
    assert ratio_sq(basis, est.sign_pattern, est.alpha) == est.lower_bound_sq


def test_uc_lower_bound_budget_validation():
    with pytest.raises(ValueError):
        uc_lower_bound(Basis.canonical(1), "exhaustive", budget=0, seed=0)


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern((1, 0, -1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_basis_json_roundtrip():
    basis = Basis(
        1, ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1, 3)))
    )
    obj = basis.to_json_obj()
    assert obj == {"K": 1, "columns": [["1/1", "2/1"], ["0/1", "1/3"]]}
    again = Basis.from_json_obj(obj)
    assert again.columns == basis.columns
    assert Basis.from_json_obj({"K": 0, "columns": [[2]]}).columns == ((Fraction(2),),)


@pytest.mark.parametrize("entry", [True, 1.0, 0.1])
def test_basis_json_refuses_a_bool_or_float_entry(entry):
    with pytest.raises(TypeError, match="must be a \"p/q\" string or an integer"):
        Basis.from_json_obj({"K": 1, "columns": [["1/1", "0/1"], ["0/1", entry]]})


def test_uc_estimate_json_roundtrip():
    est = UCEstimate(
        Fraction(8), SignPattern((1, -1, 1, -1)), (Fraction(1),) * 4
    )
    again = UCEstimate.from_json_obj(est.to_json_obj())
    assert again == est
    assert UCEstimate.from_json_obj(
        {"lower_bound_sq": 8, "sign_pattern": [1, -1], "alpha": ["1/2", 1]}
    ) == UCEstimate(Fraction(8), SignPattern((1, -1)), (Fraction(1, 2), Fraction(1)))
    # replay from the serialized certificate
    assert ratio_sq(Basis.canonical(3), again.sign_pattern, again.alpha) == 8


@pytest.mark.parametrize(
    "obj",
    [
        {"lower_bound_sq": 0.1, "sign_pattern": [1], "alpha": ["1/1"]},
        {"lower_bound_sq": "1/1", "sign_pattern": [1], "alpha": [True]},
        {"lower_bound_sq": "1/1", "sign_pattern": [True], "alpha": ["1/1"]},
        {"lower_bound_sq": "1/1", "sign_pattern": [1.9], "alpha": ["1/1"]},
    ],
    ids=repr,
)
def test_uc_estimate_json_refuses_bools_and_floats(obj):
    # true would be read as 1 and 1.9 truncated to the sign +1
    with pytest.raises(TypeError):
        UCEstimate.from_json_obj(obj)
