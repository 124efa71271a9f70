"""The atomic measure space: weights, embeddings, and the product matrix."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from jameslab import basis_tools, measure_space
from jameslab.basis_tools import Basis, SingularBasis, random_invertible_basis
from jameslab.james_core import (
    DualFunctional,
    JVector,
    canonical,
    eval_functional,
)
from jameslab.measure_space import (
    SIGMA_ENUMERATION_MAX_DIMENSION,
    IrrationalAtomValue,
    MeasureSpaceModel,
    SubsetEnumerationLimit,
    atom_subsets,
    build,
    check_identities,
    integrate,
    integrate_over,
    l1_norm,
    pi,
    pi_star,
    product_matrix,
    small_set_breaches,
)
from jameslab.basis_tools import modulus_functional, modulus_vector
from jameslab.metastability import hypothesis_report
from jameslab.scalars import Root2Scalar, fmt_rational

from helpers import (
    monomial_basis,
    mu_of,
    random_vector,
    reference_atom_products,
    reference_atom_subsets,
    reference_build,
    reference_check_identities,
    reference_coords_of,
    reference_small_set_breaches,
    times,
)


def d_star_d_oracle(K: int) -> Fraction:
    """Canonical-basis value by direct summation over the index pairs."""
    return sum(
        Fraction(1, 2 ** (j + jp + 2))
        for j in range(K + 1)
        for jp in range(K + 1)
        if j <= jp
    )


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_canonical_k0():
    model = build(Basis.canonical(0))
    assert model.d.coeffs == (Fraction(1, 2),)
    assert model.d_star.rational_coeffs() == (Fraction(1, 2),)
    assert model.d_star_d == Fraction(1, 4)
    assert model.mu == (Fraction(1),)


def test_build_canonical_k2_frozen_value():
    assert d_star_d_oracle(2) == Fraction(35, 64)
    model = build(Basis.canonical(2))
    assert model.d_star_d == Fraction(35, 64)


def test_build_canonical_matches_oracle_through_k6():
    for K in range(7):
        assert build(Basis.canonical(K)).d_star_d == d_star_d_oracle(K)


def test_mu_is_probability_for_random_bases():
    rng = random.Random(101)
    for K in range(1, 5):
        for _ in range(5):
            model = build(random_invertible_basis(K, rng))
            assert sum(model.mu) == 1
            assert all(m > 0 for m in model.mu)
            assert model.d_star_d >= Fraction(1, 4)


def test_d_star_d_bounded_by_max_pairing():
    rng = random.Random(102)
    for _ in range(6):
        basis = random_invertible_basis(3, rng)
        model = build(basis)
        pairings = [
            eval_functional(
                modulus_functional(basis, canonical("e_star", j, 3)),
                modulus_vector(basis, canonical("d", jp, 3)),
            ).rational()
            for j in range(4)
            for jp in range(4)
        ]
        assert model.d_star_d <= max(pairings)


# entries as the benchmark's random_basis_columns draws them, and wider ones
_BENCH_ENTRIES = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
_WIDE_ENTRIES = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def invertible_bases(draw, max_K: int = 6) -> Basis:
    K = draw(st.integers(0, max_K))
    entries = draw(st.sampled_from((_BENCH_ENTRIES, _WIDE_ENTRIES)))
    column = st.tuples(*[entries] * (K + 1))
    columns = draw(st.tuples(*[column] * (K + 1)))
    try:
        return Basis(K, columns)
    except SingularBasis:
        assume(False)


def assert_build_matches_reference(basis: Basis) -> None:
    model, ref = build(basis), reference_build(basis)
    for field in ("d", "d_star", "d_star_d", "mu", "gamma_d", "d_star_atoms"):
        assert getattr(model, field) == getattr(ref, field), field
    K = basis.K
    assert model.fs == tuple(pi(ref, canonical("d", n, K)) for n in range(K + 1))
    assert model.gs == tuple(
        pi_star(ref, canonical("e_star", p, K)) for p in range(K + 1)
    )


def test_build_matches_reference_on_canonical_bases():
    for K in range(9):
        assert_build_matches_reference(Basis.canonical(K))


@settings(max_examples=60, deadline=None)
@given(invertible_bases())
def test_build_matches_reference_on_random_bases(basis):
    assert_build_matches_reference(basis)


def assert_atom_ingredients_are_the_weighted_moduli(basis: Basis) -> None:
    # g*_i(d) = c_i and d*(w_i) = r_i, positive for every invertible W, so
    # the positivity check in build can fail only on a bug
    model, K = build(basis), basis.K
    gamma = [
        reference_coords_of(basis.dual, canonical("d", j, K)) for j in range(K + 1)
    ]  # gamma[j][i] = g*_i(d_j)
    for i in range(K + 1):
        c_i = sum(Fraction(abs(gamma[j][i]), 2 ** (j + 1)) for j in range(K + 1))
        r_i = sum(
            Fraction(abs(basis.columns[i][j]), 2 ** (j + 1)) for j in range(K + 1)
        )
        assert model.gamma_d[i] == c_i > 0
        assert model.d_star_atoms[i] == r_i > 0


def test_atom_ingredients_are_the_weighted_moduli_on_canonical_bases():
    for K in range(9):
        assert_atom_ingredients_are_the_weighted_moduli(Basis.canonical(K))


@settings(max_examples=60, deadline=None)
@given(invertible_bases(max_K=8))
def test_atom_ingredients_are_the_weighted_moduli_on_random_bases(basis):
    assert_atom_ingredients_are_the_weighted_moduli(basis)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_pi_of_zero_is_zero():
    model = build(Basis.canonical(3))
    assert all(v == 0 for v in pi(model, JVector.zero(3)))


def test_pi_canonical_k0_value():
    model = build(Basis.canonical(0))
    f0 = pi(model, canonical("d", 0, 0))
    assert f0 == (Fraction(1, 2),)
    assert max(map(abs, f0)) == Fraction(1, 2)  # <= B * 2^0 for any B >= 1


def test_pi_linearity():
    rng = random.Random(103)
    model = build(random_invertible_basis(2, rng))
    x = random_vector(rng, 2)
    y = random_vector(rng, 2)
    fx = pi(model, x)
    fy = pi(model, y)
    fxy = pi(model, x + y)
    assert fxy == tuple(a + b for a, b in zip(fx, fy))


def test_pi_l1_identity_random():
    rng = random.Random(104)
    for _ in range(8):
        basis = random_invertible_basis(3, rng)
        model = build(basis)
        x = random_vector(rng, 3)
        lhs = l1_norm(model, pi(model, x))
        rhs = eval_functional(model.d_star, modulus_vector(basis, x)).rational()
        assert lhs == rhs


def test_pi_star_l1_identity_random():
    rng = random.Random(105)
    for _ in range(8):
        basis = random_invertible_basis(3, rng)
        model = build(basis)
        x_star = DualFunctional.from_rationals(
            3, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        )
        lhs = l1_norm(model, pi_star(model, x_star))
        rhs = eval_functional(modulus_functional(basis, x_star), model.d).rational()
        assert lhs == rhs


def test_pi_star_rejects_irrational_functionals():
    model = build(Basis.canonical(1))
    y = DualFunctional(1, (Root2Scalar(0, 1), Root2Scalar(0)))
    with pytest.raises(IrrationalAtomValue):
        pi_star(model, y)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_empty_set():
    model = build(Basis.canonical(2))
    h = (Fraction(3), Fraction(1), Fraction(4))
    assert integrate_over(model, h, ()) == 0


def test_integrate_constant_one_over_omega():
    rng = random.Random(106)
    model = build(random_invertible_basis(3, rng))
    one = (Fraction(1),) * 4
    assert integrate(model, one) == 1


def test_integrate_pairing_instance_k0():
    model = build(Basis.canonical(0))
    value = integrate(model, times(pi_star(model, canonical("e_star", 0, 0)), pi(model, canonical("d", 0, 0))))
    assert value == Fraction(1, 4)


def test_integrate_validation():
    model = build(Basis.canonical(1))
    h = (Fraction(1), Fraction(2))
    with pytest.raises(IndexError):
        integrate_over(model, h, (2,))
    with pytest.raises(ValueError):
        integrate_over(model, h, (0, 0))


@pytest.mark.parametrize("value", [0.5, "1/2"])
def test_integrate_over_refuses_values_as_the_finder_does(value):
    # an atom function holds ints or Fractions, as a chased sequence does
    model = build(Basis.canonical(1))
    with pytest.raises(TypeError, match="^sequence values must be ints or Fractions$"):
        integrate_over(model, (Fraction(1), value), (0,))


@pytest.mark.parametrize("sigma", [(9, 0, 0), (0, 5, -1)])
def test_integrate_over_rejects_atoms_as_the_atom_check_does(sigma):
    model = build(Basis.canonical(2))
    with pytest.raises((ValueError, IndexError)) as check_error:
        measure_space._check_atoms(sigma, model.K)
    with pytest.raises(type(check_error.value)) as integral_error:
        integrate_over(model, (Fraction(1),) * 3, sigma)
    assert type(integral_error.value) is type(check_error.value)
    assert integral_error.value.args == check_error.value.args
    if sigma == (9, 0, 0):
        assert str(integral_error.value) == "atom listed twice in (9, 0, 0)"


def test_build_reads_the_integer_forms_of_the_basis(monkeypatch):
    basis = random_invertible_basis(4, random.Random(107))

    def refuse(rows):
        raise AssertionError("build derived an integer form of its own")

    monkeypatch.setattr(measure_space, "integer_rows", refuse)
    assert build(basis).mu == reference_build(basis).mu


def test_integer_forms_are_derived_once_per_basis(monkeypatch):
    args = []

    def recording(real):
        def wrapper(rows):
            args.append(rows)
            return real(rows)
        return wrapper

    for module in (basis_tools, measure_space):
        monkeypatch.setattr(module, "integer_rows", recording(module.integer_rows))
    basis = random_invertible_basis(4, random.Random(108))
    model = build(basis)
    check_identities(model, 2, 0)
    product_matrix(model)
    # the inverse comes out of the elimination in integers: its Fraction
    # rows are never built, so no integer form is taken over them
    assert "rows" not in vars(basis.dual)
    assert sum(rows is basis.columns for rows in args) == 1


# ---------------------------------------------------------------------------
# product matrix
# ---------------------------------------------------------------------------

def assert_prefix_table_matches_the_products(model) -> None:
    # f_n g_p mu on atom i is d*(d) * U[i][n] * (F * W)[p][i] / (E * F)
    E, U = model.prefix_table
    F, FW = model.basis.int_columns
    assert len(U) == len(FW) == model.K + 1
    reference = reference_atom_products(model)
    for i, atom in enumerate(reference):
        for n, row in enumerate(atom):
            for p, product in enumerate(row):
                integrand = model.d_star_d * U[i][n] * FW[i][p] / (E * F)
                assert integrand == product, (i, n, p)


def test_prefix_table_matches_the_products_on_canonical_bases():
    for K in range(9):
        model = build(Basis.canonical(K))
        assert_prefix_table_matches_the_products(model)
        assert model.prefix_table is model.prefix_table  # built once


@settings(max_examples=40, deadline=None)
@given(invertible_bases())
def test_prefix_table_matches_the_products_on_random_bases(basis):
    assert_prefix_table_matches_the_products(build(basis))


def test_product_matrix_canonical_k2():
    model = build(Basis.canonical(2))
    pm = product_matrix(model)
    for n in range(3):
        for p in range(3):
            expect = Fraction(35, 64) if p <= n else Fraction(0)
            assert pm.entries[n][p] == expect


def test_product_matrix_structure_random():
    rng = random.Random(107)
    for K in (1, 2, 3, 4):
        model = build(random_invertible_basis(K, rng))
        pm = product_matrix(model)
        for n in range(K + 1):
            for p in range(K + 1):
                assert pm.entries[n][p] == (model.d_star_d if p <= n else 0)


def test_product_matrix_csv_shape():
    model = build(Basis.canonical(1))
    csv = product_matrix(model).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n\\p,0,1"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------

def test_check_identities_canonical():
    model = build(Basis.canonical(3))
    report = check_identities(model, 6, seed=9)
    assert report.all_passed
    names = [e.name for e in report.entries]
    assert "pairing_identity" in names
    assert "small_set_continuity" in names


def test_check_identities_random_bases():
    rng = random.Random(108)
    for _ in range(4):
        model = build(random_invertible_basis(2, rng))
        assert check_identities(model, 4, seed=10).all_passed


def corrupt(model, corruption: str, i: int, j: int, delta: Fraction):
    """The model with one field made wrong: mu_i and mu_j swapped, mu_i
    moved by delta, g*_i(d) doubled, or the coefficient i of d* moved by
    delta."""
    if corruption == "change_d_star":
        coeffs = list(model.d_star.rational_coeffs())
        coeffs[i] += delta
        d_star = DualFunctional.from_rationals(model.K, tuple(coeffs))
        return dataclasses.replace(model, d_star=d_star)
    name = "gamma_d" if corruption == "double_gamma" else "mu"
    values = list(getattr(model, name))
    if corruption == "swap_mu":
        values[i], values[j] = values[j], values[i]
    elif corruption == "perturb_mu":
        values[i] += delta
    else:
        values[i] *= 2
    return dataclasses.replace(model, **{name: tuple(values)})


_CORRUPTIONS = ("swap_mu", "perturb_mu", "double_gamma", "change_d_star")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "scaled", "permuted", "random"]),
    K=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    corruption=st.sampled_from((None,) + _CORRUPTIONS),
    samples=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_check_identities_match_the_fraction_oracle(
    kind, K, seed, corruption, samples, data
):
    # the integer clauses give the Fraction loop's report, failure details
    # included, on true models and on models with a wrong mu, gamma or d*
    model = build(_scan_basis(kind, K, seed))
    if corruption is not None:
        i, j = (data.draw(st.integers(0, K), label=label) for label in "ij")
        delta = data.draw(
            st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60)),
            label="delta",
        )
        model = corrupt(model, corruption, i, j, delta)
    assert repr(check_identities(model, samples, seed)) == repr(
        reference_check_identities(model, samples, seed)
    )


@pytest.mark.parametrize(
    "corruption, failing",
    [
        ("swap_mu", ["pairing_identity", "pi_l1_identity", "pi_star_l1_identity"]),
        ("perturb_mu", ["pairing_identity", "pi_l1_identity", "pi_star_l1_identity"]),
        ("double_gamma", ["pairing_identity", "pi_l1_identity"]),
        ("change_d_star", ["pi_l1_identity"]),
    ],
)
def test_check_identities_catch_a_wrong_mu_gamma_or_d_star(corruption, failing):
    # the sample clauses read mu, the scales of pi and d* themselves, so
    # each corruption fails the clauses whose sides it changes
    model = build(random_invertible_basis(4, random.Random(3)))
    bad = corrupt(model, corruption, 0, 1, Fraction(1, 7))
    report = check_identities(bad, 3, 0)
    assert [e.name for e in report.entries[:3] if not e.passed] == failing
    assert check_identities(model, 3, 0).all_passed


def family_breaches(model, family, bound, eps) -> list:
    """The (sigma, n) pairs that one family's scan yields."""
    return [
        (sigma, n) for _, sigma, n in small_set_breaches(model, (family,), bound, eps)
    ]


def test_small_set_breaches_match_the_fraction_reference():
    rng = random.Random(109)
    models = [build(Basis.canonical(K)) for K in range(6)]
    models += [build(random_invertible_basis(K, rng)) for K in (1, 2, 3, 4)]
    found = 0
    for model in models:
        sigmas = atom_subsets(model.K)
        for family, hs in (("f", model.fs), ("g", model.gs)):
            for bound, eps in (
                (Fraction(1, 8), Fraction(1, 4)),
                (Fraction(1, 2), Fraction(1, 16)),
                (Fraction(1), Fraction(1, 10)),
                (Fraction(2), Fraction(1, 80)),
            ):
                breaches = family_breaches(model, family, bound, eps)
                assert breaches == reference_small_set_breaches(
                    model, hs, bound, eps, sigmas
                )
                found += len(breaches)
    assert found > 0


def test_small_set_breaches_at_exact_thresholds():
    # eps equal to an integral over a subset, and bounds that put mu of a
    # subset exactly on the threshold: both comparisons meet equality
    model = build(random_invertible_basis(3, random.Random(110)))
    sigmas = atom_subsets(3)
    for family, hs in (("f", model.fs), ("g", model.gs)):
        for sigma in sigmas[1::3]:
            for n in (0, 2):
                eps = integrate_over(model, tuple(map(abs, hs[n])), sigma)
                if eps == 0:
                    continue
                for tau in sigmas[1::5]:
                    bound = eps / (mu_of(model, tau) * 2**n)
                    assert family_breaches(model, family, bound, eps) == (
                        reference_small_set_breaches(model, hs, bound, eps, sigmas)
                    )


def _scan_basis(kind: str, K: int, seed: int) -> Basis:
    rng = random.Random(seed)
    if kind == "canonical":
        return Basis.canonical(K)
    if kind == "random":
        return random_invertible_basis(K, rng)
    return monomial_basis(rng, K, kind == "permuted")[1]


_POSITIVE = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "scaled", "permuted", "random"]),
    K=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_small_set_scan_matches_the_fraction_oracle(kind, K, seed, data):
    # eps is drawn free or as the integral of |h_n| over a subset tau, and
    # the bound free or as the one that puts mu(rho) exactly on the
    # threshold eps / (bound * 2^m): either test can meet equality
    model = build(_scan_basis(kind, K, seed))
    sigmas = atom_subsets(K)
    family = data.draw(st.sampled_from(["f", "g"]), label="family")
    hs = model.fs if family == "f" else model.gs
    n, m = (data.draw(st.integers(0, K), label=label) for label in ("n", "m"))
    tau, rho = (
        data.draw(st.sampled_from(sigmas[1:]), label=label) for label in ("tau", "rho")
    )
    on_integral = integrate_over(model, tuple(map(abs, hs[n])), tau)
    if on_integral and data.draw(st.booleans(), label="eps on an integral"):
        eps = on_integral
    else:
        eps = data.draw(_POSITIVE, label="eps")
    if data.draw(st.booleans(), label="bound on a subset weight"):
        bound = eps / (mu_of(model, rho) * 2**m)
    else:
        bound = data.draw(_POSITIVE, label="bound")
    expected = reference_small_set_breaches(model, hs, bound, eps, sigmas)
    assert family_breaches(model, family, bound, eps) == expected
    both = small_set_breaches(model, ("f", "g"), bound, eps)
    assert [(sigma, k) for name, sigma, k in both if name == family] == expected


def test_small_set_breaches_integrate_the_atom_subsets_they_walk(monkeypatch):
    # one call of atom_subsets per scan, and every breach is a subset of
    # that list: a tiny bound makes every subset small, so each is integrated
    model = build(random_invertible_basis(3, random.Random(111)))
    real, calls = measure_space.atom_subsets, []

    def recording(K):
        calls.append(real(K))
        return calls[-1]

    monkeypatch.setattr(measure_space, "atom_subsets", recording)
    breaches = list(
        small_set_breaches(model, ("f", "g"), Fraction(1, 10**6), Fraction(1, 80))
    )
    assert len(calls) == 1 and len(calls[0]) == 2**4
    assert {id(sigma) for _, sigma, _ in breaches} <= set(map(id, calls[0]))
    assert len({sigma for _, sigma, _ in breaches}) == 2**4 - 1
    hypothesis_report(model, Fraction(2), Fraction(1, 80))
    check_identities(model, 1, 0)
    assert len(calls) == 3


@pytest.mark.parametrize(
    "bound, eps, family, message",
    [
        (Fraction(1), Fraction(0), "f", "eps must be positive"),
        (Fraction(1), Fraction(-1, 4), "f", "eps must be positive"),
        (Fraction(0), Fraction(1, 4), "f", "bound must be positive"),
        (Fraction(-1), Fraction(1, 4), "f", "bound must be positive"),
        (Fraction(1), Fraction(1, 4), "h", "unknown family 'h'"),
    ],
)
def test_small_set_breaches_refuse_a_nonpositive_bound_or_eps(
    bound, eps, family, message
):
    # a bound of 0 divided by zero, and the others reported no breach
    model = build(Basis.canonical(2))
    with pytest.raises(ValueError, match=message):
        list(small_set_breaches(model, (family,), bound, eps))


# (kind, K, seed) -> SHA-256 of the report's repr and its certified_B_hat,
# recorded when check_identities read B^ and the scan's weights off fs
_IDENTITY_REPORTS = {
    ("canonical", 5, 0): (
        "90461f5490eb583f113057f074ebf9d60829d4d5b87c4bdbf6d9abc93301a3cd", "2667/2048"
    ),
    ("random", 3, 11): (
        "b72bd9cf98c48b50879494827b11636112b52840ea6a028158fe92faaf548cc9", "230841/38624"
    ),
    ("random", 6, 12): (
        "d7a07ecc3ee0e64857bdeacb033c208d73784a7c682e8d74927f18d3d77b2610",
        "48363176253245/4929656114944",
    ),
    ("permuted", 4, 13): (
        "ffc33809df3db31fe8697859499cefffa36101c83dd0bd8efb1f1f663f53e16b", "651/512"
    ),
}


@pytest.mark.parametrize("kind, K, seed", list(_IDENTITY_REPORTS))
def test_check_identities_reads_neither_embedded_family(kind, K, seed, monkeypatch):
    def refuse(model):
        raise AssertionError("check_identities built an embedded family")

    for name in ("fs", "gs"):
        monkeypatch.setattr(MeasureSpaceModel, name, property(refuse))
    report = check_identities(build(_scan_basis(kind, K, seed)), 3, seed)
    digest, certified = _IDENTITY_REPORTS[kind, K, seed]
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest
    assert report.entries[-1].details["certified_B_hat"] == certified


@pytest.mark.parametrize("kind, K, seed", list(_IDENTITY_REPORTS))
def test_check_identities_call_no_embedding_integral_or_modulus(
    kind, K, seed, monkeypatch
):
    def refuse(*args):
        raise AssertionError("check_identities called a Fraction-valued map")

    model = build(_scan_basis(kind, K, seed))
    names = ("pi", "pi_star", "integrate_over", "modulus_vector", "modulus_functional")
    for module in (measure_space, basis_tools):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    report = check_identities(model, 3, seed)
    digest, _ = _IDENTITY_REPORTS[kind, K, seed]
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "scaled", "permuted", "random"]),
    K=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_certified_b_hat_is_the_largest_scaled_sup_norm(kind, K, seed):
    model = build(_scan_basis(kind, K, seed))
    expected = max(max(map(abs, fn)) / 2**n for n, fn in enumerate(model.fs))
    details = check_identities(model, 0, seed).entries[-1].details
    assert details["certified_B_hat"] == fmt_rational(expected)


def test_atom_subsets_enumeration():
    subsets = atom_subsets(2)
    assert len(subsets) == 8
    assert () in subsets and (0, 1, 2) in subsets
    model = build(Basis.canonical(2))
    assert mu_of(model, (0, 1, 2)) == 1


def test_atom_subsets_doubling_keeps_the_bit_mask_order():
    for K in range(13):
        assert atom_subsets(K) == reference_atom_subsets(K)


def test_atom_subsets_enumerates_up_to_the_limit_and_refuses_beyond(monkeypatch):
    K = SIGMA_ENUMERATION_MAX_DIMENSION
    subsets = atom_subsets(K)
    assert len(subsets) == len(set(subsets)) == 2 ** (K + 1)
    assert all(list(s) == sorted(set(s)) and set(s) <= set(range(K + 1)) for s in subsets)
    with pytest.raises(SubsetEnumerationLimit, match=f"K <= {K}$"):
        atom_subsets(K + 1)
    model = build(random_invertible_basis(K + 1, random.Random(1)))
    seeds = []

    def counting_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(measure_space, "random", SimpleNamespace(Random=counting_random))
    with pytest.raises(SubsetEnumerationLimit):
        check_identities(model, 1, 0)
    # refused before the generator of its samples is seeded, as
    # hypothesis_report refuses; below the limit the samples are drawn
    assert seeds == []
    check_identities(build(Basis.canonical(1)), 1, 0)
    assert seeds == ["0:identities"]


def test_model_json_export():
    model = build(Basis.canonical(1))
    obj = model.to_json_obj()
    assert obj["K"] == 1
    assert obj["d_star_d"] == "7/16"
    assert len(obj["mu"]) == 2
