"""The integer forms of a basis and the measure space against Fraction
oracles: the inverse, the embeddings, the integrals, the moduli, the
small-set scan, the product matrix and the hypothesis report."""

import random
from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import given, settings, strategies as st

from jameslab import metastability
from jameslab.basis_tools import (
    Basis,
    SingularBasis,
    integer_inverse,
    modulus_functional,
    modulus_vector,
    random_invertible_basis,
)
from jameslab.james_core import DualFunctional, JVector
from jameslab.measure_space import (
    atom_subsets,
    build,
    integrate_over,
    pi,
    pi_star,
    product_matrix,
    small_set_breaches,
)
from jameslab.metastability import hypothesis_report

from helpers import (
    embedded_families,
    gauss_jordan_inverse,
    l1_norm,
    reference_atom_products,
    reference_build,
    reference_hypothesis_report,
)

_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def bases(draw, max_K: int = 8) -> Basis:
    """A canonical basis, one from ``random_invertible_basis`` (entries in
    [-3, 3] over 1 or 2, as the benchmark draws them), or one with wider
    entries in [-20, 20] over [1, 12]."""
    K = draw(st.integers(0, max_K))
    kind = draw(st.sampled_from(("canonical", "random", "wide")))
    if kind == "canonical":
        return Basis.canonical(K)
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "random":
        return random_invertible_basis(K, rng)
    while True:
        columns = tuple(
            tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(K + 1))
            for _ in range(K + 1)
        )
        try:
            return Basis(K, columns)
        except SingularBasis:
            continue


def fraction_inverse(basis: Basis) -> list[list[Fraction]]:
    """W^-1 by rational Gauss-Jordan on the rows of W."""
    return gauss_jordan_inverse([list(row) for row in zip(*basis.columns)])


def fraction_fs(model, inverse) -> tuple:
    """f_n(w_i) = d*(d)/g*_i(d) * g*_i(d_n), in Fractions throughout."""
    scales = [model.d_star_d / g for g in model.gamma_d]
    return tuple(
        tuple(s * sum(row[: n + 1], Fraction(0)) for s, row in zip(scales, inverse))
        for n in range(model.K + 1)
    )


def fraction_gs(model) -> tuple:
    """g_p(w_i) = d*(d)/d*(w_i) * W[p][i], in Fractions throughout."""
    scales = [model.d_star_d / v for v in model.d_star_atoms]
    return tuple(
        tuple(s * col[p] for s, col in zip(scales, model.basis.columns))
        for p in range(model.K + 1)
    )


def fraction_integral(model, h, sigma) -> Fraction:
    return sum((h[i] * model.mu[i] for i in sigma), Fraction(0))


def fraction_breaches(model, hs, bound, eps, sigmas) -> list:
    out = []
    for sigma in sigmas:
        m = sum((model.mu[i] for i in sigma), Fraction(0))
        for n, h in enumerate(hs):
            if m < eps / (bound * 2**n) and fraction_integral(
                model, tuple(map(abs, h)), sigma
            ) >= eps:
                out.append((sigma, n))
    return out


@settings(max_examples=60, deadline=None)
@given(bases())
def test_integer_inverse_is_the_gauss_jordan_inverse_over_its_lcm(basis):
    E, rows = basis.dual.int_rows
    inverse = fraction_inverse(basis)
    assert [[Fraction(v, E) for v in row] for row in rows] == inverse
    assert E == lcm(*(v.denominator for row in inverse for v in row))
    assert basis.dual.rows == tuple(map(tuple, inverse))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.integers(1, 12),
            st.lists(
                st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1),
                min_size=n + 1,
                max_size=n + 1,
            ),
        )
    )
)
def test_integer_inverse_of_any_integer_matrix_over_d(case):
    # singular matrices included: both refuse them
    D, m = case
    try:
        expected = gauss_jordan_inverse([[Fraction(v, D) for v in row] for row in m])
    except SingularBasis:
        expected = None
    try:
        E, rows = integer_inverse(D, [list(row) for row in m])
    except SingularBasis:
        assert expected is None
        return
    assert E > 0
    assert [[Fraction(v, E) for v in row] for row in rows] == expected
    assert E == lcm(*(v.denominator for row in expected for v in row))


@settings(max_examples=40, deadline=None)
@given(bases(), st.data())
def test_embeddings_integrals_and_moduli_match_fraction_oracles(basis, data):
    K = basis.K
    model = build(basis)
    inverse = fraction_inverse(basis)
    assert model.mu == reference_build(basis).mu
    assert embedded_families(model) == (fraction_fs(model, inverse), fraction_gs(model))

    coeffs = st.tuples(*[_RATIONALS] * (K + 1))
    x = JVector(K, data.draw(coeffs, label="x"))
    x_star = DualFunctional.from_rationals(K, data.draw(coeffs, label="x_star"))
    coords = [sum(map(Fraction.__mul__, row, x.coeffs), Fraction(0)) for row in inverse]
    values = [
        sum(map(Fraction.__mul__, x_star.rational_coeffs(), col), Fraction(0))
        for col in basis.columns
    ]
    assert pi(model, x) == tuple(
        model.d_star_d / g * c for g, c in zip(model.gamma_d, coords)
    )
    assert pi_star(model, x_star) == tuple(
        model.d_star_d / a * v for a, v in zip(model.d_star_atoms, values)
    )

    modulus = [Fraction(0)] * (K + 1)
    for c, col in zip(coords, basis.columns):
        modulus = [m + abs(c) * w for m, w in zip(modulus, col)]
    assert modulus_vector(basis, x) == JVector(K, tuple(modulus))
    assert modulus_functional(basis, x_star) == DualFunctional.from_rationals(
        K,
        tuple(
            sum((abs(v) * row[j] for v, row in zip(values, inverse)), Fraction(0))
            for j in range(K + 1)
        ),
    )

    h = data.draw(st.tuples(*[_RATIONALS | st.integers(-5, 5)] * (K + 1)), label="h")
    sigma = tuple(
        data.draw(st.lists(st.integers(0, K), unique=True, max_size=K + 1), label="sigma")
    )
    assert integrate_over(model, h, sigma) == fraction_integral(model, h, sigma)
    assert l1_norm(model, h) == fraction_integral(model, tuple(map(abs, h)), range(K + 1))


@settings(max_examples=30, deadline=None)
@given(
    bases(max_K=5),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 10)),
    st.builds(Fraction, st.integers(1, 10), st.integers(1, 80)),
)
def test_small_set_breaches_match_fraction_sums(basis, bound, eps):
    model = build(basis)
    sigmas = atom_subsets(basis.K)
    breaches = list(small_set_breaches(model, ("f", "g"), bound, eps))
    for name, hs in zip("fg", embedded_families(model)):
        assert [(sigma, n) for family, sigma, n in breaches if family == name] == (
            fraction_breaches(model, hs, bound, eps, sigmas)
        )


@settings(max_examples=40, deadline=None)
@given(bases())
def test_product_matrix_and_prefix_table_match_fraction_products(basis):
    model = build(basis)
    fs, gs = fraction_fs(model, fraction_inverse(basis)), fraction_gs(model)
    products = reference_atom_products(model)  # from pi, pi_star and mu
    E, U = model.prefix_table
    F, FW = basis.int_columns
    scale = model.d_star_d / (E * F)
    for i, mu in enumerate(model.mu):
        for n, f in enumerate(fs):
            for p, g in enumerate(gs):
                assert products[i][n][p] == f[i] * g[i] * mu
                assert scale * U[i][n] * FW[i][p] == products[i][n][p]
    assert product_matrix(model).entries == tuple(
        tuple(
            sum((f[i] * g[i] * mu for i, mu in enumerate(model.mu)), Fraction(0))
            for g in gs
        )
        for f in fs
    )


@settings(max_examples=25, deadline=None)
@given(
    bases(max_K=3),
    st.sampled_from(
        [(Fraction(2), Fraction(1, 80)), (Fraction(1, 8), Fraction(1, 4)), (Fraction(3), Fraction(2, 7))]
    ),
    st.integers(0, 5),
)
def test_hypothesis_report_matches_the_reference(basis, bound_eps, budget):
    model = build(basis)
    B_hat, eps = bound_eps
    with mock.patch.object(metastability, "fluctuation_budget", lambda *_: budget):
        report = hypothesis_report(model, B_hat, eps)
    assert report == reference_hypothesis_report(model, B_hat, eps, budget)
