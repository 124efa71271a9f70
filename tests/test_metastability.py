"""Stable-interval finding, fluctuation budgets, and the conclusion search."""

import dataclasses
import random
from decimal import Decimal
from fractions import Fraction
from math import ceil, lcm
from operator import sub
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jameslab.basis_tools import Basis, DualBasis, random_invertible_basis
from jameslab import measure_space, metastability
from jameslab.james_core import canonical
from jameslab.measure_space import (
    StructureViolation,
    atom_subsets,
    build,
    integrate_over,
    pi,
    pi_star,
    product_matrix,
)
from jameslab.metastability import (
    BudgetExceeded,
    FoundPair,
    IndexFunction,
    StableInterval,
    conclusion_search,
    count_fluctuations,
    find_stable_interval,
    fluctuation_budget,
    fluctuation_harness,
    hypothesis_report,
)
from jameslab.scalars import integer_rows

from helpers import (
    count_prefix_table_builds,
    embedded_families,
    l1_norm,
    monomial_basis,
    reference_atom_products,
    reference_conclusion_search,
    reference_fluctuation_details,
    reference_hypothesis_report,
    reference_product_matrix,
    reference_stable_interval,
    times,
)


# ---------------------------------------------------------------------------
# index functions and their reach
# ---------------------------------------------------------------------------

def test_index_function_identity_beyond_horizon():
    F = IndexFunction((5, 6, 7))
    assert F(1) == 6
    assert F(10) == 10


def test_reach_of_a_nondecreasing_table_is_the_table():
    assert IndexFunction((1, 2, 2, 5)).reach == (1, 2, 2, 5)


def test_reach_is_the_running_max_of_the_table_and_the_identity():
    assert IndexFunction((5, 3, 7)).reach == (5, 5, 7)
    assert IndexFunction((0, 0, 4, 1, 0, 0)).reach == (0, 1, 4, 4, 4, 5)
    assert IndexFunction(()).reach == ()


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=12))
def test_reach_is_the_least_nondecreasing_map_above_F_and_the_identity(table):
    F = IndexFunction(tuple(table))
    assert len(F.reach) == len(table)
    for m, r in enumerate(F.reach):
        assert r == max([F(i) for i in range(m + 1)] + [m])


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_reach_is_computed_once_per_index_function(monkeypatch):
    maxima = _counting(monkeypatch, metastability, "accumulate")
    F = IndexFunction((5, 3, 7))
    reach = F.reach
    assert F.reach is reach
    assert len(maxima) == 1
    model = build(Basis.canonical(3))
    # F1 passes on every sequence at the refutation accuracy, so F0 is
    # never chased and its reach never computed
    hypothesis_report(model, Fraction(2), Fraction(1, 80))
    assert len(maxima) == 1 + 1
    # budget 2: F1 fails, then F0 is chased too, over many sequences, and
    # each index function's reach is still computed once
    hypothesis_report(model, Fraction(1, 8), Fraction(1, 4))
    assert len(maxima) == 2 + 2


# ---------------------------------------------------------------------------
# chased sequences: nonempty tuples of ints or Fractions
# ---------------------------------------------------------------------------

def _at(values, j):
    """s(j) of the sequence that holds its last value past the tuple."""
    return values[min(j, len(values) - 1)]


def _greedy_count(values, eps, start, end):
    """count_fluctuations read off its definition, index by index."""
    anchor, count = _at(values, start), 0
    for j in range(start + 1, end + 1):
        if abs(_at(values, j) - anchor) >= eps:
            count, anchor = count + 1, _at(values, j)
    return count


class _Half(Fraction):
    pass


@pytest.mark.parametrize(
    "values",
    [
        (3, -1, 0, 10**40),  # ints, as the fluctuation loop passes them
        (Fraction(1, 3), 2, Fraction(-5, 7), 0),  # ints and Fractions mixed
        (True, 2, False),  # bool is an int
        (_Half(1, 2), 1),  # a Fraction subclass is a Fraction
    ],
)
def test_finder_and_counter_take_ints_and_fractions_as_given(values):
    F = IndexFunction((1, 3, 3))
    for eps in (Fraction(1, 2), Fraction(3)):
        assert _chase_outcome(
            find_stable_interval, values, eps, F, 0, 2
        ) == _chase_outcome(reference_stable_interval, values, eps, F, 0, 2)
        assert count_fluctuations(values, eps, (0, 6)) == _greedy_count(
            values, eps, 0, 6
        )


@pytest.mark.parametrize(
    "values",
    [
        (0.5, 1, Fraction(1, 4)),
        ("1/3", 2),
        (1, Decimal(2)),
        (None,),
    ],
)
def test_finder_and_counter_refuse_values_that_are_not_ints_or_fractions(values):
    with pytest.raises(TypeError, match="^sequence values must be ints or Fractions$"):
        find_stable_interval(values, Fraction(1, 2), IndexFunction((1,)), 0, 3)
    with pytest.raises(TypeError, match="^sequence values must be ints or Fractions$"):
        count_fluctuations(values, Fraction(1, 2), (0, 3))


def test_finder_and_counter_refuse_an_empty_sequence():
    message = "^sequence needs at least one tabulated value$"
    with pytest.raises(ValueError, match=message):
        find_stable_interval((), Fraction(1, 2), IndexFunction((1,)), 0, 3)
    with pytest.raises(ValueError, match=message):
        count_fluctuations((), Fraction(1, 2), (0, 3))


# ---------------------------------------------------------------------------
# fluctuation counting
# ---------------------------------------------------------------------------

def test_count_fluctuations_constant():
    values = (Fraction(2),) * 5
    assert count_fluctuations(values, Fraction(1, 2), (0, 10)) == 0


def test_count_fluctuations_alternating():
    values = tuple(Fraction(v) for v in (0, 1, 0, 1, 0))
    assert count_fluctuations(values, Fraction(1, 2), (0, 4)) == 4


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2)])
def test_count_fluctuations_refuses_a_nonpositive_eps(eps):
    # at eps = 0 every step of a constant sequence would count
    with pytest.raises(ValueError, match="eps must be positive"):
        count_fluctuations((0, 0, 0, 0), eps, (0, 3))


def test_count_fluctuations_monotone_staircase():
    k = 7
    eps = Fraction(1, 3)
    values = tuple(eps * i for i in range(k + 1))
    assert count_fluctuations(values, eps, (0, k)) == k


@given(
    values=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8),
    eps=st.integers(min_value=1, max_value=4),
    start=st.integers(min_value=0, max_value=12),
    length=st.integers(min_value=0, max_value=12),
)
def test_count_fluctuations_holds_the_last_value_past_the_tuple(
    values, eps, start, length
):
    values = tuple(values)
    assert count_fluctuations(values, eps, (start, start + length)) == _greedy_count(
        values, eps, start, start + length
    )


# ---------------------------------------------------------------------------
# stable intervals
# ---------------------------------------------------------------------------

def test_stable_interval_constant_sequence():
    F = IndexFunction.from_callable(lambda n: n + 4, 20)
    interval = find_stable_interval((Fraction(3),), Fraction(1, 2), F, 2, 0)
    assert interval.m == 2
    assert interval.fluctuations_used == 0


def test_stable_interval_verified_by_direct_scan():
    rng = random.Random(201)
    F = IndexFunction.from_callable(lambda n: n + 3, 300)
    eps = Fraction(1, 2)
    for _ in range(30):
        values = [Fraction(0)]
        for _step in range(50):
            values.append(values[-1] + Fraction(rng.choice([-1, 0, 0, 1])))
        values = tuple(values)
        c = count_fluctuations(values, eps / 2, (0, 300))
        interval = find_stable_interval(values, eps, F, 0, max(c, 1))
        assert interval.fluctuations_used <= max(c, 1)
        window = [_at(values, j) for j in range(interval.m, interval.end + 1)]
        assert max(window) - min(window) < eps


def test_completeness_against_greedy_oracle():
    # success is guaranteed whenever the greedy eps/2 count fits the budget
    rng = random.Random(202)
    F = IndexFunction.from_callable(lambda n: n + 5, 400)
    eps = Fraction(1, 3)
    for _ in range(25):
        values = [Fraction(0)]
        for _step in range(60):
            jump = Fraction(rng.randint(-2, 2), 3)
            values.append(values[-1] + jump)
        values = tuple(values)
        budget = count_fluctuations(values, eps / 2, (0, 400))
        interval = find_stable_interval(values, eps, F, 0, budget)
        assert isinstance(interval, StableInterval)


def test_budget_exceeded_on_adversarial_staircase():
    # alternating jumps of eps keep every window unstable
    eps = Fraction(1, 2)
    values = tuple(Fraction(0) if i % 2 == 0 else eps for i in range(60))
    F = IndexFunction.from_callable(lambda n: n + 1, 60)
    with pytest.raises(BudgetExceeded) as exc:
        find_stable_interval(values, eps, F, 0, 5)
    assert exc.value.iterations == 5


def test_stable_interval_respects_iterated_bound():
    # the returned anchor never exceeds the budget-fold iterate of F
    eps = Fraction(1)
    values = tuple(Fraction(v) for v in (0, 1, 2, 3, 3, 3, 3, 3, 3, 3))
    F = IndexFunction.from_callable(lambda n: n + 2, 40)
    budget = 4
    interval = find_stable_interval(values, eps, F, 0, budget)
    bound = 0
    for _ in range(budget):
        bound = max(F(bound), bound)
    assert interval.m <= bound


def _chase_outcome(finder, *args):
    try:
        return finder(*args)
    except BudgetExceeded as exc:
        return ("budget exceeded", exc.iterations, exc.last_anchor)


@st.composite
def _chase_inputs(draw):
    """A sequence and eps where ties 2*|s(j) - s(m)| = eps are common:
    entries are drawn from multiples of eps/2 as well as freely."""
    eps = draw(st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12))
    entry = st.one_of(
        st.integers(min_value=-6, max_value=6).map(lambda k: k * eps / 2),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
    )
    return draw(st.lists(entry, min_size=1, max_size=12)), eps


@settings(max_examples=400, deadline=None)
@given(
    chase=_chase_inputs(),
    table=st.lists(st.integers(min_value=0, max_value=16), max_size=10),
    monotone=st.booleans(),
    n=st.integers(min_value=0, max_value=14),
    budget=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=1, max_value=5),
)
# a start past the tuple: the window's sequence is constant from its anchor
@example(
    chase=([Fraction(0), Fraction(3), Fraction(-3)], Fraction(1)),
    table=[4, 1, 9],
    monotone=False,
    n=5,
    budget=0,
    extra=1,
)
# an empty table: F is the identity, so every window is its anchor alone
@example(
    chase=([Fraction(0), Fraction(5), Fraction(-5)], Fraction(1, 2)),
    table=[],
    monotone=False,
    n=0,
    budget=0,
    extra=2,
)
def test_integer_chase_matches_the_fraction_oracle(
    chase, table, monotone, n, budget, extra
):
    # scaling the sequence and eps by a common denominator (times any
    # positive int) gives an int chase with the outcome of the Fraction one
    values, eps = chase
    if monotone:
        table = sorted(table)
    F = IndexFunction(tuple(table))
    scale = extra * lcm(eps.denominator, *(v.denominator for v in values))
    int_values = tuple(int(v * scale) for v in values)
    int_eps = int(eps * scale)
    assert all(v * scale == iv for v, iv in zip(values, int_values))
    assert eps * scale == int_eps
    expected = _chase_outcome(reference_stable_interval, tuple(values), eps, F, n, budget)
    assert _chase_outcome(
        find_stable_interval, int_values, int_eps, F, n, budget
    ) == expected
    assert _chase_outcome(
        find_stable_interval, tuple(values), eps, F, n, budget
    ) == expected


def _total_reach(F, m):
    """End of the chase's window at m under F, past the table too."""
    return F.reach[m] if m < len(F.reach) else max(F.reach[-1:] + (m,))


@settings(max_examples=300, deadline=None)
@given(
    chase=_chase_inputs(),
    table=st.lists(st.integers(min_value=0, max_value=16), max_size=10),
    n=st.integers(min_value=0, max_value=14),
    extra=st.integers(min_value=0, max_value=3),
)
def test_no_chase_re_anchors_more_than_the_tuple_length_minus_one(
    chase, table, n, extra
):
    # each re-anchor moves to a strictly later index of the tuple, so a
    # budget of len(values) - 1 suffices for every index function and start
    values, eps = chase
    values = tuple(values)
    F = IndexFunction(tuple(table))
    budget = len(values) - 1 + extra
    expected = reference_stable_interval(values, eps, F, n, budget)
    assert expected.fluctuations_used <= len(values) - 1
    assert find_stable_interval(values, eps, F, n, budget) == expected


@settings(max_examples=300, deadline=None)
@given(
    chase=_chase_inputs(),
    wide=st.lists(st.integers(min_value=0, max_value=16), max_size=10),
    data=st.data(),
    n=st.integers(min_value=0, max_value=14),
    budget=st.integers(min_value=0, max_value=4),
)
def test_a_narrower_reach_re_anchors_no_more_and_fails_only_where_the_wider_fails(
    chase, wide, data, n, budget
):
    # F(m) <= reach_G(m) at every m gives reach_F <= reach_G everywhere:
    # the F chase's anchors are a prefix of the G chase's anchors
    values, eps = chase
    values = tuple(values)
    G = IndexFunction(tuple(wide))
    length = data.draw(st.integers(min_value=0, max_value=12))
    F = IndexFunction(
        tuple(
            data.draw(st.integers(min_value=0, max_value=_total_reach(G, m)))
            for m in range(length)
        )
    )
    assert all(
        _total_reach(F, m) <= _total_reach(G, m) for m in range(len(values) + 32)
    )
    unlimited = len(values) - 1
    narrow = reference_stable_interval(values, eps, F, n, unlimited)
    wider = reference_stable_interval(values, eps, G, n, unlimited)
    assert narrow.fluctuations_used <= wider.fluctuations_used
    got = _chase_outcome(find_stable_interval, values, eps, F, n, budget)
    assert got == _chase_outcome(reference_stable_interval, values, eps, F, n, budget)
    if not isinstance(got, StableInterval):
        with pytest.raises(BudgetExceeded):
            find_stable_interval(values, eps, G, n, budget)


def test_find_stable_interval_monotonizes_internally():
    F = IndexFunction((9, 1, 1))  # wildly non-monotone
    interval = find_stable_interval((Fraction(0),) * 10, Fraction(1), F, 0, 3)
    assert interval.m == 0


def test_find_stable_interval_refuses_a_negative_start():
    # reach[-1] would otherwise read the last table entry as a window end
    with pytest.raises(IndexError):
        find_stable_interval((0, 1), 1, IndexFunction((3, 0)), -1, 2)


def test_fluctuation_budget_value():
    assert fluctuation_budget(Fraction(3), Fraction(1, 4)) == 8 * 9 * 16
    assert fluctuation_budget(Fraction(3, 2), Fraction(1, 3)) == 162


# ---------------------------------------------------------------------------
# harnesses over measure-space models
# ---------------------------------------------------------------------------

def test_harness_empty_sigma_trivial():
    model = build(Basis.canonical(3))
    F = IndexFunction.from_callable(lambda n: 2 * n + 1, 30)
    report = fluctuation_harness(
        model, Fraction(3), Fraction(1, 4), F, "fix_p", [()]
    )
    assert report.entries[0].passed
    assert report.entries[0].details["max_fluctuations_used"] == "0"


def test_harness_full_sigma_fixed_p0():
    # the sequence n -> M[n][0] is constantly d*(d)
    model = build(Basis.canonical(3))
    F = IndexFunction.from_callable(lambda n: 2 * n + 1, 30)
    report = fluctuation_harness(
        model, Fraction(3), Fraction(1, 4), F, "fix_p", [tuple(range(4))]
    )
    assert report.entries[0].passed


def test_harness_exhaustive_small_dimension():
    # all atom subsets at K = 4: an exhaustive run is its own oracle
    model = build(Basis.canonical(4))
    F = IndexFunction.from_callable(lambda n: 2 * n + 1, 40)
    for mode in ("fix_p", "fix_n"):
        report = fluctuation_harness(
            model, Fraction(3), Fraction(1, 4), F, mode, atom_subsets(4)
        )
        assert report.entries[0].passed, report.entries[0].details


def test_harness_rejects_unknown_mode_before_any_run():
    model = build(Basis.canonical(2))
    F = IndexFunction.from_callable(lambda n: n + 1, 16)
    with pytest.raises(ValueError, match="unknown mode"):
        fluctuation_harness(model, Fraction(2), Fraction(1, 4), F, "bogus", [])


def _oracle_models():
    rng = random.Random(204)
    models = [
        pytest.param(build(Basis.canonical(K)), id=f"canonical-K{K}") for K in range(5)
    ]
    for j, K in enumerate((1, 2, 3, 4, 4)):
        basis = random_invertible_basis(K, rng)
        models.append(pytest.param(build(basis), id=f"random{j}-K{K}"))
    return models


ORACLE_MODELS = _oracle_models()


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_l1_bounds_are_the_norms_of_the_embedded_d_and_e_star(model):
    # the report reads the norms off integer rows; here f_n = pi(d_n) and
    # g_p = pi_star(e*_p) are integrated in Fractions
    K = model.K
    report = hypothesis_report(model, Fraction(2), Fraction(1, 80))
    families = {
        "f": [pi(model, canonical("d", n, K)) for n in range(K + 1)],
        "g": [pi_star(model, canonical("e_star", p, K)) for p in range(K + 1)],
    }
    for entry, (name, hs) in zip(report.entries, families.items()):
        assert entry.name == f"l1_bound_{name}"
        assert {k: Fraction(v) for k, v in entry.details.items()} == {
            f"{name}_{n}": l1_norm(model, h) for n, h in enumerate(hs)
        }


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_prefix_table_sums_match_step_function_integrals(model):
    # d*(d) * sum over sigma of U[i][n] * (F * W)[p][i] / (E * F) is the
    # integral of f_n g_p over sigma
    K = model.K
    E, U = model.prefix_table
    F, FW = model.basis.int_columns
    scale = model.d_star_d / (E * F)
    fs, gs = embedded_families(model)
    products = [[times(fn, gp) for gp in gs] for fn in fs]
    for sigma in atom_subsets(K):
        for n in range(K + 1):
            for p in range(K + 1):
                total = sum(U[i][n] * FW[i][p] for i in sigma)
                assert scale * total == integrate_over(
                    model, products[n][p], sigma
                )


@pytest.mark.parametrize("model", ORACLE_MODELS)
@pytest.mark.parametrize(
    "B_hat, eps",
    [
        (Fraction(2), Fraction(1, 80)),
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 8), Fraction(2, 7)),
    ],
    ids=["refutation-eps", "budget-2", "budget-2-odd-eps"],
)
def test_harness_matches_step_function_reference(model, B_hat, eps):
    # the index functions and subset family of hypothesis_report; the
    # second and third (B_hat, eps) give a budget of 2, so failures are
    # compared too, and at eps = 2/7 the table is scaled by 7 before the
    # integer chase
    K = model.K
    sigmas = atom_subsets(K)
    for F in (
        IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
        IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
    ):
        for mode in ("fix_p", "fix_n"):
            entry = fluctuation_harness(model, B_hat, eps, F, mode, sigmas).entries[0]
            assert entry.details == reference_fluctuation_details(
                model, B_hat, eps, F, mode, sigmas
            )


@pytest.mark.parametrize(
    "basis",
    [Basis.canonical(3), random_invertible_basis(3, random.Random(215))],
    ids=["canonical-K3", "random-K3"],
)
def test_hypothesis_report_builds_the_prefix_table_once(monkeypatch, basis):
    # the product lines and fs read one table, so the report takes the
    # prefix sums of the K + 1 rows of E * W^-1 once
    builds = count_prefix_table_builds(monkeypatch)
    model = build(basis)
    sums = _counting(monkeypatch, measure_space, "accumulate")
    hypothesis_report(model, Fraction(2), Fraction(1, 80))
    assert builds == [model]
    assert sums == [(row,) for row in basis.dual.int_rows[1]]


def _support_sizes(model):
    """|supp| for each (mode, fixed index): the atoms whose line, column p
    (fix_p) or row n (fix_n) of their product table, is not all zero."""
    A = reference_atom_products(model)
    K = model.K
    fix_p = [sum(any(row[p] for row in atom) for atom in A) for p in range(K + 1)]
    fix_n = [sum(any(atom[n]) for atom in A) for n in range(K + 1)]
    return fix_p + fix_n


def _fails(values, accuracy, F, budget):
    try:
        find_stable_interval(values, accuracy, F, 0, budget)
    except BudgetExceeded:
        return True
    return False


def _support_models():
    rng = random.Random(214)
    return [
        pytest.param(build(Basis.canonical(0)), id="canonical-K0"),
        pytest.param(build(Basis.canonical(3)), id="canonical-K3"),
        pytest.param(build(random_invertible_basis(3, rng)), id="random-K3"),
        pytest.param(build(random_invertible_basis(4, rng)), id="random-K4"),
    ]


def _report_index_functions(K):
    return (
        IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
        IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
    )


def _line_scale(model):
    """E * F / d*(d): the factor that takes the integrals of f_n g_p to the
    integer sums of the product lines."""
    E, F = model.prefix_table[0], model.basis.int_columns[0]
    return E * F / model.d_star_d


def _reference_lines(model, eps):
    """(accuracy, {mode: lines}) from the per-atom Fraction products, scaled
    as ``_product_lines`` scales them: lines[k][i] is atom i's line at
    fixed index k, column p (fix_p) or row n followed by 0 (fix_n) of its
    product table, times E * F / d*(d), and the accuracy is the ceiling of
    eps times that."""
    K = model.K
    scale = _line_scale(model)
    A = [
        [[scale * v for v in row] for row in atom]
        for atom in reference_atom_products(model)
    ]
    assert all(v.denominator == 1 for atom in A for row in atom for v in row)
    A = [[[int(v) for v in row] for row in atom] for atom in A]
    return ceil(eps * scale), {
        "fix_p": [[tuple(row[p] for row in atom) for atom in A] for p in range(K + 1)],
        "fix_n": [[(*atom[n], 0) for atom in A] for n in range(K + 1)],
    }


def _contains(bigger, smaller):
    """Whether the multiset ``smaller`` is contained in ``bigger``."""
    return all(smaller.count(line) <= bigger.count(line) for line in smaller)


def _expected_walk(lines):
    """(kept indices, sequences) of one mode: every fixed index whose
    nonzero lines no other index's contain as a multiset, the first of
    equal ones kept, and the subset sums of their nonzero lines in atom
    order, each index's in reflected Gray-code order."""
    supports = [[line for line in atom_lines if any(line)] for atom_lines in lines]
    kept = [
        k
        for k, support in enumerate(supports)
        if not any(
            _contains(other, support) and (j < k or not _contains(support, other))
            for j, other in enumerate(supports)
            if j != k
        )
    ]
    zero = (0,) * len(lines[0][0])
    walk = []
    for k in kept:
        support = supports[k]
        for g in (i ^ (i >> 1) for i in range(2 ** len(support))):
            members = [line for b, line in enumerate(support) if g >> b & 1]
            walk.append(tuple(map(sum, zip(zero, *members))))
    return kept, walk


def _expected_chases(walk, accuracy, budget, F0, F1):
    """The calls of the walk: F1 on each sequence until it fails on one,
    then F0 from that sequence on until F0 fails too."""
    calls = []
    F1_failed = False
    for values in walk:
        if not F1_failed:
            calls.append((values, accuracy, F1, 0, budget))
            F1_failed = _fails(values, accuracy, F1, budget)
        if F1_failed:
            calls.append((values, accuracy, F0, 0, budget))
            if _fails(values, accuracy, F0, budget):
                break
    return calls


@pytest.mark.parametrize("model", _support_models())
@pytest.mark.parametrize(
    "B_hat, eps",
    [
        (Fraction(2), Fraction(1, 80)),
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 8), Fraction(2, 7)),
    ],
    ids=["refutation-eps", "budget-2", "budget-2-odd-eps"],
)
def test_hypothesis_report_chases_each_support_subset_once(
    monkeypatch, model, B_hat, eps
):
    # the calls are exactly those of the walk over the subset sums of each
    # fixed index that no other index covers, in Gray-code order, under F1
    # until F1 fails, then under F0 until F0 fails too; the walked
    # sequences are the sequences of every atom subset at every fixed
    # index, and the verdicts are those of both index functions on each
    K = model.K
    accuracy, mode_lines = _reference_lines(model, eps)
    A = reference_atom_products(model)
    scale = _line_scale(model)
    tables = [
        [
            [scale * sum(A[i][n][p] for i in sigma) for p in range(K + 1)]
            for n in range(K + 1)
        ]
        for sigma in atom_subsets(K)
    ]
    calls = _counting(monkeypatch, metastability, "find_stable_interval")
    entries = {e.name: e for e in hypothesis_report(model, B_hat, eps).entries}
    budget = fluctuation_budget(B_hat, eps)
    F0, F1 = index_functions = _report_index_functions(K)
    expected_calls = []
    for mode in ("fix_p", "fix_n"):
        if mode == "fix_p":
            every = {tuple(col) for table in tables for col in zip(*table)}
        else:
            every = {(*row, 0) for table in tables for row in table}
        _, walk = _expected_walk(mode_lines[mode])
        assert set(walk) == every
        expected_calls += _expected_chases(walk, accuracy, budget, F0, F1)
        assert entries[f"bounded_fluctuations_{mode}"].details == {
            f"index_function_{fi}": (
                "fail"
                if any(_fails(values, accuracy, F, budget) for values in every)
                else "pass"
            )
            for fi, F in enumerate(index_functions)
        }
    assert calls == expected_calls


def test_canonical_line_supports_are_the_fixed_atom_and_the_atoms_up_to_n(
    monkeypatch,
):
    # fix_p: atom p alone, at every p, each line distinct; fix_n: the atoms
    # up to n, whose lines at n are their lines at K, so only n = K is
    # walked and the covered n < K are skipped
    for K in range(6):
        model = build(Basis.canonical(K))
        assert _support_sizes(model) == [1] * (K + 1) + list(range(1, K + 2))
        _, mode_lines = _reference_lines(model, Fraction(1, 80))
        assert _expected_walk(mode_lines["fix_p"])[0] == list(range(K + 1))
        assert _expected_walk(mode_lines["fix_n"])[0] == [K]
    calls = _counting(monkeypatch, metastability, "find_stable_interval")
    hypothesis_report(build(Basis.canonical(3)), Fraction(2), Fraction(1, 80))
    # a chase of every sequence of every atom subset under both index
    # functions would be 2 * 8 * 16 = 256, and a walk of every fixed
    # index's support subsets 4 * 2 + 2 + 4 + 8 + 16 = 38; F1 passes on
    # all, so F0 is not chased
    assert len(calls) == 4 * 2 + 16 == 24


_F1_ONLY_FAILS = build(random_invertible_basis(3, random.Random(22)))


@pytest.mark.parametrize(
    "model, B_hat, eps, verdicts",
    [
        # budget ceil(8 * (1/4)^2 * 1^2) = 1: in fix_p only F1 fails
        (_F1_ONLY_FAILS, Fraction(1, 4), Fraction(1), ("pass", "fail", "fail", "fail")),
        # budget ceil(8 * (1/8)^2 * 4^2) = 2
        (build(Basis.canonical(4)), Fraction(1, 8), Fraction(1, 4),
         ("pass", "pass", "fail", "fail")),
    ],
    ids=["random-K3", "canonical-K4"],
)
def test_hypothesis_report_verdicts_when_F1_fails(model, B_hat, eps, verdicts):
    report = hypothesis_report(model, B_hat, eps)
    assert report == reference_hypothesis_report(model, B_hat, eps)
    details = {e.name: e.details for e in report.entries}
    assert (
        details["bounded_fluctuations_fix_p"]["index_function_0"],
        details["bounded_fluctuations_fix_p"]["index_function_1"],
        details["bounded_fluctuations_fix_n"]["index_function_0"],
        details["bounded_fluctuations_fix_n"]["index_function_1"],
    ) == verdicts


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(min_value=0, max_value=5),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    B_hat=st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2)]),
    eps=st.sampled_from(
        [Fraction(1, 80), Fraction(1, 4), Fraction(2, 7), Fraction(1), Fraction(3)]
    ),
    data=st.data(),
)
def test_hypothesis_report_matches_both_chases_on_every_sequence(
    K, seed, B_hat, eps, data
):
    # seed None is the canonical basis; the budget is drawn from 0..K+2
    # and set in place of the one of (B_hat, eps), since no positive B_hat
    # gives budget 0
    basis = (
        Basis.canonical(K)
        if seed is None
        else random_invertible_basis(K, random.Random(seed))
    )
    model = build(basis)
    budget = data.draw(st.integers(min_value=0, max_value=K + 2), label="budget")
    with mock.patch.object(metastability, "fluctuation_budget", lambda *_: budget):
        report = hypothesis_report(model, B_hat, eps)
    assert report == reference_hypothesis_report(model, B_hat, eps, budget)


def _basis(kind, K, seed):
    rng = random.Random(seed)
    if kind == "canonical":
        return Basis.canonical(K)
    if kind == "random":
        return random_invertible_basis(K, rng)
    return monomial_basis(rng, K, kind == "permuted")[1]


class _FormsOnly(SimpleNamespace):
    """A basis held only in the integer forms that pi and pi_star read."""

    scaled_functional_values = Basis.scaled_functional_values


def _with_copies(model, atom, twin, ns, ps, zeros):
    """``model`` with atom ``twin`` a copy of atom ``atom`` (its weight and
    its value under every f_n and g_p), f at ns[1] a copy of f at ns[0], g
    at ps[1] a copy of g at ps[0], then f_n at atom i set to 0 for each
    (n, i) in ``zeros``.  The copy's basis is the integer forms read off
    those values: rows of E * W^-1 whose prefix sums U[i][n] are
    E * f_n(w_i) * mu_i / d*(d), and the columns of F * W, whose entries
    are F * g_p(w_i).  With g*_i(d) = mu_i and d*(w_i) = d*(d), the copy's
    ``int_scales`` turn these back into f_n and g_p, so pi of d_n and
    pi_star of e*_p give the copied values, and the small-set scan, which
    reads f_n * mu_i = U[i][n] * d*(w_i) / E and g_p * mu_i =
    (F * W)[p][i] * g*_i(d) / F, reads them too.

    At every fixed index where atom's line L is not zero, twin's line is L
    too, and the fix_n lines at the two n, and the fix_p lines at the two
    p, are equal multisets.  The zeros take lines out of fix_n multisets,
    so that one index can hold L twice and another L once with other
    lines: the same set of lines, but only the first gives 2 * L.  No
    invertible basis gives any of these: its atom lines at one fixed index
    are pairwise independent, and no two of its fixed indices have the
    same lines."""
    K = model.K

    def copied(rows, pair):
        rows = [list(row) for row in rows]
        rows[pair[1]] = list(rows[pair[0]])
        for row in rows:
            row[twin] = row[atom]
        return rows

    fs, gs = map(copied, embedded_families(model), (ns, ps))
    for n, i in zeros:
        fs[n][i] = Fraction(0)
    mu = list(model.mu)
    mu[twin] = mu[atom]
    d = model.d_star_d
    E, U = integer_rows([[f[i] * mu[i] / d for f in fs] for i in range(K + 1)])
    F, V = integer_rows([[g[i] for g in gs] for i in range(K + 1)])
    rows = tuple(tuple(map(sub, u, [0, *u[:-1]])) for u in U)
    basis = _FormsOnly(K=K, int_columns=(F, V), dual=DualBasis(K, (E, rows)))
    copy = dataclasses.replace(
        model, basis=basis, mu=tuple(mu), gamma_d=tuple(mu), d_star_atoms=(d,) * (K + 1)
    )
    assert embedded_families(copy) == (tuple(map(tuple, fs)), tuple(map(tuple, gs)))
    return copy


_INDEX = st.integers(min_value=0, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "scaled", "permuted", "canonical"]),
    K=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=40),
    eps=st.sampled_from(
        [Fraction(1, 80), Fraction(1, 4), Fraction(2, 7), Fraction(1), Fraction(3)]
    ),
    indices=st.tuples(*[_INDEX] * 6),
    zeros=st.lists(st.tuples(_INDEX, _INDEX), max_size=3),
    budget=st.integers(min_value=0, max_value=8),
)
# fix_p at p = 0 and 1 are equal multisets: one of them must be walked
@example("random", 1, 0, Fraction(1, 80), (0, 0, 0, 0, 0, 1), [], 0)
# fix_n at n = 2 is {L, L} and at n = 0 {L, M}: the same set, and only
# n = 2 gives 2 * L, on which F0 and F1 fail
@example("random", 2, 1, Fraction(3), (0, 1, 2, 0, 0, 0), [(0, 1), (2, 2)], 0)
def test_skipping_covered_fixed_indices_keeps_the_verdicts(
    kind, K, seed, eps, indices, zeros, budget
):
    # a fixed index with two equal lines, whose sums hold 2 * line, two
    # fixed indices with equal multisets, one of which must be walked, or
    # two with equal sets but not equal multisets; the indices are read
    # mod K + 1, and the budget, read mod K + 3, is set in place of the one
    # of (B_hat, eps), so that F1 fails and the walk goes on under F0
    atom, twin, n0, n1, p0, p1 = (i % (K + 1) for i in indices)
    zeros = [(n % (K + 1), i % (K + 1)) for n, i in zeros]
    budget %= K + 3
    model = _with_copies(
        build(_basis(kind, K, seed)), atom, twin, (n0, n1), (p0, p1), zeros
    )
    with mock.patch.object(metastability, "fluctuation_budget", lambda *_: budget):
        report = hypothesis_report(model, Fraction(1, 2), eps)
    assert report == reference_hypothesis_report(model, Fraction(1, 2), eps, budget)


@pytest.mark.parametrize("model", ORACLE_MODELS)
@pytest.mark.parametrize("eps", [Fraction(1, 80), Fraction(1, 4), Fraction(2, 7)])
def test_product_lines_are_the_atom_products_on_the_basis_scale(model, eps):
    # each line is the per-atom Fraction products times E * F / d*(d), with
    # no further scaling, and the accuracy is eps on that scale, rounded up
    accuracy, mode_lines = _reference_lines(model, eps)
    for mode, lines in mode_lines.items():
        assert metastability._product_lines(model, eps, mode) == (accuracy, lines)


def test_canonical_product_lines_are_0_1_vectors_at_accuracy_1():
    # E = F = 1, U[i][n] = [i <= n] and (F * W)[i][p] = [i == p], and
    # d*(d) >= 1/4 makes eps * E * F / d*(d) at most 1
    for K in range(17):
        model = build(Basis.canonical(K))
        for eps in (Fraction(1, 80), Fraction(1, 4)):
            for mode in ("fix_p", "fix_n"):
                accuracy, lines = metastability._product_lines(model, eps, mode)
                assert accuracy == 1
                assert {
                    v for atom_lines in lines for line in atom_lines for v in line
                } <= {0, 1}


def _outcome(values, eps, F, budget):
    """The chase from 0: its interval, or the iterations and last anchor
    of the :class:`BudgetExceeded` it raises."""
    try:
        return find_stable_interval(values, eps, F, 0, budget)
    except BudgetExceeded as exc:
        return exc.iterations, exc.last_anchor


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["canonical", "scaled", "permuted", "random"]),
    K=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=40),
    offset=st.sampled_from(
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    ),
    data=st.data(),
)
def test_integer_chase_at_the_ceiling_matches_the_exact_integrals(
    kind, K, seed, offset, data
):
    # r = eps * E * F / d*(d) is 2 * |s(1) - s(0)| for some product
    # sequence s, an integer, plus the offset.  At an offset in (0, 1) the
    # exact chase does not re-anchor at s(1), but a chase at floor(r), or
    # at round(r) for the offsets 1/3 and 1/2, does
    model = build(_basis(kind, K, seed))
    A = reference_atom_products(model)
    scale = _line_scale(model)
    # the steps of each atom's line and of the sum of all of them
    steps = sorted(
        {
            2 * abs(line[1] - line[0])
            for mode in ("fix_p", "fix_n")
            for atom_lines in metastability._product_lines(model, 1, mode)[1]
            for line in (*atom_lines, tuple(map(sum, zip(*atom_lines))))
            if len(line) > 1 and line[1] != line[0]
        }
    )
    r = data.draw(st.sampled_from(steps), label="step") + offset
    eps = r / scale
    F0, F1 = _report_index_functions(K)
    for mode in ("fix_p", "fix_n"):
        accuracy, lines = metastability._product_lines(model, eps, mode)
        assert accuracy == ceil(r)
        zero = (0,) * len(lines[0][0])
        for fixed, atom_lines in enumerate(lines):
            for sigma in atom_subsets(K):
                values = tuple(map(sum, zip(zero, *(atom_lines[i] for i in sigma))))
                if mode == "fix_p":
                    exact = tuple(
                        sum((A[i][n][fixed] for i in sigma), Fraction(0))
                        for n in range(K + 1)
                    )
                else:
                    exact = (
                        *(
                            sum((A[i][fixed][p] for i in sigma), Fraction(0))
                            for p in range(K + 1)
                        ),
                        Fraction(0),
                    )
                for budget in range(K + 3):
                    for F in (F0, F1):
                        assert _outcome(values, accuracy, F, budget) == _outcome(
                            exact, eps, F, budget
                        ), (mode, fixed, sigma, budget)


def test_support_walk_chases_only_the_zero_sequence_on_an_all_zero_line():
    # the atom tables ((1, 0), (2, 0)) and ((3, 0), (0, 0)), as u ⊗ v:
    # column p = 1 is zero in both; atom 1 has a zero row n = 1
    U = [[1, 2], [3, 0]]
    V = [[1, 0], [1, 0]]
    model = SimpleNamespace(
        prefix_table=(1, U),
        basis=SimpleNamespace(int_columns=(1, V)),
        d_star_d=Fraction(1),
    )
    walked = []
    for mode in ("fix_p", "fix_n"):
        accuracy, lines = metastability._product_lines(model, Fraction(1), mode)
        assert accuracy == 1
        for atom_lines in lines:
            support = [line for line in atom_lines if any(line)]
            walked.extend(
                (mode, values)
                for values in metastability._subset_sums(support, len(atom_lines[0]))
            )
    assert walked == [
        ("fix_p", (0, 0)),
        ("fix_p", (1, 2)),
        ("fix_p", (4, 2)),
        ("fix_p", (3, 0)),
        ("fix_p", (0, 0)),
        ("fix_n", (0, 0, 0)),
        ("fix_n", (1, 0, 0)),
        ("fix_n", (4, 0, 0)),
        ("fix_n", (3, 0, 0)),
        ("fix_n", (0, 0, 0)),
        ("fix_n", (2, 0, 0)),
    ]


@pytest.mark.parametrize("size", range(6))
def test_subset_sums_give_every_subset_sum_once(size):
    rng = random.Random(size)
    lines = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(size)]
    sums = list(metastability._subset_sums(lines, 3))
    assert sums[0] == (0, 0, 0)
    assert sorted(sums) == sorted(
        tuple(sum(col) for col in zip((0, 0, 0), *(lines[i] for i in sigma)))
        for sigma in (
            [i for i in range(size) if mask >> i & 1] for mask in range(2**size)
        )
    )


@pytest.mark.parametrize("model", ORACLE_MODELS)
@pytest.mark.parametrize(
    "B_hat, eps",
    [
        (Fraction(2), Fraction(1, 80)),
        (Fraction(1, 8), Fraction(1, 4)),
        (Fraction(1, 8), Fraction(2, 7)),
    ],
    ids=["refutation-eps", "budget-2", "budget-2-odd-eps"],
)
def test_hypothesis_report_fluctuation_clauses_match_the_reference(model, B_hat, eps):
    K = model.K
    sigmas = atom_subsets(K)
    entries = {e.name: e for e in hypothesis_report(model, B_hat, eps).entries}
    for mode in ("fix_p", "fix_n"):
        expected = {}
        for fi, F in enumerate(
            (
                IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
                IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
            )
        ):
            details = reference_fluctuation_details(model, B_hat, eps, F, mode, sigmas)
            failed = any(key.startswith("sigma_") for key in details)
            expected[f"index_function_{fi}"] = "fail" if failed else "pass"
        entry = entries[f"bounded_fluctuations_{mode}"]
        assert entry.details == expected
        assert entry.passed == ("fail" not in expected.values())


@pytest.mark.parametrize("mode", ["fix_p", "fix_n"])
@pytest.mark.parametrize(
    "sigma, error, args",
    [
        ((3,), IndexError, (3,)),
        ((-1,), IndexError, (-1,)),
        ((1, 1), ValueError, ("atom listed twice in (1, 1)",)),
        # a repeated atom is reported before its range
        ((3, 3), ValueError, ("atom listed twice in (3, 3)",)),
        ((0, 5, -1), IndexError, (5,)),
    ],
)
def test_harness_rejects_bad_atoms_as_integrate_over_does(mode, sigma, error, args):
    model = build(Basis.canonical(2))
    F = IndexFunction.from_callable(lambda n: n + 1, 16)
    with pytest.raises(error) as exc:
        fluctuation_harness(model, Fraction(2), Fraction(1, 4), F, mode, [sigma])
    assert type(exc.value) is error and exc.value.args == args
    with pytest.raises(error) as exc:
        integrate_over(model, pi(model, canonical("d", 0, 2)), sigma)
    assert type(exc.value) is error and exc.value.args == args


@pytest.mark.parametrize("mode", ["fix_p", "fix_n"])
@pytest.mark.parametrize("eps", [Fraction(1, 80), Fraction(2, 7)])
def test_harness_sums_an_unsorted_sigma_family_as_the_reference(mode, eps):
    model = build(random_invertible_basis(2, random.Random(215)))
    F = IndexFunction.from_callable(lambda n: 2 * n + 1, 16)
    sigmas = [(2, 0), (1,), ()]
    entry = fluctuation_harness(model, Fraction(1, 8), eps, F, mode, sigmas).entries[0]
    assert entry.details == reference_fluctuation_details(
        model, Fraction(1, 8), eps, F, mode, sigmas
    )


@pytest.mark.parametrize(
    "model",
    ORACLE_MODELS
    + [
        pytest.param(build(Basis.canonical(K)), id=f"canonical-K{K}")
        for K in range(5, 9)
    ],
)
def test_product_matrix_matches_the_step_function_reference(model):
    assert product_matrix(model) == reference_product_matrix(model)


def test_a_checked_product_matrix_holds_d_star_d_and_zero_themselves():
    # the matrix is the closed form: the d*(d) object on and below the
    # diagonal, one 0 above it
    model = build(random_invertible_basis(6, random.Random(208)))
    entries = product_matrix(model).entries
    assert all(
        v is (model.d_star_d if p <= n else entries[0][-1])
        for n, row in enumerate(entries)
        for p, v in enumerate(row)
    )
    assert entries[0][-1] == 0


def test_the_product_matrix_reads_no_form_of_the_basis_and_runs_no_check(
    monkeypatch,
):
    # the basis ran its one check when it was built: the matrix needs only
    # K and d*(d), so a model whose basis holds no form gives the same one
    model = build(random_invertible_basis(4, random.Random(209)))
    expected = reference_product_matrix(model)

    def no_check(basis):
        raise AssertionError("the biorthogonality check ran again")

    monkeypatch.setattr(Basis, "check_biorthogonality", no_check)
    bare = dataclasses.replace(model, basis=SimpleNamespace(K=model.K))
    assert product_matrix(bare) == product_matrix(model) == expected


@pytest.mark.parametrize(
    "basis, perturbed",
    [
        (Basis.canonical(2), {"fs": (1, 1)}),
        (Basis.canonical(3), {"fs": (0, 2)}),
        (random_invertible_basis(3, random.Random(206)), {"fs": (2, 0)}),
        (random_invertible_basis(4, random.Random(207)), {"fs": (4, 3)}),
        # M[1][3] and M[2][0] both break in the reference
        (Basis.canonical(3), {"fs": (1, 3), "gs": (0, 2)}),
    ],
)
def test_perturbed_family_fails_the_basis_check_as_in_the_reference(
    basis, perturbed
):
    # the reference product matrix embeds d_n and e*_p with pi and
    # pi_star, which read the basis's integer forms: one entry of f_n or
    # g_p is moved by perturbing the entries of E * W^-1 whose prefix sums
    # give f_n, or one entry of F * W, past the guard of the built basis
    # (plain assignment is refused); where the reference finds a wrong
    # entry, the biorthogonality check fails
    model = build(basis)
    E, rows = basis.dual.int_rows
    rows = [list(row) for row in rows]
    F, columns = basis.int_columns
    columns = [list(col) for col in columns]
    for family, (n, i) in perturbed.items():
        if family == "fs":
            rows[i][n] += 1
            if n < basis.K:
                rows[i][n + 1] -= 1
        else:
            columns[i][n] += 1
    forms = {
        "dual": DualBasis(basis.K, (E, tuple(map(tuple, rows)))),
        "int_columns": (F, tuple(map(tuple, columns))),
    }
    for name, value in forms.items():
        with pytest.raises(AttributeError):
            setattr(basis, name, value)
        object.__setattr__(basis, name, value)
    with pytest.raises(StructureViolation):
        reference_product_matrix(model)
    with pytest.raises(StructureViolation, match="biorthogonality"):
        basis.check_biorthogonality()


def test_hypothesis_report_canonical_passes():
    model = build(Basis.canonical(3))
    report = hypothesis_report(model, Fraction(2), Fraction(1, 80))
    assert report.all_passed
    names = {e.name for e in report.entries}
    assert names == {
        "l1_bound_f",
        "l1_bound_g",
        "small_set_continuity_f",
        "small_set_continuity_g",
        "bounded_fluctuations_fix_p",
        "bounded_fluctuations_fix_n",
    }


def test_hypothesis_report_fails_honestly_with_tiny_bound():
    model = build(Basis.canonical(2))
    report = hypothesis_report(model, Fraction(1, 100), Fraction(1, 4))
    l1 = next(e for e in report.entries if e.name == "l1_bound_f")
    assert not l1.passed
    assert not report.all_passed


# ---------------------------------------------------------------------------
# conclusion search
# ---------------------------------------------------------------------------

def test_conclusion_none_at_refutation_accuracy():
    rng = random.Random(203)
    for basis in [Basis.canonical(3), random_invertible_basis(3, rng)]:
        model = build(basis)
        assert conclusion_search(model, Fraction(1, 80)) is None


def test_conclusion_found_at_coarse_accuracy():
    model = build(Basis.canonical(2))
    found = conclusion_search(model, Fraction(1))
    assert found == FoundPair(m=0, s=1, q=0, l=1, gap=Fraction(35, 64))


def test_conclusion_vacuous_at_k0():
    model = build(Basis.canonical(0))
    assert conclusion_search(model, Fraction(1)) is None


def test_conclusion_search_matches_the_four_loop_reference():
    rng = random.Random(208)
    found = 0
    for K in range(7):
        for basis in (Basis.canonical(K), random_invertible_basis(K, rng)):
            model = build(basis)
            boundary = model.d_star_d / 20  # gap == 20 * eps: no candidate
            for eps in (
                Fraction(1, 80),
                Fraction(1, 4),
                Fraction(1),
                Fraction(10),
                boundary,
                boundary + Fraction(1, 10**9),
            ):
                result = conclusion_search(model, eps)
                assert result == reference_conclusion_search(model, eps)
                found += result is not None
            assert conclusion_search(model, boundary) is None
    assert found > 0


def test_count_fluctuations_range_validation():
    values = (Fraction(1),)
    with pytest.raises(ValueError):
        count_fluctuations(values, Fraction(1, 2), (5, 3))
    with pytest.raises(ValueError):
        count_fluctuations(values, Fraction(1, 2), (-1, 3))


def test_find_stable_interval_argument_validation():
    values = (Fraction(0),)
    F = IndexFunction((1, 2))
    with pytest.raises(ValueError):
        find_stable_interval(values, Fraction(0), F, 0, 3)
    with pytest.raises(ValueError):
        find_stable_interval(values, Fraction(1, 2), F, 0, -1)
