"""Fast-growing hierarchy: exact values, budgets, and the threshold bound."""

from fractions import Fraction

import pytest

from jameslab import hierarchy
from jameslab.hierarchy import (
    OMEGA,
    CompareResult,
    EvalBudget,
    Exact,
    ExceedsBudget,
    HierarchyExpr,
    UndecidedComparison,
    fgh_compare,
    fgh_eval,
    fgh_omega,
    format_value,
    threshold_arg,
    threshold_arg_with_eps,
)

from helpers import reference_fgh_eval


def fgh_literal(m: int, n: int) -> int:
    """Independent oracle: the definition applied literally, with the
    successor iterated one step at a time."""
    if m == 0:
        return n + 1
    x = n
    for _ in range(n):
        x = fgh_literal(m - 1, x)
    return x


# ---------------------------------------------------------------------------
# closed forms against the literal iteration
# ---------------------------------------------------------------------------

def test_literal_oracle_small_values():
    assert fgh_literal(0, 5) == 6
    assert fgh_literal(1, 7) == 14
    assert fgh_literal(2, 4) == 64
    assert fgh_literal(3, 2) == 2048


def test_closed_forms_up_to_16():
    for n in range(17):
        assert fgh_eval(0, n) == Exact(n + 1)
        assert fgh_eval(1, n) == Exact(2 * n)
        assert fgh_eval(2, n) == Exact(2**n * n)


def test_eval_matches_literal_iteration():
    for n in range(11):
        for m in range(3):
            assert fgh_eval(m, n) == Exact(fgh_literal(m, n))
    assert fgh_eval(3, 2) == Exact(fgh_literal(3, 2))


def test_spot_values():
    assert fgh_eval(0, 5) == Exact(6)
    assert fgh_eval(2, 4) == Exact(64)  # iteration 4 -> 8 -> 16 -> 32 -> 64
    assert fgh_eval(3, 2) == Exact(2048)  # f_2(f_2(2)) = f_2(8)


def test_omega_diagonal():
    assert fgh_omega(0) == Exact(1)
    assert fgh_omega(1) == Exact(2)
    assert fgh_omega(2) == Exact(8)


def test_zero_argument_edge():
    assert fgh_eval(0, 0) == Exact(1)
    assert fgh_eval(1, 0) == Exact(0)
    assert fgh_eval(5, 0) == Exact(0)


def test_monotonicity_spot_checks():
    for m in range(4):
        for n in range(1, 8):
            a = fgh_eval(m, n)
            b = fgh_eval(m, n + 1)
            if isinstance(a, Exact) and isinstance(b, Exact):
                assert a.value < b.value
            if m < 2:
                c = fgh_eval(m + 1, n)
                if isinstance(a, Exact) and isinstance(c, Exact):
                    assert a.value <= c.value


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(max_digits=0)
    with pytest.raises(ValueError):
        EvalBudget(max_steps=0)
    with pytest.raises(ValueError):
        fgh_eval(-1, 2)


def test_f3_3_exceeds_budget_with_huge_lower_bound():
    result = fgh_eval(3, 3, EvalBudget(max_digits=10**6, max_steps=10**4))
    assert isinstance(result, ExceedsBudget)
    assert result.certified_lower_bound > 10**100


def test_budget_lower_bounds_never_exceed_true_value():
    # compare breached runs against full evaluations on feasible instances
    for m, n in [(2, 10), (2, 14), (3, 2)]:
        exact = fgh_eval(m, n)
        assert isinstance(exact, Exact)
        for digits in (1, 2, 3):
            r = fgh_eval(m, n, EvalBudget(max_digits=digits, max_steps=10**4))
            if isinstance(r, ExceedsBudget):
                assert r.certified_lower_bound <= exact.value
        r = fgh_eval(m, n, EvalBudget(max_digits=10**6, max_steps=3))
        if isinstance(r, ExceedsBudget):
            assert r.certified_lower_bound <= exact.value


def test_digit_budget_breach_reports_intermediate():
    r = fgh_eval(2, 20, EvalBudget(max_digits=3, max_steps=10**4))
    assert isinstance(r, ExceedsBudget)
    assert r.certified_lower_bound >= 1000  # first intermediate past 3 digits


@pytest.mark.parametrize(
    "m, n, expected",
    [
        (0, 8, Exact(9)),
        (0, 9, ExceedsBudget(10)),
        (1, 4, Exact(8)),
        (1, 5, ExceedsBudget(10)),
        (1, 9, ExceedsBudget(18)),
        (2, 9, ExceedsBudget(18)),
    ],
)
def test_every_level_applies_the_digit_gate(m, n, expected):
    # the closed forms n+1 and 2n breach a one-digit budget as the
    # level-2 iteration does: the value past 10 is its own lower bound
    budget = EvalBudget(max_digits=1)
    assert fgh_eval(m, n, budget) == expected == reference_fgh_eval(m, n, budget)


def test_eval_matches_the_earlier_frame_loop_on_a_budget_grid():
    # every frame has level >= 2, the top accumulator is the largest on the
    # stack and a popped value already passed the digit gate, so dropping
    # the level-1 branch, the stack scan and the post-pop gate changes no
    # result: 7 * 12 * 8 * 8 = 5376 cases
    cases = 0
    for m in range(7):
        for n in [*range(9), 50, 10**5, 10**40]:
            for digits in (1, 2, 3, 5, 8, 20, 100, 10**4):
                for steps in (1, 2, 3, 5, 10, 50, 300, 10**4):
                    budget = EvalBudget(max_digits=digits, max_steps=steps)
                    assert fgh_eval(m, n, budget) == reference_fgh_eval(
                        m, n, budget
                    ), (m, n, digits, steps)
                    cases += 1
    assert cases == 5376


@pytest.mark.parametrize(
    "m, n, max_steps, expected",
    [
        # f_2(n): one frame of n doublings, its last at step n
        (2, 7, 6, ExceedsBudget(7 * 2**6)),
        (2, 7, 7, Exact(7 * 2**7)),
        (2, 7, 8, Exact(7 * 2**7)),
        # f_3(2) = f_2(f_2(2)): a step to start each level-2 frame, whose
        # last doublings are steps 1 + 2 = 3 and 3 + 1 + 8 = 12
        (3, 2, 2, ExceedsBudget(4)),
        (3, 2, 3, ExceedsBudget(8)),
        (3, 2, 4, ExceedsBudget(8)),
        (3, 2, 11, ExceedsBudget(1024)),
        (3, 2, 12, Exact(2048)),
        (3, 2, 13, Exact(2048)),
    ],
)
def test_step_budgets_around_a_level_2_frames_last_doubling(m, n, max_steps, expected):
    budget = EvalBudget(max_steps=max_steps)
    assert fgh_eval(m, n, budget) == expected == reference_fgh_eval(m, n, budget)


@pytest.mark.parametrize(
    "m, n, digits",
    [(2, 5000, 1000), (2, 5000, 1234), (2, 5000, 1505), (3, 3, 2000), (4, 2, 617)],
)
def test_a_digit_breach_inside_the_gates_ambiguous_window(m, n, digits):
    # the first doubling past 10^digits has its bit length or one more,
    # both inside the window where the gate builds 10^digits
    budget = EvalBudget(max_digits=digits)
    result = fgh_eval(m, n, budget)
    assert result == reference_fgh_eval(m, n, budget)
    bound = result.certified_lower_bound
    gate = hierarchy._DigitGate(digits)
    assert gate._low_bits < bound.bit_length() <= gate._high_bits
    assert bound // 2 < 10**digits <= bound


def test_a_level_2_frame_takes_its_doublings_at_once(monkeypatch):
    # f_3(3) breaches the step budget inside f_2(402653184): one gate test
    # per level-2 frame, not one per doubling (about 10^4)
    calls = []
    exceeds = hierarchy._DigitGate.exceeds

    def counting(gate, x):
        calls.append(x)
        return exceeds(gate, x)

    monkeypatch.setattr(hierarchy._DigitGate, "exceeds", counting)
    result = fgh_eval(3, 3)
    assert len(calls) < 100
    assert isinstance(result, ExceedsBudget)
    assert result == reference_fgh_eval(3, 3)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_threshold_arg_b1():
    assert threshold_arg(Fraction(1)) == 2**29 + 5 == 536870917


def test_threshold_arg_b2():
    assert threshold_arg(Fraction(2)) == 2**29 * 16 + 5 == 8589934597


def test_threshold_arg_monotone():
    values = [threshold_arg(Fraction(b, 2)) for b in range(2, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_threshold_arg_ceiling_on_fractional_b():
    b = Fraction(3, 2)
    assert threshold_arg(b) == -((-(2**29 * 81)) // 16) + 5


def test_threshold_arg_domain_error():
    with pytest.raises(ValueError):
        threshold_arg(Fraction(1, 2))


def test_threshold_with_eps_variant():
    # independent big-integer arithmetic: 2^22 * 80^4 + 5
    assert threshold_arg_with_eps(Fraction(1), Fraction(1, 80)) == 2**22 * 80**4 + 5


# ---------------------------------------------------------------------------
# structural comparison
# ---------------------------------------------------------------------------

def test_compare_small_exact():
    assert fgh_compare(HierarchyExpr(0, 1), 5) == CompareResult.LESS
    assert fgh_compare(HierarchyExpr(2, 4), 64) == CompareResult.GREATER_OR_EQUAL
    assert fgh_compare(HierarchyExpr(2, 4), 65) == CompareResult.LESS


def test_compare_omega_small():
    assert fgh_compare(HierarchyExpr(OMEGA, 3), 10) == CompareResult.GREATER_OR_EQUAL


def test_compare_omega_threshold_without_evaluation():
    expr = HierarchyExpr(OMEGA, threshold_arg(Fraction(1)))
    assert fgh_compare(expr, 10**100) == CompareResult.GREATER_OR_EQUAL


@pytest.mark.parametrize("level", [10**6 + 3, OMEGA], ids=repr)
@pytest.mark.parametrize(
    "N, expected", [(2, CompareResult.GREATER_OR_EQUAL), (3, CompareResult.LESS)]
)
def test_compare_at_argument_one_needs_no_evaluation(level, N, expected):
    # f_m(1) = 2 at every level, and f_w(1) = f_1(1): a level of 10^6
    # would otherwise take 10^6 frame steps and run out of budget
    assert fgh_compare(HierarchyExpr(level, 1), N) is expected


def test_every_level_maps_one_to_two():
    assert {fgh_eval(m, 1) for m in range(8)} == {Exact(2)}
    assert fgh_omega(1) == Exact(2)


def test_compare_without_a_certificate_is_undecided(monkeypatch):
    # one evaluation step and no floor certificate leave the raise site
    monkeypatch.setattr(hierarchy, "_COMPARE_STEPS", 1)
    monkeypatch.setattr(hierarchy, "_certified_floor", lambda level, arg_lb, N: False)
    with pytest.raises(UndecidedComparison, match="budgets exhausted"):
        fgh_compare(HierarchyExpr(3, 3), 100)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_symbolic():
    assert HierarchyExpr(OMEGA, 8589934597).render() == "f_w(8589934597)"


def test_expr_validation():
    with pytest.raises(ValueError):
        HierarchyExpr("alpha", 3)
    with pytest.raises(ValueError):
        HierarchyExpr(-1, 3)
    with pytest.raises(ValueError):
        HierarchyExpr(2, -3)


@pytest.mark.parametrize("argument", [HierarchyExpr(2, 2), "3", -1], ids=repr)
def test_expr_argument_is_a_natural_number(argument):
    # the headline bound is f_w of one integer; no expression nests
    with pytest.raises(ValueError, match="argument must be"):
        HierarchyExpr(2, argument)


def test_format_value():
    assert format_value(123) == "123"
    assert format_value(10**60).startswith("~1.000e+60")
    big = 7 * 10**3000
    assert format_value(big) == "~7.000e+3000"


def test_values_past_the_int_digit_limit():
    # Python's int-to-str conversion refuses more than 4,300 digits by
    # default; rendering, formatting and comparing must not depend on it
    assert HierarchyExpr(OMEGA, 10**5000).render() == "f_w(1" + "0" * 5000 + ")"
    assert format_value(15000 * 2**15000) == "~4.226e+4519"
    assert format_value(7 * 10**5000) == "~7.000e+5000"
    f_2 = HierarchyExpr(2, 15000)  # 15000 * 2^15000, about 4.2e4519
    assert fgh_compare(f_2, 10**4600) is CompareResult.LESS
    assert fgh_compare(f_2, 4 * 10**4519) is CompareResult.GREATER_OR_EQUAL
