"""Budgeted evaluation of the fast-growing hierarchy.

f_0(n) = n + 1, f_{m+1}(n) is the n-fold iterate of f_m at n, and the
diagonal f_w(m) = f_m(m) grows at Ackermann rate.  Values explode far
past anything materializable, so evaluation carries a digit budget and a
step budget; a breached budget yields a certified lower bound (the last
computed intermediate, valid because every f_m dominates the identity
and is monotone).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .scalars import _decimal, ceil_inverse, ceil_rational

OMEGA = "omega"


class UndecidedComparison(AssertionError):
    """:func:`fgh_compare` used up its budgets without a certificate either
    way.  No command compares, so no exit code is mapped to it."""


@dataclass(frozen=True)
class EvalBudget:
    max_digits: int = 10**6
    max_steps: int = 10**4

    def __post_init__(self) -> None:
        if self.max_digits <= 0 or self.max_steps <= 0:
            raise ValueError("budget components must be positive")


@dataclass(frozen=True)
class Exact:
    value: int


@dataclass(frozen=True)
class ExceedsBudget:
    certified_lower_bound: int


@dataclass(frozen=True)
class HierarchyExpr:
    """Symbolic f_level(argument), with level a natural number or omega
    and argument a natural number: no expression nests."""

    level: int | str
    argument: int

    def __post_init__(self) -> None:
        if isinstance(self.level, str) and self.level != OMEGA:
            raise ValueError(f"level must be a natural number or {OMEGA!r}")
        if isinstance(self.level, int) and self.level < 0:
            raise ValueError("level must be nonnegative")
        if not isinstance(self.argument, int):
            raise ValueError("argument must be an int")
        if self.argument < 0:
            raise ValueError("argument must be nonnegative")

    def render(self) -> str:
        name = "f_w" if self.level == OMEGA else f"f_{self.level}"
        return f"{name}({_decimal(self.argument)})"


class _DigitGate:
    """Lazy test for 'x has more than max_digits decimal digits'.

    Bit-length filters decide almost every case without materializing
    10^max_digits; the exact power is built only inside the narrow
    ambiguous window (log2(10) lies between 3.321 and 3.322).
    """

    def __init__(self, max_digits: int) -> None:
        self._max_digits = max_digits
        self._low_bits = max_digits * 3321 // 1000
        self._high_bits = max_digits * 3322 // 1000 + 2
        self._threshold: int | None = None

    def exceeds(self, x: int) -> bool:
        bl = x.bit_length()
        if bl <= self._low_bits:
            return False
        if bl > self._high_bits:
            return True
        if self._threshold is None:
            self._threshold = 10**self._max_digits
        return x >= self._threshold


def fgh_eval(m: int, n: int, budget: EvalBudget | None = None) -> Exact | ExceedsBudget:
    """Evaluate f_m(n) by the defining iteration, under a budget.

    Levels 0 and 1 use their exact iterate collapses (n+1 and 2n), under
    the digit gate: a value past it is returned as its own lower bound,
    as a level-2 frame returns its first doubling past it.  From level 2
    on the iteration runs on an explicit frame stack, one budget step per
    function application.  A frame above level 2 spends a step on
    each child frame it starts.  A level-2 frame iterates f_1, doubling,
    so its k = min(left, steps remaining) next doublings are taken at once
    as acc << k and charged k steps: the same steps the one-at-a-time
    doubling spends.  The digit gate tests x >= 10^max_digits, which is
    monotone in x, so it fires on the run of doublings exactly when it
    fires on acc << k, and then at the least j with acc << j past it,
    found by bisection; that value is the breach the one-at-a-time loop
    returns.  A frame starts at its parent's accumulator and only doubles
    it or takes its child's value, so on breach the last computed value is
    the largest on the stack, and is returned as a lower bound; a finished
    frame hands up 0 or a doubling that already passed the digit gate.
    """
    if m < 0 or n < 0:
        raise ValueError("hierarchy arguments must be nonnegative")
    budget = budget or EvalBudget()
    gate = _DigitGate(budget.max_digits)
    steps = 0

    if m < 2:
        value = n + 1 if m == 0 else 2 * n
        return ExceedsBudget(value) if gate.exceeds(value) else Exact(value)

    # frame = [level, iterations_left, accumulator]: f_{level-1}^{left}(acc)
    frames: list[list[int]] = [[m, n, n]]
    while True:
        level, left, acc = frames[-1]
        if left == 0:
            frames.pop()
            if not frames:
                return Exact(acc)
            frames[-1][2] = acc
            frames[-1][1] -= 1
            continue
        if steps == budget.max_steps:
            return ExceedsBudget(acc)
        if level > 2:
            steps += 1
            frames.append([level - 1, acc, acc])
            continue
        k = min(left, budget.max_steps - steps)
        value = acc << k
        if gate.exceeds(value):
            doublings = range(1, k + 1)
            i = bisect_left(doublings, True, key=lambda j: gate.exceeds(acc << j))
            return ExceedsBudget(acc << doublings[i])
        steps += k
        frames[-1][1:] = [left - k, value]


def fgh_omega(n: int, budget: EvalBudget | None = None) -> Exact | ExceedsBudget:
    """f_w(n) = f_n(n)."""
    return fgh_eval(n, n, budget)


def eval_expr(
    expr: HierarchyExpr, budget: EvalBudget | None = None
) -> Exact | ExceedsBudget:
    """f_level(argument), evaluated under the budget."""
    if expr.level == OMEGA:
        return fgh_omega(expr.argument, budget)
    return fgh_eval(expr.level, expr.argument, budget)


def threshold_arg(B: Fraction) -> int:
    """ceil(2^29 * B^4) + 5, the hierarchy argument of the final bound."""
    B = Fraction(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    return ceil_rational(2**29 * B**4) + 5


def threshold_arg_with_eps(B: Fraction, eps: Fraction) -> int:
    """ceil(2^22 * B^4 * ceil(1/eps)^4) + 5, the accuracy-dependent variant."""
    B = Fraction(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    return ceil_rational(2**22 * B**4 * ceil_inverse(Fraction(eps)) ** 4) + 5


class CompareResult(Enum):
    LESS = "less"
    GREATER_OR_EQUAL = "greater_or_equal"


_COMPARE_STEPS = 10**6


def _certified_floor(level: int | str, arg_lb: int, N: int) -> bool:
    """True when monotonicity facts alone prove f_level(arg) >= N for any
    argument >= arg_lb (levels and arguments only ever help growth)."""
    if arg_lb < 1:
        return False
    if level == OMEGA:
        if arg_lb >= 2:
            return _certified_floor(arg_lb, arg_lb, N)
        return 2 * arg_lb >= N  # f_w(1) = f_1(1) = 2
    if level == 0:
        return arg_lb + 1 >= N
    if level == 1:
        return 2 * arg_lb >= N
    # level >= 2: f_level(a) >= f_2(a) = a * 2^a >= 2^a for a >= 1
    if arg_lb >= N.bit_length():
        return True
    return arg_lb * 2**arg_lb >= N


def fgh_compare(expr: HierarchyExpr, N: int) -> CompareResult:
    """Decide f_level(arg) < N or >= N without materializing huge values.

    Order: first argument 1, where every level gives 2, then the
    conservative monotonicity certificate (which can prove only >=), then
    budgeted partial evaluation whose digit budget is pinned just above N
    so a breach itself certifies >=.  Raises
    :class:`UndecidedComparison` when the step budget runs out below N.
    """
    if N < 0:
        raise ValueError("comparison target must be nonnegative")
    if expr.argument == 1:  # f_0(1) = 2, f_{m+1}(1) = f_m(1), f_w(1) = f_1(1)
        return CompareResult.LESS if 2 < N else CompareResult.GREATER_OR_EQUAL
    if _certified_floor(expr.level, expr.argument, N):
        return CompareResult.GREATER_OR_EQUAL
    digits = len(_decimal(N)) + 2
    result = eval_expr(expr, EvalBudget(max_digits=digits, max_steps=_COMPARE_STEPS))
    if isinstance(result, Exact) and result.value < N:
        return CompareResult.LESS
    if isinstance(result, Exact) or result.certified_lower_bound >= N:
        return CompareResult.GREATER_OR_EQUAL
    raise UndecidedComparison("comparison budgets exhausted without a certificate")


def format_value(x: int) -> str:
    """Decimal for small values, scientific rendering for large ones."""
    if x.bit_length() <= 20000:
        s = _decimal(x)
        if len(s) <= 40:
            return s
        return f"~{s[0]}.{s[1:4]}e+{len(s) - 1}"
    approx_digits = int((x.bit_length() - 1) * 0.30102999566398114)
    return f"~10^{approx_digits}"
