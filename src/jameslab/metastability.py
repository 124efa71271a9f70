"""Metastable convergence and bounded-fluctuation machinery.

A sequence has bounded fluctuations with budget f(eps) when, starting
from any index and chasing deviations of eps/2 through windows [m, F(m)],
a stable window appears within f(eps) re-anchorings.  The finder here
implements exactly that iteration and re-verifies every interval it
returns by direct scan.  The harnesses run it against the product
sequences of a measure-space model, and the conclusion search probes the
one exact consequence the product matrix rules out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .measure_space import (
    MeasureSpaceModel,
    atom_subsets,
    # unused here, but bench/test_bench.py checks that the tracer wraps it
    # at this binding site
    integrate_over,  # noqa: F401
    l1_norm,
    product_matrix,
    small_set_breaches,
    subset_table,
)
from .reporting import Report, ReportEntry
from .scalars import ceil_inverse, ceil_rational, fmt_rational


class BudgetExceeded(Exception):
    """The deviation chase used up the claimed fluctuation budget."""

    def __init__(self, iterations: int, last_anchor: int) -> None:
        super().__init__(f"no stable interval within {iterations} iterations")
        self.iterations = iterations
        self.last_anchor = last_anchor


@dataclass(frozen=True)
class IndexFunction:
    """Total index map: the table up to its horizon, the identity past it."""

    table: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if any(v < 0 for v in self.table):
            raise ValueError("index functions map into nonnegative indices")

    def __call__(self, n: int) -> int:
        if n < 0:
            raise IndexError(n)
        if n < len(self.table):
            return self.table[n]
        return n

    @classmethod
    def from_callable(cls, fn, horizon: int) -> IndexFunction:
        return cls(tuple(int(fn(n)) for n in range(horizon + 1)))

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """reach[m] = max(F(0), ..., F(m), m) over the table, computed once
        per index function: the end of the chase's window at m, which
        takes F nondecreasing and at least the identity without loss.
        Past the table it is max(reach[-1], m)."""
        return tuple(accumulate(map(max, self.table, range(len(self.table))), max))


@dataclass(frozen=True)
class SequenceOracle:
    """Total rational sequence, constant beyond its tabulated horizon.

    Values that are already ``int`` or ``Fraction`` are kept as given;
    anything else is converted with ``Fraction()``.  Values of exactly
    those two types, as the fluctuation loop passes, skip the per-value
    check.
    """

    values: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not set(map(type, values)) <= {int, Fraction}:
            values = tuple(
                v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values
            )
        object.__setattr__(self, "values", values)
        if not self.values:
            raise ValueError("sequence needs at least one tabulated value")

    def __call__(self, n: int) -> int | Fraction:
        if n < 0:
            raise IndexError(n)
        return self.values[min(n, len(self.values) - 1)]


@dataclass(frozen=True)
class StableInterval:
    """Window [m, end] on which the sequence stays within eps."""

    m: int
    end: int
    fluctuations_used: int


def count_fluctuations(
    seq: SequenceOracle, eps: Fraction, index_range: tuple[int, int]
) -> int:
    """Greedy eps-jump count over [start, end]: re-anchor at each index
    whose value strays at least eps from the current anchor."""
    eps = Fraction(eps)
    start, end = index_range
    if start > end or start < 0:
        raise ValueError("empty or invalid index range")
    anchor = seq(start)
    count = 0
    for j in range(start + 1, end + 1):
        v = seq(j)
        if abs(v - anchor) >= eps:
            count += 1
            anchor = v
    return count


def find_stable_interval(
    seq: SequenceOracle,
    eps: int | Fraction,
    F: IndexFunction,
    n: int,
    budget: int,
) -> StableInterval:
    """Chase eps/2 deviations through windows until one window is stable.

    Starting from m_0 = n, each step either finds the least index in
    [m_i, F.reach[m_i]] deviating from the anchor by at least eps/2 (and
    re-anchors there) or declares the window stable.  A returned interval
    is re-verified by direct scan: any two values in it differ by less
    than eps.  Raises :class:`BudgetExceeded` after `budget` re-anchorings.

    The deviation test is written 2*|s(j) - anchor| >= eps, which for
    rationals is the same statement as |s(j) - anchor| >= eps/2, so no
    half is ever formed.  An int eps is kept as an int (anything else is
    converted with ``Fraction()``): on an integer sequence with an integer
    accuracy both tests then run on ints, and scaling a rational sequence
    and eps by one positive common denominator leaves every comparison,
    and so every interval and every exception, as it was.
    """
    if not isinstance(eps, int):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if n < 0:
        raise IndexError(n)
    reach = F.reach
    tail = reach[-1] if reach else 0
    values = seq.values
    last = len(values) - 1
    m = n
    for used in range(budget + 1):
        top = reach[m] if m < len(reach) else max(tail, m)
        # s(j) for j in [m, top]; past the horizon s repeats s(last), which
        # the window already holds whenever it reaches that far
        window = values[min(m, last) : min(top, last) + 1]
        anchor = window[0]
        deviation = None
        for k, v in enumerate(window):
            if 2 * abs(v - anchor) >= eps:
                deviation = m + k
                break
        if deviation is None:
            lo, hi = min(window), max(window)
            if not hi - lo < eps:  # pragma: no cover - implied by the chase
                raise AssertionError("stable interval failed direct verification")
            return StableInterval(m=m, end=top, fluctuations_used=used)
        m = deviation
    raise BudgetExceeded(budget, m)


def fluctuation_budget(B_hat: Fraction, eps: Fraction) -> int:
    """8 * B^2 * ceil(1/eps)^2, rounded up to an integer iteration count."""
    B_hat = Fraction(B_hat)
    if B_hat <= 0:
        raise ValueError("the stand-in bound must be positive")
    return ceil_rational(8 * B_hat**2 * ceil_inverse(Fraction(eps)) ** 2)


FLUCTUATION_MODES = ("fix_p", "fix_n")


@dataclass
class _FluctuationTally:
    """What one (mode, index function) run over a sigma family found;
    ``witness`` is (sigma, fixed index, interval) of the last run that
    used ``max_used`` re-anchorings."""

    runs: int = 0
    max_used: int = 0
    witness: tuple[tuple[int, ...], int, StableInterval] | None = None
    failures: dict[str, str] = field(default_factory=dict)


def _fluctuation_tallies(
    model: MeasureSpaceModel,
    budget: int,
    eps: Fraction,
    index_functions: tuple[IndexFunction, ...],
    modes: tuple[str, ...],
    sigma_family: list[tuple[int, ...]],
) -> dict[tuple[str, int], _FluctuationTally]:
    """Run the finder for every mode and index function in one pass over
    sigma_family, keyed by (mode, position in index_functions).

    Each sigma's table is summed once, and each of its sequences is built
    once per mode and chased under every index function.  The atom tables
    are scaled by the denominator of eps * D once, so the table entries
    and the accuracy are both ints.
    """
    D, A = model.atom_products
    accuracy = Fraction(eps) * D
    scale = accuracy.denominator
    if scale != 1:
        A = tuple(tuple(tuple(scale * v for v in row) for row in atom) for atom in A)
    accuracy = accuracy.numerator
    tallies = {
        (mode, fi): _FluctuationTally()
        for mode in modes
        for fi in range(len(index_functions))
    }
    for sigma in sigma_family:
        table = subset_table(A, sigma)
        for mode in modes:
            if mode == "fix_p":
                sequences = zip(*table)
            else:
                sequences = ((*row, 0) for row in table)
            for fixed, values in enumerate(sequences):
                seq = SequenceOracle(values)
                for fi, F in enumerate(index_functions):
                    tally = tallies[mode, fi]
                    tally.runs += 1
                    try:
                        interval = find_stable_interval(seq, accuracy, F, 0, budget)
                    except BudgetExceeded as exc:
                        tally.failures[f"sigma_{sigma}_fixed_{fixed}"] = str(exc)
                        continue
                    if interval.fluctuations_used >= tally.max_used:
                        tally.max_used = interval.fluctuations_used
                        tally.witness = (sigma, fixed, interval)
    return tallies


def fluctuation_harness(
    model: MeasureSpaceModel,
    B_hat: Fraction,
    eps: Fraction,
    F: IndexFunction,
    mode: str,
    sigma_family: list[tuple[int, ...]],
) -> Report:
    """Run the stable-interval finder on every (sigma, fixed index) pair.

    The sequences are n -> integral over sigma of f_n g_p for each fixed p
    (mode "fix_p") and p -> the same integral for each fixed n, followed
    by the 0 that e*_p gives beyond the top index (mode "fix_n").  In the
    K-dimensional shadow d_n is constant from n = K on, so both are
    tabulated to eventual constancy.  They are read off the integer table
    D * S_sigma summed from the model's ``atom_products``, one sigma at a
    time.  With eps * D = a/b in lowest terms, the table is scaled by b
    and the finder runs at the int accuracy a: its tests
    2*|x - y| >= a and hi - lo < a are the tests 2*|s - t| >= eps and
    hi - lo < eps on the exact integrals, multiplied through by b * D > 0,
    so every interval and every failure is the one the exact integrals
    give, and no Fraction enters the chase.  ``integrate_over`` on
    step-function products is the test oracle for these tables.

    The budget is the claimed fluctuation bound for B_hat; results are
    reported, never asserted, because B_hat stands in for an
    unconditionality bound that can only be certified from below.
    """
    if mode not in FLUCTUATION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    budget = fluctuation_budget(B_hat, eps)
    tally = _fluctuation_tallies(model, budget, eps, (F,), (mode,), sigma_family)[
        mode, 0
    ]
    witness_interval = ""
    if tally.witness is not None:
        sigma, fixed, interval = tally.witness
        witness_interval = (
            f"sigma={sigma} fixed={fixed} "
            f"[{interval.m}, {interval.end}] used={interval.fluctuations_used}"
        )
    entry = ReportEntry(
        name=f"bounded_fluctuations_{mode}",
        passed=not tally.failures,
        advisory=True,
        details={
            "runs": str(tally.runs),
            "budget": str(budget),
            "max_fluctuations_used": str(tally.max_used),
            "witness_interval": witness_interval,
            **tally.failures,
        },
    )
    return Report((entry,))


def hypothesis_report(
    model: MeasureSpaceModel, B_hat: Fraction, eps: Fraction
) -> Report:
    """Evaluate each hypothesis clause of the fluctuation theorem exactly.

    Clauses: L1 bounds on the embedded d_n and e*_p, small-set continuity
    for both families, and bounded fluctuations of the product sequences.
    The fluctuation clauses cover every atom subset (``atom_subsets``
    refuses K > 16) but only the chase from start 0, under the two index
    functions F(n) = n+1 and F(n) = 2n+1: not every start, nor every F,
    as the definition in the module docstring reads.  The L1 norms are
    the only integrals.  The product sequences come from the model's
    integer per-atom tables (see :func:`fluctuation_harness`), in one
    pass over the atom subsets for both modes and both index functions.
    """
    B_hat = Fraction(B_hat)
    eps = Fraction(eps)
    if B_hat <= 0:
        raise ValueError("the stand-in bound must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    K = model.K
    entries: list[ReportEntry] = []

    families = (("f", model.fs), ("g", model.gs))
    for name, hs in families:
        norms = [l1_norm(model, h) for h in hs]
        entries.append(
            ReportEntry(
                f"l1_bound_{name}",
                all(v <= B_hat for v in norms),
                details={f"{name}_{n}": fmt_rational(v) for n, v in enumerate(norms)},
            )
        )

    sigmas = atom_subsets(K)

    for name, hs in families:
        breach = next(small_set_breaches(model, hs, B_hat, eps, sigmas), None)
        entries.append(ReportEntry(f"small_set_continuity_{name}", breach is None))

    index_functions = (
        IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
        IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
    )
    tallies = _fluctuation_tallies(
        model,
        fluctuation_budget(B_hat, eps),
        eps,
        index_functions,
        FLUCTUATION_MODES,
        sigmas,
    )
    for mode in FLUCTUATION_MODES:
        passed = [not tallies[mode, fi].failures for fi in range(len(index_functions))]
        entries.append(
            ReportEntry(
                f"bounded_fluctuations_{mode}",
                all(passed),
                details={
                    f"index_function_{fi}": "pass" if ok else "fail"
                    for fi, ok in enumerate(passed)
                },
            )
        )
    return Report(tuple(entries))


@dataclass(frozen=True)
class FoundPair:
    m: int
    s: int
    q: int
    l: int
    gap: Fraction


def conclusion_search(model: MeasureSpaceModel, eps: Fraction) -> FoundPair | None:
    """Search for m < s and q < l with |M[m][s] - M[l][q]| < 20*eps.

    ``product_matrix`` checks M[m][s] = 0 and M[l][q] = d*(d), so every
    candidate has the gap |M[0][1] - M[1][0]|: the lexicographically least
    one, (0, 1, 0, 1), is returned if that gap is below 20*eps, else None
    (always at K = 0).  At eps = 1/80 the gap is d*(d) >= 1/4 = 20*eps for
    every model: the finite-exact form of the contradiction.
    """
    eps = Fraction(eps)
    M = product_matrix(model).entries
    if model.K == 0:
        return None
    gap = abs(M[0][1] - M[1][0])
    if gap < 20 * eps:
        return FoundPair(m=0, s=1, q=0, l=1, gap=gap)
    return None
