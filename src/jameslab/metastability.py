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

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from operator import add, sub

from .measure_space import (
    MeasureSpaceModel,
    _check_atoms,
    _check_subset_limit,
    # unused here, but bench/test_bench.py checks that the tracer wraps it
    # at this binding site
    integrate_over,  # noqa: F401
    l1_norm,
    product_matrix,
    small_set_breaches,
)
from .reporting import Report, ReportEntry
from .scalars import ceil_inverse, ceil_rational, check_exact_values, fmt_rational


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


def _check_values(values: tuple[int | Fraction, ...]) -> None:
    """A chased sequence is a nonempty tuple of ints or Fractions (see
    :func:`check_exact_values`), constant past its last value."""
    if not values:
        raise ValueError("sequence needs at least one tabulated value")
    check_exact_values(values)


@dataclass(frozen=True)
class StableInterval:
    """Window [m, end] on which the sequence stays within eps."""

    m: int
    end: int
    fluctuations_used: int


def count_fluctuations(
    values: tuple[int | Fraction, ...], eps: Fraction, index_range: tuple[int, int]
) -> int:
    """Greedy eps-jump count over [start, end] of the sequence that holds
    its last value past the tuple: re-anchor at each index whose value
    strays at least eps from the current anchor.  eps must be positive."""
    _check_values(values)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    start, end = index_range
    if start > end or start < 0:
        raise ValueError("empty or invalid index range")
    last = len(values) - 1
    # the repeats of the last value past the tuple never stray from it
    window = values[min(start, last) : min(end, last) + 1]
    anchor = window[0]
    count = 0
    for v in window[1:]:
        if abs(v - anchor) >= eps:
            count += 1
            anchor = v
    return count


def find_stable_interval(
    values: tuple[int | Fraction, ...],
    eps: int | Fraction,
    F: IndexFunction,
    n: int,
    budget: int,
) -> StableInterval:
    """Chase eps/2 deviations through windows until one window is stable.

    The sequence is ``values``, held at its last value past the tuple.
    Starting from m_0 = n, each step either finds the least index in
    [m_i, F.reach[m_i]] deviating from the anchor by at least eps/2 (and
    re-anchors there) or declares the window stable.  Each window takes
    one pass, from m_i + 1 on (the anchor cannot deviate from itself),
    that keeps the least and greatest value seen; a stable window is
    verified by hi - lo < eps, so any two values in it differ by less
    than eps.  An anchor at or past the last value starts a window on
    which the sequence is constant.  Raises :class:`BudgetExceeded` after
    `budget` re-anchorings.

    The deviation test is written 2*|s(j) - anchor| >= eps, which for
    rationals is the same statement as |s(j) - anchor| >= eps/2, so no
    half is ever formed.  An int eps is kept as an int (anything else is
    converted with ``Fraction()``): on an integer sequence with an integer
    accuracy both tests then run on ints, and scaling a rational sequence
    and eps by one positive common denominator leaves every comparison,
    and so every interval and every exception, as it was.
    """
    _check_values(values)
    if not isinstance(eps, int):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if n < 0:
        raise IndexError(n)
    reach = F.reach
    horizon = len(reach)
    tail = reach[-1] if reach else 0
    last = len(values) - 1
    m = n
    for used in range(budget + 1):
        top = reach[m] if m < horizon else max(tail, m)
        if m >= last:
            # s is constant from the anchor on
            return StableInterval(m, top, used)
        anchor = lo = hi = values[m]
        # s(j) for j in (m, top]; past the tuple s repeats s(last), which
        # the scan has already met.  Every value so far, lo and hi among
        # them, lies within eps/2 of the anchor, so only a new least or
        # greatest value can deviate.
        for j, v in enumerate(islice(values, m + 1, top + 1), m + 1):
            if v < lo:
                lo = v
                if 2 * (anchor - v) >= eps:
                    m = j
                    break
            elif v > hi:
                hi = v
                if 2 * (v - anchor) >= eps:
                    m = j
                    break
        else:
            if not hi - lo < eps:  # pragma: no cover - implied by the chase
                raise AssertionError("stable interval failed direct verification")
            return StableInterval(m, top, used)
    raise BudgetExceeded(budget, m)


def fluctuation_budget(B_hat: Fraction, eps: Fraction) -> int:
    """8 * B^2 * ceil(1/eps)^2, rounded up to an integer iteration count."""
    B_hat = Fraction(B_hat)
    if B_hat <= 0:
        raise ValueError("the stand-in bound must be positive")
    return ceil_rational(8 * B_hat**2 * ceil_inverse(Fraction(eps)) ** 2)


FLUCTUATION_MODES = ("fix_p", "fix_n")


def _product_lines(
    model: MeasureSpaceModel, eps: Fraction, mode: str
) -> tuple[int, list[list[tuple[int, ...]]]]:
    """The int accuracy and the atom lines that one mode reads.

    On atom i the scales of f_n and g_p cancel against
    mu({w_i}) = g*_i(d) d*(w_i) / d*(d), so with the model's prefix table
    (E, U) and the columns V of F * W (``basis.int_columns``), f_n g_p mu
    on atom i is d*(d) * U[i][n] * V[i][p] / (E * F).  lines[fixed][i] is
    atom i's line at the fixed index, V[i][p] * U[i] (mode "fix_p") or
    U[i][n] * (V[i], 0) (mode "fix_n"), and the product sequence of an atom
    subset sigma at that index is the sum of its atoms' lines times
    d*(d) / (E * F).  The accuracy is eps on that scale, rounded up:
    ceil(eps * E * F / d*(d)).
    """
    E, U = model.prefix_table
    F, V = model.basis.int_columns
    accuracy = ceil_rational(Fraction(eps) * E * F / model.d_star_d)
    scalars, vectors = (V, U) if mode == "fix_p" else (U, [(*v, 0) for v in V])
    lines = [
        [tuple(s[k] * x for x in vector) for s, vector in zip(scalars, vectors)]
        for k in range(len(U))
    ]
    return accuracy, lines


def _subset_sums(
    lines: list[tuple[int, ...]], width: int
) -> Iterator[tuple[int, ...]]:
    """The sum of every subset of ``lines`` (each of length ``width``),
    each subset once, the empty one first, in Gray-code order: each sum is
    the one before it plus or minus one line."""
    total = (0,) * width
    yield total
    member = [False] * len(lines)
    for k in range(1, 2 ** len(lines)):
        j = (k & -k).bit_length() - 1
        member[j] = not member[j]
        total = tuple(map(add if member[j] else sub, total, lines[j]))
        yield total


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
    tabulated to eventual constancy.  Each sigma's atoms are checked as
    ``integrate_over`` checks them, and each sequence is the sum of the
    sigma atoms' int lines from :func:`_product_lines`: the exact integrals
    times c = E * F / d*(d) > 0.  The finder runs at the int accuracy
    r = ceil(eps * c): the tests 2*|s - t| >= eps and hi - lo < eps on
    the exact integrals, multiplied through by c, compare an int with
    eps * c, which gives the same answer as comparing it with r.  So
    every interval and every failure is the one the exact integrals give,
    and no Fraction enters the chase.  ``integrate_over`` on the products
    of the fs and gs is the test oracle for these sums.

    The budget is the claimed fluctuation bound for B_hat; results are
    reported, never asserted, because B_hat stands in for an
    unconditionality bound that can only be certified from below.
    """
    if mode not in FLUCTUATION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    budget = fluctuation_budget(B_hat, eps)
    accuracy, lines = _product_lines(model, eps, mode)
    zero = (0,) * len(lines[0][0])
    runs = max_used = 0
    witness = None
    failures: dict[str, str] = {}
    for sigma in sigma_family:
        _check_atoms(sigma, model.K)
        for fixed, atom_lines in enumerate(lines):
            values = tuple(map(sum, zip(zero, *(atom_lines[i] for i in sigma))))
            runs += 1
            try:
                interval = find_stable_interval(values, accuracy, F, 0, budget)
            except BudgetExceeded as exc:
                failures[f"sigma_{sigma}_fixed_{fixed}"] = str(exc)
                continue
            if interval.fluctuations_used >= max_used:
                max_used = interval.fluctuations_used
                witness = (sigma, fixed, interval)
    witness_interval = ""
    if witness is not None:
        sigma, fixed, interval = witness
        witness_interval = (
            f"sigma={sigma} fixed={fixed} "
            f"[{interval.m}, {interval.end}] used={max_used}"
        )
    entry = ReportEntry(
        name=f"bounded_fluctuations_{mode}",
        passed=not failures,
        advisory=True,
        details={
            "runs": str(runs),
            "budget": str(budget),
            "max_fluctuations_used": str(max_used),
            "witness_interval": witness_interval,
            **failures,
        },
    )
    return Report((entry,))


def _uncovered_supports(
    lines: list[list[tuple[int, ...]]],
) -> list[list[tuple[int, ...]]]:
    """The nonzero atom lines of each fixed index, in atom order, for the
    fixed indices whose multiset of nonzero lines is contained in no other
    index's: when two multisets are equal, the first index is kept.

    The indices are taken by decreasing number of nonzero lines, ties in
    index order, so each index comes after every index that covers it,
    among them an uncovered one, which is kept: comparing each index with
    the kept ones alone finds whether it is covered.
    """
    supports = [[line for line in atom_lines if any(line)] for atom_lines in lines]
    counts = [Counter(support) for support in supports]
    kept: list[int] = []
    for k in sorted(range(len(supports)), key=lambda i: -len(supports[i])):
        if not any(counts[k] <= counts[j] for j in kept):
            kept.append(k)
    return [supports[k] for k in sorted(kept)]


def _chase_fails(
    values: tuple[int, ...], accuracy: int, F: IndexFunction, budget: int
) -> bool:
    """Whether the chase from 0 uses up ``budget`` re-anchorings."""
    try:
        find_stable_interval(values, accuracy, F, 0, budget)
    except BudgetExceeded:
        return True
    return False


def _check_report_arguments(K: int, B_hat: Fraction, eps: Fraction) -> None:
    """Raise what :func:`hypothesis_report` raises on its arguments, in its
    order, so that callers can check them before they build the model."""
    if B_hat <= 0:
        raise ValueError("the stand-in bound must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_subset_limit(K)


def hypothesis_report(
    model: MeasureSpaceModel, B_hat: Fraction, eps: Fraction
) -> Report:
    """Evaluate each hypothesis clause of the fluctuation theorem exactly.

    Clauses: L1 bounds on the embedded d_n and e*_p, small-set continuity
    for both families, and bounded fluctuations of the product sequences.
    The fluctuation clauses cover every atom subset (K > 16 is refused
    before the model is read) but only the chase from start 0, under the
    two index functions F0(n) = n+1 and F1(n) = 2n+1: not every start, nor
    every F, as the definition in the module docstring reads.  Both
    small-set clauses come from one walk of :func:`small_set_breaches`,
    which stops once each family has a breach.  The L1 norms are the only
    integrals.  The product sequences are sums of the
    int atom lines that :func:`_product_lines` reads off the model's prefix
    table and the basis's F * W, chased at its int accuracy as in
    :func:`fluctuation_harness`.
    A clause's verdict, per index function, is whether any sequence fails.
    Atoms whose line is all zero add nothing, so, with supp the atoms whose
    line is not, the sums over every atom subset and the sums over every
    subset of supp are the same set of sequences.  Only one mode's lines
    are held at a time.

    Covering lemma: the walk may skip every fixed index whose multiset of
    nonzero lines is contained in another index's, keeping the first of
    equal multisets, and no verdict changes.  Proof: write S_k for the
    multiset of index k's nonzero lines.  The sequences of k are the sums
    of the sub-multisets of S_k, since each subset of supp picks one and
    each is picked.  If S_k is contained in S_j, every sub-multiset of S_k
    is one of S_j, so every sequence of k is a sequence of j.  "S_k is
    contained in S_j, and is not equal to it or j < k" is transitive and
    irreflexive, a strict order on the finite set of fixed indices, so
    every index lies below one that nothing lies above: a kept index.  The
    kept indices therefore give every sequence of the mode, and a verdict
    that asks whether some sequence fails is the same over them.  The
    containment is of multisets: two equal lines give the sum 2 * line,
    which containment of the sets of lines would not see.  The test costs
    O(K^2) multiset comparisons per mode and stores no sequence.  On
    canonical bases the fix_n lines at n are the lines at K of the atoms
    up to n, so only n = K is walked: 2^(K+1) sequences in place of
    2^(K+2) - 2.

    F0's reach is nowhere wider than F1's, and a chase under a narrower
    reach fails only where the chase under the wider one fails.  So each
    mode walks its sequences chasing F1 until F1 fails on one; from that
    sequence on it chases F0 instead, and it stops once F0 fails too.
    Every sequence walked is chased once, and the one F1 first fails on
    once more, under F0; a mode that passes chases F1 alone.  The verdicts
    are those of chasing both index functions on every sequence.
    """
    B_hat, eps = Fraction(B_hat), Fraction(eps)
    K = model.K
    _check_report_arguments(K, B_hat, eps)
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

    names = [name for name, _ in families]
    breached: set[str] = set()
    for name, _, _ in small_set_breaches(model, names, B_hat, eps):
        breached.add(name)
        if len(breached) == len(names):
            break
    for name in names:
        entries.append(
            ReportEntry(f"small_set_continuity_{name}", name not in breached)
        )

    F0 = IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8)
    F1 = IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8)
    budget = fluctuation_budget(B_hat, eps)
    for mode in FLUCTUATION_MODES:
        accuracy, lines = _product_lines(model, eps, mode)
        width = len(lines[0][0])
        sequences = (
            values
            for support in _uncovered_supports(lines)
            for values in _subset_sums(support, width)
        )
        passed = [True, True]  # F0, F1
        for values in sequences:
            if passed[1] and _chase_fails(values, accuracy, F1, budget):
                passed[1] = False
            if not passed[1] and _chase_fails(values, accuracy, F0, budget):
                passed[0] = False
                break
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

    ``product_matrix`` is d*(d) * [p <= n], exact by the biorthogonality
    check the basis passed when it was built, so M[m][s] = 0 and
    M[l][q] = d*(d), and every candidate has the gap |M[0][1] - M[1][0]|:
    the lexicographically least one, (0, 1, 0, 1), is returned if that gap
    is below 20*eps, else None (always at K = 0).  At eps = 1/80 the gap is
    d*(d) >= 1/4 = 20*eps for every model: the finite-exact form of the
    contradiction.
    """
    eps = Fraction(eps)
    M = product_matrix(model).entries
    if model.K == 0:
        return None
    gap = abs(M[0][1] - M[1][0])
    if gap < 20 * eps:
        return FoundPair(m=0, s=1, q=0, l=1, gap=gap)
    return None
