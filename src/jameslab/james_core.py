"""Exact James-norm computation on finite coefficient sequences.

The squared norm of a finite sequence is the maximum, over strictly
increasing index cycles, of half the sum of squared consecutive
differences (with wrap-around).  One trailing zero coordinate beyond the
top index models the ambient space: consecutive zeros never add to a
cycle sum, so a single virtual zero captures the full supremum.

Alongside the norm live the dual objects: functionals with coefficients
in Q(sqrt(2)), a constructive sampler of the dual unit ball, and the two
chain-stability checks whose failures are converted into exact norm
certificates.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, pairwise
from math import gcd
from operator import mul

from .scalars import (
    Root2Scalar,
    ceil_inverse,
    ceil_sqrt_rational,
    fmt_rational,
    integer_rows,
    json_int,
    json_list,
    json_rational,
    root2_sign,
)

ORACLE_MAX_DIMENSION = 14


class DimensionMismatch(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


class ChainError(ValueError):
    pass


class WitnessPreconditionError(ValueError):
    pass


class WitnessUnsound(AssertionError):
    """The constructed violation witness failed its own exact check."""


@dataclass(frozen=True)
class JVector:
    """Element of J_K: rational coefficients over the coordinate vectors
    e_0..e_K.  Coordinates beyond K are zero in the ambient space."""

    K: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # a Fraction is immutable, so one is kept as given, not copied
        object.__setattr__(
            self,
            "coeffs",
            tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs),
        )
        if self.K < 0:
            raise ValueError("dimension index must be nonnegative")
        if len(self.coeffs) != self.K + 1:
            raise DimensionMismatch(
                f"expected {self.K + 1} coefficients, got {len(self.coeffs)}"
            )

    def coord(self, i: int) -> Fraction:
        """Coordinate at index i, reading 0 beyond the top index."""
        if i < 0:
            raise IndexError(i)
        return self.coeffs[i] if i <= self.K else Fraction(0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: JVector) -> JVector:
        if self.K != other.K:
            raise DimensionMismatch((self.K, other.K))
        return JVector(self.K, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: JVector) -> JVector:
        if self.K != other.K:
            raise DimensionMismatch((self.K, other.K))
        return JVector(self.K, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> JVector:
        return JVector(self.K, tuple(-c for c in self.coeffs))

    def scale(self, c: Fraction | int) -> JVector:
        c = Fraction(c)
        return JVector(self.K, tuple(c * v for v in self.coeffs))

    @classmethod
    def zero(cls, K: int) -> JVector:
        return cls(K, (Fraction(0),) * (K + 1))

    def to_json_obj(self) -> dict:
        return {"K": self.K, "coeffs": [fmt_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> JVector:
        K, coeffs = json_int(obj, "K"), json_list(obj["coeffs"], "coeffs")
        return cls(K, tuple(map(json_rational, coeffs)))


@dataclass(frozen=True)
class Cycle:
    """Strictly increasing index cycle.  When evaluated against a vector of
    dimension index K, the value K+1 denotes the single virtual zero
    coordinate and must come last."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) < 1:
            raise ValueError("a cycle needs at least one index")
        if any(i < 0 for i in self.indices):
            raise ValueError("cycle indices must be nonnegative")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("cycle indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class NormCertificate:
    """A cycle achieving the squared norm, plus the value it achieves."""

    cycle: Cycle
    value_sq: Fraction


@dataclass(frozen=True)
class DualFunctional:
    """Linear functional on J_K with coefficients over e*_0..e*_K in Q(sqrt(2))."""

    K: int
    coeffs: tuple[Root2Scalar, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(
            c if isinstance(c, Root2Scalar) else Root2Scalar(c) for c in self.coeffs
        )
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.K + 1:
            raise DimensionMismatch(
                f"expected {self.K + 1} coefficients, got {len(coeffs)}"
            )

    @classmethod
    def zero(cls, K: int) -> DualFunctional:
        return cls(K, (Root2Scalar.zero(),) * (K + 1))

    @classmethod
    def from_rationals(cls, K: int, coeffs: tuple[Fraction, ...]) -> DualFunctional:
        return cls(K, tuple(Root2Scalar(c) for c in coeffs))

    def is_zero(self) -> bool:
        return all(c == Root2Scalar.zero() for c in self.coeffs)

    @property
    def has_rational_coeffs(self) -> bool:
        return all(c.is_rational for c in self.coeffs)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c.rational() for c in self.coeffs)

    def __add__(self, other: DualFunctional) -> DualFunctional:
        if self.K != other.K:
            raise DimensionMismatch((self.K, other.K))
        return DualFunctional(
            self.K, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c: Fraction | Root2Scalar) -> DualFunctional:
        return DualFunctional(self.K, tuple(v * c for v in self.coeffs))

    def to_json_obj(self) -> dict:
        return {"K": self.K, "coeffs": [c.to_pair() for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> DualFunctional:
        K, coeffs = json_int(obj, "K"), json_list(obj["coeffs"], "coeffs")
        return cls(K, tuple(map(Root2Scalar.from_pair, coeffs)))


def canonical(kind: str, i: int, K: int) -> JVector | DualFunctional:
    """Canonical objects: e_i (unit coordinate), d_i (ones through i), e*_i."""
    if not 0 <= i <= K:
        raise IndexError(f"index {i} out of range for dimension index {K}")
    if kind == "e":
        return JVector(K, tuple(Fraction(1 if j == i else 0) for j in range(K + 1)))
    if kind == "d":
        return JVector(K, tuple(Fraction(1 if j <= i else 0) for j in range(K + 1)))
    if kind == "e_star":
        return DualFunctional(
            K, tuple(Root2Scalar(1 if j == i else 0) for j in range(K + 1))
        )
    raise ValueError(f"unknown kind {kind!r}")


def eval_functional(y: DualFunctional, x: JVector) -> Root2Scalar:
    """Exact dot product in Q(sqrt(2)): y's rational and sqrt(2) parts over
    one denominator and x over its own (:func:`integer_rows`), one integer
    dot product per part, and one Fraction each."""
    if y.K != x.K:
        raise DimensionMismatch((y.K, x.K))
    S, (ya, yb) = integer_rows(
        [[c.a for c in y.coeffs], [c.b for c in y.coeffs]]
    )
    T, (xs,) = integer_rows([x.coeffs])
    den = S * T
    return Root2Scalar(
        Fraction(sum(map(mul, ya, xs)), den), Fraction(sum(map(mul, yb, xs)), den)
    )


def _validate_cycle_for(x: JVector, c: Cycle) -> None:
    if c.indices[-1] > x.K + 1:
        raise IndexError(
            f"cycle index {c.indices[-1]} exceeds virtual index {x.K + 1}"
        )


def cycle_value(x: JVector, c: Cycle) -> Fraction:
    """Half the cycle's sum of squared consecutive differences, wrap included."""
    _validate_cycle_for(x, c)
    if len(c) == 1:
        return Fraction(0)
    coords = [x.coord(i) for i in c.indices]
    total = Fraction(0)
    prev = coords[-1]
    for v in coords:
        d = prev - v
        total += d * d
        prev = v
    return total / 2


def _scaled_int_coords(x: JVector) -> tuple[list[int], int]:
    """Integer numerators over a common denominator, virtual zero appended."""
    den, (nums,) = integer_rows([x.coeffs])
    nums.append(0)
    return nums, den


def _longest_cycle_table(
    vals: list, stop_at: int | None = None
) -> tuple[int | float, int, list]:
    """Longest-path dynamic program over the index DAG of ``vals`` (ints or
    floats, virtual zero already appended).

    For each start a the table g[i] holds the best completion value (sum of
    squared differences, wrap term back to a included) of any increasing
    cycle from a that has reached i.  Returns the best g[a], the first start
    a that reaches it, and that start's table.

    ``stop_at``, when given, is that best value, known beforehand (exactly,
    so on ints: :func:`cycle_sum_max`).  The starts run in index order and
    the scan stops at the first whose g[a] equals it, which is the start
    and the table the full scan returns.  Without it every start runs.

    Only the first start with each value is run.  If a < b and v_a = v_b,
    the tables of a and b agree from b on, so g_a[a] >= g_a[b] = g_b[b]:
    start b cannot strictly beat the best found by then, and it would not
    be the first start reaching the maximum.  That holds in floats too, as
    the two tables are the same float computations.

    g[i] = max(d0^2, max over j > i of (v_i - v_j)^2 + g[j]), d0 = v_i - v_a,
    and the inner maximum runs once per distinct later value w, not once
    per later index as in :func:`cycle_sum_max`: every j with v_j = w has
    the same square (v_i - w)^2, and adding it is monotone, so the best
    such j is one with the largest g[j], and that is the least one, since
    for j < j' with equal values g[j] >= 0 + g[j'].  Float addition is
    monotone and adds 0 exactly, so the table is that of the index
    relaxation bit for bit: signed zeros compare and hash as one value,
    and their differences square to the same +0.0; with inf and NaN too,
    as a NaN candidate never wins a ``>`` and a NaN d0*d0 is never beaten.
    O(U^2 * len(vals)) for U distinct values, against
    O(U * len(vals)^2) by index.
    """
    T = len(vals)
    best, best_a, best_g = 0, 0, []
    seen = set()
    for a in range(T):
        base = vals[a]
        if base in seen:
            continue
        seen.add(base)
        g = [0] * T
        later = {}  # value -> g[j] at the least j > i holding it
        for i in range(T - 1, a - 1, -1):
            vi = vals[i]
            d0 = vi - base
            bi = d0 * d0
            for w, gw in later.items():
                d = vi - w
                v = d * d + gw
                if v > bi:
                    bi = v
            g[i] = bi
            later[vi] = bi
        if g[a] > best:
            best, best_a, best_g = g[a], a, g
            if best == stop_at:
                break
    return best, best_a, best_g


def _turning_points(vals: list) -> list:
    """The values of ``vals`` (virtual zero appended) the norm DP needs.

    A value equal to the previous kept one is dropped, and so is a value
    strictly inside a monotone run; the first value stays, and the last
    kept value is the virtual zero's.  The result is a subsequence of
    ``vals``, so no cycle on it beats the full DP.  Between two
    consecutive kept indices k < k' the values are monotone, so every
    dropped p in between has v_p between v_k and v_k'; past the last kept
    index every value equals the kept one.

    No cycle is lost.  Take a cycle p_1 < ... < p_m through a dropped p =
    p_s, and let a and b be the values of its cyclic neighbours (a = b
    when m = 2, and for p_1 or p_m one of them comes over the wrap edge).
    The two edges at p contribute f(x) = (a - x)^2 + (x - b)^2 at x = v_p,
    and f is convex.  On the left, if the linear predecessor p_{s-1} lies
    before k (or p is p_1), p can move to k, which gives f(v_k); if it
    lies in [k, p), it is the cyclic predecessor and dropping p gives the
    edge (a, b), worth f(a).  The right side gives f(v_k') or f(b) the
    same way (past the last kept index, the left side alone suffices, as
    v_p = v_k).  Both candidate values bracket v_p, by monotonicity on
    [k, k'], so one of the two moves keeps the sum at least f(v_p).  Each
    move leaves one dropped index fewer in the cycle, equal neighbours and
    plateaus included, so induction ends on a cycle of kept indices worth
    at least the first.

    The first loop runs up to the second kept value; from there on, prev
    and last hold the last two kept values.
    """
    it = iter(vals)
    last = next(it)
    out = [last]
    for v in it:
        if v != last:
            out.append(v)
            prev, last = last, v
            break
    else:
        return out
    for v in it:
        if v == last:
            continue
        if (prev < last) == (last < v):
            out[-1] = v
        else:
            out.append(v)
            prev = last
        last = v
    return out


def cycle_sum_max(vals: list) -> int | float:
    """Twice the squared norm of ``vals`` (ints, Fractions or floats,
    virtual zero appended), for callers that need no certificate: the
    norm DP on :func:`_turning_points` of the values, from one start.

    The value is a maximum over the cycles of a cyclic sequence, the
    turning points with the virtual zero last, and a cycle's sum does not
    change when all positions are rotated.  Insert a position m holding a
    largest value M into a cycle, between its cyclic neighbours x and y
    (x = y in a one-point cycle): the sum changes by
    (M - x)^2 + (M - y)^2 - (x - y)^2 = 2(M - x)(M - y) >= 0.  So some
    optimal cycle passes through m, and the DP runs only start 0 of the
    points rotated to begin at m: O(T^2) for T points, in place of one
    O(T^2) start per distinct value.  On ints and Fractions the value is
    exact.

    In floats each step fl(d*d + g[j]) is monotone in g[j], so the DP
    gives the largest float sum of the cycles from its start.  A cycle of
    n <= T points sums n squared differences, each rounded at most three
    times, in n - 1 additions of nonnegative terms; while no difference,
    square or sum leaves the normal range, its float sum is within
    relative gamma = (T + 2)u / (1 - (T + 2)u), u = 2^-53, of its exact
    sum (of the exact differences of the given floats).  A start set
    that meets an optimal cycle therefore gives a value within gamma of
    the exact maximum: this one start does, as does one start per
    distinct value, so the two differ by at most 2 * gamma of it.

    The lemma needs the order of the reals, so with an inf or NaN among
    the points (inf - inf is NaN) the value is :func:`_longest_cycle_table`'s
    on them.  One ``sum`` of the points is inf or NaN whenever a point is;
    a finite sum that overflows sends finite points there too, which
    costs time but keeps the bound above.

    Each g[i] is relaxed over every later index: on turning points the
    values are nearly all distinct, and there this loop is faster than the
    value relaxation of :func:`_longest_cycle_table`.  The later entries
    are a list of (v_j, g[j]) pairs, so the relaxation reads no index.
    A maximum of 0 is returned as the int 0 on every input.

    Swapping an exact 0.0 for -0.0 does not change the result: the
    turning points and the rotation compare values with == and <, and a
    difference with either zero squares to the same float.
    """
    points = _turning_points(vals)
    total = sum(points)
    if total - total != 0:  # an inf or NaN
        return _longest_cycle_table(points)[0]
    m = points.index(max(points))
    base = points[m]
    later = []  # (v_j, g[j]) for j > i, from j = T - 1 down
    for vi in reversed(points[m:] + points[:m]):
        d0 = vi - base
        bi = d0 * d0
        for w, gw in later:
            d = vi - w
            v = d * d + gw
            if v > bi:
                bi = v
        later.append((vi, bi))
    return bi if bi > 0 else 0


def _norm_sq_value(x: JVector) -> Fraction:
    """Exact squared James norm, value only (:func:`cycle_sum_max`)."""
    nums, den = _scaled_int_coords(x)
    return Fraction(cycle_sum_max(nums), 2 * den * den)


def james_norm_sq(x: JVector) -> tuple[Fraction, NormCertificate]:
    """Exact squared James norm with an optimal-cycle certificate.

    On integer numerators over a common denominator, takes the maximum
    from :func:`cycle_sum_max`, runs :func:`_longest_cycle_table` up to the
    first start that reaches it, then walks that start's table forward.
    Ties between optimal cycles are broken toward the lexicographically
    least index tuple.  O(K^2) for the maximum and the walk, plus O(U K)
    integer arithmetic for each start run, with U <= K + 2 distinct values:
    O(U^2 K) when the first optimal start comes last.

    The table is built on every index, not on :func:`_turning_points`:
    the walk takes the least next index j whose table entry g[j] completes
    an optimal cycle, so it needs g at indices the turning points drop.
    For d_3 at K = 3 the lex-least optimal cycle is (0, 1, 2, 3, 4), and
    the turning points drop indices 1-3.
    """
    nums, den = _scaled_int_coords(x)
    best_val = cycle_sum_max(nums)
    if best_val == 0:
        zero = Fraction(0)
        return zero, NormCertificate(Cycle((0,)), zero)
    _, a, g = _longest_cycle_table(nums, best_val)
    T = len(nums)
    base = nums[a]
    path = [a]
    s = 0
    i = a
    while True:
        d0 = nums[i] - base
        if s + d0 * d0 == best_val:
            break
        for j in range(i + 1, T):
            d = nums[i] - nums[j]
            if s + d * d + g[j] == best_val:
                path.append(j)
                s += d * d
                i = j
                break
        else:  # pragma: no cover - the table guarantees a continuation
            raise AssertionError("certificate reconstruction failed")
    value_sq = Fraction(best_val, 2 * den * den)
    return value_sq, NormCertificate(Cycle(tuple(path)), value_sq)


def james_norm_sq_float(coords: list[float]) -> float:
    """Float analogue of the norm DP, for search heuristics only.

    Runs :func:`cycle_sum_max` on the turning points of the coordinates
    and the virtual zero: one start, from a largest point, since some
    optimal cycle passes through it.  While the differences, squares and
    sums stay in the normal range, the value is within relative
    (T + 2)u / (1 - (T + 2)u), u = 2^-53, of the exact squared norm of the
    given floats, for T turning points.  With an inf or NaN coordinate
    that lemma fails, and the DP runs one start per distinct value.
    """
    return cycle_sum_max([*coords, 0.0]) / 2.0


def james_norm_sq_oracle(x: JVector) -> Fraction:
    """Brute force over every increasing cycle, including the virtual index.

    Independent of the dynamic program; guarded against exponential blowup.
    """
    if x.K > ORACLE_MAX_DIMENSION:
        raise DimensionTooLarge(
            f"oracle limited to K <= {ORACLE_MAX_DIMENSION}, got {x.K}"
        )
    nums, den = _scaled_int_coords(x)
    T = len(nums)
    best = 0
    for m in range(2, T + 1):
        for combo in combinations(range(T), m):
            prev = nums[combo[-1]]
            s = 0
            for t in combo:
                v = nums[t]
                d = prev - v
                s += d * d
                prev = v
            if s > best:
                best = s
    return Fraction(best, 2 * den * den)


def james_norm_sq_upper_bound(x: JVector) -> Fraction:
    """Cheap certified bound: every cycle touches each coordinate at most
    twice, so the cycle sum is at most 4 * sum of squares."""
    return 2 * sum((c * c for c in x.coeffs), Fraction(0))


# ---------------------------------------------------------------------------
# Dual unit ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertTerm:
    weight: Fraction
    cycle: Cycle
    unit_coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", Fraction(self.weight))
        object.__setattr__(
            self, "unit_coeffs", tuple(Fraction(u) for u in self.unit_coeffs)
        )
        if self.weight < 0:
            raise ValueError("certificate weights must be nonnegative")
        if len(self.unit_coeffs) != len(self.cycle):
            raise ValueError("one unit coefficient per cycle index required")
        if sum(u * u for u in self.unit_coeffs) > 1:
            raise ValueError("unit coefficients must have squared sum <= 1")


@dataclass(frozen=True)
class DualBallCertificate:
    """Witness that a functional lies in the dual unit ball.

    Encodes y(x) = sum over terms of weight * (1/sqrt(2)) *
    sum_i u_i (x_{p_i} - x_{p_{i+1 mod m}}).  Since the norm of x is the
    supremum over cycles of the Euclidean length of the difference vector
    divided by sqrt(2), any sub-convex combination of unit-ball pullbacks
    has dual norm at most 1.
    """

    terms: tuple[CertTerm, ...]

    def __post_init__(self) -> None:
        if sum((t.weight for t in self.terms), Fraction(0)) > 1:
            raise ValueError("certificate weights must sum to at most 1")

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {
                    "weight": fmt_rational(t.weight),
                    "cycle": list(t.cycle.indices),
                    "unit_coeffs": [fmt_rational(u) for u in t.unit_coeffs],
                }
                for t in self.terms
            ]
        }


def functional_from_certificate(cert: DualBallCertificate, K: int) -> DualFunctional:
    """Expand a dual-ball certificate into explicit e*-coordinates.

    Each cycle edge (p, q) contributes weight*u/2 * sqrt(2) at p and the
    negative at q; indices beyond K read the zero coordinate and drop out.
    """
    b_parts = [Fraction(0)] * (K + 1)
    for term in cert.terms:
        idx = term.cycle.indices
        m = len(idx)
        for i in range(m):
            p = idx[i]
            q = idx[(i + 1) % m]
            contrib = term.weight * term.unit_coeffs[i] / 2
            if p <= K:
                b_parts[p] += contrib
            if q <= K:
                b_parts[q] -= contrib
    return DualFunctional(K, tuple(Root2Scalar(0, b) for b in b_parts))


def _pick_distinct(rng: random.Random, n: int, m: int) -> list[int]:
    chosen: set[int] = set()
    while len(chosen) < m:
        chosen.add(rng.randrange(n))
    return sorted(chosen)


def dual_ball_sample(
    seed: int, K: int, num_terms: int
) -> tuple[DualFunctional, DualBallCertificate]:
    """Deterministic sample from the dual unit ball, with its certificate.

    Weights are normalized so their sum is at most 1 and each term's unit
    coefficients are scaled by an integer so the squared sum stays below 1;
    both normalizations are exact.
    """
    if num_terms < 0:
        raise ValueError("num_terms must be nonnegative")
    rng = random.Random(seed)
    terms: list[CertTerm] = []
    if num_terms > 0:
        raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(num_terms)]
        total = sum(raw, Fraction(0))
        weights = [w / total if total > 1 else w for w in raw]
        for t in range(num_terms):
            m = rng.randint(2, min(K + 2, 6))
            idx = _pick_distinct(rng, K + 2, m)
            u_raw = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)
            ]
            s = sum(u * u for u in u_raw)
            if s > 1:
                sc = ceil_sqrt_rational(s)
                u = tuple(q / sc for q in u_raw)
            else:
                u = tuple(u_raw)
            terms.append(CertTerm(weights[t], Cycle(tuple(idx)), u))
    cert = DualBallCertificate(tuple(terms))
    return functional_from_certificate(cert, K), cert


def dual_norm_lower_bound(
    y: DualFunctional, budget: int = 8
) -> tuple[Fraction, JVector]:
    """Certified lower bound on the squared dual norm.

    The bound is y(w)^2 / ||w||^2 for the best witness w found; the search
    (coordinate vectors, then seeded float coordinate ascent snapped back
    to rationals) is best-effort, but the returned value is always valid.
    ||w||^2 is exact, from the value-only DP (:func:`cycle_sum_max`).
    When y(w)^2 has a sqrt(2) component the ratio is rounded down through
    a 40-digit rational bound on sqrt(2), which keeps it a lower bound.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    K = y.K
    if y.is_zero():
        return Fraction(0), JVector.zero(K)

    best_lb = Fraction(0)
    best_w = JVector.zero(K)

    def consider(w: JVector) -> None:
        nonlocal best_lb, best_w
        if w.is_zero():
            return
        val_sq = eval_functional(y, w).square()
        lb = val_sq.rational_lower_bound() / _norm_sq_value(w)
        if lb > best_lb:
            best_lb = lb
            best_w = w

    for i in range(K + 1):
        consider(canonical("e", i, K))

    yf = [c.to_float() for c in y.coeffs]
    rng = random.Random(0xD0A1)
    for _ in range(budget):
        coords = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
        objective = partial(_ratio_float, yf)
        _coordinate_ascent(objective, coords, (-0.5, -0.1, 0.1, 0.5))
        snapped = tuple(
            Fraction(c).limit_denominator(1000) for c in coords
        )
        consider(JVector(K, snapped))
    return best_lb, best_w


def _coordinate_ascent(
    objective: Callable[[list[float]], float], x: list[float], deltas: tuple
) -> list[float]:
    """Float coordinate ascent on x, in place; heuristic only.  Up to four
    sweeps try x[i] + delta for each delta in turn, keeping a move that
    beats the best objective by a relative 1e-12; a sweep that keeps no
    move ends the search, since the next would repeat it.

    The value of each point is kept for the ascent, and a point equal to
    one already evaluated is looked up, not evaluated again: a move and
    its reverse can land on the same floats, and a sweep retries the
    moves of the last one where nothing changed since.  So the objective
    must give equal points the same value; equal includes 0.0 and -0.0,
    which both callers' objectives treat alike."""
    best = objective(x)
    values = {tuple(x): best}
    for _sweep in range(4):
        improved = False
        for i in range(len(x)):
            base = x[i]
            for delta in deltas:
                x[i] = base + delta
                key = tuple(x)
                obj = values.get(key)
                if obj is None:
                    obj = values[key] = objective(x)
                if obj > best * (1 + 1e-12):
                    best = obj
                    base = x[i]
                    improved = True
            x[i] = base
        if not improved:
            break
    return x


def _ratio_float(yf: list[float], coords: list[float]) -> float:
    n = james_norm_sq_float(coords)
    if n <= 0:
        return 0.0
    val = sum(a * b for a, b in zip(yf, coords))
    return val * val / n


# ---------------------------------------------------------------------------
# Chain stability and violation witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StableIndex:
    i: int


@dataclass(frozen=True)
class Violation:
    """Every consecutive gap along the chain was at least eps."""

    gaps: tuple[Root2Scalar, ...]


@dataclass(frozen=True)
class ViolationWitness:
    """Vector certifying that a functional leaves the dual unit ball.

    lhs_sq is the squared evaluation y(xhat) (exact in Q(sqrt(2))) and
    rhs_sq the squared James norm of xhat; lhs_sq > rhs_sq exactly.
    """

    xhat: JVector
    partition_used: tuple[int, ...]
    side: str
    lhs_sq: Root2Scalar
    rhs_sq: Fraction


@dataclass(frozen=True)
class NormCertificateOfExcess:
    """Chain whose consecutive gaps are all >= eps, read as a cycle.

    When the chain has at least 2*ceil(1/eps)^2 gaps the cycle value is
    guaranteed to reach 1, certifying that the vector leaves the unit ball.
    """

    cycle: Cycle
    value_sq: Fraction
    gaps: tuple[Fraction, ...]


def _validate_chain(chain: tuple[int, ...]) -> None:
    if len(chain) < 2:
        raise ChainError("chain needs at least two indices")
    if any(a >= b for a, b in zip(chain, chain[1:])):
        raise ChainError("chain indices must be strictly increasing")
    if chain[0] < 0:
        raise ChainError("chain indices must be nonnegative")


def _chain_values(
    y: DualFunctional, chain: tuple[int, ...]
) -> Iterator[tuple[int, int, int]]:
    """y(d_n) = (P + Q*sqrt(2)) / D for each n of an increasing chain, in
    order, as the integers (P, Q, D), from a generator: one running sum of
    the nonzero coefficients of y up to the current index, taken no
    further than the caller reads (y(d_n) = y(d_K) for n > K).  D is the
    lcm of the denominators read so far, so each D divides the next."""
    coeffs = y.coeffs
    P = Q = 0
    D = 1
    done = 0  # coefficients summed so far
    for n in chain:
        stop = min(n, y.K) + 1
        for c in coeffs[done:stop]:
            a, b = c.a, c.b
            if a:
                q = a.denominator
                if D % q:
                    m = q // gcd(D, q)
                    P, Q, D = P * m, Q * m, D * m
                P += a.numerator * (D // q)
            if b:
                q = b.denominator
                if D % q:
                    m = q // gcd(D, q)
                    P, Q, D = P * m, Q * m, D * m
                Q += b.numerator * (D // q)
        done = stop
        yield P, Q, D


def _chain_steps(
    y: DualFunctional, chain: tuple[int, ...]
) -> Iterator[tuple[int, int, int]]:
    """y(d_{n_{i+1}}) - y(d_{n_i}) = (P + Q*sqrt(2)) / D for each step i of
    an increasing chain, as the integers (P, Q, D) over the later value's
    denominator (:func:`_chain_values`), read as lazily."""
    values = _chain_values(y, chain)
    P0, Q0, D0 = next(values)
    for P, Q, D in values:
        if D != D0:
            m = D // D0
            P0, Q0 = P0 * m, Q0 * m
        yield P - P0, Q - Q0, D
        P0, Q0, D0 = P, Q, D


def chain_stability_check(
    y: DualFunctional, eps: Fraction, chain: tuple[int, ...]
) -> StableIndex | Violation:
    """Least i with |y(d_{n_i}) - y(d_{n_{i+1}})| < eps, else all gaps.

    The values y(d_n) are summed along the chain only up to the first
    stable gap (:func:`_chain_steps`).  With eps = e1/e2, a step
    (P + Q*sqrt(2)) / D of sign s is stable when
    e1*D - s*e2*(P + Q*sqrt(2)) > 0, a sign decided on integers
    (:func:`root2_sign`); the gaps become Root2Scalars only for a
    returned Violation."""
    _validate_chain(chain)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    e1, e2 = eps.numerator, eps.denominator
    gaps = []
    for i, (P, Q, D) in enumerate(_chain_steps(y, chain)):
        s = root2_sign(P, Q)
        if root2_sign(e1 * D - s * e2 * P, -s * e2 * Q) > 0:
            return StableIndex(i)
        gaps.append((s * P, s * Q, D))
    return Violation(
        tuple(Root2Scalar(Fraction(P, D), Fraction(Q, D)) for P, Q, D in gaps)
    )


def violation_to_witness(
    y: DualFunctional,
    eps: Fraction,
    chain: tuple[int, ...],
    violation: Violation,
) -> ViolationWitness:
    """Convert an all-gaps-large chain into an exact dual-norm-excess witness.

    Splits the gap indices by the direction of change, keeps the majority
    side, and sums the corresponding d-differences: the functional picks up
    every kept gap while the norm only counts the blocks of consecutive
    ones, so squaring both sides yields a strict exact inequality.

    The kept steps cover disjoint index ranges, so xhat has 0/1
    coordinates and y(xhat) is the sum of the kept steps of
    :func:`_chain_steps`, taken over the last step's denominator, which
    every earlier one divides.  The directions and the inequality are
    signs decided on integers (:func:`root2_sign`).

    A 0/1 vector with m blocks of consecutive ones has squared norm m.
    Around a cycle each change of value adds 1 to the sum of squared
    differences, and the changes come two per run of ones in cyclic
    order.  Two runs that follow each other in index order have a 0 at an
    index between them, so their first ones lie in different blocks:
    there are at most m runs, and the sum is at most 2m.  One 1 from each
    block, each followed by a 0 (the virtual zero last), reaches 2m.
    """
    _validate_chain(chain)
    eps = Fraction(eps)
    k = len(chain) - 1
    if len(violation.gaps) != k:
        raise WitnessPreconditionError("violation does not match the chain")
    need = 2 * ceil_inverse(eps) ** 2
    if k < need:
        raise WitnessPreconditionError(
            f"need at least {need} gaps for eps={eps}, got {k}"
        )
    steps = list(_chain_steps(y, chain))
    signs = [root2_sign(P, Q) for P, Q, _ in steps]
    side_gt = tuple(i for i, s in enumerate(signs) if s < 0)
    side_lt = tuple(i for i, s in enumerate(signs) if s > 0)
    if len(side_gt) >= len(side_lt):
        side, label = side_gt, "I>"
    else:
        side, label = side_lt, "I<"

    xs = [0] * (y.K + 1)
    for i in side:
        lo, hi = chain[i], chain[i + 1]
        for j in range(lo + 1, min(hi, y.K) + 1):
            xs[j] = 1
    unit = (Fraction(0), Fraction(1))
    xhat = JVector(y.K, tuple(unit[v] for v in xs))
    D = steps[-1][2]
    P = sum(steps[i][0] * (D // steps[i][2]) for i in side)
    Q = sum(steps[i][1] * (D // steps[i][2]) for i in side)
    D2 = D * D
    lhs_sq = Root2Scalar(Fraction(P * P + 2 * Q * Q, D2), Fraction(2 * P * Q, D2))
    blocks = sum(b > a for a, b in pairwise([0, *xs]))
    rhs_sq = Fraction(blocks)
    # lhs_sq - rhs_sq = (P^2 + 2Q^2 - blocks D^2 + 2PQ sqrt(2)) / D^2
    if root2_sign(P * P + 2 * Q * Q - blocks * D2, 2 * P * Q) <= 0:
        raise WitnessUnsound(
            f"witness inequality failed: {lhs_sq} <= {rhs_sq}"
        )
    return ViolationWitness(
        xhat=xhat, partition_used=side, side=label, lhs_sq=lhs_sq, rhs_sq=rhs_sq
    )


def coordinate_chain_check(
    x: JVector, eps: Fraction, chain: tuple[int, ...]
) -> StableIndex | NormCertificateOfExcess:
    """Least i with |x_{p_i} - x_{p_{i+1}}| < eps, else the chain as a cycle.

    All gaps at least eps force a cycle value of at least k*eps^2/2, which
    reaches 1 once k >= 2*ceil(1/eps)^2: the returned certificate then
    shows the vector lies outside the unit ball.

    Each gap is compared on the integers of its two coordinates' common
    denominator, and only up to the first stable one; the gaps become
    Fractions only for a returned certificate.
    """
    _validate_chain(chain)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if chain[-1] > x.K + 1:
        raise ChainError(
            f"chain index {chain[-1]} exceeds virtual index {x.K + 1}"
        )
    e1, e2 = eps.numerator, eps.denominator
    coords = map(x.coord, chain)
    u = next(coords)
    for i, v in enumerate(coords):
        b, d = u.denominator, v.denominator
        if abs(u.numerator * d - v.numerator * b) * e2 < e1 * b * d:
            return StableIndex(i)
        u = v
    gaps = tuple(abs(u - v) for u, v in pairwise(map(x.coord, chain)))
    cyc = Cycle(tuple(chain))
    return NormCertificateOfExcess(
        cycle=cyc, value_sq=cycle_value(x, cyc), gaps=gaps
    )
