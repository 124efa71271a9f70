"""Candidate bases of J_K, dual bases, moduli, and unconditional-constant
lower bounds.

Everything that certifies a bound is exact; the only floating point lives
inside the search heuristic of :func:`uc_lower_bound`, whose winning
candidate is snapped back to rationals and replayed exactly.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd
from operator import mul, ne

from .james_core import (
    DimensionMismatch,
    DualFunctional,
    JVector,
    _coordinate_ascent,
    cycle_sum_max,
    eval_functional,
    james_norm_sq_float,
)
from .scalars import fmt_rational, integer_rows, json_int, json_list, json_rational


class SingularBasis(ValueError):
    pass


class StructureViolation(AssertionError):
    """An identity that holds for every invertible basis failed; this
    signals an implementation bug, not a mathematical possibility."""


class ZeroVector(ValueError):
    pass


class DimensionTooLargeForPatterns(ValueError):
    pass


class IrrationalAtomValue(ValueError):
    """A functional with a sqrt(2) part reached a map defined over Q: its
    values x*(w_i) on the basis vectors (the atoms of the measure space)
    are not all rational."""


def integer_inverse(D: int, m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(E, E * A^-1) for the matrix A = m / D of integers m over D > 0, E
    the lcm of the denominators of A^-1, by fraction-free Gauss-Jordan
    elimination (Bareiss 1968); pivot on the first nonzero entry.

    [m | I] is reduced in integers: each step on a pivot p replaces every
    other row by (p * row - f * pivot_row) / prev, where prev is the
    previous pivot; a row with f = 0 when p = prev would come out
    unchanged, so it is skipped.  Every entry is a minor of [m | I]
    (Sylvester's identity), so the divisions are exact and the zero
    entries are those of rational Gauss-Jordan, which picks the same
    pivots.  The left block ends as det * I and the right one as
    R = det * m^-1, det the last pivot (det m up to the sign of the row
    swaps), so A^-1 = D * R / det.  With g the gcd of det and every entry
    of D * R, the lcm of the denominators is E = |det| / g, and
    E * A^-1 = D * R / g with the sign of det.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularBasis(f"no pivot in column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        pivot_row = m[col]
        p = pivot_row[col]
        for r in range(n):
            f = m[r][col]
            if r != col and (f or p != prev):
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], pivot_row)]
        prev = p
    scaled = [[D * v for v in row[n:]] for row in m]
    g = gcd(prev, *(v for row in scaled for v in row))
    if prev < 0:
        g = -g
    return prev // g, [[v // g for v in row] for row in scaled]


def _int_dots(v: Iterable[Fraction], lines: Iterable) -> tuple[int, list[int]]:
    """(S, line . (S * v) for each integer line), v rational and S the lcm
    of its denominators: v is scaled to integers once."""
    S, (scaled,) = integer_rows([v])
    return S, [sum(map(mul, line, scaled)) for line in lines]


@dataclass(frozen=True)
class DualBasis:
    """The rows g*_i over e*_j with g*_i(w_j) = 1 exactly when i == j, held
    as integers: ``int_rows`` = (E, rows of E * W^-1), E the lcm of the
    denominators of W^-1, so row i is E * g*_i."""

    K: int
    int_rows: tuple[int, tuple[tuple[int, ...], ...]]

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of W^-1 as Fractions, built on first use."""
        E, rows = self.int_rows
        return tuple(tuple(Fraction(v, E) for v in row) for row in rows)

    def scaled_coords(self, x: JVector) -> tuple[int, list[int]]:
        """(den, nums) with g*_i(x) = nums[i] / den: integer dot products of
        the rows of E * W^-1 with x scaled to integers."""
        if x.K != self.K:
            raise DimensionMismatch((x.K, self.K))
        E, rows = self.int_rows
        S, values = _int_dots(x.coeffs, rows)
        return E * S, values

    def coords_of(self, x: JVector) -> tuple[Fraction, ...]:
        """Basis coordinates (g*_0(x), ..., g*_K(x)) = W^-1 x."""
        den, values = self.scaled_coords(x)
        return tuple(Fraction(v, den) for v in values)

    def functional(self, i: int) -> DualFunctional:
        return DualFunctional.from_rationals(self.K, self.rows[i])


class Basis:
    """Basis (w_0..w_K) of J_K given by the columns w_i of W.

    The basis is held in integer forms: ``self.int_columns`` = (F, the
    columns of F * W), F the lcm of their denominators, and
    ``self.dual.int_rows`` = (E, the rows of E * W^-1), which the exact
    inversion at construction returns.  Every map between canonical and
    basis coordinates is a product with one of them.  Construction runs
    :meth:`check_biorthogonality` on them, once: a built basis refuses
    assignment and deletion, so every later reader sees the checked forms.
    """

    __slots__ = ("K", "columns", "int_columns", "dual")

    def __init__(self, K: int, columns: tuple[tuple[Fraction, ...], ...]) -> None:
        if type(K) is not int:  # a bool, float or Fraction is refused
            raise ValueError(f"dimension index must be an int, got {K!r}")
        if K < 0:
            raise ValueError("dimension index must be nonnegative")
        # a Fraction is immutable, so one is kept as given, not copied
        columns = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in col)
            for col in columns
        )
        if len(columns) != K + 1 or any(len(col) != K + 1 for col in columns):
            raise DimensionMismatch("basis must be a (K+1) x (K+1) matrix")
        F, scaled = integer_rows(columns)
        # row j of F * W = F * (canonical coordinate j of each w_i)
        E, inverse = integer_inverse(F, [list(row) for row in zip(*scaled)])
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "int_columns", (F, tuple(map(tuple, scaled))))
        object.__setattr__(self, "dual", DualBasis(K, (E, tuple(map(tuple, inverse)))))
        # a singular W has no pivot, so only a wrong inverse fails here
        self.check_biorthogonality()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Basis is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Basis is immutable")

    def check_biorthogonality(self) -> None:
        """Verify (E * W^-1)(F * W) = E * F * I on the integer forms of the
        basis; a violation raises :class:`StructureViolation`."""
        E, rows = self.dual.int_rows
        F, columns = self.int_columns
        for i, g in enumerate(rows):
            for j, w in enumerate(columns):
                if sum(map(mul, g, w)) != (E * F if i == j else 0):
                    raise StructureViolation("biorthogonality check failed")

    @classmethod
    def canonical(cls, K: int) -> Basis:
        return cls(
            K,
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(K + 1))
                for i in range(K + 1)
            ),
        )

    def vector(self, i: int) -> JVector:
        if not 0 <= i <= self.K:
            raise IndexError(i)
        return JVector(self.K, self.columns[i])

    def combine(self, alpha: tuple[Fraction, ...]) -> JVector:
        """The vector sum_i alpha_i * w_i = W alpha in canonical coordinates."""
        if len(alpha) != self.K + 1:
            raise DimensionMismatch("one coefficient per basis vector required")
        F, columns = self.int_columns
        S, values = _int_dots(alpha, zip(*columns))
        return JVector(self.K, tuple(Fraction(v, F * S) for v in values))

    def scaled_functional_values(self, x_star: DualFunctional) -> tuple[int, list[int]]:
        """(den, nums) with x*(w_i) = nums[i] / den, for a functional with
        rational coefficients; one with a sqrt(2) part raises
        :class:`IrrationalAtomValue`."""
        if x_star.K != self.K:
            raise DimensionMismatch((x_star.K, self.K))
        if not x_star.has_rational_coeffs:
            raise IrrationalAtomValue("functional has a sqrt(2) part")
        F, columns = self.int_columns
        S, values = _int_dots(x_star.rational_coeffs(), columns)
        return F * S, values

    def functional_values(self, x_star: DualFunctional) -> tuple[Fraction, ...]:
        """(x*(w_0), ..., x*(w_K)) = x* W (see :meth:`scaled_functional_values`)."""
        den, values = self.scaled_functional_values(x_star)
        return tuple(Fraction(v, den) for v in values)

    def to_json_obj(self) -> dict:
        return {
            "K": self.K,
            "columns": [[fmt_rational(v) for v in col] for col in self.columns],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> Basis:
        return cls(
            json_int(obj, "K"),
            tuple(
                tuple(map(json_rational, json_list(col, "a column")))
                for col in json_list(obj["columns"], "columns")
            ),
        )


def modulus_vector(basis: Basis, x: JVector) -> JVector:
    """|x| = sum_i |g*_i(x)| w_i, exactly, in canonical coordinates: the
    integer coordinates of x, made absolute, times F * W."""
    den, coords = basis.dual.scaled_coords(x)
    F, columns = basis.int_columns
    return JVector(
        basis.K,
        tuple(Fraction(v, F * den) for v in _abs_dots(zip(*columns), coords)),
    )


def modulus_functional(basis: Basis, x_star: DualFunctional) -> DualFunctional:
    """|x*| = sum_i |x*(w_i)| g*_i, exactly, with coefficients over e*_j:
    the row of absolute values times W^-1, as integers times E * W^-1.
    x* must be rational (see :meth:`Basis.functional_values`)."""
    den, values = basis.scaled_functional_values(x_star)
    E, rows = basis.dual.int_rows
    return DualFunctional.from_rationals(
        basis.K,
        tuple(Fraction(v, E * den) for v in _abs_dots(zip(*rows), values)),
    )


def _abs_dots(lines: Iterable, values: list[int]) -> list[int]:
    """line . |values| for each integer line: the integer core of |x| (rows
    of F * W, coordinates of x) and of |x*| (columns of E * W^-1, x*(w_i))."""
    values = list(map(abs, values))
    return [sum(map(mul, line, values)) for line in lines]


def sign_align(
    basis: Basis, x: JVector, x_star: DualFunctional
) -> tuple[JVector, object]:
    """Flip basis coordinates of x so every term pairs nonnegatively.

    Returns x' = sum_i eps_i g*_i(x) w_i (ties resolved to +1) and the
    pairing x*(x') = |x*|(|x|) as :func:`eval_functional` gives it, which
    is nonnegative by construction.  x* must be rational (see
    :meth:`Basis.functional_values`).
    """
    if x.K != basis.K or x_star.K != basis.K:
        raise DimensionMismatch((x.K, x_star.K, basis.K))
    coords = basis.dual.coords_of(x)
    flipped = [
        -c if v * c < 0 else c
        for v, c in zip(basis.functional_values(x_star), coords)
    ]
    x_prime = basis.combine(tuple(flipped))
    pairing = eval_functional(x_star, x_prime)
    return x_prime, pairing


@dataclass(frozen=True)
class SignPattern:
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e not in (-1, 1) for e in self.entries):
            raise ValueError("sign pattern entries must be -1 or +1")


@dataclass(frozen=True)
class UCEstimate:
    """Certified lower bound on the squared unconditional constant."""

    lower_bound_sq: Fraction
    sign_pattern: SignPattern
    alpha: tuple[Fraction, ...]

    def to_json_obj(self) -> dict:
        return {
            "lower_bound_sq": fmt_rational(self.lower_bound_sq),
            "sign_pattern": list(self.sign_pattern.entries),
            "alpha": [fmt_rational(a) for a in self.alpha],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> UCEstimate:
        signs = tuple(json_list(obj["sign_pattern"], "sign_pattern"))
        if any(type(e) is not int for e in signs):  # int() truncates 1.9
            raise TypeError(f"sign pattern entries must be integers, got {signs!r}")
        return cls(
            json_rational(obj["lower_bound_sq"]),
            SignPattern(signs),
            tuple(map(json_rational, json_list(obj["alpha"], "alpha"))),
        )


def ratio_sq(
    basis: Basis, eps: SignPattern, alpha: tuple[Fraction, ...]
) -> Fraction:
    """Exact squared norm ratio of the sign-flipped combination to the
    original combination.

    alpha is scaled to integers over the lcm of its denominators, and both
    combinations are integer dot products with ``basis.int_columns``.  The
    two scales are common to both norms and cancel in the ratio, so the
    value-only DP (:func:`cycle_sum_max`) on the integers gives it exactly.
    """
    if len(eps.entries) != basis.K + 1 or len(alpha) != basis.K + 1:
        raise DimensionMismatch("sign pattern and alpha must match the basis")
    _, (scaled,) = integer_rows([alpha])
    base = [0] * (basis.K + 2)
    flipped = [0] * (basis.K + 2)
    for e, a, col in zip(eps.entries, scaled, basis.int_columns[1]):
        if a:  # the last entry of base and flipped stays the virtual zero
            ea = e * a
            for j, w in enumerate(col):
                base[j] += a * w
                flipped[j] += ea * w
    if not any(base):
        raise ZeroVector("denominator combination is zero")
    return Fraction(cycle_sum_max(flipped), cycle_sum_max(base))


EXHAUSTIVE_MAX_DIMENSION = 12


def _ascend_alpha(
    cols_float: list[list[float]], eps: tuple[int, ...], alpha: list[float]
) -> list[float]:
    """Coordinate ascent on the float norm ratio; heuristic only.

    Each call of the objective sums s_i * c and (eps_i * s_i) * c, for its
    scales s, over the nonzero entries c of each column in ascending i,
    into lists that start at 0.0.  A partial sum starts at +0.0 and so is
    never -0.0 (a float sum is -0.0 only when both terms are), which makes
    skipping a +-0.0 product a no-op: the floats are those of the dense
    sums, on every basis.  (``sum``, ``math.fsum`` and ``math.sumprod``
    would round differently.)
    """
    nonzero = [[(j, c) for j, c in enumerate(col) if c] for col in cols_float]

    def objective(a: list[float]) -> float:
        base = [0.0] * len(a)
        flipped = [0.0] * len(a)
        for s, e, entries in zip(a, eps, nonzero):
            es = e * s
            for j, c in entries:
                base[j] += s * c
                flipped[j] += es * c
        den = james_norm_sq_float(base)
        if den <= 1e-12:
            return 0.0
        return james_norm_sq_float(flipped) / den

    return _coordinate_ascent(objective, alpha, (-0.6, -0.15, 0.15, 0.6))


def uc_lower_bound(
    basis: Basis,
    strategy: str = "exhaustive",
    budget: int = 2,
    seed: int = 0,
) -> UCEstimate:
    """Best certified squared ratio found over sign patterns and coefficient
    vectors.

    Sign patterns are enumerated exhaustively or sampled ("anneal"; see
    :func:`check_uc_search` for the arguments it refuses).  Per pattern,
    the coefficient search seeds the all-ones vector and then runs
    `budget` float coordinate-ascent restarts; each candidate is snapped
    to rationals and replayed exactly, so the result is always a valid
    lower bound and is nondecreasing in `budget`.  A basis entry beyond
    float range raises ``ValueError``.

    The search prunes by a bound on each pattern's ratio
    (:func:`_sign_change_bound`), which rests on this lemma.  Call the
    basis monomial when each column of W has exactly one nonzero entry
    (the canonical basis, its rescalings and permutations).  Write x = W
    alpha in canonical coordinates and sigma for eps read along them:
    sigma_j = eps_i where column i's nonzero sits in row j, so W(eps
    alpha) = D_sigma x.  On a cycle, the sum for D_sigma x minus the sum
    for x is the sum of 4 x_p x_q over the cycle's edges (p, q) with
    sigma_p != sigma_q; an edge at the virtual zero adds nothing.  A cycle
    is increasing, so its forward edges span disjoint index ranges and at
    most s of them change sign, s the number of sign changes of sigma; the
    wrap edge adds at most one more, and around a cycle without the zero
    the number of sign changes is even.  So at most e = s + (s mod 2)
    edges change sign.  Each adds at most 4 max_j x_j^2 <= 4 ||x||^2, as
    the cycle (j, zero) gives ||x||^2 >= x_j^2, and halving the cycle sums
    gives ratio_sq(eps, alpha) <= 1 + 2e for every alpha.  On any basis a
    constant pattern (s = 0) has flipped = +-base, so its ratio is exactly
    1; other patterns on a non-monomial basis have no bound.  The bound is
    met at even K: the alternating pattern on x all ones gives 2K + 1.

    For odd s the bound is strict: ratio_sq < 1 + 2e.  Equality needs a
    cycle C whose sum for x is 2 ||x||^2 and which has e = s + 1 sign
    changing edges, each with x_p x_q = ||x||^2.  An edge at the zero has
    x_p x_q = 0, and at most s forward edges change sign, so C avoids the
    zero and its wrap edge (l, f) is one of them: x_l x_f = ||x||^2.
    Appending the zero to C replaces (x_l - x_f)^2 by x_l^2 + x_f^2, which
    adds 2 x_l x_f: a cycle sum of 4 ||x||^2 > 2 ||x||^2 (x != 0), more
    than the norm allows.  So a pattern of odd s never meets its bound.

    The result is the earliest candidate, by (pattern index, candidate),
    among the largest exact ratios: the one a walk over every pattern in
    enumeration order returns when it replaces its best only on a strict
    ``>``.  The candidates do not depend on the order they are visited
    in, since each restart draws its start from its own generator, seeded
    by the seed, the pattern's index and the restart.  So the search may
    visit the patterns in any order if it replaces `best` on a larger
    ratio or on a tie at an earlier position, and skips only candidates
    that can neither beat `best` nor tie it earlier: those whose bound is
    below best, or equal to it with s odd or at a later position.  A
    pattern's remaining restarts are skipped on the same test, at the
    position of the next restart.

    On a monomial basis the patterns are visited by sign-change class
    (:func:`_search_classes`): by decreasing bound, even s before odd s
    within one bound, then by index.  The classes of an exhaustive search
    are generated one at a time from sigma, and a class skipped whole is
    never generated, so no 2^(K+1) patterns are listed.  On the canonical
    basis at even K the first alternating pattern's all-ones replay meets
    2K + 1 and ends the search with no ascent; at odd K the two
    alternating patterns take 2 * budget ascents, after which every other
    class's bound (at most 2K - 1) is below the 2K + 2 of their all-ones
    replay.  On any other basis the patterns are visited in enumeration
    order, and only the constant ones are skipped.
    """
    K = basis.K
    classes = _search_classes(basis, strategy, budget, seed)
    try:  # an entry that underflows is searched as 0.0
        cols_float = [[float(v) for v in col] for col in basis.columns]
    except OverflowError:
        raise ValueError(
            "a basis entry is beyond float range, which the float "
            "coefficient search cannot represent"
        ) from None
    ones = SignPattern((1,) * (K + 1))
    alpha0 = (Fraction(1),) + (Fraction(0),) * K
    best = UCEstimate(ratio_sq(basis, ones, alpha0), ones, alpha0)
    best_at = (-1, 0)  # before every (pattern index, candidate)

    def beaten(bound: int | None, strict: bool, at: tuple[int, int]) -> bool:
        """Whether no candidate at position `at` or later, of a pattern
        with this bound, can replace `best`."""
        if bound is None:
            return False
        r = best.lower_bound_sq
        return bound < r or bound == r and (strict or at > best_at)

    def consider(eps: SignPattern, alpha: tuple[Fraction, ...], at: tuple[int, int]) -> None:
        nonlocal best, best_at
        try:
            r = ratio_sq(basis, eps, alpha)
        except ZeroVector:
            return
        if r > best.lower_bound_sq or r == best.lower_bound_sq and at < best_at:
            best, best_at = UCEstimate(r, eps, alpha), at

    for bound, strict, members in classes:
        # at best_at itself only the bound and its strictness can beat it
        if beaten(bound, strict, best_at):
            continue
        # members come by index, so once one is beaten the rest are too
        for p_index, entries in members:
            if beaten(bound, strict, (p_index, 0)):
                break
            eps = SignPattern(entries)
            consider(eps, (Fraction(1),) * (K + 1), (p_index, 0))
            for restart in range(budget):
                if beaten(bound, strict, (p_index, restart + 1)):
                    break
                rng = random.Random(f"{seed}:{p_index}:{restart}")
                start = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
                tuned = _ascend_alpha(cols_float, entries, start)
                snapped = tuple(
                    Fraction(v).limit_denominator(10**6) for v in tuned
                )
                consider(eps, snapped, (p_index, restart + 1))
    return best


def _monomial_order(basis: Basis) -> list[int] | None:
    """order[j] = the column of W whose one nonzero entry sits in row j, or
    None when the basis is not monomial."""
    rows = [[j for j, w in enumerate(col) if w] for col in basis.int_columns[1]]
    if any(len(r) != 1 for r in rows):
        return None
    return sorted(range(basis.K + 1), key=rows.__getitem__)


def _sign_changes(order: list[int], entries: tuple[int, ...]) -> int:
    """s: the sign changes of eps read along the rows, sigma_j = eps_order[j]."""
    sigma = [entries[i] for i in order]
    return sum(map(ne, sigma, sigma[1:]))


def _class_bound(s: int) -> int:
    """1 + 2e, e = s + (s mod 2): the bound of a class of s sign changes."""
    return 1 + 2 * (s + s % 2)


def _sign_change_bound(
    basis: Basis,
) -> Callable[[tuple[int, ...]], int | None]:
    """A function from a sign pattern eps to 1 + 2e, e = s + (s mod 2) and
    s the number of sign changes of eps read along the canonical
    coordinates, which bounds ``ratio_sq(basis, eps, alpha)`` for every
    alpha on a monomial basis, strictly when s is odd (see
    :func:`uc_lower_bound`).  On any other basis it gives 1 for a constant
    pattern and None for the rest."""
    order = _monomial_order(basis)

    def bound(entries: tuple[int, ...]) -> int | None:
        if order is not None:
            return _class_bound(_sign_changes(order, entries))
        return 1 if len(set(entries)) == 1 else None

    return bound


def _search_classes(
    basis: Basis, strategy: str, budget: int, seed: int
) -> list[tuple[int | None, bool, Iterable[tuple[int, tuple[int, ...]]]]]:
    """The sign patterns :func:`uc_lower_bound` searches, in visit order,
    as classes (bound, strict, members): members yields (p_index, entries)
    by increasing p_index, the pattern's index in
    :func:`uc_sign_patterns`; each member's ratios are at most bound (None:
    unbounded), and below it when strict.

    On a monomial basis there is one class per number s of sign changes
    read along the rows, ordered by decreasing bound and then odd s
    (strict) after even s.  An exhaustive search generates each class's
    members only when they are iterated; the sampled patterns of
    "anneal" are grouped.  On any other basis each pattern is its own
    class, in enumeration order."""
    K = basis.K
    order = _monomial_order(basis)
    check_uc_search(K, strategy, budget, order is not None)
    if order is None:
        bound = _sign_change_bound(basis)
        return [
            (bound(entries), False, ((p_index, entries),))
            for p_index, entries in enumerate(uc_sign_patterns(K, strategy, budget, seed))
        ]
    if strategy == "exhaustive":
        classes = {s: _class_members(order, s) for s in range(K + 1)}
    else:
        classes = {}
        for p_index, entries in enumerate(_sampled_patterns(K, seed)):
            classes.setdefault(_sign_changes(order, entries), []).append((p_index, entries))
    return [
        (_class_bound(s), s % 2 == 1, classes[s])
        for s in sorted(classes, key=lambda s: (-_class_bound(s), s % 2))
    ]


def _class_members(order: list[int], s: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(p_index, entries) of every pattern whose signs along the rows
    (sigma_j = eps_order[j]) change s times, by index; p_index reads eps
    as binary digits, +1 a one, first entry first, as the lexicographic
    enumeration :func:`_all_patterns` does.  Nothing is generated until
    the first member is asked for."""
    K = len(order) - 1
    found = []
    for gaps in combinations(range(1, K + 1), s):
        sigma, sign, start = [], 1, 0
        for stop in (*gaps, K + 1):
            sigma += [sign] * (stop - start)
            sign, start = -sign, stop
        for first in (1, -1):
            entries = [0] * (K + 1)
            for i, e in zip(order, sigma):
                entries[i] = first * e
            index = int("".join("1" if e > 0 else "0" for e in entries), 2)
            found.append((index, tuple(entries)))
    found.sort()
    yield from found


def check_uc_search(K: int, strategy: str, budget: int, monomial: bool = False) -> None:
    """Refuse what :func:`uc_lower_bound` cannot search: a budget below 1,
    an unknown strategy, or an exhaustive search at K > 12 on a basis not
    known to be monomial, whose 2^(K+1) patterns would all be listed.  A
    monomial basis is searched by sign-change class at any K."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    if strategy == "exhaustive":
        if not monomial and K > EXHAUSTIVE_MAX_DIMENSION:
            raise DimensionTooLargeForPatterns(
                f"exhaustive sign enumeration limited to K <= {EXHAUSTIVE_MAX_DIMENSION}"
            )
    elif strategy != "anneal":
        raise ValueError(f"unknown strategy {strategy!r}")


def uc_sign_patterns(
    K: int, strategy: str, budget: int, seed: int = 0
) -> list[tuple[int, ...]]:
    """Check the arguments of :func:`uc_lower_bound` (on a basis not known
    to be monomial) and return the sign patterns it searches there, in
    enumeration order: all 2^(K+1) ("exhaustive", K <= 12) or
    2^min(K+1, 7) seeded samples ("anneal").  A pattern's index in this
    list seeds its restarts.  Each pattern costs at most 1 + budget exact
    replays: none when its sign-change bound cannot beat the best ratio
    found before it.  On a monomial basis the exhaustive search lists no
    patterns; it generates one sign-change class at a time."""
    check_uc_search(K, strategy, budget)
    if strategy == "exhaustive":
        return _all_patterns(K)
    return _sampled_patterns(K, seed)


def _all_patterns(K: int) -> list[tuple[int, ...]]:
    """Every sign pattern of length K+1, in lexicographic order."""
    return list(product((-1, 1), repeat=K + 1))


def _sampled_patterns(K: int, seed: int) -> list[tuple[int, ...]]:
    """2^min(K+1, 7) distinct seeded patterns, the constant +1 one first."""
    count = 2 ** min(K + 1, 7)
    rng = random.Random(f"{seed}:patterns")
    seen = {(1,) * (K + 1)}
    out = [(1,) * (K + 1)]
    while len(out) < count:
        p = tuple(rng.choice((-1, 1)) for _ in range(K + 1))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def random_invertible_basis(K: int, rng: random.Random) -> Basis:
    """Rejection-sample a basis with small rational entries; exact
    invertibility is enforced by the Basis constructor."""
    while True:
        cols = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(K + 1))
            for _ in range(K + 1)
        )
        try:
            return Basis(K, cols)
        except SingularBasis:
            continue
