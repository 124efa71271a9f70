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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .scalars import (
    Root2Scalar,
    ceil_inverse,
    ceil_sqrt_rational,
    fmt_rational,
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
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
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
        return cls(int(obj["K"]), tuple(Fraction(s) for s in obj["coeffs"]))


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

    def d_prefix_values(self) -> tuple[Root2Scalar, ...]:
        """prefix[n] = value on d_n for n = 0..K (constant for n > K)."""
        out = []
        acc = Root2Scalar.zero()
        for c in self.coeffs:
            acc = acc + c
            out.append(acc)
        return tuple(out)

    def eval_on_d(self, n: int) -> Root2Scalar:
        if n < 0:
            raise IndexError(n)
        return self.d_prefix_values()[min(n, self.K)]

    def to_json_obj(self) -> dict:
        return {"K": self.K, "coeffs": [c.to_pair() for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> DualFunctional:
        return cls(int(obj["K"]), tuple(Root2Scalar.from_pair(p) for p in obj["coeffs"]))


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
    """Exact dot product in Q(sqrt(2))."""
    if y.K != x.K:
        raise DimensionMismatch((y.K, x.K))
    a = Fraction(0)
    b = Fraction(0)
    for c, v in zip(y.coeffs, x.coeffs):
        a += c.a * v
        b += c.b * v
    return Root2Scalar(a, b)


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
    den = lcm(*(c.denominator for c in x.coeffs)) if x.coeffs else 1
    nums = [int(c * den) for c in x.coeffs]
    nums.append(0)
    return nums, den


def _longest_cycle_table(vals: list) -> tuple[int | float, int, list]:
    """Longest-path dynamic program over the index DAG of ``vals`` (ints or
    floats, virtual zero already appended).

    For each start a the table g[i] holds the best completion value (sum of
    squared differences, wrap term back to a included) of any increasing
    cycle from a that has reached i.  Returns the best g[a], the first start
    a that reaches it, and that start's table.  O(len(vals)^3).
    """
    T = len(vals)
    best, best_a, best_g = 0, 0, []
    for a in range(T):
        base = vals[a]
        g = [0] * T
        for i in range(T - 1, a - 1, -1):
            vi = vals[i]
            d0 = vi - base
            bi = d0 * d0
            for j in range(i + 1, T):
                d = vi - vals[j]
                v = d * d + g[j]
                if v > bi:
                    bi = v
            g[i] = bi
        if g[a] > best:
            best, best_a, best_g = g[a], a, g
    return best, best_a, best_g


def james_norm_sq(x: JVector) -> tuple[Fraction, NormCertificate]:
    """Exact squared James norm with an optimal-cycle certificate.

    Runs :func:`_longest_cycle_table` on integer numerators over a common
    denominator, then walks the winning start's table forward.  Ties
    between optimal cycles are broken toward the lexicographically least
    index tuple.  O(K^3) integer arithmetic after clearing denominators.
    """
    nums, den = _scaled_int_coords(x)
    best_val, a, g = _longest_cycle_table(nums)
    if best_val == 0:
        zero = Fraction(0)
        return zero, NormCertificate(Cycle((0,)), zero)
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
    """Float analogue of the norm DP, for search heuristics only."""
    return _longest_cycle_table(list(coords) + [0.0])[0] / 2.0


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
        norm_sq, _ = james_norm_sq(w)
        val_sq = eval_functional(y, w).square()
        lb = val_sq.rational_lower_bound() / norm_sq
        if lb > best_lb:
            best_lb = lb
            best_w = w

    for i in range(K + 1):
        consider(canonical("e", i, K))

    yf = [c.to_float() for c in y.coeffs]
    rng = random.Random(0xD0A1)
    for _ in range(budget):
        coords = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
        for _sweep in range(4):
            for i in range(K + 1):
                base = coords[i]
                best_obj = _ratio_float(yf, coords)
                for delta in (-0.5, -0.1, 0.1, 0.5):
                    coords[i] = base + delta
                    obj = _ratio_float(yf, coords)
                    if obj > best_obj:
                        best_obj = obj
                        base = coords[i]
                coords[i] = base
        snapped = tuple(
            Fraction(c).limit_denominator(1000) for c in coords
        )
        consider(JVector(K, snapped))
    return best_lb, best_w


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


def chain_stability_check(
    y: DualFunctional, eps: Fraction, chain: tuple[int, ...]
) -> StableIndex | Violation:
    """Least i with |y(d_{n_i}) - y(d_{n_{i+1}})| < eps, else all gaps."""
    _validate_chain(chain)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    prefix = y.d_prefix_values()
    vals = [prefix[min(n, y.K)] for n in chain]
    gaps = []
    for i in range(len(chain) - 1):
        gap = abs(vals[i] - vals[i + 1])
        if gap < eps:
            return StableIndex(i)
        gaps.append(gap)
    return Violation(tuple(gaps))


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
    prefix = y.d_prefix_values()
    vals = [prefix[min(n, y.K)] for n in chain]
    side_gt = tuple(i for i in range(k) if vals[i] > vals[i + 1])
    side_lt = tuple(i for i in range(k) if vals[i] < vals[i + 1])
    if len(side_gt) >= len(side_lt):
        side, label = side_gt, "I>"
    else:
        side, label = side_lt, "I<"

    coeffs = [Fraction(0)] * (y.K + 1)
    for i in side:
        lo, hi = chain[i], chain[i + 1]
        for j in range(lo + 1, min(hi, y.K) + 1):
            coeffs[j] += 1
    xhat = JVector(y.K, tuple(coeffs))
    lhs_sq = eval_functional(y, xhat).square()
    rhs_sq, _ = james_norm_sq(xhat)
    if not lhs_sq > Root2Scalar(rhs_sq):
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
    """
    _validate_chain(chain)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if chain[-1] > x.K + 1:
        raise ChainError(
            f"chain index {chain[-1]} exceeds virtual index {x.K + 1}"
        )
    coords = [x.coord(p) for p in chain]
    gaps = []
    for i in range(len(chain) - 1):
        gap = abs(coords[i] - coords[i + 1])
        if gap < eps:
            return StableIndex(i)
        gaps.append(gap)
    cyc = Cycle(tuple(chain))
    return NormCertificateOfExcess(
        cycle=cyc, value_sq=cycle_value(x, cyc), gaps=tuple(gaps)
    )
