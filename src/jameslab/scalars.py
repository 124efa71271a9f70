"""Exact scalar arithmetic: rationals and the quadratic field Q(sqrt(2)).

Every quantity that feeds a verdict anywhere in this package is either a
``fractions.Fraction`` or a :class:`Root2Scalar`.  Floats appear only in
display columns and in search heuristics whose results are re-certified
exactly afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt

Rational = Fraction

_SQRT2_DIGITS = 40
_SQRT2_DEN = 10**_SQRT2_DIGITS
_SQRT2_NUM = isqrt(2 * _SQRT2_DEN * _SQRT2_DEN)

# SQRT2_LOWER < sqrt(2) < SQRT2_UPPER, both rational, 40 decimal digits apart.
SQRT2_LOWER = Fraction(_SQRT2_NUM, _SQRT2_DEN)
SQRT2_UPPER = Fraction(_SQRT2_NUM + 1, _SQRT2_DEN)


def fmt_rational(x: Fraction) -> str:
    """Render a rational as a lossless "p/q" string."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def ceil_rational(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def ceil_inverse(eps: Fraction) -> int:
    """ceil(1/eps) for a positive rational eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return ceil_rational(1 / eps)


def ceil_sqrt_rational(x: Fraction) -> int:
    """Smallest nonnegative integer t with t*t >= x."""
    if x <= 0:
        return 0
    t = isqrt(ceil_rational(x))
    while t * t < x:
        t += 1
    return t


@total_ordering
class Root2Scalar:
    """Element a + b*sqrt(2) of Q(sqrt(2)).

    Comparisons are decided exactly through the sign of a + b*sqrt(2),
    which reduces to rational comparisons of a^2 against 2*b^2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int, b: Fraction | int = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Root2Scalar is immutable")

    @classmethod
    def zero(cls) -> Root2Scalar:
        return cls(0, 0)

    @staticmethod
    def _coerce(other: object) -> "Root2Scalar | None":
        if isinstance(other, Root2Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Root2Scalar(other, 0)
        return None

    def __repr__(self) -> str:
        return f"Root2Scalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(2)"

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __add__(self, other: object) -> Root2Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Root2Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> Root2Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Root2Scalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> Root2Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> Root2Scalar:
        return Root2Scalar(-self.a, -self.b)

    def __mul__(self, other: object) -> Root2Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Root2Scalar(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs; a^2 - 2 b^2 = 0 would force sqrt(2) rational
        m = a * a - 2 * b * b
        if a > 0:
            return 1 if m > 0 else -1
        return -1 if m > 0 else 1

    def __abs__(self) -> Root2Scalar:
        return -self if self.sign() < 0 else self

    def square(self) -> Root2Scalar:
        return self * self

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self) -> Fraction:
        """The exact value, provided the sqrt(2) component vanishes."""
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def rational_lower_bound(self) -> Fraction:
        """A rational r <= a + b*sqrt(2); exact when b == 0."""
        if self.b == 0:
            return self.a
        bound = SQRT2_LOWER if self.b > 0 else SQRT2_UPPER
        return self.a + self.b * bound

    def rational_upper_bound(self) -> Fraction:
        if self.b == 0:
            return self.a
        bound = SQRT2_UPPER if self.b > 0 else SQRT2_LOWER
        return self.a + self.b * bound

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * 2 ** 0.5

    def to_pair(self) -> list[str]:
        return [fmt_rational(self.a), fmt_rational(self.b)]

    @classmethod
    def from_pair(cls, pair: list[str]) -> Root2Scalar:
        a, b = pair
        return cls(Fraction(a), Fraction(b))
