"""Exact scalar arithmetic: rationals and the quadratic field Q(sqrt(2)).

Every quantity that feeds a verdict anywhere in this package is either a
``fractions.Fraction`` or a :class:`Root2Scalar`.  Floats appear only in
display columns and in search heuristics whose results are re-certified
exactly afterwards.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm

_SQRT2_DIGITS = 40
_SQRT2_DEN = 10**_SQRT2_DIGITS
_SQRT2_NUM = isqrt(2 * _SQRT2_DEN * _SQRT2_DEN)

# SQRT2_LOWER < sqrt(2) < SQRT2_UPPER, both rational, 40 decimal digits apart.
SQRT2_LOWER = Fraction(_SQRT2_NUM, _SQRT2_DEN)
SQRT2_UPPER = Fraction(_SQRT2_NUM + 1, _SQRT2_DEN)

_ZERO = Fraction(0)  # the sqrt(2) part of a Root2Scalar built without one


def _decimal(n: int) -> str:
    """str(n) for an int of any size.

    Python refuses to convert ints with more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default); such an int is
    split at a power of ten into two halves that are converted alone, so
    the process-wide limit is left as it is.
    """
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(n, 10**k)
        return _decimal(high) + _decimal(low).zfill(k)


def fmt_rational(x: Fraction) -> str:
    """Render a rational as a lossless "p/q" string."""
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def integer_rows(
    rows: Iterable[Iterable[Fraction]],
) -> tuple[int, list[list[int]]]:
    """(D, D * rows): rows of rationals over one denominator D, the lcm of
    all their denominators, as lists of integers.  Each value is read once,
    as its ``as_integer_ratio()``."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    D = lcm(*(q for row in ratios for _, q in row))
    return D, [[p * (D // q) for p, q in row] for row in ratios]


_EXACT_TYPES = frozenset((int, Fraction))


def check_exact_values(values: tuple[int | Fraction, ...]) -> None:
    """Refuse values that are not ints or Fractions (bool and Fraction
    subclasses included): the exact values of a chased sequence or of a
    function on atoms."""
    if not _EXACT_TYPES.issuperset(map(type, values)) and not all(
        isinstance(v, (int, Fraction)) for v in values
    ):
        raise TypeError("sequence values must be ints or Fractions")


def json_int(obj: dict, key: str) -> int:
    """obj[key], a JSON integer: a float, bool or string is refused."""
    if type(obj[key]) is not int:
        raise TypeError(f"{key!r} must be an integer, got {obj[key]!r}")
    return obj[key]


def json_rational(value: object) -> Fraction:
    """A JSON entry as a rational: a "p/q" string or an integer.  A bool or
    a float is refused, not read as 1, 0 or a binary fraction."""
    if isinstance(value, (bool, float)):
        raise TypeError(f'a rational must be a "p/q" string or an integer, got {value!r}')
    return Fraction(value)


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


def root2_sign(a: int | Fraction, b: int | Fraction) -> int:
    """The sign of a + b*sqrt(2), for ints or rationals a and b."""
    if not b:
        return (a > 0) - (a < 0)
    if not a:
        return (b > 0) - (b < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs; a^2 - 2 b^2 = 0 would force sqrt(2) rational
    m = a * a - 2 * b * b
    if a > 0:
        return 1 if m > 0 else -1
    return -1 if m > 0 else 1


@total_ordering
class Root2Scalar:
    """Element a + b*sqrt(2) of Q(sqrt(2)).

    Comparisons are decided exactly through the sign of a + b*sqrt(2),
    which reduces to rational comparisons of a^2 against 2*b^2.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int, b: Fraction | int = _ZERO) -> None:
        # a Fraction is immutable, so one is kept as given, not copied
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Root2Scalar is immutable")

    def __delattr__(self, name: str) -> None:
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
        return root2_sign(self.a, self.b)

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
        return cls(json_rational(a), json_rational(b))
