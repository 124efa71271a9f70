"""Exactness of the Q(sqrt(2)) scalar field."""

import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from jameslab.scalars import (
    SQRT2_LOWER,
    SQRT2_UPPER,
    Root2Scalar,
    ceil_inverse,
    ceil_rational,
    ceil_sqrt_rational,
    fmt_rational,
    integer_rows,
)

getcontext().prec = 80
_DEC_SQRT2 = Decimal(2).sqrt()

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=40
)


def _decimal_value(x: Root2Scalar) -> Decimal:
    return (
        Decimal(x.a.numerator) / Decimal(x.a.denominator)
        + Decimal(x.b.numerator) / Decimal(x.b.denominator) * _DEC_SQRT2
    )


def test_sqrt2_bounds_bracket():
    assert SQRT2_LOWER * SQRT2_LOWER < 2 < SQRT2_UPPER * SQRT2_UPPER
    assert SQRT2_UPPER - SQRT2_LOWER == Fraction(1, 10**40)


def test_known_products():
    one_plus = Root2Scalar(1, 1)
    one_minus = Root2Scalar(1, -1)
    assert one_plus * one_minus == Root2Scalar(-1, 0)
    assert Root2Scalar(0, 1) * Root2Scalar(0, 1) == Root2Scalar(2, 0)


def test_sign_examples():
    assert Root2Scalar(0, 0).sign() == 0
    assert Root2Scalar(3, -2).sign() == 1  # 2*sqrt(2) < 3
    assert Root2Scalar(-3, 2).sign() == -1
    assert Root2Scalar(Fraction(7, 5), -1).sign() == -1  # 7/5 < sqrt(2)
    assert Root2Scalar(Fraction(3, 2), -1).sign() == 1  # 3/2 > sqrt(2)
    assert Root2Scalar(Fraction(-17, 12), 1).sign() == -1  # 17/12 > sqrt(2)


@given(rationals, rationals)
def test_sign_matches_decimal(a, b):
    # with denominators <= 40 the value is either 0 or far above Decimal noise
    x = Root2Scalar(a, b)
    dec = _decimal_value(x)
    if a == 0 and b == 0:
        assert x.sign() == 0
    else:
        assert x.sign() == (1 if dec > 0 else -1)


@given(rationals, rationals, rationals, rationals)
def test_field_arithmetic_matches_decimal(a, b, c, d):
    x = Root2Scalar(a, b)
    y = Root2Scalar(c, d)
    for op in ("add", "sub", "mul"):
        z = {"add": x + y, "sub": x - y, "mul": x * y}[op]
        expect = {
            "add": _decimal_value(x) + _decimal_value(y),
            "sub": _decimal_value(x) - _decimal_value(y),
            "mul": _decimal_value(x) * _decimal_value(y),
        }[op]
        assert abs(_decimal_value(z) - expect) < Decimal("1e-60")


@given(rationals, rationals, rationals, rationals)
def test_comparison_total_order(a, b, c, d):
    x = Root2Scalar(a, b)
    y = Root2Scalar(c, d)
    assert (x < y) + (x == y) + (y < x) == 1


def test_abs_and_square():
    x = Root2Scalar(1, -1)  # negative value
    assert x.sign() == -1
    assert abs(x) == Root2Scalar(-1, 1)
    assert x.square() == Root2Scalar(3, -2)


def test_rational_accessors():
    assert Root2Scalar(Fraction(3, 4), 0).rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Root2Scalar(1, 1).rational()


@given(rationals, rationals)
def test_rational_bounds_bracket_value(a, b):
    x = Root2Scalar(a, b)
    lo = x.rational_lower_bound()
    hi = x.rational_upper_bound()
    assert lo <= hi
    dec = _decimal_value(x)
    assert Decimal(lo.numerator) / Decimal(lo.denominator) <= dec + Decimal("1e-39")
    assert dec - Decimal("1e-39") <= Decimal(hi.numerator) / Decimal(hi.denominator)
    if b == 0:
        assert lo == hi == a


def test_scalar_coercion():
    assert Root2Scalar(1, 1) + 1 == Root2Scalar(2, 1)
    assert Fraction(1, 2) * Root2Scalar(2, 4) == Root2Scalar(1, 2)
    assert 3 - Root2Scalar(1, 0) == Root2Scalar(2, 0)


def test_serialization_roundtrip():
    x = Root2Scalar(Fraction(-3, 7), Fraction(5, 2))
    assert Root2Scalar.from_pair(x.to_pair()) == x
    assert x.to_pair() == ["-3/7", "5/2"]


@pytest.mark.parametrize("pair", [[True, "0/1"], ["1/2", 0.5], [0.0, 1], ["1/1", False]])
def test_from_pair_refuses_a_bool_or_float(pair):
    with pytest.raises(TypeError, match="must be a \"p/q\" string or an integer"):
        Root2Scalar.from_pair(pair)


def test_from_pair_reads_strings_and_integers():
    assert Root2Scalar.from_pair(["-3/7", 2]) == Root2Scalar(Fraction(-3, 7), 2)


def test_root2_scalar_keeps_fractions_and_converts_ints():
    third = Fraction(1, 3)
    x = Root2Scalar(third, third)
    assert x.a is third and x.b is third
    y = Root2Scalar(2, -1)
    assert type(y.a) is Fraction and type(y.b) is Fraction
    assert repr(y) == "Root2Scalar(Fraction(2, 1), Fraction(-1, 1))"
    assert str(y) == "2 + -1*sqrt(2)"


def test_fmt_rational_beyond_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert fmt_rational(Fraction(-(10**5000 + 7), 3)) == "-1" + "0" * 4999 + "7/3"
    assert fmt_rational(Fraction(1, 10**9000)) == "1/1" + "0" * 9000
    assert sys.get_int_max_str_digits() == limit


@given(st.integers(1, 12000), st.integers(), st.booleans())
def test_fmt_rational_of_long_numerators_is_exact(digits, seed, negative):
    n = (10 ** (digits - 1) + abs(seed)) * (-1 if negative else 1)
    num, den = fmt_rational(Fraction(n)).split("/")
    assert den == "1"
    assert Decimal(num) == Decimal(n)  # Decimal reads ints with no digit limit
    assert num.lstrip("-")[0] != "0"


@given(rationals)
def test_fmt_rational_is_numerator_slash_denominator(x):
    assert fmt_rational(x) == f"{x.numerator}/{x.denominator}"


def test_rational_helpers():
    assert fmt_rational(Fraction(3, 4)) == "3/4"
    assert Fraction(fmt_rational(Fraction(-3, 4))) == Fraction(-3, 4)  # reads back
    assert ceil_rational(Fraction(7, 2)) == 4
    assert ceil_rational(Fraction(-7, 2)) == -3
    assert ceil_rational(Fraction(4)) == 4
    assert ceil_inverse(Fraction(1, 10)) == 10
    assert ceil_inverse(Fraction(3, 10)) == 4
    assert ceil_sqrt_rational(Fraction(9)) == 3
    assert ceil_sqrt_rational(Fraction(10)) == 4
    assert ceil_sqrt_rational(Fraction(1, 2)) == 1
    assert ceil_sqrt_rational(Fraction(0)) == 0


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**6), max_denominator=1000))
def test_ceil_sqrt_is_least(x):
    t = ceil_sqrt_rational(x)
    assert t * t >= x
    if t > 0:
        assert (t - 1) * (t - 1) < x


def test_root2_scalar_refuses_assignment_and_deletion():
    x = Root2Scalar(Fraction(1, 2), 3)
    for name in ("a", "b"):
        value = getattr(x, name)
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) is value


def _integer_rows_by_attributes(rows):
    """``integer_rows`` read through ``numerator`` and ``denominator``."""
    rows = [list(row) for row in rows]
    D = lcm(*(v.denominator for row in rows for v in row))
    return D, [[v.numerator * (D // v.denominator) for v in row] for row in rows]


_EXACT = st.one_of(
    st.fractions(max_denominator=10**12), st.integers(-(10**30), 10**30), st.booleans()
)


@given(st.lists(st.lists(_EXACT, max_size=7), max_size=4))
def test_integer_rows_match_the_numerator_and_denominator_form(rows):
    D, scaled = integer_rows(rows)
    assert (D, scaled) == _integer_rows_by_attributes(rows)
    assert all(type(v) is int for row in scaled for v in row)
