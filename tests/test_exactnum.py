from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibclifford.exactnum import (
    ALPHA,
    BETA,
    ONE,
    SQRT5,
    ZERO,
    QSqrt5,
    alpha_pow,
    format_rat,
    parse_int,
    parse_rat,
)
from oracles import fib_naive, int_from_decimal, lucas_naive, sign_by_interval

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
elements = st.builds(QSqrt5, rationals, rationals)


# -- textual rational format ---------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("-3/2", Fraction(-3, 2)),
        ("7", Fraction(7)),
        ("0", Fraction(0)),
        ("-0", Fraction(0)),
        ("10/4", Fraction(5, 2)),
    ],
)
def test_parse_rat(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize(
    "bad", ["", "1.5", "+3", "3/0", "3/-2", "a", "1/2/3", "- 1", "1_0", "\u0663", "1/\u0663"]
)
def test_parse_rat_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


@pytest.mark.parametrize("text,value", [("0", 0), ("-12", -12), (" 7 ", 7), ("007", 7)])
def test_parse_int(text, value):
    assert parse_int(text) == value


@pytest.mark.parametrize("bad", ["", "+5", "1_0", "\u0663", "1/2", "1.0", "- 1", "0x10"])
def test_parse_int_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_int(bad)


@given(rationals)
def test_format_parse_roundtrip(x):
    assert parse_rat(format_rat(x)) == x


@pytest.mark.parametrize("value", [Fraction(-(3**9001), 7**5003), Fraction(10**6000), Fraction(0)])
def test_format_rat_past_int_str_limit(value):
    # 9001 * log10(3) and 5003 * log10(7) both exceed 4,300 digits
    num, _, den = format_rat(value).partition("/")
    assert Fraction(int_from_decimal(num), int_from_decimal(den or "1")) == value
    assert not num.lstrip("-").startswith("0") or num == "0"


# -- arithmetic examples -------------------------------------------------------


def test_alpha_times_beta_is_minus_one():
    assert ALPHA * BETA == QSqrt5(-1, 0)


def test_alpha_squared_is_alpha_plus_one():
    assert ALPHA * ALPHA == ALPHA + 1
    assert ALPHA * ALPHA == QSqrt5(Fraction(3, 2), Fraction(1, 2))


def test_inverse_of_alpha():
    inv = ONE / ALPHA
    assert inv == QSqrt5(Fraction(-1, 2), Fraction(1, 2))
    assert inv == ALPHA - 1
    # check by multiplying back
    assert ALPHA * inv == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == QSqrt5(5, 0)


# -- sign ------------------------------------------------------------------


@pytest.mark.parametrize(
    "element,expected",
    [
        (QSqrt5(0, 0), 0),
        (QSqrt5(1, -1), -1),  # sqrt(5) > 1
        (QSqrt5(-10, -5), -1),  # -5 - 10*alpha, rewritten in components
        (QSqrt5(-2, 1), 1),  # sqrt(5) > 2
        (QSqrt5(-9, 4), -1),  # 4*sqrt(5) < 9
        (QSqrt5(Fraction(9, 4), -1), 1),  # 9/4 > sqrt(5)
    ],
)
def test_sign_cases(element, expected):
    assert element.sign() == expected


def test_sign_matches_interval_oracle():
    rng = random.Random(501)
    for _ in range(1000):
        x = QSqrt5(
            Fraction(rng.randint(-40, 40), rng.randint(1, 15)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 15)),
        )
        assert x.sign() == sign_by_interval(x)


@given(elements)
def test_sign_consistent_with_negation(x):
    assert x.sign() == -(-x).sign()


# -- field axioms ----------------------------------------------------------


@given(elements, elements, elements)
def test_add_mul_associative(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


@given(elements, elements)
def test_commutative(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(elements, elements, elements)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(elements)
def test_additive_inverse(x):
    assert x + (-x) == ZERO
    assert x - x == ZERO


@given(elements)
def test_multiplicative_inverse(x):
    if x.is_zero():
        return
    assert x * x.inverse() == ONE
    assert x * (ONE / x) == ONE


@given(elements)
def test_conjugate_multiplies_to_rational(x):
    product = x * x.conjugate()
    assert product.b == 0
    assert product.a == x.a * x.a - 5 * x.b * x.b


# -- powers of the golden ratio ---------------------------------------------


def test_alpha_pow_base_cases():
    assert alpha_pow(0) == ONE
    assert alpha_pow(2) == QSqrt5(Fraction(3, 2), Fraction(1, 2))


def test_alpha_pow_ten_matches_recurrence_oracle():
    # L(10) = 123 and f(10) = 55 by the plain recurrences
    assert lucas_naive(10) == 123 and fib_naive(10) == 55
    assert alpha_pow(10) == QSqrt5(Fraction(123, 2), Fraction(55, 2))


def test_alpha_pow_matches_repeated_multiplication():
    acc = ONE
    for n in range(40):
        assert alpha_pow(n) == acc
        acc = acc * ALPHA


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_alpha_pow_is_multiplicative(m, n):
    assert alpha_pow(m + n) == alpha_pow(m) * alpha_pow(n)


def test_alpha_pow_rejects_negative():
    with pytest.raises(ValueError):
        alpha_pow(-1)


def test_negative_power_via_inverse():
    assert ALPHA**-1 == ALPHA - 1
    assert (ALPHA**-3) * (ALPHA**3) == ONE


# -- order and presentation ------------------------------------------------


def test_comparisons():
    assert BETA < ZERO < ALPHA
    assert QSqrt5(2, 0) < SQRT5 < QSqrt5(Fraction(9, 4), 0)
    assert abs(BETA) == -BETA


def test_str_forms():
    assert str(QSqrt5(Fraction(-3, 2), 0)) == "-3/2"
    assert str(SQRT5) == "sqrt(5)"
    assert str(QSqrt5(0, -2)) == "-2*sqrt(5)"
    assert str(QSqrt5(1, Fraction(1, 2))) == "1 + 1/2*sqrt(5)"


def test_json_roundtrip():
    x = QSqrt5(Fraction(-7, 3), Fraction(2, 9))
    data = x.to_json()
    assert data == {"a": "-7/3", "b": "2/9"}
    assert QSqrt5.from_json(data) == x


def test_as_rat():
    assert QSqrt5(Fraction(5, 4), 0).as_rat() == Fraction(5, 4)
    with pytest.raises(ValueError):
        ALPHA.as_rat()
