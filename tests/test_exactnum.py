from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibclifford.clifford import CliffordElement, DiagonalForm
from fibclifford.errors import LiteralTooLongError
from fibclifford.exactnum import (
    ALPHA,
    BETA,
    MAX_LITERAL_DIGITS,
    ONE,
    SQRT5,
    ZERO,
    QSqrt5,
    _sign_z5,
    _to_rat,
    format_rat,
    parse_int,
    parse_rat,
)
from fibclifford.fibquat import FibSpaceVector
from fibclifford.quat import AlgebraParams, Quaternion, scale_isomorphism
from oracles import fib_naive, int_from_decimal, lucas_naive, sign_by_interval

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
elements = st.builds(QSqrt5, rationals, rationals)
rationals_and_ints = st.one_of(rationals, st.integers(min_value=-50, max_value=50))


# -- exact coercion -------------------------------------------------------------

H11 = AlgebraParams(1, 1)
RANK1 = DiagonalForm((-1,))


def test_to_rat_passes_fractions_through_and_wraps_ints():
    x = Fraction(3, 7)
    assert _to_rat(x) is x
    assert _to_rat(-5) == Fraction(-5) and type(_to_rat(-5)) is Fraction


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", Decimal("0.1"), None])
def test_to_rat_rejects_inexact_and_textual_values(bad):
    with pytest.raises(TypeError):
        _to_rat(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DiagonalForm((0.1, -1)),
        lambda: CliffordElement(RANK1, (Fraction(1), 0.5)),
        lambda: CliffordElement.blade(RANK1, 1, 0.5),
        lambda: AlgebraParams(0.5, 1),
        lambda: Quaternion(H11, 1, 0.5, 0, 0),
        lambda: Quaternion.from_coeffs(H11, ("1", 0, 0, 0)),
        lambda: scale_isomorphism(H11, 0.5, 1),
        lambda: QSqrt5(Decimal("0.5"), 0),
        lambda: FibSpaceVector(0, 0.1, "1/3"),
        lambda: FibSpaceVector(1.5, 1, 2),
        lambda: FibSpaceVector("2", 1, 2),
        lambda: format_rat(0.1),
        # the operators reject a float operand as well
        lambda: ALPHA + 1.5,
        lambda: 1.5 - ALPHA,
        lambda: ALPHA - 1.5,
        lambda: ALPHA * 1.5,
        lambda: ALPHA / 1.5,
        lambda: 1.5 / ALPHA,
        lambda: ALPHA**1.5,
        lambda: ALPHA < 1.5,
        lambda: FibSpaceVector(0, 1, 2) + 1.5,
        lambda: FibSpaceVector(0, 1, 2) - 1.5,
        lambda: 1.5 * FibSpaceVector(0, 1, 2),
    ],
    ids=[
        "form",
        "element",
        "blade",
        "params",
        "quaternion",
        "from-coeffs",
        "scale",
        "qsqrt5",
        "vector",
        "vector-float-basepoint",
        "vector-text-basepoint",
        "format-rat",
        "qsqrt5-add",
        "qsqrt5-rsub",
        "qsqrt5-sub",
        "qsqrt5-mul",
        "qsqrt5-div",
        "qsqrt5-rdiv",
        "qsqrt5-pow",
        "qsqrt5-lt",
        "vector-add",
        "vector-sub",
        "vector-rmul",
    ],
)
def test_constructors_reject_floats_strings_and_decimals(build):
    with pytest.raises(TypeError):
        build()


def test_constructors_accept_ints_as_fractions():
    values = (
        DiagonalForm((2, -3)).squares
        + CliffordElement(RANK1, (1, -2)).coeffs
        + (AlgebraParams(2, -3).beta1, AlgebraParams(2, -3).beta2)
        + Quaternion(H11, 1, 2, 3, 4).coeffs
        + (QSqrt5(1, -2).a, QSqrt5(1, -2).b)
    )
    assert values == (2, -3, 1, -2, 2, -3, 1, 2, 3, 4, 1, -2)
    assert all(type(v) is Fraction for v in values)


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


def test_literal_digit_cap():
    cap = MAX_LITERAL_DIGITS
    assert cap < 4300  # CPython's default limit on str-to-int conversion
    assert parse_int("-" + "9" * cap) == 1 - 10**cap
    assert parse_rat("1/" + "7" * cap) == Fraction(1, int("7" * cap))
    for parse, text, digits in (
        (parse_int, "9" * (cap + 1), cap + 1),
        (parse_rat, "-" + "9" * (cap + 1), cap + 1),
        (parse_rat, "1/" + "9" * (cap + 1), cap + 1),
        (parse_rat, "9" * 5000 + "/7", 5000),
    ):
        with pytest.raises(LiteralTooLongError) as excinfo:
            parse(text)
        assert isinstance(excinfo.value, ValueError)
        assert str(excinfo.value) == f"{digits}-digit integer exceeds the cap of {cap} digits"


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


def test_integer_sign_on_every_small_pair():
    """Every sign pattern of x + y*sqrt(5), including the units and zero
    that random draws from wide ranges seldom hit."""
    for x in range(-2, 3):
        for y in range(-2, 3):
            assert _sign_z5(x, y) == sign_by_interval(QSqrt5(x, y)), (x, y)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_sign_of_unit_fractions(d):
    for s in (1, -1):
        u = Fraction(s, d)
        for x in (QSqrt5(u, 0), QSqrt5(0, u), QSqrt5(u, u), QSqrt5(u, -u)):
            assert x.sign() == sign_by_interval(x), x


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
    assert 0 - x == -x


@given(elements)
def test_multiplicative_inverse(x):
    assert bool(x) is not x.is_zero()
    if x.is_zero():
        return
    assert x * x.inverse() == ONE
    assert x * (ONE / x) == ONE
    assert Fraction(2, 3) / x == x.inverse() * Fraction(2, 3)


@given(elements)
def test_conjugate_multiplies_to_rational(x):
    product = x * x.conjugate()
    assert product.b == 0
    assert product.a == x.a * x.a - 5 * x.b * x.b


# -- powers of the golden ratio ---------------------------------------------


def test_alpha_pow_base_cases():
    assert ALPHA**0 == ONE
    assert ALPHA**2 == QSqrt5(Fraction(3, 2), Fraction(1, 2))


def test_alpha_pow_ten_matches_recurrence_oracle():
    # L(10) = 123 and f(10) = 55 by the plain recurrences
    assert lucas_naive(10) == 123 and fib_naive(10) == 55
    assert ALPHA**10 == QSqrt5(Fraction(123, 2), Fraction(55, 2))


def test_alpha_pow_matches_repeated_multiplication():
    acc = ONE
    for n in range(40):
        assert ALPHA**n == acc
        acc = acc * ALPHA


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_alpha_pow_is_multiplicative(m, n):
    assert ALPHA ** (m + n) == ALPHA**m * ALPHA**n


def test_negative_power_via_inverse():
    assert ALPHA**-1 == ALPHA - 1
    assert (ALPHA**-3) * (ALPHA**3) == ONE


# -- order and presentation ------------------------------------------------


def test_comparisons():
    assert BETA < ZERO < ALPHA
    assert (ALPHA == 1.5) is False and (ONE != 1.0) is True
    assert QSqrt5(2, 0) < SQRT5 < QSqrt5(Fraction(9, 4), 0)
    assert abs(BETA) == -BETA


@given(
    st.one_of(elements, rationals.map(QSqrt5.from_rat)),
    rationals_and_ints,
    elements,
)
def test_equality_hash_and_order_agree_with_the_sign(x, r, y):
    """A rational is the element with a zero sqrt(5) part, for ``==``, the
    hash and the order alike, and every comparison is the sign of the
    difference."""
    assert (x == r) == (x <= r and x >= r) == (x.b == 0 and x.a == r)
    assert (r == x) == (x == r) and (x != r) == (not x == r)
    assert hash(QSqrt5.from_rat(r)) == hash(r)
    assert len({QSqrt5.from_rat(r), r}) == 1
    s = (x - y).sign()
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y) == (s == 0)


def test_str_forms():
    assert str(QSqrt5(Fraction(-3, 2), 0)) == "-3/2"
    assert str(SQRT5) == "sqrt(5)"
    assert str(QSqrt5(0, -2)) == "-2*sqrt(5)"
    assert str(QSqrt5(1, Fraction(1, 2))) == "1 + 1/2*sqrt(5)"


def test_json_roundtrip():
    x = QSqrt5(Fraction(-7, 3), Fraction(2, 9))
    data = x.to_json()
    assert data == {"a": "-7/3", "b": "2/9"}


def test_as_rat():
    assert QSqrt5(Fraction(5, 4), 0).as_rat() == Fraction(5, 4)
    with pytest.raises(ValueError):
        ALPHA.as_rat()
