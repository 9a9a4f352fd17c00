from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford.exactnum import ALPHA, QSqrt5
from fibclifford.fib import HoradamParams, binet, fib, fib_pair, horadam, lucas
from oracles import fib_naive, horadam_naive, lucas_naive


def test_fib_small_values():
    assert [fib(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    assert fib(1) == 1


def test_fib_hundred():
    assert fib(100) == fib_naive(100) == 354224848179261915075


def test_fast_doubling_matches_naive():
    a, b = 0, 1
    for n in range(1001):
        assert fib(n) == a
        a, b = b, a + b


def test_fib_pair():
    for n in (0, 1, 2, 17, 90):
        assert fib_pair(n) == (fib_naive(n), fib_naive(n + 1))


def test_lucas_values():
    assert lucas(0) == 2
    assert lucas(5) == lucas_naive(5) == 11
    assert lucas(10) == lucas_naive(10) == 123
    for n in range(200):
        assert lucas(n) == lucas_naive(n)


@pytest.mark.parametrize("bad_call", [lambda: fib(-1), lambda: lucas(-3), lambda: binet(-2)])
def test_negative_indices_rejected(bad_call):
    with pytest.raises(ValueError):
        bad_call()


def test_horadam_fibonacci_case():
    seeds = HoradamParams(0, 1)
    for n in range(80):
        assert horadam(n, seeds) == fib(n)


def test_horadam_examples():
    # 2, 3, 5, 8, 13, 21 ...
    assert horadam(5, HoradamParams(2, 3)) == horadam_naive(5, 2, 3) == 21
    # 1, 1, 2, 3, 5 ...
    assert horadam(4, HoradamParams(1, 1)) == horadam_naive(4, 1, 1) == 5


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_horadam_matches_recurrence_oracle(n, p, q):
    assert horadam(n, HoradamParams(p, q)) == horadam_naive(n, p, q)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
def test_horadam_is_fibonacci_combination(n, p, q):
    assert horadam(n + 1, HoradamParams(p, q)) == p * fib(n) + q * fib(n + 1)


def test_horadam_rejects_non_integer_seeds():
    with pytest.raises(TypeError):
        HoradamParams(Fraction(1, 2), 1)
    with pytest.raises(TypeError):
        HoradamParams(True, 1)
    with pytest.raises(ValueError):
        horadam(-1, HoradamParams(1, 2))


def test_binet_small_values():
    assert binet(0) == QSqrt5(0, 0)
    assert binet(5) == QSqrt5(5, 0)


def test_binet_fifty():
    assert binet(50) == QSqrt5(Fraction(fib_naive(50)), 0)
    assert fib_naive(50) == 12586269025


def test_binet_embeds_fib():
    for n in range(120):
        assert binet(n) == QSqrt5(Fraction(fib(n)), 0)


def test_alpha_pow_is_half_lucas_plus_fib_root5():
    for n in range(201):
        expected = QSqrt5(Fraction(lucas(n), 2), Fraction(fib(n), 2))
        assert ALPHA**n == expected
