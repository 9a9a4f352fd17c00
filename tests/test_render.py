"""Every signed sum of basis terms reads back to the coefficients it renders.

``QSqrt5``, ``Quaternion`` and ``CliffordElement`` print as ``c1*name1 +
c2*name2 + ...`` in basis order.  ``oracles.parse_signed_sum`` reads the text
back independently; it rejects zero terms, doubled signs, ``1*`` and
unreduced coefficients, so a round trip also pins the canonical form.
"""

from __future__ import annotations

import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford.clifford import CliffordElement, DiagonalForm
from fibclifford.exactnum import QSqrt5
from fibclifford.quat import AlgebraParams, Quaternion
from oracles import parse_signed_sum

# zeros and unit magnitudes drawn often, next to proper fractions of both signs
coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
)
nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))

# an explicit coefficient of exactly 1: "1*" not preceded by a digit or "/"
_UNIT_COEFF = re.compile(r"(?<![0-9/])1\*")


def check_rendering(text: str, names: list[str], coeffs: list[Fraction]) -> None:
    expected = {name: c for name, c in zip(names, coeffs) if c}
    parsed = parse_signed_sum(text)
    assert parsed == expected
    assert list(parsed) == list(expected), "terms out of basis order"
    assert "+ -" not in text and "- -" not in text
    assert not _UNIT_COEFF.search(text)
    assert (text == "0") == (not expected)


@settings(max_examples=200)
@given(coefficients, coefficients)
def test_qsqrt5_renders_its_coefficients(a, b):
    x = QSqrt5(a, b)
    check_rendering(str(x), ["1", "sqrt(5)"], [a, b])
    assert (str(x) == "0") == x.is_zero()


@settings(max_examples=200)
@given(nonzero, nonzero, st.lists(coefficients, min_size=4, max_size=4))
def test_quaternion_renders_its_coefficients(b1, b2, coeffs):
    x = Quaternion.from_coeffs(AlgebraParams(b1, b2), coeffs)
    check_rendering(str(x), ["1", "e2", "e3", "e4"], coeffs)
    assert (str(x) == "0") == x.is_zero()


@st.composite
def clifford_elements(draw):
    rank = draw(st.integers(0, 5))
    squares = draw(st.lists(nonzero, min_size=rank, max_size=rank))
    coeffs = draw(st.lists(coefficients, min_size=1 << rank, max_size=1 << rank))
    return CliffordElement(DiagonalForm(tuple(squares)), tuple(coeffs))


def blade_names(rank: int) -> list[str]:
    return [
        "".join(f"e{k + 1}" for k in range(rank) if mask >> k & 1) or "1"
        for mask in range(1 << rank)
    ]


@settings(max_examples=200)
@given(clifford_elements())
def test_clifford_element_renders_its_coefficients(x):
    check_rendering(str(x), blade_names(x.form.rank), list(x.coeffs))
    assert (str(x) == "0") == x.is_zero()


def test_parser_rejects_non_canonical_text():
    for text in ("", "1 +", "+ e2", "1 + -e2", "1*e2", "0 + e2", "2/4*e2", "3/1",
                 "e2 + e2", "--1", "1 - 0*e2", "02"):
        try:
            parse_signed_sum(text)
        except ValueError:
            continue
        raise AssertionError(f"accepted {text!r}")
    assert parse_signed_sum("-3/2 + e2 - 11*e1e3") == {
        "1": Fraction(-3, 2), "e2": Fraction(1), "e1e3": Fraction(-11),
    }
