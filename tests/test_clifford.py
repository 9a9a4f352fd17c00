from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford.clifford import (
    CliffordClass,
    CliffordElement,
    DiagonalForm,
    blade_name,
    blade_product,
    classify,
    fibonacci_form,
    quaternion_isomorphism,
    rank2_class,
)
from fibclifford.errors import DegenerateFormError, MixedFormsError
from fibclifford.fibquat import growth_discriminant
from fibclifford.quat import AlgebraParams, Quaternion, is_division_algebra
from conftest import CLASS_FIXTURES
from oracles import (
    blade_product_rewrite,
    blade_table_is_quaternion_table,
    clifford_mul_reference,
    rank2_as_quaternion,
)

NEG_NEG = DiagonalForm((-1, -1))
POS_POS = DiagonalForm((1, 1))

nonzero_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8).filter(
    lambda r: r != 0
)
# numerators and denominators of up to 30 digits
wide_rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)


# -- forms ---------------------------------------------------------------------


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateFormError):
        DiagonalForm((1, 0))


def test_rank_cap():
    with pytest.raises(ValueError):
        DiagonalForm((-1,) * 17)


def test_dimension_is_two_to_the_rank():
    assert DiagonalForm(()).dim == 1
    assert DiagonalForm((-1,)).dim == 2
    assert DiagonalForm((-1, -1)).dim == 4
    for rank in range(9):
        assert DiagonalForm((-1,) * rank).dim == 2**rank


# -- blade products ---------------------------------------------------------------


def test_generator_squares_to_its_diagonal_entry():
    form = DiagonalForm((Fraction(7, 2), -3))
    assert blade_product(0b01, 0b01, form) == (Fraction(7, 2), 0)
    assert blade_product(0b10, 0b10, form) == (Fraction(-3), 0)


def test_ordered_product_has_no_sign():
    form = DiagonalForm((2, 5))
    assert blade_product(0b01, 0b10, form) == (1, 0b11)
    assert blade_product(0b10, 0b01, form) == (-1, 0b11)


def test_top_blade_squares():
    form = DiagonalForm((Fraction(3), Fraction(-7, 3)))
    # e1e2 * e1e2 = -(e1^2)(e2^2)
    assert blade_product(0b11, 0b11, form) == (Fraction(7), 0)
    assert blade_product(0b11, 0b11, NEG_NEG) == (-1, 0)


@pytest.mark.parametrize(
    "squares",
    [
        (-1, -1, -1, -1),
        (Fraction(2), Fraction(-1, 2), Fraction(5, 3), Fraction(-7)),
    ],
)
def test_blade_products_match_rewriting_oracle(squares):
    form = DiagonalForm(squares)
    for rank in range(1, 5):
        sub = DiagonalForm(squares[:rank])
        for a in range(sub.dim):
            for b in range(sub.dim):
                assert blade_product(a, b, sub) == blade_product_rewrite(a, b, squares[:rank])
    assert form.dim == 16


def test_blade_names():
    assert blade_name(0) == "1"
    assert blade_name(0b101) == "e1e3"


# -- element arithmetic -------------------------------------------------------------


def test_unit_element():
    form = DiagonalForm((2, -3, 5))
    one = CliffordElement.one(form)
    x = CliffordElement(form, tuple(Fraction(k) for k in range(8)))
    assert one * x == x
    assert x * one == x


def test_generators_anticommute():
    e1 = CliffordElement.generator(NEG_NEG, 1)
    e2 = CliffordElement.generator(NEG_NEG, 2)
    assert (e1 * e2 + e2 * e1).is_zero()


def test_mixed_forms_rejected():
    x = CliffordElement.one(NEG_NEG)
    y = CliffordElement.one(POS_POS)
    with pytest.raises(MixedFormsError):
        x * y
    with pytest.raises(MixedFormsError):
        x + y


def test_domain_errors_name_their_inputs():
    form = DiagonalForm((Fraction(-1, 2), 3))
    with pytest.raises(MixedFormsError, match=r"over diag\(-1/2, 3\) and diag\(1, 1\)$"):
        CliffordElement.one(form) * CliffordElement.one(POS_POS)
    with pytest.raises(ValueError, match=r"^blade mask 4 out of range for rank 2$"):
        blade_product(1, 4, form)
    with pytest.raises(ValueError, match=r"^blade mask -1 out of range for rank 2$"):
        blade_product(-1, 0, form)
    with pytest.raises(ValueError, match=r"^blade mask 7 out of range for rank 2$"):
        CliffordElement.blade(form, 7)


@settings(max_examples=40)
@given(st.data())
def test_multiplication_associative_rank3(data):
    form = DiagonalForm((-1, 2, Fraction(-1, 2)))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    triple = [
        CliffordElement(form, tuple(data.draw(coeffs) for _ in range(form.dim)))
        for _ in range(3)
    ]
    x, y, z = triple
    assert (x * y) * z == x * (y * z)


def assert_product_matches_reference(x: CliffordElement, y: CliffordElement) -> None:
    assert x * y == clifford_mul_reference(x, y)


def seeded_dense_pair(rank: int, seed: int) -> tuple[CliffordElement, CliffordElement]:
    """Two elements with every blade nonzero, over squares of both signs
    with denominators."""
    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))

    form = DiagonalForm(tuple(rational() for _ in range(rank)))
    x, y = (CliffordElement(form, tuple(rational() for _ in range(form.dim))) for _ in range(2))
    return x, y


@st.composite
def element_pairs(draw) -> tuple[CliffordElement, CliffordElement]:
    rank = draw(st.integers(0, 6))
    form = DiagonalForm(tuple(draw(nonzero_rationals) for _ in range(rank)))

    def element() -> CliffordElement:
        # a sparse support, or every blade with some of them zero
        support = draw(st.sets(st.integers(0, form.dim - 1)) | st.just(range(form.dim)))
        coeffs = [Fraction(0)] * form.dim
        for mask in support:
            coeffs[mask] = draw(st.just(Fraction(0)) | wide_rationals)
        return CliffordElement(form, tuple(coeffs))

    return element(), element()


@settings(max_examples=80, deadline=None)
@given(element_pairs())
def test_product_matches_word_rewriting_reference(pair):
    assert_product_matches_reference(*pair)


def test_dense_rank7_product_matches_word_rewriting_reference():
    assert_product_matches_reference(*seeded_dense_pair(7, seed=7))


def test_element_str():
    x = CliffordElement(NEG_NEG, (Fraction(1), Fraction(-2), Fraction(0), Fraction(1, 2)))
    assert str(x) == "1 - 2*e1 + 1/2*e1e2"


# -- quaternion identification --------------------------------------------------------


def test_negative_definite_form_gives_hamilton_quaternions():
    params = quaternion_isomorphism(NEG_NEG)
    assert params == AlgebraParams(1, 1)
    assert blade_table_is_quaternion_table(NEG_NEG)
    # entry-for-entry: blade products map onto the quaternion table
    images = Quaternion.basis(params)
    for i in range(4):
        for j in range(4):
            coeff, mask = blade_product(i, j, NEG_NEG)
            assert images[mask] * coeff == images[i] * images[j]


def test_positive_definite_form_gives_split_model():
    assert quaternion_isomorphism(POS_POS) == AlgebraParams(-1, -1)
    assert blade_table_is_quaternion_table(POS_POS)


def test_fibonacci_form_model():
    form = DiagonalForm((-4, -11))
    assert quaternion_isomorphism(form) == AlgebraParams(4, 11)
    assert blade_table_is_quaternion_table(form)


def test_model_applies_linearly():
    x = CliffordElement(NEG_NEG, (1, 2, 3, 4))
    y = CliffordElement(NEG_NEG, (0, -1, 1, Fraction(1, 2)))
    assert rank2_as_quaternion(x * y) == rank2_as_quaternion(x) * rank2_as_quaternion(y)


# -- rank-2 classification --------------------------------------------------------------


@pytest.mark.parametrize(
    "squares,expected",
    [
        ((-1, -1), CliffordClass.DIVISION),
        ((1, 1), CliffordClass.SPLIT),
        ((1, -1), CliffordClass.SPLIT),
        ((-4, -11), CliffordClass.DIVISION),
        ((19, 41), CliffordClass.SPLIT),
    ],
)
def test_rank2_class(squares, expected):
    assert rank2_class(DiagonalForm(squares)) is expected


@settings(max_examples=60)
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_rank2_class_invariant_under_square_scaling(a, b, x, y):
    original = rank2_class(DiagonalForm((a, b)))
    scaled = rank2_class(DiagonalForm((x * x * a, y * y * b)))
    assert original is scaled


def test_rank2_class_requires_rank_two():
    with pytest.raises(ValueError):
        rank2_class(DiagonalForm((-1,)))


# -- the Fibonacci space form ----------------------------------------------------------


def test_fibonacci_form_values():
    assert fibonacci_form(0, AlgebraParams(1, -1)).squares == (-4, -11)
    assert fibonacci_form(0, AlgebraParams(-2, -3)).squares == (19, 41)


def test_fibonacci_form_degenerate_basepoint():
    with pytest.raises(DegenerateFormError):
        fibonacci_form(0, AlgebraParams(Fraction(-1, 2), Fraction(-1, 2)))


# -- end-to-end classification -----------------------------------------------------------


@pytest.mark.parametrize(
    "params,clifford_class,canonical,n_prime,sign",
    [
        (AlgebraParams(1, -1), CliffordClass.DIVISION, "H(1,1)", 0, -1),
        (AlgebraParams(-2, -3), CliffordClass.SPLIT, "H(-1,-1)", 0, 1),
        (AlgebraParams(2, -3), CliffordClass.DIVISION, "H(1,1)", 0, -1),
        (
            AlgebraParams(Fraction(-1, 2), Fraction(-1, 2)),
            CliffordClass.SPLIT,
            "H(-1,-1)",
            1,
            1,
        ),
    ],
)
def test_classify_fixtures(params, clifford_class, canonical, n_prime, sign):
    report = classify(params)
    assert report.clifford_class is clifford_class
    assert report.canonical == canonical
    assert report.certificate.n_prime == n_prime
    assert report.discriminant_sign == sign
    assert report.discriminant == growth_discriminant(params)
    assert report.input_is_division is is_division_algebra(params)


def test_division_input_classifies_split():
    report = classify(AlgebraParams(2, 2))
    assert report.input_is_division is True
    assert report.clifford_class is CliffordClass.SPLIT


@settings(max_examples=60)
@given(
    st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9),
    st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9),
)
def test_division_inputs_always_split(b1, b2):
    report = classify(AlgebraParams(b1, b2))
    assert report.input_is_division is True
    assert report.clifford_class is CliffordClass.SPLIT
    assert report.canonical == "H(-1,-1)"


def test_classify_report_details():
    report = classify(AlgebraParams(1, -1))
    assert report.basepoint == 0
    assert report.form.squares == (-4, -11)
    assert report.scaling_witness == (4, 11)
    assert report.quaternion_model == AlgebraParams(4, 11)


def test_classify_with_seeds():
    report = classify(AlgebraParams(Fraction(-1, 2), Fraction(-1, 2)), 0, 1)
    assert report.seeds == (0, 1)
    assert report.seeded_certificate.n_prime == 1
    assert report.certificate.n_prime == 1
    data = report.to_json()
    assert data["p"] == 0 and data["q"] == 1
    assert data["seeded_n_prime"] == 1


def test_classify_seed_validation():
    with pytest.raises(ValueError):
        classify(AlgebraParams(1, -1), 1, None)


def test_classification_report_json_schema():
    data = classify(AlgebraParams(1, -1)).to_json()
    assert data == {
        "beta1": "1",
        "beta2": "-1",
        "E": {"a": "-2", "b": "-1"},
        "sign_E": -1,
        "input_is_division": False,
        "n_prime": 0,
        "form": ["-4", "-11"],
        "clifford_class": "Division",
        "canonical": "H(1,1)",
        "scaling_witness": ["4", "11"],
    }


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_classified_form_entries_are_nonzero_with_stable_sign(params):
    report = classify(params)
    assert rank2_class(report.form) is report.clifford_class
    for entry in report.form.squares:
        assert (entry > 0) == (report.discriminant_sign > 0)
