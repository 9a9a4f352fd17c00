from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford import quat
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
        (
            Fraction(-42175768170419212686, 49421234342225077829),
            Fraction(-97100878091797292562, 82420703706658873041),
            Fraction(-80480886801968493729, 51048959671046891887),
            Fraction(27254371561521313431, 31850272587231465911),
        ),
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


def test_subtraction_across_forms_rejected():
    x = CliffordElement.one(NEG_NEG)
    y = CliffordElement.one(POS_POS)
    message = r"^cannot combine elements over diag\(-1, -1\) and diag\(1, 1\)$"
    with pytest.raises(MixedFormsError, match=message):
        x - y


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
    with pytest.raises(ValueError, match=r"^need 4 blade coefficients, got 3$"):
        CliffordElement(form, (1, 2, 3))
    for i in (0, 3):
        with pytest.raises(ValueError, match=rf"^generator index {i} out of range 1\.\.2$"):
            CliffordElement.generator(form, i)
    # each mask at both ends of its range, the other one in range or not:
    # the message names the first mask out of range
    for mask_a, mask_b, bad in (
        (4, 0, 4), (0, 4, 4), (3, 4, 4), (4, 3, 4), (0, -1, -1), (4, -1, 4), (-1, 4, -1),
    ):
        with pytest.raises(ValueError, match=rf"^blade mask {bad} out of range for rank 2$"):
            blade_product(mask_a, mask_b, form)
    for mask in (-1, -6):
        with pytest.raises(ValueError, match=rf"^blade mask {mask} is negative$"):
            blade_name(mask)


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


# Squares of both signs, with denominators, whose parts are small enough for
# dense products with small coefficients to take packed rows at every rank.
SMALL_SQUARES = tuple(Fraction(n, d) for n in (-5, -3, -2, -1, 1, 2, 3, 5) for d in (1, 2, 3))
small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(
    lambda r: r != 0
)


@st.composite
def small_dense_pairs(draw) -> tuple[CliffordElement, CliffordElement]:
    """Every blade nonzero, with small coefficients and squares."""
    rank = draw(st.integers(0, 8))
    form = DiagonalForm(tuple(draw(st.sampled_from(SMALL_SQUARES)) for _ in range(rank)))
    x, y = (
        CliffordElement(form, tuple(draw(small_coeffs) for _ in range(form.dim)))
        for _ in range(2)
    )
    return x, y


def small_dense_pair(rank: int, seed: int) -> tuple[CliffordElement, CliffordElement]:
    """Two elements with every blade nonzero, coefficients of at most one
    digit over 1..4 and squares from ``SMALL_SQUARES``."""
    rng = random.Random(seed)
    form = DiagonalForm(tuple(rng.choice(SMALL_SQUARES) for _ in range(rank)))

    def coeff() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    x, y = (CliffordElement(form, tuple(coeff() for _ in range(form.dim))) for _ in range(2))
    return x, y


def packed_row_calls(monkeypatch) -> list:
    """Record each call of ``quat._packed_rows`` from here on."""
    calls = []
    original = quat._packed_rows

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quat, "_packed_rows", recorded)
    return calls


def packed_rows_product(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """``x * y`` from ``quat._packed_rows`` alone, whichever strategy
    ``quat._product`` picks for the pair."""
    xs = [(i, a) for i, a in enumerate(x.nums) if a]
    parts = [(s.numerator, s.denominator) for s in x.form.squares]
    den = x.den * y.den * prod(d for _, d in parts)
    slots = quat._packed_rows(parts, xs, y.nums)
    return CliffordElement(x.form, tuple(Fraction(v, den) for v in slots))


@settings(max_examples=30, deadline=None)
@given(small_dense_pairs())
def test_small_dense_product_matches_word_rewriting_reference(pair):
    assert_product_matches_reference(*pair)


@pytest.mark.parametrize("rank", [3, 4, 8])
def test_small_dense_product_takes_packed_rows_from_rank_4(monkeypatch, rank):
    x, y = small_dense_pair(rank, seed=rank)
    calls = packed_row_calls(monkeypatch)
    assert_product_matches_reference(x, y)
    assert len(calls) == (rank >= 4)


def test_wide_and_sparse_products_stay_on_the_pair_loop(monkeypatch):
    calls = packed_row_calls(monkeypatch)
    assert_product_matches_reference(*seeded_dense_pair(5, seed=5))
    x, y = small_dense_pair(5, seed=5)
    sparse = CliffordElement(y.form, y.coeffs[:8] + (Fraction(0),) * 24)
    assert_product_matches_reference(x, sparse)
    assert calls == []


@pytest.mark.parametrize("count,packed", [(32, False), (33, True)])
def test_rank9_strategies_agree_on_each_side_of_the_rule(monkeypatch, count, packed):
    """At rank 9 a dense left operand takes packed rows once the right one
    has more than 512 / 16 = 32 nonzero blades.  Each side of that line is
    checked against the other strategy: packed rows called directly, and
    the pair loop through slices of ``y`` of 16 blades each, which multiply
    on it and add up to ``x * y``."""
    x, y = small_dense_pair(9, seed=9)
    y = CliffordElement(y.form, y.coeffs[:count] + (Fraction(0),) * (512 - count))
    calls = packed_row_calls(monkeypatch)
    whole = x * y
    assert len(calls) == packed
    calls.clear()
    slices = [
        CliffordElement(y.form, tuple(c if m >> 4 == block else 0 for m, c in enumerate(y.coeffs)))
        for block in range(32)
    ]
    assert sum((x * part for part in slices), CliffordElement.zero(y.form)) == whole
    assert calls == []
    assert packed_rows_product(x, y) == whole


@pytest.mark.parametrize("rank", [*range(1, 11), 13])
def test_packed_rows_match_the_pair_loop(rank):
    """The slots of ``quat._packed_rows`` equal those of ``quat._pair_loop``
    with a dense y: for an x on the low generators only (the rows level
    holds one row), on the high ones only (the Horner pass has one leaf),
    sparse, and dense; and, over squares of +-1, for dense pairs whose slot
    0 adds |a_i| * b over every blade with one sign, to between 2^62 and
    2^63 in magnitude, where the bound of ``quat._product`` only just
    admits the pair.  Rank 13 splits its generators 7 + 6, to hold at most
    64 rows."""
    rng = random.Random(rank)
    dim = 1 << rank
    low = (1 << max(rank // 2, rank - 6)) - 1

    def coeffs(masks) -> list[tuple[int, int]]:
        return [(i, rng.choice((-1, 1)) * rng.randint(1, 99)) for i in sorted(masks)]

    def sample(masks, count: int = 24) -> list[int]:
        masks = list(masks)
        return rng.sample(masks, min(len(masks), count))

    def dense(ys: list[tuple[int, int]]) -> tuple[int, ...]:
        nums = [0] * dim
        for j, b in ys:
            nums[j] = b
        return tuple(nums)

    parts = [(s.numerator, s.denominator) for s in rng.choices(SMALL_SQUARES, k=rank)]
    ys = coeffs(range(dim))
    for xs in (
        coeffs(sample(i for i in range(dim) if not i & ~low)),
        coeffs(sample(i for i in range(dim) if not i & low)),
        coeffs(sample(range(dim), 5)),
        coeffs(range(dim)) if rank <= 10 else [],
    ):
        if xs:
            assert quat._packed_rows(parts, xs, dense(ys)) == tuple(
                quat._pair_loop(parts, xs, ys, {})
            )
    if rank > 10:
        return
    units = tuple(Fraction(rng.choice((-1, 1))) for _ in range(rank))
    parts = [(s.numerator, 1) for s in units]
    xs = coeffs(range(dim))
    b = ((1 << 63) - 1) // sum(abs(a) for _, a in xs)
    for sign in (1, -1):
        # e_i * e_i = +-1, so every term a_i * b_i of slot 0 has the sign ``sign``
        ys = [(i, sign * b * (1 if a > 0 else -1) * int(blade_product_rewrite(i, i, units)[0]))
              for i, a in xs]
        slots = quat._packed_rows(parts, xs, dense(ys))
        assert slots == tuple(quat._pair_loop(parts, xs, ys, {}))
        assert 1 << 62 <= sign * slots[0] < 1 << 63


@pytest.mark.parametrize(
    "square,scale,packed",
    [(1, 1 << 59, False), (1, (1 << 59) - 1, True), (2, -(-(1 << 63) // 81), False)],
    ids=["slot-at-2^63", "slot-below-2^63", "squares-of-2"],
)
def test_products_at_the_63_bit_bound(monkeypatch, square, scale, packed):
    """Rank 4, squares (s, -s, s, -s), every blade of x equal to 1 and
    y_i = scale * sign(e_i * e_i): the 16 terms of slot 0 all add, to
    scale * sum_i |e_i * e_i|, which is 16 * scale for s = 1 and
    3^4 * scale = 81 * scale for s = 2.  A packed field holds only slots
    below 2^63, and the admission bound 16 * scale * s^4 is 2^63 exactly in
    the first case and above it in the third, whose slot passes 2^63 while
    16 * scale alone stays below; so both take the pair loop, and the
    second, 16 below 2^63, takes packed rows."""
    squares = (square, -square, square, -square)
    form = DiagonalForm(squares)
    x = CliffordElement(form, (1,) * 16)
    signs = [1 if blade_product_rewrite(i, i, squares)[0] > 0 else -1 for i in range(16)]
    y = CliffordElement(form, [scale * sign for sign in signs])
    calls = packed_row_calls(monkeypatch)
    z = x * y
    assert z == clifford_mul_reference(x, y)
    assert z.coeffs[0] == scale * (16 if square == 1 else 81)
    assert len(calls) == packed


def test_packed_rows_match_for_both_signs_on_one_layout(monkeypatch):
    """A dense rank-5 pair and the same pair over the negated squares both
    take packed rows and match the reference, on the one cached layout of
    32 fields: its masks do not depend on the squares or their signs."""
    x, y = small_dense_pair(5, seed=5)
    negated = DiagonalForm(tuple(-s for s in x.form.squares))
    over_negated = [CliffordElement(negated, v.coeffs) for v in (x, y)]
    quat._layout.cache_clear()
    calls = packed_row_calls(monkeypatch)
    for pair in ((x, y), over_negated):
        assert_product_matches_reference(*pair)
    assert len(calls) == 2
    assert quat._layout.cache_info().currsize == 1


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


def test_quaternion_and_rank2_element_agree_on_every_shared_operation(rng):
    """Quaternions of H(b1, b2) and elements of Cl(diag(-b1, -b2)) share one
    implementation of +, -, negation, scaling, products and ``is_zero``; on the
    same coefficients they give the same coefficients."""
    def nonzero() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))

    def coeffs() -> list[Fraction]:  # all four are zero about one time in five
        return [
            Fraction(rng.choice((0, 0, rng.randint(-9, 9))), rng.randint(1, 6)) for _ in range(4)
        ]

    for _ in range(40):
        b1, b2 = nonzero(), nonzero()
        params, form = AlgebraParams(b1, b2), DiagonalForm((-b1, -b2))
        cx, cy = coeffs(), coeffs()
        s = rng.choice((rng.randint(-5, 5), nonzero()))
        qx, qy = Quaternion.from_coeffs(params, cx), Quaternion.from_coeffs(params, cy)
        ex, ey = CliffordElement(form, cx), CliffordElement(form, cy)
        for q, e in (
            (qx + qy, ex + ey),
            (qx - qy, ex - ey),
            (-qx, -ex),
            (qx * s, ex * s),
            (s * qx, s * ex),
            (qx * qy, ex * ey),
        ):
            assert q.coeffs == e.coeffs
            assert q.is_zero() == e.is_zero() == (not any(q.coeffs))
        assert (qx - qx).is_zero() and (ex - ex).is_zero()


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"]
)
def test_quaternion_and_clifford_element_do_not_mix(op):
    q = Quaternion.one(AlgebraParams(1, 1))
    e = CliffordElement.one(NEG_NEG)
    for x, y in ((q, e), (e, q)):
        with pytest.raises(TypeError):
            op(x, y)


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
