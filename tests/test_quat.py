from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford import quat as quat_module
from fibclifford.errors import MixedAlgebrasError, NotInvertibleError, ZeroScaleError
from fibclifford.quat import (
    AlgebraParams,
    Quaternion,
    is_division_algebra,
    scale_isomorphism,
    zero_divisor_witness,
)
from conftest import random_fraction
from oracles import (
    apply_basis_map,
    basis_map_is_multiplicative,
    quaternion_mul_reference,
    quaternion_norm_reference,
    zero_divisor_witness_reference,
)

H11 = AlgebraParams(1, 1)
H1M1 = AlgebraParams(1, -1)
HM2M3 = AlgebraParams(-2, -3)

nonzero_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10).filter(
    lambda r: r != 0
)
coeff = st.fractions(min_value=-30, max_value=30, max_denominator=8)
params_strategy = st.builds(AlgebraParams, nonzero_rationals, nonzero_rationals)


def quat(params, *coeffs):
    return Quaternion.from_coeffs(params, coeffs)


def quats(params):
    return st.builds(lambda a, b, c, d: quat(params, a, b, c, d), coeff, coeff, coeff, coeff)


# -- construction ------------------------------------------------------------


def test_zero_parameters_rejected():
    with pytest.raises(ValueError):
        AlgebraParams(0, 1)
    with pytest.raises(ValueError):
        AlgebraParams(1, Fraction(0))


def test_coeff_count_checked():
    with pytest.raises(ValueError):
        Quaternion.from_coeffs(H11, (1, 2, 3))


# -- multiplication table ------------------------------------------------------


def test_basis_products_in_hamilton_algebra():
    one, e2, e3, e4 = Quaternion.basis(H11)
    assert e2 * e3 == e4
    assert e3 * e2 == -e4
    assert e2 * e2 == -one
    assert (one + e2) * (one + e3) == one + e2 + e3 + e4


@pytest.mark.parametrize(
    "params",
    [H11, H1M1, HM2M3, AlgebraParams(Fraction(-1, 2), Fraction(3, 7))],
)
def test_all_basis_products_match_reference_table(params):
    basis = Quaternion.basis(params)
    for u in basis:
        for v in basis:
            assert u * v == quaternion_mul_reference(u, v)


@settings(max_examples=40)
@given(params_strategy, st.data())
def test_general_products_match_reference(params, data):
    x = data.draw(quats(params))
    y = data.draw(quats(params))
    assert x * y == quaternion_mul_reference(x, y)


def test_noncommutativity_witness():
    _, e2, e3, _ = Quaternion.basis(H11)
    assert e2 * e3 != e3 * e2


@settings(max_examples=30)
@given(quats(HM2M3), quats(HM2M3), quats(HM2M3))
def test_multiplication_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_mixed_algebras_rejected():
    x = quat(H11, 1, 0, 0, 0)
    y = quat(H1M1, 1, 0, 0, 0)
    with pytest.raises(MixedAlgebrasError):
        x * y
    with pytest.raises(MixedAlgebrasError):
        x + y


def test_subtraction_across_algebras_rejected():
    x = quat(H11, 1, 0, 0, 0)
    y = quat(H1M1, 1, 0, 0, 0)
    message = r"^cannot combine elements of H\(1, 1\) and H\(1, -1\)$"
    with pytest.raises(MixedAlgebrasError, match=message):
        x - y


# -- conjugation and norm -----------------------------------------------------


def test_conjugate_examples():
    one, e2, _, _ = Quaternion.basis(H11)
    assert one.conjugate() == one
    assert e2.conjugate() == -e2
    x = one + e2
    assert x * x.conjugate() == one * 2


@settings(max_examples=40)
@given(quats(HM2M3))
def test_times_conjugate_is_norm(x):
    n = x.norm()
    assert x * x.conjugate() == Quaternion(HM2M3, n, 0, 0, 0)


def test_norm_examples():
    assert quat(H1M1, 1, 1, 2, 3).norm() == Fraction(-11)
    assert quat(HM2M3, 0, 1, 1, 2).norm() == Fraction(19)
    assert quat(H11, 1, 1, 0, 0).norm() == Fraction(2)


@settings(max_examples=60)
@given(params_strategy, st.data())
def test_norm_multiplicative(params, data):
    x = data.draw(quats(params))
    y = data.draw(quats(params))
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() == quaternion_norm_reference(x)


# -- inverses ------------------------------------------------------------------


def test_inverse_examples():
    one, e2, e3, _ = Quaternion.basis(H11)
    assert one.inverse() == one
    assert e2.inverse() == -e2
    with pytest.raises(NotInvertibleError):
        (Quaternion.one(H1M1) + Quaternion.basis(H1M1)[2]).inverse()
    assert (Quaternion.one(H1M1) + Quaternion.basis(H1M1)[2]).norm() == 0


def test_thousand_random_inverses(rng):
    for _ in range(1000):
        params = rng.choice([H11, H1M1, HM2M3])
        x = Quaternion.from_coeffs(params, [random_fraction(rng) for _ in range(4)])
        if x.norm() == 0:
            continue
        assert x * x.inverse() == Quaternion.one(params)
        assert x.inverse() * x == Quaternion.one(params)


# -- real division / split classification -------------------------------------


@pytest.mark.parametrize(
    "params,expected",
    [(H11, True), (H1M1, False), (HM2M3, False), (AlgebraParams(Fraction(1, 3), 5), True)],
)
def test_is_division_algebra(params, expected):
    assert is_division_algebra(params) is expected


def test_division_algebras_have_no_small_zero_divisors(rng):
    for params in (H11, AlgebraParams(2, 3)):
        assert zero_divisor_witness(params) is None
        for _ in range(500):
            x = Quaternion.from_coeffs(params, [random_fraction(rng) for _ in range(4)])
            if not x.is_zero():
                assert x.norm() != 0


@pytest.mark.parametrize(
    "params",
    [
        H1M1,
        AlgebraParams(-1, -1),
        AlgebraParams(Fraction(-1, 2), Fraction(-1, 2)),
        AlgebraParams(-9, 2),
        AlgebraParams(1, -4),
    ],
)
def test_split_algebras_yield_zero_divisor_witness(params):
    witness = zero_divisor_witness(params)
    assert witness is not None
    assert not witness.is_zero()
    assert witness.norm() == 0
    with pytest.raises(NotInvertibleError):
        witness.inverse()
    assert_witness_matches_reference(params)


def assert_witness_matches_reference(params: AlgebraParams) -> None:
    """The library's witness, or None, equals the per-candidate reference
    search at the library's current ``MAX_WITNESS_HEIGHT``."""
    got = quat_module.zero_divisor_witness(params)
    want = zero_divisor_witness_reference(params, quat_module.MAX_WITNESS_HEIGHT)
    assert (got and got.coeffs) == (want and want.coeffs), params


small_nonzero = st.builds(
    Fraction, st.integers(-12, 12).filter(lambda n: n != 0), st.integers(1, 6)
)
split_params = st.builds(AlgebraParams, small_nonzero, small_nonzero).filter(
    lambda p: not is_division_algebra(p)
)


@settings(max_examples=200, deadline=None)
@given(split_params)
def test_witness_search_matches_reference_at_height_3(params):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quat_module, "MAX_WITNESS_HEIGHT", 3)
        assert_witness_matches_reference(params)


@pytest.mark.parametrize(
    "t,b2",
    [(1, 2), (Fraction(2, 3), -3), (Fraction(-5, 2), Fraction(7, 3)), (3, Fraction(-1, 6))],
)
def test_witness_when_minus_b1_over_b2_is_a_square(t, b2):
    """b1 = -t^2 * b2, neither -b1 nor -b2 a square: -b1*b2 = (t*b2)^2 is,
    so the witness is 1 + e4/|t*b2|, never e2 + t*e3."""
    params = AlgebraParams(-t * t * b2, b2)
    assert zero_divisor_witness(params).coeffs == (1, 0, 0, 1 / abs(t * b2))
    assert_witness_matches_reference(params)


@pytest.mark.parametrize(
    "params,coeffs",
    [(AlgebraParams(-2, -7), (-1, -2, -1, -1)), (AlgebraParams(-3, -6), (0, -2, -1, -1))],
)
def test_full_height_search_witnesses(params, coeffs):
    assert zero_divisor_witness(params).coeffs == coeffs
    assert_witness_matches_reference(params)


@pytest.mark.parametrize("params", [HM2M3, AlgebraParams(-5, -6)])
def test_full_height_search_finds_no_witness(params):
    assert quat_module.MAX_WITNESS_HEIGHT == 8
    assert zero_divisor_witness(params) is None


# -- scaling isomorphism --------------------------------------------------------


def test_scale_isomorphism_identity():
    target, mapping = scale_isomorphism(H11, 1, 1)
    assert target == H11
    assert mapping.images == Quaternion.basis(H11)


def test_scale_isomorphism_example():
    target, mapping = scale_isomorphism(H1M1, 2, 1)
    assert target == AlgebraParams(4, -1)
    one, e2p, e3p, e4p = Quaternion.basis(target)
    assert mapping.images == (one, e2p * Fraction(1, 2), e3p, e4p * Fraction(1, 2))
    assert basis_map_is_multiplicative(mapping)


def test_scale_isomorphism_fractional():
    params = AlgebraParams(Fraction(-1, 2), Fraction(-1, 2))
    target, _ = scale_isomorphism(params, 2, 2)
    assert target == AlgebraParams(-2, -2)


def test_scale_isomorphism_rejects_zero():
    with pytest.raises(ZeroScaleError):
        scale_isomorphism(H11, 0, 1)


def test_zero_scale_error_names_the_factors():
    with pytest.raises(ZeroScaleError, match=r"\(got x=-3/2, y=0\)$"):
        scale_isomorphism(H11, Fraction(-3, 2), 0)


@settings(max_examples=40)
@given(nonzero_rationals, nonzero_rationals, st.data())
def test_scale_isomorphism_round_trip(x, y, data):
    params = data.draw(params_strategy)
    target, forward = scale_isomorphism(params, x, y)
    back_params, backward = scale_isomorphism(target, 1 / x, 1 / y)
    assert back_params == params
    for basis_element in Quaternion.basis(params):
        image = apply_basis_map(forward, basis_element)
        assert apply_basis_map(backward, image) == basis_element


@settings(max_examples=40)
@given(nonzero_rationals, nonzero_rationals, st.data())
def test_scale_isomorphism_respects_products(x, y, data):
    params = data.draw(params_strategy)
    u = data.draw(quats(params))
    v = data.draw(quats(params))
    _, mapping = scale_isomorphism(params, x, y)
    assert apply_basis_map(mapping, u * v) == (
        apply_basis_map(mapping, u) * apply_basis_map(mapping, v)
    )


# -- wire format ---------------------------------------------------------------


def test_json_roundtrip():
    x = quat(AlgebraParams(Fraction(-1, 2), 3), Fraction(1, 2), -2, 0, 7)
    data = x.to_json()
    assert data == {
        "beta1": "-1/2",
        "beta2": "3",
        "coeffs": ["1/2", "-2", "0", "7"],
    }


def test_str_rendering():
    assert str(quat(H11, 1, -1, 0, Fraction(5, 2))) == "1 - e2 + 5/2*e4"
    assert str(Quaternion.zero(H11)) == "0"
