from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford.errors import BelowThresholdError, IndeterminateError
from fibclifford.exactnum import ALPHA, QSqrt5
from fibclifford.fibquat import (
    FibSpaceVector,
    _sign_z5,
    bilinear_form,
    fibonacci_quaternion,
    gram_matrix,
    growth_discriminant,
    growth_profile,
    horadam_growth_discriminant,
    horadam_invertibility_threshold,
    horadam_norm_closed_form,
    horadam_quaternion,
    inner_product,
    invertibility_threshold,
    norm_closed_form,
    quadratic_form,
)
from fibclifford.quat import AlgebraParams
from conftest import CLASS_FIXTURES
from oracles import fib_naive, horadam_naive, sign_by_interval

H1M1 = AlgebraParams(1, -1)
HM2M3 = AlgebraParams(-2, -3)
H2M3 = AlgebraParams(2, -3)
HALF = AlgebraParams(Fraction(-1, 2), Fraction(-1, 2))

seed_ints = st.integers(min_value=-40, max_value=40)
small_index = st.integers(min_value=0, max_value=60)


# -- Fibonacci and Horadam quaternions ------------------------------------------


def test_fibonacci_quaternion_values():
    assert fibonacci_quaternion(0, H1M1).coeffs == (0, 1, 1, 2)
    assert fibonacci_quaternion(1, H1M1).coeffs == (1, 1, 2, 3)
    expected = tuple(fib_naive(6 + j) for j in range(4))
    assert fibonacci_quaternion(6, H1M1).coeffs == expected == (8, 13, 21, 34)


def test_horadam_quaternion_carries_seeded_coefficients():
    assert horadam_quaternion(0, 2, 3, H1M1).coeffs == (2, 3, 5, 8)
    # seed sequence 1, 0, 1, 1, 2, 3: window at n=1 is the Fibonacci window at 0
    assert horadam_quaternion(1, 1, 0, H1M1) == fibonacci_quaternion(0, H1M1)


def test_horadam_quaternion_fibonacci_seeds():
    for n in range(10):
        assert horadam_quaternion(n, 0, 1, H1M1) == fibonacci_quaternion(n, H1M1)


@settings(max_examples=50)
@given(small_index, seed_ints, seed_ints)
def test_horadam_quaternion_dual_routes(n, p, q):
    x = horadam_quaternion(n, p, q, HM2M3)
    assert x.coeffs == tuple(horadam_naive(n + j, p, q) for j in range(4))
    combination = (
        fibonacci_quaternion(n, HM2M3) * p + fibonacci_quaternion(n + 1, HM2M3) * q
    )
    assert combination == horadam_quaternion(n + 1, p, q, HM2M3)


# -- growth constants ------------------------------------------------------------


def test_growth_profile_structure():
    profile = growth_profile(HM2M3)
    assert profile.dominant == profile.discriminant * 5
    b1, b2 = HM2M3.beta1, HM2M3.beta2
    assert profile.oscillating == QSqrt5.from_rat(1 - b1 + b2 - b1 * b2)
    # conjugate constant is the Galois conjugate of the dominant one
    assert profile.conjugate == profile.dominant.conjugate()


@pytest.mark.parametrize(
    "params,expected",
    [
        (H1M1, QSqrt5(-2, -1)),  # (-5 - 10*alpha)/5
        (HALF, QSqrt5(Fraction(3, 20), 0)),
        (HM2M3, QSqrt5(Fraction(83, 10), Fraction(37, 10))),  # (23 + 37*alpha)/5
        (H2M3, QSqrt5(Fraction(-121, 10), Fraction(-11, 2))),  # (-33 - 55*alpha)/5
    ],
)
def test_growth_discriminant_fixture_values(params, expected):
    assert growth_discriminant(params) == expected


def test_seeded_discriminant_degenerate_seeds():
    assert horadam_growth_discriminant(H1M1, 0, 0).is_zero()


def test_seeded_discriminant_unit_seed():
    assert horadam_growth_discriminant(H1M1, 1, 0) == growth_discriminant(H1M1) / 5


def test_seeded_discriminant_shift_seed():
    value = horadam_growth_discriminant(H1M1, 0, 1)
    assert value == QSqrt5(Fraction(-11, 10), Fraction(-1, 2))
    assert value.sign() == -1


@settings(max_examples=50)
@given(seed_ints, seed_ints)
def test_seeded_discriminant_factorization(p, q):
    lhs = horadam_growth_discriminant(HM2M3, p, q)
    a = ALPHA * q + p
    assert lhs == a * a * growth_discriminant(HM2M3) / 5


# -- closed-form norms -----------------------------------------------------------


@pytest.mark.parametrize(
    "params,n,expected",
    [
        (HALF, 0, Fraction(0)),
        (HALF, 1, Fraction(3, 4)),
        (H1M1, 0, Fraction(-4)),
    ],
)
def test_norm_closed_form_values(params, n, expected):
    assert norm_closed_form(n, params) == expected


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_norm_closed_form_matches_direct_norm(params):
    for n in range(101):
        assert norm_closed_form(n, params) == fibonacci_quaternion(n, params).norm()


@settings(max_examples=40)
@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(lambda r: r != 0),
    st.fractions(min_value=-8, max_value=8, max_denominator=6).filter(lambda r: r != 0),
    st.integers(min_value=0, max_value=40),
)
def test_norm_closed_form_random_algebras(b1, b2, n):
    params = AlgebraParams(b1, b2)
    assert norm_closed_form(n, params) == fibonacci_quaternion(n, params).norm()


@settings(max_examples=40)
@given(small_index, seed_ints, seed_ints)
def test_horadam_norm_closed_form_matches_direct(n, p, q):
    assert horadam_norm_closed_form(n, HM2M3, p, q) == (
        horadam_quaternion(n, p, q, HM2M3).norm()
    )
    assert horadam_norm_closed_form(n, HALF, p, q) == (
        horadam_quaternion(n, p, q, HALF).norm()
    )


# -- certified thresholds ---------------------------------------------------------


@pytest.mark.parametrize(
    "params,n_prime,limit_sign",
    [
        (H1M1, 0, -1),
        (HM2M3, 0, 1),
        (H2M3, 0, -1),
        (HALF, 1, 1),
    ],
)
def test_threshold_fixture_values(params, n_prime, limit_sign):
    cert = invertibility_threshold(params)
    assert cert.n_prime == n_prime
    assert cert.limit_sign == limit_sign
    assert cert.limit_sign == growth_discriminant(params).sign()


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_certificate_invariants(params):
    cert = invertibility_threshold(params)
    # checked range within the horizon plus a stretch beyond it
    for m in range(cert.n_prime, cert.horizon + 30):
        value = norm_closed_form(m, params)
        assert (value > 0) == (cert.limit_sign > 0) and value != 0
    # minimality witness
    if cert.n_prime > 0:
        witness = norm_closed_form(cert.n_prime - 1, params)
        sign = 0 if witness == 0 else (1 if witness > 0 else -1)
        assert sign != cert.limit_sign


def test_half_fixture_threshold_reason():
    # the basepoint below the threshold is degenerate, not just wrong-signed
    assert norm_closed_form(0, HALF) == 0


def test_threshold_certificate_json():
    cert = invertibility_threshold(HALF)
    assert cert.to_json() == {"n_prime": 1, "horizon": cert.horizon, "limit_sign": 1}


def test_seeded_threshold_shift_seed():
    cert = horadam_invertibility_threshold(H1M1, 0, 1)
    assert cert.n_prime == 0
    assert cert.limit_sign == -1
    # window at n=1 over seeds (1, 0) is the Fibonacci window at 0
    cert = horadam_invertibility_threshold(HALF, 0, 1)
    assert cert.n_prime == 1
    assert cert.limit_sign == 1


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_seeded_threshold_certificate_validity(params):
    for p, q in ((1, 0), (0, 1), (3, -2)):
        cert = horadam_invertibility_threshold(params, p, q)
        for m in range(cert.n_prime, cert.horizon + 20):
            value = horadam_norm_closed_form(m, params, p, q)
            assert value != 0 and (value > 0) == (cert.limit_sign > 0)
        if cert.n_prime > 0:
            witness = horadam_norm_closed_form(cert.n_prime - 1, params, p, q)
            sign = 0 if witness == 0 else (1 if witness > 0 else -1)
            assert sign != cert.limit_sign


# Pell solutions x^2 - 5y^2 = +-1: with mixed signs, x + y*sqrt5 is as close
# to 0 as integers of that size allow.
PELL = ((2, 1), (9, 4), (38, 17), (161, 72), (682, 305), (51841, 23184))
NEAR_ZERO = tuple((sx * x, sy * y) for x, y in PELL for sx in (1, -1) for sy in (1, -1))
big_ints = st.integers(-(10**30), 10**30)


@settings(max_examples=200)
@given(st.one_of(st.tuples(big_ints, big_ints), st.sampled_from(NEAR_ZERO)))
def test_integer_sign_in_z_sqrt5_matches_interval_oracle(xy):
    x, y = xy
    assert _sign_z5(x, y) == sign_by_interval(QSqrt5(x, y))


def test_degenerate_seeds_are_indeterminate():
    with pytest.raises(IndeterminateError):
        horadam_invertibility_threshold(H1M1, 0, 0)


# -- the rank-2 coordinate space ---------------------------------------------------


def test_coordinates_map_to_basis():
    assert FibSpaceVector(0, 1, 0).to_quaternion(H1M1) == fibonacci_quaternion(0, H1M1)
    assert FibSpaceVector(0, 0, 1).to_quaternion(H1M1) == fibonacci_quaternion(1, H1M1)


def test_coordinates_map_is_seeded_window_shifted_by_one():
    vector = FibSpaceVector(0, 2, 3)
    image = vector.to_quaternion(H1M1)
    assert image.coeffs == (3, 5, 8, 13)
    assert image == horadam_quaternion(1, 2, 3, H1M1)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=25), seed_ints, seed_ints)
def test_coordinate_map_is_injective(n, p, q):
    vector = FibSpaceVector(n, p, q)
    image = vector.to_quaternion(HM2M3)
    assert image.is_zero() == vector.is_zero()


def test_vector_basepoint_mismatch_rejected():
    with pytest.raises(ValueError):
        FibSpaceVector(0, 1, 0) + FibSpaceVector(1, 0, 1)
    with pytest.raises(ValueError):
        bilinear_form(FibSpaceVector(0, 1, 0), FibSpaceVector(2, 1, 0), H1M1)
    with pytest.raises(ValueError):
        FibSpaceVector(-1, 0, 0)


# -- inner product, quadratic and bilinear forms -------------------------------------


def test_inner_product_examples():
    z = FibSpaceVector(0, 1, 0)
    assert inner_product(z, z, H1M1) == Fraction(4)
    assert inner_product(FibSpaceVector(1, 1, 0), FibSpaceVector(1, 0, 1), HALF) == 0
    zero = FibSpaceVector(0, 0, 0)
    assert inner_product(zero, zero, H1M1) == 0


def test_inner_product_below_threshold():
    z = FibSpaceVector(0, 1, 0)
    with pytest.raises(BelowThresholdError):
        inner_product(z, z, HALF)


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_inner_product_positive_definite(params, rng):
    n_prime = invertibility_threshold(params).n_prime
    for n in (n_prime, n_prime + 3):
        for _ in range(70):
            z = FibSpaceVector(
                n,
                Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
            )
            if z.is_zero():
                continue
            assert inner_product(z, z, params) > 0


def test_quadratic_form_values():
    assert quadratic_form(FibSpaceVector(0, 1, 0), H1M1) == Fraction(-4)
    assert quadratic_form(FibSpaceVector(0, 0, 0), HM2M3) == 0
    assert quadratic_form(FibSpaceVector(1, 1, 1), HALF) == Fraction(3, 2)


def test_quadratic_form_matches_norm_of_image():
    # on the diagonal the form is the quaternion norm of the image vector
    for params in CLASS_FIXTURES:
        for n in range(4):
            for x1, x2 in ((1, 0), (0, 1), (2, 3), (-1, 4)):
                z = FibSpaceVector(n, x1, x2)
                direct = quadratic_form(z, params)
                f_n = fibonacci_quaternion(n, params).norm()
                f_n1 = fibonacci_quaternion(n + 1, params).norm()
                assert direct == f_n * x1 * x1 + f_n1 * x2 * x2


def test_bilinear_form_examples():
    x = FibSpaceVector(0, 2, 0)
    y = FibSpaceVector(0, 3, 0)
    assert bilinear_form(x, y, H1M1) == Fraction(-24)
    assert bilinear_form(FibSpaceVector(0, 1, 0), FibSpaceVector(0, 0, 1), H1M1) == 0


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=20),
    seed_ints,
    seed_ints,
    seed_ints,
    seed_ints,
)
def test_bilinear_form_polarization(n, a, b, c, d):
    x = FibSpaceVector(n, a, b)
    y = FibSpaceVector(n, c, d)
    for params in (H1M1, HM2M3):
        two_route = (
            quadratic_form(x + y, params)
            - quadratic_form(x, params)
            - quadratic_form(y, params)
        ) / 2
        assert bilinear_form(x, y, params) == two_route
        assert bilinear_form(x, x, params) == quadratic_form(x, params)


# -- Gram matrix --------------------------------------------------------------------


def test_gram_matrix_values():
    assert gram_matrix(0, H1M1) == ((-4, 0), (0, -11))
    assert gram_matrix(1, HALF) == ((Fraction(3, 4), 0), (0, Fraction(3, 4)))
    matrix = gram_matrix(0, HM2M3)
    assert matrix == ((19, 0), (0, 41))
    assert matrix[0][0] * matrix[1][1] == 779


@pytest.mark.parametrize("params", CLASS_FIXTURES)
def test_gram_determinant_positive_past_threshold(params):
    n_prime = invertibility_threshold(params).n_prime
    for n in range(n_prime, n_prime + 40):
        matrix = gram_matrix(n, params)
        assert matrix[0][0] * matrix[1][1] > 0


def test_growth_profile_json():
    data = growth_profile(H1M1).to_json()
    assert set(data) == {"dominant", "conjugate", "oscillating", "discriminant"}
    assert data["discriminant"] == {"a": "-2", "b": "-1"}
