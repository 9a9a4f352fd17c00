from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford import fibquat
from fibclifford.clifford import classify, fibonacci_form
from fibclifford.errors import BelowThresholdError, DegenerateFormError, IndeterminateError
from fibclifford.exactnum import ALPHA, QSqrt5, _sign_z5
from fibclifford.fibquat import (
    FibSpaceVector,
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
from fibclifford.quat import AlgebraParams, Quaternion
from conftest import CLASS_FIXTURES
from oracles import (
    fib_naive,
    fibonacci_form_reference,
    horadam_naive,
    reference_certificate,
    seeded_discriminant_reference,
    sign_by_interval,
    walked_threshold,
)
from test_threshold_ladder import ladder_params

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


@pytest.mark.parametrize("n", [1000, 1001, 2718])
def test_horadam_quaternion_is_fibonacci_combination_at_large_index(n):
    for p, q in ((2, 3), (-7, 4), (10**20 + 1, -(10**19))):
        x = horadam_quaternion(n, p, q, HM2M3)
        assert x.coeffs == tuple(
            p * fib_naive(k - 1) + q * fib_naive(k) for k in range(n, n + 4)
        )


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


def assert_seeded_discriminant_matches_reference(params, p, q):
    """horadam_growth_discriminant and classify's E' are the Q(sqrt 5)
    value (p + q*alpha)^2 * E / 5."""
    expected = seeded_discriminant_reference(params, p, q)
    assert horadam_growth_discriminant(params, p, q) == expected
    if (p, q) != (0, 0):
        assert classify(params, p, q).seeded_discriminant == expected


rationals_40_digit = st.builds(
    lambda n, d, negative: Fraction(-n if negative else n, d),
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.booleans(),
)
algebras_40_digit = st.builds(AlgebraParams, rationals_40_digit, rationals_40_digit)
seeds_20_digit = st.integers(-(10**20), 10**20)


@settings(max_examples=100, deadline=None)
@given(algebras_40_digit, seeds_20_digit, seeds_20_digit)
def test_seeded_discriminant_matches_reference(params, p, q):
    assert_seeded_discriminant_matches_reference(params, p, q)


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


nonzero_30_digit = st.integers(1, 10**30)
rationals_30_digit = st.builds(
    lambda n, d, negative: Fraction(-n if negative else n, d),
    nonzero_30_digit,
    nonzero_30_digit,
    st.booleans(),
)
algebras = st.one_of(
    st.builds(AlgebraParams, rationals_30_digit, rationals_30_digit),
    st.builds(ladder_params, st.integers(1, 30), st.booleans()),  # next to E = 0
)
seed_pairs = st.one_of(
    st.just((0, 1)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20)),
).filter(lambda seeds: seeds != (0, 0))


@settings(max_examples=150, deadline=None)
@given(algebras, seed_pairs)
def test_integer_certificate_matches_closed_form_reference(params, seeds):
    cert = horadam_invertibility_threshold(params, *seeds)
    assert (cert.n_prime, cert.horizon, cert.limit_sign) == reference_certificate(
        params.beta1, params.beta2, *seeds
    )


# Horizons across sizes and powers of 2.  Each row: (horizon, ladder k, rounded
# up, seeds), found by scanning the ladder at k = 1..61 from both sides with
# small and 20-digit seeds.
HORIZON_EDGES = (
    (0, 1, False, (8, 13)),
    (1, 1, False, (0, 1)),
    (2, 2, True, (5, 3)),
    (31, 13, False, (1, 0)),
    (32, 14, False, (0, 1)),
    (33, 13, True, (1, 0)),
    (63, 25, False, (1, 0)),
    (64, 23, False, (3, -2)),
    (65, 29, False, (1, 1)),
    (127, 53, False, (1, 0)),
    (128, 51, False, (3, -2)),
    (129, 54, True, (1, 0)),
)
# The horizon search tests N = 0, takes the largest index n that its
# bit-length bracket shows to fail, jumps to index 2 * (n // 2) and tests the
# indices after n, so its edges are N = n + 1, where the first test passes,
# with n = 0, 1 and 2, and the most tests found: four with n = 0 and five
# with n > 0.  Each row: (b1, b2, seeds, horizon), found by scanning random
# algebras and the cases of walk_cases; n is in the comment.
BRACKET_EDGES = (
    (Fraction(91, 92), Fraction(11, 26), (-7, 9), 1),  # n = 0
    (Fraction(-17, 26), Fraction(-1, 4), (0, 1), 2),  # n = 1
    (Fraction(-39, 17), Fraction(-3, 22), (0, 1), 3),  # n = 2
    (Fraction(-2), Fraction(-274, 1871), (-2, -3), 4),  # n = 0
    (Fraction(1), Fraction(-2, 13), (-1, 1), 7),  # n = 2
    (Fraction(1), Fraction(-725, 4969), (-2, 3), 13),  # n = 8
)


def assert_horizon_edges_match_reference() -> None:
    cases = [(ladder_params(k, upper), seeds, horizon) for horizon, k, upper, seeds in HORIZON_EDGES]
    cases += [(AlgebraParams(b1, b2), seeds, horizon) for b1, b2, seeds, horizon in BRACKET_EDGES]
    for params, seeds, horizon in cases:
        cert = horadam_invertibility_threshold(params, *seeds)
        assert cert.horizon == horizon, (params, seeds)
        reference = reference_certificate(params.beta1, params.beta2, *seeds)
        assert (cert.n_prime, cert.horizon, cert.limit_sign) == reference, (params, seeds)


def test_certificates_at_horizon_search_edges_match_reference():
    assert_horizon_edges_match_reference()


@pytest.mark.parametrize(
    "b1,b2,seeds,horizon",
    [
        (Fraction(-1, 4), Fraction(2, 3), (19, 2), 2),
        (Fraction(-17, 2), Fraction(18), (29, -9), 0),
        (Fraction(-1), Fraction(7, 4), (24, 5), 0),
    ],
)
def test_cross_term_weight_decides_these_horizons(b1, b2, seeds, horizon):
    """Seeded certificates whose horizon sits at the edge that the bounded
    side's cross term 2|S0 * cross|, scaled to 32|z * cross|, sets: a weight
    of 33 there gives horizons 3, 1 and 1."""
    cert = horadam_invertibility_threshold(AlgebraParams(b1, b2), *seeds)
    assert cert.horizon == horizon
    assert (cert.n_prime, cert.horizon, cert.limit_sign) == reference_certificate(b1, b2, *seeds)


# -- where the walk stops --------------------------------------------------------


def ladder_near_zero(b1: Fraction, k: int, upper: bool) -> AlgebraParams:
    """H(b1, b2) with b2 next to the zero of E for this b1, rounded down or up
    at denominator 10^k.  S+ is linear in b2, so the zero is
    b2* = -((1 + b1) + b1*alpha)/((2 + 5*b1) + (3 + 8*b1)*alpha) in Q(sqrt 5);
    ``ladder_params(k, upper)`` is the case b1 = 1."""
    zero = -(ALPHA * b1 + (1 + b1)) / (ALPHA * (3 + 8 * b1) + (2 + 5 * b1))
    a, b = zero.a * 10**k, zero.b * 10**k
    d = lcm(a.denominator, b.denominator)
    x, y = int(a * d), int(b * d)
    r = isqrt(5 * y * y)  # floor(|y| * sqrt 5), as 5y^2 is no square for y != 0
    return AlgebraParams(b1, Fraction((x + (r if y >= 0 else -r - 1)) // d + upper, 10**k))


def _exact_zero(rng: random.Random) -> tuple[AlgebraParams, tuple[int, int]] | None:
    """An algebra whose norm at some m <= 6 is exactly 0 for small seeds:
    n(H(m)) = h0^2 + b1*h1^2 + b2*(h2^2 + b1*h3^2) on the window at m,
    solved for b2."""
    b1 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
    seeds, m = (rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(0, 6)
    h0, h1, h2, h3 = (horadam_naive(m + j, *seeds) for j in range(4))
    weight = h2 * h2 + b1 * h3 * h3
    if seeds == (0, 0) or weight == 0 or h0 * h0 + b1 * h1 * h1 == 0:
        return None
    return AlgebraParams(b1, -(h0 * h0 + b1 * h1 * h1) / weight), seeds


# (b1, b2, seeds) whose last index of the wrong sign lies below the walk's
# start estimate s = (N - 1) // 2, so v(s) and v(s + 1) both have the limit
# sign and the walk starts at index 0; found by scanning random algebras and
# ladders next to E = 0 at other values of b1, where S0 != 0.  In the last
# three, v(0) and v(1) have the limit sign too, and v(2) < v(0) keeps the
# stop rule from firing at index 0
BELOW_THE_ESTIMATE = (
    (Fraction(1, 2), Fraction(-1, 5), (2, -1)),  # N = 7, n' = 3, s = 3
    (Fraction(2, 3), Fraction(-1, 5), (2, -1)),  # N = 7, n' = 3, s = 3
    (Fraction(6), Fraction(-1, 5), (-77, 33)),  # N = 5, n' = 2, s = 2
    (Fraction(-22), Fraction(-1, 2), (-22, 18)),  # N = 3, n' = 1, s = 1
    (Fraction(-34, 7), Fraction(8, 3), (-37, 20)),  # N = 3, n' = 1, s = 1
    (Fraction(-13, 3), Fraction(7, 20), (5, -3)),  # N = 7, n' = 3, s = 3
    (Fraction(-1, 4), Fraction(2), (22, -15)),  # N = 7, n' = 3, s = 3
    (Fraction(5, 9), Fraction(-1, 7), (15, -23)),  # N = 7, n' = 3, s = 3
)


@cache
def walk_cases() -> tuple[tuple[AlgebraParams, tuple[int, int]], ...]:
    """3,409 (params, seeds): random algebras with 1- to 30-digit parts,
    ladders next to E = 0 at five values of b1 (S0 = 0 only at b1 = 1),
    algebras with an exact zero norm, HALF, where N(S+) = S0^2 exactly
    and n' = 1, and :data:`BELOW_THE_ESTIMATE`.  Seeds are (0, 1), one
    digit or 20 digits."""
    rng = random.Random(27)

    def rational(digits: int) -> Fraction:
        top = 10**digits
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))

    def seeds() -> tuple[int, int]:
        bound = rng.choice((0, 9, 9, 10**20))
        pair = (0, 1) if bound == 0 else (0, 0)
        while pair == (0, 0):
            pair = rng.randint(-bound, bound), rng.randint(-bound, bound)
        return pair

    cases = [
        (AlgebraParams(rational(digits), rational(digits)), seeds())
        for digits in rng.choices((1, 2, 3, 6, 30), k=1600)
    ]
    for b1 in (Fraction(1), Fraction(-1, 3), Fraction(2), Fraction(-5, 2), Fraction(7, 3)):
        for k in range(1, 31):
            for upper in (False, True):
                params = ladder_near_zero(b1, k, upper)
                cases += [(params, (0, 1)), (params, seeds()), (params, seeds()), (params, seeds())]
    while len(cases) < 3400:
        cases += filter(None, [_exact_zero(rng)])
    below = [(AlgebraParams(b1, b2), seeds) for b1, b2, seeds in BELOW_THE_ESTIMATE]
    return (*cases, (HALF, (0, 1)), *below)


def assert_certificates_match_the_full_walk() -> None:
    """n' and the two norms ``classify`` reads, from ``_certify``, against the
    full walk over 0..horizon for each of :func:`walk_cases`."""
    for params, seeds in walk_cases():
        cert, norms = fibquat._certify(params, fibquat._growth_integers(params), *seeds)
        walked = walked_threshold(params.beta1, params.beta2, *seeds, cert.horizon, cert.limit_sign)
        assert (cert.n_prime, norms) == walked, (params, seeds)


def test_certificates_match_the_full_walk():
    cases = walk_cases()
    assert len(cases) >= 3000
    assert ladder_near_zero(Fraction(1), 7, True) == ladder_params(7, True)
    assert_certificates_match_the_full_walk()
    # the walk takes the horizon and the limit sign from the certificate:
    # every 25th case checks them against the closed-form bound
    for params, seeds in cases[::25]:
        cert = horadam_invertibility_threshold(params, *seeds)
        reference = reference_certificate(params.beta1, params.beta2, *seeds)
        assert (cert.n_prime, cert.horizon, cert.limit_sign) == reference, (params, seeds)


# ladder k -> indices the walk visits, below and above the zero of E: two
# below, where v(s) <= 0 at s = (N - 1) // 2 = n' - 1 and the stop rule fires
# at n', and none above, where N(S+) > S0^2 (S0 = 0 at beta1 = 1) settles
# n' = 0 before the walk
WALKED_INDICES = {2: (2, 0), 25: (2, 0), 3999: (2, 0)}
# (b1, b2, seeds, indices visited) where a stricter rule walks further:
# S0^2 < N(S+) <= (5/4) S0^2; the stop at v(m+1) = 1; the stop at v(m+2) = v(m);
# the walk from s witnessed by v(s + 1) <= 0 alone (N = 9, n' = 6, s = 4) and
# by v(s) <= 0 alone (N = 7, n' = 4, s = 3)
WALK_EDGES = (
    (Fraction(-5, 2), Fraction(-4, 3), (0, 1), 0),
    (Fraction(-6), Fraction(1, 4), (1, -1), 1),
    (Fraction(-4, 3), Fraction(-1, 3), (1, -1), 1),
    (Fraction(-3, 8), Fraction(-3), (7, -4), 3),
    (Fraction(1), Fraction(-1, 5), (-6, 3), 2),
)


def indices_walked(monkeypatch, params: AlgebraParams, seeds: tuple[int, int]) -> int:
    """The indices ``_certify``'s walk visits for one threshold, counted off
    the ``range`` it draws them from, in the namespace ``_certify`` reads, so
    a recompiled ``_certify`` is counted too."""
    walked = 0

    def counted(*bounds: int):
        nonlocal walked
        for m in range(*bounds):
            walked += 1
            yield m

    with monkeypatch.context() as patch:
        patch.setitem(fibquat._certify.__globals__, "range", counted)
        horadam_invertibility_threshold(params, *seeds)
    return walked


def assert_walk_lengths_pinned(monkeypatch) -> None:
    for k, walked in WALKED_INDICES.items():
        params = ladder_params(k, False), ladder_params(k, True)
        assert tuple(indices_walked(monkeypatch, side, (0, 1)) for side in params) == walked, k
    for b1, b2, seeds, walked in WALK_EDGES:
        assert indices_walked(monkeypatch, AlgebraParams(b1, b2), seeds) == walked, (b1, b2)


def test_walk_visits_its_pinned_number_of_indices(monkeypatch):
    assert_walk_lengths_pinned(monkeypatch)


# ladder k -> sign tests per certificate, below and above the zero of E: the
# limit and bounded signs, the test at index 0, then one per index tested
# after the bracket's last failing index.  They do not grow with the size:
# 3 or 4 tests after the bracket at k = 2 (horizon 3), at the literal cap
# k = 3999 (horizon 9,566) and at 20,000 digits (horizon 47,849 below and
# 47,847 above), which only the library takes
SEARCH_SIGN_TESTS = {2: (6, 6), 25: (6, 6), 3999: (7, 7), 20000: (6, 7)}


def sign_tests_per_threshold(monkeypatch, k: int) -> list[int]:
    """The ``_sign_z5`` calls of ``invertibility_threshold`` at ladder point k,
    rounded down and up; counted in the namespace ``_certify`` reads, so a
    recompiled ``_certify`` is counted too."""
    namespace = fibquat._certify.__globals__
    sign = namespace["_sign_z5"]
    counts = []
    for upper in (False, True):
        calls = 0

        def counted(x: int, y: int) -> int:
            nonlocal calls
            calls += 1
            return sign(x, y)

        with monkeypatch.context() as patch:
            patch.setitem(namespace, "_sign_z5", counted)
            invertibility_threshold(ladder_params(k, upper))
        counts.append(calls)
    return counts


def assert_search_steps_pinned(monkeypatch) -> None:
    for k, count in SEARCH_SIGN_TESTS.items():
        assert sign_tests_per_threshold(monkeypatch, k) == list(count), k


def test_horizon_search_takes_its_pinned_number_of_steps(monkeypatch):
    assert_search_steps_pinned(monkeypatch)


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


@settings(max_examples=50)
@given(
    st.integers(min_value=0, max_value=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
def test_rational_coordinates_map_to_fibonacci_combination(n, x1, x2):
    """x1*F(n) + x2*F(n+1) with both quaternions counted by ``fib_naive``:
    the coordinate map reads one seeded window at ``Fraction`` seeds."""
    f_n, f_n1 = (Quaternion(HALF, *(fib_naive(m + j) for j in range(4))) for m in (n, n + 1))
    assert FibSpaceVector(n, x1, x2).to_quaternion(HALF) == f_n * x1 + f_n1 * x2


def test_vector_arithmetic_is_coordinatewise_and_linear():
    """Differences and rational multiples act on the coordinates, and the
    coordinate map to quaternions commutes with both."""
    v, w = FibSpaceVector(3, Fraction(1, 2), -2), FibSpaceVector(3, 1, 5)
    assert v - w == FibSpaceVector(3, Fraction(-1, 2), -7)
    assert Fraction(2, 3) * v == FibSpaceVector(3, Fraction(1, 3), Fraction(-4, 3))
    assert -2 * v == FibSpaceVector(3, -1, 4)
    combination = (Fraction(2, 3) * v - w).to_quaternion(HALF)
    assert combination == v.to_quaternion(HALF) * Fraction(2, 3) - w.to_quaternion(HALF)


def test_vector_basepoint_mismatch_rejected():
    with pytest.raises(ValueError):
        FibSpaceVector(0, 1, 0) + FibSpaceVector(1, 0, 1)
    with pytest.raises(ValueError):
        FibSpaceVector(0, 1, 0) - FibSpaceVector(1, 0, 1)
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


def assert_form_matches_reference(n, params):
    """gram_matrix and fibonacci_form carry the Fraction norms of F(n) and
    F(n+1); a zero norm makes fibonacci_form degenerate."""
    n0, n1 = fibonacci_form_reference(n, params)
    assert gram_matrix(n, params) == ((n0, 0), (0, n1))
    if n0 == 0 or n1 == 0:
        with pytest.raises(DegenerateFormError):
            fibonacci_form(n, params)
    else:
        assert fibonacci_form(n, params).squares == (n0, n1)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.integers(0, 300), st.sampled_from((1000, 2718))),
    st.one_of(algebras_40_digit, st.sampled_from(CLASS_FIXTURES)),
)
def test_form_entries_match_reference(n, params):
    assert_form_matches_reference(n, params)


def test_form_entry_errors_name_their_inputs():
    with pytest.raises(ValueError, match="^sequence index must be nonnegative, got -1$"):
        gram_matrix(-1, H1M1)
    with pytest.raises(ValueError, match="^index must be nonnegative, got -1$"):
        norm_closed_form(-1, H1M1)
    with pytest.raises(ValueError, match="^index must be nonnegative, got -3$"):
        horadam_norm_closed_form(-3, HALF, 2, 3)
    message = r"^degenerate at n=0 in H\(-1/2, -1/2\): diag\(0, 3/4\)$"
    with pytest.raises(DegenerateFormError, match=message):
        fibonacci_form(0, HALF)


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
