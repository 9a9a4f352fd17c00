"""``classify`` checks its seeds once and builds its report from the
package's own values without checking them again.  These tests hold the
report to the public routes of each of its parts, on small grid heights and
on the threshold ladder, and hold each public entry point that takes seeds
to its checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from fibclifford import clifford
from fibclifford.clifford import fibonacci_form, rank2_class
from fibclifford.errors import IndeterminateError
from fibclifford.fibquat import (
    growth_discriminant,
    horadam_growth_discriminant,
    horadam_invertibility_threshold,
    horadam_norm_closed_form,
    horadam_quaternion,
    invertibility_threshold,
)
from fibclifford.quat import AlgebraParams

QUADRANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _seeds(rng: random.Random) -> tuple[int, int] | tuple[None, None]:
    """No seeds, seeds of one digit (never both zero) or of 20 digits."""
    kind = rng.randrange(4)
    if kind < 2:
        return None, None
    if kind == 2:
        while True:
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            if p or q:
                return p, q
    return tuple(rng.choice((-1, 1)) * rng.randrange(10**19, 10**20) for _ in range(2))


def report_cases(count: int, seed: int):
    """``count`` triples (params, p, q).  Seven in ten are grid points of
    small height, cycling through the four sign quadrants; the rest sit at
    beta1 = 1 with beta2 rounded down or up, in turn, from the zero of E,
    (3*sqrt5 - 7)/2, at a denominator of 25-49 digits, so both limit signs
    come up at every size."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 10 < 7:
            s1, s2 = QUADRANTS[i % 4]
            params = AlgebraParams(
                s1 * Fraction(rng.randint(1, 12), rng.randint(1, 6)),
                s2 * Fraction(rng.randint(1, 12), rng.randint(1, 6)),
            )
        else:
            k = rng.randint(25, 49)
            n = rng.randrange(10 ** (k - 1), 10**k)
            lower = (isqrt(45 * n * n) - 7 * n) // 2
            params = AlgebraParams(1, Fraction(lower + i % 2, n))
        yield (params, *_seeds(rng))


def assert_report_matches_public_routes(params: AlgebraParams, p, q) -> None:
    # through the module, so that a fault injected into ``classify`` is seen
    report = clifford.classify(params, p, q)
    assert report.params is params
    assert report.certificate == invertibility_threshold(params)
    assert report.discriminant == growth_discriminant(params)
    assert report.form == fibonacci_form(report.certificate.n_prime, params)
    assert report.clifford_class is rank2_class(report.form)
    values = [*report.form.squares, report.discriminant.a, report.discriminant.b]
    if p is None:
        assert (report.seeds, report.seeded_discriminant, report.seeded_certificate) == (
            None, None, None,
        )
    else:
        assert report.seeds == (p, q)
        assert report.seeded_discriminant == horadam_growth_discriminant(params, p, q)
        assert report.seeded_certificate == horadam_invertibility_threshold(params, p, q)
        values += [report.seeded_discriminant.a, report.seeded_discriminant.b]
    assert all(type(v) is Fraction for v in values)
    # classify multiplies no elements, so it builds no product constants
    assert params._products is None and report.form._products is None


def check_reports(count: int, seed: int) -> None:
    signs = set()
    for params, p, q in report_cases(count, seed):
        assert_report_matches_public_routes(params, p, q)
        signs.add((params.beta1 == 1, invertibility_threshold(params).limit_sign))
    assert signs == {(ladder, sign) for ladder in (False, True) for sign in (-1, 1)}


def test_classify_report_matches_the_public_routes():
    check_reports(2000, seed=22)


H = AlgebraParams(-2, Fraction(-3, 5))
SEEDED_ENTRY_POINTS = {
    "classify": lambda p, q: clifford.classify(H, p, q),
    "horadam_invertibility_threshold": lambda p, q: horadam_invertibility_threshold(H, p, q),
    "horadam_growth_discriminant": lambda p, q: horadam_growth_discriminant(H, p, q),
    "horadam_quaternion": lambda p, q: horadam_quaternion(3, p, q, H),
    "horadam_norm_closed_form": lambda p, q: horadam_norm_closed_form(3, H, p, q),
}


# bool is an int subclass, but a seed of True would reach the JSON as true
@pytest.mark.parametrize(
    "seeds",
    [(1.0, 2), (1, Fraction(2)), ("1", 2), (3, 2.5), (True, False), (1, True), (False, 2)],
)
@pytest.mark.parametrize("name", SEEDED_ENTRY_POINTS)
def test_non_integer_seeds_raise_type_error(name, seeds):
    with pytest.raises(TypeError) as caught:
        SEEDED_ENTRY_POINTS[name](*seeds)
    assert str(caught.value) == "Horadam seeds must be integers"


@pytest.mark.parametrize("name", ["classify", "horadam_invertibility_threshold"])
def test_zero_seeds_are_indeterminate(name):
    with pytest.raises(IndeterminateError) as caught:
        SEEDED_ENTRY_POINTS[name](0, 0)
    assert str(caught.value) == (
        "seeded growth discriminant is zero for H(-2, -3/5) with seeds (p, q) = (0, 0)"
    )


@pytest.mark.parametrize("seeds", [(1, None), (None, 1), (1.5, None)])
def test_one_seed_alone_is_rejected(seeds):
    with pytest.raises(ValueError) as caught:
        clifford.classify(H, *seeds)
    assert str(caught.value) == "seeds p and q must be given together"


@pytest.mark.parametrize("norms", [(0, 5), (5, 0), (-1, 3), (3, -1)])
def test_walk_norms_off_the_limit_sign_fail_the_check(monkeypatch, norms):
    """The check that remains in ``classify``: walk norms at n' that are zero
    or off the limit sign would put a zero or a wrongly signed square into
    a form that ``DiagonalForm._of`` does not check."""
    certify = clifford._certify

    def faulty(*args):
        return certify(*args)[0], norms

    monkeypatch.setattr(clifford, "_certify", faulty)
    with pytest.raises(AssertionError, match="the form at n' does not carry the limit sign"):
        clifford.classify(H)
