"""The integer form of algebra elements: numerators ``nums`` over one
denominator ``den > 0`` with ``gcd(den, *nums) == 1``; and of ``QSqrt5``,
``(x + y*sqrt(5))/den`` with ``gcd(x, y, den) == 1``.

Every operation is checked three ways against ``Fraction`` arithmetic on the
coefficient tuples (for ``QSqrt5``, on the pairs of rational parts): its
result is in that canonical form, its ``coeffs`` (``a`` and ``b``) equal the
``Fraction`` reference, and it equals, with the same hash, the value the
public constructor builds from the reference coefficients.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibclifford.clifford import CliffordElement, DiagonalForm
from fibclifford.exactnum import ALPHA, QSqrt5
from fibclifford.quat import AlgebraParams, Quaternion, scale_isomorphism
from oracles import (
    clifford_product_coeffs,
    pair_add,
    pair_inverse,
    pair_mul,
    pair_pow,
    pair_sign,
    pair_sub,
)

#: Products whose operands have more pairs of nonzero blades than this are
#: not multiplied out in ``Fraction``s; their results are still checked for
#: the canonical form and against the other routes.
REFERENCE_PAIRS = 1024


def _rational(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 4, 6, 12, 35)))


def _nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))


def assert_holds(element, coeffs) -> None:
    """``element`` is canonical, holds exactly ``coeffs``, and equals (with
    the same hash) the element built from them by the public constructor."""
    nums, den = element.nums, element.den
    assert type(den) is int and den > 0, element
    assert type(nums) is tuple and all(type(v) is int for v in nums), element
    assert gcd(den, *nums) == 1, element
    got = element.coeffs
    assert got == tuple(coeffs) and all(type(c) is Fraction for c in got)
    if isinstance(element, Quaternion):
        rebuilt = Quaternion(element.params, *coeffs)
    else:
        rebuilt = CliffordElement(element.form, coeffs)
    assert element == rebuilt and hash(element) == hash(rebuilt)


def _check_shared_operations(x, y, s: Fraction, product: list[Fraction] | None) -> None:
    """+, -, negation and rational scaling of ``x`` and ``y``, and ``x * y``
    against ``product`` when it is given; each also by a second route."""
    xc, yc = x.coeffs, y.coeffs
    assert_holds(x + y, [a + b for a, b in zip(xc, yc)])
    assert_holds(x - y, [a - b for a, b in zip(xc, yc)])
    assert_holds(-x, [-a for a in xc])
    assert_holds(x * s, [a * s for a in xc])
    zero = x * 0
    assert (zero.den, hash(zero)) == (1, hash(x - x)) and zero == x - x
    assert s * x == x * s and hash(s * x) == hash(x * s)
    assert (x - y) + y == x and hash(x + y) == hash(y + x)
    z = x * y
    if product is not None:
        assert_holds(z, product)
    else:
        assert z.den > 0 and gcd(z.den, *z.nums) == 1
    assert -z == (-x) * y and hash(-z) == hash((-x) * y)


def check_integer_form(cases: int, seed: int) -> None:
    """``cases`` random cases, each a pair of Clifford elements of rank 0-10
    with 5-100% of their blades nonzero over squares of both signs, and a
    pair of quaternions, which add ``conjugate``, ``inverse`` and ``norm``.
    Ranks 9 and 10 are drawn less often, as one case there costs about as
    much as all the cases of rank 5 or less."""
    rng = random.Random(seed)
    for _ in range(cases):
        rank = rng.choices(range(11), weights=(4,) * 9 + (2, 1))[0]
        squares = tuple(_nonzero(rng) for _ in range(rank))
        form = DiagonalForm(squares)
        density = rng.uniform(0.05, 1.0)
        x, y = (
            CliffordElement(form, [_rational(rng) if rng.random() < density else 0
                                   for _ in range(form.dim)])
            for _ in range(2)
        )
        pairs = sum(map(bool, x.nums)) * sum(map(bool, y.nums))
        product = (
            clifford_product_coeffs(x.coeffs, y.coeffs, squares) if pairs <= REFERENCE_PAIRS
            else None
        )
        _check_shared_operations(x, y, _rational(rng, 5), product)

        b1, b2 = _nonzero(rng), _nonzero(rng)
        params = AlgebraParams(b1, b2)
        p, q = (
            Quaternion.from_coeffs(params, [_rational(rng) if rng.random() < density else 0
                                            for _ in range(4)])
            for _ in range(2)
        )
        _check_shared_operations(
            p, q, _rational(rng, 5), clifford_product_coeffs(p.coeffs, q.coeffs, (-b1, -b2))
        )
        a1, a2, a3, a4 = p.coeffs
        conjugate = [a1, -a2, -a3, -a4]
        norm = a1 * a1 + b1 * a2 * a2 + b2 * a3 * a3 + b1 * b2 * a4 * a4
        assert_holds(p.conjugate(), conjugate)
        assert p.norm() == norm and type(p.norm()) is Fraction
        if norm:
            assert_holds(p.inverse(), [c / norm for c in conjugate])


def test_every_operation_keeps_the_integer_form_and_matches_fractions():
    check_integer_form(1000, seed=21)


def test_scaling_images_are_canonical_for_scales_of_either_sign():
    """The images 1, e2/x, e3/y and e4/(xy) of ``scale_isomorphism``, on 200
    random algebras and scales with x < 0 or y < 0 in three cases of four,
    each hold their coefficient over a positive denominator."""
    rng = random.Random(23)
    for _ in range(200):
        params = AlgebraParams(_nonzero(rng), _nonzero(rng))
        x, y = _nonzero(rng), _nonzero(rng)
        _, mapping = scale_isomorphism(params, x, y)
        for k, scale in enumerate((1, 1 / x, 1 / y, 1 / (x * y))):
            coeffs = [0, 0, 0, 0]
            coeffs[k] = Fraction(scale)
            assert_holds(mapping.images[k], coeffs)


def test_zero_and_units_are_canonical_whatever_the_route():
    form = DiagonalForm((Fraction(-1, 2), 3))
    zero, one = CliffordElement.zero(form), CliffordElement.one(form)
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1)
    for other in (
        CliffordElement(form, (Fraction(0, 7),) * 4),
        CliffordElement.blade(form, 3, 0),
        CliffordElement.generator(form, 2) * 0,
        CliffordElement(form, (Fraction(1, 3), 0, 0, 0)) - one * Fraction(2, 6),
    ):
        assert other == zero and hash(other) == hash(zero) and other.den == 1
    g = CliffordElement.generator(form, 1)
    assert g * g == CliffordElement.scalar(form, Fraction(-1, 2))
    assert (g * g).nums == (-1, 0, 0, 0) and (g * g).den == 2
    half = Quaternion(AlgebraParams(1, 1), Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5, 6))
    assert (half.nums, half.den) == ((6, -9, 0, 10), 12)
    assert (half.a1, half.a2, half.a3, half.a4) == half.coeffs


def test_product_constants_leave_the_algebra_values_alone():
    """Products fill an algebra's ``_products`` field, and ``==``, ``hash``,
    ``repr`` and ``dataclasses.replace`` read the algebra as before."""
    params = AlgebraParams(Fraction(-2, 3), 5)
    form = DiagonalForm((Fraction(-1, 2), 3, Fraction(5, 3)))
    seen = {algebra: (repr(algebra), hash(algebra)) for algebra in (params, form)}
    x = Quaternion(params, 1, Fraction(1, 2), -3, 2)
    g = CliffordElement(form, [Fraction(k, 3) for k in range(8)])
    x * x, g * g  # fill both algebras' constants
    for algebra, twin, changes in (
        (params, AlgebraParams(Fraction(-2, 3), 5), {"beta2": 7}),
        (form, DiagonalForm((Fraction(-1, 2), 3, Fraction(5, 3))), {"squares": (1, 2)}),
    ):
        assert algebra._products[2] and twin._products is None
        assert (repr(algebra), hash(algebra)) == seen[algebra] == (repr(twin), hash(twin))
        assert algebra == twin and {twin: 1}[algebra] == 1
        copy = dataclasses.replace(algebra)
        assert copy == algebra and hash(copy) == hash(algebra) and copy._products is None
        changed = dataclasses.replace(algebra, **changes)
        assert changed != algebra and changed._products is None
    assert repr(params) == "AlgebraParams(beta1=Fraction(-2, 3), beta2=Fraction(5, 1))"
    assert repr(form) == (
        "DiagonalForm(squares=(Fraction(-1, 2), Fraction(3, 1), Fraction(5, 3)))"
    )


def test_products_through_a_warm_memo_equal_products_on_a_fresh_algebra():
    """510 pairs, five per form of rank 0-8 and sparse ones, about 20 blades
    each, at ranks 11 and 12, with squares of both signs and denominators up
    to 3: each product, taken again once the form's memo of M(c) is warm,
    equals the product of the same coefficients on a fresh form, and every
    memo entry is its product of n_k and d_k.  Quaternions likewise, on one
    algebra per form."""
    rng = random.Random(22)

    def square() -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 3))

    def coeffs(dim: int) -> list[Fraction]:
        density = rng.uniform(0.05, 1.0) if dim <= 256 else 20 / dim
        return [_rational(rng) if rng.random() < density else 0 for _ in range(dim)]

    def check(squares: tuple[Fraction, ...]) -> None:
        params = AlgebraParams(square(), square())
        form = DiagonalForm(squares)
        pairs = [
            (CliffordElement(form, coeffs(form.dim)), CliffordElement(form, coeffs(form.dim)),
             Quaternion.from_coeffs(params, coeffs(4)), Quaternion.from_coeffs(params, coeffs(4)))
            for _ in range(5)
        ]
        for x, y, a, b in pairs:
            x * y, a * b  # warm the memos
        for x, y, a, b in pairs:
            fresh_form = DiagonalForm(squares)
            fresh_params = AlgebraParams(params.beta1, params.beta2)
            z = CliffordElement(fresh_form, x.coeffs) * CliffordElement(fresh_form, y.coeffs)
            c = Quaternion.from_coeffs(fresh_params, a.coeffs) * Quaternion.from_coeffs(
                fresh_params, b.coeffs
            )
            assert ((x * y).nums, (x * y).den) == (z.nums, z.den)
            assert ((a * b).nums, (a * b).den) == (c.nums, c.den)
        for algebra in (form, params):
            parts, scale, memo = algebra._products
            assert scale == prod(d for _, d in parts)
            assert memo or len(parts) <= 8
            for common, m in memo.items():
                assert m == prod(n if common >> k & 1 else d for k, (n, d) in enumerate(parts))

    for _ in range(100):
        check(tuple(square() for _ in range(rng.randint(0, 8))))
    for rank in (11, 12):
        check(tuple(square() for _ in range(rank)))


# -- Q(sqrt 5) ---------------------------------------------------------------

rationals = st.one_of(
    st.fractions(min_value=-60, max_value=60, max_denominator=60),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)),
)


def assert_qsqrt5_holds(value, pair) -> None:
    """``value`` is canonical, holds exactly the rational parts ``pair``, and
    equals (with the same hash) the ``QSqrt5`` built from them."""
    x, y, den = value.x, value.y, value.den
    assert type(x) is type(y) is type(den) is int and den > 0, value
    assert gcd(x, y, den) == 1, value
    assert (value.a, value.b) == pair and type(value.a) is type(value.b) is Fraction
    rebuilt = QSqrt5(*pair)
    assert value == rebuilt and hash(value) == hash(rebuilt)


@given(rationals, rationals, rationals, rationals, rationals, st.integers(-5, 5))
def test_every_qsqrt5_operation_keeps_the_integer_form_and_matches_fraction_pairs(
    a, b, c, d, r, n
):
    u, v = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))
    x, y = QSqrt5(a, b), QSqrt5(c, d)
    rational = (Fraction(r), Fraction(0))
    assert_qsqrt5_holds(x, u)
    assert_qsqrt5_holds(QSqrt5.from_rat(r), rational)
    assert_qsqrt5_holds(x + y, pair_add(u, v))
    assert_qsqrt5_holds(x + r, pair_add(u, rational))
    assert_qsqrt5_holds(r + x, pair_add(u, rational))
    assert_qsqrt5_holds(x - y, pair_sub(u, v))
    assert_qsqrt5_holds(x - r, pair_sub(u, rational))
    assert_qsqrt5_holds(r - x, pair_sub(rational, u))
    assert_qsqrt5_holds(-x, pair_sub((Fraction(0), Fraction(0)), u))
    assert_qsqrt5_holds(x * y, pair_mul(u, v))
    assert_qsqrt5_holds(x * r, pair_mul(u, rational))
    assert_qsqrt5_holds(r * x, pair_mul(u, rational))
    assert_qsqrt5_holds(x.conjugate(), (u[0], -u[1]))
    assert_qsqrt5_holds(abs(x), u if pair_sign(u) >= 0 else pair_sub((0, 0), u))
    assert x.sign() == pair_sign(u)
    assert (x < y) == (pair_sign(pair_sub(u, v)) < 0)
    assert (x <= r) == (pair_sign(pair_sub(u, rational)) <= 0)
    if any(v):
        assert_qsqrt5_holds(y.inverse(), pair_inverse(v))
        assert_qsqrt5_holds(x / y, pair_mul(u, pair_inverse(v)))
        assert_qsqrt5_holds(r / y, pair_mul(rational, pair_inverse(v)))
    if r:
        assert_qsqrt5_holds(x / r, pair_mul(u, pair_inverse(rational)))
    if any(u) or n >= 0:
        assert_qsqrt5_holds(x**n, pair_pow(u, n))


def test_qsqrt5_fields_repr_and_replace():
    """The integer form is what ``fields`` and ``repr`` show; ``replace`` would
    pass those fields to a constructor that takes the rational parts."""
    assert [f.name for f in dataclasses.fields(QSqrt5)] == ["x", "y", "den"]
    assert repr(ALPHA) == "QSqrt5(x=1, y=1, den=2)"
    value = QSqrt5(Fraction(-3, 4), Fraction(5, 6))
    assert repr(value) == "QSqrt5(x=-9, y=10, den=12)"
    assert (value.x, value.y, value.den) == (-9, 10, 12)
    assert repr(QSqrt5(Fraction(4, 6), 0)) == "QSqrt5(x=2, y=0, den=3)"
    assert repr(QSqrt5(0, 0)) == "QSqrt5(x=0, y=0, den=1)"
    with pytest.raises(TypeError):
        dataclasses.replace(value, x=1)
