"""Independent oracles for the test suite.

Everything here is deliberately naive: plain recurrences, interval
bisection, symbol-by-symbol rewriting.  None of it shares code paths with
the package under test, except the checks of the quaternion identifications
(``rank2_as_quaternion`` to ``basis_map_is_multiplicative``): they multiply
with ``Quaternion``, which ``quaternion_mul_reference`` checks in turn; and
``fibonacci_form_reference`` and ``zero_divisor_witness_reference``, which
build ``Quaternion`` values (the first from ``fib_naive`` windows) but take
every norm with ``quaternion_norm_reference``, a ``Fraction`` formula, where
the package evaluates the integer norm form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from fibclifford import clifford
from fibclifford.clifford import CliffordElement
from fibclifford.exactnum import ALPHA, BETA, QSqrt5
from fibclifford.quat import AlgebraParams, BasisMap, Quaternion


def fib_naive(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas_naive(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def horadam_naive(n: int, p: int, q: int) -> int:
    a, b = p, q
    for _ in range(n):
        a, b = b, a + b
    return a


def int_from_decimal(text: str) -> int:
    """Value of ``-?[0-9]+`` read digit by digit, so the interpreter's limit
    on int/str conversion does not apply; any other character raises."""
    value = 0
    for ch in text.removeprefix("-"):
        value = value * 10 + "0123456789".index(ch)
    return -value if text.startswith("-") else value


def weighted_even_powers(b1: Fraction, b2: Fraction, x: QSqrt5) -> QSqrt5:
    """1 + b1*x^2 + b2*x^4 + b1*b2*x^6: the growth constant S+ at x = alpha,
    S- at x = beta, evaluated as the polynomial it is defined by."""
    x2 = x * x
    x4 = x2 * x2
    return 1 + x2 * b1 + x4 * b2 + x4 * x2 * (b1 * b2)


def seeded_discriminant_reference(params: AlgebraParams, p: int, q: int) -> QSqrt5:
    """E' = (p + q*alpha)^2 * E / 5 in Q(sqrt 5), with E = S+/5 evaluated
    as its defining polynomial."""
    e = weighted_even_powers(params.beta1, params.beta2, ALPHA) / 5
    a = ALPHA * q + p
    return a * a * e / 5


def fibonacci_form_reference(n: int, params: AlgebraParams) -> tuple[Fraction, Fraction]:
    """(n(F(n)), n(F(n+1))) as ``Fraction`` norms of the Fibonacci quaternions,
    their windows counted by ``fib_naive`` rather than the package's doubling."""
    window = [fib_naive(n + j) for j in range(5)]
    return (
        quaternion_norm_reference(Quaternion(params, *window[:4])),
        quaternion_norm_reference(Quaternion(params, *window[1:])),
    )


def sign_by_interval(x: QSqrt5) -> int:
    """The sign of x, by :func:`pair_sign` on its rational parts."""
    return pair_sign((x.a, x.b))


# -- Q(sqrt 5) on plain Fraction pairs (a, b), the number a + b*sqrt(5) --------
# The references for ``QSqrt5``'s integer arithmetic; they use nothing from
# the package.

Pair = tuple[Fraction, Fraction]


def pair_add(u: Pair, v: Pair) -> Pair:
    return u[0] + v[0], u[1] + v[1]


def pair_sub(u: Pair, v: Pair) -> Pair:
    return u[0] - v[0], u[1] - v[1]


def pair_mul(u: Pair, v: Pair) -> Pair:
    return u[0] * v[0] + 5 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def pair_inverse(u: Pair) -> Pair:
    """1/(a + b sqrt5) = (a - b sqrt5)/(a^2 - 5b^2)."""
    norm = u[0] * u[0] - 5 * u[1] * u[1]
    return u[0] / norm, -u[1] / norm


def pair_pow(u: Pair, n: int) -> Pair:
    """u^n by |n| multiplications, inverted for n < 0."""
    result = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        result = pair_mul(result, u)
    return result if n >= 0 else pair_inverse(result)


def pair_sign(u: Pair) -> int:
    """Sign via shrinking rational enclosures of sqrt(5); terminates for any
    exact input because sqrt(5) is irrational."""
    a, b = u
    if a == 0 and b == 0:
        return 0
    lo, hi = Fraction(2), Fraction(9, 4)  # 2 < sqrt(5) < 2.25
    while True:
        lo_val = a + b * (lo if b > 0 else hi)
        hi_val = a + b * (hi if b > 0 else lo)
        if lo_val > 0:
            return 1
        if hi_val < 0:
            return -1
        mid = (lo + hi) / 2
        if mid * mid < 5:
            lo = mid
        else:
            hi = mid


def reference_certificate(
    b1: Fraction, b2: Fraction, p: int, q: int
) -> tuple[int, int, int]:
    """(n_prime, horizon, limit_sign) of the threshold of H(n; p, q) in
    H(b1, b2), by the closed-form bound in Q(sqrt 5): the horizon is the
    least N with |A^2 S+| * alpha^(2N-2) > |B^2 S-| * alpha^2 + 2|AB * S0|
    (A = p + q*alpha, B = p + q*beta), each comparison decided by
    ``sign_by_interval``, and the indices 0..N are checked on the rational
    norms of windows of ``horadam_naive``."""
    s_plus = weighted_even_powers(b1, b2, ALPHA)
    s_minus = weighted_even_powers(b1, b2, BETA)
    s_zero = 1 - b1 + b2 - b1 * b2
    a = ALPHA * q + p
    b = BETA * q + p
    limit_sign = sign_by_interval(a * a * s_plus)
    assert limit_sign != 0, "seeds (0, 0)"

    def magnitude(x: QSqrt5) -> QSqrt5:
        return x if sign_by_interval(x) >= 0 else -x

    alpha_sq = ALPHA * ALPHA
    growing = magnitude(a * a * s_plus) / alpha_sq
    bound = magnitude(b * b * s_minus) * alpha_sq + magnitude(a * b * s_zero) * 2
    horizon = 0
    while sign_by_interval(growing - bound) <= 0:
        horizon += 1
        growing = growing * alpha_sq
    h = [horadam_naive(k, p, q) for k in range(horizon + 4)]
    n_prime = 0
    for m in range(horizon + 1):
        x1, x2, x3, x4 = h[m : m + 4]
        norm = x1 * x1 + b1 * x2 * x2 + b2 * x3 * x3 + b1 * b2 * x4 * x4
        if norm * limit_sign <= 0:
            n_prime = m + 1
    return n_prime, horizon, limit_sign


def walked_threshold(
    b1: Fraction, b2: Fraction, p: int, q: int, horizon: int, limit_sign: int
) -> tuple[int, tuple[int, int]]:
    """n' and the pair (v(n'), v(n'+1)) by the full walk over 0..horizon:
    v(m) = limit_sign * d1*d2 * n(H(m; p, q)), each evaluated on its own
    window of the seeded sequence, and n' is one past the last index there
    with v(m) <= 0.  No index is skipped: the reference for the certifier's
    AM-GM shortcut and stop rule."""
    (n1, d1), (n2, d2) = b1.as_integer_ratio(), b2.as_integer_ratio()
    c = (d1 * d2, n1 * d2, n2 * d1, n1 * n2)
    h = [p, q]
    while len(h) < horizon + 5:
        h.append(h[-1] + h[-2])
    v = [
        limit_sign * sum(ck * hk * hk for ck, hk in zip(c, h[m : m + 4]))
        for m in range(horizon + 2)
    ]
    n_prime = 0
    for m in range(horizon + 1):
        if v[m] <= 0:
            n_prime = m + 1
    return n_prime, (v[n_prime], v[n_prime + 1])


def blade_product_rewrite(
    mask_a: int, mask_b: int, squares: tuple[Fraction, ...]
) -> tuple[Fraction, int]:
    """Multiply blades by rewriting the concatenated generator word:
    swap out-of-order neighbours with a sign flip, contract equal
    neighbours to their square.  The squares-free rewriting comes from
    :func:`_rewrite_word`; the squares of the contracted generators
    multiply in here."""
    sign, contracted, mask = _rewrite_word(mask_a, mask_b)
    return _word_coefficient(sign, contracted, squares), mask


def _word_coefficient(sign: int, contracted: tuple[int, ...], squares) -> Fraction:
    coeff = Fraction(sign)
    for i in contracted:
        coeff *= squares[i]
    return coeff


@lru_cache(maxsize=1 << 16)
def _rewrite_word(mask_a: int, mask_b: int) -> tuple[int, tuple[int, ...], int]:
    """(sign, contracted generators, result mask) of rewriting the word of
    ``mask_a`` followed by that of ``mask_b``, whatever the squares: they
    enter the product only through the generators contracted, so one
    rewriting per pair of masks serves every form."""
    word = [i for i in range(mask_a.bit_length()) if mask_a >> i & 1]
    word += [i for i in range(mask_b.bit_length()) if mask_b >> i & 1]
    sign, contracted = 1, []
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            x, y = word[k], word[k + 1]
            if x > y:
                word[k], word[k + 1] = y, x
                sign = -sign
                changed = True
                break
            if x == y:
                contracted.append(x)
                del word[k + 1]
                del word[k]
                changed = True
                break
    mask = 0
    for i in word:
        mask |= 1 << i
    return sign, tuple(contracted), mask


def clifford_mul_reference(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """``x * y`` from :func:`clifford_product_coeffs`."""
    assert x.form == y.form
    return CliffordElement(x.form, clifford_product_coeffs(x.coeffs, y.coeffs, x.form.squares))


def clifford_product_coeffs(
    x: tuple[Fraction, ...], y: tuple[Fraction, ...], squares: tuple[Fraction, ...]
) -> list[Fraction]:
    """Bilinear extension of ``blade_product_rewrite`` to the coefficient
    tuples ``x`` and ``y``: every pair of nonzero blades is rewritten word
    by word and added in ``Fraction``s; independent of the sign rule and
    integer scaling in the package.  The squares multiply in once per sign
    and set of contracted generators."""
    coeffs: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    out = [Fraction(0)] * len(x)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            sign, contracted, mask = _rewrite_word(i, j)
            coeff = coeffs.get((sign, contracted))
            if coeff is None:
                coeff = coeffs[sign, contracted] = _word_coefficient(sign, contracted, squares)
            out[mask] += xi * yj * coeff
    return out


def rank2_as_quaternion(x: CliffordElement) -> Quaternion:
    """The rank-2 element ``x`` of Cl(diag(a, b)) as a quaternion of
    H(-a, -b): blades (1, g1, g2, g1g2) go to (1, e2, e3, e4), so the
    coefficient tuple carries over unchanged."""
    return Quaternion.from_coeffs(clifford.quaternion_isomorphism(x.form), x.coeffs)


def blade_table_is_quaternion_table(form: clifford.DiagonalForm) -> bool:
    """True iff the blade products of the rank-2 ``form`` map onto the basis
    products of H(-a, -b) on all 16 pairs (hence everywhere, by bilinearity).
    ``blade_product`` is read through its module, so a test that patches
    ``clifford.blade_product`` reaches this check.  Both sides take their
    signs from ``quat._reorder_parity`` and read the squares as the integer
    pairs of ``quat._constants``, so a fault in either passes this check;
    the explicit basis table of ``quaternion_mul_reference`` catches the
    first, and ``blade_product_rewrite``, which reads ``form.squares``, the
    second."""
    images = Quaternion.basis(clifford.quaternion_isomorphism(form))
    for i in range(4):
        for j in range(4):
            coeff, mask = clifford.blade_product(i, j, form)
            if images[mask] * coeff != images[i] * images[j]:
                return False
    return True


def apply_basis_map(mapping: BasisMap, x: Quaternion) -> Quaternion:
    """The image of ``x``: the sum of its coefficients times the images of
    (1, e2, e3, e4)."""
    assert x.params == mapping.source
    acc = Quaternion.zero(mapping.target)
    for coeff, image in zip(x.coeffs, mapping.images):
        acc = acc + image * coeff
    return acc


def basis_map_is_multiplicative(mapping: BasisMap) -> bool:
    """True iff ``mapping`` sends 1 to 1 and respects the product on all 16
    basis pairs (hence everywhere, by bilinearity)."""
    basis = Quaternion.basis(mapping.source)
    if apply_basis_map(mapping, basis[0]) != Quaternion.one(mapping.target):
        return False
    return all(
        apply_basis_map(mapping, u * v)
        == apply_basis_map(mapping, u) * apply_basis_map(mapping, v)
        for u in basis
        for v in basis
    )


# Basis products of H(beta1, beta2), straight from the defining table.
def _basis_table(params: AlgebraParams) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    b1, b2 = params.beta1, params.beta2
    z, one = Fraction(0), Fraction(1)
    e = lambda k: tuple(one if j == k else z for j in range(4))
    table: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for j in range(4):
        table[(0, j)] = e(j)
        table[(j, 0)] = e(j)
    table[(1, 1)] = (-b1, z, z, z)
    table[(1, 2)] = e(3)
    table[(1, 3)] = (z, z, -b1, z)
    table[(2, 1)] = (z, z, z, -one)
    table[(2, 2)] = (-b2, z, z, z)
    table[(2, 3)] = (z, b2, z, z)
    table[(3, 1)] = (z, z, b1, z)
    table[(3, 2)] = (z, -b2, z, z)
    table[(3, 3)] = (-b1 * b2, z, z, z)
    return table


def quaternion_mul_reference(x: Quaternion, y: Quaternion) -> Quaternion:
    """Bilinear extension of the explicit basis table; independent of the
    blade kernel that Quaternion.__mul__ shares with CliffordElement."""
    assert x.params == y.params
    table = _basis_table(x.params)
    out = [Fraction(0)] * 4
    for i, xi in enumerate(x.coeffs):
        if not xi:
            continue
        for j, yj in enumerate(y.coeffs):
            if not yj:
                continue
            for k, c in enumerate(table[(i, j)]):
                out[k] += xi * yj * c
    return Quaternion.from_coeffs(x.params, out)


def quaternion_norm_reference(x: Quaternion) -> Fraction:
    """a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 in ``Fraction``s."""
    b1, b2 = x.params.beta1, x.params.beta2
    a1, a2, a3, a4 = x.coeffs
    return a1**2 + b1 * a2**2 + b2 * a3**2 + b1 * b2 * a4**2


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value <= 0:
        return None
    n, d = isqrt(value.numerator), isqrt(value.denominator)
    return Fraction(n, d) if Fraction(n * n, d * d) == value else None


def zero_divisor_witness_reference(params: AlgebraParams, height: int) -> Quaternion | None:
    """``zero_divisor_witness`` searching up to ``height``, one ``Quaternion``
    and one ``Fraction`` norm per candidate: the closed forms 1 + e_k/t and
    e2 + t*e3 first, then the shells of integer vectors of each height in
    ``itertools.product`` order."""
    b1, b2 = params.beta1, params.beta2
    if b1 > 0 and b2 > 0:
        return None
    for slot, value in enumerate((-b1, -b2, -b1 * b2), start=1):
        t = _rational_sqrt(value)
        if t is not None:
            coeffs = [1, 0, 0, 0]
            coeffs[slot] = 1 / t
            return Quaternion.from_coeffs(params, coeffs)
    t = _rational_sqrt(-b1 / b2)
    if t is not None:
        return Quaternion.from_coeffs(params, (0, 1, t, 0))
    for h in range(1, height + 1):
        for coords in product(range(-h, h + 1), repeat=4):
            if max(abs(c) for c in coords) != h:
                continue
            candidate = Quaternion.from_coeffs(params, coords)
            if quaternion_norm_reference(candidate) == 0:
                return candidate
    return None


def parse_signed_sum(text: str) -> dict[str, Fraction]:
    """Coefficients by basis name of a rendered sum such as
    ``-3/2 + e2 - 5*e1e3``, read token by token: the first term may carry a
    leading ``-``, every later one follows `` + `` or `` - ``, a bare number
    is a multiple of the unit (named ``"1"``), a bare name has coefficient 1,
    and ``0`` is the empty sum.  Raises ``ValueError`` on anything else: a
    zero or doubly signed term, a repeated name, or an explicit ``1*``."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"dangling operator in {text!r}")
    first = tokens[0]
    signs = ["-" if first.startswith("-") else "+"] + tokens[1::2]
    terms = [first.removeprefix("-")] + tokens[2::2]
    out: dict[str, Fraction] = {}
    for sign, term in zip(signs, terms):
        if sign not in ("+", "-") or not term or term[0] in "+-":
            raise ValueError(f"bad sign before {term!r} in {text!r}")
        digits, star, name = term.rpartition("*")
        if not star:
            digits, name = (term, "1") if term[0] in "0123456789" else ("1", term)
        elif digits == "1" or not name or name[0] in "0123456789":
            raise ValueError(f"non-canonical term {term!r} in {text!r}")
        num, slash, den = digits.partition("/")
        n, d = int_from_decimal(num), int_from_decimal(den) if slash else 1
        if num[:1] in ("", "0") or slash and (den[:1] in ("", "0") or d == 1 or gcd(n, d) != 1):
            raise ValueError(f"coefficient {digits!r} not in lowest terms in {text!r}")
        if name in out:
            raise ValueError(f"repeated basis name {name!r} in {text!r}")
        value = Fraction(n, d)
        out[name] = -value if sign == "-" else value
    return out
