"""Independent oracles for the test suite.

Everything here is deliberately naive: plain recurrences, interval
bisection, symbol-by-symbol rewriting.  None of it shares code paths with
the package under test, except the checks of the quaternion identifications
(``rank2_as_quaternion`` to ``basis_map_is_multiplicative``): they multiply
with ``Quaternion``, which ``quaternion_mul_reference`` checks in turn.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def sign_by_interval(x: QSqrt5) -> int:
    """Sign via shrinking rational enclosures of sqrt(5); terminates for any
    exact input because sqrt(5) is irrational."""
    if x.a == 0 and x.b == 0:
        return 0
    lo, hi = Fraction(2), Fraction(9, 4)  # 2 < sqrt(5) < 2.25
    while True:
        lo_val = x.a + x.b * (lo if x.b > 0 else hi)
        hi_val = x.a + x.b * (hi if x.b > 0 else lo)
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


def blade_product_rewrite(
    mask_a: int, mask_b: int, squares: tuple[Fraction, ...]
) -> tuple[Fraction, int]:
    """Multiply blades by rewriting the concatenated generator word:
    swap out-of-order neighbours with a sign flip, contract equal
    neighbours to their square."""
    word = [i for i in range(len(squares)) if mask_a >> i & 1]
    word += [i for i in range(len(squares)) if mask_b >> i & 1]
    coeff = Fraction(1)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            x, y = word[k], word[k + 1]
            if x > y:
                word[k], word[k + 1] = y, x
                coeff = -coeff
                changed = True
                break
            if x == y:
                coeff *= squares[x]
                del word[k + 1]
                del word[k]
                changed = True
                break
    mask = 0
    for i in word:
        mask |= 1 << i
    return coeff, mask


def clifford_mul_reference(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Bilinear extension of ``blade_product_rewrite``: every pair of
    nonzero blades is rewritten word by word and added in ``Fraction``s;
    independent of the sign rule and integer scaling in the package."""
    assert x.form == y.form
    squares = x.form.squares
    out = [Fraction(0)] * x.form.dim
    for i, xi in enumerate(x.coeffs):
        if not xi:
            continue
        for j, yj in enumerate(y.coeffs):
            if not yj:
                continue
            coeff, mask = blade_product_rewrite(i, j, squares)
            out[mask] += xi * yj * coeff
    return CliffordElement(x.form, tuple(out))


def rank2_as_quaternion(x: CliffordElement) -> Quaternion:
    """The rank-2 element ``x`` of Cl(diag(a, b)) as a quaternion of
    H(-a, -b): blades (1, g1, g2, g1g2) go to (1, e2, e3, e4), so the
    coefficient tuple carries over unchanged."""
    return Quaternion.from_coeffs(clifford.quaternion_isomorphism(x.form), x.coeffs)


def blade_table_is_quaternion_table(form: clifford.DiagonalForm) -> bool:
    """True iff the blade products of the rank-2 ``form`` map onto the basis
    products of H(-a, -b) on all 16 pairs (hence everywhere, by bilinearity).
    ``blade_product`` is read through its module, so a test that patches
    ``clifford.blade_product`` reaches this check."""
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
    component formulas used by Quaternion.__mul__."""
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
    b1, b2 = x.params.beta1, x.params.beta2
    a1, a2, a3, a4 = x.coeffs
    return a1**2 + b1 * a2**2 + b2 * a3**2 + b1 * b2 * a4**2


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
