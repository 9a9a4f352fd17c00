"""Independent oracles for the test suite.

Everything here is deliberately naive: plain recurrences, interval
bisection, symbol-by-symbol rewriting.  None of it shares code paths with
the package under test.
"""

from __future__ import annotations

from fractions import Fraction

from fibclifford.exactnum import QSqrt5
from fibclifford.quat import AlgebraParams, Quaternion


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
