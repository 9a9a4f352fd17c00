"""Generalized quaternion algebras H(beta1, beta2) over exact rationals.

Basis {1, e2, e3, e4} with e2^2 = -beta1, e3^2 = -beta2, e4 = e2*e3,
e4^2 = -beta1*beta2, and anticommuting imaginary units:

        *    | 1    e2        e3        e4
        -----+---------------------------------
        e2   | e2   -b1       e4        -b1*e3
        e3   | e3   -e4       -b2       b2*e2
        e4   | e4   b1*e3     -b2*e2    -b1*b2

The norm n(a) = a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 is multiplicative and
an element is invertible exactly when its norm is nonzero.  Over the reals
the algebra is a division algebra iff both parameters are positive; with at
least one negative parameter it is split, although a *rational* zero divisor
need not exist (the search helper below returns None in that case).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from .errors import (
    DegenerateAlgebraError,
    MixedAlgebrasError,
    NotInvertibleError,
    ZeroScaleError,
)
from .exactnum import Rat, _signed_sum, _to_rat, format_rat


@dataclass(frozen=True, slots=True)
class AlgebraParams:
    """Parameters (beta1, beta2) of H(beta1, beta2); both must be nonzero."""

    beta1: Fraction
    beta2: Fraction

    def __post_init__(self) -> None:
        b1, b2 = _to_rat(self.beta1), _to_rat(self.beta2)
        if b1 == 0 or b2 == 0:
            raise DegenerateAlgebraError(
                "algebra parameters must be nonzero "
                f"(got beta1={format_rat(b1)}, beta2={format_rat(b2)})"
            )
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)

    def label(self) -> str:
        return f"H({format_rat(self.beta1)}, {format_rat(self.beta2)})"


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Element a1 + a2*e2 + a3*e3 + a4*e4 of H(beta1, beta2)."""

    params: AlgebraParams
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "a4"):
            object.__setattr__(self, name, _to_rat(getattr(self, name)))

    @classmethod
    def from_coeffs(cls, params: AlgebraParams, coeffs) -> Quaternion:
        c = tuple(map(_to_rat, coeffs))
        if len(c) != 4:
            raise ValueError(f"need exactly 4 coefficients, got {len(c)}")
        return cls(params, *c)

    @classmethod
    def zero(cls, params: AlgebraParams) -> Quaternion:
        return cls(params, 0, 0, 0, 0)

    @classmethod
    def one(cls, params: AlgebraParams) -> Quaternion:
        return cls(params, 1, 0, 0, 0)

    @classmethod
    def basis(cls, params: AlgebraParams) -> tuple[Quaternion, ...]:
        """(1, e2, e3, e4)."""
        return tuple(
            cls(params, *(1 if j == i else 0 for j in range(4))) for i in range(4)
        )

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4)

    def _require_same_algebra(self, other: Quaternion) -> None:
        if self.params != other.params:
            raise MixedAlgebrasError(
                f"cannot combine elements of {self.params.label()} "
                f"and {other.params.label()}"
            )

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        return Quaternion(
            self.params,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
            self.a4 + other.a4,
        )

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> Quaternion:
        return Quaternion(self.params, -self.a1, -self.a2, -self.a3, -self.a4)

    def __mul__(self, other: Quaternion | Rat | int) -> Quaternion:
        if isinstance(other, (int, Fraction)):
            s = _to_rat(other)
            return Quaternion(
                self.params, self.a1 * s, self.a2 * s, self.a3 * s, self.a4 * s
            )
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        b1, b2 = self.params.beta1, self.params.beta2
        x1, x2, x3, x4 = self.coeffs
        y1, y2, y3, y4 = other.coeffs
        return Quaternion(
            self.params,
            x1 * y1 - b1 * x2 * y2 - b2 * x3 * y3 - b1 * b2 * x4 * y4,
            x1 * y2 + x2 * y1 + b2 * (x3 * y4 - x4 * y3),
            x1 * y3 + x3 * y1 + b1 * (x4 * y2 - x2 * y4),
            x1 * y4 + x4 * y1 + x2 * y3 - x3 * y2,
        )

    def __rmul__(self, other: Rat | int) -> Quaternion:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conjugate(self) -> Quaternion:
        """(a1, -a2, -a3, -a4); satisfies x * conj(x) = norm(x) * 1."""
        return Quaternion(self.params, self.a1, -self.a2, -self.a3, -self.a4)

    def norm(self) -> Fraction:
        """a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 (multiplicative)."""
        b1, b2 = self.params.beta1, self.params.beta2
        return (
            self.a1 * self.a1
            + b1 * self.a2 * self.a2
            + b2 * self.a3 * self.a3
            + b1 * b2 * self.a4 * self.a4
        )

    def inverse(self) -> Quaternion:
        n = self.norm()
        if n == 0:
            raise NotInvertibleError(
                f"zero norm, no inverse: ({', '.join(format_rat(c) for c in self.coeffs)}) "
                f"in {self.params.label()}"
            )
        return self.conjugate() * (1 / n)

    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0, 0)

    def to_json(self) -> dict:
        return {
            "beta1": format_rat(self.params.beta1),
            "beta2": format_rat(self.params.beta2),
            "coeffs": [format_rat(c) for c in self.coeffs],
        }

    def __str__(self) -> str:
        return _signed_sum(zip(self.coeffs, ("1", "e2", "e3", "e4")))


def is_division_algebra(params: AlgebraParams) -> bool:
    """True iff H(beta1, beta2) is a division algebra over the reals.

    Both parameters positive makes the norm form positive definite, hence
    anisotropic; any negative parameter produces real zero divisors.
    """
    return params.beta1 > 0 and params.beta2 > 0


@dataclass(frozen=True, slots=True)
class BasisMap:
    """Linear map between quaternion algebras given by images of (1, e2, e3, e4):
    coefficients (c1, c2, c3, c4) map to the sum of c_k * images[k]."""

    source: AlgebraParams
    target: AlgebraParams
    images: tuple[Quaternion, Quaternion, Quaternion, Quaternion]


def scale_isomorphism(
    params: AlgebraParams, x: Rat | int, y: Rat | int
) -> tuple[AlgebraParams, BasisMap]:
    """Isomorphism H(b1, b2) -> H(x^2 b1, y^2 b2) for nonzero rational x, y.

    The basis map is 1 -> 1, e2 -> e2'/x, e3 -> e3'/y, e4 -> e4'/(xy).  The
    test suite proves it multiplicative for every nonzero b1, b2, x, y; it
    is not re-checked per call.
    """
    x, y = _to_rat(x), _to_rat(y)
    if x == 0 or y == 0:
        raise ZeroScaleError(
            f"scale factors must be nonzero (got x={format_rat(x)}, y={format_rat(y)})"
        )
    target = AlgebraParams(x * x * params.beta1, y * y * params.beta2)
    one, e2, e3, e4 = Quaternion.basis(target)
    return target, BasisMap(
        params, target, (one, e2 * (1 / x), e3 * (1 / y), e4 * (1 / (x * y)))
    )


def _rat_sqrt(value: Fraction) -> Fraction | None:
    """Exact rational square root, or None if value is not a rational square."""
    if value < 0:
        return None
    pn, pd = value.numerator, value.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


#: Largest coordinate height ``zero_divisor_witness`` searches.
MAX_WITNESS_HEIGHT = 8


def zero_divisor_witness(params: AlgebraParams) -> Quaternion | None:
    """A nonzero quaternion of zero norm, constructed deterministically.

    Tries closed forms first (1 + e_k/t whenever the matching square root is
    rational, then e2 + t*e3), falling back to an exhaustive search over
    integer coordinate vectors of height <= ``MAX_WITNESS_HEIGHT``.  Returns
    None for division algebras and for split algebras whose norm form
    happens to be anisotropic over the rationals within the search bound.
    """
    if is_division_algebra(params):
        return None
    b1, b2 = params.beta1, params.beta2
    for value, slot in ((-b1, 1), (-b2, 2), (-b1 * b2, 3)):
        t = _rat_sqrt(value)
        if t is not None and t != 0:
            coeffs = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
            coeffs[slot] = 1 / t
            return Quaternion.from_coeffs(params, coeffs)
    t = _rat_sqrt(-b1 / b2)
    if t is not None and t != 0:
        return Quaternion.from_coeffs(params, (0, 1, t, 0))
    for height in range(1, MAX_WITNESS_HEIGHT + 1):
        for coords in product(range(-height, height + 1), repeat=4):
            if max(abs(c) for c in coords) != height:
                continue
            candidate = Quaternion.from_coeffs(params, coords)
            if candidate.norm() == 0:
                return candidate
    return None
