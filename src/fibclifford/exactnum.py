"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt 5).

``Rat`` is an alias for :class:`fractions.Fraction`, which already keeps the
canonical form used throughout this package (reduced, positive denominator,
structural equality).  :class:`QSqrt5` represents the real number
``a + b*sqrt(5)`` with rational ``a``, ``b``.  Because sqrt(5) is irrational
the representation is unique, so equality is componentwise, and a rational
compares equal to (and hashes like) the element with a zero sqrt(5) part.
The sign of any element, and so the order, is decidable on integers, by
comparing x**2 with 5*y**2 once the denominators are cleared; no floating
point appears anywhere.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import LiteralTooLongError

Rat = Fraction

# ASCII digits only: ``\d`` and ``int()`` also take other scripts' digits,
# and ``int()`` takes underscores and a leading ``+``.
_INT_PATTERN = re.compile(r"-?[0-9]+")
_RAT_PATTERN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

#: Most digits one integer of a literal may have; below CPython's default
#: 4300-digit str-to-int limit, so this cap, a domain error, applies first.
MAX_LITERAL_DIGITS = 4000


def _to_rat(value: Rat | int) -> Rat:
    """``value`` as a ``Fraction``: a ``Fraction`` passes unchanged, an ``int``
    is wrapped, and anything else (``float``, ``str``, ``Decimal``) is a
    ``TypeError``, so no binary float reaches an exact value."""
    # int first: isinstance against Fraction, an ABC, is slow for non-Fractions
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _check_digits(s: str) -> None:
    digits = max(len(part) for part in s.lstrip("-").split("/"))
    if digits > MAX_LITERAL_DIGITS:
        raise LiteralTooLongError(
            f"{digits}-digit integer exceeds the cap of {MAX_LITERAL_DIGITS} digits"
        )


def parse_int(text: str) -> int:
    """Parse ``"n"`` (optional leading ``-``, ASCII digits only, at most
    ``MAX_LITERAL_DIGITS`` digits)."""
    s = text.strip()
    if not _INT_PATTERN.fullmatch(s):
        raise ValueError(f"not an integer literal: {text!r}")
    _check_digits(s)
    return int(s)


def parse_rat(text: str) -> Rat:
    """Parse ``"n"`` or ``"n/d"`` (optional leading ``-``, ``d`` > 0, each of
    ``n`` and ``d`` at most ``MAX_LITERAL_DIGITS`` digits)."""
    s = text.strip()
    if not _RAT_PATTERN.fullmatch(s):
        raise ValueError(f"not a rational literal: {text!r}")
    _check_digits(s)
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _decimal(n: int) -> str:
    # str(n) in pieces of under 600 digits: CPython refuses to convert ints
    # past a digit limit (4300 by default, 640 at the least), which guards
    # parsing against quadratic time but would also refuse valid outputs.
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() < 1990:
        return str(n)
    low_digits = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def format_rat(value: Rat | int) -> str:
    """Render a rational in the textual wire format (``-3/2``, ``7``), of any size."""
    x = _to_rat(value)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _signed_sum(terms: Iterable[tuple[Rat | int, str]]) -> str:
    """Render ``(coefficient, basis name)`` pairs as a signed sum such as
    ``1 - e2 + 5/2*e4``: zero terms are skipped, a coefficient of magnitude
    1 is left out, the name ``"1"`` is the unit, and no terms print ``0``."""
    parts = []
    for coeff, name in terms:
        if not coeff:
            continue
        mag = format_rat(abs(coeff))
        term = mag if name == "1" else name if mag == "1" else f"{mag}*{name}"
        parts.append(("- " if coeff < 0 else "+ ") + term)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _sign_z5(x: int, y: int) -> int:
    """Sign of x + y*sqrt(5) for integers x, y."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > 5 * y * y else -sx


@total_ordering
@dataclass(frozen=True, slots=True, eq=False)
class QSqrt5:
    """The real number ``a + b*sqrt(5)``, exactly."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _to_rat(self.a))
        object.__setattr__(self, "b", _to_rat(self.b))

    @classmethod
    def _of(cls, a: Fraction, b: Fraction) -> QSqrt5:
        """``a + b*sqrt(5)`` for ``Fraction``s a and b, taken as they are: the
        constructor for values the package computed itself."""
        new = object.__new__(cls)
        object.__setattr__(new, "a", a)
        object.__setattr__(new, "b", b)
        return new

    @classmethod
    def from_rat(cls, value: Rat | int) -> QSqrt5:
        return cls(value, Fraction(0))

    # -- ring / field operations -------------------------------------------

    @staticmethod
    def _coerce(other: object) -> QSqrt5 | None:
        if isinstance(other, QSqrt5):
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt5(other, Fraction(0))
        return None

    def __add__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QSqrt5:
        return QSqrt5(-self.a, -self.b)

    def __mul__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt5(
            self.a * o.a + 5 * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: QSqrt5 | Rat | int) -> QSqrt5:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> QSqrt5:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = QSqrt5(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QSqrt5:
        """Galois conjugate ``a - b*sqrt(5)``."""
        return QSqrt5(self.a, -self.b)

    def inverse(self) -> QSqrt5:
        # x * conj(x) = a^2 - 5 b^2 is rational and zero only for x = 0.
        d = self.a * self.a - 5 * self.b * self.b
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(5))")
        return QSqrt5(self.a / d, -self.b / d)

    # -- order structure ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number.

        Scaled by the positive common denominator of ``a`` and ``b`` it is an
        integer x + y*sqrt(5); when x and y differ in sign, comparing x**2
        with 5*y**2 settles it without leaving Z.
        """
        a, b = self.a, self.b
        return _sign_z5(a.numerator * b.denominator, b.numerator * a.denominator)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __abs__(self) -> QSqrt5:
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other: QSqrt5 | Rat | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    # -- presentation / wire format ------------------------------------------

    def as_rat(self) -> Rat:
        """The value as a plain rational; fails if the sqrt(5) part is nonzero."""
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def to_json(self) -> dict[str, str]:
        return {"a": format_rat(self.a), "b": format_rat(self.b)}

    def __str__(self) -> str:
        return _signed_sum(((self.a, "1"), (self.b, "sqrt(5)")))


ZERO = QSqrt5(Fraction(0), Fraction(0))
ONE = QSqrt5(Fraction(1), Fraction(0))
SQRT5 = QSqrt5(Fraction(0), Fraction(1))

#: golden ratio (1 + sqrt 5)/2 and its conjugate (1 - sqrt 5)/2
ALPHA = QSqrt5(Fraction(1, 2), Fraction(1, 2))
BETA = QSqrt5(Fraction(1, 2), Fraction(-1, 2))
