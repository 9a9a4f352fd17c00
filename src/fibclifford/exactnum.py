"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt 5).

``Rat`` is an alias for :class:`fractions.Fraction`, which already keeps the
canonical form used throughout this package (reduced, positive denominator,
structural equality).  :class:`QSqrt5` represents the real number
``a + b*sqrt(5)`` with rational ``a``, ``b``.  Because sqrt(5) is irrational
the representation is unique, so equality is componentwise and the sign of
any element is decidable by pure rational case analysis; no floating point
appears anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction

# ASCII digits only: ``\d`` and ``int()`` also take other scripts' digits,
# and ``int()`` takes underscores and a leading ``+``.
_INT_PATTERN = re.compile(r"-?[0-9]+")
_RAT_PATTERN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_int(text: str) -> int:
    """Parse ``"n"`` (optional leading ``-``, ASCII digits only)."""
    s = text.strip()
    if not _INT_PATTERN.fullmatch(s):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(s)


def parse_rat(text: str) -> Rat:
    """Parse ``"n"`` or ``"n/d"`` (optional leading ``-``, ``d`` > 0)."""
    s = text.strip()
    if not _RAT_PATTERN.fullmatch(s):
        raise ValueError(f"not a rational literal: {text!r}")
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
    x = Fraction(value)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def rat_sign(x: Rat | int) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True, slots=True, eq=True)
class QSqrt5:
    """The real number ``a + b*sqrt(5)``, exactly."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def from_rat(cls, value: Rat | int) -> QSqrt5:
        return cls(Fraction(value), Fraction(0))

    # -- ring / field operations -------------------------------------------

    @staticmethod
    def _coerce(other: object) -> QSqrt5 | None:
        if isinstance(other, QSqrt5):
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt5(Fraction(other), Fraction(0))
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
        """Exact sign of the real number, by rational case analysis.

        When the components carry the same sign the answer is immediate;
        otherwise ``a`` and ``-b*sqrt(5)`` compete and comparing ``a**2``
        with ``5*b**2`` settles it without leaving Q.
        """
        sa, sb = rat_sign(self.a), rat_sign(self.b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        return sa * rat_sign(self.a * self.a - 5 * self.b * self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __abs__(self) -> QSqrt5:
        return -self if self.sign() < 0 else self

    def __lt__(self, other: QSqrt5 | Rat | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: QSqrt5 | Rat | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: QSqrt5 | Rat | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: QSqrt5 | Rat | int) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- presentation / wire format ------------------------------------------

    def as_rat(self) -> Rat:
        """The value as a plain rational; fails if the sqrt(5) part is nonzero."""
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def to_json(self) -> dict[str, str]:
        return {"a": format_rat(self.a), "b": format_rat(self.b)}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> QSqrt5:
        return cls(parse_rat(data["a"]), parse_rat(data["b"]))

    def __str__(self) -> str:
        if self.b == 0:
            return format_rat(self.a)
        root = "sqrt(5)" if abs(self.b) == 1 else f"{format_rat(abs(self.b))}*sqrt(5)"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        op = "+" if self.b > 0 else "-"
        return f"{format_rat(self.a)} {op} {root}"


ZERO = QSqrt5(Fraction(0), Fraction(0))
ONE = QSqrt5(Fraction(1), Fraction(0))
SQRT5 = QSqrt5(Fraction(0), Fraction(1))

#: golden ratio (1 + sqrt 5)/2 and its conjugate (1 - sqrt 5)/2
ALPHA = QSqrt5(Fraction(1, 2), Fraction(1, 2))
BETA = QSqrt5(Fraction(1, 2), Fraction(-1, 2))


def alpha_pow(n: int) -> QSqrt5:
    """Exact n-th power of the golden ratio, n >= 0.

    Equals ``(lucas(n) + fib(n)*sqrt(5)) / 2``; the test suite cross-checks
    this identity against the sequence recurrences.
    """
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    return ALPHA**n
