"""Exact scalar arithmetic: rationals and the real quadratic field Q(sqrt 5).

``Rat`` is an alias for :class:`fractions.Fraction`, which already keeps the
canonical form used throughout this package (reduced, positive denominator,
structural equality).

Every exact value the package computes with, a :class:`QSqrt5` and an
element of ``quat`` or ``clifford``, is stored in one integer form: integer
numerators over one denominator den > 0, in lowest terms, so
``gcd(den, *nums) == 1``.  That form is canonical, so structural equality
is value equality.  :func:`_integer_form` is the one routine that brings
ints and ``Fraction``s to it; arithmetic then stays on the integers and
brings each result to lowest terms by one gcd.

:class:`QSqrt5` represents the real number ``(x + y*sqrt(5))/den`` by the
numerators x, y over den; its rational parts ``a = x/den`` and
``b = y/den`` are derived.  Because sqrt(5) is irrational the
representation is unique, so equality is componentwise, and a rational
compares equal to (and hashes like) the element with a zero sqrt(5) part.
Its operators are forward and reflected pairs from :func:`_operators`, over
one coercion, :func:`_coerce`, and two integer kernels, :func:`_add` and
:func:`_mul`.  The sign of any element, and so the order, is decidable on
integers, by comparing x**2 with 5*y**2; no floating point appears
anywhere.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from operator import itemgetter

from .errors import LiteralTooLongError

Rat = Fraction

# ASCII digits only: ``\d`` and ``int()`` also take other scripts' digits,
# and ``int()`` takes underscores and a leading ``+``.
_INT_PATTERN = re.compile(r"-?[0-9]+")
_RAT_PATTERN = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

#: Most digits one integer of a literal may have; below CPython's default
#: 4300-digit str-to-int limit, so this cap, a domain error, applies first.
MAX_LITERAL_DIGITS = 4000


def _builder(cls: type) -> Callable:
    """A constructor for the frozen slotted dataclass ``cls`` that takes the
    arguments of its ``__init__`` and keeps them as they are: the
    constructor for values the package computed itself.  It fills each
    slot through the slot's own descriptor, a field that ``__init__`` does
    not take with its default, and runs no ``__post_init__`` or check.
    The dataclass ``__init__`` of a frozen class calls ``object.__setattr__``
    once per field instead, which takes about twice as long."""
    env = {"new": object.__new__, "cls": cls}
    params, body = [], []
    for f in fields(cls):
        env[f"set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.init:
            params.append(f.name)
        else:
            env[f.name] = f.default
        body.append(f"set_{f.name}(obj, {f.name})")
    source = "\n    ".join(
        [f"def build({', '.join(params)}):", "obj = new(cls)", *body, "return obj"]
    )
    exec(source, env)
    return env["build"]


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


def _integer_form(values) -> tuple[tuple[int, ...], int]:
    """Ints or ``Fraction``s ``values`` as ``(nums, den)``: ``den`` is the lcm
    of their denominators and ``nums`` holds each value times ``den``.  It
    is canonical, ``gcd(den, *nums) == 1``: every prime power of the lcm is
    the full power in some denominator, whose reduced numerator it does not
    divide.  Anything else is a ``TypeError``, as for :func:`_to_rat`."""
    values = tuple(values)
    try:  # all Fractions, the common case, in one pass
        ratios = list(map(Fraction.as_integer_ratio, values))
    except AttributeError:
        ratios = [(v, 1) if type(v) is int else _to_rat(v).as_integer_ratio() for v in values]
    den = lcm(*set(map(itemgetter(1), ratios)))
    if den == 1:
        return tuple(map(itemgetter(0), ratios)), 1
    return tuple([p * (den // q) for p, q in ratios]), den


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


def _format_ratio(n: int, d: int) -> str:
    """The rational n/d, for integers n and d > 0, in the textual wire format
    (``-3/2``, ``7``), brought to lowest terms by one gcd."""
    g = gcd(n, d)
    if g == d:
        return _decimal(n // g)
    return f"{_decimal(n // g)}/{_decimal(d // g)}"


def format_rat(value: Rat | int) -> str:
    """Render a rational in the textual wire format (``-3/2``, ``7``), of any size."""
    return _format_ratio(*_to_rat(value).as_integer_ratio())


def _signed_sum(terms: Iterable[tuple[int, int, str]]) -> str:
    """Render ``(numerator, denominator, basis name)`` triples, each
    denominator positive, as a signed sum such as ``1 - e2 + 5/2*e4``: zero
    terms are skipped, a coefficient of magnitude 1 is left out, the name
    ``"1"`` is the unit, and no terms print ``0``."""
    parts = []
    for num, den, name in terms:
        if not num:
            continue
        mag = _format_ratio(abs(num), den)
        term = mag if name == "1" else name if mag == "1" else f"{mag}*{name}"
        parts.append(("- " if num < 0 else "+ ") + term)
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


def _coerce(value: object) -> QSqrt5 | None:
    """``value`` as a ``QSqrt5``: a ``QSqrt5`` as it is, an int or ``Fraction``
    with a zero sqrt(5) part, and anything else as None."""
    if isinstance(value, QSqrt5):
        return value
    if isinstance(value, (int, Fraction)):
        n, d = value.as_integer_ratio()
        return _canonical(n, 0, d)
    return None


def _add(u: QSqrt5, v: QSqrt5) -> QSqrt5:
    """u + v, over the product of the denominators, reduced by one gcd."""
    d, e = u.den, v.den
    return _qsqrt5(u.x * e + v.x * d, u.y * e + v.y * d, d * e)


def _mul(u: QSqrt5, v: QSqrt5) -> QSqrt5:
    """u * v, with sqrt(5)^2 = 5, reduced by one gcd."""
    x, y, s, t = u.x, u.y, v.x, v.y
    return _qsqrt5(x * s + 5 * y * t, x * t + y * s, u.den * v.den)


def _operators(kernel: Callable[[QSqrt5, QSqrt5], QSqrt5]) -> tuple[Callable, Callable]:
    """``kernel`` as the forward and reflected operator methods of
    :class:`QSqrt5`, the pattern of ``fractions.Fraction``: each takes its
    other operand through :func:`_coerce` and returns ``NotImplemented``
    when that gives None.  A ``QSqrt5`` operand, the common case, skips
    that call."""

    def forward(self, other):
        o = other if isinstance(other, QSqrt5) else _coerce(other)
        return NotImplemented if o is None else kernel(self, o)

    def reflected(self, other):
        o = other if isinstance(other, QSqrt5) else _coerce(other)
        return NotImplemented if o is None else kernel(o, self)

    return forward, reflected


@total_ordering
@dataclass(frozen=True, slots=True, eq=False, init=False)
class QSqrt5:
    """The real number ``(x + y*sqrt(5))/den``, exactly, in lowest terms:
    integers x, y and den > 0 with ``gcd(x, y, den) == 1``.  The constructor
    takes the rational parts of ``a + b*sqrt(5)``, which ``a`` and ``b``
    give back."""

    x: int
    y: int
    den: int

    def __init__(self, a: Rat | int, b: Rat | int) -> None:
        (x, y), den = _integer_form((a, b))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "den", den)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.x, self.den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(5)."""
        return Fraction(self.y, self.den)

    @classmethod
    def from_rat(cls, value: Rat | int) -> QSqrt5:
        return cls(value, 0)

    # -- ring / field operations -------------------------------------------

    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(lambda u, v: _add(u, -v))
    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(lambda u, v: _mul(u, v.inverse()))

    def __neg__(self) -> QSqrt5:
        return _canonical(-self.x, -self.y, self.den)

    def __pow__(self, n: int) -> QSqrt5:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> QSqrt5:
        """Galois conjugate ``a - b*sqrt(5)``."""
        return _canonical(self.x, -self.y, self.den)

    def inverse(self) -> QSqrt5:
        # (x + y sqrt5)(x - y sqrt5) = x^2 - 5 y^2 is an integer, zero only for x = y = 0
        x, y, den = self.x, self.y, self.den
        norm = x * x - 5 * y * y
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(5))")
        if norm < 0:
            norm, den = -norm, -den
        return _qsqrt5(den * x, -den * y, norm)

    # -- order structure ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real number: that of x + y*sqrt(5), as den > 0;
        when x and y differ in sign, comparing x**2 with 5*y**2 settles it
        without leaving Z."""
        return _sign_z5(self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __abs__(self) -> QSqrt5:
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.x == o.x and self.y == o.y and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.den)) if self.y else hash(self.a)

    def __lt__(self, other: QSqrt5 | Rat | int) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, -o).sign() < 0

    # -- presentation / wire format ------------------------------------------

    def as_rat(self) -> Rat:
        """The value as a plain rational; fails if the sqrt(5) part is nonzero."""
        if self.y:
            raise ValueError(f"{self} is irrational")
        return self.a

    def to_json(self) -> dict[str, str]:
        return {"a": _format_ratio(self.x, self.den), "b": _format_ratio(self.y, self.den)}

    def __str__(self) -> str:
        return _signed_sum(((self.x, self.den, "1"), (self.y, self.den, "sqrt(5)")))


#: (x + y*sqrt(5))/den from integers already in lowest terms, as they are
_canonical = _builder(QSqrt5)


def _qsqrt5(x: int, y: int, den: int) -> QSqrt5:
    """(x + y*sqrt(5))/den for integers x, y and den > 0, brought to lowest
    terms by one gcd: the constructor for values the package computed itself."""
    g = gcd(x, y, den)
    if g != 1:
        x, y, den = x // g, y // g, den // g
    return _canonical(x, y, den)


ZERO = QSqrt5(Fraction(0), Fraction(0))
ONE = QSqrt5(Fraction(1), Fraction(0))
SQRT5 = QSqrt5(Fraction(0), Fraction(1))

#: golden ratio (1 + sqrt 5)/2 and its conjugate (1 - sqrt 5)/2
ALPHA = QSqrt5(Fraction(1, 2), Fraction(1, 2))
BETA = QSqrt5(Fraction(1, 2), Fraction(-1, 2))
