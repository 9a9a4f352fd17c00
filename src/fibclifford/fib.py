"""Fibonacci, Lucas and Horadam sequences on big integers.

Fast doubling gives O(log n) arithmetic steps for every sequence; the naive
recurrences survive only in the test suite, as independent oracles.
Negative indices are rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import ALPHA, QSqrt5, Rat


@dataclass(frozen=True, slots=True)
class HoradamParams:
    """Integer seeds (p, q) of the generalized Fibonacci recurrence."""

    p: int
    q: int

    def __post_init__(self) -> None:
        _check_seeds(self.p, self.q)


def _check_seeds(p: int, q: int) -> None:
    """Reject seeds that are not plain ``int``s: ``bool`` too, which would
    otherwise reach the wire format as ``true``/``false``."""
    if type(p) is not int or type(q) is not int:
        raise TypeError("Horadam seeds must be integers")


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")


def _pair(n: int) -> tuple[int, int]:
    # fast doubling: f(2k) = f(k)(2 f(k+1) - f(k)), f(2k+1) = f(k)^2 + f(k+1)^2
    if n == 0:
        return 0, 1
    a, b = _pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fib_pair(n: int) -> tuple[int, int]:
    """``(fib(n), fib(n+1))`` in one doubling pass."""
    _check_index(n)
    return _pair(n)


def fib(n: int) -> int:
    """n-th Fibonacci number, f(0) = 0, f(1) = 1."""
    return fib_pair(n)[0]


def lucas(n: int) -> int:
    """n-th Lucas number, L(0) = 2, L(1) = 1; L(n) = 2 f(n+1) - f(n)."""
    a, b = fib_pair(n)
    return 2 * b - a


def _window(n: int, p: Rat | int, q: Rat | int) -> tuple[Rat | int, ...]:
    """(h(n), ..., h(n+4)) seeded by h(0) = p, h(1) = q, for any exact seeds:
    h(n) = p*f(n-1) + q*f(n) with f(-1) = 1, from one doubling pass.  The one
    route to seeded terms, Horadam and Fibonacci quaternions and basis norms."""
    a, b = fib_pair(n)
    h0, h1 = p * (b - a) + q * a, p * a + q * b
    h2 = h0 + h1
    return h0, h1, h2, h1 + h2, h1 + 2 * h2


def horadam(n: int, seeds: HoradamParams) -> int:
    """n-th term of the sequence with h(0) = p, h(1) = q, h(n) = h(n-1) + h(n-2).

    ``h(n) = p*f(n-1) + q*f(n)`` for every n >= 0, with f(-1) = 1, read off
    the one route :func:`_window`; the recurrence is the tests' oracle.
    """
    return _window(n, seeds.p, seeds.q)[0]


def binet(n: int) -> QSqrt5:
    """``(alpha^n - beta^n)/sqrt(5)`` computed exactly in Q(sqrt 5).

    beta^n is the Galois conjugate of alpha^n = x + y*sqrt(5), so the
    difference is 2y*sqrt(5) and the quotient the rational 2y: ``fib(n)``
    embedded as a rational element, from one power of alpha.
    """
    _check_index(n)
    return QSqrt5.from_rat(2 * (ALPHA**n).b)
