"""The wire format of ``classify`` and ``growth_profile``, pinned by one digest.

``CASES`` generated cases from a fixed seed: small grid points in all four
sign quadrants, the same kind of points with small and large seeds, and
ladder points beta1 = 1, beta2 next to the zero of E at denominators of
25-48 digits, half of them seeded.  For each case the line
``json.dumps(classify(params, p, q).to_json())`` and the line
``json.dumps(growth_profile(params).to_json())`` feed one SHA-256.
``DIGEST`` was recorded when ``QSqrt5`` held two ``Fraction``s and every
report was built through the dataclass constructors, so any change to a
value, a rendering or a key order since then fails here.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Iterator
from fractions import Fraction
from math import isqrt

from fibclifford.clifford import classify
from fibclifford.fibquat import growth_profile
from fibclifford.quat import AlgebraParams

CASES = 6400
DIGEST = "4b09acdb46e91c36e49790067a8f1a022c7793727f5e0144cd7760891ca3d462"


def _grid(rng: random.Random, sign: int) -> Fraction:
    return sign * Fraction(rng.randint(1, 12), rng.randint(1, 6))


def _small_seeds(rng: random.Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if p or q:
            return p, q


def _big_seeds(rng: random.Random, digits: int) -> tuple[int, int]:
    return (
        rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits),
        rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits),
    )


def _ladder_beta2(n: int, upper: bool) -> Fraction:
    """(3*sqrt5 - 7)/2, the zero of E at beta1 = 1, rounded down or up at 1/n."""
    return Fraction((isqrt(45 * n * n) - 7 * n) // 2 + upper, n)


def cases() -> Iterator[tuple[AlgebraParams, int | None, int | None]]:
    """4,000 grid points, 1,600 seeded ones (a quarter with 20-digit seeds)
    and 800 ladder points, 25-48 digits, half of them seeded."""
    rng = random.Random(26)
    for i in range(4000):
        yield AlgebraParams(_grid(rng, (-1) ** i), _grid(rng, (-1) ** (i // 2))), None, None
    for i in range(1600):
        seeds = _big_seeds(rng, 20) if i % 4 == 0 else _small_seeds(rng)
        yield AlgebraParams(_grid(rng, (-1) ** i), _grid(rng, (-1) ** (i // 2))), *seeds
    for i in range(800):
        digits = 25 + i % 24
        n = rng.randrange(10**digits, 2 * 10**digits)
        params = AlgebraParams(1, _ladder_beta2(n, i % 2 == 1))
        seeds = _big_seeds(rng, rng.randint(1, 30)) if i % 4 >= 2 else (None, None)
        yield params, *seeds


def digest() -> tuple[int, str]:
    """(number of cases, SHA-256 of their lines)."""
    sha, count = hashlib.sha256(), 0
    for params, p, q in cases():
        count += 1
        for data in classify(params, p, q).to_json(), growth_profile(params).to_json():
            sha.update(json.dumps(data).encode() + b"\n")
    return count, sha.hexdigest()


def test_classify_and_growth_profile_json_match_the_recorded_digest():
    assert digest() == (CASES, DIGEST)
