"""Correctness checks for every output the benchmark measures.

Nothing here imports fibclifford.  Each check recomputes the answer by a
route the library does not take, or tests a property the method must have:

- norms of F(m) and H(m; p, q) come from the plain integer recurrence;
- signs of E = (u + v*alpha)/5 come from interval bisection of alpha;
- the threshold n' is re-derived: a domination horizon proved here with
  rational bounds, then direct signs from n' - 1 to past both horizons;
- quaternion products come from the defining basis table;
- blade products come from rewriting the generator word one swap at a time.

A failed check raises CheckFailed with a message naming the input.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_BLADE = re.compile(r"(?:e[0-9]+)+")
_BLADE_GENERATOR = re.compile(r"e([0-9]+)")

# alpha^2 = alpha + 1 > 13/5, the rate used to bound the growing term below.
_ALPHA_SQ_LOWER = Fraction(13, 5)


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_rational(text: str) -> Fraction:
    """Parse the wire format ``n`` or ``n/d`` strictly."""
    require(isinstance(text, str) and _RATIONAL.fullmatch(text) is not None,
            f"not a rational literal: {text!r}")
    value = Fraction(text)
    require(str(value) == text, f"rational not in lowest terms: {text!r}")
    return value


def sign(x) -> int:
    return (x > 0) - (x < 0)


def decimal(n: int) -> str:
    """``str(n)`` without the interpreter's digit limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


# -- Q(alpha) as pairs (x, y) = x + y*alpha, alpha^2 = alpha + 1 --------------


def amul(a, b):
    (x1, y1), (x2, y2) = a, b
    return (x1 * x2 + y1 * y2, x1 * y2 + y1 * x2 + y1 * y2)


def growth_constants(b1: Fraction, b2: Fraction):
    """(S+, S-, S0) for the norm sequence of F(m).

    S+ = 1 + b1*a^2 + b2*a^4 + b1*b2*a^6 at a = alpha, expanded to u + v*alpha
    by powering alpha^2 in pairs; S- is its Galois conjugate (beta = 1 - alpha)
    and S0 = 1 - b1 + b2 - b1*b2 the weight of the oscillating term.
    """
    alpha_sq = (0, 1)
    alpha_sq = amul(alpha_sq, alpha_sq)  # alpha^2 = 1 + alpha
    weights = (1, b1, b2, b1 * b2)
    u, v, power = Fraction(0), Fraction(0), (1, 0)
    for w in weights:
        u, v = u + w * power[0], v + w * power[1]
        power = amul(power, alpha_sq)
    return (u, v), (u + v, -v), 1 - b1 + b2 - b1 * b2


class _AlphaBisection:
    """Nested rational intervals [lo, hi] around alpha, halved on demand."""

    def __init__(self) -> None:
        self.steps = [(Fraction(3, 2), Fraction(2))]

    def __getitem__(self, depth: int):
        while len(self.steps) <= depth:
            lo, hi = self.steps[-1]
            mid = (lo + hi) / 2
            # alpha is the positive root of t^2 - t - 1
            if mid * mid - mid - 1 < 0:
                self.steps.append((mid, hi))
            else:
                self.steps.append((lo, mid))
        return self.steps[depth]


_ALPHA = _AlphaBisection()


def _enclose(z, depth: int):
    x, y = z
    lo, hi = _ALPHA[depth]
    a, b = x + y * lo, x + y * hi
    return (a, b) if a <= b else (b, a)


def sign_by_bisection(z) -> int:
    """Sign of x + y*alpha by shrinking rational enclosures of alpha."""
    if z[0] == 0 and z[1] == 0:
        return 0
    depth = 0
    while True:
        low, high = _enclose(z, depth)
        if low > 0:
            return 1
        if high < 0:
            return -1
        depth += 1


def _abs_lower(z) -> Fraction:
    require(z != (0, 0), "zero has no positive lower bound")
    depth = 0
    while True:
        low, high = _enclose(z, depth)
        if low > 0 or high < 0:
            return min(abs(low), abs(high))
        depth += 1


def _abs_upper(z) -> Fraction:
    low, high = _enclose(z, 0)
    return max(abs(low), abs(high))


def to_sqrt5(z, scale: Fraction):
    """x + y*alpha, times scale, as (a, b) with value a + b*sqrt(5)."""
    x, y = z
    return ((x + y / 2) * scale, y / 2 * scale)


# -- norm sequences from the recurrence ---------------------------------------


def norms(b1: Fraction, b2: Fraction, p: int, q: int, upto: int) -> list[Fraction]:
    """n(H(m; p, q)) for m = 0..upto, with h(0) = p, h(1) = q.

    (p, q) = (0, 1) gives the Fibonacci quaternions F(m).  The weighted sum
    is formed over the integers with the common denominator d1*d2 > 0.
    """
    n1, d1 = b1.numerator, b1.denominator
    n2, d2 = b2.numerator, b2.denominator
    w = (d1 * d2, n1 * d2, n2 * d1, n1 * n2)
    h = [p, q]
    while len(h) < upto + 4:
        h.append(h[-1] + h[-2])
    den = d1 * d2
    return [
        Fraction(w[0] * h[m] ** 2 + w[1] * h[m + 1] ** 2 + w[2] * h[m + 2] ** 2
                 + w[3] * h[m + 3] ** 2, den)
        for m in range(upto + 1)
    ]


def horizon(b1: Fraction, b2: Fraction, p: int, q: int) -> int:
    """Least N >= 1 past which n(H(m; p, q)) provably keeps the sign of E.

    With A = p + q*alpha and B = p + q*beta, 5*n(H(m)) equals
    A^2 S+ alpha^(2m-2) + B^2 S- beta^(2m-2) + 2(-1)^m (p^2 + pq - q^2) S0.
    For m >= 1 the last two terms are at most |B^2 S-| + 2|(p^2+pq-q^2) S0|
    in size, and the first is at least |A^2 S+| (13/5)^(m-1).
    """
    plus, minus, s0 = growth_constants(b1, b2)
    a = (Fraction(p), Fraction(q))
    b = (Fraction(p + q), Fraction(-q))
    growing = _abs_lower(amul(amul(a, a), plus))
    bounded = _abs_upper(amul(amul(b, b), minus)) + 2 * abs((p * p + p * q - q * q) * s0)
    n, lhs = 1, growing
    while not lhs > bounded:
        n += 1
        lhs *= _ALPHA_SQ_LOWER
    return n


def check_threshold(b1, b2, p: int, q: int, n_prime, limit_sign, claimed_horizon=None) -> None:
    """n' is the least index from which every norm has the limit sign."""
    where = f"H({b1}, {b2}) seeds ({p}, {q})"
    expected_sign = sign_by_bisection(growth_constants(b1, b2)[0])
    require(limit_sign == expected_sign,
            f"{where}: limit sign {limit_sign}, bisection gives {expected_sign}")
    require(isinstance(n_prime, int) and n_prime >= 0, f"{where}: bad n' {n_prime!r}")
    top = max(horizon(b1, b2, p, q), claimed_horizon or 0) + 1
    values = norms(b1, b2, p, q, max(top, n_prime))
    if n_prime > 0:
        require(sign(values[n_prime - 1]) != limit_sign,
                f"{where}: n' = {n_prime} is not minimal")
    for m in range(n_prime, len(values)):
        require(sign(values[m]) == limit_sign,
                f"{where}: norm sign at m = {m} breaks n' = {n_prime}")


def check_certificate(b1, b2, p: int, q: int, data: dict) -> None:
    """A certificate in the wire format: n_prime, horizon, limit_sign."""
    require(set(data) == {"n_prime", "horizon", "limit_sign"}, f"certificate keys {sorted(data)}")
    check_threshold(b1, b2, p, q, data["n_prime"], data["limit_sign"], data["horizon"])


def check_classification(b1: Fraction, b2: Fraction, p, q, data: dict) -> None:
    """A classification report in the wire format of ``classify --json``."""
    where = f"classify H({b1}, {b2})"
    require(parse_rational(data["beta1"]) == b1 and parse_rational(data["beta2"]) == b2,
            f"{where}: parameters echoed as {data['beta1']}, {data['beta2']}")
    plus, _, _ = growth_constants(b1, b2)
    e = (parse_rational(data["E"]["a"]), parse_rational(data["E"]["b"]))
    require(e == to_sqrt5(plus, Fraction(1, 5)), f"{where}: E = {data['E']}")
    sign_e = sign_by_bisection(plus)
    require(data["sign_E"] == sign_e, f"{where}: sign_E {data['sign_E']}, bisection {sign_e}")
    require(data["input_is_division"] == (b1 > 0 and b2 > 0), f"{where}: input_is_division")
    n_prime = data["n_prime"]
    check_threshold(b1, b2, 0, 1, n_prime, sign_e)
    n0, n1 = norms(b1, b2, 0, 1, n_prime + 1)[n_prime:]
    form = [parse_rational(x) for x in data["form"]]
    require(form == [n0, n1], f"{where}: form {data['form']}, recurrence gives {n0}, {n1}")
    witness = [parse_rational(x) for x in data["scaling_witness"]]
    require(witness == [abs(n0), abs(n1)], f"{where}: scaling witness {data['scaling_witness']}")
    division = sign_e < 0
    require(data["clifford_class"] == ("Division" if division else "Split"),
            f"{where}: class {data['clifford_class']} with sign_E {sign_e}")
    require(data["canonical"] == ("H(1,1)" if division else "H(-1,-1)"),
            f"{where}: canonical {data['canonical']}")
    if p is None:
        require("p" not in data and "E_prime" not in data, f"{where}: unexpected seeded fields")
        return
    require((data["p"], data["q"]) == (p, q), f"{where}: seeds echoed as {data['p']}, {data['q']}")
    a = (Fraction(p), Fraction(q))
    e_prime = (parse_rational(data["E_prime"]["a"]), parse_rational(data["E_prime"]["b"]))
    require(e_prime == to_sqrt5(amul(amul(a, a), plus), Fraction(1, 25)),
            f"{where}: E_prime = {data['E_prime']}")
    check_threshold(b1, b2, p, q, data["seeded_n_prime"], sign_e)


# -- quaternions from the basis table -----------------------------------------


def _basis_table(b1: Fraction, b2: Fraction):
    """e_i * e_j as (coefficient, basis index) for i, j in 1, e2, e3, e4."""
    one = Fraction(1)
    table = {(0, j): (one, j) for j in range(4)}
    table.update({(i, 0): (one, i) for i in range(4)})
    table.update({
        (1, 1): (-b1, 0), (1, 2): (one, 3), (1, 3): (-b1, 2),
        (2, 1): (-one, 3), (2, 2): (-b2, 0), (2, 3): (b2, 1),
        (3, 1): (b1, 2), (3, 2): (-b2, 1), (3, 3): (-b1 * b2, 0),
    })
    return table


def quat_mul(b1, b2, x, y) -> tuple[Fraction, ...]:
    table = _basis_table(b1, b2)
    out = [Fraction(0)] * 4
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            c, k = table[(i, j)]
            out[k] += xi * yj * c
    return tuple(out)


def quat_norm(b1, b2, x) -> Fraction:
    return x[0] ** 2 + b1 * x[1] ** 2 + b2 * x[2] ** 2 + b1 * b2 * x[3] ** 2


def check_quat_product(b1, b2, x, y, got) -> None:
    got = tuple(got)
    want = quat_mul(b1, b2, x, y)
    require(got == want, f"H({b1}, {b2}): product {got} != table product {want}")
    require(quat_norm(b1, b2, got) == quat_norm(b1, b2, x) * quat_norm(b1, b2, y),
            f"H({b1}, {b2}): norm of product not multiplicative")


def check_quat_norm(b1, b2, x, got) -> None:
    require(got == quat_norm(b1, b2, x), f"H({b1}, {b2}): norm {got} of {x}")


def check_quat_inverse(b1, b2, x, got) -> None:
    unit = (1, 0, 0, 0)
    require(quat_mul(b1, b2, x, got) == unit and quat_mul(b1, b2, got, x) == unit,
            f"H({b1}, {b2}): {got} is not the inverse of {x}")


def check_zero_divisor(b1, b2, got) -> None:
    require(any(got), f"H({b1}, {b2}): witness is zero")
    require(quat_norm(b1, b2, got) == 0, f"H({b1}, {b2}): witness {got} has nonzero norm")


def check_scaling(b1, b2, x, y, target, images) -> None:
    """The basis images define a unital homomorphism into H(x^2 b1, y^2 b2).

    H(b1, b2) is simple, so a unital homomorphism is injective and, between
    algebras of equal dimension, an isomorphism.
    """
    t1, t2 = target
    require((t1, t2) == (x * x * b1, y * y * b2), f"scale H({b1}, {b2}) by ({x}, {y}): target {target}")
    require(tuple(images[0]) == (1, 0, 0, 0), "scaling map does not fix 1")

    def apply(v):
        return tuple(sum(v[k] * images[k][i] for k in range(4)) for i in range(4))

    basis = [tuple(Fraction(int(i == k)) for i in range(4)) for k in range(4)]
    for u in basis:
        for v in basis:
            require(apply(quat_mul(b1, b2, u, v)) == quat_mul(t1, t2, apply(u), apply(v)),
                    f"scaling map of H({b1}, {b2}) is not multiplicative")


# -- Clifford blades by word rewriting ----------------------------------------


def blade_rewrite(mask_a: int, mask_b: int, squares) -> tuple[Fraction, int]:
    """Product of two basis blades by rewriting the generator word.

    Each generator of the right blade moves left past larger generators,
    one adjacent swap (a sign flip) at a time, and contracts against an
    equal neighbour to its square.
    """
    word = [i for i in range(len(squares)) if mask_a >> i & 1]
    flips, coeff = 0, Fraction(1)
    for g in range(len(squares)):
        if not mask_b >> g & 1:
            continue
        word.append(g)
        k = len(word) - 1
        while k > 0 and word[k - 1] > g:
            word[k - 1], word[k] = word[k], word[k - 1]
            flips += 1
            k -= 1
        if k > 0 and word[k - 1] == g:
            coeff *= squares[g]
            del word[k - 1:k + 1]
    mask = 0
    for g in word:
        mask |= 1 << g
    return (-coeff if flips & 1 else coeff), mask


class BladeTable:
    """Memoised blade_rewrite for one tuple of generator squares."""

    def __init__(self, squares) -> None:
        self.squares = tuple(squares)
        self._memo: dict[tuple[int, int], tuple[Fraction, int]] = {}

    def __call__(self, a: int, b: int) -> tuple[Fraction, int]:
        key = (a, b)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = blade_rewrite(a, b, self.squares)
        return hit


def clifford_product(table: BladeTable, a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, ci in a.items():
        for j, cj in b.items():
            c, m = table(i, j)
            out[m] = out.get(m, 0) + ci * cj * c
    return {m: c for m, c in out.items() if c}


def check_clifford_product(table: BladeTable, a: dict, b: dict, got: dict) -> None:
    want = clifford_product(table, a, b)
    require(got == want, f"Cl{table.squares}: product differs from the rewritten words")


def parse_term(text: str) -> tuple[Fraction, int]:
    """A table entry of ``clifford-table``: ``-3/2``, ``e1e3``, ``-e2`` or ``3*e1e2``."""
    coeff, blade = Fraction(1), text
    if "*" in text:
        head, blade = text.split("*")
        coeff = parse_rational(head)
    elif text.startswith("-") and text[1:2] == "e":
        coeff, blade = Fraction(-1), text[1:]
    elif not text.startswith("e"):
        return parse_rational(text), 0
    require(_BLADE.fullmatch(blade) is not None, f"not a blade: {text!r}")
    mask = 0
    for g in _BLADE_GENERATOR.findall(blade):
        mask |= 1 << (int(g) - 1)
    return coeff, mask


def check_clifford_table(squares, data: dict) -> None:
    dim = 1 << len(squares)
    require([parse_rational(s) for s in data["squares"]] == list(squares), "table squares")
    require([parse_term(n) for n in data["blades"]] == [(1, 0)] + [(1, m) for m in range(1, dim)],
            "blade names out of mask order")
    table = BladeTable(squares)
    rows = data["table"]
    require(len(rows) == dim and all(len(r) == dim for r in rows), "table shape")
    for i in range(dim):
        for j in range(dim):
            require(parse_term(rows[i][j]) == table(i, j),
                    f"Cl{tuple(squares)}: entry ({i}, {j}) = {rows[i][j]!r}")


def check_selftest(text: str) -> None:
    """``selftest --json``: one JSON line per group, every group passing."""
    lines = text.splitlines()
    require(len(lines) > 0, "selftest printed nothing")
    for line in lines:
        group = json.loads(line)
        require(group.get("status") == "PASS", f"selftest group {group}")


# -- sequences ------------------------------------------------------------------


def fib_naive(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def check_fib(n: int, text: str) -> None:
    """``fib --n n`` prints f(n) in decimal on one line."""
    require(text == decimal(fib_naive(n)) + "\n", f"fib({n}) is wrong")
