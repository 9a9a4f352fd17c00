"""Generalized quaternion algebras H(beta1, beta2) over exact rationals.

Basis {1, e2, e3, e4} with e2^2 = -beta1, e3^2 = -beta2, e4 = e2*e3,
e4^2 = -beta1*beta2, and anticommuting imaginary units:

        *    | 1    e2        e3        e4
        -----+---------------------------------
        e2   | e2   -b1       e4        -b1*e3
        e3   | e3   -e4       -b2       b2*e2
        e4   | e4   b1*e3     -b2*e2    -b1*b2

As Cl(diag(-beta1, -beta2)) with blades (1, g1, g2, g1g2) = (1, e2, e3, e4),
it multiplies on :func:`_product`, the integer blade kernel ``clifford`` shares.
That kernel multiplies dense operands with small coefficients by packed
integer rows, a multiply-add per blade and a few big-int operations per
row, and everything else, quaternions included, one pair of nonzero blades
at a time.

The norm n(a) = a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 is multiplicative and
an element is invertible exactly when its norm is nonzero.  With
beta_i = n_i/d_i, d1*d2*n(a) is the integer form of :func:`_norm_coefficients`,
which the norm, the zero-divisor search and ``fibquat``'s certificates
evaluate.  Over the reals the algebra is a division algebra iff both
parameters are positive; with at least one negative parameter it is split,
although a *rational* zero divisor need not exist (the search helper below
returns None in that case).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm, prod
from operator import add, mul, neg, sub

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


class _Element:
    """Arithmetic shared by :class:`Quaternion` and ``clifford.CliffordElement``
    on their coefficient tuples ``coeffs``.  A subclass supplies ``_like``,
    an element of its algebra from coefficients, and ``_require_same``, which
    rejects an element of another algebra.  Its own ``__mul__`` passes the
    generator squares to :meth:`_times`: ``perfbench/tracing.py`` counts the
    products of each class from the methods in that class's own body."""

    __slots__ = ()

    def _combine(self, other, op):
        """``op`` coefficientwise with an element of the same algebra."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return self._like(list(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self._like(list(map(neg, self.coeffs)))

    def _times(self, other, squares: tuple[Fraction, ...]):
        """``self * other`` for a rational ``other`` or an element of the same
        algebra, multiplied on :func:`_product`."""
        if isinstance(other, (int, Fraction)):
            s = _to_rat(other)
            return self._like([c * s for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        return self._like(_product(squares, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.coeffs)


@dataclass(frozen=True, slots=True)
class Quaternion(_Element):
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

    def _like(self, coeffs) -> Quaternion:
        return Quaternion(self.params, *coeffs)

    def _require_same(self, other: Quaternion) -> None:
        if self.params != other.params:
            raise MixedAlgebrasError(
                f"cannot combine elements of {self.params.label()} "
                f"and {other.params.label()}"
            )

    def __mul__(self, other: Quaternion | Rat | int) -> Quaternion:
        return self._times(other, (-self.params.beta1, -self.params.beta2))

    def conjugate(self) -> Quaternion:
        """(a1, -a2, -a3, -a4); satisfies x * conj(x) = norm(x) * 1."""
        return Quaternion(self.params, self.a1, -self.a2, -self.a3, -self.a4)

    def norm(self) -> Fraction:
        """a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 on the integers of :func:`_norm_coefficients`."""
        c = _norm_coefficients(self.params)
        support, d = _integer_support(self.coeffs)
        return Fraction(sum(c[k] * v * v for k, v in support), c[0] * d * d)

    def inverse(self) -> Quaternion:
        n = self.norm()
        if n == 0:
            raise NotInvertibleError(
                f"zero norm, no inverse: ({', '.join(format_rat(c) for c in self.coeffs)}) "
                f"in {self.params.label()}"
            )
        return self.conjugate() * (1 / n)

    def to_json(self) -> dict:
        return {
            "beta1": format_rat(self.params.beta1),
            "beta2": format_rat(self.params.beta2),
            "coeffs": [format_rat(c) for c in self.coeffs],
        }

    def __str__(self) -> str:
        return _signed_sum(zip(self.coeffs, ("1", "e2", "e3", "e4")))


def _norm_coefficients(params: AlgebraParams) -> tuple[int, int, int, int]:
    """c = (d1*d2, n1*d2, n2*d1, n1*n2) = d1*d2*(1, b1, b2, b1*b2) for
    beta_i = n_i/d_i: d1*d2*n(x) = c0*x1^2 + c1*x2^2 + c2*x3^2 + c3*x4^2."""
    n1, d1 = params.beta1.numerator, params.beta1.denominator
    n2, d2 = params.beta2.numerator, params.beta2.denominator
    return d1 * d2, n1 * d2, n2 * d1, n1 * n2


def _reorder_parity(mask: int) -> int:
    """XOR of ``mask >> k`` over k >= 1: bit j is the parity of the number of
    generators of ``mask`` above generator j.

    Moving the generators of a blade ``b`` leftward past those of ``mask``
    into sorted order takes one transposition per pair (i in mask, j in b)
    with i > j, so ``e_mask * e_b`` has the sign ``(-1)**popcount(P & b)``
    with ``P = _reorder_parity(mask)``.
    """
    parity = 0
    mask >>= 1
    while mask:
        parity ^= mask
        mask >>= 1
    return parity


def _integer_support(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero coefficients of an element as (blade mask, integer)
    pairs, scaled by the lcm ``d`` of their denominators, and ``d``; a zero
    ``Fraction`` has denominator 1, so taking it into the lcm is harmless."""
    ratios = list(map(Fraction.as_integer_ratio, coeffs))
    d = lcm(*(q for _, q in ratios))
    return [(mask, p * (d // q)) for mask, (p, q) in enumerate(ratios) if p], d


def _product(
    squares: tuple[Fraction, ...], x: tuple[Fraction, ...], y: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Coefficients of the product of two elements of the Clifford algebra
    whose generators square to ``squares``, computed on integers over their
    nonzero blades.

    Each operand is scaled to integers by the lcm of its denominators
    (dx, dy).  With squares s_k = n_k/d_k and T = prod d_k, the generators
    c common to two blades contract to M(c)/T, where
    M(c) = prod_{k in c} n_k * prod_{k not in c} d_k is an integer.  Every
    term lands on an integer slot, and the slots are divided once by
    dx*dy*T at the end.

    Two strategies fill the slots.  The pair loop (:func:`_pair_loop`)
    takes one step per pair of nonzero blades.  Packed rows
    (:func:`_packed_rows`) take one multiply-add per blade of x and about
    2^(n/2 + 1) steps of a dozen big-int operations, all on ints of 64 bits
    per blade, and win unless y is sparse: with ``dim = 2^n`` blades they
    run when ``|x| * |y| > 8 * dim``, ``16 * |y| > dim`` and
    ``sum|a| * max|b| * prod max(|n_k|, d_k)``, a bound on every slot and
    on every field they form on the way, fits in 63 bits.  So quaternions,
    blades, vectors and bivectors, and products with a sparse right operand
    or wide coefficients, stay on the pair loop.  Timed on CPython 3.11.7
    (2-vCPU VM) over supports of 1 to 2^n blades at ranks 3-9, the pairs
    the rule sends to packed rows ran 1.2-45x faster than on the pair loop,
    with single runs down to 0.9x where ``|x| * |y|`` is just above
    ``8 * dim``.
    """
    xs, dx = _integer_support(x)
    ys, dy = _integer_support(y)
    parts = [(s.numerator, s.denominator) for s in squares]
    dim = 1 << len(parts)
    if (
        len(xs) * len(ys) > 8 * dim
        and 16 * len(ys) > dim
        and abs(xs[0][1] * ys[0][1]) < 1 << 63  # one term, to turn wide ones away fast
        and sum(abs(a) for _, a in xs) * max(abs(b) for _, b in ys)
        * prod(max(abs(n), d) for n, d in parts) < 1 << 63
    ):
        acc = _packed_rows(parts, xs, ys)
    else:
        acc = _pair_loop(parts, xs, ys)
    den = dx * dy * prod(d for _, d in parts)
    zero = Fraction(0)
    return tuple(Fraction(v, den) if v else zero for v in acc)


def _pair_loop(
    parts: list[tuple[int, int]], xs: list[tuple[int, int]], ys: list[tuple[int, int]]
) -> list[int]:
    """The integer slots of :func:`_product` for squares n_k/d_k = ``parts``,
    one step per pair of nonzero blades, with M memoised per c."""
    metric: dict[int, int] = {}
    acc = [0] * (1 << len(parts))
    for i, a in xs:
        parity = _reorder_parity(i)
        for j, b in ys:
            common = i & j
            m = metric.get(common)
            if m is None:
                m = metric[common] = prod(
                    n if common >> k & 1 else d for k, (n, d) in enumerate(parts)
                )
            term = a * b * m
            if (parity & j).bit_count() & 1:
                acc[i ^ j] -= term
            else:
                acc[i ^ j] += term
    return acc


def _packed_rows(
    parts: list[tuple[int, int]], xs: list[tuple[int, int]], ys: list[tuple[int, int]]
) -> tuple[int, ...]:
    """The integer slots of :func:`_product` for squares n_k/d_k = ``parts``,
    from packed rows; every slot must stay below 2^63 in magnitude.

    Slot t of a row is the 64-bit field t of one int, stored with the offset
    2^63 so that every field is nonnegative.  The generators split into the
    m = max(n // 2, n - 6) low ones and the n - m high ones, so blade i is
    l | h with no sign between e_l and e_h, and
    x*y = sum_l e_l * Z_l with Z_l = sum_h a_(l,h) * e_h * y, in two levels:

    - Row h holds e_h * y scaled by prod_{k in h} d_k.  It comes from the
      row of h minus its lowest generator k, because e_h = e_k * e_h'
      (:func:`_left_step`).  Only the rows of high parts in ``xs``, and
      their ancestors, are built, and all of them are held: at most 64,
      since past rank 12 the 2^n multiply-adds below cost far more than
      the extra left steps of a larger m.
    - Z_l is the sum of a * prod_{k high, not in h} d_k * row_h.  The low
      generators apply by a Horner pass from generator m - 1 down to 0,
      W = d_k * W_without_k + g_k * d_k * W_with_k, depth first, so it
      holds one pending sum per generator and builds each Z_l at its leaf.

    So about 2^(n-m) + 2^m full-width left steps serve the 2^n blades of x,
    and every term ends up scaled by T = prod d_k.  Every field on the way
    is a signed sum of terms a_i * b_j * F, at most one for each blade i of
    x, where F multiplies n_k or d_k over some of the generators, so the
    bound ``sum|a| * max|b| * prod max(|n_k|, d_k)`` on which
    :func:`_product` admits the pair covers every field too.  One
    ``to_bytes`` and one ``struct.unpack``, both little-endian whatever the
    host's byte order, split the fields of the last W.
    """
    n = len(parts)
    dim = 1 << n
    m = max(n // 2, n - 6)
    offsets = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * dim, "little")
    dense = [0] * dim
    for j, b in ys:
        dense[j] = b
    steps: list[tuple[int, ...] | None] = [None] * n

    def left(k: int, row: int) -> int:
        step = steps[k]
        if step is None:
            step = steps[k] = _left_step(k, dim, *parts[k], offsets)
        flip, low, shift, mag, d, correction = step
        row ^= flip
        half = row & low
        return (half << shift) * d + ((row ^ half) >> shift) * mag - correction

    high = 1 << n - m
    # scales[h]: prod of d_k over the high generators k not in h
    scales = [prod(d for _, d in parts[m:])] * high
    for h in range(1, high):
        k = (h & -h).bit_length() - 1
        scales[h] = scales[h ^ 1 << k] // parts[m + k][1]
    rows: list[int | None] = [None] * high
    rows[0] = int.from_bytes(struct.pack(f"<{dim}q", *dense), "little") ^ offsets

    def row(h: int) -> int:
        if rows[h] is None:
            k = (h & -h).bit_length() - 1
            rows[h] = left(m + k, row(h ^ 1 << k))
        return rows[h]

    # per low part l: the high parts h of the blades l | h of x, and their
    # coefficients times scales[h]
    hs: list[list[int]] = [[] for _ in range(1 << m)]
    cs: list[list[int]] = [[] for _ in range(1 << m)]
    for i, a in xs:
        l, h = i & (1 << m) - 1, i >> m
        hs[l].append(h)
        cs[l].append(a * scales[h])
    for h in {i >> m for i, _ in xs}:
        row(h)

    def fold(k: int, l: int) -> int | None:
        """sum_l' e_l' * Z_(l | l'), offset, over the blades l' of the low
        generators k..m - 1, scaled by their d's; None if it is empty."""
        if k == m:
            if not cs[l]:
                return None
            weight = sum(cs[l])
            return sum(map(mul, cs[l], map(rows.__getitem__, hs[l]))) - offsets * (weight - 1)
        without, with_ = fold(k + 1, l), fold(k + 1, l | 1 << k)
        d = parts[k][1]
        if with_ is None:
            return without if without is None or d == 1 else without * d - offsets * (d - 1)
        with_ = left(k, with_)
        return with_ if without is None else (without - offsets) * d + with_

    fields = (fold(0, 0) ^ offsets).to_bytes(8 * dim, "little")
    return struct.unpack(f"<{dim}q", fields)


def _left_step(k: int, dim: int, n: int, d: int, offsets: int) -> tuple[int, ...]:
    """What multiplies a packed row by g_k, with g_k^2 = n/d, on the left:
    ``(flip, low, shift, |n|, d, correction)``.

    g_k * e_m = (-1)^popcount(m & (2^k - 1)) * e_{m ^ 2^k}, times n/d when m
    holds k.  So the XOR with ``flip`` turns each field r of odd sign (and,
    when n < 0, of m holding k) into -r - 1; ``low`` selects the fields
    without k, which move up by ``shift`` bits and scale by d, while the
    others move down and scale by |n|; and ``correction`` restores the
    offsets and the ones that the XOR left out.
    """
    block = 8 << k
    low = int.from_bytes((b"\xff" * block + bytes(block)) * (dim >> k + 1), "little")
    parity, inverse = bytes(8), b"\xff" * 8  # fields t < 2^k of odd popcount
    for _ in range(k):
        parity, inverse = parity + inverse, inverse + parity
    shift = 64 << k
    flip = int.from_bytes(parity * (dim >> k), "little")
    if n < 0:
        flip ^= low << shift
    mag = abs(n)
    low_offsets = offsets & low
    owed = (flip & offsets) >> 63
    low_owed = owed & low
    correction = (
        (offsets ^ low_offsets) * (d - 1) + low_offsets * (mag - 1)
        - (low_owed << shift) * d - ((owed ^ low_owed) >> shift) * mag
    )
    return flip, low, shift, mag, d, correction


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
    zero = Fraction(0)
    return target, BasisMap(params, target, (
        Quaternion(target, Fraction(1), zero, zero, zero),
        Quaternion(target, zero, 1 / x, zero, zero),
        Quaternion(target, zero, zero, 1 / y, zero),
        Quaternion(target, zero, zero, zero, 1 / (x * y)),
    ))


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
    rational, then e2 + t*e3), then every integer vector of height <=
    ``MAX_WITNESS_HEIGHT`` on the integer form of :func:`_norm_coefficients`.
    Returns None for division algebras and for split algebras whose norm form
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
    c0, c1, c2, c3 = _norm_coefficients(params)
    for height in range(1, MAX_WITNESS_HEIGHT + 1):
        # The norm is even in each coordinate, so the first zero of this height
        # in lexicographic order over [-height, height]^4 is the negation of
        # the last one over [0, height]^4, which a descending scan meets first.
        for x1, x2, x3, x4 in product(range(height, -1, -1), repeat=4):
            if (
                max(x1, x2, x3, x4) == height
                and c0 * x1 * x1 + c1 * x2 * x2 + c2 * x3 * x3 + c3 * x4 * x4 == 0
            ):
                return Quaternion.from_coeffs(params, (-x1, -x2, -x3, -x4))
    return None
