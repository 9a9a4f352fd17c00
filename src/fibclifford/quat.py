"""Generalized quaternion algebras H(beta1, beta2) over exact rationals.

Basis {1, e2, e3, e4} with e2^2 = -beta1, e3^2 = -beta2, e4 = e2*e3,
e4^2 = -beta1*beta2, and anticommuting imaginary units:

        *    | 1    e2        e3        e4
        -----+---------------------------------
        e2   | e2   -b1       e4        -b1*e3
        e3   | e3   -e4       -b2       b2*e2
        e4   | e4   b1*e3     -b2*e2    -b1*b2

Quaternions and ``clifford``'s elements are stored in the integer form
that ``exactnum`` describes and converts to, a numerator per basis element
over one denominator (:class:`_Element`).  ``Fraction``s appear only at
the edge: the constructors take them and ``coeffs`` gives them back.  As
Cl(diag(-beta1, -beta2)) with blades (1, g1, g2, g1g2) = (1, e2, e3, e4), a
quaternion multiplies on :func:`_product`, the integer blade kernel
``clifford`` shares.  That kernel multiplies dense operands with small
coefficients by packed integer rows, a multiply-add per blade and a few
big-int operations per row, and everything else, quaternions included, one
pair of nonzero blades at a time.

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
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import compress, product
from math import gcd, isqrt, lcm, prod
from operator import add, mul, neg, sub

from .errors import (
    DegenerateAlgebraError,
    MixedAlgebrasError,
    NotInvertibleError,
    ZeroScaleError,
)
from .exactnum import Rat, _builder, _integer_form, _signed_sum, _to_rat, format_rat


@dataclass(frozen=True, slots=True)
class AlgebraParams:
    """Parameters (beta1, beta2) of H(beta1, beta2); both must be nonzero.

    ``_products`` holds what every product in the algebra shares
    (:func:`_constants`), built on the first one; it takes no part in
    ``==``, ``hash`` or ``repr``."""

    beta1: Fraction
    beta2: Fraction
    _products: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _parts(self) -> tuple[tuple[int, int], ...]:
        """e2^2 = -beta1 and e3^2 = -beta2 as (numerator, denominator) pairs."""
        return tuple((-b.numerator, b.denominator) for b in (self.beta1, self.beta2))


_ZERO = Fraction(0)


class _Element:
    """Arithmetic shared by :class:`Quaternion` and ``clifford.CliffordElement``
    on the integer form of ``exactnum``: ``nums``, one integer numerator per
    basis element, over one denominator ``den``.  The form is canonical, so
    the dataclasses' structural ``==`` and hash compare values; ``coeffs``
    derives the ``Fraction``s.  Sums and differences take one lcm and one
    gcd, negation only flips signs, and products come from :func:`_product`
    and take one gcd.

    A subclass names its algebra's field in ``_ALGEBRA``, sets ``_of`` to its
    ``exactnum._builder`` constructor (algebra, nums, den), which fills the
    three slots of an element of the canonical form (nums, den) as it is,
    and supplies ``_require_same``, which rejects an element of another
    algebra.  Its own ``__mul__`` passes its algebra to :meth:`_times`:
    ``perfbench/tracing.py`` counts the products of each class from the
    methods in that class's own body."""

    __slots__ = ()

    def _fill(self, algebra, nums: tuple[int, ...], den: int) -> None:
        # a frozen dataclass fills its own slots through object.__setattr__
        object.__setattr__(self, self._ALGEBRA, algebra)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _like(self, nums: tuple[int, ...], den: int):
        """The element of this algebra of the canonical form (nums, den), as is."""
        return self._of(getattr(self, self._ALGEBRA), nums, den)

    def _reduced(self, nums, den: int):
        """The element of this algebra with coefficients nums/den, brought to
        lowest terms by one gcd."""
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
        return self._like(tuple(nums), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients, one ``Fraction`` per basis element."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple([Fraction(v, den) if v else _ZERO for v in self.nums])

    def _combine(self, other, op):
        """``op`` coefficientwise with an element of the same algebra."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same(other)
        dx, dy = self.den, other.den
        if dx == dy:
            return self._reduced(list(map(op, self.nums, other.nums)), dx)
        den = lcm(dx, dy)
        sx, sy = den // dx, den // dy
        return self._reduced([op(a * sx, b * sy) for a, b in zip(self.nums, other.nums)], den)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self._like(tuple(map(neg, self.nums)), self.den)

    def _times(self, other, algebra):
        """``self * other`` for a rational ``other`` or an element of the same
        algebra, ``algebra``, multiplied on :func:`_product` with that
        algebra's constants."""
        if isinstance(other, type(self)):
            self._require_same(other)
            x, y = (self.nums, self.den), (other.nums, other.den)
            return self._reduced(*_product(_constants(algebra), x, y))
        if isinstance(other, (int, Fraction)):
            p, q = _to_rat(other).as_integer_ratio()
            return self._reduced([v * p for v in self.nums], self.den * q)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.nums)


def _coefficient(k: int) -> property:
    return property(lambda self: Fraction(self.nums[k], self.den), doc=f"Coefficient a{k + 1}.")


@dataclass(frozen=True, slots=True, init=False)
class Quaternion(_Element):
    """Element a1 + a2*e2 + a3*e3 + a4*e4 of H(beta1, beta2), stored as the
    integers ``nums`` over ``den``; ``a1``..``a4`` and ``coeffs`` read the
    coefficients as ``Fraction``s."""

    params: AlgebraParams
    nums: tuple[int, int, int, int]
    den: int
    _ALGEBRA = "params"
    a1, a2, a3, a4 = map(_coefficient, range(4))

    def __init__(
        self, params: AlgebraParams, a1: Rat | int, a2: Rat | int, a3: Rat | int, a4: Rat | int
    ) -> None:
        self._fill(params, *_integer_form((a1, a2, a3, a4)))

    @classmethod
    def from_coeffs(cls, params: AlgebraParams, coeffs) -> Quaternion:
        nums, den = _integer_form(coeffs)
        if len(nums) != 4:
            raise ValueError(f"need exactly 4 coefficients, got {len(nums)}")
        return cls._of(params, nums, den)

    @classmethod
    def zero(cls, params: AlgebraParams) -> Quaternion:
        return cls._of(params, (0, 0, 0, 0), 1)

    @classmethod
    def one(cls, params: AlgebraParams) -> Quaternion:
        return cls._of(params, (1, 0, 0, 0), 1)

    @classmethod
    def basis(cls, params: AlgebraParams) -> tuple[Quaternion, ...]:
        """(1, e2, e3, e4)."""
        return tuple(cls._of(params, tuple(int(j == i) for j in range(4)), 1) for i in range(4))

    def _require_same(self, other: Quaternion) -> None:
        if self.params != other.params:
            raise MixedAlgebrasError(
                f"cannot combine elements of {self.params.label()} "
                f"and {other.params.label()}"
            )

    def __mul__(self, other: Quaternion | Rat | int) -> Quaternion:
        return self._times(other, self.params)

    def conjugate(self) -> Quaternion:
        """(a1, -a2, -a3, -a4); satisfies x * conj(x) = norm(x) * 1."""
        x1, x2, x3, x4 = self.nums
        return self._like((x1, -x2, -x3, -x4), self.den)

    def norm(self) -> Fraction:
        """a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2 on the integers of :func:`_norm_coefficients`."""
        c0, c1, c2, c3 = _norm_coefficients(self.params)
        x1, x2, x3, x4 = self.nums
        form = c0 * x1 * x1 + c1 * x2 * x2 + c2 * x3 * x3 + c3 * x4 * x4
        return Fraction(form, c0 * self.den**2)

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
        den, names = self.den, ("1", "e2", "e3", "e4")
        return _signed_sum((n, den, name) for n, name in zip(self.nums, names))


Quaternion._of = staticmethod(_builder(Quaternion))


def _norm_coefficients(params: AlgebraParams) -> tuple[int, int, int, int]:
    """c = (d1*d2, n1*d2, n2*d1, n1*n2) = d1*d2*(1, b1, b2, b1*b2) for
    beta_i = n_i/d_i: d1*d2*n(x) = c0*x1^2 + c1*x2^2 + c2*x3^2 + c3*x4^2."""
    (n1, d1), (n2, d2) = params.beta1.as_integer_ratio(), params.beta2.as_integer_ratio()
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


_Constants = tuple[tuple[tuple[int, int], ...], int, dict[int, int]]


def _constants(algebra) -> _Constants:
    """``(parts, T, memo)`` for the products in ``algebra``, an
    ``AlgebraParams`` or a ``clifford.DiagonalForm``: the generator squares
    n_k/d_k as (n_k, d_k) pairs, T = prod d_k, and the memo of M(c) that
    :func:`_pair_loop` fills, at every rank.  Built on the algebra's first
    product and kept in its ``_products`` field, so the constants live and
    die with the algebra and no cache is keyed by value."""
    constants = algebra._products
    if constants is None:
        parts = algebra._parts()
        constants = parts, prod(d for _, d in parts), {}
        object.__setattr__(algebra, "_products", constants)
    return constants


def _product(
    constants: _Constants,
    x: tuple[tuple[int, ...], int],
    y: tuple[tuple[int, ...], int],
) -> tuple[list[int] | tuple[int, ...], int]:
    """The product of two elements of the Clifford algebra whose generators
    square to n_k/d_k, from their integer forms ``(nums, den)`` and the
    algebra's :func:`_constants` (``parts`` = the pairs (n_k, d_k)): integer
    slots and their common denominator, which the caller brings to lowest
    terms.

    With T = prod d_k, the generators c common to two blades contract to
    M(c)/T, where M(c) = prod_{k in c} n_k * prod_{k not in c} d_k is an
    integer.  So every term of the numerators' product lands on an integer
    slot, over the denominator dx*dy*T.  T and each M(c) are computed once
    per algebra, not per product.

    Two strategies fill the slots.  The pair loop (:func:`_pair_loop`)
    takes one step per pair of nonzero blades of x and y.  Packed rows
    (:func:`_packed_rows`) read y's numerators as stored and take one
    multiply-add per nonzero blade of x and about 2^(n/2 + 1) steps of a
    dozen big-int operations, all on ints of 64 bits per blade, and win
    unless y is sparse: with ``dim = 2^n`` blades they run when
    ``|x| * |y| > 8 * dim``, ``16 * |y| > dim`` and
    ``sum|a| * max|b| * prod max(|n_k|, d_k)``, a bound on every slot and
    on every row they decode on the way, fits in 63 bits.  So quaternions,
    blades, vectors and bivectors, and products with a sparse right operand
    or wide coefficients, stay on the pair loop.  Timed on CPython 3.11.7
    (2-vCPU VM) over supports of 1 to 2^n blades at ranks 3-9, the pairs
    the rule sends to packed rows ran 1.2-45x faster than on the pair loop,
    with single runs down to 0.9x where ``|x| * |y|`` is just above
    ``8 * dim``.
    """
    parts, scale, memo = constants
    (xn, dx), (yn, dy) = x, y
    xs = list(compress(enumerate(xn), xn))
    dim = 1 << len(parts)
    count = dim - yn.count(0)
    if (
        len(xs) * count > 8 * dim
        and 16 * count > dim
        and sum(map(abs, xn)) * max(map(abs, yn))
        * prod(max(abs(n), d) for n, d in parts) < 1 << 63
    ):
        acc = _packed_rows(parts, xs, yn)
    else:
        acc = _pair_loop(parts, xs, list(compress(enumerate(yn), yn)), memo)
    return acc, dx * dy * scale


def _pair_loop(
    parts: tuple[tuple[int, int], ...],
    xs: list[tuple[int, int]],
    ys: list[tuple[int, int]],
    metric: dict[int, int],
) -> list[int]:
    """The integer slots of :func:`_product` for squares n_k/d_k = ``parts``,
    one step per pair of nonzero blades ``(index, numerator)``, with M(c)
    memoised per c in ``metric``: the algebra's memo from
    :func:`_constants`, which serves every product in it."""
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
    parts: list[tuple[int, int]], xs: list[tuple[int, int]], yn: tuple[int, ...]
) -> tuple[int, ...]:
    """The integer slots of :func:`_product` for squares n_k/d_k = ``parts``,
    the nonzero blades ``xs`` of x and all the numerators ``yn`` of y, from
    packed rows; every slot must stay below 2^63 in magnitude.

    A row is the plain integer sum_t slot_t * 2^(64t) of its signed slots.
    The generators split into the m = max(n // 2, n - 6) low ones and the
    n - m high ones, so blade i is l | h with no sign between e_l and e_h,
    and x*y = sum_l e_l * Z_l with Z_l = sum_h a_(l,h) * e_h * y, in two
    levels:

    - Row h holds e_h * y scaled by prod_{k in h} d_k.  It comes from the
      row of h minus its lowest generator k, because e_h = e_k * e_h'
      (``left``).  Only the rows of high parts in ``xs``, and their
      ancestors, are built, each once: at most 64, since past rank 12 the
      2^n multiply-adds below cost far more than the extra left steps of a
      larger m.
    - Z_l is the sum of a * prod_{k high, not in h} d_k * row_h.  The low
      generators apply by a Horner pass from generator m - 1 down to 0,
      W = d_k * W_without_k + g_k * d_k * W_with_k, depth first, so it
      holds one pending sum per generator and builds each Z_l at its leaf.

    So about 2^(n-m) + 2^m full-width left steps serve the 2^n blades of x,
    and every term ends up scaled by T = prod d_k.  ``left`` multiplies a
    row by g_k * d_k: it offsets every field by 2^63 so that the masks of
    :func:`_layout` can split them, scales the fields that move down by
    the signed n and the others by d, and subtracts ``up * d + down * n``,
    the offsets moved and scaled alike.  Every field it splits, and every
    slot of the result, is a signed sum of terms a_i * b_j * F, at most one
    for each blade i of x, where F multiplies n_k or d_k over some of the
    generators, so the bound ``sum|a| * max|b| * prod max(|n_k|, d_k)`` on
    which :func:`_product` admits the pair keeps each of them below 2^63.
    One ``to_bytes`` and one ``struct.unpack``, both little-endian whatever
    the host's byte order, split the fields of the last W.
    """
    n = len(parts)
    dim = 1 << n
    m = max(n // 2, n - 6)
    offsets, masks = (_layout if dim <= _MEMO_DIM else _layout.__wrapped__)(dim)
    steps = [
        (flip, low, shift, num, d, up * d + down * num)
        for (flip, low, shift, up, down), (num, d) in zip(masks, parts)
    ]
    del masks  # past _MEMO_DIM this frees up and down, 16 bytes a field per generator

    def left(k: int, row: int) -> int:
        flip, low, shift, num, d, correction = steps[k]
        row = (row + offsets) ^ flip
        half = row & low
        return (half << shift) * d + ((row ^ half) >> shift) * num - correction

    high = 1 << n - m
    # scales[h]: prod of d_k over the high generators k not in h, from h
    # less any one of its generators k (here the highest)
    scales = [prod(d for _, d in parts[m:])] * high
    for h in range(1, high):
        k = h.bit_length() - 1
        scales[h] = scales[h ^ 1 << k] // parts[m + k][1]
    rows: list[int | None] = [None] * high
    rows[0] = (int.from_bytes(struct.pack(f"<{dim}q", *yn), "little") ^ offsets) - offsets

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

    def fold(k: int, l: int) -> int:
        """sum_l' e_l' * Z_(l | l') over the blades l' of the low generators
        k..m - 1, scaled by their d's."""
        if k == m:
            return sum(map(mul, cs[l], map(row, hs[l])))
        without, with_ = fold(k + 1, l), fold(k + 1, l | 1 << k)
        return without * parts[k][1] + (with_ and left(k, with_))

    fields = ((fold(0, 0) + offsets) ^ offsets).to_bytes(8 * dim, "little")
    return struct.unpack(f"<{dim}q", fields)


#: Largest ``dim`` whose layout :func:`_layout` keeps: 0.58 MiB for every
#: dim up to it (``tracemalloc``); one mask at rank 16 alone takes 512 KiB.
_MEMO_DIM = 1 << 10


@lru_cache(maxsize=None)
def _layout(dim: int) -> tuple[int, tuple[tuple[int, int, int, int, int], ...]]:
    """``(offsets, masks)`` for rows of :func:`_packed_rows` with ``dim``
    fields: 2^63 in every field, and per generator k the masks
    ``(flip, low, shift, up, down)`` of the left step by g_k * d_k, which
    depend on the layout alone, not on g_k^2 = n/d.

    g_k * e_t = (-1)^popcount(t & (2^k - 1)) * e_{t ^ 2^k}, times n/d when
    t holds k.  The XOR with ``flip`` turns each offset field r + 2^63 of
    odd sign into -r - 1 + 2^63; ``low`` selects the fields without k,
    which move up by ``shift`` bits and scale by d, while the others move
    down and scale by n, sign included.  ``base`` is the offsets as the XOR
    leaves them, and ``up`` and ``down`` are ``base`` split and moved as
    ``left`` splits and moves a row, so ``up * d + down * n`` takes them
    out.  That is exact as the fields holding k are those without k
    shifted by ``shift``, and as 2^63 - 1 never borrows from the next field."""
    offsets = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * dim, "little")
    masks = []
    parity, inverse = bytes(8), b"\xff" * 8  # fields t < 2^k of odd popcount
    for k in range(dim.bit_length() - 1):
        block = 8 << k
        low = int.from_bytes((b"\xff" * block + bytes(block)) * (dim >> k + 1), "little")
        shift = 64 << k
        flip = int.from_bytes(parity * (dim >> k), "little")
        base = offsets - ((flip & offsets) >> 63)
        half = base & low
        masks.append((flip, low, shift, half << shift, (base ^ half) >> shift))
        parity, inverse = parity + inverse, inverse + parity
    return offsets, tuple(masks)


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
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    return target, BasisMap(params, target, (
        _basis_multiple(target, 0, 1, 1),
        _basis_multiple(target, 1, xd, xn),
        _basis_multiple(target, 2, yd, yn),
        _basis_multiple(target, 3, xd * yd, xn * yn),
    ))


def _basis_multiple(params: AlgebraParams, k: int, p: int, q: int) -> Quaternion:
    """Basis element k of (1, e2, e3, e4) times p/q, for integers p and q != 0."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    nums = [0, 0, 0, 0]
    nums[k] = p // g
    return Quaternion._of(params, tuple(nums), q // g)


#: Largest coordinate height ``zero_divisor_witness`` searches.
MAX_WITNESS_HEIGHT = 8


def zero_divisor_witness(params: AlgebraParams) -> Quaternion | None:
    """A nonzero quaternion of zero norm, constructed deterministically.

    Works on the integer form c of :func:`_norm_coefficients`.  Tries the
    closed forms 1 + e_k/t first, whenever -c_k/c0 (-b1, -b2, then -b1*b2)
    is the square of a rational t, then every integer vector of height <=
    ``MAX_WITNESS_HEIGHT``.  Returns None for division algebras and for split
    algebras whose norm form happens to be anisotropic over the rationals
    within the search bound.
    """
    if is_division_algebra(params):
        return None
    c0, c1, c2, c3 = _norm_coefficients(params)
    for slot, ck in ((1, c1), (2, c2), (3, c3)):
        # -c_k/c0 = t^2 exactly when -c_k*c0 = r^2, and then t = r/c0
        square = -ck * c0
        if square > 0 and (r := isqrt(square)) * r == square:
            g = gcd(r, c0)  # t = p/q in lowest terms, and 1 + e_k/t = (p + q*e_k)/p
            nums = [r // g, 0, 0, 0]
            nums[slot] = c0 // g
            return Quaternion._of(params, tuple(nums), r // g)
    for height in range(1, MAX_WITNESS_HEIGHT + 1):
        # The norm is even in each coordinate, so the first zero of this height
        # in lexicographic order over [-height, height]^4 is the negation of
        # the last one over [0, height]^4, which a descending scan meets first.
        for x1, x2, x3, x4 in product(range(height, -1, -1), repeat=4):
            if (
                max(x1, x2, x3, x4) == height
                and c0 * x1 * x1 + c1 * x2 * x2 + c2 * x3 * x3 + c3 * x4 * x4 == 0
            ):
                return Quaternion._of(params, (-x1, -x2, -x3, -x4), 1)
    return None
