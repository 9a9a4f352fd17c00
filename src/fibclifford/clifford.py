"""Blade-based Clifford algebras of diagonal quadratic forms, and the
classification of the rank-2 algebra attached to the Fibonacci quaternion
space.

Convention: generators square to the *raw* diagonal entries, g_i^2 = q_i
(so a negative definite form diag(-1, -1) yields the Hamilton quaternions).
Basis blades are the 2^n ordered products of distinct generators, encoded
as bitmasks; the product of two blades is another blade up to a rational
coefficient, computed by counting generator transpositions.

For a rank-2 form diag(a, b) the algebra is exactly the generalized
quaternion algebra H(-a, -b) under 1 -> 1, g1 -> e2, g2 -> e3,
g1g2 -> e4, and rescaling by squares normalizes it to H(1, 1) (division,
both entries negative) or H(-1, -1) (split, otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm, prod

from .errors import DegenerateFormError, MixedFormsError
from .exactnum import QSqrt5, Rat, _signed_sum, _to_rat, format_rat
from .fibquat import (
    ThresholdCertificate,
    _basis_norms,
    _certify,
    _seeded_discriminant,
    growth_profile,
)
from .quat import AlgebraParams, is_division_algebra

MAX_GENERATORS = 16


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form: the tuple of generator squares."""

    squares: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        squares = tuple(map(_to_rat, self.squares))
        if len(squares) > MAX_GENERATORS:
            raise ValueError(
                f"at most {MAX_GENERATORS} generators supported, got {len(squares)}"
            )
        for i, s in enumerate(squares):
            if s == 0:
                raise DegenerateFormError(
                    f"zero square for generator {i + 1}: the form is degenerate"
                )
        object.__setattr__(self, "squares", squares)

    @property
    def rank(self) -> int:
        return len(self.squares)

    @property
    def dim(self) -> int:
        return 1 << len(self.squares)

    def __getitem__(self, i: int) -> Fraction:
        return self.squares[i]


def _diag(squares: tuple[Fraction, ...]) -> str:
    return f"diag({', '.join(map(format_rat, squares))})"


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


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


def blade_product(
    mask_a: int, mask_b: int, form: DiagonalForm
) -> tuple[Fraction, int]:
    """Product of two basis blades: (coefficient, result mask).

    The sign counts the transpositions needed to sort the concatenated
    generator lists; each generator occurring in both blades contracts to
    its square.  The result mask is the symmetric difference.
    """
    dim = form.dim
    if not (0 <= mask_a < dim and 0 <= mask_b < dim):
        bad = mask_b if 0 <= mask_a < dim else mask_a
        raise ValueError(f"blade mask {bad} out of range for rank {form.rank}")
    coeff = Fraction(-1 if (_reorder_parity(mask_a) & mask_b).bit_count() & 1 else 1)
    common = mask_a & mask_b
    while common:
        low = common & -common
        coeff *= form[low.bit_length() - 1]
        common ^= low
    return coeff, mask_a ^ mask_b


def _integer_support(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero blades of an element as (mask, integer) pairs, scaled by
    the lcm ``d`` of their denominators, and ``d``."""
    support = [(mask, c) for mask, c in enumerate(coeffs) if c]
    d = lcm(*(c.denominator for _, c in support))
    return [(mask, c.numerator * (d // c.denominator)) for mask, c in support], d


def _product(
    form: DiagonalForm, x: tuple[Fraction, ...], y: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Coefficients of the product of two elements, computed on integers
    over their nonzero blades.

    Each operand is scaled to integers by the lcm of its denominators
    (dx, dy).  With squares s_k = n_k/d_k and T = prod d_k, the generators
    c common to two blades contract to M(c)/T, where
    M(c) = prod_{k in c} n_k * prod_{k not in c} d_k is an integer,
    memoised per c for this call.  Every term lands on an integer slot,
    and the slots are divided once by dx*dy*T at the end.
    """
    xs, dx = _integer_support(x)
    ys, dy = _integer_support(y)
    squares = [(s.numerator, s.denominator) for s in form.squares]
    metric: dict[int, int] = {}
    acc = [0] * form.dim
    for i, a in xs:
        parity = _reorder_parity(i)
        for j, b in ys:
            common = i & j
            m = metric.get(common)
            if m is None:
                m = metric[common] = prod(
                    n if common >> k & 1 else d for k, (n, d) in enumerate(squares)
                )
            term = a * b * m
            if (parity & j).bit_count() & 1:
                acc[i ^ j] -= term
            else:
                acc[i ^ j] += term
    den = dx * dy * prod(d for _, d in squares)
    zero = Fraction(0)
    return tuple(Fraction(v, den) if v else zero for v in acc)


@dataclass(frozen=True, slots=True)
class CliffordElement:
    """Element of the Clifford algebra: one rational coefficient per blade."""

    form: DiagonalForm
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(_to_rat, self.coeffs))
        if len(coeffs) != self.form.dim:
            raise ValueError(
                f"need {self.form.dim} blade coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, form: DiagonalForm) -> CliffordElement:
        return cls(form, (Fraction(0),) * form.dim)

    @classmethod
    def scalar(cls, form: DiagonalForm, value: Rat | int) -> CliffordElement:
        return cls.blade(form, 0, value)

    @classmethod
    def one(cls, form: DiagonalForm) -> CliffordElement:
        return cls.scalar(form, 1)

    @classmethod
    def blade(
        cls, form: DiagonalForm, mask: int, coeff: Rat | int = 1
    ) -> CliffordElement:
        if not 0 <= mask < form.dim:
            raise ValueError(f"blade mask {mask} out of range for rank {form.rank}")
        coeffs = [Fraction(0)] * form.dim
        coeffs[mask] = coeff
        return cls(form, tuple(coeffs))

    @classmethod
    def generator(cls, form: DiagonalForm, i: int) -> CliffordElement:
        """The i-th generator (1-based), as a blade."""
        if not 1 <= i <= form.rank:
            raise ValueError(f"generator index {i} out of range 1..{form.rank}")
        return cls.blade(form, 1 << (i - 1))

    def _require_same_form(self, other: CliffordElement) -> None:
        if self.form != other.form:
            raise MixedFormsError(
                f"cannot combine elements over {_diag(self.form.squares)} "
                f"and {_diag(other.form.squares)}"
            )

    def __add__(self, other: CliffordElement) -> CliffordElement:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._require_same_form(other)
        return CliffordElement(
            self.form, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: CliffordElement) -> CliffordElement:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> CliffordElement:
        return CliffordElement(self.form, tuple(-c for c in self.coeffs))

    def __mul__(self, other: CliffordElement | Rat | int) -> CliffordElement:
        if isinstance(other, (int, Fraction)):
            s = _to_rat(other)
            return CliffordElement(self.form, tuple(c * s for c in self.coeffs))
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._require_same_form(other)
        return CliffordElement(self.form, _product(self.form, self.coeffs, other.coeffs))

    def __rmul__(self, other: Rat | int) -> CliffordElement:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        return _signed_sum((c, blade_name(mask)) for mask, c in enumerate(self.coeffs) if c)


class CliffordClass(Enum):
    SPLIT = "Split"
    DIVISION = "Division"


def _class_of(model: AlgebraParams) -> CliffordClass:
    return CliffordClass.DIVISION if is_division_algebra(model) else CliffordClass.SPLIT


def rank2_class(form: DiagonalForm) -> CliffordClass:
    """The class of the quaternion algebra H(-a, -b) of Cl(diag(a, b)):
    division iff both squares are negative, otherwise the (unique) split
    class.
    """
    return _class_of(quaternion_isomorphism(form))


def quaternion_isomorphism(form: DiagonalForm) -> AlgebraParams:
    """The quaternion algebra H(-a, -b) of Cl(diag(a, b)).

    Blades (1, g1, g2, g1g2) map to (1, e2, e3, e4), so an element's
    blade-coefficient tuple is the quaternion's coefficient tuple and no map
    object is needed.  The test suite and ``selftest`` prove the
    identification multiplicative for every nonzero (a, b); it is not
    re-checked per call.
    """
    if form.rank != 2:
        raise ValueError(f"rank-2 form required, got rank {form.rank}")
    return AlgebraParams(-form[0], -form[1])


def fibonacci_form(n: int, params: AlgebraParams) -> DiagonalForm:
    """diag(n(F(n)), n(F(n+1))): the form of the rank-2 space at basepoint n."""
    n0, n1 = _basis_norms(n, params)
    if n0 == 0 or n1 == 0:
        raise DegenerateFormError(
            f"degenerate at n={n} in {params.label()}: {_diag((n0, n1))}"
        )
    return DiagonalForm((n0, n1))


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Full output of the classification: discriminant, certificate, form,
    Clifford class, canonical quaternion model and the scaling witness
    connecting them."""

    params: AlgebraParams
    discriminant: QSqrt5
    discriminant_sign: int
    input_is_division: bool
    certificate: ThresholdCertificate
    basepoint: int
    form: DiagonalForm
    clifford_class: CliffordClass
    canonical: str
    scaling_witness: tuple[Fraction, Fraction]
    quaternion_model: AlgebraParams
    seeds: tuple[int, int] | None = None
    seeded_discriminant: QSqrt5 | None = None
    seeded_certificate: ThresholdCertificate | None = None

    def to_json(self) -> dict:
        data = {
            "beta1": format_rat(self.params.beta1),
            "beta2": format_rat(self.params.beta2),
            "E": self.discriminant.to_json(),
            "sign_E": self.discriminant_sign,
            "input_is_division": self.input_is_division,
            "n_prime": self.certificate.n_prime,
            "form": [format_rat(self.form[0]), format_rat(self.form[1])],
            "clifford_class": self.clifford_class.value,
            "canonical": self.canonical,
            "scaling_witness": [
                format_rat(self.scaling_witness[0]),
                format_rat(self.scaling_witness[1]),
            ],
        }
        if self.seeds is not None:
            data["p"], data["q"] = self.seeds
            data["E_prime"] = self.seeded_discriminant.to_json()
            data["seeded_n_prime"] = self.seeded_certificate.n_prime
        return data


def classify(
    params: AlgebraParams, p: int | None = None, q: int | None = None
) -> ClassificationReport:
    """Classify the Clifford algebra of the Fibonacci quaternion space.

    Positive discriminant yields the split class with canonical model
    H(-1, -1); negative yields the division class with canonical model
    H(1, 1); sign(E) is the limit sign of the plain certificate, which
    never vanishes for rational parameters.  The concrete rank-2 form is
    taken at the certified threshold, where the certificate guarantees both
    basis norms are nonzero, and the witness pair (|n(F(n))|, |n(F(n+1))|)
    rescales the identified H(-n(F(n)), -n(F(n+1))) onto the canonical
    model by squares.

    Optional integer seeds (p, q) additionally certify the threshold for
    the seeded quaternions H(n; p, q); seeds (0, 0) have a vanishing seeded
    discriminant and are rejected.
    """
    if (p is None) != (q is None):
        raise ValueError("seeds p and q must be given together")
    profile = growth_profile(params)
    certificate = _certify(params, 0, 1)
    sign = certificate.limit_sign
    seeds = seeded_discriminant = seeded_certificate = None
    if p is not None:
        seeds = (p, q)
        seeded_discriminant = _seeded_discriminant(profile, p, q)
        seeded_certificate = _certify(params, p, q)
    basepoint = certificate.n_prime
    form = fibonacci_form(basepoint, params)
    model = quaternion_isomorphism(form)
    clifford_class = _class_of(model)
    if (clifford_class is CliffordClass.DIVISION) != (sign < 0):
        raise AssertionError("form-entry route and discriminant route disagree")
    canonical = "H(1,1)" if clifford_class is CliffordClass.DIVISION else "H(-1,-1)"
    return ClassificationReport(
        params=params,
        discriminant=profile.discriminant,
        discriminant_sign=sign,
        input_is_division=is_division_algebra(params),
        certificate=certificate,
        basepoint=basepoint,
        form=form,
        clifford_class=clifford_class,
        canonical=canonical,
        scaling_witness=(abs(form[0]), abs(form[1])),
        quaternion_model=model,
        seeds=seeds,
        seeded_discriminant=seeded_discriminant,
        seeded_certificate=seeded_certificate,
    )
