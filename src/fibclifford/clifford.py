"""Blade-based Clifford algebras of diagonal quadratic forms, and the
classification of the rank-2 algebra attached to the Fibonacci quaternion
space.

Convention: generators square to the *raw* diagonal entries, g_i^2 = q_i
(so a negative definite form diag(-1, -1) yields the Hamilton quaternions).
Basis blades are the 2^n ordered products of distinct generators, encoded
as bitmasks; the product of two blades is another blade up to a rational
coefficient, computed by counting generator transpositions.  Elements hold
integer numerators over one denominator, as quaternions do, and multiply on
the integer blade kernel ``quat._product``, shared with quaternions: dense
elements with small coefficients by packed integer rows, others one pair of
nonzero blades at a time.

For a rank-2 form diag(a, b) the algebra is exactly the generalized
quaternion algebra H(-a, -b) under 1 -> 1, g1 -> e2, g2 -> e3,
g1g2 -> e4, and rescaling by squares normalizes it to H(1, 1) (division,
both entries negative) or H(-1, -1) (split, otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import DegenerateFormError, MixedFormsError
from .exactnum import QSqrt5, Rat, _builder, _integer_form, _signed_sum, _to_rat, format_rat
from .fib import _check_seeds
from .fibquat import (
    ThresholdCertificate,
    _basis_norms,
    _certify,
    _discriminant,
    _e_prime,
    _growth_integers,
    _seeded_growth,
)
from .quat import AlgebraParams, _constants, _Element, _reorder_parity, is_division_algebra

MAX_GENERATORS = 16


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form: the tuple of generator squares.

    ``_products`` holds what every product over the form shares
    (``quat._constants``), built on the first one; it takes no part in
    ``==``, ``hash`` or ``repr``."""

    squares: tuple[Fraction, ...]
    _products: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _parts(self) -> tuple[tuple[int, int], ...]:
        """The squares as (numerator, denominator) pairs."""
        return tuple(s.as_integer_ratio() for s in self.squares)


#: the form of nonzero ``Fraction`` squares, at most ``MAX_GENERATORS`` of
#: them, taken as they are: for forms the package computed itself
_form = _builder(DiagonalForm)


def _diag(squares: tuple[Fraction, ...]) -> str:
    return f"diag({', '.join(map(format_rat, squares))})"


def blade_name(mask: int) -> str:
    if mask < 0:
        raise ValueError(f"blade mask {mask} is negative")
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


def blade_product(
    mask_a: int, mask_b: int, form: DiagonalForm
) -> tuple[Fraction, int]:
    """Product of two basis blades: (coefficient, result mask).

    The sign counts the transpositions needed to sort the concatenated
    generator lists; each generator occurring in both blades contracts to
    its square n_k/d_k, read as the integer pair of ``quat._constants``, so
    the coefficient is +-prod n_k / prod d_k, brought to lowest terms by one
    gcd.  The result mask is the symmetric difference.
    """
    dim = form.dim
    if not (0 <= mask_a < dim and 0 <= mask_b < dim):
        bad = mask_b if 0 <= mask_a < dim else mask_a
        raise ValueError(f"blade mask {bad} out of range for rank {form.rank}")
    parts = _constants(form)[0]
    num = -1 if (_reorder_parity(mask_a) & mask_b).bit_count() & 1 else 1
    den = 1
    common = mask_a & mask_b
    while common:
        low = common & -common
        n, d = parts[low.bit_length() - 1]
        num *= n
        den *= d
        common ^= low
    return Fraction(num, den), mask_a ^ mask_b


@dataclass(frozen=True, slots=True, init=False)
class CliffordElement(_Element):
    """Element of the Clifford algebra: one rational coefficient per blade,
    stored as the integers ``nums`` over ``den``; ``coeffs`` reads them as
    ``Fraction``s."""

    form: DiagonalForm
    nums: tuple[int, ...]
    den: int
    _ALGEBRA = "form"

    def __init__(self, form: DiagonalForm, coeffs) -> None:
        nums, den = _integer_form(coeffs)
        if len(nums) != form.dim:
            raise ValueError(f"need {form.dim} blade coefficients, got {len(nums)}")
        self._fill(form, nums, den)

    @classmethod
    def zero(cls, form: DiagonalForm) -> CliffordElement:
        return cls._of(form, (0,) * form.dim, 1)

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
        p, q = _to_rat(coeff).as_integer_ratio()
        nums = [0] * form.dim
        nums[mask] = p
        return cls._of(form, tuple(nums), q)

    @classmethod
    def generator(cls, form: DiagonalForm, i: int) -> CliffordElement:
        """The i-th generator (1-based), as a blade."""
        if not 1 <= i <= form.rank:
            raise ValueError(f"generator index {i} out of range 1..{form.rank}")
        return cls.blade(form, 1 << (i - 1))

    def _require_same(self, other: CliffordElement) -> None:
        if self.form != other.form:
            raise MixedFormsError(
                f"cannot combine elements over {_diag(self.form.squares)} "
                f"and {_diag(other.form.squares)}"
            )

    def __mul__(self, other: CliffordElement | Rat | int) -> CliffordElement:
        return self._times(other, self.form)

    def __str__(self) -> str:
        den = self.den
        return _signed_sum((n, den, blade_name(mask)) for mask, n in enumerate(self.nums) if n)


CliffordElement._of = staticmethod(_builder(CliffordElement))


class CliffordClass(Enum):
    SPLIT = "Split"
    DIVISION = "Division"


def _require_rank2(form: DiagonalForm) -> None:
    if form.rank != 2:
        raise ValueError(f"rank-2 form required, got rank {form.rank}")


def rank2_class(form: DiagonalForm) -> CliffordClass:
    """The class of the quaternion algebra H(-a, -b) of Cl(diag(a, b)):
    division iff both squares are negative, otherwise the (unique) split
    class.
    """
    _require_rank2(form)
    return CliffordClass.DIVISION if form[0] < 0 and form[1] < 0 else CliffordClass.SPLIT


def quaternion_isomorphism(form: DiagonalForm) -> AlgebraParams:
    """The quaternion algebra H(-a, -b) of Cl(diag(a, b)).

    Blades (1, g1, g2, g1g2) map to (1, e2, e3, e4), so an element's
    blade-coefficient tuple is the quaternion's coefficient tuple and no map
    object is needed.  The test suite and ``selftest`` prove the
    identification multiplicative for every nonzero (a, b); it is not
    re-checked per call.
    """
    _require_rank2(form)
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
    """Full output of the classification, storing what :func:`classify`
    computes; the sign of E, basepoint, input class, canonical model, scaling
    witness and quaternion model are read off it on access, so they agree."""

    params: AlgebraParams
    discriminant: QSqrt5
    certificate: ThresholdCertificate
    form: DiagonalForm
    clifford_class: CliffordClass
    seeds: tuple[int, int] | None = None
    seeded_discriminant: QSqrt5 | None = None
    seeded_certificate: ThresholdCertificate | None = None

    @property
    def discriminant_sign(self) -> int:
        return self.certificate.limit_sign

    @property
    def basepoint(self) -> int:
        return self.certificate.n_prime

    @property
    def input_is_division(self) -> bool:
        return is_division_algebra(self.params)

    @property
    def canonical(self) -> str:
        return "H(1,1)" if self.clifford_class is CliffordClass.DIVISION else "H(-1,-1)"

    @property
    def scaling_witness(self) -> tuple[Fraction, Fraction]:
        return abs(self.form[0]), abs(self.form[1])

    @property
    def quaternion_model(self) -> AlgebraParams:
        return quaternion_isomorphism(self.form)

    def to_json(self) -> dict:
        witness = self.scaling_witness
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
            "scaling_witness": [format_rat(witness[0]), format_rat(witness[1])],
        }
        if self.seeds is not None:
            data["p"], data["q"] = self.seeds
            data["E_prime"] = self.seeded_discriminant.to_json()
            data["seeded_n_prime"] = self.seeded_certificate.n_prime
        return data


_report = _builder(ClassificationReport)


def classify(
    params: AlgebraParams, p: int | None = None, q: int | None = None
) -> ClassificationReport:
    """Classify the Clifford algebra of the Fibonacci quaternion space.

    Positive discriminant yields the split class with canonical model
    H(-1, -1); negative yields the division class with canonical model
    H(1, 1); sign(E) is the limit sign of the plain certificate, which
    never vanishes for rational parameters.  The concrete rank-2 form is
    taken at the certified threshold, where the certificate guarantees both
    basis norms are nonzero, and its walk hands back d1*d2 times their
    absolute values.
    The witness pair (|n(F(n))|, |n(F(n+1))|) rescales the identified
    H(-n(F(n)), -n(F(n+1))) onto the canonical model by squares.

    Optional integer seeds (p, q) additionally certify the threshold for
    the seeded quaternions H(n; p, q); seeds (0, 0) have a vanishing seeded
    discriminant and are rejected.

    The seeds are checked here, once; every value below is the package's
    own and is built eagerly, from the integers of the growth constants and
    the certificates, as it is: E and E' by ``exactnum._qsqrt5``, one gcd
    each, and the form, the certificates and the report by
    ``exactnum._builder``'s constructors, which fill their slots without
    checks.  The class is read off the limit sign.  One constant-time check
    remains: the walk's two norms, signed so that the limit is positive,
    must both be positive, which puts both form entries on the limit sign's
    side, as ``rank2_class`` reads them.
    """
    if (p is None) != (q is None):
        raise ValueError("seeds p and q must be given together")
    if p is not None:
        _check_seeds(p, q)
    growth = _growth_integers(params)
    certificate, (v0, v1) = _certify(params, growth, 0, 1)
    seeds = seeded_discriminant = seeded_certificate = None
    if p is not None:
        seeds, pair = (p, q), _seeded_growth(growth, p, q)
        seeded_discriminant = _e_prime(growth, pair)
        seeded_certificate = _certify(params, growth, p, q, pair)[0]
    if v0 <= 0 or v1 <= 0:
        raise AssertionError("the form at n' does not carry the limit sign")
    sign = certificate.limit_sign
    c0 = growth[0][0]
    form = _form((Fraction(sign * v0, c0), Fraction(sign * v1, c0)))
    clifford_class = CliffordClass.DIVISION if sign < 0 else CliffordClass.SPLIT
    return _report(
        params, _discriminant(growth), certificate, form, clifford_class,
        seeds, seeded_discriminant, seeded_certificate,
    )
