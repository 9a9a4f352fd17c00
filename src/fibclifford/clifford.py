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

from .errors import DegenerateFormError, IndeterminateError, MixedFormsError
from .exactnum import QSqrt5, Rat, format_rat
from .fibquat import (
    ThresholdCertificate,
    _seeded_discriminant,
    _seeded_threshold,
    _threshold,
    fibonacci_quaternion,
    growth_profile,
)
from .quat import AlgebraParams, Quaternion, is_division_algebra

MAX_GENERATORS = 16


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form: the tuple of generator squares."""

    squares: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        squares = tuple(Fraction(s) for s in self.squares)
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

    def __len__(self) -> int:
        return len(self.squares)

    def __getitem__(self, i: int) -> Fraction:
        return self.squares[i]


def dimension(form: DiagonalForm) -> int:
    """Dimension 2^n of the Clifford algebra on n generators."""
    return form.dim


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


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
        raise ValueError(f"blade mask out of range for rank {form.rank}")
    swaps = 0
    shifted = mask_a >> 1
    while shifted:
        swaps += (shifted & mask_b).bit_count()
        shifted >>= 1
    coeff = Fraction(-1 if swaps & 1 else 1)
    common = mask_a & mask_b
    while common:
        low = common & -common
        coeff *= form[low.bit_length() - 1]
        common ^= low
    return coeff, mask_a ^ mask_b


@dataclass(frozen=True, slots=True)
class CliffordElement:
    """Element of the Clifford algebra: one rational coefficient per blade."""

    form: DiagonalForm
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coeffs)
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
            raise ValueError(f"blade mask out of range for rank {form.rank}")
        coeffs = [Fraction(0)] * form.dim
        coeffs[mask] = Fraction(coeff)
        return cls(form, tuple(coeffs))

    @classmethod
    def generator(cls, form: DiagonalForm, i: int) -> CliffordElement:
        """The i-th generator (1-based), as a blade."""
        if not 1 <= i <= form.rank:
            raise ValueError(f"generator index {i} out of range 1..{form.rank}")
        return cls.blade(form, 1 << (i - 1))

    def _require_same_form(self, other: CliffordElement) -> None:
        if self.form != other.form:
            raise MixedFormsError("cannot combine elements over different forms")

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
            s = Fraction(other)
            return CliffordElement(self.form, tuple(c * s for c in self.coeffs))
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._require_same_form(other)
        out = [Fraction(0)] * self.form.dim
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if not cj:
                    continue
                coeff, mask = blade_product(i, j, self.form)
                out[mask] += ci * cj * coeff
        return CliffordElement(self.form, tuple(out))

    def __rmul__(self, other: Rat | int) -> CliffordElement:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for mask, coeff in enumerate(self.coeffs):
            if coeff == 0:
                continue
            name = blade_name(mask)
            mag = format_rat(abs(coeff))
            if name == "1":
                term = mag
            elif mag == "1":
                term = name
            else:
                term = f"{mag}*{name}"
            parts.append(("- " if coeff < 0 else "+ ") + term)
        if not parts:
            return "0"
        first = parts[0].replace("+ ", "").replace("- ", "-")
        return " ".join([first] + parts[1:])


class CliffordClass(Enum):
    SPLIT = "Split"
    DIVISION = "Division"


def rank2_class(form: DiagonalForm) -> CliffordClass:
    """Division iff both squares are negative, otherwise split.

    Rescaling by rational squares reduces diag(a, b) to diag(+-1, +-1);
    both entries negative gives the Hamilton quaternions, any positive
    entry gives the (unique) split class.
    """
    if form.rank != 2:
        raise ValueError(f"rank-2 form required, got rank {form.rank}")
    if form[0] < 0 and form[1] < 0:
        return CliffordClass.DIVISION
    return CliffordClass.SPLIT


@dataclass(frozen=True, slots=True)
class QuaternionModel:
    """Identification of a rank-2 Clifford algebra with H(-a, -b).

    ``blade_images`` are the quaternions assigned to the blades
    (1, g1, g2, g1g2) in mask order.
    """

    form: DiagonalForm
    params: AlgebraParams
    blade_images: tuple[Quaternion, Quaternion, Quaternion, Quaternion]

    def apply(self, element: CliffordElement) -> Quaternion:
        if element.form != self.form:
            raise MixedFormsError("element does not live over the model's form")
        acc = Quaternion.zero(self.params)
        for coeff, image in zip(element.coeffs, self.blade_images):
            acc = acc + image * coeff
        return acc

    def is_multiplicative(self) -> bool:
        """Check the structure constants agree on all 16 blade pairs."""
        for i in range(4):
            for j in range(4):
                coeff, mask = blade_product(i, j, self.form)
                lhs = self.blade_images[mask] * coeff
                rhs = self.blade_images[i] * self.blade_images[j]
                if lhs != rhs:
                    return False
        return True


def quaternion_isomorphism(form: DiagonalForm) -> tuple[AlgebraParams, QuaternionModel]:
    """Identify Cl(diag(a, b)) with H(-a, -b) via 1, e2, e3, e4.

    The map is verified on all 16 blade pairs before being returned.
    """
    if form.rank != 2:
        raise ValueError(f"rank-2 form required, got rank {form.rank}")
    params = AlgebraParams(-form[0], -form[1])
    model = QuaternionModel(form, params, Quaternion.basis(params))
    if not model.is_multiplicative():
        raise AssertionError("blade-to-quaternion map failed the structure check")
    return params, model


def fibonacci_form(n: int, params: AlgebraParams) -> DiagonalForm:
    """diag(n(F(n)), n(F(n+1))): the form of the rank-2 space at basepoint n."""
    n0 = fibonacci_quaternion(n, params).norm()
    n1 = fibonacci_quaternion(n + 1, params).norm()
    if n0 == 0 or n1 == 0:
        raise DegenerateFormError(
            f"degenerate at n={n} in {params.label()}: "
            f"diag({format_rat(n0)}, {format_rat(n1)})"
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
    H(1, 1).  The concrete rank-2 form is taken at the certified threshold,
    where the certificate guarantees both basis norms are nonzero, and the
    witness pair (|n(F(n))|, |n(F(n+1))|) rescales the identified
    H(-n(F(n)), -n(F(n+1))) onto the canonical model by squares.

    Optional integer seeds (p, q) additionally certify the threshold for
    the seeded quaternions H(n; p, q); seeds (0, 0) have a vanishing seeded
    discriminant and are rejected.
    """
    if (p is None) != (q is None):
        raise ValueError("seeds p and q must be given together")
    profile = growth_profile(params)
    discriminant = profile.discriminant
    sign = discriminant.sign()
    if sign == 0:
        raise IndeterminateError(
            f"growth discriminant is zero for {params.label()}; no class is defined"
        )
    certificate = _threshold(params, profile)
    seeds = seeded_discriminant = seeded_certificate = None
    if p is not None:
        seeds = (p, q)
        seeded_discriminant = _seeded_discriminant(profile, p, q)
        seeded_certificate = _seeded_threshold(params, profile, p, q)
    basepoint = certificate.n_prime
    form = fibonacci_form(basepoint, params)
    clifford_class = rank2_class(form)
    if (clifford_class is CliffordClass.DIVISION) != (sign < 0):
        raise AssertionError("form-entry route and discriminant route disagree")
    model_params, _ = quaternion_isomorphism(form)
    canonical = "H(1,1)" if clifford_class is CliffordClass.DIVISION else "H(-1,-1)"
    return ClassificationReport(
        params=params,
        discriminant=discriminant,
        discriminant_sign=sign,
        input_is_division=is_division_algebra(params),
        certificate=certificate,
        basepoint=basepoint,
        form=form,
        clifford_class=clifford_class,
        canonical=canonical,
        scaling_witness=(abs(form[0]), abs(form[1])),
        quaternion_model=model_params,
        seeds=seeds,
        seeded_discriminant=seeded_discriminant,
        seeded_certificate=seeded_certificate,
    )
