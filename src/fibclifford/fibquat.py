"""Fibonacci and Horadam quaternions, growth discriminants, certified
invertibility thresholds, and the rank-2 coordinate space they span.

The n-th Fibonacci quaternion F(n) has coefficients (f(n), ..., f(n+3)).
Its norm obeys an exact closed form

    n(F(m)) = (S+ * alpha^(2m) + S- * beta^(2m) - 2*(-1)^m * S0) / 5

where S+ = 1 + b1*a^2 + b2*a^4 + b1*b2*a^6 evaluated at the golden ratio,
S- is the same expression at the conjugate, and S0 = 1 - b1 + b2 - b1*b2.
Since |beta| < 1, the S+ term eventually dominates, so the norm signs
stabilize at sign(S+).  The discriminant E = S+/5 decides everything; this
module computes it exactly and certifies the minimal index from which the
norm sign never changes again, by an explicit domination horizon rather
than a limit argument.

Certification runs on Python integers.  The horizon search clears the
denominators of both sides once and then works in Z[sqrt 5], where one step
multiplies the growing side by 3 + sqrt 5 and the bounded side by 2 (that
is, by alpha^2 = (3 + sqrt 5)/2), and the sign of x + y*sqrt 5 comes from
comparing x^2 with 5*y^2.  The direct checks below the horizon walk the
coefficient window of F(m) or H(m; p, q) by the integer recurrence and take
the sign of d1*d2*n(.) for beta_i = n_i/d_i, an integer of the same sign as
the norm.  The closed forms stay public as the paper's identities; the test
suite checks them against the direct norms.

Horadam quaternions H(n; p, q) carry coefficients (h(n), ..., h(n+3)) of the
seeded sequence h(0) = p, h(1) = q.  For n >= 1 this equals
p*F(n-1) + q*F(n); the coordinate space at basepoint n uses the basis
{F(n), F(n+1)}, so a coordinate vector (x1, x2) at basepoint n corresponds
to the Horadam quaternion H(n+1; x1, x2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BelowThresholdError, IndeterminateError
from .exactnum import ALPHA, BETA, QSqrt5, Rat
from .fib import HoradamParams, fib, fib_pair, horadam
from .quat import AlgebraParams, Quaternion


@dataclass(frozen=True, slots=True)
class GrowthProfile:
    """The exact constants steering the norm sequence of F(n).

    ``dominant`` multiplies the growing alpha^(2n) term, ``conjugate`` the
    decaying one, ``oscillating`` the bounded (-1)^n term; ``discriminant``
    is dominant/5, the quantity whose sign classifies the algebra.
    """

    dominant: QSqrt5
    conjugate: QSqrt5
    oscillating: QSqrt5
    discriminant: QSqrt5

    def to_json(self) -> dict:
        return {
            "dominant": self.dominant.to_json(),
            "conjugate": self.conjugate.to_json(),
            "oscillating": self.oscillating.to_json(),
            "discriminant": self.discriminant.to_json(),
        }


@dataclass(frozen=True, slots=True)
class ThresholdCertificate:
    """Certified minimal index from which norm signs stay equal to limit_sign.

    ``horizon`` satisfies the domination inequality guaranteeing no sign
    change past it, and every index in [0, horizon] was checked by direct
    evaluation: the integer d1*d2*n(.), with denominators cleared, along the
    coefficient window advanced by the integer recurrence.  Minimality means
    n_prime = 0 or the sign at n_prime - 1 differs (possibly zero).
    """

    n_prime: int
    horizon: int
    limit_sign: int

    def to_json(self) -> dict:
        return {
            "n_prime": self.n_prime,
            "horizon": self.horizon,
            "limit_sign": self.limit_sign,
        }


@dataclass(frozen=True, slots=True)
class FibSpaceVector:
    """Coordinates (x1, x2) in the basis {F(n), F(n+1)} at basepoint n."""

    n: int
    x1: Fraction
    x2: Fraction

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"basepoint must be nonnegative, got {self.n}")
        object.__setattr__(self, "x1", Fraction(self.x1))
        object.__setattr__(self, "x2", Fraction(self.x2))

    def _require_same_basepoint(self, other: FibSpaceVector) -> None:
        if self.n != other.n:
            raise ValueError(
                f"basepoints differ: {self.n} != {other.n}; vectors are not composable"
            )

    def __add__(self, other: FibSpaceVector) -> FibSpaceVector:
        if not isinstance(other, FibSpaceVector):
            return NotImplemented
        self._require_same_basepoint(other)
        return FibSpaceVector(self.n, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: FibSpaceVector) -> FibSpaceVector:
        if not isinstance(other, FibSpaceVector):
            return NotImplemented
        self._require_same_basepoint(other)
        return FibSpaceVector(self.n, self.x1 - other.x1, self.x2 - other.x2)

    def __rmul__(self, scalar: Rat | int) -> FibSpaceVector:
        if isinstance(scalar, (int, Fraction)):
            return FibSpaceVector(self.n, self.x1 * scalar, self.x2 * scalar)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.x1 == 0 and self.x2 == 0

    def to_quaternion(self, params: AlgebraParams) -> Quaternion:
        """x1*F(n) + x2*F(n+1); linear and injective in (x1, x2)."""
        return (
            fibonacci_quaternion(self.n, params) * self.x1
            + fibonacci_quaternion(self.n + 1, params) * self.x2
        )


def fibonacci_quaternion(n: int, params: AlgebraParams) -> Quaternion:
    """F(n) with coefficients (f(n), f(n+1), f(n+2), f(n+3))."""
    a, b = fib_pair(n)
    return Quaternion(params, a, b, a + b, a + 2 * b)


def horadam_quaternion(n: int, p: int, q: int, params: AlgebraParams) -> Quaternion:
    """H(n; p, q) with coefficients (h(n), ..., h(n+3)), h seeded by (p, q).

    Both routes are computed: the Horadam coefficients directly, and the
    Fibonacci-quaternion combination p*F(n-1) + q*F(n) (seed values where
    the index calls for f(-1)); any disagreement would be a build-stopping
    internal error.
    """
    seeds = HoradamParams(p, q)
    coeffs = tuple(horadam(n + j, seeds) for j in range(4))
    for j, value in enumerate(coeffs):
        k = n + j
        expected = p if k == 0 else p * fib(k - 1) + q * fib(k)
        if value != expected:
            raise AssertionError(
                f"Horadam coefficient routes disagree at index {k}: "
                f"{value} != {expected}"
            )
    return Quaternion(params, *coeffs)


def growth_profile(params: AlgebraParams) -> GrowthProfile:
    """All growth constants for H(beta1, beta2), computed by two routes.

    The dominant constant is evaluated both as the polynomial
    1 + b1*a^2 + b2*a^4 + b1*b2*a^6 at the golden ratio and in the expanded
    form (1 + b1 + 2 b2 + 5 b1 b2) + (b1 + 3 b2 + 8 b1 b2)*alpha; both must
    agree exactly.
    """
    b1, b2 = params.beta1, params.beta2
    dominant = _weighted_even_powers(b1, b2, ALPHA)
    u = 1 + b1 + 2 * b2 + 5 * b1 * b2
    v = b1 + 3 * b2 + 8 * b1 * b2
    expanded = QSqrt5(u + v / 2, v / 2)
    if dominant != expanded:
        raise AssertionError("growth constant routes disagree")
    conjugate = _weighted_even_powers(b1, b2, BETA)
    oscillating = QSqrt5.from_rat(1 - b1 + b2 - b1 * b2)
    return GrowthProfile(dominant, conjugate, oscillating, dominant / 5)


def _weighted_even_powers(b1: Fraction, b2: Fraction, x: QSqrt5) -> QSqrt5:
    x2 = x * x
    x4 = x2 * x2
    return 1 + x2 * b1 + x4 * b2 + x4 * x2 * (b1 * b2)


def growth_discriminant(params: AlgebraParams) -> QSqrt5:
    """E(beta1, beta2): the exact constant whose sign drives classification.

    For (-2, -3) and (2, -3) the exact values are (23 + 37*alpha)/5 and
    (-33 - 55*alpha)/5.  Alpha coefficients 43 and -44 are sometimes quoted
    for these two cases; they do not satisfy the defining formula, whose
    values this function returns (the signs, which carry all structural
    weight, agree either way).
    """
    return growth_profile(params).discriminant


def horadam_growth_discriminant(params: AlgebraParams, p: int, q: int) -> QSqrt5:
    """Seeded discriminant (p + q*alpha)^2 * E / 5; zero only for p = q = 0."""
    return _seeded_discriminant(growth_profile(params), p, q)


def _seeded_discriminant(profile: GrowthProfile, p: int, q: int) -> QSqrt5:
    HoradamParams(p, q)
    a = ALPHA * q + p
    return a * a * profile.discriminant / 5


def norm_closed_form(n: int, params: AlgebraParams) -> Rat:
    """norm(F(n)) via the exact closed form; always a plain rational."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    profile = growth_profile(params)
    osc_coeff = -2 if n % 2 == 0 else 2
    value = (
        profile.dominant * (ALPHA ** (2 * n))
        + profile.conjugate * (BETA ** (2 * n))
        + profile.oscillating * osc_coeff
    ) / 5
    return value.as_rat()


def horadam_norm_closed_form(n: int, params: AlgebraParams, p: int, q: int) -> Rat:
    """norm(H(n; p, q)) via the closed form in (p + q*alpha), (p + q*beta)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    HoradamParams(p, q)
    profile = growth_profile(params)
    a = ALPHA * q + p
    b = BETA * q + p
    cross = Fraction(p * p + p * q - q * q)
    osc_coeff = (2 if n % 2 == 0 else -2) * cross
    value = (
        a * a * profile.dominant * (ALPHA ** (2 * n - 2))
        + b * b * profile.conjugate * (BETA ** (2 * n - 2))
        + profile.oscillating * osc_coeff
    ) / 5
    return value.as_rat()


def _sign_z5(x: int, y: int) -> int:
    """Sign of x + y*sqrt(5) for integers x, y."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    return sx if x * x > 5 * y * y else -sx


def _certify(
    params: AlgebraParams,
    seeds: tuple[int, int],
    limit_sign: int,
    growth_abs: QSqrt5,
    bounded_abs: QSqrt5,
) -> ThresholdCertificate:
    # horizon: least N with growth_abs * alpha^(2N) > bounded_abs; past it the
    # growing term dominates every bounded one, freezing the sign.  Scaled by
    # the common denominator den and by 2^N, the N-th comparison is
    # gx + gy*sqrt5 > bx + by*sqrt5 with gx + gy*sqrt5 = den*growth_abs*(3+sqrt5)^N
    # and bx + by*sqrt5 = den*bounded_abs*2^N.
    den = lcm(
        growth_abs.a.denominator,
        growth_abs.b.denominator,
        bounded_abs.a.denominator,
        bounded_abs.b.denominator,
    )
    gx, gy, bx, by = (
        r.numerator * (den // r.denominator)
        for r in (growth_abs.a, growth_abs.b, bounded_abs.a, bounded_abs.b)
    )
    horizon = 0
    while _sign_z5(gx - bx, gy - by) <= 0:
        horizon += 1
        gx, gy = 3 * gx + 5 * gy, gx + 3 * gy
        bx, by = 2 * bx, 2 * by
    # direct checks: d1*d2*n(H(m)) over the window (h(m), ..., h(m+3)) of the
    # sequence seeded by (p, q), advanced by h(k+4) = h(k+2) + h(k+3)
    n1, d1 = params.beta1.numerator, params.beta1.denominator
    n2, d2 = params.beta2.numerator, params.beta2.denominator
    c0, c1, c2, c3 = d1 * d2, n1 * d2, n2 * d1, n1 * n2
    p, q = seeds
    h0, h1, h2, h3 = p, q, p + q, p + 2 * q
    n_prime = 0
    for m in range(horizon + 1):
        value = c0 * h0 * h0 + c1 * h1 * h1 + c2 * h2 * h2 + c3 * h3 * h3
        if value * limit_sign <= 0:
            n_prime = m + 1
        h0, h1, h2, h3 = h1, h2, h3, h2 + h3
    return ThresholdCertificate(n_prime, horizon, limit_sign)


def invertibility_threshold(params: AlgebraParams) -> ThresholdCertificate:
    """Certified minimal n' with sign(norm(F(m))) = sign(E) for all m >= n'.

    The horizon N satisfies |S+| * alpha^(2N) > |S-| + 2|S0|, which bounds
    the decaying and oscillating terms for every m >= N (|beta^(2m)| <= 1);
    indices up to the horizon are then checked one by one.
    """
    return _threshold(params, growth_profile(params))


def _threshold(params: AlgebraParams, profile: GrowthProfile) -> ThresholdCertificate:
    limit_sign = profile.discriminant.sign()
    if limit_sign == 0:
        raise IndeterminateError(
            f"growth discriminant is zero for {params.label()}; "
            "no stable norm sign exists"
        )
    bound = abs(profile.conjugate) + abs(profile.oscillating) * 2
    return _certify(params, (0, 1), limit_sign, abs(profile.dominant), bound)


def horadam_invertibility_threshold(
    params: AlgebraParams, p: int, q: int
) -> ThresholdCertificate:
    """Like :func:`invertibility_threshold` for the norms of H(n; p, q).

    Here the bounded terms satisfy |beta^(2m-2)| <= alpha^2 for m >= 0, so
    the horizon inequality reads
    |A^2 S+| * alpha^(2N-2) > |B^2 S-| * alpha^2 + 2|AB * S0| with
    A = p + q*alpha, B = p + q*beta.
    """
    return _seeded_threshold(params, growth_profile(params), p, q)


def _seeded_threshold(
    params: AlgebraParams, profile: GrowthProfile, p: int, q: int
) -> ThresholdCertificate:
    limit_sign = _seeded_discriminant(profile, p, q).sign()
    if limit_sign == 0:
        raise IndeterminateError(
            f"seeded growth discriminant is zero for {params.label()} "
            f"with seeds (p, q) = ({p}, {q})"
        )
    alpha_sq = ALPHA * ALPHA
    a = ALPHA * q + p
    b = BETA * q + p
    cross = Fraction(p * p + p * q - q * q)
    growth_abs = abs(a * a * profile.dominant) / alpha_sq
    bound = abs(b * b * profile.conjugate) * alpha_sq + abs(
        profile.oscillating * cross
    ) * 2
    return _certify(params, (p, q), limit_sign, growth_abs, bound)


def _basis_norms(n: int, params: AlgebraParams) -> tuple[Fraction, Fraction]:
    return (
        fibonacci_quaternion(n, params).norm(),
        fibonacci_quaternion(n + 1, params).norm(),
    )


def inner_product(
    z: FibSpaceVector, w: FibSpaceVector, params: AlgebraParams
) -> Rat:
    """sign(E) * (x1*y1*n(F(n)) + x2*y2*n(F(n+1))); positive definite.

    Requires the common basepoint to sit at or above the certified
    threshold, where both basis norms carry the stable sign; multiplying by
    that sign makes the diagonal form positive definite in both cases.
    """
    z._require_same_basepoint(w)
    certificate = invertibility_threshold(params)
    if z.n < certificate.n_prime:
        raise BelowThresholdError(
            f"basepoint n={z.n} is below the certified threshold "
            f"n'={certificate.n_prime} for {params.label()}"
        )
    n0, n1 = _basis_norms(z.n, params)
    return certificate.limit_sign * (z.x1 * w.x1 * n0 + z.x2 * w.x2 * n1)


def quadratic_form(z: FibSpaceVector, params: AlgebraParams) -> Rat:
    """n(F(n))*x1^2 + n(F(n+1))*x2^2, with no sign adjustment."""
    n0, n1 = _basis_norms(z.n, params)
    return n0 * z.x1 * z.x1 + n1 * z.x2 * z.x2


def bilinear_form(
    x: FibSpaceVector, y: FibSpaceVector, params: AlgebraParams
) -> Rat:
    """Polarization of the quadratic form; equals the diagonal formula.

    Both routes are evaluated and compared before returning.
    """
    x._require_same_basepoint(y)
    n0, n1 = _basis_norms(x.n, params)
    diagonal = n0 * x.x1 * y.x1 + n1 * x.x2 * y.x2
    polarized = (
        quadratic_form(x + y, params)
        - quadratic_form(x, params)
        - quadratic_form(y, params)
    ) / 2
    if polarized != diagonal:
        raise AssertionError("polarization and diagonal routes disagree")
    return diagonal


def gram_matrix(
    n: int, params: AlgebraParams
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """diag(n(F(n)), n(F(n+1))) as a 2x2 matrix of rationals."""
    n0, n1 = _basis_norms(n, params)
    zero = Fraction(0)
    return ((n0, zero), (zero, n1))
