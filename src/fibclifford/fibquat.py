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

Certification runs on Python integers, on one route: the threshold of F(n)
is the seeded threshold of H(n; p, q) at (p, q) = (0, 1).  With
beta_i = n_i/d_i, the growth constants scaled by d1*d2 are integers in
Z[sqrt 5], and the horizon inequality scaled by the fixed factor 16*d1*d2
compares two elements of Z[sqrt 5]; one step multiplies the growing side
by 3 + sqrt 5 and the bounded side by 2 (that is, by
alpha^2 = (3 + sqrt 5)/2), and the sign of x + y*sqrt 5 comes from
comparing x^2 with 5*y^2.  That comparison is monotone in the step count,
so the horizon is found by an unbounded search over the squares
(3 + sqrt 5)^(2^k), in O(log N) products.  Below the horizon the signs of
v(m) = d1*d2*n(H(m; p, q)), an integer of the same sign as the norm, are
settled by two proofs on the norm's shape, a cosh (or sinh) in m plus a
bounded alternating term (see :func:`_certify`).  If N(S+) > S0^2, AM-GM
puts every norm on the side of the limit, so n' = 0 and nothing is walked.
Otherwise v is walked by v(m+3) = 2v(m+2) + 2v(m+1) - v(m), three values
from the seeds and the next four terms and then three additions per index,
until v(m) > 0, v(m+1) > 0 and v(m+2) >= v(m), which proves every later
index has the limit sign, or at most to the horizon.  E is never zero for
rational beta_i (see :func:`_certify`).  The closed forms stay public as
the paper's identities; the test suite checks them against the direct
norms.

The other quantities are read off the same integers: E and the seeded
discriminant E' = (p + q*alpha)^2 * E / 5 divide the growth integers and
the certificate's limit element by 10*d1*d2 and 200*d1*d2, and the basis
norms n(F(n)), n(F(n+1)) of the coordinate space divide the direct check's
integer d1*d2*n(.) by d1*d2.  ``classify`` evaluates the growth integers
once and hands them to both certificates, evaluates the seeded pair
(:func:`_seeded_growth`) once for E' and the seeded certificate, and reads
its form at n' off the two integers d1*d2*n(.) that the plain certificate
hands back.

Seeds are checked once, at the public entry points that take them
(``horadam_invertibility_threshold``, ``horadam_growth_discriminant``,
``horadam_quaternion``, ``horadam_norm_closed_form`` and ``classify``),
by ``fib._check_seeds``: every seed that is not an ``int``, or is a
``bool``, raises ``TypeError`` there, before any arithmetic on it.  The
private helpers below take checked seeds and the package's own integers
as they are.  Every ``QSqrt5`` here is built from its integers x, y and
den by the trusted ``exactnum._qsqrt5``, which brings them to lowest
terms by one gcd, and the certificates and growth profiles by
``exactnum._builder``'s constructors, which run no checks.

Horadam quaternions H(n; p, q) carry coefficients (h(n), ..., h(n+3)) of the
seeded sequence h(0) = p, h(1) = q, read off ``fib._window`` like every
seeded window here.  For n >= 0 it is p*F(n-1) + q*F(n), F(-1) = (1, 0, 1, 1);
the coordinate space at basepoint n uses the basis {F(n), F(n+1)}, so a
coordinate vector (x1, x2) at basepoint n is H(n+1; x1, x2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BelowThresholdError, IndeterminateError
from .exactnum import ALPHA, QSqrt5, Rat, _builder, _qsqrt5, _sign_z5, _to_rat
from .fib import _check_seeds, _window
from .quat import AlgebraParams, Quaternion, _norm_coefficients


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


_profile = _builder(GrowthProfile)


@dataclass(frozen=True, slots=True)
class ThresholdCertificate:
    """Certified minimal index from which norm signs stay equal to limit_sign.

    ``horizon`` is the least index satisfying the domination inequality that
    guarantees no sign change past it.  Below it the signs are proved, not
    all evaluated: n_prime = 0 with no index evaluated when N(S+) > S0^2
    (AM-GM), and otherwise the integer d1*d2*n(.), with denominators
    cleared, is walked by its own three-term integer recurrence from index 0
    until the stop rule proves that every later index has the limit sign,
    and at most to the horizon (see ``_certify``).  Minimality means
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


_certificate = _builder(ThresholdCertificate)


@dataclass(frozen=True, slots=True)
class FibSpaceVector:
    """Coordinates (x1, x2) in the basis {F(n), F(n+1)} at basepoint n."""

    n: int
    x1: Fraction
    x2: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.n, int):
            raise TypeError(f"basepoint must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"basepoint must be nonnegative, got {self.n}")
        object.__setattr__(self, "x1", _to_rat(self.x1))
        object.__setattr__(self, "x2", _to_rat(self.x2))

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
        """x1*F(n) + x2*F(n+1) = H(n+1; x1, x2); linear and injective in (x1, x2)."""
        return Quaternion(params, *_window(self.n + 1, self.x1, self.x2)[:4])


def fibonacci_quaternion(n: int, params: AlgebraParams) -> Quaternion:
    """F(n) with coefficients (f(n), f(n+1), f(n+2), f(n+3))."""
    return Quaternion(params, *_window(n, 0, 1)[:4])


def horadam_quaternion(n: int, p: int, q: int, params: AlgebraParams) -> Quaternion:
    """H(n; p, q) with coefficients (h(n), ..., h(n+3)), h seeded by (p, q).

    For every n >= 0 this is p*F(n-1) + q*F(n), from one ``fib._window``;
    the test suite checks that identity, for small n and for n >= 1000.
    """
    _check_seeds(p, q)
    return Quaternion(params, *_window(n, p, q)[:4])


# (c, x, y, z) of :func:`_growth_integers`
_Growth = tuple[tuple[int, int, int, int], int, int, int]


def _growth_integers(params: AlgebraParams) -> _Growth:
    """Integer growth constants for beta_i = n_i/d_i: the norm-form
    coefficients c of :func:`_norm_coefficients`, and x, y, z with
    2*d1*d2*S+ = x + y*sqrt 5 and d1*d2*S0 = z.

    S+ = u + v*alpha with u = 1 + b1 + 2 b2 + 5 b1 b2, v = b1 + 3 b2 + 8 b1 b2,
    so x = 2c0 + 3c1 + 7c2 + 18c3 and y = c1 + 3c2 + 8c3; S- is the Galois
    conjugate x - y*sqrt 5 on the same scale.  Every constant is linear in c,
    hence bilinear in (b1, b2) after dividing by d1*d2; the test suite proves
    each equal to its defining polynomial for every (b1, b2).
    """
    c = c0, c1, c2, c3 = _norm_coefficients(params)
    u = c0 + c1 + 2 * c2 + 5 * c3
    v = c1 + 3 * c2 + 8 * c3
    return c, 2 * u + v, v, c0 - c1 + c2 - c3


def _discriminant(growth: _Growth) -> QSqrt5:
    """E = S+/5 = (x + y*sqrt 5)/(10*d1*d2) from :func:`_growth_integers`."""
    c, x, y, _ = growth
    return _qsqrt5(x, y, 10 * c[0])


def _seeded_growth(growth: _Growth, p: int, q: int) -> tuple[int, int]:
    """(gx, gy) with gx + gy*sqrt 5 = (2A)^2 * (2 d1 d2 S+), A = p + q*alpha.

    This is 200*d1*d2 times the seeded discriminant E' = A^2 * E / 5, so
    its sign is the limit sign of :func:`_certify`.  The seeds must be
    integers; the public entry points check them.
    """
    _, x, y, _ = growth
    # 2A = (2p + q) + q*sqrt5
    a, b = 2 * p + q, q
    ax, ay = a * a + 5 * b * b, 2 * a * b
    return ax * x + 5 * ay * y, ax * y + ay * x


def _e_prime(growth: _Growth, pair: tuple[int, int]) -> QSqrt5:
    """E' = (gx + gy*sqrt 5)/(200*d1*d2) for the pair (gx, gy) of
    :func:`_seeded_growth`."""
    gx, gy = pair
    return _qsqrt5(gx, gy, 200 * growth[0][0])


def growth_profile(params: AlgebraParams) -> GrowthProfile:
    """All growth constants for H(beta1, beta2), read off the integers of
    :func:`_growth_integers` (S+ = 1 + b1*a^2 + b2*a^4 + b1*b2*a^6 at the
    golden ratio a, S- at its conjugate, S0 = 1 - b1 + b2 - b1*b2)."""
    growth = c, x, y, z = _growth_integers(params)
    dominant = _qsqrt5(x, y, 2 * c[0])
    return _profile(dominant, dominant.conjugate(), _qsqrt5(z, 0, c[0]), _discriminant(growth))


def growth_discriminant(params: AlgebraParams) -> QSqrt5:
    """E(beta1, beta2): the exact constant whose sign drives classification.

    For (-2, -3) and (2, -3) the exact values are (23 + 37*alpha)/5 and
    (-33 - 55*alpha)/5.  Alpha coefficients 43 and -44 are sometimes quoted
    for these two cases; they do not satisfy the defining formula, whose
    values this function returns (the signs, which carry all structural
    weight, agree either way).
    """
    return _discriminant(_growth_integers(params))


def horadam_growth_discriminant(params: AlgebraParams, p: int, q: int) -> QSqrt5:
    """Seeded discriminant (p + q*alpha)^2 * E / 5; zero only for p = q = 0."""
    _check_seeds(p, q)
    growth = _growth_integers(params)
    return _e_prime(growth, _seeded_growth(growth, p, q))


def norm_closed_form(n: int, params: AlgebraParams) -> Rat:
    """norm(F(n)) via the exact closed form; always a plain rational.

    F(n) = H(n; 0, 1), and the seeded closed form at (p, q) = (0, 1) is the
    one in the module docstring.
    """
    return horadam_norm_closed_form(n, params, 0, 1)


def horadam_norm_closed_form(n: int, params: AlgebraParams, p: int, q: int) -> Rat:
    """norm(H(n; p, q)) via the closed form in (p + q*alpha), (p + q*beta):
    the beta term is the Galois conjugate of the alpha term t, so the two sum
    to twice the rational part of t."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    _check_seeds(p, q)
    profile = growth_profile(params)
    a = ALPHA * q + p
    t = a * a * profile.dominant * ALPHA ** (2 * n - 2)
    cross = Fraction(p * p + p * q - q * q)
    osc_coeff = (2 if n % 2 == 0 else -2) * cross
    return (2 * t.a + profile.oscillating.as_rat() * osc_coeff) / 5


def _certify(
    params: AlgebraParams, growth: _Growth, p: int, q: int, pair: tuple[int, int] | None = None
) -> tuple[ThresholdCertificate, tuple[int, int]]:
    """Certified minimal threshold for the norms of H(n; p, q); seeds (0, 1)
    give F(n) itself.  Pure integer arithmetic throughout, on the integers
    ``growth`` of :func:`_growth_integers` for ``params`` and the pair
    (gx, gy) of :func:`_seeded_growth` for the checked integer seeds, which
    it evaluates unless the caller already has it.  Also returns
    (|v(n')|, |v(n'+1)|) = d1*d2*(|n(H(n'))|, |n(H(n'+1))|); both norms are
    nonzero and of the limit sign.

    With A = p + q*alpha, B = p + q*beta, cross = p^2 + pq - q^2 and
    |beta^(2m-2)| <= alpha^2 for m >= 0, the sign of n(H(m)) is frozen from
    the least N with

        |A^2 S+| * alpha^(2N-2) > |B^2 S-| * alpha^2 + 2|S0 * cross|,

    checked in Z[sqrt 5] after scaling by 16*d1*d2: the growing side is
    |(2A)^2 * (2 d1 d2 S+) * (3 - sqrt 5)|, the bounded side
    |(2B)^2 * (2 d1 d2 S-) * (3 + sqrt 5)| + 32|d1 d2 S0 * cross|, and each
    step multiplies the first by 3 + sqrt 5 and the second by 2.  At (0, 1),
    A = alpha and B = beta, so (alpha*beta)^2 = 1 and cross = -1: the bound
    is exactly |S+| * alpha^(2N) > |S-| + 2|S0|.

    The ratio of the two sides grows by alpha^2 per step, so the inequality,
    once true, stays true, and N is found by the unbounded search of Bentley
    and Yao after the test at N = 0: the squares (3 + sqrt 5)^(2^k) gallop
    over the failing indices 2^k - 1 until a jump of 2^k passes, and the
    largest failing index is then lifted from the top bit down, the bounded
    side moving by a shift.  That is O(log N) products of integers the size
    of the growing side at N.

    N is at most ``bits``: the bit lengths of the largest coordinates of the
    bounded side B and of the growing side G at index 0, plus 4.  G times
    its conjugate is a nonzero integer, so |G| >= 1/|conj G|, and B/G is
    below |B| * |conj G| < 2^bits, since x + y*sqrt 5 is below 2^(L+2) when
    |x| and |y| have at most L bits.  Each index multiplies G/B by
    alpha^2 > 2, so index ``bits`` passes.  Hence every failing index is
    below ``bits`` and the jump 2^k never exceeds it; a gallop past
    k = bits.bit_length() can only come from a faulty sign test, and raises
    instead of running on.

    Below N the signs of v(m) = L*d1*d2*n(H(m)), L the limit sign, follow
    from the norm's shape.  With beta^2 = alpha^-2 the closed form reads

        5*v(m)/(d1*d2) = P*alpha^(2m) + Q*alpha^(-2m) + (-1)^m * R,

    P = L*A^2*S+*alpha^-2 > 0, Q = L*B^2*S-*alpha^2, R = 2L*S0*cross, and
    P*Q = cross^2 * N(S+) with N(S+) = S+ * S-.  For m = 2j + r that is
    P_r*a^j + Q_r*a^-j + R_r with a = alpha^4: for N(S+) > 0 a cosh in m,
    for N(S+) < 0 a sinh, centred at one m* for both parities, plus a
    bounded term of alternating sign.  Two rules follow.

    AM-GM: if N(S+) > S0^2, then Q > 0 and
    P*alpha^(2m) + Q*alpha^(-2m) >= 2*sqrt(P*Q) = 2|cross|*sqrt(N(S+)) > |R|,
    as cross != 0 for seeds other than (0, 0) (x^2 + x - 1 has no rational
    root).  So every norm has the limit sign, n' = 0, and v(0), v(1) are
    the norms returned, with no walk.  On the growth integers the test is
    x^2 - 5y^2 > 4z^2, both sides being 4*(d1*d2)^2 times N(S+) and S0^2.
    The inequality must be strict: H(-1/2, -1/2) has N(S+) = S0^2 and
    n(F(0)) = 0.

    Stop rule: D(m) = v(m+2) - v(m) drops the alternating term, and
    5*D(m)/(d1*d2) = (alpha^4 - 1)*(P*alpha^(2m) - Q*alpha^(-2m-4)), which
    increases with m if Q > 0 and is positive everywhere if Q <= 0.  So
    D(m) >= 0 gives D(m') >= 0 for every m' >= m, of both parities, and an
    index m with v(m) > 0, v(m+1) > 0 and v(m+2) >= v(m) has every index
    from m on of the limit sign.

    The walk takes v(m) from index 0 until that rule holds, and at most to
    N, where the domination inequality takes over.  Each h(m)^2 lies in
    the span of alpha^(2m), beta^(2m) and (-1)^m, powers of the roots of
    (x^2 - 3x + 1)(x + 1) = x^3 - 2x^2 - 2x + 1, and so does v(m), a fixed
    combination of four shifts of h^2; hence
    v(m+3) = 2v(m+2) + 2v(m+1) - v(m).  v(0), v(1) and v(2) come from
    (h(0), ..., h(5)): the seeds h(0) = p, h(1) = q and four additions, with
    no doubling pass for index 0.  Each further index costs three additions.
    The walk keeps v(n') and v(n'+1) each time it moves n'.  Next to the
    zero of E the stop comes at n', about N/2, on the side where S+ < 0;
    on the other side N(S+) > S0^2 = 0 when b1 = 1, and nothing is walked.

    The limit sign is sign(A^2 S+).  S+ = u + v*alpha with rational u, v
    vanishes only if u = v = 0, which forces b2^2 + 7*b2 + 1 = 0, a
    quadratic with no rational root; so only seeds (0, 0), where A = 0,
    reach the zero check.
    """
    gx, gy = pair or _seeded_growth(growth, p, q)
    limit_sign = _sign_z5(gx, gy)
    if limit_sign == 0:
        raise IndeterminateError(
            f"seeded growth discriminant is zero for {params.label()} "
            f"with seeds (p, q) = ({p}, {q})"
        )
    # the conjugate gx - gy*sqrt5 is (2B)^2 * (2 d1 d2 S-), the B side
    bounded_sign = _sign_z5(gx, -gy)
    (c0, c1, c2, c3), x, y, z = growth
    # N(S+) > S0^2 on the scale 4*(d1*d2)^2: every norm has the limit sign (AM-GM)
    settled = x * x - 5 * y * y > 4 * z * z
    cross = p * p + p * q - q * q
    # times 3 - sqrt5 on the growing side and 3 + sqrt5 on the bounded side
    gx, gy, bx, by = (
        limit_sign * (3 * gx - 5 * gy),
        limit_sign * (3 * gy - gx),
        bounded_sign * (3 * gx - 5 * gy) + 32 * abs(z * cross),
        bounded_sign * (gx - 3 * gy),
    )
    horizon = 0
    if _sign_z5(gx - bx, gy - by) <= 0:
        # N <= bits (see the docstring), so no jump 2^k with k > top is ever needed
        bits = max(bx.bit_length(), by.bit_length()) + max(gx.bit_length(), gy.bit_length()) + 4
        top = bits.bit_length()
        # n is the largest index known to fail, (gx, gy) the growing side at n,
        # and each step tries the index m = n + 2^k
        n, k, powers = 0, 0, [(3, 1)]  # powers[k] = (3 + sqrt5)^(2^k)
        while k >= 0:
            px, py = powers[k]
            x, y, m = gx * px + 5 * gy * py, gx * py + gy * px, n + (1 << k)
            if _sign_z5(x - (bx << m), y - (by << m)) > 0:
                k -= 1  # m passes: halve the jump
            elif k + 1 < len(powers):
                n, gx, gy, k = m, x, y, k - 1  # lifting: keep m, halve the jump
            else:
                n, gx, gy, k = m, x, y, k + 1  # galloping: keep m, double the jump
                if k > top:
                    raise AssertionError(f"horizon search passed its bound of {bits} indices")
                powers.append((px * px + 5 * py * py, 2 * px * py))
        horizon = n + 1
    # v(m) = d1*d2*n(H(m)), signed so that the limit is positive, from the
    # terms (h(0), ..., h(5)) of the sequence seeded by h(0) = p and h(1) = q,
    # and then by v(m+3) = 2v(m+2) + 2v(m+1) - v(m)
    h2 = p + q
    h3 = q + h2
    h4 = h2 + h3
    h5 = h3 + h4
    s0, s1, s2, s3, s4, s5 = p * p, q * q, h2 * h2, h3 * h3, h4 * h4, h5 * h5
    v0 = c0 * s0 + c1 * s1 + c2 * s2 + c3 * s3
    v1 = c0 * s1 + c1 * s2 + c2 * s3 + c3 * s4
    v2 = c0 * s2 + c1 * s3 + c2 * s4 + c3 * s5
    if limit_sign < 0:
        v0, v1, v2 = -v0, -v1, -v2
    n_prime, norms = 0, (v0, v1)
    if settled:
        return _certificate(0, horizon, limit_sign), norms
    for m in range(horizon + 1):
        if v0 <= 0:
            n_prime, norms = m + 1, (v1, v2)
        elif v1 > 0 and v2 >= v0:
            break  # the stop rule: every index from m on has the limit sign
        t = v1 + v2
        v0, v1, v2 = v1, v2, t + t - v0
    return _certificate(n_prime, horizon, limit_sign), norms


def invertibility_threshold(params: AlgebraParams) -> ThresholdCertificate:
    """Certified minimal n' with sign(norm(F(m))) = sign(E) for all m >= n'.

    F(n) = H(n; 0, 1), so this is the seeded certificate at (p, q) = (0, 1):
    the horizon N satisfies |S+| * alpha^(2N) > |S-| + 2|S0|, which bounds
    the decaying and oscillating terms for every m >= N (|beta^(2m)| <= 1);
    below it n' = 0 by AM-GM when N(S+) > S0^2, and otherwise the norms are
    walked from index 0 until a stop rule proves the rest (see
    :func:`_certify`).  E is never zero for rational parameters.
    """
    return _certify(params, _growth_integers(params), 0, 1)[0]


def horadam_invertibility_threshold(
    params: AlgebraParams, p: int, q: int
) -> ThresholdCertificate:
    """Like :func:`invertibility_threshold` for the norms of H(n; p, q).

    Here the bounded terms satisfy |beta^(2m-2)| <= alpha^2 for m >= 0, so
    the horizon inequality reads
    |A^2 S+| * alpha^(2N-2) > |B^2 S-| * alpha^2 + 2|AB * S0| with
    A = p + q*alpha, B = p + q*beta.  Seeds (0, 0) raise
    :class:`IndeterminateError`; all other seeds certify.
    """
    _check_seeds(p, q)
    return _certify(params, _growth_integers(params), p, q)[0]


def _basis_norms(n: int, params: AlgebraParams) -> tuple[Fraction, Fraction]:
    """(n(F(n)), n(F(n+1))) on integers: d1*d2*n(F(m)) is
    c0*f(m)^2 + c1*f(m+1)^2 + c2*f(m+2)^2 + c3*f(m+3)^2, the quantity whose
    sign :func:`_certify` checks, over the windows at m = n and m = n + 1
    (the five terms of one :func:`fib._window`), divided once by d1*d2 = c0."""
    c0, c1, c2, c3 = _norm_coefficients(params)
    s0, s1, s2, s3, s4 = (f * f for f in _window(n, 0, 1))
    return (
        Fraction(c0 * s0 + c1 * s1 + c2 * s2 + c3 * s3, c0),
        Fraction(c0 * s1 + c1 * s2 + c2 * s3 + c3 * s4, c0),
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
    return certificate.limit_sign * bilinear_form(z, w, params)


def quadratic_form(z: FibSpaceVector, params: AlgebraParams) -> Rat:
    """n(F(n))*x1^2 + n(F(n+1))*x2^2 = bilinear_form(z, z), with no sign adjustment."""
    return bilinear_form(z, z, params)


def bilinear_form(
    x: FibSpaceVector, y: FibSpaceVector, params: AlgebraParams
) -> Rat:
    """n(F(n))*x1*y1 + n(F(n+1))*x2*y2, the polarization of the quadratic
    form (the test suite checks that identity)."""
    x._require_same_basepoint(y)
    n0, n1 = _basis_norms(x.n, params)
    return n0 * x.x1 * y.x1 + n1 * x.x2 * y.x2


def gram_matrix(
    n: int, params: AlgebraParams
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """diag(n(F(n)), n(F(n+1))) as a 2x2 matrix of rationals."""
    n0, n1 = _basis_norms(n, params)
    zero = Fraction(0)
    return ((n0, zero), (zero, n1))
