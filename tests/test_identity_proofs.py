"""Proofs, for every input, of the identities the library no longer re-checks
per call, and fault injections showing that each proof catches a broken
implementation.

Each identity compares two expressions that, read off the code, are
polynomials of bounded degree in each input variable: the code applies
field operations only, and branches on the values only to reject zeros.
A polynomial of degree <= d in a variable that vanishes at d + 1 distinct
values of it is zero in that variable; applied one variable at a time,
vanishing on a tensor grid with d_k + 1 distinct values in variable k makes
it vanish everywhere.  So agreement on such a grid proves the identity for
all inputs, not just the sampled ones.
"""

from __future__ import annotations

import __future__
import inspect
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import test_fib
import test_fibquat
from fibclifford import clifford, fibquat, quat
from fibclifford.cli import run_selftest
from fibclifford.errors import DegenerateFormError
from fibclifford.exactnum import ALPHA, BETA, QSqrt5
from oracles import (
    apply_basis_map,
    blade_table_is_quaternion_table,
    fibonacci_form_reference,
    horadam_naive,
    quaternion_mul_reference,
    weighted_even_powers,
)
from test_classify_report import check_reports
from test_clifford import assert_product_matches_reference, seeded_dense_pair, small_dense_pair
from test_fibquat import (
    assert_certificates_match_the_full_walk,
    assert_form_matches_reference,
    assert_horizon_edges_match_reference,
    assert_search_steps_pinned,
    assert_seeded_discriminant_matches_reference,
    assert_walk_lengths_pinned,
)
from test_integer_form import check_integer_form
from test_quat import assert_witness_matches_reference

# ``fibclifford.fib`` as an attribute is the function ``fib``, not the module
fib_module = sys.modules["fibclifford.fib"]

PAIR_GRID = (Fraction(2), Fraction(-1, 3))
PAIR_GRID_2 = (Fraction(3), Fraction(-5, 2))
SCALE_X = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 2))
SCALE_Y = (Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-1, 4), Fraction(5))
SCALE_B1 = (Fraction(1), Fraction(-3, 2))
SCALE_B2 = (Fraction(-1), Fraction(2, 7))
SEED_P = (-2, 1, 3)
SEED_Q = (-1, 2, 5)


def prove_growth_profile() -> None:
    for b1 in PAIR_GRID:
        for b2 in PAIR_GRID_2:
            profile = fibquat.growth_profile(quat.AlgebraParams(b1, b2))
            assert profile.dominant == weighted_even_powers(b1, b2, ALPHA), (b1, b2)
            assert profile.conjugate == weighted_even_powers(b1, b2, BETA), (b1, b2)
            oscillating = QSqrt5.from_rat(1 - b1 + b2 - b1 * b2)
            assert profile.oscillating == oscillating, (b1, b2)


def prove_blade_table() -> None:
    for a in PAIR_GRID:
        for b in PAIR_GRID_2:
            form = clifford.DiagonalForm((a, b))
            assert clifford.quaternion_isomorphism(form) == quat.AlgebraParams(-a, -b)
            assert blade_table_is_quaternion_table(form), (a, b)


def prove_scaling() -> None:
    for b1 in SCALE_B1:
        for b2 in SCALE_B2:
            params = quat.AlgebraParams(b1, b2)
            basis = quat.Quaternion.basis(params)
            for x in SCALE_X:
                for y in SCALE_Y:
                    target, mapping = quat.scale_isomorphism(params, x, y)
                    image = partial(apply_basis_map, mapping)
                    assert image(basis[0]) == quat.Quaternion.one(target)
                    for u in basis:
                        for v in basis:
                            assert image(u * v) == image(u) * image(v), (b1, b2, x, y)


def prove_norm_recurrence() -> None:
    for b1 in PAIR_GRID:
        for b2 in PAIR_GRID_2:
            params = quat.AlgebraParams(b1, b2)
            for p in SEED_P:
                for q in SEED_Q:
                    v = [fibquat.horadam_quaternion(m, p, q, params).norm() for m in range(4)]
                    assert v[3] == 2 * v[2] + 2 * v[1] - v[0], (b1, b2, p, q)


def test_growth_profile_is_the_defining_polynomial_everywhere():
    """growth_profile's S+, S- and S0 equal 1 + b1*x^2 + b2*x^4 + b1*b2*x^6
    at x = alpha and x = beta, and 1 - b1 + b2 - b1*b2, for all b1, b2.

    growth_profile divides the integers of fibquat._growth_integers by
    multiples of d1*d2.  Those integers are fixed linear combinations of
    c = (d1*d2, n1*d2, n2*d1, n1*n2), and c/(d1*d2) = (1, b1, b2, b1*b2),
    so each constant is a polynomial in (b1, b2) with coefficients in
    Q(sqrt 5) of degree <= 1 in each, like the defining polynomials.  A 2x2
    grid of distinct nonzero values therefore proves each equality.
    """
    prove_growth_profile()


def test_blade_table_is_the_quaternion_table_everywhere():
    """Cl(diag(a, b)) -> H(-a, -b), blades (1, g1, g2, g1g2) to (1, e2, e3, e4),
    is multiplicative for every nonzero a, b.

    On each of the 16 blade pairs the blade product is +-a^i b^j with
    i, j <= 1 (a generator contracts at most once), and the product of two
    basis quaternions of H(-a, -b) has coefficients 0, +-1, +-a, +-b or
    +-ab.  Both sides are of degree <= 1 in a and in b, so a 2x2 grid of
    distinct nonzero values proves all 16 equalities.
    """
    prove_blade_table()


def test_scaling_map_is_multiplicative_everywhere():
    """scale_isomorphism's map H(b1, b2) -> H(x^2 b1, y^2 b2),
    e2 -> e2'/x, e3 -> e3'/y, e4 -> e4'/(xy), is a unital homomorphism for
    every nonzero b1, b2, x, y.

    Multiplied by x^2 y^2, both sides of image(u*v) = image(u)*image(v) for
    basis u, v are polynomials: each image carries at most 1/x and 1/y, and
    the target parameters x^2 b1, y^2 b2 and their product at most x^2 and
    y^2, so the degree is <= 4 in x and in y and <= 1 in b1 and in b2.
    A 5x5x2x2 grid of distinct nonzero values proves the identity, and
    x^2 y^2 != 0 carries it back to the map itself.
    """
    prove_scaling()


def test_norm_sequence_obeys_the_certificate_recurrence_everywhere():
    """n(H(m+3)) = 2n(H(m+2)) + 2n(H(m+1)) - n(H(m)) in every H(b1, b2) for
    all seeds (p, q) and m >= 0: the recurrence that ``fibquat._certify``
    walks on v(m) = d1*d2*n(H(m)) below the horizon.

    The window at m is the window at 0 of the sequence seeded by
    (h(m), h(m+1)), so m = 0 and all seeds cover every m.  Each h(j) there is
    linear in (p, q), and the norm is c . (h(j)^2, ..., h(j+3)^2)/(d1*d2) with
    c/(d1*d2) = (1, b1, b2, b1*b2).  So the left side minus the right is of
    degree <= 2 in p and in q and of degree <= 1 in b1 and in b2: a 3x3 grid
    of seeds times a 2x2 grid of distinct nonzero parameters proves it.  (The
    four vectors (1, b1, b2, b1*b2) of that grid span every c, so this is the
    grid of unit c vectors in another basis.)
    """
    prove_norm_recurrence()


# -- fault injection ----------------------------------------------------------------


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind every loaded module's attribute bound to ``original``: the
    package's own modules and each test module that imported the name."""
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _mutate(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Recompile ``owner.name``, a function of a module or a method of a
    class, from its source with ``old`` replaced by ``new``."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, old
    module = sys.modules[original.__module__]
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), module.__file__, "exec", flags), namespace)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, namespace[name])
    else:
        _replace_everywhere(monkeypatch, original, namespace[name])


def _without_shrinking(monkeypatch, test):
    """The hypothesis test ``test`` with its own settings, less the phases
    after generation: every example still runs, but a failure that the
    caller expects is not shrunk, which takes most of the time there."""
    current = test._hypothesis_internal_use_settings
    phases = [Phase.explicit, Phase.reuse, Phase.generate]
    monkeypatch.setattr(test, "_hypothesis_internal_use_settings", settings(current, phases=phases))
    return test


def _multiplication_table_passes() -> bool:
    return dict((name, ok) for name, ok, _ in run_selftest())["multiplication-table"]


def test_flipped_blade_product_fails_the_proof_and_selftest(monkeypatch):
    original = clifford.blade_product

    def flipped(mask_a, mask_b, form):
        coeff, mask = original(mask_a, mask_b, form)
        return (-coeff if (mask_a, mask_b) == (1, 2) else coeff), mask

    _replace_everywhere(monkeypatch, original, flipped)
    with pytest.raises(AssertionError):
        prove_blade_table()
    assert not _multiplication_table_passes()


@pytest.mark.parametrize(
    "old,new",
    [
        ("u = c0 + c1 + 2 * c2", "u = 2 * c0 + c1 + 2 * c2"),
        ("5 * c3", "6 * c3"),
        ("v = c1 + 3 * c2", "v = c1 + 4 * c2"),
        ("8 * c3", "7 * c3"),
        ("c0 - c1 + c2", "c0 + c1 + c2"),
        ("c2 - c3", "c2 + c3"),
    ],
    ids=["u-constant", "u-b1b2", "v-b2", "v-b1b2", "s0-b1", "s0-b1b2"],
)
def test_perturbed_growth_coefficient_fails_the_proof_and_selftest(monkeypatch, old, new):
    _mutate(monkeypatch, fibquat, "_growth_integers", old, new)
    with pytest.raises(AssertionError):
        prove_growth_profile()
    assert not _multiplication_table_passes()


def test_wrong_scaling_image_fails_the_proof(monkeypatch):
    """e4's image 1/(x*x) instead of 1/(x*y)."""
    _mutate(monkeypatch, quat, "scale_isomorphism", "3, xd * yd, xn * yn", "3, xd * xd, xn * xn")
    with pytest.raises(AssertionError):
        prove_scaling()


@pytest.mark.parametrize(
    "old,new",
    [
        ("if (parity & j).bit_count() & 1:", "if not (parity & j).bit_count() & 1:"),
        ("term = a * b * m", "term = a * b"),
    ],
    ids=["flipped-parity", "no-metric-factor"],
)
def test_broken_product_kernel_fails_the_reference_check(monkeypatch, old, new):
    _mutate(monkeypatch, quat, "_pair_loop", old, new)
    with pytest.raises(AssertionError):
        assert_product_matches_reference(*seeded_dense_pair(3, seed=3))


@pytest.mark.parametrize(
    "name,old,new",
    [
        ("_packed_rows", ") * num - correction", ") * abs(num) - correction"),
        ("_layout", "parity + inverse, inverse + parity", "parity + parity, inverse + inverse"),
        ("_layout", "base = offsets - ((flip & offsets) >> 63)", "base = offsets"),
        ("_packed_rows", "* d + ((row ^ half) >> shift) * num", "* num + ((row ^ half) >> shift) * d"),
        ("_packed_rows", "// parts[m + k][1]", "// 1"),
        ("_packed_rows", "row = (row + offsets) ^ flip", "row = row ^ flip"),
        ("_packed_rows", "without * parts[k][1] + ", "without + "),
    ],
    ids=[
        "negative-square-unflipped",
        "parity-pattern",
        "offset-correction-off-by-one",
        "scales-swapped",
        "complement-scale",
        "offsets-kept",
        "horner-scale",
    ],
)
def test_broken_packed_rows_fail_the_reference_check(monkeypatch, name, old, new):
    """The pair is dense, so it takes packed rows, and both its two low
    generators (the Horner pass) and its three high ones (the rows) square
    to rationals of both signs with denominators, so every step of both
    levels runs on it.  A fault that leaves a field outside its 64 bits
    stops the decode instead."""
    x, y = small_dense_pair(5, seed=5)
    for squares in (x.form.squares[:2], x.form.squares[2:]):
        assert any(s < 0 for s in squares) and any(s.denominator > 1 for s in squares)
    _mutate(monkeypatch, quat, name, old, new)
    with pytest.raises((AssertionError, OverflowError)):
        assert_product_matches_reference(x, y)


@pytest.mark.parametrize(
    "name,old,new",
    [
        ("_reduced", "g = gcd(den, *nums)", "g = 1"),
        ("_combine", "op(a * sx, b * sy)", "op(a, b)"),
    ],
    ids=["no-final-gcd", "no-lcm-rescale"],
)
def test_broken_integer_form_fails_the_fraction_reference(monkeypatch, name, old, new):
    """Results left out of lowest terms, or sums of numerators over
    different denominators taken as they are."""
    _mutate(monkeypatch, quat._Element, name, old, new)
    with pytest.raises(AssertionError):
        check_integer_form(1000, seed=21)


def test_broken_sign_rule_fails_the_quaternion_reference_and_selftest(monkeypatch):
    """Dropping the first shift counts each generator of the left blade as
    lying above itself.  Blade products and quaternion products share that
    sign rule, so ``blade_table_is_quaternion_table`` still holds; the
    explicit basis tables of the reference and of selftest catch it."""
    _mutate(monkeypatch, quat, "_reorder_parity", "    mask >>= 1\n    while", "    while")
    basis = quat.Quaternion.basis(quat.AlgebraParams(2, Fraction(-5, 3)))
    assert any(u * v != quaternion_mul_reference(u, v) for u in basis for v in basis)
    assert not _multiplication_table_passes()


@pytest.mark.parametrize(
    "old,new",
    [("5 * ay * y", "4 * ay * y"), ("ax * y + ay * x", "ax * y - ay * x")],
    ids=["coefficient", "sign"],
)
def test_perturbed_seeded_growth_fails_the_reference_check(monkeypatch, old, new):
    _mutate(monkeypatch, fibquat, "_seeded_growth", old, new)
    with pytest.raises(AssertionError):
        assert_seeded_discriminant_matches_reference(quat.AlgebraParams(-2, -3), 3, -7)


@pytest.mark.parametrize(
    "name,old,new",
    [
        ("_basis_norms", "fib_pair(n)", "fib_pair(n + 1)"),
        ("_norms", "h4 = h2 + h3", "h4 = h2 + 2 * h3"),
    ],
    ids=["both-windows", "last-entry"],
)
def test_shifted_form_window_fails_the_reference_check(monkeypatch, name, old, new):
    _mutate(monkeypatch, fibquat, name, old, new)
    with pytest.raises(AssertionError):
        assert_form_matches_reference(5, quat.AlgebraParams(Fraction(2, 3), -7))


def test_shifted_doubling_pass_fails_the_horadam_reference(monkeypatch):
    """Every seeded quaternion comes from ``_window``; the oracle counts its
    terms with the naive recurrence, so shifting the doubling pass moves
    only the package's side of the comparison.  The form reads no window:
    the ``both-windows`` case above shifts its own doubling pass."""
    _mutate(monkeypatch, fib_module, "_window", "fib_pair(n)", "fib_pair(n + 1)")
    x = fibquat.horadam_quaternion(5, 3, -7, quat.AlgebraParams(-2, -3))
    assert x.coeffs != tuple(horadam_naive(5 + j, 3, -7) for j in range(4))


@pytest.mark.parametrize(
    "old,new",
    [("c3 * x4 * x4", "c2 * x4 * x4"), ("== height", "<= height")],
    ids=["wrong-coefficient", "zero-vector"],
)
def test_broken_witness_search_fails_the_reference_check(monkeypatch, old, new):
    _mutate(monkeypatch, quat, "zero_divisor_witness", old, new)
    with pytest.raises(AssertionError):
        assert_witness_matches_reference(quat.AlgebraParams(-2, -7))


def _selftest_group_passes(group: str) -> bool:
    return dict((name, ok) for name, ok, _ in run_selftest())[group]


def test_binet_reading_the_rational_part_fails_its_tests_and_selftest(monkeypatch):
    """``binet`` reads 2y off alpha^n = x + y*sqrt 5; reading x instead gives
    the Lucas numbers, which ``test_fib`` and the selftest group reject."""
    _mutate(monkeypatch, fib_module, "binet", "(ALPHA**n).b", "(ALPHA**n).a")
    monkeypatch.setattr(test_fib, "binet", fib_module.binet)
    for test in (test_fib.test_binet_small_values, test_fib.test_binet_embeds_fib):
        with pytest.raises(AssertionError):
            test()
    assert not _selftest_group_passes("binet-closed-form")


@pytest.mark.parametrize(
    "old,new",
    [("c3 * s3,", "c2 * s3,"), ("c3 * s4,", "2 * c3 * s4,")],
    ids=["first-entry", "second-entry"],
)
def test_perturbed_basis_norm_fails_the_polarization_selftest(monkeypatch, old, new):
    """Any symmetric bilinear form polarizes its own quadratic form, so the
    group also compares the form with the basis norms taken as quaternion
    norms."""
    _mutate(monkeypatch, fibquat, "_norms", old, new)
    assert not _selftest_group_passes("polarization")


def test_perturbed_seeded_norm_fails_the_walk_and_form_references(monkeypatch):
    """``_norms`` is the one route to v(m) = d1*d2*n(H(m)): the certificates
    walk it from the seeds and the basis norms read it at (f(n), f(n+1)), so
    one fault in it fails the reference checks of both callers."""
    _mutate(monkeypatch, fibquat, "_norms", "c0 * s0 + c1 * s1", "c0 * s0 + 2 * c1 * s1")
    with pytest.raises(AssertionError):
        assert_certificates_match_the_full_walk()
    with pytest.raises(AssertionError):
        assert_form_matches_reference(5, quat.AlgebraParams(Fraction(2, 3), -7))


def test_closed_form_without_the_conjugate_fails_the_closed_form_tests(monkeypatch):
    """Dropping the factor 2 leaves out the beta term, the alpha term's
    conjugate; each closed-form test of ``test_fibquat`` catches it."""
    _mutate(monkeypatch, fibquat, "horadam_norm_closed_form", "2 * t.a", "t.a")
    monkeypatch.setattr(
        test_fibquat, "horadam_norm_closed_form", fibquat.horadam_norm_closed_form
    )
    with pytest.raises(AssertionError):
        test_fibquat.test_norm_closed_form_values(test_fibquat.HALF, 1, Fraction(3, 4))
    for test in (
        partial(test_fibquat.test_norm_closed_form_matches_direct_norm, test_fibquat.HALF),
        _without_shrinking(monkeypatch, test_fibquat.test_norm_closed_form_random_algebras),
        _without_shrinking(monkeypatch, test_fibquat.test_horadam_norm_closed_form_matches_direct),
    ):
        with pytest.raises(AssertionError):
            test()


def test_stale_walk_norms_fail_the_classify_form_reference(monkeypatch):
    """``classify`` reads its form off the two norms the certificate's walk
    keeps at n'; keeping those of n' - 1 instead breaks the form, or the
    class check, where n' = 1."""
    params = quat.AlgebraParams(-1, Fraction(-1, 3))
    assert clifford.classify(params).basepoint == 1
    _mutate(monkeypatch, fibquat, "_certify", "m + 1, (v1, v2)", "m + 1, (v0, v1)")
    with pytest.raises((AssertionError, DegenerateFormError)):
        report = clifford.classify(params)
        assert report.form.squares == fibonacci_form_reference(1, params)


@pytest.mark.parametrize(
    "old,new",
    [
        ("DIVISION if sign < 0", "DIVISION if sign > 0"),
        ("_e_prime(growth, pair)", "_e_prime(growth, _seeded_growth(growth, 0, 1))"),
    ],
    ids=["inverted-class-rule", "plain-pair-for-e-prime"],
)
def test_broken_classify_fails_the_report_check(monkeypatch, old, new):
    """``classify`` reads its class off the limit sign, and its E' off the
    seeded pair it evaluates once; either fault breaks reports that the
    public routes pin."""
    _mutate(monkeypatch, clifford, "classify", old, new)
    with pytest.raises(AssertionError):
        check_reports(2000, seed=22)


def test_injected_fault_reaches_names_that_tests_imported(monkeypatch):
    """``test_fibquat`` imports ``classify`` by name; a fault injected into
    ``clifford.classify`` reaches that name, and its reference check fails."""
    original = clifford.classify
    _mutate(
        monkeypatch, clifford, "classify",
        "seeded_discriminant = _e_prime(growth, pair)",
        "seeded_discriminant = -_e_prime(growth, pair)",
    )
    assert test_fibquat.classify is clifford.classify is not original
    with pytest.raises(AssertionError):
        assert_seeded_discriminant_matches_reference(quat.AlgebraParams(-2, -3), 3, -7)


def test_broken_norm_walk_fails_the_reference_check(monkeypatch):
    """The walk starts next to the last wrong sign, so a faulty recurrence
    moves no certificate of the edge cases; the two norms it hands back
    differ from the full walk's."""
    _mutate(monkeypatch, fibquat, "_certify", "- v0", "+ v0")
    with pytest.raises(AssertionError):
        assert_certificates_match_the_full_walk()


@pytest.mark.parametrize(
    "old,new",
    [
        ("> 4 * z * z", "> z * z"),
        ("> 4 * z * z", ">= 4 * z * z"),
        (" and v2 >= v0", ""),
        ("v1 > 0 and", "v1 >= 0 and"),
    ],
    ids=["am-gm-without-its-factor", "am-gm-at-equality", "stop-while-falling", "stop-at-a-zero"],
)
def test_broken_stop_rule_fails_the_walk_reference(monkeypatch, old, new):
    """Each fault ends the walk, or skips it, where a later norm can still
    lack the limit sign.  AM-GM at equality fails only on HALF, where
    N(S+) = S0^2 and n(F(0)) = 0; a stop at v(m+1) = 0 fails only on the
    algebras with an exact zero norm."""
    _mutate(monkeypatch, fibquat, "_certify", old, new)
    with pytest.raises(AssertionError):
        assert_certificates_match_the_full_walk()


@pytest.mark.parametrize(
    "old,new",
    [("> 4 * z * z", "> 5 * z * z"), ("v1 > 0 and", "v1 > 1 and"), ("v2 >= v0", "v2 > v0")],
    ids=["am-gm-past-its-bound", "stop-past-v-equal-1", "stop-past-equal-norms"],
)
def test_strict_stop_rule_fails_the_walk_length(monkeypatch, old, new):
    """Each fault makes a sufficient condition stricter, so it keeps every
    certificate and only walks further; the pinned walk lengths catch it."""
    _mutate(monkeypatch, fibquat, "_certify", old, new)
    assert_certificates_match_the_full_walk()
    with pytest.raises(AssertionError):
        assert_walk_lengths_pinned(monkeypatch)


@pytest.mark.parametrize(
    "old,new",
    [
        ("f0, f1 = _pair(k)", "f0, f1 = _pair(max(k - 1, 0))"),
        ("horizon += 1", "horizon += 2"),
        ("gap * 10**6 // 1388484)", "gap * 10**6 // 1388484 + 1)"),
    ],
    ids=["dropped-top-power", "shifted-horizon", "bracket-one-high"],
)
def test_broken_horizon_search_fails_the_edge_check(monkeypatch, old, new):
    """A jump whose power 16 alpha^(4k) lacks its top factor alpha^4, steps
    that count two indices each, and a bracket whose last failing index is
    one too high, so that an index that may pass goes untested: each
    reports a wrong horizon on the edge cases."""
    _mutate(monkeypatch, fibquat, "_certify", old, new)
    with pytest.raises(AssertionError):
        assert_horizon_edges_match_reference()


@pytest.mark.parametrize(
    "old,new",
    [
        ("gap * 10**6 // 1388484)", "gap * 10**6 // 2776968)"),
        ("gap, top = b_lo - g_hi,", "gap, top = b_lo - g_hi - 4,"),
    ],
    ids=["lifting-doubles", "late-lifting"],
)
def test_slow_horizon_search_fails_the_step_count(monkeypatch, old, new):
    """A bracket whose last failing index is halved, and one four bits wider:
    both keep every certificate and only add sign tests, so the pinned count
    is what catches them."""
    _mutate(monkeypatch, fibquat, "_certify", old, new)
    assert_horizon_edges_match_reference()
    with pytest.raises(AssertionError):
        assert_search_steps_pinned(monkeypatch)


def test_walk_from_an_unwitnessed_estimate_fails_the_walk_reference(monkeypatch):
    """A walk that starts at s = (N - 1) // 2 although v(s) and v(s + 1) both
    have the limit sign misses the wrong signs below s; the cases of
    ``BELOW_THE_ESTIMATE`` have them."""
    _mutate(monkeypatch, fibquat, "_certify", "s <= 0 or v0 > 0 and v1 > 0", "s <= 0")
    with pytest.raises(AssertionError):
        assert_certificates_match_the_full_walk()


@pytest.mark.parametrize(
    "old,new",
    [("or v0 > 0 and v1 > 0", "or v0 > 0"), ("or v0 > 0 and v1 > 0", "or v1 > 0")],
    ids=["witness-at-s-only", "witness-at-s-plus-1-only"],
)
def test_one_parity_witness_fails_the_walk_length(monkeypatch, old, new):
    """A witness that reads only one of v(s), v(s + 1) keeps every
    certificate, as the walk from index 0 is always sound, but walks from 0
    where only the other parity has the wrong sign at s; the pinned walk
    lengths catch it."""
    _mutate(monkeypatch, fibquat, "_certify", old, new)
    assert_certificates_match_the_full_walk()
    with pytest.raises(AssertionError):
        assert_walk_lengths_pinned(monkeypatch)


def test_sign_fault_stops_at_the_horizon_bound():
    """With ``(x < 0)`` turned into ``(x < 1)``, ``_sign_z5(0, 0)`` is -1, so seeds
    (0, 0) pass the zero check and no index ever passes the horizon test.  The
    search raises at its a-priori bound; the subprocess timeout only guards
    against a hang."""
    script = textwrap.dedent(
        """
        import inspect
        from fibclifford import exactnum, fibquat
        from fibclifford.quat import AlgebraParams

        source = inspect.getsource(exactnum._sign_z5)
        assert source.count("(x < 0)") == 1
        namespace = dict(vars(exactnum))
        exec(compile(source.replace("(x < 0)", "(x < 1)"), exactnum.__file__, "exec"), namespace)
        fibquat._sign_z5 = namespace["_sign_z5"]
        fibquat.horadam_invertibility_threshold(AlgebraParams(-2, -3), 0, 0)
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        timeout=60,
    )
    assert result.returncode == 1
    assert "AssertionError: horizon search passed its bound of" in result.stderr, result.stderr
