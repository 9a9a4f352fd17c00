"""Command-line front end: classification, thresholds, sequences, quaternion
arithmetic, Clifford tables, and an embedded self-verification suite.

All numeric input is exact: rationals are written ``n`` or ``n/d`` with an
optional leading minus (no decimals), each integer of at most
``MAX_LITERAL_DIGITS`` digits.  Exit codes: 0 success, 1 usage error,
2 domain error (in particular a vanishing discriminant, a literal over the
digit cap, a ``fib --n`` over ``MAX_FIB_INDEX`` or a ``clifford-table
--squares`` over ``MAX_TABLE_GENERATORS`` entries).  JSON output is
byte-stable for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import chain

from .clifford import (
    ClassificationReport,
    DiagonalForm,
    blade_name,
    blade_product,
    classify,
    quaternion_isomorphism,
)
from .errors import AlgebraError, LiteralTooLongError
from .exactnum import ALPHA, BETA, QSqrt5, _signed_sum, format_rat, parse_int, parse_rat
from .fib import HoradamParams, binet, fib, horadam
from .fibquat import (
    FibSpaceVector,
    bilinear_form,
    fibonacci_quaternion,
    growth_profile,
    horadam_invertibility_threshold,
    quadratic_form,
)
from .quat import AlgebraParams, Quaternion

#: Largest ``fib --n``.  f(n) has about 0.209*n digits and renders in
#: quadratic time: f(10**6) takes 0.08 s to compute and 0.6 s to render
#: (CPython 3.11.7, 2-vCPU VM).
MAX_FIB_INDEX = 1_000_000

#: Most ``clifford-table --squares`` entries.  The table has 4**n entries:
#: at 8 generators, 65,536 products take 1.3-1.7 s of CPU time with 100-digit
#: squares (CPython 3.11.7, 2-vCPU VM).
MAX_TABLE_GENERATORS = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full: an abbreviation would bypass _normalize_argv
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # noqa: A002 - argparse API
        raise _UsageError(message)


def _normalize_argv(argv: list[str], value_flags: dict) -> list[str]:
    """Join value flags with their argument so '-1/2' is not read as a flag.

    A flag given '--' as its value is a usage error: argparse would read that
    '--' as the end of options and hand the flag an empty list."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in value_flags and i + 1 < len(argv):
            token = f"{token}={argv[i + 1]}"
            i += 2
        else:
            i += 1
        flag, sep, value = token.partition("=")
        if flag.startswith("--") and sep and value == "--":
            raise _UsageError(f"argument {flag}: expected one argument")
        out.append(token)
    return out


class _CapError(Exception):
    # not a ValueError, so it passes through argparse's type conversion
    pass


def _arg(flag: str, convert):
    """argparse type for ``flag``: a malformed literal is a usage error, one
    over the digit cap a domain error naming the flag."""

    def parse(text: str):
        try:
            return convert(text)
        except LiteralTooLongError as exc:
            raise _CapError(f"LiteralTooLongError: {flag}: {exc}") from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _coeffs(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated rationals, got {len(parts)}")
    return tuple(parse_rat(p) for p in parts)


def _squares(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"empty entry in {text!r}")
    squares = tuple(parse_rat(p) for p in parts)
    if len(squares) > MAX_TABLE_GENERATORS:
        raise _CapError(
            f"--squares: {len(squares)} generators exceed the cap of {MAX_TABLE_GENERATORS}"
        )
    return squares


def _index(text: str) -> int:
    value = parse_int(text)
    if value < 0:
        raise ValueError(f"index must be nonnegative, got {value}")
    if value > MAX_FIB_INDEX:
        raise _CapError(f"--n: {value} exceeds the cap of {MAX_FIB_INDEX}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fibclifford", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for usage lines
    # read per call, not at import, so handlers and converters rebound after
    # import (as a tracer does) are the ones called
    converters = parser.value_flags = {
        "--beta1": parse_rat, "--beta2": parse_rat, "--p": parse_int, "--q": parse_int,
        "--n": _index, "--x": _coeffs, "--y": _coeffs, "--squares": _squares,
    }
    algebra, seeded = ("--beta1", "--beta2"), ("--p", "--q", "--json")
    for name, func, text, required, optional in (
        ("classify", _cmd_classify, "classify the Clifford algebra of the Fibonacci space",
         algebra, seeded),
        ("nprime", _cmd_nprime, "certify the minimal invertibility threshold", algebra, seeded),
        ("fib", _cmd_fib, "n-th Fibonacci number", ("--n",), ()),
        ("quat-mul", _cmd_quat_mul, "multiply two quaternions", algebra + ("--x", "--y"), ()),
        ("quat-norm", _cmd_quat_norm, "quaternion norm", algebra + ("--x",), ()),
        ("clifford-table", _cmd_clifford_table, "basis product table of a Clifford algebra",
         ("--squares",), ("--json",)),
        ("selftest", _cmd_selftest, "run the embedded identity suite", (), ("--json",)),
    ):
        p = sub.add_parser(name, help=text)
        for flag in required + optional:
            if flag == "--json":
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=_arg(flag, converters[flag]), required=flag in required)
        p.set_defaults(func=func)
    return parser


def _check_seeds(ns: argparse.Namespace) -> None:
    if (ns.p is None) != (ns.q is None):
        raise _UsageError("--p and --q must be given together")


def _render_report(report: ClassificationReport) -> str:
    cert = report.certificate
    lines = [
        f"algebra: {report.params.label()}",
        f"discriminant: {report.discriminant}  [sign {report.discriminant_sign:+d}]",
        f"division algebra over R: {'yes' if report.input_is_division else 'no'}",
        f"certified threshold n' = {cert.n_prime} "
        f"(horizon {cert.horizon}, stable norm sign {cert.limit_sign:+d})",
        f"quadratic form at n={report.basepoint}: "
        f"diag({format_rat(report.form[0])}, {format_rat(report.form[1])})",
        f"clifford class: {report.clifford_class.value}",
        f"canonical model: {report.canonical}",
        "scaling witness: "
        f"({format_rat(report.scaling_witness[0])}, {format_rat(report.scaling_witness[1])})",
    ]
    if report.seeds is not None:
        seeded = report.seeded_certificate
        lines.append(f"seeds (p, q): ({report.seeds[0]}, {report.seeds[1]})")
        lines.append(f"seeded discriminant: {report.seeded_discriminant}")
        lines.append(f"seeded threshold n' = {seeded.n_prime}")
    return "\n".join(lines)


def _cmd_classify(ns: argparse.Namespace) -> int:
    _check_seeds(ns)
    report = classify(AlgebraParams(ns.beta1, ns.beta2), ns.p, ns.q)
    if ns.json:
        print(json.dumps(report.to_json()))
    else:
        print(_render_report(report))
    return 0


def _cmd_nprime(ns: argparse.Namespace) -> int:
    _check_seeds(ns)
    params = AlgebraParams(ns.beta1, ns.beta2)
    p, q = (0, 1) if ns.p is None else (ns.p, ns.q)
    cert = horadam_invertibility_threshold(params, p, q)
    if ns.json:
        print(json.dumps(cert.to_json()))
    else:
        print(
            f"n' = {cert.n_prime} (horizon {cert.horizon}, "
            f"limit sign {cert.limit_sign:+d})"
        )
    return 0


def _cmd_fib(ns: argparse.Namespace) -> int:
    print(format_rat(fib(ns.n)))
    return 0


def _cmd_quat_mul(ns: argparse.Namespace) -> int:
    params = AlgebraParams(ns.beta1, ns.beta2)
    product = Quaternion.from_coeffs(params, ns.x) * Quaternion.from_coeffs(params, ns.y)
    print(",".join(format_rat(c) for c in product.coeffs))
    return 0


def _cmd_quat_norm(ns: argparse.Namespace) -> int:
    params = AlgebraParams(ns.beta1, ns.beta2)
    print(format_rat(Quaternion.from_coeffs(params, ns.x).norm()))
    return 0


def _cmd_clifford_table(ns: argparse.Namespace) -> int:
    form = DiagonalForm(ns.squares)
    names = [blade_name(m) for m in range(form.dim)]

    def rows():
        """The table's rows of cells, one at a time."""
        for i in range(form.dim):
            products = (blade_product(i, j, form) for j in range(form.dim))
            yield [_signed_sum([(*c.as_integer_ratio(), names[m])]) for c, m in products]

    if ns.json:
        # the bytes of json.dumps of the whole table, one row at a time
        head = json.dumps({"squares": [format_rat(s) for s in form.squares], "blades": names})
        sep = head[:-1] + ', "table": ['
        for row in rows():
            print(sep + json.dumps(row), end="")
            sep = ", "
        print("]}")
        return 0
    # every cell is padded to the longest, so a first pass over the rows
    # finds that width and a second prints them, instead of holding the table
    width = max(len(s) for row in chain([names], rows()) for s in row) + 2
    print("".join(s.ljust(width) for s in ["*"] + names).rstrip())
    for name, row in zip(names, rows()):
        print("".join(s.ljust(width) for s in [name] + row).rstrip())
    return 0


# -- embedded self-verification ------------------------------------------------


def _selftest_table() -> tuple[bool, str]:
    # Both sides of each identity below are of degree <= 1 in each parameter,
    # so holding on a 2x2 grid of distinct values proves it for all of them.
    for b1 in (Fraction(2), Fraction(-1, 3)):
        for b2 in (Fraction(3), Fraction(-5, 2)):
            params = AlgebraParams(b1, b2)
            # e_i * e_j = c * e_k as (k, c), indices into (1, e2, e3, e4)
            table = {
                (1, 1): (0, -b1), (1, 2): (3, 1), (1, 3): (2, -b1),
                (2, 1): (3, -1), (2, 2): (0, -b2), (2, 3): (1, b2),
                (3, 1): (2, b1), (3, 2): (1, -b2), (3, 3): (0, -b1 * b2),
            }
            basis = Quaternion.basis(params)
            for i in range(4):
                for j in range(4):
                    product = basis[i] * basis[j]
                    k, c = table.get((i, j), (i + j, 1))
                    if product.coeffs != tuple(c if m == k else 0 for m in range(4)):
                        return False, f"basis product e{i + 1}*e{j + 1} wrong in {params.label()}"
            profile = growth_profile(params)
            for constant, root in ((profile.dominant, ALPHA), (profile.conjugate, BETA)):
                r2 = root * root
                if constant != 1 + r2 * b1 + r2 * r2 * b2 + r2 * r2 * r2 * (b1 * b2):
                    return False, f"growth constants wrong for {params.label()}"
            if profile.oscillating != QSqrt5.from_rat(1 - b1 + b2 - b1 * b2):
                return False, f"growth constants wrong for {params.label()}"
            form = DiagonalForm((b1, b2))
            images = Quaternion.basis(quaternion_isomorphism(form))
            for i in range(4):
                for j in range(4):
                    coeff, mask = blade_product(i, j, form)
                    if images[mask] * coeff != images[i] * images[j]:
                        return False, f"blade products of diag({b1}, {b2}) leave H({-b1}, {-b2})"
    return True, "basis products, growth constants and blade products hold for all parameters"


def _selftest_norm_multiplicativity() -> tuple[bool, str]:
    rng = random.Random(7)
    algebras = [
        AlgebraParams(1, 1),
        AlgebraParams(1, -1),
        AlgebraParams(-2, -3),
        AlgebraParams(Fraction(-1, 2), Fraction(-1, 2)),
    ]
    checked = 0
    for params in algebras:
        for _ in range(50):
            x = Quaternion.from_coeffs(
                params, [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4)]
            )
            y = Quaternion.from_coeffs(
                params, [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4)]
            )
            if (x * y).norm() != x.norm() * y.norm():
                return False, f"norm not multiplicative in {params.label()}"
            checked += 1
    return True, f"{checked} random products have multiplicative norm"


def _selftest_binet() -> tuple[bool, str]:
    for n in range(121):
        if binet(n) != QSqrt5(Fraction(fib(n)), Fraction(0)):
            return False, f"closed form disagrees with fib({n})"
    return True, "closed form matches fib(n) for n <= 120"


def _selftest_horadam() -> tuple[bool, str]:
    for p, q in ((2, 3), (1, 0), (0, 1), (-4, 7)):
        seeds = HoradamParams(p, q)
        h0, h1 = p, q
        f0, f1 = 0, 1
        for n in range(120):
            if h1 != p * f0 + q * f1:
                return False, f"linearity fails at n={n} for seeds ({p}, {q})"
            if horadam(n, seeds) != h0:
                return False, f"horadam({n}) disagrees with the recurrence"
            h0, h1 = h1, h0 + h1
            f0, f1 = f1, f0 + f1
    return True, "seeded terms are the Fibonacci combination for n <= 120"


def _selftest_polarization() -> tuple[bool, str]:
    rng = random.Random(11)
    checked = 0
    for params in (AlgebraParams(1, -1), AlgebraParams(-2, -3)):
        for n in (0, 3):
            # the basis norms by the quaternion norm, not by the form's own window
            n0, n1 = (fibonacci_quaternion(m, params).norm() for m in (n, n + 1))
            for _ in range(25):
                x = FibSpaceVector(
                    n, Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
                )
                y = FibSpaceVector(
                    n, Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
                )
                two_route = (
                    quadratic_form(x + y, params)
                    - quadratic_form(x, params)
                    - quadratic_form(y, params)
                ) / 2
                form = bilinear_form(x, y, params)
                if two_route != form:
                    return False, f"polarization fails in {params.label()} at n={n}"
                if form != x.x1 * y.x1 * n0 + x.x2 * y.x2 * n1:
                    return False, f"form differs from the basis norms in {params.label()} at n={n}"
                checked += 1
    return True, f"{checked} random vector pairs polarize consistently"


def _selftest_dimension() -> tuple[bool, str]:
    for rank in range(7):
        form = DiagonalForm(tuple(Fraction(-1) for _ in range(rank)))
        if form.dim != 1 << rank:
            return False, f"dimension wrong at rank {rank}"
        for mask in range(form.dim):
            _, result = blade_product(mask, form.dim - 1, form)
            if not 0 <= result < form.dim:
                return False, f"blade product left the basis at rank {rank}"
    return True, "blade bases have dimension 2^n and close under products"


def _selftest_fixtures() -> tuple[bool, str]:
    expected = {
        (Fraction(1), Fraction(-1)): ("Division", "H(1,1)", 0, -1),
        (Fraction(-2), Fraction(-3)): ("Split", "H(-1,-1)", 0, 1),
        (Fraction(2), Fraction(-3)): ("Division", "H(1,1)", 0, -1),
        (Fraction(-1, 2), Fraction(-1, 2)): ("Split", "H(-1,-1)", 1, 1),
    }
    for (b1, b2), want in expected.items():
        report = classify(AlgebraParams(b1, b2))
        got = (
            report.clifford_class.value,
            report.canonical,
            report.certificate.n_prime,
            report.discriminant_sign,
        )
        if got != want:
            return False, f"H({b1}, {b2}) classified as {got}, expected {want}"
    return True, "all four recorded parameter fixtures classify as expected"


_SELFTEST_GROUPS = (
    ("multiplication-table", _selftest_table),
    ("norm-multiplicativity", _selftest_norm_multiplicativity),
    ("binet-closed-form", _selftest_binet),
    ("horadam-linearity", _selftest_horadam),
    ("polarization", _selftest_polarization),
    ("clifford-dimension", _selftest_dimension),
    ("classification-fixtures", _selftest_fixtures),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every identity group.  A group that raises fails with the
    exception as its detail."""
    results = []
    for name, func in _SELFTEST_GROUPS:
        try:
            ok, detail = func()
        except Exception as exc:  # a crash is a failed group, not a traceback
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results


def _cmd_selftest(ns: argparse.Namespace) -> int:
    results = run_selftest()
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        if ns.json:
            print(json.dumps({"group": name, "status": status}))
        else:
            print(f"{name}: {status} ({detail})")
    if not ns.json:
        passed = sum(1 for _, ok, _ in results if ok)
        print(f"selftest: {passed}/{len(results)} groups passed")
    return 0 if all(ok for _, ok, _ in results) else 1


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_normalize_argv(list(argv), parser.value_flags))
        return ns.func(ns)
    except _UsageError as exc:
        name = next((a for a in argv if not a.startswith("-")), None)
        parser.commands.get(name, parser).print_usage(sys.stderr)
        print(f"fibclifford: error: {exc}", file=sys.stderr)
        return 1
    except _CapError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    except AlgebraError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"fibclifford: error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)
