"""Mutation pass over the package's kernels.

    python tests/mutate.py [--check] [--hypothesis-seed N] TARGET ...

A TARGET is a function of the package by module and qualified name, such
as ``clifford.classify`` or ``quat._Element._reduced``.  Each mutant
changes one source span inside the target's body and nothing else: an
arithmetic, bitwise or augmented operator swapped (``+``/``-``, ``*`` to
``+``, ``//`` to ``*``, ``<<``/``>>``, ``&``/``|``, ``^`` to ``|``), a
comparison weakened or negated (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not``), ``and``/``or`` swapped, a unary ``-`` or ``not``
dropped, or an integer constant raised by one.  The span is replaced in
the module's text, never in ``ast.unparse`` output, so every other line
reads exactly as committed.

Each mutant runs the target's tests (``TESTS``; the whole suite for a
target not listed there) with ``pytest -x`` in a fresh copy of ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` under a temporary
directory, with a fixed hypothesis seed and no shrinking, and is killed
when they fail or run past the target's limit: ``MULTIPLE`` times as long
as the same tests took without a mutant, the run each target starts with,
and at least ``FLOOR`` seconds.  A mutant that passes survives.  Each
survivor that ``SURVIVORS`` records is equivalent to the original, for the
reason given there; with ``--check`` the run exits 1 on any other.  A
record names its line by text and by occurrence among the target's lines
of that text, so identical lines keep separate records.  Before any test
runs, every run exits 2 if a record names no mutant that the harness
generates, as after the line it names was rewritten.

The file is not named ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLASSIFY_TESTS = ["tests/test_classify_report.py", "tests/test_classify_corpus.py"]
SEEDED_TESTS = [*CLASSIFY_TESTS, "tests/test_fibquat.py"]
CERTIFY_TESTS = [*SEEDED_TESTS, "tests/test_threshold_ladder.py", "tests/test_identity_proofs.py"]
PRODUCT_TESTS = ["tests/test_clifford.py", "tests/test_integer_form.py"]
ELEMENT_TESTS = ["tests/test_integer_form.py", "tests/test_quat.py"]
SCALING_TESTS = [*ELEMENT_TESTS, "tests/test_identity_proofs.py", "-k", "scal"]
TEXT_TESTS = ["tests/test_exactnum.py", "tests/test_cli.py"]
# QSqrt5's arithmetic and renderings: the integer form against Fraction
# pairs, and the digest of every classify and growth_profile JSON
QSQRT5_TESTS = [
    "tests/test_exactnum.py", "tests/test_render.py", "tests/test_output_identity.py",
    "tests/test_integer_form.py::"
    "test_every_qsqrt5_operation_keeps_the_integer_form_and_matches_fraction_pairs",
]
# the packed-rows tests alone: direct calls against the pair loop, the
# admission rule on both sides and the 63-bit bound
PACKED_TESTS = [
    "tests/test_clifford.py", "-k", "packed_rows_match or takes_packed or bound or rank9",
]

#: the tests each target's mutants run
TESTS = {
    "clifford.classify": CLASSIFY_TESTS,
    "clifford.blade_product": ["tests/test_clifford.py", "tests/test_acceptance.py"],
    "fibquat._seeded_growth": SEEDED_TESTS,
    "fibquat._e_prime": SEEDED_TESTS,
    "fibquat._discriminant": SEEDED_TESTS,
    "fibquat._norms": SEEDED_TESTS,
    "fibquat._basis_norms": SEEDED_TESTS,
    "fibquat._certify": CERTIFY_TESTS,
    "fibquat._log2_bounds": CERTIFY_TESTS,
    "fibquat._growth_integers": CERTIFY_TESTS,
    "exactnum._sign_z5": [
        "tests/test_exactnum.py", "tests/test_fibquat.py", "tests/test_threshold_ladder.py",
    ],
    "exactnum._decimal": TEXT_TESTS,
    "exactnum._qsqrt5": QSQRT5_TESTS,
    "exactnum._format_ratio": QSQRT5_TESTS,
    "exactnum._coerce": QSQRT5_TESTS,
    "exactnum._add": QSQRT5_TESTS,
    "exactnum._mul": QSQRT5_TESTS,
    "exactnum._operators": QSQRT5_TESTS,
    "exactnum.QSqrt5.inverse": QSQRT5_TESTS,
    "exactnum.parse_rat": TEXT_TESTS,
    "exactnum._integer_form": ELEMENT_TESTS,
    "cli._normalize_argv": ["tests/test_cli.py"],
    "fib._window": ["tests/test_fib.py", "tests/test_fibquat.py"],
    "quat._product": PRODUCT_TESTS,
    "quat._pair_loop": PRODUCT_TESTS,
    "quat._packed_rows": PACKED_TESTS,
    "quat._layout": PACKED_TESTS,
    "quat._constants": ["tests/test_integer_form.py", "-k", "constants or memo"],
    "quat._reorder_parity": PRODUCT_TESTS,
    "quat._Element._reduced": ELEMENT_TESTS,
    "quat._Element._combine": ELEMENT_TESTS,
    "quat._Element._times": ELEMENT_TESTS,
    "quat.Quaternion.norm": ELEMENT_TESTS,
    "quat.Quaternion.inverse": ELEMENT_TESTS,
    "quat.scale_isomorphism": SCALING_TESTS,
    "quat._basis_multiple": SCALING_TESTS,
    "quat.zero_divisor_witness": ["tests/test_quat.py", "-k", "witness or zero_divisor"],
}

#: a mutant's tests may take MULTIPLE times as long as the target's tests
#: without a mutant, and at least FLOOR seconds, before it counts as killed.
#: Surviving mutants have taken up to 1.4 times their target's baseline;
#: the floor absorbs start-up noise where the tests take under a second.
MULTIPLE = 3
FLOOR = 10

Key = tuple[str, str, int, str]


def _recorded(
    target: str, line: str, changes: list[tuple[str, str]], why: str, occurrence: int = 0
) -> dict[Key, str]:
    """``SURVIVORS`` entries for the mutants of ``line``, the target's line
    of that text numbered ``occurrence`` from 0, that replace the first
    ``old`` by ``new``, for each pair in ``changes``, all equivalent for
    the reason ``why``."""
    return {(target, line, occurrence, line.replace(old, new, 1)): why for old, new in changes}


#: (target, original line, its occurrence, mutated line) -> why the mutant
#: is equivalent
SURVIVORS: dict[Key, str] = {
    **_recorded(
        "clifford.classify",
        "clifford_class = CliffordClass.DIVISION if sign < 0 else CliffordClass.SPLIT",
        [("sign < 0", "sign <= 0"), ("sign < 0", "sign < 1")],
        "the limit sign is -1 or 1: _certify raises before it could be 0",
    ),
    **_recorded(
        "quat._product", "len(xs) * count > 8 * dim", [("8", "9")],
        "it only moves pairs from packed rows to the pair loop, and both give the same slots",
    ),
    **_recorded(
        "fibquat._certify", "if limit_sign < 0:", [("< 0", "<= 0"), ("< 0", "< 1")],
        "the limit sign is -1 or 1: the zero check above raises before it could be 0",
    ),
    **_recorded(
        "fibquat._certify", "k = n // 2", [("2", "3")],
        "a lower jump only adds steps up to n, which are not tested, and more additions "
        "to step F(k), F(k+1) up to s; every sign test and every certificate is the same",
    ),
    **_recorded(
        "fibquat._certify", "if s > 0:", [(">", ">=")],
        "at s = 0 the witness reads the window at index 0, the seeds themselves, and the "
        "walk starts at index 0 from the same three values either way",
    ),
    **_recorded(
        "fibquat._certify", "for m in range(s, horizon + 1):", [("+ 1", "+ 2")],
        "the extra index is past the horizon, where v(m) has the limit sign, so n' stays",
    ),
    **_recorded(
        "fibquat._log2_bounds", "if (x < 0) == (y < 0):",
        [("x < 0", "x <= 0"), ("x < 0", "x < 1"), ("y < 0", "y <= 0"), ("y < 0", "y < 1")],
        "the branch changes only when x or y is 0, and then both pairs of bounds hold: "
        "x + y*sqrt 5 is |x| or |y|*sqrt 5, between M and 2^(L+2), and "
        "|x^2 - 5y^2| / (|x| + |y|*sqrt 5) is that same value; only the bracket's width "
        "changes, which moves no certificate",
    ),
    **_recorded(
        "fibquat._log2_bounds", "return top - 1, top + 2", [("+ 2", "+ 3")],
        "a looser upper bound: for the growing side it only lowers the bracket's jump, "
        "which adds steps, and for the bounded side it only raises the a-priori bound "
        "top, which a correct search never reaches; no certificate changes, and on the "
        "pinned ladder the growing side has coordinates of opposite signs",
    ),
    **_recorded(
        "fibquat._log2_bounds", "return norm - top - 3, norm - top + 1", [("- 3", "- 4")],
        "a looser lower bound: for the bounded side it only lowers the bracket's jump, "
        "which adds steps, and for the growing side it only raises the a-priori bound "
        "top, which a correct search never reaches; no certificate changes, and on the "
        "pinned ladder the bounded side has coordinates of one sign",
    ),
    **_recorded(
        "exactnum._sign_z5", "return sx if x * x > 5 * y * y else -sx", [(">", ">=")],
        "x^2 = 5y^2 has no solution in nonzero integers, and x, y != 0 here",
    ),
    **_recorded(
        "exactnum.QSqrt5.inverse", "if norm < 0:", [("< 0", "<= 0"), ("< 0", "< 1")],
        "the norm is nonzero here: the check above raises on 0",
    ),
    **_recorded(
        "exactnum._decimal", "if n.bit_length() < 1990:", [("<", "<="), ("1990", "1991")],
        "it only sends n of 1990 bits to str(n) instead of the split; both give the same "
        "digits, and 1990 bits is 600 digits, below CPython's least digit limit of 640",
    ),
    **_recorded(
        "exactnum._decimal",
        "low_digits = n.bit_length() * 3 // 20  # about half of n's digits",
        [("3 //", "4 //"), ("// 20", "// 21")],
        "any split 0 < low_digits < the digit count of n gives the same digits, as zfill "
        "pads the low piece, and for n of 1990 bits or more both are such splits",
    ),
    **_recorded(
        "quat._basis_multiple", "g = gcd(p, q) if q > 0 else -gcd(p, q)", [(">", ">=")],
        "q != 0: it is a nonzero scale's numerator",
    ),
    **_recorded(
        "quat.zero_divisor_witness",
        "if square > 0 and (r := isqrt(square)) * r == square:",
        [(">", ">=")],
        "square = -c_k*c0 is never 0: c0 = d1*d2 > 0, and c_k != 0 as b1, b2 != 0",
    ),
    **_recorded(
        "quat.zero_divisor_witness",
        "for x1, x2, x3, x4 in product(range(height, -1, -1), repeat=4):",
        [("-1,", "-2,")],
        "the norm is even in each coordinate, so a zero with a coordinate -1 has the zero "
        "|v| of the same height, which the descending scan meets first",
    ),
    **_recorded(
        "quat._packed_rows",
        "offsets, masks = (_layout if dim <= _MEMO_DIM else _layout.__wrapped__)(dim)",
        [("<=", "<")],
        "it only sends dim = _MEMO_DIM past the cache, to the same function",
    ),
    **_recorded(
        "quat._packed_rows", "m = max(n // 2, n - 6)", [("// 2", "// 3"), ("- 6", "- 7")],
        "any split 0 <= m <= n gives the same slots; m only trades rows held for left steps",
    ),
    **_recorded(
        "quat._packed_rows", "k = (h & -h).bit_length() - 1", [("&", "|")],
        "h | -h = -(h & -h), which has the same bit length",
    ),
    **_recorded(
        "quat._packed_rows", "hs: list[list[int]] = [[] for _ in range(1 << m)]",
        [("1 << m", "2 << m")], "only the lists of the low parts l < 2^m are read",
    ),
    **_recorded(
        "quat._packed_rows", "cs: list[list[int]] = [[] for _ in range(1 << m)]",
        [("1 << m", "2 << m")], "only the lists of the low parts l < 2^m are read",
    ),
    **_recorded(
        "quat._layout", "for k in range(dim.bit_length() - 1):", [("- 1", "+ 1")],
        "it builds masks for two generators past the rank, which zip(masks, parts) "
        "in _packed_rows never reads",
    ),
}

_BINARY = {
    ast.Add: [("+", "-")],
    ast.Sub: [("-", "+")],
    ast.Mult: [("*", "+")],
    ast.FloorDiv: [("//", "*")],
    ast.LShift: [("<<", ">>")],
    ast.RShift: [(">>", "<<")],
    ast.BitAnd: [("&", "|")],
    ast.BitOr: [("|", "&")],
    ast.BitXor: [("^", "|")],
}
_COMPARE = {
    ast.Lt: [("<", "<=")],
    ast.LtE: [("<=", "<")],
    ast.Gt: [(">", ">=")],
    ast.GtE: [(">=", ">")],
    ast.Eq: [("==", "!=")],
    ast.NotEq: [("!=", "==")],
    ast.Is: [("is", "is not")],
    ast.IsNot: [("is not", "is")],
}
_BOOLEAN = {ast.And: [("and", "or")], ast.Or: [("or", "and")]}


@dataclass(frozen=True)
class Mutant:
    target: str
    line: int  # 1-based, in the module
    occurrence: int  # of the line's text among the target's lines, from 0
    start: int  # character columns of the span on that line
    end: int
    new: str

    def apply(self, lines: list[str]) -> list[str]:
        text = lines[self.line - 1]
        mutated = list(lines)
        mutated[self.line - 1] = text[: self.start] + self.new + text[self.end :]
        return mutated

    def key(self, lines: list[str]) -> Key:
        text = lines[self.line - 1].strip()
        return self.target, text, self.occurrence, self.apply(lines)[self.line - 1].strip()


def _unmutated(node: ast.AST) -> list[ast.AST]:
    """The parts of ``node`` that no mutant changes: an f-string, which is one
    token, and annotations, which are never evaluated (the package's modules
    import ``annotations`` from ``__future__``)."""
    if isinstance(node, ast.JoinedStr):
        return [node]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    return []


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    body = tree.body
    for name in qualname.split("."):
        node = next(
            n for n in body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
        )
        body = node.body
    return node


def mutants(target: str, src: Path = SRC) -> tuple[Path, list[str], list[Mutant]]:
    """The module file of ``target`` in the package under ``src``, its
    lines, and the target's mutants."""
    module_name, qualname = target.split(".", 1)
    path = src / "fibclifford" / f"{module_name}.py"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    function = _find(ast.parse(text), qualname)
    # occurrences[line]: how many lines of the target above it read the same
    occurrences, seen = {}, {}
    for number in range(function.lineno, function.end_lineno + 1):
        stripped = lines[number - 1].strip()
        occurrences[number] = seen.get(stripped, 0)
        seen[stripped] = occurrences[number] + 1
    # operator tokens by position: ast gives the operands' spans, not the operators'
    tokens = [
        t for t in tokenize.generate_tokens(io.StringIO(text).readline)
        if t.type in (tokenize.OP, tokenize.NAME)
    ]

    def column(line: int, byte: int) -> int:
        return len(lines[line - 1].encode()[:byte].decode())

    def after(node: ast.AST) -> tuple[int, int]:
        return node.end_lineno, column(node.end_lineno, node.end_col_offset)

    def before(node: ast.AST) -> tuple[int, int]:
        return node.lineno, column(node.lineno, node.col_offset)

    def between(lo, hi, words: str) -> list[tuple[int, int, int]]:
        """The span (line, start, end) of the tokens ``words`` between lo and
        hi, as a list of one, or none."""
        names = words.split()
        for i, t in enumerate(tokens):
            run = tokens[i : i + len(names)]
            if lo <= t.start and run[-1].end <= hi and [u.string for u in run] == names:
                if t.start[0] == run[-1].end[0]:
                    return [(t.start[0], t.start[1], run[-1].end[1])]
        return []

    found: list[Mutant] = []

    def add(spans, new: str) -> None:
        found.extend(
            Mutant(target, line, occurrences[line], start, end, new) for line, start, end in spans
        )

    docstring = ast.get_docstring(function, clean=False) is not None
    statements = function.body[docstring:]
    skipped = {
        id(inner)
        for statement in statements
        for node in ast.walk(statement)
        for part in _unmutated(node)
        for inner in ast.walk(part)
    }
    for statement in statements:
        for node in ast.walk(statement):
            if id(node) in skipped:
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                left = node.left if isinstance(node, ast.BinOp) else node.target
                right = node.right if isinstance(node, ast.BinOp) else node.value
                suffix = "" if isinstance(node, ast.BinOp) else "="
                for old, new in _BINARY.get(type(node.op), []):
                    add(between(after(left), before(right), old + suffix), new + suffix)
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, lo, hi in zip(node.ops, operands, operands[1:]):
                    for old, new in _COMPARE.get(type(op), []):
                        add(between(after(lo), before(hi), old), new)
            elif isinstance(node, ast.BoolOp):
                for lo, hi in zip(node.values, node.values[1:]):
                    for old, new in _BOOLEAN[type(node.op)]:
                        add(between(after(lo), before(hi), old), new)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
                word = "-" if isinstance(node.op, ast.USub) else "not"
                spans = between(before(node), before(node.operand), word)
                # drop the spaces after the operator too
                spans = [
                    (line, start, len(lines[line - 1]) - len(lines[line - 1][end:].lstrip(" ")))
                    for line, start, end in spans
                ]
                add(spans, "")
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and node.lineno == node.end_lineno
            ):
                line, start = before(node)
                add([(line, start, after(node)[1])], str(node.value + 1))
    return path, lines, sorted(set(found), key=lambda m: (m.line, m.start, m.new))


# pytest under a hypothesis profile without the shrink phase or the example
# database: a failure is all a mutant needs, and shrinking one can take minutes
_RUN_PYTEST = """
import sys
import pytest
from hypothesis import Phase, settings
settings.register_profile(
    "mutate", database=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
settings.load_profile("mutate")
sys.exit(pytest.main(sys.argv[1:]))
"""


def run_tests(workdir: Path, tests: list[str], seed: int, limit: float | None = None) -> str:
    """'passed', 'failed' or 'timeout' for ``tests`` in ``workdir``, run for
    at most ``limit`` seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(workdir / "src"))
    argv = [
        sys.executable, "-c", _RUN_PYTEST, "-x", "-q", "-p", "no:cacheprovider",
        f"--hypothesis-seed={seed}", *tests,
    ]
    try:
        result = subprocess.run(
            argv, cwd=workdir, env=env, timeout=limit,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if result.returncode == 0 else "failed"


def stale_records() -> list[Key]:
    """The ``SURVIVORS`` keys that name no mutant of their target."""
    generated = set()
    for target in {key[0] for key in SURVIVORS}:
        _, lines, found = mutants(target)
        generated.update(mutant.key(lines) for mutant in found)
    return [key for key in SURVIVORS if key not in generated]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="TARGET")
    parser.add_argument("--hypothesis-seed", type=int, default=0)
    parser.add_argument("--check", action="store_true", help="exit 1 on an unrecorded survivor")
    args = parser.parse_args(argv)
    stale = stale_records()
    for target, line, occurrence, mutated in stale:
        print(f"{target}: stale record: {line!r} (#{occurrence}) -> {mutated!r}", flush=True)
    if stale:
        return 2
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(SRC, workdir / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", workdir / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        shutil.copy(ROOT / "README.md", workdir)
        for target in args.targets:
            tests = TESTS.get(target, ["tests"])
            path, lines, found = mutants(target)
            copy = workdir / "src" / path.relative_to(SRC)
            start = time.perf_counter()
            if run_tests(workdir, tests, args.hypothesis_seed) != "passed":
                print(f"{target}: the tests fail without a mutant", flush=True)
                return 2
            baseline = time.perf_counter() - start
            limit = max(FLOOR, MULTIPLE * baseline)
            print(
                f"{target}: the tests pass in {baseline:.1f} s without a mutant; "
                f"limit {limit:.1f} s per mutant",
                flush=True,
            )
            killed = 0
            for mutant in found:
                copy.write_text("".join(mutant.apply(lines)))
                outcome = run_tests(workdir, tests, args.hypothesis_seed, limit)
                key = mutant.key(lines)
                if outcome == "passed":
                    known = key in SURVIVORS
                    unexpected += not known
                    label = "survived (recorded)" if known else "SURVIVED"
                    print(f"{target}:{mutant.line}: {label}: {key[1]!r} -> {key[3]!r}", flush=True)
                else:
                    killed += 1
                    if outcome == "timeout":
                        print(f"{target}:{mutant.line}: timed out: {key[3]!r}", flush=True)
            copy.write_text("".join(lines))
            print(f"{target}: {killed} of {len(found)} mutants killed", flush=True)
    return 1 if args.check and unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
