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
target not listed there) with ``pytest -x`` in a fresh copy of ``src/``
and ``tests/`` under a temporary directory, with a fixed hypothesis seed
and no shrinking, and is killed when they fail or run past ``TIMEOUT``
seconds.  A mutant that passes survives.  Each
survivor that ``SURVIVORS`` records is equivalent to the original, for
the reason given there; with ``--check`` the run exits 1 on any other.

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
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLASSIFY_TESTS = ["tests/test_classify_report.py", "tests/test_classify_corpus.py"]
SEEDED_TESTS = [*CLASSIFY_TESTS, "tests/test_fibquat.py"]
PRODUCT_TESTS = ["tests/test_clifford.py", "tests/test_integer_form.py"]

#: the tests each target's mutants run
TESTS = {
    "clifford.classify": CLASSIFY_TESTS,
    "fibquat._seeded_growth": SEEDED_TESTS,
    "fibquat._e_prime": SEEDED_TESTS,
    "quat._product": PRODUCT_TESTS,
    "quat._pair_loop": PRODUCT_TESTS,
}

#: seconds one mutant's tests may take before it counts as killed
TIMEOUT = 60

_CLASS = "clifford_class = CliffordClass.DIVISION if sign < 0 else CliffordClass.SPLIT"
_PRE = "and abs(xs[0][1] * ys[0][1]) < 1 << 63  # one term, to turn wide ones away fast"

#: (target, original line, mutated line) -> why the mutant is equivalent
SURVIVORS: dict[tuple[str, str, str], str] = {
    **{
        ("clifford.classify", _CLASS, _CLASS.replace("sign < 0", weaker)): (
            "the limit sign is -1 or 1: _certify raises before it could be 0"
        )
        for weaker in ("sign <= 0", "sign < 1")
    },
    ("quat._product", "len(xs) * len(ys) > 8 * dim", "len(xs) * len(ys) > 9 * dim"): (
        "it only moves pairs from packed rows to the pair loop, and both give the same slots"
    ),
    **{
        ("quat._product", _PRE, _PRE.replace(old, new)): (
            "a conjunct of the admission rule, like the full 63-bit bound below it, which "
            "alone keeps packed rows exact: a changed pre-test can only send a pair to the "
            "pair loop instead, which gives the same slots (len(xs), len(ys) >= 9 here)"
        )
        for old, new in (
            ("xs[0][1] *", "xs[1][1] *"),
            ("* ys[0][1]", "* ys[1][1]"),
            ("xs[0][1] * ys[0][1]", "xs[0][1] + ys[0][1]"),
            ("< 1 << 63", "<= 1 << 63"),
            ("< 1 << 63", "< 2 << 63"),
            ("< 1 << 63", "< 1 << 64"),
        )
    },
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
    start: int  # character columns of the span on that line
    end: int
    new: str

    def apply(self, lines: list[str]) -> list[str]:
        text = lines[self.line - 1]
        mutated = list(lines)
        mutated[self.line - 1] = text[: self.start] + self.new + text[self.end :]
        return mutated

    def key(self, lines: list[str]) -> tuple[str, str, str]:
        return self.target, lines[self.line - 1].strip(), self.apply(lines)[self.line - 1].strip()


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    body = tree.body
    for name in qualname.split("."):
        node = next(
            n for n in body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
        )
        body = node.body
    return node


def mutants(target: str) -> tuple[Path, list[str], list[Mutant]]:
    """The module file of ``target``, its lines, and the target's mutants."""
    module_name, qualname = target.split(".", 1)
    path = SRC / "fibclifford" / f"{module_name}.py"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    function = _find(ast.parse(text), qualname)
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
        found.extend(Mutant(target, line, start, end, new) for line, start, end in spans)

    docstring = ast.get_docstring(function, clean=False) is not None
    statements = function.body[docstring:]
    # f-strings are one token each, so nothing inside one is mutated
    formatted = {
        id(inner)
        for statement in statements
        for node in ast.walk(statement) if isinstance(node, ast.JoinedStr)
        for inner in ast.walk(node)
    }
    for statement in statements:
        for node in ast.walk(statement):
            if id(node) in formatted:
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


def run_tests(workdir: Path, tests: list[str], seed: int) -> str:
    """'passed', 'failed' or 'timeout' for ``tests`` in ``workdir``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(workdir / "src"))
    argv = [
        sys.executable, "-c", _RUN_PYTEST, "-x", "-q", "-p", "no:cacheprovider",
        f"--hypothesis-seed={seed}", *tests,
    ]
    try:
        result = subprocess.run(
            argv, cwd=workdir, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if result.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="TARGET")
    parser.add_argument("--hypothesis-seed", type=int, default=0)
    parser.add_argument("--check", action="store_true", help="exit 1 on an unrecorded survivor")
    args = parser.parse_args(argv)
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(SRC, workdir / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", workdir / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        for target in args.targets:
            tests = TESTS.get(target, ["tests"])
            path, lines, found = mutants(target)
            copy = workdir / "src" / path.relative_to(SRC)
            if run_tests(workdir, tests, args.hypothesis_seed) != "passed":
                print(f"{target}: the tests fail without a mutant", flush=True)
                return 2
            killed = 0
            for mutant in found:
                copy.write_text("".join(mutant.apply(lines)))
                outcome = run_tests(workdir, tests, args.hypothesis_seed)
                key = mutant.key(lines)
                if outcome == "passed":
                    known = key in SURVIVORS
                    unexpected += not known
                    label = "survived (recorded)" if known else "SURVIVED"
                    print(f"{target}:{mutant.line}: {label}: {key[1]!r} -> {key[2]!r}", flush=True)
                else:
                    killed += 1
                    if outcome == "timeout":
                        print(f"{target}:{mutant.line}: timed out: {key[2]!r}", flush=True)
            copy.write_text("".join(lines))
            print(f"{target}: {killed} of {len(found)} mutants killed", flush=True)
    return 1 if args.check and unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
