"""The examples in ``README.md`` produce what the README says they do."""

from __future__ import annotations

import json
import re
from pathlib import Path

from fibclifford.cli import main
from fibclifford.fibquat import fibonacci_quaternion
from test_cli import declared_flags

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(lang: str, first_line: str) -> list[str]:
    """Lines of the fenced ``lang`` block whose first line starts with ``first_line``."""
    for body in re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S):
        lines = body.splitlines()
        if lines[0].startswith(first_line):
            return lines
    raise AssertionError(f"no {lang} block starts with {first_line!r}")


def test_classify_json_example(capsys):
    command, *output = _block("sh", "$ fibclifford classify")
    assert command == "$ fibclifford classify --beta1 1 --beta2 -1 --json"
    assert main(command.split()[2:]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads("".join(output))


def test_library_example():
    lines = _block("python", "from fractions import Fraction")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    cert, report = namespace["cert"], namespace["report"]
    assert any("# n' = 1: n(F(0)) = 0, stable + after" in line for line in lines)
    assert (cert.n_prime, cert.limit_sign) == (1, 1)
    assert fibonacci_quaternion(0, namespace["params"]).norm() == 0
    assert any("# Split, canonical H(-1,-1)" in line for line in lines)
    assert (report.clifford_class.value, report.canonical) == ("Split", "H(-1,-1)")


def test_cli_synopsis_matches_the_parser():
    """Each line of the synopsis under ``## CLI`` names a subcommand and its
    flags in declared order, required ones bare and optional ones in brackets."""
    synopsis = {}
    for line in _block("text", "fibclifford classify"):
        program, name, *words = line.split("#")[0].split()
        assert program == "fibclifford"
        flags, depth = [], 0
        for word in words:
            depth += word.count("[")
            if word.lstrip("[").startswith("--"):
                flags.append((word.strip("[]"), depth == 0))
            depth -= word.count("]")
        synopsis[name] = flags
    assert list(synopsis.items()) == list(declared_flags().items())
