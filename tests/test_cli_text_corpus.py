"""Byte-identical CLI text output on a recorded corpus.

``data/cli_text_corpus.jsonl`` holds one record per command line: its argv,
its stdout and its exit code, as the CLI produced them before the signed-sum
renderers of ``QSqrt5``, ``Quaternion``, ``CliffordElement`` and the
``clifford-table`` cells were merged into one.  The 48 records are:

- ``classify`` in text mode on the four parameter fixtures, 12 grid points
  of ``classify_corpus.jsonl`` (4 of them seeded) and 4 of its ladder points
  next to the zero of E (2 seeded, both limit signs);
- ``nprime`` in text mode, plain and seeded, on 11 of those inputs;
- ``clifford-table`` in text and ``--json`` at ranks 2-6, with fractional
  and negative squares;
- ``selftest`` in text mode, one each of ``fib``, ``quat-mul`` and
  ``quat-norm``, two domain errors and one usage error (empty stdout).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fibclifford.cli import main

CORPUS = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "cli_text_corpus.jsonl")
    .read_text()
    .splitlines()
]


def test_corpus_shape():
    assert len(CORPUS) == 48
    commands = [record["argv"][0] for record in CORPUS]
    assert commands.count("classify") == 22
    assert commands.count("nprime") == 12
    assert commands.count("clifford-table") == 10
    assert "selftest" in commands


@pytest.mark.parametrize(
    "record", CORPUS, ids=[f"{i}:{' '.join(r['argv'])[:40]}" for i, r in enumerate(CORPUS)]
)
def test_recorded_text_is_byte_identical(capsys, record):
    code = main(list(record["argv"]))
    assert capsys.readouterr().out == record["stdout"]
    assert code == record["exit_code"]
