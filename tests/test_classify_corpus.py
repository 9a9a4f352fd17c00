"""Byte-identical outputs on a recorded corpus.

``data/classify_corpus.jsonl`` holds one record per algebra: the inputs and
the JSON text (``json.dumps``) of ``growth_profile``, ``classify`` and the
threshold certificate (``horadam_invertibility_threshold`` for seeded
records, ``invertibility_threshold`` otherwise), as the library produced
them while it still computed each growth constant by two routes and
re-checked every identification per call.  The 56 records are:

- the four parameter fixtures;
- 40 small-height grid points cycling through the four sign quadrants,
  10 of them with seeds in [-9, 9];
- 12 points with beta1 = 1 and beta2 rounded down and up from the zero of
  E, (3*sqrt5 - 7)/2, at denominators of 25-46 digits; half of them carry
  seeds of 16-29 digits.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from fibclifford.clifford import (
    ClassificationReport,
    CliffordClass,
    classify,
    fibonacci_form,
    rank2_class,
)
from fibclifford.exactnum import parse_rat
from fibclifford.fibquat import (
    growth_profile,
    horadam_invertibility_threshold,
    invertibility_threshold,
)
from fibclifford.quat import AlgebraParams, is_division_algebra

CORPUS = [
    json.loads(line)
    for line in (Path(__file__).parent / "data" / "classify_corpus.jsonl")
    .read_text()
    .splitlines()
]


def test_corpus_shape():
    assert len(CORPUS) == 56
    assert sum(record["seeds"] is not None for record in CORPUS) == 16
    ladder = [r for r in CORPUS if len(r["beta2"]) > 40]
    assert len(ladder) == 12
    assert {json.loads(r["certificate"])["limit_sign"] for r in ladder} == {-1, 1}


@pytest.mark.parametrize(
    "record", CORPUS, ids=[f"{i}:{r['beta1']},{r['beta2'][:12]}" for i, r in enumerate(CORPUS)]
)
def test_recorded_outputs_are_byte_identical(record):
    params = AlgebraParams(parse_rat(record["beta1"]), parse_rat(record["beta2"]))
    p, q = record["seeds"] or (None, None)
    if p is None:
        certificate = invertibility_threshold(params)
    else:
        certificate = horadam_invertibility_threshold(params, p, q)
    assert json.dumps(growth_profile(params).to_json()) == record["growth_profile"]
    assert json.dumps(classify(params, p, q).to_json()) == record["classify"]
    assert json.dumps(certificate.to_json()) == record["certificate"]


def test_report_stores_what_classify_computes_and_reads_the_rest_off_it():
    """The report keeps eight fields; each of its six views equals its
    definition from them on every corpus input, including ``basepoint`` and
    ``quaternion_model``, which no corpus record prints."""
    assert [f.name for f in fields(ClassificationReport)] == [
        "params",
        "discriminant",
        "certificate",
        "form",
        "clifford_class",
        "seeds",
        "seeded_discriminant",
        "seeded_certificate",
    ]
    canonical = {CliffordClass.DIVISION: "H(1,1)", CliffordClass.SPLIT: "H(-1,-1)"}
    for record in CORPUS:
        params = AlgebraParams(parse_rat(record["beta1"]), parse_rat(record["beta2"]))
        report = classify(params, *(record["seeds"] or (None, None)))
        a, b = report.form.squares
        assert report.discriminant_sign == report.certificate.limit_sign
        assert report.basepoint == report.certificate.n_prime
        assert report.form == fibonacci_form(report.basepoint, params)
        assert report.input_is_division == is_division_algebra(params)
        assert report.clifford_class is rank2_class(report.form)
        assert report.canonical == canonical[report.clifford_class]
        assert report.scaling_witness == (abs(a), abs(b))
        assert report.quaternion_model == AlgebraParams(-a, -b)
