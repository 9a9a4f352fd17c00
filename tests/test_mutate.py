"""The mutation harness ``tests/mutate.py``: its mutant keys and its records."""

from __future__ import annotations

import mutate


def test_identical_lines_give_their_mutants_distinct_keys(tmp_path):
    """Two lines of one function read ``k = h + 1``: their mutants differ in
    the occurrence of the key, so a record for one leaves the other alone."""
    package = tmp_path / "fibclifford"
    package.mkdir()
    (package / "demo.py").write_text(
        "def twice(h):\n"
        "    k = h + 1\n"
        "    h = k\n"
        "    k = h + 1\n"
        "    return k\n"
    )
    _, lines, found = mutate.mutants("demo.twice", tmp_path)
    keys = [mutant.key(lines) for mutant in found]
    assert sorted(keys) == [
        ("demo.twice", "k = h + 1", occurrence, mutated)
        for occurrence in (0, 1)
        for mutated in ("k = h + 2", "k = h - 1")
    ]
    for occurrence in (0, 1):
        record = mutate._recorded("demo.twice", "k = h + 1", [("+", "-")], "why", occurrence)
        assert list(record) == [("demo.twice", "k = h + 1", occurrence, "k = h - 1")]


def test_every_tests_key_names_a_function_with_mutants():
    """A ``TESTS`` key left behind by a moved or renamed function would
    otherwise show only when someone runs that target."""
    unresolved = []
    for target in mutate.TESTS:
        try:
            _, _, found = mutate.mutants(target)
        except (StopIteration, FileNotFoundError):
            found = []
        if not found:
            unresolved.append(target)
    assert unresolved == []


def test_every_survivor_record_names_a_generated_mutant():
    assert mutate.stale_records() == []


def test_a_stale_record_stops_the_run_before_any_test(monkeypatch, capsys):
    stale = ("quat._product", "len(xs) * len(ys) > 8 * dim", 0, "len(xs) * len(ys) > 9 * dim")
    monkeypatch.setitem(mutate.SURVIVORS, stale, "the line was rewritten")
    assert mutate.main(["quat._product"]) == 2
    assert capsys.readouterr().out == (
        "quat._product: stale record: 'len(xs) * len(ys) > 8 * dim' (#0) -> "
        "'len(xs) * len(ys) > 9 * dim'\n"
    )


def test_each_mutant_runs_under_a_limit_from_its_targets_own_baseline(monkeypatch, capsys):
    """The run without a mutant has no limit; every mutant after it gets
    ``MULTIPLE`` times that run's time, or ``FLOOR`` seconds if that is
    longer."""
    limits = []

    def run_tests(workdir, tests, seed, limit=None):
        limits.append(limit)
        return "passed" if limit is None else "failed"

    monkeypatch.setattr(mutate, "run_tests", run_tests)
    for baseline, limit in ((100.0, mutate.MULTIPLE * 100.0), (0.0, mutate.FLOOR)):
        clock = iter([0.0, baseline])
        monkeypatch.setattr(mutate.time, "perf_counter", lambda: next(clock))
        limits.clear()
        assert mutate.main(["quat._constants"]) == 0
        assert limits == [None, limit]
        assert f"limit {limit:.1f} s per mutant" in capsys.readouterr().out
