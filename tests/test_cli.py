from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fibclifford import cli
from fibclifford.cli import main, run_selftest
from fibclifford.exactnum import MAX_LITERAL_DIGITS, format_rat
from fibclifford.fib import fib
from oracles import fib_naive, int_from_decimal

EXPECTED_H1M1_REPORT = {
    "beta1": "1",
    "beta2": "-1",
    "E": {"a": "-2", "b": "-1"},
    "sign_E": -1,
    "input_is_division": False,
    "n_prime": 0,
    "form": ["-4", "-11"],
    "clifford_class": "Division",
    "canonical": "H(1,1)",
    "scaling_witness": ["4", "11"],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify -------------------------------------------------------------------


def test_classify_json_division_fixture(capsys):
    code, out, _ = run_cli(capsys, "classify", "--beta1", "1", "--beta2", "-1", "--json")
    assert code == 0
    assert json.loads(out) == EXPECTED_H1M1_REPORT
    assert '"clifford_class": "Division"' in out
    assert '"canonical": "H(1,1)"' in out


@pytest.mark.parametrize(
    "beta1,beta2,clifford_class,canonical",
    [
        ("1", "-1", "Division", "H(1,1)"),
        ("-2", "-3", "Split", "H(-1,-1)"),
        ("2", "-3", "Division", "H(1,1)"),
        ("-1/2", "-1/2", "Split", "H(-1,-1)"),
    ],
)
def test_every_fixture_reachable_via_classify(capsys, beta1, beta2, clifford_class, canonical):
    code, out, _ = run_cli(capsys, "classify", "--beta1", beta1, "--beta2", beta2, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["clifford_class"] == clifford_class
    assert data["canonical"] == canonical


def test_classify_text_report_contains_threshold(capsys):
    code, out, _ = run_cli(capsys, "classify", "--beta1", "-1/2", "--beta2", "-1/2")
    assert code == 0
    assert "n' = 1" in out
    assert "clifford class: Split" in out
    assert "canonical model: H(-1,-1)" in out


def test_classify_with_seeds(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--beta1", "1", "--beta2", "-1", "--p", "0", "--q", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 0 and data["q"] == 1
    assert data["seeded_n_prime"] == 0


def test_classify_degenerate_seeds_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--beta1", "1", "--beta2", "-1", "--p", "0", "--q", "0"
    )
    assert code == 2
    assert out == ""
    assert "IndeterminateError" in err
    assert "(0, 0)" in err


def test_output_is_byte_stable(capsys):
    args = ("classify", "--beta1", "-2", "--beta2", "-3", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("clifford-table", "--squares", "-1,-1", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- nprime ---------------------------------------------------------------------


def test_nprime_json(capsys):
    code, out, _ = run_cli(capsys, "nprime", "--beta1", "-1/2", "--beta2", "-1/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n_prime"] == 1
    assert data["limit_sign"] == 1
    assert set(data) == {"n_prime", "horizon", "limit_sign"}


def test_nprime_text_and_seeded(capsys):
    code, out, _ = run_cli(capsys, "nprime", "--beta1", "1", "--beta2", "-1")
    assert code == 0
    assert out.startswith("n' = 0")
    code, out, _ = run_cli(
        capsys, "nprime", "--beta1", "1", "--beta2", "-1", "--p", "0", "--q", "1", "--json"
    )
    assert code == 0
    assert json.loads(out)["n_prime"] == 0


# -- sequence and quaternion commands ----------------------------------------------


def test_fib_command(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "8")
    assert code == 0
    assert out.strip() == "21"


def test_quat_mul_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "quat-mul",
        "--beta1", "1", "--beta2", "1",
        "--x", "1,1,0,0",
        "--y", "1,0,1,0",
    )
    assert code == 0
    assert out.strip() == "1,1,1,1"


def test_quat_norm_command(capsys):
    code, out, _ = run_cli(
        capsys, "quat-norm", "--beta1", "1", "--beta2", "-1", "--x", "1,1,2,3"
    )
    assert code == 0
    assert out.strip() == "-11"


# -- clifford table -----------------------------------------------------------------


def test_clifford_table_text(capsys):
    code, out, _ = run_cli(capsys, "clifford-table", "--squares", "-1,-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["*", "1", "e1", "e2", "e1e2"]
    # row of e1: e1*e1 = -1, e1*e2 = e1e2, e1*e1e2 = -e2
    assert lines[2].split() == ["e1", "e1", "-1", "e1e2", "-e2"]


def test_clifford_table_json(capsys):
    code, out, _ = run_cli(capsys, "clifford-table", "--squares", "2,-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["squares"] == ["2", "-3"]
    assert data["blades"] == ["1", "e1", "e2", "e1e2"]
    assert data["table"][1][1] == "2"
    assert data["table"][3][3] == "6"


def test_clifford_table_caps_generators(capsys):
    code, _, err = run_cli(capsys, "clifford-table", "--squares", ",".join(["-1"] * 9))
    assert code == 1
    assert "at most 8" in err


def test_clifford_table_degenerate_square(capsys):
    code, _, err = run_cli(capsys, "clifford-table", "--squares", "1,0")
    assert code == 2
    assert "DegenerateFormError" in err


# -- usage errors ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["classify"],
        ["classify", "--beta1", "1"],
        ["classify", "--beta1", "1.5", "--beta2", "1"],
        ["classify", "--beta1", "1", "--beta2", "1/0"],
        ["classify", "--beta1", "1", "--beta2", "-1", "--p", "1"],
        ["fib", "--n", "-1"],
        ["quat-mul", "--beta1", "1", "--beta2", "1", "--x", "1,2,3", "--y", "1,0,0,0"],
        [],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ["nprime", "--beta1", "1", "--beta2", "-1", "--p", "1_0", "--q", "1"],
        ["nprime", "--beta1", "1", "--beta2", "-1", "--p", "1", "--q", "1_0"],
        ["fib", "--n", "1_0"],
        ["fib", "--n", "+5"],
        ["classify", "--beta1", "\u0663", "--beta2", "1"],
        ["clifford-table", "--squares", "1,,2"],
    ],
    ids=["p-underscore", "q-underscore", "n-underscore", "n-plus", "arabic-indic-digit",
         "empty-square"],
)
def test_literal_grammar_is_strict(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "fibclifford: error:" in err


@pytest.mark.parametrize("beta1,beta2", [("0", "-1"), ("1", "0")], ids=["beta1", "beta2"])
def test_zero_parameter_is_a_domain_error(capsys, beta1, beta2):
    code, out, err = run_cli(capsys, "classify", "--beta1", beta1, "--beta2", beta2)
    assert code == 2
    assert out == ""
    assert err.startswith("DegenerateAlgebraError:")


OVER_CAP = "9" * (MAX_LITERAL_DIGITS + 1)


@pytest.mark.parametrize(
    "argv,flag,digits",
    [
        (["classify", "--beta1", OVER_CAP, "--beta2", "-1"], "--beta1", len(OVER_CAP)),
        (["classify", "--beta1", "1", "--beta2", "1/" + OVER_CAP], "--beta2", len(OVER_CAP)),
        (["classify", "--beta1", "1", "--beta2", "9" * 5000], "--beta2", 5000),
        (["nprime", "--beta1", "1", "--beta2", "-1", "--p", "-" + OVER_CAP, "--q", "1"], "--p",
         len(OVER_CAP)),
        (["fib", "--n", OVER_CAP], "--n", len(OVER_CAP)),
    ],
    ids=["beta1", "beta2-denominator", "beta2-5000-digits", "p", "n"],
)
def test_literal_over_digit_cap_is_a_domain_error(capsys, argv, flag, digits):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"LiteralTooLongError: {flag}: {digits}-digit integer exceeds "
        f"the cap of {MAX_LITERAL_DIGITS} digits\n"
    )


def test_literal_at_digit_cap_succeeds(capsys):
    beta2 = "-" + "9" * MAX_LITERAL_DIGITS
    code, out, _ = run_cli(capsys, "classify", "--beta1", "1", "--beta2", beta2, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["beta2"] == beta2
    assert data["sign_E"] == -1


def test_fib_output_past_int_str_limit(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "30000")
    assert code == 0
    digits = out.strip()
    assert len(digits) == 6270 and digits[0] != "0"
    assert int_from_decimal(digits) == fib_naive(30000)


def test_fib_index_over_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "fib", "--n", str(cli.MAX_FIB_INDEX + 1))
    assert code == 2
    assert out == ""
    assert err == f"--n: {cli.MAX_FIB_INDEX + 1} exceeds the cap of {cli.MAX_FIB_INDEX}\n"


def test_fib_index_at_cap_succeeds(capsys):
    assert cli.MAX_FIB_INDEX > 30_099  # the benchmark's CLI session runs fib up to 30,000
    code, out, _ = run_cli(capsys, "fib", "--n", str(cli.MAX_FIB_INDEX))
    assert code == 0
    assert out.strip() == format_rat(fib(cli.MAX_FIB_INDEX))


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "classify" in out


# -- selftest ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: 7/7 groups passed" in out
    assert "FAIL" not in out


def test_selftest_json_lines(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"group", "status"}
        assert record["status"] == "PASS"


def test_selftest_fault_injection_detected(monkeypatch):
    original = cli.blade_product

    def flipped(mask_a, mask_b, form):
        coeff, mask = original(mask_a, mask_b, form)
        return (-coeff if (mask_a, mask_b) == (1, 2) else coeff), mask

    monkeypatch.setattr(cli, "blade_product", flipped)
    results = run_selftest()
    by_name = {name: ok for name, ok, _ in results}
    assert by_name["multiplication-table"] is False
    assert all(ok for name, ok in by_name.items() if name != "multiplication-table")


# -- module execution ---------------------------------------------------------------------


def test_python_dash_m_entry_point():
    repo_root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "fibclifford", "fib", "--n", "8"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "21"
