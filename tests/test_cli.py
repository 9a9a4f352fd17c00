from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibclifford import cli
from fibclifford.cli import main, run_selftest
from fibclifford.clifford import DiagonalForm, blade_name, blade_product
from fibclifford.exactnum import MAX_LITERAL_DIGITS, _signed_sum, format_rat, parse_rat
from fibclifford.fib import fib
from oracles import fib_naive, int_from_decimal
from test_threshold_ladder import CAP_EDGE, SEEDS, ladder_params

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


@pytest.mark.parametrize(
    "squares", [["-3/2"], ["2", "-1", "1/3", "-5", "7/4", "-2/9", "3"]], ids=["rank-1", "rank-7"]
)
def test_clifford_table_json_is_json_dumps_of_the_whole_table(capsys, squares):
    """The JSON table is written one row at a time; its bytes are those of
    ``json.dumps`` of the table built here, in one piece, from ``blade_product``."""
    code, out, _ = run_cli(capsys, "clifford-table", "--squares", ",".join(squares), "--json")
    form = DiagonalForm(tuple(map(parse_rat, squares)))
    names = [blade_name(m) for m in range(form.dim)]
    table = []
    for i in range(form.dim):
        row = [blade_product(i, j, form) for j in range(form.dim)]
        table.append([_signed_sum([(*c.as_integer_ratio(), names[m])]) for c, m in row])
    assert code == 0
    assert out == json.dumps({"squares": squares, "blades": names, "table": table}) + "\n"


def test_clifford_table_caps_generators(capsys):
    code, out, err = run_cli(capsys, "clifford-table", "--squares", ",".join(["-1"] * 9))
    assert code == 2
    assert out == ""
    assert err == "--squares: 9 generators exceed the cap of 8\n"


def test_clifford_table_degenerate_square(capsys):
    code, _, err = run_cli(capsys, "clifford-table", "--squares", "1,0")
    assert code == 2
    assert "DegenerateFormError" in err


@pytest.mark.parametrize(
    "mode,digest",
    [
        ([], "1de4d77954b6e0986599c5b930811e990bdd8163b05e4573a2818c8289a430d0"),
        (["--json"], "b0d9131c9e61c94436799394d66ccdec975d2c95e6f551a40f094bfa4d724cff"),
    ],
    ids=["text", "json"],
)
def test_clifford_table_rank7_wide_squares_bytes_pinned(capsys, mode, digest):
    """Rank 7 with 20-digit numerators and denominators, past the text
    corpus's tables of one-digit squares at ranks up to 6: the SHA-256 of
    stdout."""
    rng = random.Random(29)
    squares = ",".join(
        f"{rng.choice(['', '-'])}{rng.randrange(10**19, 10**20)}/{rng.randrange(10**19, 10**20)}"
        for _ in range(7)
    )
    code, out, err = run_cli(capsys, "clifford-table", "--squares", squares, *mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("upper", [False, True], ids=["below", "above"])
def test_cap_edge_ladder_certifies_in_a_subprocess(upper):
    """The slowest inputs at the cap: a 4,000-digit denominator next to the
    zero of E, with 20-digit seeds.  The timeout only guards against a hang."""
    repo_root = Path(__file__).resolve().parent.parent
    p, q = SEEDS[-1]
    plain, *_, seeded = CAP_EDGE[3999][upper]
    argv = ["--beta1", "1", "--beta2", str(ladder_params(3999, upper).beta2)]
    argv += ["--p", str(p), "--q", str(q), "--json"]
    outputs = []
    for command in ("classify", "nprime"):
        result = subprocess.run(
            [sys.executable, "-m", "fibclifford", command, *argv],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(json.loads(result.stdout))
    report, cert = outputs
    assert (report["n_prime"], report["seeded_n_prime"]) == (plain[0], seeded[0])
    assert (cert["n_prime"], cert["horizon"], cert["limit_sign"]) == seeded


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


def declared_flags() -> dict[str, list[tuple[str, bool]]]:
    """Each subcommand's flags as (flag, required) pairs, in declared order."""
    return {
        name: [(a.option_strings[0], a.required) for a in p._actions if a.dest != "help"]
        for name, p in cli.build_parser().commands.items()
    }


def test_help_exits_zero(capsys):
    """The root and each subcommand print a usage line with every declared
    flag, required ones bare and optional ones in brackets, and exit 0."""
    commands = declared_flags()
    value_flags = cli.build_parser().value_flags
    expected = {"": f"usage: fibclifford [-h] {{{','.join(commands)}}} ..."}
    for name, flags in commands.items():
        words = [f"usage: fibclifford {name} [-h]"]
        for flag, required in flags:
            word = f"{flag} {flag[2:].upper()}" if flag in value_flags else flag
            words.append(word if required else f"[{word}]")
        expected[name] = " ".join(words)
    for name, usage in expected.items():
        code, out, _ = run_cli(capsys, *name.split(), "--help")
        assert code == 0
        assert " ".join(out.split("\n\n")[0].split()) == usage


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--beta1", "0", "--beta2", "--"], "--beta2"),
        (["classify", "--beta1", "0", "--beta2=--"], "--beta2"),
        (["fib", "--n", "--"], "--n"),
        (["clifford-table", "--squ=--"], "--squ"),
    ],
)
def test_double_dash_as_a_value_is_a_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.endswith(f"fibclifford: error: argument {flag}: expected one argument\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clifford-table", "--squ", "1,2"], "the following arguments are required: --squares"),
        (["clifford-table", "--squ", "-1,2"], "the following arguments are required: --squares"),
        (["classify", "--beta1", "1", "--beta2", "2", "--js"], "unrecognized arguments: --js"),
    ],
)
def test_abbreviated_flags_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.endswith(f"fibclifford: error: {message}\n")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["clifford-table", "--squ", "1,2"], "usage: fibclifford clifford-table [-h]"),
        (["classify", "--beta1", "1"], "usage: fibclifford classify [-h]"),
        (["classify", "--beta1", "1", "--beta2", "-1", "--p", "1"],
         "usage: fibclifford classify [-h]"),
        (["no-such-command"], "usage: fibclifford [-h]"),
    ],
    ids=["abbreviated-flag", "missing-flag", "handler", "no-command"],
)
def test_usage_error_prints_the_usage_of_its_subcommand(capsys, argv, usage):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(usage)


# -- robustness -------------------------------------------------------------------------

JUNK = ("", "-", "--", "-1", "--json=1", "--beta", "1/", "/2", "1/0", "0x10", "1e5", "+3",
        "1_0", "nan", "\u0663", "1,,2", "1,2,3", "--p=", ",", "-0/-1", "no-such-command")

ints_30_digit = st.integers(-(10**30), 10**30)
rat_literals = st.one_of(
    ints_30_digit.map(str),
    st.tuples(ints_30_digit, st.integers(1, 10**30)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
)
junk_tokens = st.one_of(st.sampled_from(JUNK), st.text(max_size=6), rat_literals)
# each flag's literals; None for a flag without a value
FLAG_VALUES = {
    "--beta1": rat_literals,
    "--beta2": rat_literals,
    "--p": ints_30_digit.map(str),
    "--q": ints_30_digit.map(str),
    "--n": st.integers(-5, 10**4).map(str),
    "--x": st.lists(rat_literals, min_size=4, max_size=4).map(",".join),
    "--y": st.lists(rat_literals, min_size=4, max_size=4).map(",".join),
    "--squares": st.lists(rat_literals, min_size=1, max_size=6).map(",".join),
    "--json": None,
    "--help": None,
}
GRAMMAR = {
    "classify": ("--beta1", "--beta2", "--p", "--q", "--json"),
    "nprime": ("--beta1", "--beta2", "--p", "--q", "--json"),
    "fib": ("--n",),
    "quat-mul": ("--beta1", "--beta2", "--x", "--y"),
    "quat-norm": ("--beta1", "--beta2", "--x"),
    "clifford-table": ("--squares", "--json"),
    "selftest": ("--json",),
    "no-such-command": (),
}


def test_fuzz_grammar_covers_every_declared_flag():
    declared = {name: tuple(flag for flag, _ in flags) for name, flags in declared_flags().items()}
    assert {name: GRAMMAR[name] for name in GRAMMAR if name != "no-such-command"} == declared
    for flag in cli.build_parser().value_flags:
        assert FLAG_VALUES[flag] is not None, flag


@st.composite
def fuzz_argv(draw) -> list[str]:
    """A command and its flags in a shuffled order, each flag dropped now and
    then or given a junk value, with up to three junk tokens or flags
    anywhere (``--help`` among them)."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    pieces = []
    for flag in GRAMMAR[command]:
        if draw(st.integers(0, 9)) == 9:
            continue
        values = FLAG_VALUES[flag]
        if values is None:
            pieces.append([flag])
        else:
            pieces.append([flag, draw(junk_tokens if draw(st.integers(0, 19)) == 19 else values)])
    pieces = draw(st.permutations(pieces))
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
        junk = draw(st.sampled_from([[flag], [flag, draw(junk_tokens)], [draw(junk_tokens)]]))
        pieces.insert(draw(st.integers(0, len(pieces))), junk)
    return [command] + [token for piece in pieces for token in piece]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_any_argv_exits_cleanly_and_repeatably(argv):
    """Commands, flags, literals of up to 30 digits and junk tokens in any
    order: cli.run returns 0, 1 or 2, raises nothing, prints no traceback,
    and a second run prints the same."""
    first = run_captured(argv)
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[2]
    assert run_captured(argv) == first


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


def test_closed_stdout_exits_one_without_a_traceback():
    """A reader that closes stdout after one line, as ``head -n 1`` does:
    the rank-8 table meets a broken pipe, and the command ends with exit 1
    and nothing on stderr."""
    repo_root = Path(__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "fibclifford", "clifford-table", "--squares", "1,2,3,4,5,6,7,8"]
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
    ) as child:
        assert child.stdout.readline().startswith(b"*")
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (1, b"")
