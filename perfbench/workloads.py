"""The benchmark's two workloads.

A round of a workload is a list of at least 100 operations: the inputs,
the call that is timed, and the check of its output.  A run repeats whole
rounds until its time is up.  Every round has the same operations, of the
same sizes, on fresh values drawn from ``--seed`` and the round's number, so
no round repeats an earlier one's calls and a cache across calls cannot make
them cheaper.

- library_mix: the library called in-process, one round holding three
  parts, shuffled together:
  - the classify grid, the everyday request: ``classify`` over small-height
    points in all four sign quadrants.  Horizons stay at 0-3, so the time
    goes to repeated growth profiles and self-checks, not to certification.
    It holds the median.
  - the threshold ladder: thresholds and ``classify`` at beta1 = 1 with
    beta2 rounded from both sides of the zero of E at denominators of
    26 .. 49 digits.  Certification-bound, with large rationals.  It holds the
    90th percentile and most of the time.
  - algebra products: quaternion arithmetic, scaling isomorphisms, zero
    divisor witnesses and Clifford products at ranks 2-8; the dense
    products hold most of the rest of the time.
- cli_session: one client running ``python -m fibclifford`` as separate
  processes, one after another (closed loop).  Start-up and import hold the
  median; ``nprime`` on ladder points with 41-49-digit denominators holds
  the 90th percentile.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Callable

import checks

WORKLOADS = ("library_mix", "cli_session")

# The four parameter pairs of the README and the test suite.
FIXTURES = (
    (Fraction(1), Fraction(-1)),
    (Fraction(-2), Fraction(-3)),
    (Fraction(2), Fraction(-3)),
    (Fraction(-1, 2), Fraction(-1, 2)),
)

QUATERNION_ALGEBRAS = FIXTURES + ((Fraction(1), Fraction(1)), (Fraction(3, 5), Fraction(-7, 2)))

# Split algebras where zero_divisor_witness succeeds: by a closed form
# (a square among -b1, -b2, -b1*b2) and, for the last two, by its search.
WITNESS_ALGEBRAS = (
    (Fraction(-4), Fraction(-5)),
    (Fraction(3), Fraction(-9, 4)),
    (Fraction(2), Fraction(-2)),
    (Fraction(-1, 4), Fraction(5)),
    (Fraction(-2), Fraction(-7)),
    (Fraction(-3), Fraction(-6)),
)

# Scale factors of small height, so the cost of scale_isomorphism hardly
# moves with the seed.
SCALES = tuple(s * Fraction(a, b) for s in (1, -1) for a in range(2, 6) for b in range(2, 6)
               if a != b and Fraction(a, b).denominator == b)

LADDER_DIGITS = range(25, 49)
CLI_LADDER_DIGITS = range(40, 49)
DENSE_RANKS = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Op:
    """One timed call, its label, and the check of what it returned."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class OpFailed(Exception):
    """The operation ended in an error instead of a result."""


# -- input generators ---------------------------------------------------------


def grid(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """Distinct small-height points, cycling through the four sign quadrants."""
    quadrants = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    points: list[tuple[Fraction, Fraction]] = []
    while len(points) < count:
        s1, s2 = quadrants[len(points) % 4]
        point = (s1 * Fraction(rng.randint(1, 12), rng.randint(1, 6)),
                 s2 * Fraction(rng.randint(1, 12), rng.randint(1, 6)))
        if point not in points:
            points.append(point)
    return points


def small_seeds(rng: random.Random) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        if p or q:
            return p, q


def ladder_beta2(n: int, upper: bool) -> Fraction:
    """(3*sqrt5 - 7)/2, the zero of E at beta1 = 1, rounded down or up at 1/n.

    isqrt(45 n^2) < 3*sqrt5*n < isqrt(45 n^2) + 1, and halving keeps the floor.
    """
    lower = (isqrt(45 * n * n) - 7 * n) // 2
    return Fraction(lower + upper, n)


def ladder_denominator(rng: random.Random, digits: int) -> int:
    """A denominator in [10^digits, 2 * 10^digits); each further digit adds ~2.4 checked indices."""
    return rng.randrange(10**digits, 2 * 10**digits)


def big_seeds(rng: random.Random, digits: int) -> tuple[int, int]:
    p = rng.randint(10 ** (digits - 1), 10**digits - 1)
    q = rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits - 1)
    return p, q


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 9))


def nonzero_rational(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, den))


def quaternion_coeffs(rng: random.Random, b1, b2, invertible: bool = False) -> tuple[Fraction, ...]:
    while True:
        x = tuple(rational(rng) for _ in range(4))
        if not invertible or checks.quat_norm(b1, b2, x) != 0:
            return x


# -- library workloads ----------------------------------------------------------


def _quat(out, b1, b2) -> tuple[Fraction, ...]:
    checks.require((out.params.beta1, out.params.beta2) == (b1, b2),
                   f"result lives in H({out.params.beta1}, {out.params.beta2}), not H({b1}, {b2})")
    return out.coeffs


def _classify_op(clifford, quat, b1, b2, seeds) -> Op:
    params = quat.AlgebraParams(b1, b2)
    p, q = seeds if seeds else (None, None)
    return Op(
        f"classify H({b1}, {b2})" + (f" seeds ({p}, {q})" if seeds else ""),
        lambda: clifford.classify(params, p, q),
        lambda out: checks.check_classification(b1, b2, p, q, out.to_json()),
    )


def classify_grid(rng: random.Random) -> list[Op]:
    """200 grid points, a quarter of them seeded, and the four fixtures."""
    from fibclifford import clifford, quat

    points = grid(rng, 200)
    seeded = set(rng.sample(range(len(points)), len(points) // 4))
    ops = [_classify_op(clifford, quat, b1, b2, small_seeds(rng) if i in seeded else None)
           for i, (b1, b2) in enumerate(points)]
    ops += [_classify_op(clifford, quat, b1, b2, None) for b1, b2 in FIXTURES]
    rng.shuffle(ops)
    return ops


def threshold_ladder(rng: random.Random) -> list[Op]:
    """Two calls per denominator of k + 1 digits, k = 25..48, one from each side.

    Both sides of the zero of E appear at every size, so both limit signs
    do, and the function rotates over (k, side), so each of the three meets
    every depth.  The 48 calls cost within about 2.3x of each other, so the
    90th percentile of a round falls among many calls of like cost.
    """
    from fibclifford import clifford, fibquat, quat

    ops = []
    for k in LADDER_DIGITS:
        for upper in (False, True):
            b1, b2 = Fraction(1), ladder_beta2(ladder_denominator(rng, k), upper)
            params = quat.AlgebraParams(b1, b2)
            kind = (2 * k + upper) % 3
            if kind == 0:
                ops.append(Op(
                    f"invertibility_threshold k={k} beta2={b2}",
                    lambda params=params: fibquat.invertibility_threshold(params),
                    lambda out, b2=b2: checks.check_certificate(b1, b2, 0, 1, out.to_json()),
                ))
            elif kind == 1:
                p, q = big_seeds(rng, (5 * k + 7) // 8)
                ops.append(Op(
                    f"horadam_invertibility_threshold k={k} beta2={b2} seeds ({p}, {q})",
                    lambda params=params, p=p, q=q: fibquat.horadam_invertibility_threshold(params, p, q),
                    lambda out, b2=b2, p=p, q=q: checks.check_certificate(b1, b2, p, q, out.to_json()),
                ))
            else:
                ops.append(_classify_op(clifford, quat, b1, b2, None))
    rng.shuffle(ops)
    return ops


def _clifford_ops(clifford, rng: random.Random) -> list[Op]:
    ops = []

    def element(form, terms):
        coeffs = [Fraction(0)] * (1 << form.rank)
        for mask, c in terms.items():
            coeffs[mask] = c
        return clifford.CliffordElement(form, tuple(coeffs))

    def product(label, form, table, a, b):
        x, y = element(form, a), element(form, b)
        ops.append(Op(
            f"{label} rank {form.rank}",
            lambda: x * y,
            lambda out: checks.check_clifford_product(table, a, b, _blades(out)),
        ))

    for rank in range(2, 9):
        squares = tuple(nonzero_rational(rng, 5, 3) for _ in range(rank))
        form, table = clifford.DiagonalForm(squares), checks.BladeTable(squares)
        dim = 1 << rank
        gens = [1 << i for i in range(rank)]
        vector = {m: nonzero_rational(rng) for m in gens}
        bivector = {a | b: nonzero_rational(rng) for a in gens for b in gens if a < b}
        for _ in range(2):
            product("blade*blade", form, table,
                    {rng.randrange(1, dim): nonzero_rational(rng)},
                    {rng.randrange(1, dim): nonzero_rational(rng)})
        product("generator*vector", form, table, {rng.choice(gens): Fraction(1)}, vector)
        product("vector*vector", form, table, vector,
                {m: nonzero_rational(rng) for m in gens})
        product("bivector*vector", form, table, bivector, vector)
        if rank in DENSE_RANKS:
            product("dense*dense", form, table,
                    {m: nonzero_rational(rng) for m in range(dim)},
                    {m: nonzero_rational(rng) for m in range(dim)})
    return ops


def _blades(element) -> dict[int, Fraction]:
    coeffs = element.coeffs
    items = coeffs.items() if hasattr(coeffs, "items") else enumerate(coeffs)
    return {m: c for m, c in items if c}


def algebra_products(rng: random.Random) -> list[Op]:
    """124 operations whose cost classes do not move with the seed.

    Quaternion products, norms and inverses, closed-form witnesses and
    sparse Clifford products all cost less than one ``classify``; the twelve
    scaling isomorphisms and two witness searches take 8-17 ms, and the
    dense products at ranks 4-8 about a fifth of a round's time.
    """
    from fibclifford import clifford, quat

    ops = []
    for b1, b2 in QUATERNION_ALGEBRAS:
        params = quat.AlgebraParams(b1, b2)

        def q_of(coeffs, params=params):
            return quat.Quaternion.from_coeffs(params, coeffs)

        for _ in range(7):
            xc, yc = quaternion_coeffs(rng, b1, b2), quaternion_coeffs(rng, b1, b2)
            x, y = q_of(xc), q_of(yc)
            ops.append(Op(f"quaternion mul in H({b1}, {b2})", lambda x=x, y=y: x * y,
                          lambda out, b1=b1, b2=b2, xc=xc, yc=yc:
                          checks.check_quat_product(b1, b2, xc, yc, _quat(out, b1, b2))))
        for _ in range(2):
            xc = quaternion_coeffs(rng, b1, b2)
            x = q_of(xc)
            ops.append(Op(f"quaternion norm in H({b1}, {b2})", lambda x=x: x.norm(),
                          lambda out, b1=b1, b2=b2, xc=xc: checks.check_quat_norm(b1, b2, xc, out)))
        for _ in range(2):
            xc = quaternion_coeffs(rng, b1, b2, invertible=True)
            x = q_of(xc)
            ops.append(Op(f"quaternion inverse in H({b1}, {b2})", lambda x=x: x.inverse(),
                          lambda out, b1=b1, b2=b2, xc=xc:
                          checks.check_quat_inverse(b1, b2, xc, _quat(out, b1, b2))))
        for _ in range(2):
            sx, sy = rng.choice(SCALES), rng.choice(SCALES)
            ops.append(Op(
                f"scale_isomorphism H({b1}, {b2}) by ({sx}, {sy})",
                lambda params=params, sx=sx, sy=sy: quat.scale_isomorphism(params, sx, sy),
                lambda out, b1=b1, b2=b2, sx=sx, sy=sy: checks.check_scaling(
                    b1, b2, sx, sy, (out[0].beta1, out[0].beta2),
                    [_quat(image, out[0].beta1, out[0].beta2) for image in out[1].images]),
            ))
    for b1, b2 in WITNESS_ALGEBRAS:
        params = quat.AlgebraParams(b1, b2)
        ops.append(Op(
            f"zero_divisor_witness H({b1}, {b2})",
            lambda params=params: _found(quat.zero_divisor_witness(params)),
            lambda out, b1=b1, b2=b2: checks.check_zero_divisor(b1, b2, _quat(out, b1, b2)),
        ))
    ops += _clifford_ops(clifford, rng)
    rng.shuffle(ops)
    return ops


def _found(witness):
    if witness is None:
        raise OpFailed("no zero divisor returned")
    return witness


# -- the CLI as separate processes ----------------------------------------------


class Cli:
    """Runs ``python -m fibclifford`` from the checkout's ``src``, one call at a time.

    Output goes to unlinked temporary files so a large table cannot fill a
    pipe, and each child is reaped with wait4 for its own peak RSS.  With
    ``spans`` set, each call runs under ``clishim.py``, which records the
    call's spans into that file.
    """

    def __init__(self, root: Path, scratch: Path) -> None:
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        self.scratch = scratch
        self.shim = str(Path(__file__).with_name("clishim.py"))
        self.spans: Path | None = None
        self.peak_rss_kb = 0
        self._out = self._err = None

    def __call__(self, argv: list[str]) -> bytes:
        """The call's stdout; raises OpFailed if it exits nonzero."""
        if self._out is None:
            self._out = tempfile.TemporaryFile(dir=self.scratch)
            self._err = tempfile.TemporaryFile(dir=self.scratch)
        for f in (self._out, self._err):
            f.seek(0)
            f.truncate()
        if self.spans is None:
            command = [sys.executable, "-m", "fibclifford", *argv]
        else:
            command = [sys.executable, self.shim, str(self.spans), *argv]
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=self._out,
                                stderr=self._err, env=self.env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            self._err.seek(0)
            raise OpFailed(f"exit {proc.returncode}: {self._err.read().decode(errors='replace').strip()}")
        self._out.seek(0)
        return self._out.read()

    def close(self) -> None:
        for f in (self._out, self._err):
            if f is not None:
                f.close()
        self._out = self._err = None


def _cli_op(cli: Cli, argv: list[str], check: Callable[[bytes], None]) -> Op:
    return Op(" ".join(argv), lambda: cli(argv), check)


def _json_line(stdout: bytes):
    text = stdout.decode()
    checks.require(text.endswith("\n") and text.count("\n") == 1, "expected one line of output")
    return json.loads(text)


def _algebra_args(b1, b2) -> list[str]:
    return ["--beta1", str(b1), "--beta2", str(b2)]


def _classify_cli(cli, b1, b2, seeds) -> Op:
    p, q = seeds if seeds else (None, None)
    argv = ["classify", *_algebra_args(b1, b2), "--json"]
    if seeds:
        argv += ["--p", str(p), "--q", str(q)]
    return _cli_op(cli, argv, lambda out: checks.check_classification(b1, b2, p, q, _json_line(out)))


def _nprime_cli(cli, b1, b2, seeds) -> Op:
    argv = ["nprime", *_algebra_args(b1, b2), "--json"]
    if seeds:
        argv += ["--p", str(seeds[0]), "--q", str(seeds[1])]
    p, q = seeds or (0, 1)
    return _cli_op(cli, argv, lambda out: checks.check_certificate(b1, b2, p, q, _json_line(out)))


def _fib_cli(cli, n: int) -> Op:
    return _cli_op(cli, ["fib", "--n", str(n)], lambda out: checks.check_fib(n, out.decode()))


def _quat_cli(cli, rng: random.Random, command: str) -> Op:
    b1, b2 = rng.choice(QUATERNION_ALGEBRAS)
    x, y = quaternion_coeffs(rng, b1, b2), quaternion_coeffs(rng, b1, b2)
    argv = [command, *_algebra_args(b1, b2), "--x", ",".join(map(str, x))]
    if command == "quat-norm":
        return _cli_op(cli, argv, lambda out: checks.check_quat_norm(
            b1, b2, x, checks.parse_rational(out.decode().rstrip("\n"))))
    argv += ["--y", ",".join(map(str, y))]
    return _cli_op(cli, argv, lambda out: checks.check_quat_product(
        b1, b2, x, y, [checks.parse_rational(c) for c in out.decode().rstrip("\n").split(",")]))


def _table_cli(cli, rng: random.Random, rank: int) -> Op:
    squares = tuple(nonzero_rational(rng, 5, 3) for _ in range(rank))
    argv = ["clifford-table", "--squares", ",".join(map(str, squares)), "--json"]
    return _cli_op(cli, argv, lambda out: checks.check_clifford_table(squares, _json_line(out)))


def cli_session(rng: random.Random, cli: Cli) -> list[Op]:
    """102 commands per round; ``fib --n 30000`` is the one that fails today.

    Most commands cost an interpreter start and the package import plus a
    few ms, so their times differ by little more than noise.  The 90th
    percentile is set by the 18 ``nprime`` calls on ladder points with
    41-49-digit denominators (each side of the zero of E at every size),
    which cost about 100 ms of certification more: with ``selftest`` above
    them they are the top 19 of 102, and the percentile falls in their
    middle, clear of the edge of the start-up noise.

    The seed picks the points, seeds, coefficients and squares, not the
    command mix or the sizes, so the cost of a round does not move with it.
    ``fib --n 30000`` is fixed: its 6,270-digit result trips CPython's
    4,300-digit int-to-str limit and the CLI exits 1 on every run.
    """
    points = grid(rng, 38)
    ops = [_classify_cli(cli, b1, b2, None) for b1, b2 in FIXTURES]
    ops += [_classify_cli(cli, b1, b2, None) for b1, b2 in points[:26]]
    ops += [_classify_cli(cli, b1, b2, small_seeds(rng)) for b1, b2 in points[26:34]]
    ops += [_nprime_cli(cli, b1, b2, None) for b1, b2 in points[:8]]
    ops += [_nprime_cli(cli, b1, b2, small_seeds(rng)) for b1, b2 in points[34:38]]
    ops += [_nprime_cli(cli, Fraction(1), ladder_beta2(ladder_denominator(rng, k), upper), None)
            for k in CLI_LADDER_DIGITS for upper in (False, True)]
    ops += [_fib_cli(cli, n + rng.randrange(100)) for n in (100, 1000, 5000, 10000, 19900) * 2]
    ops.append(_fib_cli(cli, 30000))
    ops += [_quat_cli(cli, rng, command) for command in ("quat-mul", "quat-norm") * 6]
    ops += [_table_cli(cli, rng, rank) for rank in (2, 3, 4, 5, 6) * 2]
    ops.append(_cli_op(cli, ["selftest", "--json"], lambda out: checks.check_selftest(out.decode())))
    rng.shuffle(ops)
    return ops


def library_mix(rng: random.Random) -> list[Op]:
    """376 operations: the classify grid (204), the ladder (48), algebra products (124)."""
    ops = classify_grid(rng) + threshold_ladder(rng) + algebra_products(rng)
    rng.shuffle(ops)
    return ops


def build(name: str, seed: int, round_no: int = 0, cli: Cli | None = None) -> list[Op]:
    """The operations of round ``round_no`` of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}:{round_no}")
    if name == "cli_session":
        import fibclifford.cli  # noqa: F401 - what every CLI call imports
        return cli_session(rng, cli)
    return library_mix(rng)
