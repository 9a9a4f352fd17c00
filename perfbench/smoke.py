"""Show that every check accepts a genuine output and rejects corrupted ones.

    python3 perfbench/smoke.py

Genuine outputs come from the package on small inputs; each corruption is
the kind of fault a check exists for: a shifted n', a flipped sign, a
negated coefficient.  ``run.py`` runs this pass before it measures.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def _negate_first(values):
    out = list(values)
    i = next(k for k, v in enumerate(out) if v != 0)
    out[i] = -out[i]
    return out


def _edit(data: dict, path: tuple, change) -> dict:
    bad = copy.deepcopy(data)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return bad


def _neg_text(text: str) -> str:
    return text[1:] if text.startswith("-") else "-" + text


def cases():
    """(name, check, genuine output, [corrupted outputs])."""
    from fibclifford import cli, clifford, fibquat, quat

    F = Fraction
    half = quat.AlgebraParams(F(-1, 2), F(-1, 2))
    report = clifford.classify(half).to_json()
    yield ("classify", lambda d: checks.check_classification(F(-1, 2), F(-1, 2), None, None, d),
           report, [_edit(report, ("n_prime",), lambda n: n + 1),
                    _edit(report, ("n_prime",), lambda n: n - 1),
                    _edit(report, ("sign_E",), lambda s: -s),
                    _edit(report, ("E", "a"), _neg_text),
                    _edit(report, ("form",), lambda f: [_neg_text(f[0]), f[1]]),
                    _edit(report, ("clifford_class",), lambda c: "Division")])

    h2m3 = quat.AlgebraParams(2, -3)
    seeded = clifford.classify(h2m3, 2, 5).to_json()
    yield ("classify seeded", lambda d: checks.check_classification(F(2), F(-3), 2, 5, d),
           seeded, [_edit(seeded, ("seeded_n_prime",), lambda n: n + 1),
                    _edit(seeded, ("E_prime", "a"), _neg_text)])

    b2 = F(-1459, 10000)
    ladder = quat.AlgebraParams(1, b2)
    cert = fibquat.invertibility_threshold(ladder).to_json()
    yield ("threshold", lambda d: checks.check_certificate(F(1), b2, 0, 1, d),
           cert, [_edit(cert, ("n_prime",), lambda n: n + 1),
                  _edit(cert, ("n_prime",), lambda n: n - 1),
                  _edit(cert, ("limit_sign",), lambda s: -s)])
    hcert = fibquat.horadam_invertibility_threshold(ladder, 31, -17).to_json()
    yield ("seeded threshold", lambda d: checks.check_certificate(F(1), b2, 31, -17, d),
           hcert, [_edit(hcert, ("n_prime",), lambda n: n + 1),
                   _edit(hcert, ("n_prime",), lambda n: n - 1)])

    b1, b2 = F(3, 5), F(-7, 2)
    params = quat.AlgebraParams(b1, b2)
    x, y = (F(1, 2), F(-3), F(2, 7), F(5)), (F(-4, 3), F(1), F(0), F(9, 2))
    qx, qy = quat.Quaternion.from_coeffs(params, x), quat.Quaternion.from_coeffs(params, y)
    prod = (qx * qy).coeffs
    yield ("quaternion product", lambda d: checks.check_quat_product(b1, b2, x, y, d),
           prod, [_negate_first(prod)])
    yield ("quaternion norm", lambda d: checks.check_quat_norm(b1, b2, x, d),
           qx.norm(), [-qx.norm(), qx.norm() + 1])
    inv = qx.inverse().coeffs
    yield ("quaternion inverse", lambda d: checks.check_quat_inverse(b1, b2, x, d),
           inv, [_negate_first(inv)])
    sx, sy = F(2, 3), F(-5)
    target, mapping = quat.scale_isomorphism(params, sx, sy)
    images = [im.coeffs for im in mapping.images]
    yield ("scaling", lambda d: checks.check_scaling(b1, b2, sx, sy, (target.beta1, target.beta2), d),
           images, [images[:2] + [_negate_first(images[2])] + images[3:]])
    witness = quat.zero_divisor_witness(quat.AlgebraParams(-2, -7)).coeffs
    yield ("zero divisor", lambda d: checks.check_zero_divisor(F(-2), F(-7), d),
           witness, [(witness[0] + 1, *witness[1:]), (0, 0, 0, 0)])

    squares = (F(-1), F(2, 3), F(5))
    form, table = clifford.DiagonalForm(squares), checks.BladeTable(squares)
    a = {m: F(m + 1, 2) * (-1) ** m for m in range(8)}
    b = {m: F(3 - m) for m in range(8) if m != 3}
    ea = clifford.CliffordElement(form, tuple(a.get(m, 0) for m in range(8)))
    eb = clifford.CliffordElement(form, tuple(b.get(m, 0) for m in range(8)))
    got = {m: c for m, c in enumerate((ea * eb).coeffs) if c}
    flipped = dict(got)
    flipped[max(got)] = -flipped[max(got)]
    yield ("clifford product", lambda d: checks.check_clifford_product(table, a, b, d),
           got, [flipped])

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["clifford-table", "--squares", "-1,2/3,5", "--json"])
    data = json.loads(out.getvalue())
    yield ("clifford table", lambda d: checks.check_clifford_table(squares, d),
           data, [_edit(data, ("table",), lambda t: [t[0], [_neg_text(s) for s in t[1]]] + t[2:])])

    selftest = '{"group": "polarization", "status": "PASS"}\n'
    yield ("selftest", checks.check_selftest, selftest,
           [selftest.replace("PASS", "FAIL"), ""])

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["fib", "--n", "300"])
    yield ("fib", lambda d: checks.check_fib(300, d), out.getvalue(),
           [str(int(out.getvalue()) + 1) + "\n", out.getvalue().strip()])


def run() -> list[str]:
    """Problems found; empty when every check behaves."""
    problems = []
    for name, check, good, corrupted in cases():
        try:
            check(good)
        except checks.CheckFailed as exc:
            problems.append(f"{name}: genuine output rejected: {exc}")
        for k, bad in enumerate(corrupted):
            try:
                check(bad)
            except checks.CheckFailed:
                continue
            problems.append(f"{name}: corruption {k} accepted")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    found = run()
    for line in found:
        print(line)
    print("smoke: " + ("FAIL" if found else "every check rejects its corrupted outputs"))
    sys.exit(1 if found else 0)
