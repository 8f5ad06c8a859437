"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line."""

import math
import random
import time
from fractions import Fraction

from gevreylab.cli import main
from gevreylab.diffops import DiffOperator, faadibruno, partial_star
from gevreylab.dsl import parse_problem
from gevreylab.errors import ParseError, SemanticError
from gevreylab.gevrey import estimate_order
from gevreylab.registry import ENTRIES, build_document, eje3_table, run_example
from gevreylab.series import Series, SeriesMatrix
from gevreylab.solver import (ProblemSpec, check_poincare, evaluate,
                              solve_direct, solve_p_expansion)

from instances import random_admissible_problem
from test_diffops import identity_rhs
from test_solver import univariate_order2, bivariate_order2, _poincare_problem


def _report(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_diagonal_recurrence_and_bounds():
    t0 = time.time()
    y = solve_direct(bivariate_order2(80), 80)
    diag = [-y[0].coeff((n, n)) for n in range(41)]
    table = eje3_table(40)
    recurrence_ok = diag == list(table)
    # phi = (1 + sqrt 5)/2 bracketed by rational endpoints; since the lower
    # endpoint is below phi, a_n <= lo^n (n-1)!^2 implies the phi bound
    s = math.isqrt(5 * 10 ** 40)
    lo = (1 + Fraction(s, 10 ** 20)) / 2
    bounds_ok = all(
        Fraction(math.factorial(n - 1)) ** 2 <= diag[n] <= lo ** n *
        Fraction(math.factorial(n - 1)) ** 2
        for n in range(3, 41))
    elapsed = time.time() - t0
    _report(1, "order-2 bivariate diagonal recurrence and growth bounds",
            recurrence_ok and bounds_ok and elapsed < 10)


def test_criterion_2_univariate_closed_form():
    t0 = time.time()
    y = solve_direct(univariate_order2(32), 32)
    ok = all(y[0].coeff((2 * j + 2,)) == Fraction(math.factorial(2 * j), 2)
             for j in range(15))
    _report(2, "univariate order-2 coefficients (2j)!/2",
            ok and time.time() - t0 < 5)


def test_criterion_3_oracle_equivalence():
    for name in ENTRIES:
        run_example(name, {})  # raises RegressionMismatch on any difference
    rng = random.Random(99)
    ok = True
    for _ in range(200):
        prob = random_admissible_problem(rng, trunc=8)
        direct = solve_direct(prob, 8)
        summed = evaluate(solve_p_expansion(prob, 6, 8))
        cert = min(min(s.trunc for s in summed), 8)
        if not all(a.equal_upto(b, cert) for a, b in zip(summed, direct)):
            ok = False
            break
    _report(3, "expansion pipeline equals direct solver, registry plus "
               "200 random instances", ok)


def _random_poly(rng, dim, trunc, degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, degree) for _ in range(dim))
        if sum(e) <= degree:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Series(dim, trunc, terms)


def test_criterion_4_derivative_of_powers_identity():
    rng = random.Random(41)
    checked = 0
    ok = True
    while checked < 500 and ok:
        dim = rng.randint(1, 3)
        P = _random_poly(rng, dim, 14, 3)
        if P.is_zero:
            continue
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        if not 1 <= sum(alpha) <= 4:
            continue
        table = faadibruno(P, alpha)
        n = rng.randint(1, 6)
        lhs = P.pow(n).diff(alpha)
        rhs = identity_rhs(table, n)
        if not lhs.equal_upto(rhs, min(lhs.trunc, rhs.trunc)):
            ok = False
        top = table.coefficient(sum(alpha))
        want = partial_star(alpha, P)
        if not top.equal_upto(want, min(top.trunc, want.trunc)):
            ok = False
        checked += 1
    _report(4, "500 randomized derivative-of-powers identity cases", ok)


def test_criterion_5_weighted_image_divisibility():
    rng = random.Random(17)
    checked = 0
    ok = True
    while checked < 200 and ok:
        prob = random_admissible_problem(rng, trunc=12)
        m = rng.randint(1, 3)
        h = _random_poly(rng, prob.dim, 12, 2)
        Pm = prob.P.pow(m)
        total = None
        for j, L in enumerate(prob.operators, start=1):
            if L is None:
                continue
            term = prob.P.pow(j - 1) * L.apply(h * Pm)
            total = term if total is None else total + term
        if total is None or total.is_zero:
            continue
        try:
            total.divide_exact(Pm)
        except Exception:
            ok = False
        checked += 1
    _report(5, "200 randomized weighted-image divisibility cases", ok)


def test_criterion_6_order_prediction_vs_measurement():
    ok = True
    r3 = run_example("eje3", {"degree": 80, "order": 40})
    ok &= abs(r3["estimate"].fitted_order - 2.0) < 0.15
    rl = run_example("ejeLast", {})
    ok &= abs(rl["estimate"].fitted_order - 1.0) < 0.15
    # a convergent instance: x y' = -y + x + y^2 has an analytic solution
    trunc = 60
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): Series.constant(1, trunc, 1)})
    prob = ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       SeriesMatrix([[Series.constant(1, trunc, -1)]]),
                       {(2,): [Series.constant(1, trunc, 1)]})
    y = solve_direct(prob, trunc)
    norms = [(n, abs(y[0].coeff((n,)))) for n in range(1, trunc + 1)]
    ok &= abs(estimate_order(norms).fitted_order) < 0.1
    for s in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
              Fraction(3)):
        for A in (Fraction(1), Fraction(2), Fraction(1, 2)):
            synth = []
            for n in range(1, 61):
                fact = Fraction(math.factorial(n))
                if s == Fraction(1, 2):
                    val = Fraction(math.isqrt(fact.numerator * 10 ** 24),
                                   10 ** 12)
                else:
                    val = fact ** s
                synth.append((n, 3 * A ** n * val))
            ok &= abs(estimate_order(synth).fitted_order - float(s)) < 0.1
    _report(6, "fitted orders match predictions and calibration", ok)


def test_criterion_7_solvability_condition_checker():
    ok = True
    verdict = check_poincare(_poincare_problem(1))
    ok &= (not verdict.ok) and verdict.failing == [1]
    for a0 in (-1, -2, -3):
        verdict = check_poincare(_poincare_problem(a0))
        ok &= verdict.ok and verdict.n_star is not None
        ok &= all(verdict.determinant(n) != 0
                  for n in range(verdict.n_star + 11))
    _report(7, "order-n solvability checker exact failing index and bound", ok)


def test_criterion_8_stirling_operator_identity():
    from gevreylab.diffops import falling_factorial, stirling_first
    ok = all(
        falling_factorial(n, j) == sum(stirling_first(j, l) * n ** l
                                       for l in range(1, j + 1))
        for j in range(1, 7) for n in range(11))
    _report(8, "Euler-operator expansion via signed Stirling numbers", ok)


_MALFORMED = [
    ("dim 1; unknowns 1; order 1\nP = 1 + x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n",
     SemanticError, "P-constant", 2),
    ("dim 1; unknowns 1; order 1\nP = x1 - x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n",
     SemanticError, "P-zero", 2),
    ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1\nF 1 = y1 + 1\n",
     SemanticError, "F-constant", 4),
    ("dim 2; unknowns 1; order 2\nP = x1*x2\nL 2 : (1,0) -> x1\nF 1 = y1 + x1\n",
     SemanticError, "alpha-order", 3),
    ("dim 1; unknowns 1; order 1\nP = x2\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n",
     SemanticError, "unknown-var", 2),
    ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> y1\nF 1 = y1 + x1\n",
     SemanticError, "y-in-coefficient", 3),
    ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n"
     "F 1 = y1\n", SemanticError, "dup-component", 5),
    ("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1/0\nF 1 = y1 + x1\n",
     SemanticError, "zero-denominator", 3),
    ("dim 1; unknowns 1\nP = x1\n", SemanticError, "missing", 3),
    ("dim 1; unknowns 1; order 1\nP = x1 @ 2\n", ParseError, "parse", 2),
]


def test_criterion_9_parser_roundtrip_errors_and_exit_codes(tmp_path):
    ok = True
    for name in ENTRIES:
        text, _ = build_document(name, {})
        canon = parse_problem(text).serialize()
        ok &= parse_problem(canon).serialize() == canon
    for text, kind, code, line in _MALFORMED:
        try:
            parse_problem(text)
            ok = False
        except kind as exc:
            ok &= exc.code == code and exc.line == line
        except Exception:
            ok = False
    bad = tmp_path / "bad.gl"
    bad.write_text(_MALFORMED[0][0], encoding="utf-8")
    ok &= main(["check", str(bad)]) == 3
    neither = tmp_path / "neither.gl"
    neither.write_text(
        "dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> 1\nF 1 = y1 + x1\n",
        encoding="utf-8")
    ok &= main(["check", str(neither)]) == 2
    good = tmp_path / "good.gl"
    good.write_text(build_document("eje3", {})[0], encoding="utf-8")
    ok &= main(["check", str(good)]) == 0
    ok &= main(["solve", str(good), "--out-dir", str(tmp_path / "out")]) == 0
    _report(9, "parser round trip, diagnostics, and exit codes", ok)
