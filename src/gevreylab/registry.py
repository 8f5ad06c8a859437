"""Built-in example problems with stored expected results.

Each entry generates a problem document from its parameters, and its
``verify`` hook compares a finished run against stored closed forms or
coefficient tables, raising RegressionMismatch on the first difference.

Notes on the stored values:

* ``eje1`` is kept in the shifted unknown y - 1, so that the solution
  vanishes at the origin; the leading stored coefficient is then forced
  by the recurrence to be 1/k! (the product formula for the remaining
  ones is unchanged).
* ``eje3`` stores the diagonal coefficients -a_n with a_0 = 0,
  a_1 = a_2 = 1 and a_n = (n-1)^2 a_{n-1} + (n-2)(n-3) a_{n-2}; the sign
  is fixed by writing the equation with the forcing on the right side.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (InputError, InsufficientData, NonPositiveNorm,
                     RegressionMismatch)
from .gevrey import monomial_gevrey_fit
from .series import format_monomial, iter_exponents


def eje3_table(upto: int) -> list[Fraction]:
    a = [Fraction(0), Fraction(1), Fraction(1)]
    for n in range(3, upto + 1):
        a.append((n - 1) ** 2 * a[n - 1] + (n - 2) * (n - 3) * a[n - 2])
    return a[:upto + 1]


def eje1_table(m: int, k: int, upto_j: int) -> list[Fraction]:
    """Coefficient of x^(j*m*k + k) in the shifted eje1 solution."""
    a = [Fraction(1, math.factorial(k))]
    for j in range(1, upto_j + 1):
        step = Fraction(math.factorial((j - 1) * m * k + k),
                        math.factorial((j - 1) * m * k))
        a.append(a[-1] * step)
    return a


def _compare_coefficients(name, y, expected, label="coefficient at {}"):
    """Raise RegressionMismatch at the first exponent e where y and the
    ``expected`` map (absent means 0) differ, named by ``label.format(e)``."""
    for e in sorted(set(y.terms) | set(expected)):
        got = y.coeff(e)
        want = expected.get(e, Fraction(0))
        if got != want:
            raise RegressionMismatch(
                name, f"{label.format(e)}: got {got}, expected {want}")


class ExampleEntry:
    __slots__ = ("name", "summary", "defaults", "document", "verify")

    def __init__(self, name, summary, defaults, document, verify):
        self.name = name
        self.summary = summary
        self.defaults = defaults
        self.document = document
        self.verify = verify


def _doc_eje1(params) -> str:
    m, k = params["m"], params["k"]
    if m < 1 or m * k < m + 1:
        raise InputError("param", "eje1 needs m >= 1 and m*k >= m+1 "
                                  "(the divisibility hypothesis)")
    return (
        f"dim 1; unknowns 1; order {k}\n"
        f"P = x1^{m + 1}\n"
        f"L {k} : ({k}) -> 1\n"
        f"F 1 = y1 + -1/{math.factorial(k)}*x1^{k}\n"
        f"option degree = {params['degree']}\n"
        f"option order = {params['order']}\n"
    )


def _verify_eje1(params, report):
    m, k = params["m"], params["k"]
    y = report["direct"][0]
    table = eje1_table(m, k, (y.trunc - k) // (m * k))
    expected = {}
    for j, c in enumerate(table):
        e = j * m * k + k
        if e <= y.trunc:
            expected[(e,)] = c
    _compare_coefficients("eje1", y, expected, "coefficient of x1^{0[0]}")


def _doc_eje3(params) -> str:
    return (
        "dim 2; unknowns 1; order 2\n"
        "P = x1*x2\n"
        "L 2 : (2,0) -> x1^2; (0,2) -> x2^2; (1,1) -> 2\n"
        "F 1 = 2*y1 + 2*x1*x2\n"
        f"option degree = {params['degree']}\n"
        f"option order = {params['order']}\n"
    )


def _verify_eje3(params, report):
    y = report["direct"][0]
    upto = y.trunc // 2
    table = eje3_table(upto)
    for e in y.terms:
        if e[0] != e[1]:
            raise RegressionMismatch(
                "eje3", f"unexpected off-diagonal coefficient at {e}")
    _compare_coefficients("eje3", y, {(n, n): -a for n, a in enumerate(table)},
                          "coefficient of (x1 x2)^{0[0]}")
    est = report["estimate"]
    if est is not None and abs(est.fitted_order - 2) > 0.35:
        raise RegressionMismatch(
            "eje3", f"fitted order {est.fitted_order:.3f} not near 2")


def _doc_ejeLast(params) -> str:
    k = params["k"]
    lines = [
        "dim 2; unknowns 1; order %d" % k,
        "P = x1*x2",
    ]
    for j in range(1, k + 1):
        lines.append(f"L {j} : ({j},0) -> x1")
    lines.append("F 1 = y1 + -1*x1 + -1*x2")
    lines.append(f"option degree = {params['degree']}")
    lines.append(f"option order = {params['order']}")
    return "\n".join(lines) + "\n"


def _verify_ejeLast(params, report):
    if params["k"] == 1:
        # solution x + eps + sum_{n>=1} n! x^(n+1) eps^n
        y = report["direct"][0]
        expected = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        n = 1
        while n + 1 + n <= y.trunc:
            expected[(n + 1, n)] = Fraction(math.factorial(n))
            n += 1
        _compare_coefficients("ejeLast", y, expected)
        est = report["estimate"]
        if est is not None and abs(est.fitted_order - 1) > 0.15:
            raise RegressionMismatch(
                "ejeLast", f"fitted order {est.fitted_order:.3f} not near 1")


def _doc_eje4(params) -> str:
    alpha = params["alpha"]
    k = params["k"]
    if not alpha or min(alpha) < 0 or sum(alpha) < 1:
        raise InputError("param", "eje4 needs a non-empty alpha with entries "
                                  ">= 0 and |alpha| >= 1")
    d = len(alpha)
    lines = [f"dim {d}; unknowns 1; order {k}",
             f"P = {format_monomial(alpha)}"]
    for j in range(1, k + 1):
        terms = [f"({','.join(map(str, beta))}) -> {format_monomial(beta)}"
                 for beta in iter_exponents(d, j)]
        lines.append(f"L {j} : " + "; ".join(terms))
    xsum = " + ".join(f"x{i + 1}" for i in range(d))
    lines.append(f"F 1 = -1*y1 + {xsum}")
    lines.append(f"option degree = {params['degree']}")
    lines.append(f"option order = {params['order']}")
    return "\n".join(lines) + "\n"


def _verify_eje4(params, report):
    alpha, k = params["alpha"], params["k"]
    fit = monomial_gevrey_fit(report["direct"][0], alpha, k)
    if not fit.witness:
        raise RegressionMismatch(
            "eje4", f"no Gevrey witness at s={k}; violating {fit.violating}")
    if params["alpha"] == (1, 1) and params["k"] == 1:
        y = report["direct"][0]
        # leading diagonal band: x1 + x2, then (-1)^n (2n-3)!! x^(n+1,n)+(n,n+1)
        expected = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        val = Fraction(-1)
        n = 1
        while 2 * n + 1 <= y.trunc:
            expected[(n + 1, n)] = val
            expected[(n, n + 1)] = val
            val = val * (-(2 * n + 1))
            n += 1
        _compare_coefficients("eje4", y, expected)


ENTRIES = {
    "eje1": ExampleEntry(
        "eje1",
        "scalar x^((m+1)k) d^k y = y - x^k/k! (shifted); closed-form table",
        {"m": 1, "k": 2, "degree": 30, "order": 14},
        _doc_eje1, _verify_eje1),
    "eje3": ExampleEntry(
        "eje3",
        "x1^2 x2^2 (x1^2 d1^2 + x2^2 d2^2 + 2 d1 d2) y = 2y + 2 x1 x2",
        {"degree": 40, "order": 20},
        _doc_eje3, _verify_eje3),
    "ejeLast": ExampleEntry(
        "ejeLast",
        "singular perturbation x2 * x1^2 d1 y (and higher) = y - x1 - x2",
        {"k": 1, "degree": 40, "order": 18},
        _doc_ejeLast, _verify_ejeLast),
    "eje4": ExampleEntry(
        "eje4",
        "P = x^alpha with Euler-type operators sum x^beta d_beta",
        {"alpha": (1, 1), "k": 1, "degree": 24, "order": 10},
        _doc_eje4, _verify_eje4),
}


def list_examples() -> list[tuple[str, str]]:
    return [(e.name, e.summary) for e in ENTRIES.values()]


def build_document(name: str, overrides: dict | None = None) -> tuple[str, dict]:
    if name not in ENTRIES:
        raise InputError("example", f"no example named {name!r}")
    entry = ENTRIES[name]
    params = dict(entry.defaults)
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise InputError(
                "param", f"unknown parameters for {name}: {sorted(unknown)}")
        for key, value in overrides.items():
            if isinstance(value, int) != isinstance(params[key], int):
                raise InputError("param", f"{name}: {key} takes a value like "
                                          f"{params[key]!r}")
        params.update(overrides)
    if "alpha" in params:
        params["alpha"] = tuple(params["alpha"])
    return entry.document(params), params


def run_example(name: str, overrides: dict | None = None) -> dict:
    """Parse, check, solve (both routes), estimate, and verify one entry.

    Returns the report dict; raises RegressionMismatch when the two routes
    disagree, when the theoretical order is not the document's order k
    (the solution is P-k-Gevrey) or on any difference from the stored
    expected values."""
    from .dsl import parse_problem

    text, params = build_document(name, overrides)
    run = parse_problem(text).run()
    direct = run.direct  # the oracle first: its errors take precedence
    if not run.agrees:
        raise RegressionMismatch(
            name, "pipeline and direct solutions disagree within "
                  f"certified degree {run.certified}")
    theo = run.theoretical
    if theo != run.problem.order:
        raise RegressionMismatch(
            name, f"theoretical order {theo} != {run.problem.order}")
    try:
        est = run.estimate
    except (InsufficientData, NonPositiveNorm):
        est = None
    report = {
        "params": params,
        "direct": direct,
        "theoretical": theo,
        "estimate": est,
        "certified_degree": run.certified,
    }
    ENTRIES[name].verify(params, report)
    return report
