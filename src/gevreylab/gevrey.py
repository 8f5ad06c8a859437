"""Gevrey-order prediction and measurement.

The theoretical side reads the order straight off the term structure of a
lifted equation: against the left side B u, of (t d_t)-order 0, each
right-hand term t^(j+b) d_t^b d_alpha carries the weight (b + |alpha|) / j,
and the equation's order is the largest weight present.

The empirical side fits the growth model ||y_n|| ~ C A^n (n!)^s to exact
coefficient norms, and checks coefficient bounds of monomial-Gevrey type
on finite truncations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import EmptyTermSet, InsufficientData, NonPositiveNorm
from .series import Exponent, Series, gauss_jordan
from .solver import LiftedEquation


def theoretical_order(eq: LiftedEquation) -> Fraction:
    """Largest weight (b + |alpha|) / j over the linear terms with a
    coefficient that is nonzero within its certified degree."""
    orders = [
        Fraction(b + sum(alpha), j)
        for (j, b, alpha), g in eq.linear.items()
        if not g.is_zero
    ]
    if not orders:
        raise EmptyTermSet("lifted equation has no nonzero linear term")
    return max(orders)


class GevreyEstimate:
    """Fitted order together with the per-step slopes it was averaged from."""

    __slots__ = ("fitted_order", "window", "slopes", "rho", "ln_A", "ln_C")

    def __init__(self, fitted_order: float, window: tuple[int, int],
                 slopes: list[float], rho: Fraction, ln_A: float, ln_C: float):
        self.fitted_order = fitted_order
        self.window = window
        self.slopes = slopes
        self.rho = Fraction(rho)
        self.ln_A = ln_A
        self.ln_C = ln_C

    def __repr__(self):
        return (f"GevreyEstimate(fitted_order={self.fitted_order:.4f}, "
                f"window={self.window})")


def _ln(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _ln_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def _least_squares(rows: Sequence[Sequence[float]],
                   ys: Sequence[float]) -> list[float]:
    """The c minimising sum (row . c - y)^2: the normal equations, summed in
    floats, solved exactly on the floats' rational values by the one
    Gauss-Jordan loop, then rounded back."""
    m = len(rows[0])
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(m)]
              for i in range(m)]
    rhs = [sum(r[i] * y for r, y in zip(rows, ys)) for i in range(m)]
    return [float(row[0]) for row in gauss_jordan(
        [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(normal, rhs)], m)]


def estimate_order(norms: Sequence[tuple[int, Fraction]],
                   window_fraction: float = 0.5,
                   rho: Fraction = Fraction(1, 2)) -> GevreyEstimate:
    """Fit ||y_n|| ~ C A^n (n!)^s on the top ``window_fraction`` of orders.

    The geometric factor is removed first by fitting ln C + n ln A + s ln n!
    jointly; the reported per-step slope at n is then
    (ln r_n - ln r_{n-1} - ln A) / ln n and the fitted order is the mean
    slope over the window.
    """
    data = sorted((int(n), Fraction(r)) for n, r in norms)
    pairs = [
        (n, r, rp)
        for (m, rp), (n, r) in zip(data, data[1:])
        if n == m + 1 and n >= 2
    ]
    if len(pairs) < 5:
        raise InsufficientData(
            f"{len(pairs)} usable consecutive orders; need at least 5")
    count = max(5, math.ceil(window_fraction * len(pairs)))
    window_pairs = pairs[-count:]
    for n, r, rp in window_pairs:
        if r <= 0 or rp <= 0:
            raise NonPositiveNorm(f"norm at order {n} is not positive")
    n_lo = window_pairs[0][0]
    n_hi = window_pairs[-1][0]
    lns = {n: _ln(r) for n, r, _ in window_pairs}
    lns[n_lo - 1] = _ln(window_pairs[0][2])
    # joint least squares ln r_n = ln C + n ln A + s ln n! over the window;
    # the factorial column's curvature separates it from the linear one.
    ln_C, ln_A, _ = _least_squares(
        [(1.0, float(n), _ln_factorial(n)) for n, _, _ in window_pairs],
        [lns[n] for n, _, _ in window_pairs])
    slopes = [
        (lns[n] - lns[n - 1] - ln_A) / math.log(n)
        for n, _, _ in window_pairs
    ]
    s = sum(slopes) / len(slopes)
    return GevreyEstimate(s, (n_lo, n_hi), slopes, rho, ln_A, ln_C)


# the largest asymptotic slope ln A that ``monomial_gevrey_fit`` accepts
SLOPE_CAP = math.log(10.0)


class MonomialFitVerdict:
    """Outcome of testing |a_beta| <= C A^|beta| min_j beta_j!^(s/alpha_j).

    ``witness`` carries admissible constants; a refutation carries the
    exponent beta that exceeds the bound by the widest margin at the
    slope cap SLOPE_CAP."""

    __slots__ = ("witness", "s", "alpha", "ln_A", "ln_C", "violating")

    def __init__(self, witness: bool, s: Fraction, alpha: Exponent, ln_A: float,
                 ln_C: float, violating: Exponent | None):
        self.witness = witness
        self.s = s
        self.alpha = alpha
        self.ln_A = ln_A
        self.ln_C = ln_C
        self.violating = violating

    def __bool__(self):
        return self.witness

    def __repr__(self):
        if self.witness:
            return (f"MonomialFitVerdict(witness, A<=e^{self.ln_A:.3f}, "
                    f"cap=e^{SLOPE_CAP:.3f})")
        return f"MonomialFitVerdict(refuted at beta={self.violating})"


def monomial_gevrey_fit(f: Series, alpha: Sequence[int], s) -> MonomialFitVerdict:
    """Log-linear feasibility of the monomial-Gevrey coefficient bound.

    For each stored nonzero coefficient the required excess
    v_beta = ln|a_beta| - min_j (s/alpha_j) ln(beta_j!) must stay below
    ln C + |beta| ln A.  A finite term set can always be covered by a big
    enough C, so the verdict hinges on the asymptotic slope: the least-
    squares slope of the per-degree maxima of v over the top half of the
    degrees must not exceed SLOPE_CAP."""
    alpha = tuple(alpha)
    s = Fraction(s)
    if sum(alpha) < 1:
        raise ValueError("alpha must be a nonzero multi-index")
    per_degree: dict[int, tuple[float, Exponent]] = {}
    for beta, c in f.terms.items():
        bound = min(float(s) / a * _ln_factorial(b)
                    for a, b in zip(alpha, beta) if a)
        v = _ln(abs(c)) - bound
        n = sum(beta)
        if n not in per_degree or v > per_degree[n][0]:
            per_degree[n] = (v, beta)
    if len(per_degree) < 2:
        return MonomialFitVerdict(True, s, alpha, 0.0,
                                  max((v for v, _ in per_degree.values()),
                                      default=0.0), None)
    degrees = sorted(per_degree)
    top = degrees[len(degrees) // 2:]
    if len(top) < 2:
        top = degrees[-2:]
    _, ln_A = _least_squares([(1.0, float(n)) for n in top],
                             [per_degree[n][0] for n in top])
    if ln_A <= SLOPE_CAP:
        ln_C = max(per_degree[n][0] - n * ln_A for n in degrees)
        return MonomialFitVerdict(True, s, alpha, ln_A, ln_C, None)
    worst = max(degrees, key=lambda n: per_degree[n][0] - n * SLOPE_CAP)
    return MonomialFitVerdict(False, s, alpha, ln_A, float("nan"),
                              per_degree[worst][1])
