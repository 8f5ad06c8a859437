"""Tests for the order prediction and the growth-rate estimators."""

import math
from fractions import Fraction

import pytest

from gevreylab.errors import EmptyTermSet, InsufficientData, NonPositiveNorm
from gevreylab.gevrey import (GevreyEstimate, estimate_order,
                              monomial_gevrey_fit, theoretical_order)
from gevreylab.series import Series
from gevreylab.solver import LiftedEquation, build_lifted, reduce_problem

from test_solver import univariate_order2, bivariate_order2


def test_theoretical_order_term_weights():
    # each term t^(j+b) d_t^b d_alpha weighs (b + |alpha|) / j
    def order_of(*keys):
        dim = len(keys[0][2])
        one = Series.constant(dim, 8, 1)
        return theoretical_order(LiftedEquation(
            dim, 1, 1, None, [Series.zero(dim, 8)],
            {key: one for key in keys}, {}))

    assert order_of((1, 1, (0,))) == 1
    assert order_of((2, 0, (1, 0))) == Fraction(1, 2)
    assert order_of((2, 2, (1, 1))) == 2
    assert order_of((2, 0, (1, 0)), (2, 2, (1, 1))) == 2
    assert order_of((2, 2, (1, 1)), (2, 0, (1, 0))) == 2


def test_theoretical_order_examples():
    eq_bi = build_lifted(reduce_problem(bivariate_order2(), 12))
    assert theoretical_order(eq_bi) == 2
    eq_uni = build_lifted(reduce_problem(univariate_order2(), 14))
    assert theoretical_order(eq_uni) == 2


def test_theoretical_order_first_order():
    from gevreylab.diffops import DiffOperator
    from gevreylab.series import SeriesMatrix
    from gevreylab.solver import ProblemSpec
    trunc = 10
    P = Series.monomial(1, trunc, (2,))
    L1 = DiffOperator(1, 1, {(1,): Series.variable(1, trunc, 0)})
    prob = ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       SeriesMatrix([[Series.constant(1, trunc, -1)]]), {})
    eq = build_lifted(reduce_problem(prob, trunc))
    assert theoretical_order(eq) == 1


def test_theoretical_order_bounded_by_one():
    # only terms t^j d_alpha with |alpha| <= j give order at most 1
    dim = 1
    one = Series.constant(dim, 8, 1)
    linear = {(1, 0, (1,)): one, (2, 0, (2,)): one, (3, 0, (1,)): one}
    eq = LiftedEquation(dim, 1, 1, None, [Series.zero(dim, 8)], linear, {})
    assert theoretical_order(eq) <= 1


def test_theoretical_order_empty():
    eq = LiftedEquation(1, 1, 1, None, [Series.zero(1, 8)],
                        {(1, 0, (1,)): Series.zero(1, 8)}, {})
    with pytest.raises(EmptyTermSet):
        theoretical_order(eq)


def _synthetic_norms(s, A, upto, C=Fraction(3)):
    """Rational norms close to C A^n (n!)^s (exact when 2s is an integer)."""
    out = []
    for n in range(1, upto + 1):
        fact = Fraction(math.factorial(n))
        if s == Fraction(1, 2):
            # integer square root based approximation of sqrt(n!)
            val = Fraction(math.isqrt(fact.numerator * 10 ** 24), 10 ** 12)
        else:
            val = fact ** s
        out.append((n, C * Fraction(A) ** n * val))
    return out


@pytest.mark.parametrize("s", [Fraction(0), Fraction(1, 2), Fraction(1),
                               Fraction(2), Fraction(3)])
@pytest.mark.parametrize("A", [Fraction(1), Fraction(2), Fraction(1, 2)])
def test_estimate_calibration(s, A):
    est = estimate_order(_synthetic_norms(s, A, 60))
    assert abs(est.fitted_order - float(s)) < 0.1, (s, A, est.fitted_order)


def test_estimate_geometric_only():
    est = estimate_order([(n, Fraction(5) * Fraction(3) ** n)
                          for n in range(1, 40)])
    assert abs(est.fitted_order) < 0.1


def test_estimate_factorial_squared():
    norms = [(n, Fraction(math.factorial(n)) ** 2) for n in range(1, 30)]
    est = estimate_order(norms)
    assert 1.85 <= est.fitted_order <= 2.05


def test_estimate_bivariate_diagonal():
    from gevreylab.solver import solve_p_expansion
    pexp = solve_p_expansion(bivariate_order2(90), 40, 80)
    norms = [(n, r) for n, r, _ in pexp.norms(Fraction(1, 2))]
    est = estimate_order(norms)
    assert abs(est.fitted_order - 2.0) < 0.15


def test_estimate_insufficient_data():
    with pytest.raises(InsufficientData):
        estimate_order([(1, Fraction(1)), (2, Fraction(2)), (4, Fraction(3))])


def test_estimate_nonpositive():
    norms = [(n, Fraction(0)) for n in range(1, 12)]
    with pytest.raises(NonPositiveNorm):
        estimate_order(norms)


def test_estimate_fields():
    est = estimate_order(_synthetic_norms(Fraction(1), Fraction(1), 20))
    assert isinstance(est, GevreyEstimate)
    assert isinstance(est.fitted_order, float)
    assert est.rho == Fraction(1, 2) and type(est.rho) is Fraction
    lo, hi = est.window
    assert len(est.slopes) == hi - lo + 1


def test_monomial_fit_witness_factorial():
    f = Series(1, 20, {(n,): Fraction(math.factorial(n))
                       for n in range(1, 21)})
    verdict = monomial_gevrey_fit(f, (1,), 1)
    assert verdict
    assert verdict.ln_A < 0.5


def test_monomial_fit_refutation():
    f = Series(1, 16, {(n,): Fraction(math.factorial(n)) ** 2
                       for n in range(1, 17)})
    verdict = monomial_gevrey_fit(f, (1,), 1)
    assert not verdict
    assert verdict.violating is not None
    assert verdict.violating in f.terms


def test_monomial_fit_bivariate_diagonal():
    from gevreylab.solver import solve_direct
    prob = bivariate_order2(40)
    y = solve_direct(prob, 40)
    assert monomial_gevrey_fit(y[0], (1, 1), 2)
    assert not monomial_gevrey_fit(y[0], (1, 1), 0)


def test_monomial_fit_rejects_zero_alpha():
    with pytest.raises(ValueError):
        monomial_gevrey_fit(Series.zero(2, 4), (0, 0), 1)


def test_estimate_order_numbers_are_pinned():
    # the joint fit's numbers, to the bit, on factorial-squared growth
    norms = [(n, Fraction(math.factorial(n) ** 2 * 3 ** n, 7 + n))
             for n in range(16)]
    est = estimate_order(norms)
    assert (est.fitted_order, est.ln_A, est.ln_C, est.slopes[:2]) == (
        2.03473566353149, 0.9580717687318373, -1.9529046228615263,
        [2.0345900003043127, 2.0347070335697865])


def test_monomial_fit_slope_is_the_least_squares_slope():
    # the slope through the per-degree maxima v_n of the top half of the
    # degrees, against the closed form cov(n, v) / var(n)
    f = Series(1, 30, {(n,): Fraction(math.factorial(n) * 5 ** n, 3 + n)
                       for n in range(1, 30)})
    verdict = monomial_gevrey_fit(f, (1,), 1)
    v = {n: math.log(5 ** n / (3 + n)) for n in range(1, 30)}
    top = range(15, 30)
    mean_n, mean_v = sum(top) / len(top), sum(v[n] for n in top) / len(top)
    slope = (sum((n - mean_n) * (v[n] - mean_v) for n in top)
             / sum((n - mean_n) ** 2 for n in top))
    assert verdict and verdict.ln_A == pytest.approx(slope, abs=1e-12)
    assert verdict.ln_C == pytest.approx(
        max(v[n] - n * slope for n in v), abs=1e-9)
