"""Tests for exact truncated series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gevreylab.errors import (DimensionMismatch, DivisibilityViolation,
                              SingularLinearPart, SingularMatrix)
from gevreylab.series import (INFINITE, Series, SeriesMatrix, format_rational,
                              invert_rational_matrix, iter_exponents)
from gevreylab.solver import invert_series_matrix


def S(dim, trunc, terms=()):
    return Series(dim, trunc, dict(terms))


def inverse(u):
    """The inverse of a unit series, as a 1x1 series matrix inverse."""
    return invert_series_matrix(SeriesMatrix([[u]])).entry(0, 0)


def test_mul_identity():
    f = S(2, 5, {(1, 2): Fraction(3), (0, 0): Fraction(1)})
    one = Series.constant(2, 5, 1)
    assert one * f == f


def test_mul_variables():
    x1 = Series.variable(2, 4, 0)
    x2 = Series.variable(2, 4, 1)
    assert (x1 * x2).terms == {(1, 1): Fraction(1)}


def test_mul_difference_of_squares():
    one = Series.constant(1, 2, 1)
    x = Series.variable(1, 2, 0)
    prod = (one + x) * (one - x)
    assert prod.terms == {(0,): Fraction(1), (2,): Fraction(-1)}
    assert prod.trunc == 2


def test_mul_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        Series.variable(1, 3, 0) * Series.variable(2, 3, 0)


def test_diff_examples():
    f = Series.monomial(2, 5, (2, 1))
    assert f.diff((1, 0)).terms == {(1, 1): Fraction(2)}
    g = Series.monomial(1, 5, (2,))
    assert g.diff((2,)).terms == {(0,): Fraction(2)}
    c = Series.constant(1, 5, 7)
    assert c.diff((1,)).is_zero


def test_diff_trunc_floor():
    f = Series.monomial(1, 2, (2,))
    assert f.diff((3,)).trunc == 0


def test_invert_unit_constant():
    u = Series.constant(1, 3, 2)
    assert inverse(u) == Series.constant(1, 3, Fraction(1, 2))


def test_invert_unit_geometric():
    u = Series.constant(1, 3, 1) - Series.variable(1, 3, 0)
    v = inverse(u)
    assert v.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}


def test_invert_unit_bivariate():
    u = Series.constant(2, 4, 1) + Series.monomial(2, 4, (1, 1))
    v = inverse(u)
    assert v.terms == {(0, 0): 1, (1, 1): -1, (2, 2): 1}
    assert (u * v).truncate(4) == Series.constant(2, 4, 1)


def test_invert_non_unit():
    with pytest.raises(SingularLinearPart):
        inverse(Series.variable(1, 3, 0))


def test_divide_exact_monomials():
    a = Series.monomial(2, 6, (2, 2))
    b = Series.monomial(2, 6, (1, 1))
    assert a.divide_exact(b).terms == {(1, 1): Fraction(1)}


def test_divide_exact_star_quotient():
    P = Series.monomial(2, 6, (1, 1))
    a = (P * P).scale(2) + P.scale(2)
    q = a.divide_exact(P)
    assert q.terms == {(0, 0): Fraction(2), (1, 1): Fraction(2)}


def test_divide_exact_violation():
    a = Series.variable(2, 4, 0)
    b = Series.variable(2, 4, 1)
    with pytest.raises(DivisibilityViolation) as err:
        a.divide_exact(b)
    assert err.value.monomial == (1, 0)


def test_divide_exact_unit_quotient():
    # germ-style division where the quotient is an infinite unit series
    one = Series.constant(2, 6, 1)
    x1 = Series.variable(2, 6, 0)
    P = Series.monomial(2, 6, (1, 1))
    a = P * (one + x1.scale(2))
    b = P * (one + x1)
    q = a.divide_exact(b)
    assert (b * q).equal_upto(a, q.trunc)


def test_order():
    f = Series.monomial(2, 5, (2, 0)) + Series.monomial(2, 5, (0, 3))
    assert f.order() == 2
    assert Series.zero(2, 5).order() is INFINITE
    assert Series.constant(2, 5, 5).order() == 0
    assert INFINITE > 10 ** 9


def test_majorant_norm():
    assert Series.zero(2, 3).majorant_norm(Fraction(1, 2)) == 0
    f = Series.variable(2, 3, 0).scale(3) - Series.variable(2, 3, 1).scale(2)
    assert f.majorant_norm(Fraction(1, 2)) == Fraction(5, 2)
    g = Series.constant(2, 3, 1) + Series.monomial(2, 3, (1, 1))
    assert g.majorant_norm(2) == 5


# -- randomized algebraic laws ----------------------------------------------

coefs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8))


def series_strategy(dim=2, trunc=4):
    exps = st.tuples(*[st.integers(0, trunc) for _ in range(dim)]).filter(
        lambda e: sum(e) <= trunc)
    return st.dictionaries(exps, coefs, max_size=5).map(
        lambda terms: Series(dim, trunc, terms))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    t = min((a * b).trunc, c.trunc, (b * c).trunc, a.trunc)
    assert ((a * b) * c).truncate(t).equal_upto(
        (a * (b * c)).truncate(t), t)
    lhs = a * (b + c)
    rhs = a * b + a * c
    t2 = min(lhs.trunc, rhs.trunc)
    assert lhs.equal_upto(rhs, t2)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_leibniz(a, b):
    e1 = (1, 0)
    lhs = (a * b).diff(e1)
    rhs = a.diff(e1) * b + a * b.diff(e1)
    t = min(lhs.trunc, rhs.trunc)
    assert lhs.equal_upto(rhs, t)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_divide_roundtrip(a, b):
    if b.is_zero:
        return
    prod = a * b
    try:
        q = prod.divide_exact(b)
    except DivisibilityViolation:
        return
    assert (b * q).equal_upto(prod, q.trunc)


@settings(max_examples=40, deadline=None)
@given(series_strategy())
def test_invert_roundtrip(u):
    if u.constant_term() == 0:
        with pytest.raises(SingularLinearPart):
            inverse(u)
        return
    v = inverse(u)
    assert (u * v).truncate(v.trunc) == Series.constant(2, v.trunc, 1)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_majorant_submultiplicative(a, b):
    rho = Fraction(1, 2)
    prod = a * b
    # discarding terms above trunc only lowers the left side
    assert prod.majorant_norm(rho) <= a.majorant_norm(rho) * b.majorant_norm(rho)


# -- canonical form and serialization ---------------------------------------

def test_no_zero_coefficients_stored():
    f = S(2, 4, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in f.terms


def test_json_roundtrip_and_order():
    f = S(2, 4, {(0, 2): Fraction(1, 3), (1, 0): Fraction(-2), (2, 0): Fraction(5)})
    data = f.to_json()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == [(1, 0), (2, 0), (0, 2)]  # graded lex
    assert data["terms"][0]["coef"] == "-2"
    assert Series.from_json(data) == f


def test_format_rational():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"


def test_iter_exponents():
    assert list(iter_exponents(2, 2)) == sorted(
        [(2, 0), (1, 1), (0, 2)], key=lambda e: list(iter_exponents(2, 2)).index(e))
    assert sum(1 for _ in iter_exponents(3, 4)) == 15


def test_rational_matrix_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_rational_matrix(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(SingularMatrix):
        invert_rational_matrix([[Fraction(1), Fraction(2)],
                                [Fraction(2), Fraction(4)]])


def test_series_matrix_ops():
    one, zero = Series.constant(1, 3, 1), Series.zero(1, 3)
    I = SeriesMatrix([[one, zero], [zero, one]])
    x = Series.variable(1, 3, 0)
    M = SeriesMatrix([[x, zero], [zero, x]])
    assert (I + M).entry(0, 0) == one + x
    v = [Series.constant(1, 3, 2), Series.constant(1, 3, 3)]
    assert I.apply(v) == v
    assert M.apply(v) == [x.scale(2), x.scale(3)]
