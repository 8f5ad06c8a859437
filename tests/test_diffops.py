"""Tests for operators, star maps, coefficient tables, and combinatorics."""

import random
from fractions import Fraction

import pytest

from gevreylab.diffops import (DiffOperator, check_divisibility, faadibruno,
                               falling_factorial, partial_star, stirling_first)
from gevreylab.series import Series


def const(dim, trunc, c):
    return Series.constant(dim, trunc, c)


def identity_rhs(table, n):
    """sum_j n!/(n-j)! P^(n-j) A_{alpha,j} -- should equal d_alpha(P^n)."""
    P = table.P
    out = None
    for j, A in table.A.items():
        if j > n:
            continue
        term = P.pow(n - j) * A.scale(falling_factorial(n, j))
        out = term if out is None else out + term
    if out is None:
        return Series.zero(P.dim, P.trunc)
    return out


def example_L2(trunc=8):
    return DiffOperator(2, 2, {
        (2, 0): Series.monomial(2, trunc, (2, 0)),
        (0, 2): Series.monomial(2, trunc, (0, 2)),
        (1, 1): const(2, trunc, 2),
    })


def test_apply_first_order():
    L = DiffOperator(1, 1, {(1,): const(1, 5, 1)})
    f = Series.monomial(1, 5, (2,))
    assert L.apply(f).terms == {(1,): Fraction(2)}


def test_apply_example_operator():
    L = example_L2()
    f = Series.monomial(2, 8, (1, 1))
    assert L.apply(f) == const(2, 6, 2)


def test_apply_constant_gives_zero():
    L = example_L2()
    assert L.apply(const(2, 8, 9)).is_zero


def test_star_example_operator():
    L = example_L2()
    P = Series.monomial(2, 8, (1, 1))
    got = L.star(P)
    want = (P * P).scale(2) + P.scale(2)
    assert got.equal_upto(want, min(got.trunc, want.trunc))


def test_star_singular_perturbation():
    # L = x d_x^k in variables (x, eps), P = x*eps -> x*eps^k
    trunc = 8
    for k in (1, 2, 3):
        L = DiffOperator(2, k, {(k, 0): Series.variable(2, trunc, 0)})
        P = Series.monomial(2, trunc, (1, 1))
        got = L.star(P)
        assert got.terms == {(1, k): Fraction(1)}


def test_star_order_one_is_apply():
    L = DiffOperator(1, 1, {(1,): const(1, 5, 1)})
    P = Series.variable(1, 5, 0)
    assert L.star(P) == L.apply(P)


def test_partial_star():
    P = Series.monomial(2, 6, (1, 1))
    assert partial_star((1, 0), P).terms == {(0, 1): Fraction(1)}
    assert partial_star((1, 1), P).terms == {(1, 1): Fraction(1)}
    Q = Series.monomial(1, 6, (2,))
    assert partial_star((2,), Q).terms == {(2,): Fraction(4)}


def test_faadibruno_base_case():
    P = Series.monomial(2, 6, (1, 1)) + Series.monomial(2, 6, (2, 0))
    table = faadibruno(P, (1, 0))
    assert table.coefficient(1) == P.diff((1, 0))


def test_faadibruno_top_is_partial_star():
    P = Series.monomial(2, 6, (1, 1)) + Series.monomial(2, 6, (0, 2))
    for alpha in [(2, 0), (1, 1), (2, 1), (0, 3)]:
        table = faadibruno(P, alpha)
        top = table.coefficient(sum(alpha))
        want = partial_star(alpha, P)
        assert top.equal_upto(want, min(top.trunc, want.trunc))


def test_faadibruno_univariate_square():
    P = Series.monomial(1, 12, (2,))
    table = faadibruno(P, (2,))
    assert table.coefficient(1) == const(1, 10, 2)
    assert table.coefficient(2).terms == {(2,): Fraction(4)}
    # d^2(P^n) = 2n(2n-1) x^(2n-2)
    for n in range(1, 6):
        got = identity_rhs(table, n)
        want = P.pow(n).diff((2,))
        assert got.equal_upto(want, min(got.trunc, want.trunc))


def _random_poly(rng, dim, trunc, degree, zero_const=False):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, degree) for _ in range(dim))
        if sum(e) > degree or (zero_const and sum(e) == 0):
            continue
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Series(dim, trunc, terms)


def test_faadibruno_identity_randomized():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        dim = rng.randint(1, 3)
        P = _random_poly(rng, dim, 14, 4)
        if P.is_zero:
            continue
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        if not 1 <= sum(alpha) <= 4:
            continue
        table = faadibruno(P, alpha)
        for n in range(1, 7):
            lhs = P.pow(n).diff(alpha)
            rhs = identity_rhs(table, n)
            t = min(lhs.trunc, rhs.trunc)
            assert lhs.equal_upto(rhs, t), (P, alpha, n)
        checked += 1


def swap(f):
    """f with the variables x1 and x2 exchanged."""
    return Series(2, f.trunc, {e[::-1]: c for e, c in f.terms.items()})


def test_faadibruno_path_independence():
    rng = random.Random(11)
    for _ in range(20):
        P = _random_poly(rng, 2, 10, 3)
        if P.is_zero:
            continue
        alpha = (rng.randint(0, 2), rng.randint(1, 2))
        if sum(alpha) < 2:
            continue
        forward = faadibruno(P, alpha)
        # with x1 and x2 swapped, the recurrence steps through the
        # coordinates of P in the reverse order
        backward = faadibruno(swap(P), alpha[::-1])
        for j in range(1, sum(alpha) + 1):
            a, b = forward.coefficient(j), swap(backward.coefficient(j))
            assert a.equal_upto(b, min(a.trunc, b.trunc))


def test_check_divisibility_example():
    trunc = 8
    P = Series.monomial(2, trunc, (1, 1))
    verdict = check_divisibility(P, [None, example_L2(trunc)])
    assert verdict.ok
    assert verdict.quotients[1].is_zero
    assert verdict.quotients[2].terms == {(0, 0): Fraction(2), (1, 1): Fraction(2)}


def test_check_divisibility_euler_family():
    # L_j = sum_{|beta|=j} b_beta x^beta d_beta, P = x^alpha
    trunc = 10
    P = Series.monomial(2, trunc, (1, 2))
    L1 = DiffOperator(2, 1, {
        (1, 0): Series.monomial(2, trunc, (1, 0), 3),
        (0, 1): Series.monomial(2, trunc, (0, 1), 5),
    })
    verdict = check_divisibility(P, [L1])
    assert verdict.ok
    # quotient x^((j-1)alpha) * sum alpha^beta b_beta = 1*3 + 2*5 = 13
    assert verdict.quotients[1] == Series.constant(2, trunc - 3, 13)


def test_check_divisibility_failure_witness():
    trunc = 6
    P = Series.variable(2, trunc, 0)
    ok_op = DiffOperator(2, 1, {(0, 1): const(2, trunc, 1)})   # L*(P) = 0
    bad_op = DiffOperator(2, 1, {(1, 0): const(2, trunc, 1)})  # L*(P) = 1
    assert check_divisibility(P, [ok_op]).ok
    verdict = check_divisibility(P, [bad_op])
    assert not verdict.ok
    assert verdict.witnesses[1] == (0, 0)


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(2, 3) == 0


def test_stirling_values():
    assert stirling_first(1, 1) == 1
    assert stirling_first(2, 1) == -1
    assert stirling_first(2, 2) == 1
    assert [stirling_first(3, l) for l in (1, 2, 3)] == [2, -3, 1]
    with pytest.raises(ValueError):
        stirling_first(2, 3)


def test_stirling_operator_identity():
    # t^j d_t^j t^n = sum_l s(j,l) n^l t^n
    for j in range(1, 7):
        for n in range(0, 11):
            lhs = falling_factorial(n, j)
            rhs = sum(stirling_first(j, l) * n ** l for l in range(1, j + 1))
            assert lhs == rhs, (j, n)
