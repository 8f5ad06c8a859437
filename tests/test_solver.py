"""Tests for the reduction pipeline, the lifted recurrence, the direct
oracle, and the Poincare checker."""

import random
from fractions import Fraction
from itertools import product

import pytest

from gevreylab.diffops import DiffOperator
from gevreylab.dsl import parse_problem
from gevreylab.errors import (DivisibilityViolation, InconclusiveBound,
                              PoincareViolation, SingularLinearPart,
                              TruncationTooSmall)
from gevreylab.registry import build_document
from gevreylab.series import Series, SeriesMatrix, iter_exponents
from gevreylab.solver import (LiftedEquation, ProblemSpec, Run,
                              _tail_monomial_coeff, build_lifted,
                              check_poincare, evaluate, invert_series_matrix,
                              reduce_problem, solve_direct, solve_implicit,
                              solve_lifted, solve_p_expansion)

from instances import random_admissible_problem


def const(dim, trunc, c):
    return Series.constant(dim, trunc, c)


def scalar_matrix(dim, trunc, c):
    return SeriesMatrix([[const(dim, trunc, c)]])


def bivariate_order2(trunc=12):
    """x1^2 x2^2 (x1^2 d1^2 + x2^2 d2^2 + 2 d1 d2) y = 2y + 2 x1 x2."""
    P = Series.monomial(2, trunc, (1, 1))
    L2 = DiffOperator(2, 2, {
        (2, 0): Series.monomial(2, trunc, (2, 0)),
        (0, 2): Series.monomial(2, trunc, (0, 2)),
        (1, 1): const(2, trunc, 2),
    })
    f = [Series.monomial(2, trunc, (1, 1), 2)]
    return ProblemSpec(2, 1, 2, P, [None, L2], f,
                       scalar_matrix(2, trunc, 2), {})


def univariate_order2(trunc=14):
    """x^4 d^2 y = y - x^2/2 (the shifted one-variable order-2 equation)."""
    P = Series.monomial(1, trunc, (2,))
    L2 = DiffOperator(1, 2, {(2,): const(1, trunc, 1)})
    f = [Series.monomial(1, trunc, (2,), Fraction(-1, 2))]
    return ProblemSpec(1, 1, 2, P, [None, L2], f,
                       scalar_matrix(1, trunc, 1), {})


def a_table(upto):
    a = [Fraction(0), Fraction(1), Fraction(1)]
    for n in range(3, upto + 1):
        a.append((n - 1) ** 2 * a[n - 1] + (n - 2) * (n - 3) * a[n - 2])
    return a


# -- solve_implicit ----------------------------------------------------------

def test_solve_implicit_zero_forcing():
    A = scalar_matrix(1, 5, -1)
    y = solve_implicit([Series.zero(1, 5)], A, {(2,): [const(1, 5, 1)]}, 5)
    assert y[0].is_zero


def test_solve_implicit_linear():
    A = scalar_matrix(1, 5, -1)
    y = solve_implicit([Series.variable(1, 5, 0)], A, {}, 5)
    assert y[0] == Series.variable(1, 5, 0)


def test_solve_implicit_quadratic():
    # -y + x1 + y^2 = 0, so y = x1 + x1^2 + 2 x1^3 + ...
    A = scalar_matrix(1, 3, -1)
    f = [Series.variable(1, 3, 0)]
    y = solve_implicit(f, A, {(2,): [const(1, 3, 1)]}, 3)
    assert y[0].terms == {(1,): Fraction(1), (2,): Fraction(1),
                          (3,): Fraction(2)}


def test_solve_implicit_singular():
    with pytest.raises(SingularLinearPart):
        solve_implicit([Series.variable(1, 4, 0)], scalar_matrix(1, 4, 0), {}, 4)


# -- reduce ------------------------------------------------------------------

def test_reduce_zero_rhs_gives_zero():
    prob = bivariate_order2()
    prob = ProblemSpec(prob.dim, 1, 2, prob.P, prob.operators,
                       [Series.zero(2, 12)], prob.A, {})
    red = reduce_problem(prob, 12)
    assert all(s.is_zero for vec in red.head for s in vec)
    assert all(s.is_zero for s in red.h)


def test_reduce_bivariate_order2_head():
    red = reduce_problem(bivariate_order2(), 12)
    assert red.head[0][0].terms == {(1, 1): Fraction(-1)}
    assert red.phis[2].terms == {(0, 0): Fraction(2), (1, 1): Fraction(2)}


def test_reduce_k1_forcing():
    # k=1: g_0 = -P L_1(y_0), so h = g_0 / P = -L_1(y_0)
    trunc = 10
    P = Series.monomial(1, trunc, (2,))
    L1 = DiffOperator(1, 1, {(1,): Series.variable(1, trunc, 0)})
    f = [Series.variable(1, trunc, 0)]
    prob = ProblemSpec(1, 1, 1, P, [L1], f, scalar_matrix(1, trunc, -1), {})
    red = reduce_problem(prob, trunc)
    y0 = red.head[0][0]
    assert y0 == Series.variable(1, trunc, 0)  # -y + x = 0
    want = -(L1.apply(y0))
    assert red.h[0].equal_upto(want, min(red.h[0].trunc, want.trunc))


def test_reduce_divisibility_refusal():
    trunc = 8
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): const(1, trunc, 1)})
    prob = ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       scalar_matrix(1, trunc, -1), {})
    with pytest.raises(DivisibilityViolation) as err:
        reduce_problem(prob, trunc)
    assert err.value.monomial == (0,)


# -- build_lifted ------------------------------------------------------------

def test_build_lifted_k1_structure():
    trunc = 10
    P = Series.monomial(1, trunc, (2,))
    L1 = DiffOperator(1, 1, {(1,): Series.variable(1, trunc, 0)})
    f = [Series.variable(1, trunc, 0)]
    prob = ProblemSpec(1, 1, 1, P, [L1], f, scalar_matrix(1, trunc, -1),
                       {(2,): [const(1, trunc, 1)]})
    eq = build_lifted(reduce_problem(prob, trunc))
    # terms: t L_1 and phi t^2 d_t, nothing else
    assert set(eq.linear) == {(1, 0, (1,)), (1, 1, (0,))}
    assert eq.linear[(1, 0, (1,))] == Series.variable(1, trunc, 0)
    # phi = L_1*(x^2)/x^2 = 2x * x / x^2 = 2
    assert eq.linear[(1, 1, (0,))].constant_term() == 2
    assert set(eq.nonlinear) == {(2,)}
    assert eq.k == 1


def test_build_lifted_bivariate_order2_has_phi_term():
    eq = build_lifted(reduce_problem(bivariate_order2(), 12))
    # phi_2 t^3 d_t^2 appears as the (j=1, b=2) signature
    key = (1, 2, (0, 0))
    assert key in eq.linear
    assert eq.linear[key].terms == {(0, 0): Fraction(2), (1, 1): Fraction(2)}
    # L_2's own derivatives appear with t-power 2
    assert (2, 0, (1, 1)) in eq.linear


def test_build_lifted_keeps_a_coefficient_zero_through_its_trunc():
    # only an absent operator is exactly zero: L_1's coefficient is zero
    # through degree 2 only, so its t d_x1 term must stay and bound what
    # solve_lifted certifies
    prob = univariate_order2()
    zero_to_2 = Series.zero(1, 2)
    L1 = DiffOperator(1, 1, {(1,): zero_to_2})
    prob = ProblemSpec(1, 1, 2, prob.P, [L1, prob.operators[1]], prob.f,
                       prob.A, {})
    eq = build_lifted(reduce_problem(prob, 14))
    assert eq.linear[(1, 0, (1,))] == zero_to_2


def test_solve_lifted_zero():
    dim = 1
    eq = LiftedEquation(dim, 1, 1, scalar_matrix(1, 6, 1),
                        [Series.zero(1, 6)], {(1, 1, (0,)): const(1, 6, 1)}, {})
    us = solve_lifted(eq, 5, 6)
    assert all(s.is_zero for vec in us for s in vec)


def test_solve_lifted_guard_on_zero_series():
    # u_1 is zero but certified only to degree 0, so the linear term
    # t d_x1 u cannot produce u_2 or u_3
    eq = LiftedEquation(1, 1, 1, scalar_matrix(1, 6, 1), [Series.zero(1, 0)],
                        {(1, 0, (1,)): const(1, 6, 1)}, {})
    with pytest.raises(TruncationTooSmall):
        solve_lifted(eq, 3, 6)


def test_solve_lifted_start_value():
    # u_k = C_k^{-1} forcing
    prob = univariate_order2()
    red = reduce_problem(prob, 14)
    eq = build_lifted(red)
    us = solve_lifted(eq, 4, 14)
    assert all(s.is_zero for s in us[0]) and all(s.is_zero for s in us[1])
    want = invert_series_matrix(eq.B).apply(eq.forcing)
    assert us[2][0].equal_upto(want[0], min(us[2][0].trunc, want[0].trunc))


def test_solve_lifted_singular_B0_is_a_poincare_violation():
    # documents cannot reach this, since the reduction keeps B(0) = A(0)
    eq = LiftedEquation(1, 1, 2, SeriesMatrix([[Series.variable(1, 6, 0)]]),
                        [Series.variable(1, 6, 0)], {}, {})
    with pytest.raises(PoincareViolation) as err:
        solve_lifted(eq, 4, 6)
    assert err.value.n == 2


def test_tail_monomial_coeff_matches_composition_sum():
    # the cached prefix recurrence against the plain sum over compositions
    # l_1 + ... + l_r = n, l_i >= k, of u_{l_1,i_1} ... u_{l_r,i_r}
    rng = random.Random(4242)
    for _ in range(40):
        dim, unknowns, k = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        top = 3 * k + 3
        us = [[Series.zero(dim, 8)] * unknowns for _ in range(k)]
        for _ in range(k, top):
            vec = []
            for _ in range(unknowns):
                trunc = rng.randint(2, 8)
                terms = {rng.choice(list(iter_exponents(dim, rng.randint(0, 3)))):
                         Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3))}
                vec.append(Series(dim, trunc, terms))
            us.append(vec)
        gammas = [g for g in product(range(4), repeat=unknowns)
                  if 2 <= sum(g) <= 3]
        products = {((), 0): Series.constant(dim, 8, 1)}
        for n in range(k, top):
            for gamma in rng.sample(gammas, min(2, len(gammas))):
                factors = tuple(i for i, g in enumerate(gamma)
                                for _ in range(g))
                got = _tail_monomial_coeff(us, factors, n, k, products)
                want = None
                for ls in product(range(k, n + 1), repeat=len(factors)):
                    if sum(ls) != n or any(us[l][i].is_zero
                                           for l, i in zip(ls, factors)):
                        continue
                    term = Series.constant(dim, 8, 1)
                    for l, i in zip(ls, factors):
                        term = term * us[l][i]
                    want = term if want is None else want + term
                if want is None:
                    assert got is None
                else:
                    assert got.trunc >= want.trunc
                    assert got.equal_upto(want, want.trunc)


# -- the two full solvers ----------------------------------------------------

def test_direct_bivariate_order2_diagonal():
    prob = bivariate_order2(16)
    y = solve_direct(prob, 16)
    table = a_table(8)
    for n in range(9):
        assert y[0].coeff((n, n)) == -table[n]
    assert all(e[0] == e[1] for e in y[0].terms)
    assert all(s.is_zero for s in prob.residual(y))


def test_direct_univariate_order2_closed_form():
    import math
    prob = univariate_order2()
    y = solve_direct(prob, 14)
    for j in range(7):
        assert y[0].coeff((2 * j + 2,)) == Fraction(math.factorial(2 * j), 2)


def test_direct_euler_one_coefficient():
    # x1 d_x1 y = -y + x1 has the polynomial solution x1/2
    trunc = 8
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): const(1, trunc, 1)})
    prob = ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       scalar_matrix(1, trunc, -1), {})
    y = solve_direct(prob, trunc)
    assert y[0].terms == {(1,): Fraction(1, 2)}


def test_direct_zero_rhs():
    prob = bivariate_order2()
    prob = ProblemSpec(2, 1, 2, prob.P, prob.operators,
                       [Series.zero(2, 12)], prob.A, {})
    assert all(s.is_zero for s in solve_direct(prob, 12))


def test_pipeline_equals_direct_on_examples():
    for prob, D in ((bivariate_order2(14), 14), (univariate_order2(14), 14)):
        pexp = solve_p_expansion(prob, 7, D)
        summed = evaluate(pexp)
        direct = solve_direct(prob, D)
        cert = min(min(s.trunc for s in summed), D)
        for a, b in zip(summed, direct):
            assert a.equal_upto(b, cert)
        res = prob.with_trunc(cert).residual([s.truncate(cert) for s in summed])
        assert all(s.is_zero for s in res)


def test_pipeline_equals_direct_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        prob = random_admissible_problem(rng, trunc=8)
        direct = solve_direct(prob, 8)
        pexp = solve_p_expansion(prob, 6, 8)
        summed = evaluate(pexp)
        cert = min(min(s.trunc for s in summed), 8)
        for a, b in zip(summed, direct):
            assert a.equal_upto(b, cert), prob


def test_uniqueness_probe():
    prob = bivariate_order2(10)
    y = solve_direct(prob, 10)
    bad = [y[0] + Series.monomial(2, y[0].trunc, (2, 2), Fraction(1, 7))]
    res = prob.residual(bad)
    assert not all(s.is_zero for s in res)


def test_evaluate_certified_degree_cap():
    prob = bivariate_order2(20)
    pexp = solve_p_expansion(prob, 4, 20)
    summed = evaluate(pexp)
    # beyond order N the tail starts at x-order (N+1) o(P) = 10
    assert summed[0].trunc <= 9


def _agree_where_certified(low, high):
    """Compare series vectors through the degree certified in ``low``;
    returns the number of coefficients compared."""
    compared = 0
    for a, b in zip(low, high, strict=True):
        assert b.trunc >= a.trunc
        assert a.equal_upto(b, a.trunc)
        compared += sum(1 for e in b.terms if sum(e) <= a.trunc)
    return compared


def test_certified_coefficients_survive_a_higher_degree():
    # every coefficient certified at degree D and order N is the one found
    # at D + 3 and N + 3
    rng = random.Random(31)
    problems = [(random_admissible_problem(rng, trunc=10), 6, 5)
                for _ in range(20)]
    text, _ = build_document("eje3", {"degree": 10, "order": 5})
    problems.append((parse_problem(text).spec, 10, 5))
    compared = 0
    for prob, D, order in problems:
        low, high = Run(prob, D, order), Run(prob, D + 3, order + 3)
        for a, b in zip(low.pexp.coeffs, high.pexp.coeffs):
            compared += _agree_where_certified(a, b)
        compared += _agree_where_certified(low.summed, high.summed)
        compared += _agree_where_certified(low.direct, high.direct)
    assert compared > 300


# -- check_poincare ----------------------------------------------------------

def _poincare_problem(a0, trunc=6):
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): const(1, trunc, 1)})
    return ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       scalar_matrix(1, trunc, a0), {})


def test_poincare_pass():
    verdict = check_poincare(_poincare_problem(-1))
    assert verdict.ok and not verdict.partial
    for n in range(verdict.n_star + 11):
        assert verdict.determinant(n) != 0


def test_poincare_constructed_failure():
    verdict = check_poincare(_poincare_problem(1))
    assert not verdict.ok
    assert verdict.failing == [1]


def test_poincare_parity():
    # N=2, diag(1,3), L_1*(P)(0)=2: 2n is never 1 or 3
    trunc = 6
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): const(1, trunc, 2)})
    A = SeriesMatrix([[const(1, trunc, 1), Series.zero(1, trunc)],
                      [Series.zero(1, trunc), const(1, trunc, 3)]])
    prob = ProblemSpec(1, 2, 1, P, [L1],
                       [Series.variable(1, trunc, 0)] * 2, A, {})
    verdict = check_poincare(prob)
    assert verdict.ok
    for n in range(verdict.n_star + 11):
        assert verdict.determinant(n) != 0


def test_poincare_inconclusive():
    # L_1 = x d_x against P = x: L_1*(P)(0) = 0
    trunc = 6
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): Series.variable(1, trunc, 0)})
    prob = ProblemSpec(1, 1, 1, P, [L1], [Series.variable(1, trunc, 0)],
                       scalar_matrix(1, trunc, -1), {})
    with pytest.raises(InconclusiveBound):
        check_poincare(prob)
    verdict = check_poincare(prob, user_bound=12)
    assert verdict.partial and verdict.ok


# -- invert_series_matrix ----------------------------------------------------

def assert_inverse(M, X):
    """M times column j of X is e_j through the least trunc T of M, and
    every entry of X is certified to exactly T."""
    n, dim = M.rows, M.dim
    T = min(s.trunc for row in M.entries for s in row)
    assert all(s.trunc == T for row in X.entries for s in row)
    for j in range(n):
        column = [X.entry(i, j) for i in range(n)]
        for i, s in enumerate(M.apply(column)):
            assert s.trunc >= T
            assert s.truncate(T) == const(dim, T, int(i == j))


def test_invert_identity():
    one, zero = const(1, 3, 1), Series.zero(1, 3)
    I = SeriesMatrix([[one, zero], [zero, one]])
    assert invert_series_matrix(I) == I


def test_invert_neumann():
    x = Series.variable(1, 2, 0)
    M = SeriesMatrix([
        [const(1, 2, 1), -x],
        [Series.zero(1, 2), const(1, 2, 1)],
    ])
    inv = invert_series_matrix(M)
    assert inv.entry(0, 1) == x
    assert_inverse(M, inv)


def test_invert_scalar_series():
    M = SeriesMatrix([[const(1, 4, 2) + Series.variable(1, 4, 0)]])
    inv = invert_series_matrix(M)
    assert_inverse(M, inv)
    assert inv.entry(0, 0).coeff((0,)) == Fraction(1, 2)
    assert inv.entry(0, 0).coeff((1,)) == Fraction(-1, 4)


def _det(m):
    """Laplace expansion, independent of the elimination under test."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _random_entry(rng, dim, trunc):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, 3) for _ in range(dim))
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if rng.random() < 0.6:
        terms[(0,) * dim] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Series(dim, trunc, terms)


def test_invert_random_matrices():
    rng = random.Random(2024)
    inverted = singular = 0
    while inverted < 200:
        n, dim = rng.randint(1, 3), rng.randint(1, 3)
        M = SeriesMatrix([[_random_entry(rng, dim, rng.randint(0, 6))
                           for _ in range(n)] for _ in range(n)])
        if _det(M.constant_part()) == 0:
            with pytest.raises(SingularLinearPart):
                invert_series_matrix(M)
            singular += 1
            continue
        assert_inverse(M, invert_series_matrix(M))
        inverted += 1
    assert singular > 0


def test_invert_singular():
    with pytest.raises(SingularLinearPart):
        invert_series_matrix(SeriesMatrix([[Series.variable(1, 3, 0)]]))
