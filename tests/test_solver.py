"""Tests for the reduction pipeline, the lifted recurrence, the direct
oracle, and the Poincare checker."""

import hashlib
import json
import random
import weakref
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from gevreylab import series, solver
from gevreylab.diffops import DiffOperator
from gevreylab.dsl import parse_problem
from gevreylab.errors import (DivisibilityViolation, InconclusiveBound,
                              InputError, PoincareViolation, SingularLinearPart,
                              SingularMatrix, TruncationTooSmall)
from gevreylab.registry import build_document
from gevreylab.series import (INFINITE, Series, SeriesMatrix, exp_binomial,
                              falling_factorial, gauss_jordan,
                              invert_rational_matrix, iter_exponents,
                              json_text, key_exp, layout_series,
                              numerator_layout, sum_of_products, unit_exp)
from gevreylab.solver import (GradedSolve, LiftedEquation, ProblemSpec, Run,
                              _factors, _tail_monomial_coeff, _y_power,
                              build_lifted,
                              check_poincare, invert_series_matrix,
                              reduce_problem, solve_direct, solve_implicit,
                              solve_lifted, solve_p_expansion)

import instances
from test_diffops import _fold_apply
from instances import (mixed_series, random_admissible_problem,
                       random_weighted_problem)


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


def test_solve_implicit_keeps_each_row_its_own_trunc():
    # f_1 is known only through degree 1, which bounds y_1 but not y_2
    A = SeriesMatrix([[const(1, 6, -1), const(1, 6, 0)],
                      [const(1, 6, 0), const(1, 6, -1)]])
    f = [Series.zero(1, 1), Series.monomial(1, 6, (2,))]
    assert solve_implicit(f, A, {}, 4) == [Series.zero(1, 1),
                                           Series.monomial(1, 4, (2,))]


@pytest.mark.parametrize("H", [{}, {(2,): [const(1, 4, 1)]}],
                         ids=["linear", "quadratic"])
@pytest.mark.parametrize("f, degree", [
    (Series.zero(1, 4), 4), (Series.variable(1, 4, 0), 0),
    (Series.zero(1, 4), 0)], ids=["zero-f", "degree-0", "zero-f-degree-0"])
def test_solve_implicit_singular_even_when_nothing_is_solved(f, degree, H):
    # a singular A(0) is refused before any order is formed, so a zero f
    # or degree 0 does not hide it
    A = SeriesMatrix([[Series.variable(1, 4, 0)]])
    with pytest.raises(SingularLinearPart):
        solve_implicit([f], A, H, degree)


def test_solve_implicit_equals_the_oracle():
    # 0 = f + A y + H(x, y) is the k = 1 problem without operators, which
    # solve_direct solves degree by degree on its own; a third of the draws
    # have f and H known only below D
    rng = random.Random(1515)
    compared = cut = 0
    for _ in range(60):
        dim, unknowns, D = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 6)
        f, A, H = instances._right_side(rng, dim, unknowns, D + 2)
        if D > 1 and rng.random() < 1 / 3:
            cut += 1
            f = [s.truncate(rng.randint(1, D - 1)) for s in f]
            H = {g: [s.truncate(rng.randint(1, D - 1)) for s in vec]
                 for g, vec in H.items()}
        y = solve_implicit(f, A, H, D)
        want = solve_direct(ProblemSpec(
            dim, unknowns, 1, Series.variable(dim, D + 2, 0), [None],
            f, A, H), D)
        t = min(s.trunc for s in y + want)
        assert all(a.equal_upto(b, t) for a, b in zip(y, want)), (f, A, H)
        compared += t
    assert cut >= 10 and compared >= 100


def test_solve_implicit_evaluates_H_once(monkeypatch):
    # once, for the residual check: a fixed-point loop would evaluate H on
    # every pass
    calls = []
    real = solver.eval_poly_map

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "eval_poly_map", counting)
    A = scalar_matrix(1, 6, -1)
    for H in ({}, {(2,): [const(1, 6, 1)]}):
        calls.clear()
        solve_implicit([Series.variable(1, 6, 0)], A, H, 6)
        assert len(calls) == 1


def test_eval_poly_map_certifies_each_monomial_from_its_factors():
    # y1 is known to degree 3 only, but y2^2 does not contain it: from
    # y2 = x1 + x1^2 certified to 6, y2^2 is certified to 6 + o(y2) = 7
    y = [Series(1, 3, {(1,): 1}), Series(1, 6, {(1,): 1, (2,): 1})]
    H = {(0, 2): [const(1, float("inf"), 1), const(1, float("inf"), 2)]}
    got = solver.eval_poly_map(H, y, 1, 2)
    want = y[1] * y[1]
    assert want.trunc == 7
    assert got == [want, want.scale(2)]
    assert solver.eval_poly_map({}, y, 1, 2) == \
        [Series.zero(1, float("inf"))] * 2


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


def test_spec_powers_equal_pow_and_the_powers_of_powers():
    # the cached P^j against P.pow(j), filled in random order, and
    # P^(m q) against (P^m)^q, the form the reduction used, terms and truncs
    rng = random.Random(2204)
    finite = 0
    for _ in range(40):
        prob = random_admissible_problem(rng)
        trunc = rng.choice([INFINITE, rng.randint(2, 9)])
        P = instances._poly(rng, prob.dim, trunc, 3, max_terms=4)
        if P.is_zero:
            continue
        finite += trunc != INFINITE
        spec = ProblemSpec(prob.dim, prob.unknowns, prob.order, P,
                           prob.operators, prob.f, prob.A, prob.H)
        for j in rng.sample(range(7), 7):
            assert spec.power(j) == P.pow(j), j
        for m, q in product(range(4), range(1, 4)):
            assert spec.power(m * q) == P.pow(m).pow(q), (m, q)
    assert finite >= 10


def _reference_shift_poly_map(H, y0, dim, unknowns, trunc):
    """_shift_poly_map with y0[i]^(g - d) formed again for every delta."""
    shifted = {}
    for gamma, vec in H.items():
        for delta in product(*(range(g + 1) for g in gamma)):
            if not any(delta):
                continue
            factor = Series.constant(dim, trunc, exp_binomial(gamma, delta))
            for i, (g, d) in enumerate(zip(gamma, delta)):
                if g - d:
                    factor = factor * y0[i].pow(g - d)
            if factor.is_zero:
                continue
            cur = shifted.setdefault(
                delta, [Series.zero(dim, trunc) for _ in range(unknowns)])
            for i in range(unknowns):
                cur[i] = cur[i] + vec[i] * factor
    zero = [Series.zero(dim, trunc)] * unknowns
    cols = [shifted.pop(unit_exp(unknowns, j), zero) for j in range(unknowns)]
    return SeriesMatrix(list(zip(*cols))), {
        g: v for g, v in shifted.items() if any(not s.is_zero for s in v)}


def test_shift_poly_map_equals_the_per_delta_powers():
    rng = random.Random(2205)
    gammas = [(2, 0), (1, 1), (2, 1), (0, 3), (3, 2), (1, 2)]
    for _ in range(30):
        dim, trunc = rng.randint(1, 2), rng.randint(3, 8)
        H = {g: [instances._poly(rng, dim, trunc, 2) for _ in range(2)]
             for g in rng.sample(gammas, rng.randint(1, 4))}
        y0 = [instances._poly(rng, dim, rng.randint(2, trunc), 3)
              for _ in range(2)]
        got = solver._shift_poly_map(H, y0, dim, 2, trunc)
        assert got == _reference_shift_poly_map(H, y0, dim, 2, trunc)


def test_shift_poly_map_forms_each_power_of_y0_once(monkeypatch):
    # H = y1^p makes O(p) products: y0^1 .. y0^(p-1), each from the one
    # before, then one product per delta; forming each y0^q from 1 would
    # make about p^2 / 2
    p, trunc = 60, 6
    y0 = [Series(1, trunc, {(1,): 2, (2,): Fraction(1, 3)})]
    H = {(p,): [Series.constant(1, trunc, 1)]}
    muls = []
    real = Series.__mul__

    def counted(a, b):
        muls.append(1)
        return real(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    got = solver._shift_poly_map(H, y0, 1, 1, trunc)
    assert len(muls) <= 2 * p
    monkeypatch.setattr(Series, "__mul__", real)
    assert got == _reference_shift_poly_map(H, y0, 1, 1, trunc)


def _stored(vec):
    """Each component's trunc and terms, with the type each coefficient is
    stored as (int or Fraction)."""
    return [(s.trunc, {e: (type(c), c) for e, c in s.terms.items()})
            for s in vec]


def _fold_lhs(spec, y):
    """ProblemSpec.lhs as the plain fold of + over P^j (c * d_alpha(y_i)),
    built from ``Series`` products and derivatives only."""
    out = None
    for pos, L in enumerate(spec.operators):
        if L is None:
            continue
        term = [spec.power(pos + 1) * _fold_apply(L, yi) for yi in y]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    if out is None:
        return [Series.zero(spec.dim, min(yi.trunc for yi in y))] * len(y)
    return out


def _fold_eval_poly_map(H, y, dim, unknowns):
    """eval_poly_map as the fold of + that ``sum_of_products`` replaced."""
    if not H:
        return [Series.zero(dim, INFINITE)] * unknowns
    out = None
    for gamma, vec in H.items():
        mono = _y_power(y, gamma, dim)
        term = [c * mono for c in vec]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return out


def test_spec_sums_of_products_equal_the_folds_they_replace():
    # lhs, eval_poly_map and _shift_poly_map: terms, truncs and storage,
    # with inputs cut, exact or zero through their trunc, int and
    # Fraction coefficients, operators with one or several alphas, absent
    # operators and an empty H
    rng = random.Random(2301)
    seen = {"no operator": 0, "empty H": 0, "zero": 0, "exact": 0,
            "several alphas": 0}
    for _ in range(150):
        dim, unknowns, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        P = mixed_series(rng, dim, low=1)
        if P.is_zero:
            P = Series.variable(dim, rng.choice([2, 5, INFINITE]), 0)
        ops = []
        for j in range(1, k + 1):
            alphas = list(iter_exponents(dim, j))
            ops.append(None if rng.random() < 0.3 else DiffOperator(dim, j, {
                a: mixed_series(rng, dim) for a in rng.sample(
                    alphas, rng.choice([1, rng.randint(1, len(alphas))]))}))
        gammas = [g for g in product(range(4), repeat=unknowns)
                  if 2 <= sum(g) <= 3]
        H = {g: [mixed_series(rng, dim) for _ in range(unknowns)]
             for g in rng.sample(gammas, rng.randint(0, min(2, len(gammas))))}
        spec = ProblemSpec(dim, unknowns, k, P, ops,
                           [Series.zero(dim, 8)] * unknowns,
                           scalar_matrix(dim, 8, 1), H)
        y = [mixed_series(rng, dim) for _ in range(unknowns)]
        assert _stored(spec.lhs(y)) == _stored(_fold_lhs(spec, y))
        assert _stored(solver.eval_poly_map(H, y, dim, unknowns)) == \
            _stored(_fold_eval_poly_map(H, y, dim, unknowns))
        trunc = rng.choice([rng.randint(2, 8), INFINITE])
        y0 = [mixed_series(rng, dim, low=1) for _ in range(unknowns)]
        got = solver._shift_poly_map(H, y0, dim, unknowns, trunc)
        want = _reference_shift_poly_map(H, y0, dim, unknowns, trunc)
        assert [_stored(row) for row in got[0].entries] == \
            [_stored(row) for row in want[0].entries]
        assert {g: _stored(v) for g, v in got[1].items()} == \
            {g: _stored(v) for g, v in want[1].items()}
        inputs = [P, *y, *y0, *(c for v in H.values() for c in v),
                  *(c for L in ops if L for c in L.terms.values())]
        seen["no operator"] += all(L is None for L in ops)
        seen["empty H"] += not H
        seen["zero"] += any(s.is_zero for s in inputs)
        seen["exact"] += any(s.trunc == INFINITE for s in inputs)
        seen["several alphas"] += any(L and len(L.terms) > 1 for L in ops)
    assert min(seen.values()) >= 10, seen
    # x1 d1 - x2 d2 sends x1 x2 to 0: under a P known only to degree 2,
    # P L_1(y) is certified to 2 + o(L_1(y)) and 8 + o(P), so the order
    # binds, and it is the order left after the cancellation, not 2
    x1, x2 = Series.variable(2, INFINITE, 0), Series.variable(2, INFINITE, 1)
    spec = ProblemSpec(2, 1, 1, (x1 + x2).truncate(2),
                       [DiffOperator(2, 1, {(1, 0): x1, (0, 1): -x2})],
                       [Series.zero(2, 8)], scalar_matrix(2, 8, 1), {})
    for y, terms, trunc in ((x1 * x2, {}, 9),
                            (x1 * x2 + x1.pow(3), {(4, 0): 3, (3, 1): 3}, 5)):
        got = spec.lhs([y.truncate(8)])
        assert _stored(got) == _stored(_fold_lhs(spec, [y.truncate(8)]))
        assert got[0].terms == terms and got[0].trunc == trunc


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


def test_build_lifted_forms_each_faadibruno_table_once(monkeypatch):
    # ejeLast k = 3, L_j = x1 d1^j: the Leibniz terms read A_{beta,l} for
    # 7 pairs (l, beta <= alpha, |beta| >= l) but only 3 distinct beta
    text, _ = build_document("ejeLast", {"k": 3, "degree": 8, "order": 5})
    run = parse_problem(text).run()
    reduced = run.reduced
    calls = []
    kernel = solver.faadibruno

    def counted(P, beta):
        calls.append(beta)
        return kernel(P, beta)
    monkeypatch.setattr(solver, "faadibruno", counted)
    eq = build_lifted(reduced)
    reads = [beta for j, L in enumerate(run.spec.operators, start=1)
             for l in range(1, j) for alpha in L.terms
             for beta in product(*(range(a + 1) for a in alpha))
             if sum(beta) >= l]
    assert len(reads) == 7
    assert sorted(calls) == sorted(set(reads)) == [(1, 0), (2, 0), (3, 0)]
    assert build_lifted(reduced).linear == eq.linear


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
    want = _reference_inverse(eq.B).apply(eq.forcing)
    assert us[2][0].equal_upto(want[0], min(us[2][0].trunc, want[0].trunc))


def test_solve_lifted_certifies_no_more_than_a_factor_zero_through_its_trunc():
    # a forcing zero through degree 2 only: x1^3 agrees with it there and
    # gives u_2 = -x1^6, so u_2 = 0 may not be certified to degree 6
    def u2(forcing):
        eq = LiftedEquation(1, 1, 1, scalar_matrix(1, 8, -1), [forcing], {},
                            {(2,): [const(1, 8, 1)]})
        return solve_lifted(eq, 3, 8)[2][0]

    zero, cubic = u2(Series.zero(1, 2)), u2(Series.monomial(1, 8, (3,)))
    assert cubic == Series.monomial(1, 8, (6,), -1)
    assert zero.is_zero and zero.trunc < 6


def _lifted_k2(nonlinear):
    """A 2x2 lifted equation with k = 2, an x-dependent B, linear terms of
    both kinds (t d_x and t^2 d_t) and, if asked, quadratic terms."""
    x1, x2 = Series.variable(2, 8, 0), Series.variable(2, 8, 1)
    one = const(2, 8, 1)
    B = SeriesMatrix([[one + x1, x2], [x2.scale(Fraction(1, 3)), one.scale(2)]])
    linear = {(1, 0, (1, 0)): x2, (1, 1, (0, 0)): one.scale(Fraction(-1, 2)),
              (2, 0, (0, 1)): x1 + x2}
    H = {(2, 0): [one, x1], (1, 1): [x2.scale(3), const(2, 8, -1)]}
    return LiftedEquation(2, 2, 2, B, [x1, x1 * x2], linear,
                          H if nonlinear else {})


def test_solve_lifted_builds_each_right_side_in_one_pass(monkeypatch):
    # every part of an order's right side goes into one numerator_products
    # call per unknown: no intermediate sum or scaled product is formed
    counts = {"__add__": 0, "scale": 0}
    for name in counts:
        method = getattr(Series, name)

        def counting(self, other, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, other)
        monkeypatch.setattr(Series, name, counting)
    # kernel calls made by solve_lifted itself, not by the products of the
    # nonlinear terms (_tail_monomial_coeff, which recurses through its
    # module name)
    calls, inside = [], []
    kernel, tail = solver.numerator_products, solver._tail_monomial_coeff

    def counting_kernel(trunc, parts):
        if not inside:
            calls.append(len(parts))
        return kernel(trunc, parts)

    def marked_tail(*args):
        inside.append(1)
        try:
            return tail(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(solver, "numerator_products", counting_kernel)
    monkeypatch.setattr(solver, "_tail_monomial_coeff", marked_tail)
    for nonlinear in (False, True):
        eq = _lifted_k2(nonlinear)
        calls.clear()
        counts.update(dict.fromkeys(counts, 0))
        us = solve_lifted(eq, 6, 8)
        assert counts == {"__add__": 0, "scale": 0}
        assert len(calls) == 2 * (6 - 2 + 1)
        assert all(not s.is_zero for vec in us[2:] for s in vec)
        # the quadratic terms reach the right side from order 4 on
        assert max(calls) == 3 + 2 * nonlinear, calls


def test_solve_lifted_reads_back_one_key_per_term_it_returns(monkeypatch):
    # on a small eje3 the recurrence stays on keys: the only keys read back
    # to exponent tuples are those of the terms of the Series it returns
    text, _ = build_document("eje3", {"degree": 24, "order": 12})
    run = parse_problem(text).run()
    lifted = run.lifted
    read = [0]
    keying = series._keying

    def counting(dim):
        pack, unpack, size = keying(dim)

        def counted(data):
            read[0] += 1
            return unpack(data)
        return pack, counted, size

    monkeypatch.setattr(series, "_keying", counting)
    us = solve_lifted(lifted, run.order, run.working)
    terms = sum(len(s.terms) for vec in us for s in vec)
    assert terms > 50
    assert read[0] == terms


def _solve_series(kernel, r):
    """``kernel.solve`` on Series: each r_l as int numerators over its
    denominator, and each u_i the Series of its layout."""
    return [layout_series(kernel.dim, u) for u in kernel.solve(_keyed(r))]


def _keyed(r):
    """Right sides for ``GradedSolve.solve``: each Series as int numerators
    by key over its denominator, from its numerator layout."""
    return [(den, [(k, n) for _, k, n in items], trunc)
            for den, items, trunc, _ in map(numerator_layout, r)]


def _layouts(us):
    """Each vector of Series in the numerator layouts that
    ``_tail_monomial_coeff`` reads."""
    return [[numerator_layout(s) for s in vec] for vec in us]


def _base(dim, trunc):
    """The kernel's empty product, 1 at the base trunc, as a layout."""
    return {((), 0): numerator_layout(Series.constant(dim, trunc, 1))}


def _part_series(dim, part):
    """The Series of a part that ``_tail_monomial_coeff`` returns, or None."""
    return None if part is None else layout_series(dim, part)


def _reference_solve_lifted(eq, order, degree):
    """The order recurrence with one ``sum_of_products`` triple per linear
    key and unknown, (l!/(l-b)!, g, u_l.diff(alpha)): the per-term loop
    that ``solve_lifted`` runs on grouped int numerators instead."""
    dim, unknowns, k = eq.dim, eq.unknowns, eq.k
    us = [[Series.zero(dim, degree) for _ in range(unknowns)]
          for _ in range(k)]
    products = _base(dim, degree)
    one = Series.constant(dim, INFINITE, 1)
    kernel = GradedSolve(eq.B) if order >= k else None
    for n in range(k, order + 1):
        rhs = [[] for _ in range(unknowns)]
        if n == k:
            for terms, f in zip(rhs, eq.forcing):
                terms.append((1, f, one))
        for (j, b, alpha), g in eq.linear.items():
            l = n - j
            if l < k or b > l:
                continue
            w = sum(alpha)
            for terms, ul in zip(rhs, us[l]):
                if w and ul.trunc - w < 0:
                    raise TruncationTooSmall(
                        f"order {n}: needs degree {w} derivative of a series "
                        f"certified only to {ul.trunc}")
                terms.append((falling_factorial(l, b), g, ul.diff(alpha)))
        layouts = _layouts(us)
        for gamma, vec in eq.nonlinear.items():
            conv = _part_series(dim, _tail_monomial_coeff(
                layouts, _factors(gamma), n, k, products, dim))
            if conv is None or (conv.is_zero and conv.trunc >= degree):
                continue
            for terms, c in zip(rhs, vec):
                terms.append((1, c, conv))
        us.append(_solve_series(kernel, [sum_of_products(dim, degree, terms)
                                         for terms in rhs]))
    return us


def _outcome_lifted(solve, eq, order, degree):
    try:
        return solve(eq, order, degree)
    except TruncationTooSmall as exc:
        return str(exc)


def test_solve_lifted_equals_the_per_term_recurrence():
    # terms and truncs of every order, or the same TruncationTooSmall, on
    # the lifted equations of random admissible and weighted problems, some
    # of whose inputs are cut to a low trunc
    rng = random.Random(2121)
    seen = {"several b": 0, "raised": 0, "solved": 0}
    for case in range(320):
        draw = random_admissible_problem if case % 2 else random_weighted_problem
        prob = draw(rng, trunc=6)
        if rng.random() < 0.3:
            prob = prob.with_trunc(rng.randint(prob.P.order(), 5))
        try:
            eq = build_lifted(reduce_problem(prob, 6))
        except (TruncationTooSmall, ArithmeticError):
            continue
        order = rng.randint(eq.k, 6)
        want = _outcome_lifted(_reference_solve_lifted, eq, order, 6)
        assert _outcome_lifted(solve_lifted, eq, order, 6) == want, case
        seen["raised"] += isinstance(want, str)
        seen["solved"] += not isinstance(want, str)
        groups = [(j, alpha) for j, _, alpha in eq.linear]
        seen["several b"] += len(set(groups)) < len(groups)
    assert seen["several b"] >= 50 and seen["raised"] >= 1, seen
    assert seen["solved"] >= 300, seen


def _stored_outcome(solve, eq, order, degree):
    """Each order's terms, truncs and storage (``_stored``), or the message
    of the TruncationTooSmall it raises."""
    out = _outcome_lifted(solve, eq, order, degree)
    return out if isinstance(out, str) else [_stored(vec) for vec in out]


@pytest.mark.parametrize("name, shape", [
    ("eje3", {"degree": 20, "order": 10}),
    ("ejeLast", {"k": 3, "degree": 12, "order": 8}),
    ("eje1", {"degree": 20, "order": 10}),
    ("eje4", {"degree": 12, "order": 6}),
])
def test_solve_lifted_equals_the_per_term_recurrence_on_registry_documents(
        name, shape):
    # the registry's lifted equations, whose B is constant: terms, truncs
    # and int | Fraction storage of every order
    run = parse_problem(build_document(name, shape)[0]).run()
    eq = run.lifted
    assert not any(sum(e) for row in eq.B.entries for c in row
                   for e in c.terms)
    want = _stored_outcome(_reference_solve_lifted, eq, run.order,
                           run.working)
    assert _stored_outcome(solve_lifted, eq, run.order, run.working) == want
    assert any(terms for vec in want[eq.k:] for _, terms in vec)


def _lifted_x_dependent_B():
    """A 2x2 lifted equation whose B depends on x, with fractions in B, in
    the forcing and in the linear terms."""
    x1, x2 = Series.variable(2, 8, 0), Series.variable(2, 8, 1)
    one = const(2, 8, 1)
    B = SeriesMatrix([[one.scale(3) + x1.scale(Fraction(1, 2)), x2],
                      [x1 * x2, one.scale(Fraction(-2, 5)) + x2]])
    linear = {(1, 0, (0, 1)): x1.scale(Fraction(1, 3)),
              (1, 1, (0, 0)): one.scale(Fraction(-3, 4)),
              (2, 0, (1, 0)): x2 + x1.scale(2)}
    forcing = [x1.scale(Fraction(1, 7)), x2 + x1 * x1]
    return LiftedEquation(2, 2, 1, B, forcing, linear, {})


def test_solve_lifted_equals_the_per_term_recurrence_with_an_x_dependent_B():
    # both kinds of lifted equations with a B that depends on x, so the
    # degree-bucketed pass of GradedSolve is checked as the constant B is
    for eq in (_lifted_k2(False), _lifted_k2(True), _lifted_x_dependent_B()):
        assert any(sum(e) for row in eq.B.entries for c in row
                   for e in c.terms)
        want = _stored_outcome(_reference_solve_lifted, eq, 6, 8)
        assert _stored_outcome(solve_lifted, eq, 6, 8) == want
        assert any(terms for vec in want[eq.k:] for _, terms in vec)


def test_solve_lifted_builds_a_fraction_only_for_a_coefficient_of_u_n():
    # a linear equation with a constant B: past GradedSolve's own inverse
    # of B(0), the only Fractions are the coefficients of the u_n, one per
    # nonzero coefficient of a u_n whose numerator layout has D > 1
    x1, x2 = Series.variable(2, 8, 0), Series.variable(2, 8, 1)
    one = const(2, 8, 1)
    B = SeriesMatrix([[one.scale(3), one.scale(Fraction(1, 2))],
                      [Series.zero(2, 8), one.scale(Fraction(-2, 5))]])
    eq = LiftedEquation(2, 2, 1, B, [x1.scale(Fraction(1, 7)), x2 + x1 * x1],
                        {(1, 0, (0, 1)): x1.scale(Fraction(1, 3)),
                         (1, 1, (0, 0)): one.scale(Fraction(-3, 4)),
                         (2, 0, (1, 0)): x2 + x1.scale(2)}, {})
    built = [0]
    real = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return real.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        GradedSolve(eq.B)
        setup, built[0] = built[0], 0
        us = solve_lifted(eq, 6, 8)
        solving = built[0]
    finally:
        Fraction.__new__ = real
    fractional = sum(len(s.terms) for vec in us for s in vec
                     if numerator_layout(s)[0] > 1)
    assert fractional > 20
    assert solving == setup + fractional


def _lifted_scalar(linear, forcing, nonlinear=None, k=1, trunc=8):
    """A scalar lifted equation in one variable with B = 1."""
    return LiftedEquation(1, 1, k, scalar_matrix(1, trunc, 1), [forcing],
                          linear, nonlinear or {})


def test_solve_lifted_groups_equal_the_per_term_recurrence_by_hand():
    x = Series.variable(1, 8, 0)
    cases = {
        # several b in one group (j, alpha), and one b > l at low orders
        "several b": {(1, 0, (1,)): x.pow(2), (1, 1, (1,)): x.scale(3),
                      (1, 2, (1,)): const(1, 8, Fraction(-1, 5)),
                      (1, 4, (1,)): x, (2, 0, (0,)): x.scale(Fraction(1, 2))},
        # a coefficient zero through its trunc still bounds its group
        "zero member": {(1, 0, (0,)): x, (1, 1, (0,)): Series.zero(1, 3)},
        "zero group": {(1, 0, (1,)): Series.zero(1, 2),
                       (1, 0, (0,)): x.scale(2)},
    }
    for name, linear in cases.items():
        for forcing in (x, x.truncate(3), Series.zero(1, 4)):
            eq = _lifted_scalar(linear, forcing,
                                {(2,): [x + const(1, 8, 1)]})
            want = _outcome_lifted(_reference_solve_lifted, eq, 7, 8)
            assert _outcome_lifted(solve_lifted, eq, 7, 8) == want, (
                name, forcing)


def test_solve_lifted_certifies_a_cancelling_group_from_its_members():
    # at l = 2 the group (1, 0) forms x + 2 (-x/2) = 0; u_2 = x^2/2 is
    # certified to 4, so u_3 = 0 is certified to min(1 + 4, 5 + 2) = 5 by
    # the members (the zero factor would claim 5 + 2 = 7)
    x = Series.variable(1, 8, 0)
    eq = _lifted_scalar({(1, 0, (0,)): x,
                         (1, 1, (0,)): x.scale(Fraction(-1, 2)).truncate(5)},
                        x.truncate(3))
    us = solve_lifted(eq, 3, 8)
    assert us[2][0] == Series.monomial(1, 4, (2,), Fraction(1, 2))
    assert us[3][0] == Series.zero(1, 5)
    assert us == _reference_solve_lifted(eq, 3, 8)


def test_solve_lifted_takes_each_derivative_once_and_drops_it(monkeypatch):
    # no Series.diff; one diff_numerators per (l, i, alpha), and no
    # derivative alive once its last reader, order l + max j, is done; each
    # u_l's layout goes with its last derivative, and stays for good when
    # nonlinear terms read it
    diffs = []
    monkeypatch.setattr(Series, "diff",
                        lambda self, alpha: diffs.append(alpha))

    class Held(list):
        """A derivative or a solve's layouts, watched by a weak reference."""

    taken, snapshots, solved, layouts, kept = [], [], [], [], []
    kernel, solve = solver.diff_numerators, GradedSolve.solve

    def watched(layout, alpha):
        out = Held(kernel(layout, alpha))
        taken.append((layout, alpha, weakref.ref(out)))
        return out

    def solve_order(self, r):
        snapshots.append([ref() is not None for _, _, ref in taken])
        layouts.append([ref() is not None for ref in kept])
        out = Held(solve(self, r))
        kept.append(weakref.ref(out))
        solved.append(list(out))
        return out
    monkeypatch.setattr(solver, "diff_numerators", watched)
    monkeypatch.setattr(GradedSolve, "solve", solve_order)
    for nonlinear in (False, True):
        eq = _lifted_k2(nonlinear)
        for seen in (taken, snapshots, solved, layouts, kept):
            seen.clear()
        us = solve_lifted(eq, 6, 8)
        assert diffs == []
        # each derivative is taken from the layout of u_l that the solve
        # of order l returned
        where = {id(s): (l, i) for l, vec in enumerate(solved, start=eq.k)
                 for i, s in enumerate(vec)}
        keys = [(*where[id(s)], alpha) for s, alpha, _ in taken]
        assert len(keys) == len(set(keys))
        # the derivatives the per-term loop reads at least once
        assert {(l, i, alpha) for (j, b, alpha) in eq.linear
                for l in range(2, 6 - j + 1) if b <= l
                for i in range(2)} == set(keys)
        last = {}
        for j, _, alpha in eq.linear:
            last[alpha] = max(j, last.get(alpha, j))
        for n, alive in enumerate(snapshots, start=eq.k):
            for (l, _, alpha), held in zip(keys, alive):
                assert not held or n <= l + last[alpha], (n, l, alpha)
        assert not any(ref() for _, _, ref in taken)
        reach = max(last.values())
        for n, alive in enumerate(layouts, start=eq.k):
            assert alive == [nonlinear or n <= l + reach
                             for l in range(eq.k, n)], (n, alive)


def test_run_reports_a_singular_B0_as_a_poincare_violation():
    # documents cannot reach this, since the reduction keeps B(0) = A(0)
    # and refuses a singular A(0) itself, so the run is handed the lifted
    # equation
    eq = LiftedEquation(1, 1, 2, SeriesMatrix([[Series.variable(1, 6, 0)]]),
                        [Series.variable(1, 6, 0)], {}, {})
    with pytest.raises(SingularLinearPart):
        solve_lifted(eq, 4, 6)
    run = Run(univariate_order2(), 6, 4)
    run.lifted = eq
    with pytest.raises(PoincareViolation) as err:
        run.pexp
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
        layouts, products = _layouts(us), _base(dim, 8)
        for n in range(k, top):
            for gamma in rng.sample(gammas, min(2, len(gammas))):
                factors = _factors(gamma)
                got = _part_series(dim, _tail_monomial_coeff(
                    layouts, factors, n, k, products, dim))
                # zero factors are kept: one zero only through a low trunc
                # still bounds the product's trunc
                want = None
                for ls in product(range(k, n + 1), repeat=len(factors)):
                    if sum(ls) != n:
                        continue
                    term = Series.constant(dim, 8, 1)
                    for l, i in zip(ls, factors):
                        term = term * us[l][i]
                    want = term if want is None else want + term
                if got is None:
                    assert want is None or (want.is_zero and want.trunc >= 8)
                    continue
                assert min(got.trunc, 8) >= min(want.trunc, 8)
                assert got.equal_upto(want, min(got.trunc, want.trunc))
                # and the kernel claims no more than its factors promise:
                # terms above every factor's trunc leave it through got.trunc
                tails = [[Series(dim, u.trunc + 1, {
                    **u.terms, (u.trunc + 1,) + (0,) * (dim - 1): 1})
                    for u in vec] for vec in us]
                again = _part_series(dim, _tail_monomial_coeff(
                    _layouts(tails), factors, n, k, _base(dim, 8), dim))
                assert again.equal_upto(got, got.trunc)


def test_tail_monomial_coeff_in_the_x_grading():
    # solve_direct reads the kernel with grade = total degree in x and
    # k = 1: the degree-m part of y^gamma from the homogeneous parts of y
    rng = random.Random(1997)
    mixed = 0
    for _ in range(30):
        dim, unknowns, trunc = rng.randint(1, 3), rng.randint(1, 3), 6
        parts = [[Series.zero(dim, trunc)] * unknowns]
        for d in range(1, trunc + 1):
            monos = list(iter_exponents(dim, d))
            parts.append([Series(dim, trunc, {
                rng.choice(monos): Fraction(rng.randint(-3, 3),
                                            rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))}) for _ in range(unknowns)])
        y = [Series.zero(dim, trunc)] * unknowns
        for part in parts:
            y = [a + b for a, b in zip(y, part)]
        gammas = [g for g in product(range(5), repeat=unknowns)
                  if 2 <= sum(g) <= 4]
        layouts, products = _layouts(parts), _base(dim, trunc)
        for gamma in rng.sample(gammas, min(4, len(gammas))):
            mixed += sum(1 for g in gamma if g) > 1
            want = _y_power(y, gamma, dim)
            assert want.trunc >= trunc
            for m in range(trunc + 1):
                got = _part_series(dim, _tail_monomial_coeff(
                    layouts, _factors(gamma), m, 1, products, dim))
                got = {} if got is None else got.terms
                assert got == want.homogeneous(m).terms, (gamma, m)
    assert mixed > 0


def _reference_tail_monomial_coeff(us, factors, m, k, products):
    """The prefix recurrence that ``_tail_monomial_coeff`` replaces: every
    factor, also the only one, convolved with its head's product, and a
    square's cross products formed in both orders."""
    key = (factors, m)
    if key in products:
        return products[key]
    head, i = factors[:-1], factors[-1]
    terms = []
    base = products[((), 0)]
    for d in range(k * len(head), (m - k if head else 0) + 1):
        u = us[m - d][i]
        if u.is_zero and u.trunc >= base.trunc:
            continue
        prev = _reference_tail_monomial_coeff(us, head, d, k, products)
        if prev is not None:
            terms.append((1, prev, u))
    out = products[key] = (
        sum_of_products(base.dim, INFINITE, terms) if terms else None)
    return out


def _same_part(got, want):
    if got is None or want is None:
        return got is want
    return (got.trunc == want.trunc and got.terms == want.terms
            and {e: type(c) for e, c in got.terms.items()}
            == {e: type(c) for e, c in want.terms.items()})


def test_tail_monomial_coeff_equals_the_prefix_recurrence():
    # terms, trunc, int | Fraction storage and None-ness, in the t grading
    # (k = 1, 2, 3) and the x grading (k = 1): squares at odd and even
    # grades, factors zero only through a trunc below the base trunc, and
    # single factors certified past base trunc + order, which the product
    # by 1 cuts
    rng = random.Random(2525)
    base_trunc = 8
    seen = dict.fromkeys(("odd square", "even square", "low zero", "cut"), 0)
    for case in range(120):
        x_grading = case % 4 == 3
        k = 1 if x_grading else 1 + case % 3
        dim, unknowns = rng.randint(1, 2), rng.randint(1, 2)
        top = base_trunc + 1 if x_grading else 3 * k + 4
        us = [[Series.zero(dim, base_trunc)] * unknowns for _ in range(k)]
        for l in range(k, top + 1):
            vec = []
            for _ in range(unknowns):
                if rng.random() < 0.15:
                    vec.append(Series.zero(dim, rng.randint(-1, base_trunc + 2)))
                elif x_grading:
                    trunc = rng.choice([base_trunc, rng.randint(l - 1, 12)])
                    vec.append(Series(dim, trunc, {
                        rng.choice(list(iter_exponents(dim, l))):
                        rng.choice([rng.randint(-3, 3),
                                    Fraction(rng.randint(-5, 5),
                                             rng.randint(2, 4))])
                        for _ in range(rng.randint(1, 3))}))
                else:
                    s = mixed_series(rng, dim)
                    if rng.random() < 0.3:
                        # certified past the base trunc + its order
                        s = Series(dim, 14, {**s.terms,
                                             (13,) + (0,) * (dim - 1): 2})
                    vec.append(s)
            us.append(vec)
        gammas = [g for g in product(range(5), repeat=unknowns)
                  if 1 <= sum(g) <= 4]
        layouts = _layouts(us)
        got_cache = _base(dim, base_trunc)
        want_cache = {((), 0): Series.constant(dim, base_trunc, 1)}
        for m in range(top + 1):
            for gamma in rng.sample(gammas, min(4, len(gammas))):
                factors = _factors(gamma)
                if len(factors) == 1 and m < k:
                    continue
                got = _part_series(dim, _tail_monomial_coeff(
                    layouts, factors, m, k, got_cache, dim))
                want = _reference_tail_monomial_coeff(us, factors, m, k,
                                                      want_cache)
                assert _same_part(got, want), (case, factors, m)
                if len(factors) == 2 and len(set(factors)) == 1 and got:
                    seen["odd square" if m % 2 else "even square"] += 1
        for vec in us[k:]:
            for u in vec:
                seen["low zero"] += u.is_zero and u.trunc < base_trunc
                seen["cut"] += (not u.is_zero
                                and u.trunc > base_trunc + u.order())
    assert all(seen.values()), seen


def test_tail_monomial_coeff_forms_each_square_pair_once(monkeypatch):
    # u_i^2 at grade m with lowest grade k is one sum_of_layout_products
    # call with one triple per unordered pair of grades, m // 2 - k + 1, not
    # one per ordered pair, m - 2k + 1; a single factor needs no product by 1
    calls = []
    kernel = solver.sum_of_layout_products

    def counting(trunc, triples):
        calls.append(len(triples))
        return kernel(trunc, triples)
    monkeypatch.setattr(solver, "sum_of_layout_products", counting)
    for k in (1, 2, 3):
        us = [[Series.zero(2, 20)] for _ in range(k)] + [
            [Series(2, 20, {(l, 0): l, (0, l): Fraction(1, l)})]
            for l in range(k, 13)]
        layouts = _layouts(us)
        for m in range(2 * k, 13):
            products = _base(2, 20)
            calls.clear()
            one = _tail_monomial_coeff(layouts, (0,), m, k, products, 2)
            assert calls == []
            assert layout_series(2, one).terms == us[m][0].terms
            square = _part_series(2, _tail_monomial_coeff(
                layouts, (0, 0), m, k, products, 2))
            assert calls == [m // 2 - k + 1], (k, m, calls)
            want = _reference_tail_monomial_coeff(
                us, (0, 0), m, k, {((), 0): Series.constant(2, 20, 1)})
            assert _same_part(square, want)


def test_tail_monomial_coeff_builds_no_fraction_and_caches_reduced_layouts():
    # Fraction coefficients in both gradings, with single factors that the
    # product by 1 cuts so that their denominator falls: no Fraction is
    # built inside the kernel, and every cached part is in degree order,
    # reduced (gcd(D, *numerators) == 1) and equal to numerator_layout of
    # its own Series in D and numerators
    rng = random.Random(2929)
    built = [0]
    real = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return real.__func__(cls, *args, **kwargs)

    seen = dict.fromkeys(("x grading", "cut reduced", "fraction part"), 0)
    for case in range(60):
        x_grading = case % 3 == 2
        k = 1 if x_grading else 1 + case % 3
        dim, unknowns, base_trunc = rng.randint(1, 2), rng.randint(1, 2), 8
        top = base_trunc + 1 if x_grading else 3 * k + 4
        us = [[Series.zero(dim, base_trunc)] * unknowns for _ in range(k)]
        for l in range(k, top + 1):
            vec = []
            for _ in range(unknowns):
                low = l if x_grading else 0
                s = mixed_series(rng, dim, low=min(low, 4))
                if x_grading:
                    s = Series(dim, rng.choice([base_trunc, 12]),
                               {e: c for e, c in s.terms.items()
                                if sum(e) == l}
                               or {(l,) + (0,) * (dim - 1): Fraction(1, 3)})
                if rng.random() < 0.3:
                    # certified past the base trunc + its order, with a
                    # denominator that only the cut term carries
                    s = Series(dim, 14, {**s.terms,
                                         (13,) + (0,) * (dim - 1):
                                         Fraction(1, 11)})
                vec.append(s)
            us.append(vec)
        layouts, cache = _layouts(us), _base(dim, base_trunc)
        gammas = [g for g in product(range(4), repeat=unknowns)
                  if 2 <= sum(g) <= 3]
        calls = [(_factors(g), m) for m in range(top + 1)
                 for g in rng.sample(gammas, min(3, len(gammas)))]
        Fraction.__new__ = staticmethod(counted)
        try:
            built[0] = 0
            for factors, m in calls:
                _tail_monomial_coeff(layouts, factors, m, k, cache, dim)
            assert built[0] == 0, case
        finally:
            Fraction.__new__ = real
        seen["x grading"] += x_grading
        for (factors, m), part in cache.items():
            if part is None or not factors:
                continue
            den, items, trunc, order = part
            assert gcd(den, *[n for _, _, n in items]) == 1
            exps = [(d, key_exp(k, dim)) for d, k, _ in items]
            assert [d for d, _ in exps] == sorted(sum(e) for _, e in exps)
            assert all(d == sum(e) for d, e in exps)
            want = numerator_layout(layout_series(dim, part))
            assert (den, items, trunc, order) == want
            seen["fraction part"] += den > 1
            if len(factors) == 1:
                source = layouts[m][factors[0]]
                seen["cut reduced"] += den < source[0]
    assert all(seen.values()), seen


def _lazy_keys(us, factors, m, k, base_trunc, keys):
    """The (factors, grade) entries that the lazy prefix recursion of
    ``_tail_monomial_coeff`` caches for the grade-m part of y^factors."""
    if (factors, m) in keys:
        return
    keys.add((factors, m))
    head, i = factors[:-1], factors[-1]
    if not head:
        return
    for d in range(k * len(head), (m // 2 if head == (i,) else m - k) + 1):
        u = us[m - d][i]
        if not (u.is_zero and u.trunc >= base_trunc):
            _lazy_keys(us, head, d, k, base_trunc, keys)


def test_tail_monomial_coeff_caches_what_the_lazy_recursion_caches():
    # monomials of up to seven factors in both gradings, with parts zero
    # through or only below the base trunc: the prefix products are formed
    # shortest first, and exactly the entries that the recursion reaches
    rng = random.Random(2626)
    for case in range(40):
        k = 1 + case % 3
        base_trunc, top = 8, 7 * k + 4
        us = [[Series.zero(2, base_trunc)] * 2 for _ in range(k)] + [
            [rng.choice([Series.zero(2, rng.choice([5, 8, 9])),
                         mixed_series(rng, 2)]) for _ in range(2)]
            for _ in range(k, top + 1)]
        layouts = _layouts(us)
        cache = _base(2, base_trunc)
        keys = set()
        for _ in range(6):
            factors = tuple(sorted(rng.choice((0, 1))
                                   for _ in range(rng.randint(3, 7))))
            m = rng.randint(k * len(factors), top)
            _tail_monomial_coeff(layouts, factors, m, k, cache, 2)
            _lazy_keys(us, factors, m, k, base_trunc, keys)
        assert set(cache) - {((), 0)} == keys, case


def test_tail_monomial_coeff_takes_a_monomial_of_many_factors():
    # y1^1100 with y1 = x1 in the x grading: a call per factor on the stack
    # would pass the recursion limit
    n = 1100
    us = [[Series.zero(1, n)], [Series.variable(1, n, 0)]] + [
        [Series.zero(1, n)] for _ in range(n - 1)]
    products = _base(1, n)
    got = layout_series(1, _tail_monomial_coeff(_layouts(us), (0,) * n, n, 1,
                                                products, 1))
    assert got.terms == {(n,): 1} and got.trunc == 2 * n - 1
    assert len(products) == n + 1


def test_solve_takes_a_monomial_of_many_factors(tmp_path, capsys):
    # the document the kernel test above stands for, through the command
    # line: each y0^p formed once in the reduction and each monomial's
    # factors once per lifted solve
    from gevreylab.cli import EXIT_OK, main
    path = tmp_path / "p.gl"
    path.write_text("dim 1; unknowns 1; order 1\nP = x1\nL 1 : (1,) -> x1\n"
                    "F 1 = y1 + x1 + y1^1100\noption degree = 1100\n",
                    encoding="utf-8")
    assert main(["solve", str(path), "--out-dir", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "residual vanishes through certified degree 10\n")
    solution = json.loads((tmp_path / "solution_x.json").read_text())
    # x1^2 y' = y + x1 + y^1100: y = -sum (n-1)! x1^n through degree 1099
    assert solution["solution"][0]["terms"][:4] == [
        {"coef": c, "exp": [n]} for n, c in enumerate(["-1", "-1", "-2", "-6"],
                                                      start=1)]


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


# the Poincare-route documents of the benchmark's convergent workload, and
# the digest of solve_direct(spec, 12) on each, recorded from an oracle that
# evaluated H(y) in full at every degree
CONVERGENT_DOCUMENTS = [
    ("dim 2; unknowns 1; order 1\nP = x1\nL 1 : (1,0) -> 1; (0,1) -> x2\n"
     "F 1 = -1*y1 + x1 + x2 + y1^2\n", "a925052166c1b80a"),
    ("dim 2; unknowns 2; order 1\nP = x1\nL 1 : (1,0) -> 1; (0,1) -> x2\n"
     "F 1 = -1*y1 + y2 + x1 + y1*y2\nF 2 = -2*y2 + x2 + y1^2\n",
     "d294ff2eacbeee3c"),
    ("dim 3; unknowns 1; order 1\nP = x1\n"
     "L 1 : (1,0,0) -> 1; (0,1,0) -> x2; (0,0,1) -> x3\n"
     "F 1 = -1*y1 + x1 + x2 + x3 + y1^2\n", "a9c53b49dbcda8b7"),
    ("dim 2; unknowns 1; order 2\nP = x1\nL 1 : (1,0) -> 1\n"
     "L 2 : (2,0) -> 1; (0,2) -> x2\nF 1 = -1*y1 + x1 + x2 + y1^2\n",
     "d0be105261599e3b"),
]


def _digest(y):
    """A digest of the certified degree and sorted terms of every
    component."""
    text = "\n".join(json.dumps(s.to_json(), sort_keys=True) for s in y)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("text, digest", CONVERGENT_DOCUMENTS,
                         ids=[f"convergent{i}" for i in range(4)])
def test_direct_on_convergent_documents_is_pinned(text, digest):
    # the benchmark checks only the residual of these runs, so a change in
    # a value or a trunc would pass it unnoticed
    y = solve_direct(parse_problem(text).spec, 12)
    assert all(s.trunc == 12 for s in y)
    assert _digest(y) == digest


# the sha256 of json_text({"degree": 12, "solution": solve_direct(spec, 12)})
# plus a newline on each convergent document, as written before the graded
# powers of the oracle moved onto numerator layouts
CONVERGENT_OUTPUTS = [
    "c8ee090fbb07f8fb24bb4ddf9b2f0cb72d812939ba4c9b272711db13c06a0c4a",
    "dc487b13a279f3ad3656a317a419e7b3bb24fcfadd6d0edf07984379cb4448a9",
    "ea4659ad1a84fc90f383d1c2787d1be60cad6c8511efd53746bb09e1efa4d018",
    "da99116cc54db5e2ad72d0d730efd454c250049d6a75e15242a27fa7c6a3169a",
]


@pytest.mark.parametrize("text, sha", [
    (text, sha) for (text, _), sha in zip(CONVERGENT_DOCUMENTS,
                                          CONVERGENT_OUTPUTS)],
    ids=[f"convergent{i}" for i in range(4)])
def test_direct_writes_the_pinned_convergent_output(text, sha):
    # byte for byte, so storage and the writer are pinned with the values
    y = solve_direct(parse_problem(text).spec, 12)
    out = json_text({"degree": 12, "solution": y}) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def _dense_problem(rng, D):
    """P = x1 and L_1 = d1 plus constant and x-dependent terms, so every
    degree needs the dense linear solve; A(0) is upper triangular with a
    negative diagonal, so every degree-n system is invertible.  H has
    x-dependent coefficients and a cubic or mixed monomial."""
    dim, unknowns = rng.randint(2, 3), rng.randint(1, 2)

    def poly(low, high):
        return Series(dim, D, {
            rng.choice(list(iter_exponents(dim, rng.randint(low, high)))):
            Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))})

    ops = {e: poly(0, 0) + poly(1, 1) for e in iter_exponents(dim, 1)}
    ops[(1,) + (0,) * (dim - 1)] = const(dim, D, 1) + poly(1, 2)
    A = SeriesMatrix([[const(dim, D, Fraction(-rng.randint(1, 4), 2)
                             if i == j else rng.randint(-2, 2) * (i < j))
                       + poly(1, 2) for j in range(unknowns)]
                      for i in range(unknowns)])
    gammas = [(3,)] if unknowns == 1 else [(1, 1), (2, 1), (0, 3)]
    H = {g: [poly(0, 2) for _ in range(unknowns)]
         for g in rng.sample(gammas, rng.randint(1, len(gammas)))}
    f = [poly(1, 2) for _ in range(unknowns)]
    return ProblemSpec(dim, unknowns, 1, Series.variable(dim, D, 0),
                       [DiffOperator(dim, 1, ops)], f, A, H)


def test_direct_dense_branch_with_x_dependent_nonlinearity(monkeypatch):
    calls = []
    dense_solve = solver._solve_linear

    def counted(*args):
        calls.append(args)
        return dense_solve(*args)

    monkeypatch.setattr(solver, "_solve_linear", counted)
    rng = random.Random(611)
    D = 6
    for _ in range(6):
        prob = _dense_problem(rng, D)
        before = len(calls)
        y = solve_direct(prob, D)
        assert len(calls) - before == D
        assert all(s.trunc == D for s in y)
        assert any(not s.is_zero for s in y)
        for s in prob.residual(y):
            assert s.trunc >= D
            assert s.truncate(D).is_zero


def _reference_direct(problem, degree):
    """solve_direct with every degree-n column built in full: lhs and
    A.apply of the basis vector x^m e_i at the working degree, keeping the
    degree-n part and the least trunc.  A column certified below n leaves
    its degree unsolved, as in solve_direct."""
    working = max(degree + problem.order, problem.P.order())
    prob = problem.with_trunc(working)
    dim, unknowns = prob.dim, prob.unknowns
    try:
        A0inv = invert_rational_matrix(prob.A.constant_part())
    except SingularMatrix as exc:
        raise SingularLinearPart("D_yF(0,0) is singular") from exc
    omega = prob.P.order()
    raises_degree = all(
        (pos + 1) * (omega - 1) + c.order() > 0
        for pos, L in enumerate(prob.operators) if L is not None
        for c in L.terms.values())
    lin_acc = [Series.zero(dim, working) for _ in range(unknowns)]
    parts = [[Series.zero(dim, working)] * unknowns]
    products = _base(dim, working)
    H = [(_factors(gamma), vec) for gamma, vec in prob.H.items()]
    for n in range(1, degree + 1):
        rhs_vec = [la.homogeneous(n) - fi.homogeneous(n)
                   for la, fi in zip(lin_acc, prob.f)]
        layouts = _layouts(parts)
        for factors, vec in H:
            for m in range(len(factors), n + 1):
                ym = _part_series(dim, _tail_monomial_coeff(
                    layouts, factors, m, 1, products, dim))
                if ym is not None:
                    rhs_vec = [r - c.homogeneous(n - m) * ym
                               for r, c in zip(rhs_vec, vec)]
        cert = min(r.trunc for r in rhs_vec)
        if raises_degree:
            zero = Series.zero(dim, working)
            delta = [sum((r.scale(a) for r, a in zip(rhs_vec, row)), zero)
                     for row in A0inv]
        else:
            monos = list(iter_exponents(dim, n))
            size = unknowns * len(monos)
            index = {(i, m): i * len(monos) + c
                     for i in range(unknowns) for c, m in enumerate(monos)}
            rows = [[Fraction(0)] * (size + 1) for _ in range(size)]
            columns = INFINITE
            for (i, m), col in index.items():
                basis = [Series.zero(dim, working)] * unknowns
                basis[i] = Series.monomial(dim, working, m)
                col_vec = [a - b for a, b in
                           zip(prob.lhs(basis), prob.A.apply(basis))]
                columns = min(columns, *(v.trunc for v in col_vec))
                for i2, v in enumerate(col_vec):
                    for e, cval in v.homogeneous(n).terms.items():
                        rows[index[(i2, e)]][col] += cval
            cert = min(cert, columns)
            if columns < n:
                delta = [Series.zero(dim, cert)] * unknowns
            else:
                for i, r in enumerate(rhs_vec):
                    for e, cval in r.terms.items():
                        rows[index[(i, e)]][size] = -cval
                try:
                    sol = [row[0] for row in gauss_jordan(rows, size)]
                except SingularMatrix as exc:
                    raise SingularLinearPart(
                        f"degree-{n} linear system is singular") from exc
                delta = [Series(dim, cert, {m: sol[index[(i, m)]]
                                            for m in monos})
                         for i in range(unknowns)]
        parts.append(delta)
        if min(s.trunc for s in delta) < n:
            break
        upd = [a - b for a, b in zip(prob.lhs(delta), prob.A.apply(delta))]
        lin_acc = [a + b for a, b in zip(lin_acc, upd)]
    return [sum((part[i] for part in parts), Series.zero(dim, working))
            .truncate(degree) for i in range(unknowns)]


def _outcome(solve, prob, degree):
    """The solution, or the type and message of what it raised."""
    try:
        return solve(prob, degree)
    except SingularLinearPart as exc:
        return type(exc), str(exc)


def test_direct_equals_the_full_column_reference_on_dense_draws(monkeypatch):
    # columns from the degree-n formula and certs from truncs and orders,
    # against columns from a full lhs: values, truncs and raises
    solves = []
    real = solver._solve_linear

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_solve_linear", counted)
    rng = random.Random(1803)
    solved = singular = lowered = 0
    for _ in range(240):
        prob = instances.random_dense_problem(rng)
        degree = rng.randint(1, 4)
        before = len(solves)
        got = _outcome(solve_direct, prob, degree)
        assert got == _outcome(_reference_direct, prob, degree)
        solved += len(solves) > before
        if isinstance(got, tuple):
            singular += got[1].startswith("degree-")
        else:
            lowered += min(s.trunc for s in got) < degree
    assert solved >= 120 and singular >= 5 and lowered >= 100


def test_degree_system_column_truncs_equal_the_full_lhs():
    # per column, including the columns where the lowest terms of L_j(x^m)
    # cancel and the order is taken exactly
    rng = random.Random(77)
    cancelled = 0
    for _ in range(120):
        prob = instances.random_dense_problem(rng)
        degree = rng.randint(1, 5)
        working = max(degree + prob.order, prob.P.order())
        spec = prob.with_trunc(working)
        systems = solver._DegreeSystems(spec, working)
        zero = Series.zero(prob.dim, working)
        for n in range(1, degree + 1):
            for m in iter_exponents(prob.dim, n):
                basis = [Series.monomial(prob.dim, working, m), zero]
                want = spec.lhs(basis)
                assert systems._lhs_trunc(n, m) == want[0].trunc
                assert systems._lhs_trunc(n, None) == want[1].trunc
                cancelled += any(
                    L is not None and L.apply(basis[0]).is_zero
                    for L in spec.operators)
    assert cancelled > 0


def test_direct_does_not_solve_a_matrix_certified_below_its_degree():
    # c known to no degree: the x2 column loses its degree-1 entries, so
    # the degree-1 system is not solved, although A(0) is invertible and
    # the system is non-resonant
    one = Series.constant(2, 50, 1)
    prob = ProblemSpec(
        2, 2, 1, Series.variable(2, 50, 0),
        [DiffOperator(2, 1, {(1, 0): one, (0, 1): Series.zero(2, -1)})],
        [Series(2, 50, {(1, 0): 1, (0, 1): 1}), Series.zero(2, 50)],
        SeriesMatrix([[one.scale(3), one.scale(2)], [Series.zero(2, 50),
                                                     one.scale(2)]]), {})
    y = solve_direct(prob, 2)
    assert y == [Series.zero(2, 0)] * 2
    assert y == _reference_direct(prob, 2)


def _sparse_draw(rng):
    """A random admissible or weighted problem with o(P) >= 2, where every
    left-side term raises the degree; about a third of the k = 2 draws get
    an Euler-type L_3, for k = 3."""
    while True:
        draw = rng.choice([random_admissible_problem, random_weighted_problem])
        prob = draw(rng)
        if prob.P.order() >= 2:
            break
    if prob.order == 2 and rng.random() < 0.35:
        beta = rng.choice(list(iter_exponents(prob.dim, 3)))
        L3 = DiffOperator(prob.dim, 3, {
            beta: Series.monomial(prob.dim, prob.P.trunc, beta, -1)})
        prob = ProblemSpec(prob.dim, prob.unknowns, 3, prob.P,
                           prob.operators + [L3], prob.f, prob.A, prob.H)
    return prob


def _cut_one_input(rng, prob, trunc):
    """prob with one A entry or one operator coefficient known only
    through degree ``trunc``."""
    A = [list(row) for row in prob.A.entries]
    ops = list(prob.operators)
    if rng.random() < 0.5:
        i, l = rng.randrange(prob.unknowns), rng.randrange(prob.unknowns)
        A[i][l] = A[i][l].truncate(trunc)
    else:
        pos = rng.choice([p for p, L in enumerate(ops) if L is not None])
        terms = dict(ops[pos].terms)
        alpha = rng.choice(list(terms))
        terms[alpha] = terms[alpha].truncate(trunc)
        ops[pos] = DiffOperator(prob.dim, pos + 1, terms)
    return ProblemSpec(prob.dim, prob.unknowns, prob.order, prob.P, ops,
                       prob.f, SeriesMatrix(A), prob.H)


def test_direct_equals_the_running_sum_reference_on_both_branches(
        monkeypatch):
    # lhs(y) - f - A y kept by degree against the running sum it replaced:
    # values, truncs and raises, on sparse-branch draws (every left-side
    # term raises the degree) and on dense ones; each draw is uncut, cut
    # whole below the degree, has one A entry or operator coefficient known
    # to a low degree (so the running trunc drops below the degree mid-run),
    # or has A cut to nothing, which makes A(0) = 0 singular
    dense = []
    real = solver._DegreeSystems

    def counted(*args):
        dense.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_DegreeSystems", counted)
    rng = random.Random(2203)
    seen = {}
    for branch, draw, count in (("sparse", _sparse_draw, 150),
                                ("dense", instances.random_dense_problem, 40)):
        for _ in range(count):
            prob = draw(rng)
            degree = rng.randint(3, 7 if branch == "sparse" else 4)
            cut = rng.choice(["none", "whole", "one", "singular"])
            if cut == "whole":
                # never below o(P), which would zero P
                omega = prob.P.order()
                prob = prob.with_trunc(rng.randint(omega,
                                                   max(omega, degree - 1)))
            elif cut == "one":
                prob = _cut_one_input(rng, prob, rng.randint(0, degree - 2))
            elif cut == "singular":
                prob = ProblemSpec(
                    prob.dim, prob.unknowns, prob.order, prob.P,
                    prob.operators, prob.f, SeriesMatrix(
                        [[s.truncate(-1) for s in row]
                         for row in prob.A.entries]), prob.H)
            before = len(dense)
            got = _outcome(solve_direct, prob, degree)
            assert got == _outcome(_reference_direct, prob, degree)
            # a singular A(0) is refused before either branch is chosen
            reached = ("dense" if len(dense) > before
                       else "none" if isinstance(got, tuple) else "sparse")
            if isinstance(got, tuple):
                outcome = "raised"
            elif min(s.trunc for s in got) < degree:
                outcome = "lowered"
            else:
                outcome = "full"
            key = (reached, cut, outcome, prob.order)
            seen[key] = seen.get(key, 0) + 1

    def total(**want):
        names = ("branch", "cut", "outcome", "k")
        return sum(n for key, n in seen.items()
                   if all(want.get(a, v) == v for a, v in zip(names, key)))

    assert total(branch="sparse") >= 100 and total(branch="dense") >= 25
    assert all(total(branch="sparse", k=k) >= 10 for k in (1, 2, 3))
    assert total(branch="sparse", cut="none", outcome="full") >= 30
    assert total(branch="sparse", cut="one", outcome="full") >= 15
    assert total(branch="sparse", cut="one", outcome="lowered") >= 15
    assert total(branch="sparse", cut="whole", outcome="lowered") >= 25
    assert total(branch="dense", outcome="lowered") >= 15
    assert total(branch="none", cut="singular", outcome="raised") >= 30


def test_direct_forms_no_power_and_scans_no_running_sum(monkeypatch):
    # k = 2, dim 2, at degree 30: P^j is formed once for the spec that
    # solve_direct cuts, and degree n of lhs(y) - f - A y is read from its
    # bucket, not by scanning a running sum with homogeneous(n)
    prob = bivariate_order2(INFINITE)
    degree = 30
    calls = {"pow": [], "homogeneous": [], "__mul__": [], "diff": []}
    for name, seen in calls.items():
        def counted(self, *args, _real=getattr(Series, name), _seen=seen):
            _seen.append(self)
            return _real(self, *args)
        monkeypatch.setattr(Series, name, counted)
    y = solve_direct(prob, degree)
    assert len(calls["pow"]) <= prob.order
    assert len(calls["homogeneous"]) <= degree * prob.unknowns
    # f is cut to the working degree, so compare terms
    assert all(any(s.terms == fi.terms for fi in prob.f)
               for s in calls["homogeneous"])
    table = a_table(degree // 2)
    assert y[0].trunc == degree
    assert all(y[0].coeff((n, n)) == -table[n] for n in range(len(table)))
    # a second lhs on the same spec forms sum_j P^j L_j(y_i) as one
    # layout kernel call per unknown, with one triple per L_j whose left
    # factor is the cached P^j, and builds no derivative Series, no product
    # and no power
    prob.lhs(y)
    for seen in calls.values():
        seen.clear()
    kernel = []
    real = solver.sum_of_layout_products

    def counted(trunc, triples):
        kernel.append(triples)
        return real(trunc, triples)

    monkeypatch.setattr(solver, "sum_of_layout_products", counted)
    prob.lhs(y)
    assert calls["pow"] == [] and calls["__mul__"] == [] and calls["diff"] == []
    assert len(kernel) == prob.unknowns
    powers = [prob.power(pos + 1) for pos, L in enumerate(prob.operators)
              if L is not None]
    assert all(len(triples) == len(powers) and
               all(left[1] == numerator_layout(Pj)[1]
                   for (_, left, _), Pj in zip(triples, powers))
               for triples in kernel)


def test_direct_H_and_sparse_parts_equal_the_folds_they_replace():
    # [H(y)]_n, one kernel call per unknown and degree, and the sparse
    # branch's part A(0)^-1 r, one kernel call per unknown, against
    # _reference_direct, which keeps the folds of + they replaced: terms,
    # truncs, storage and raises.  H gets x-dependent coefficients that are
    # cut, exact or zero through their trunc, with int and Fraction
    # coefficients, and every input may be cut to a low degree
    rng = random.Random(2302)
    seen = {}
    for branch, draw in (("sparse", _sparse_draw),
                         ("dense", instances.random_dense_problem)) * 40:
        prob = draw(rng)
        dim, unknowns = prob.dim, prob.unknowns
        gammas = [g for g in product(range(3), repeat=unknowns)
                  if 2 <= sum(g) <= 3]
        # half of the coefficients keep their terms exact, so that some
        # draws certify the full degree
        H = {g: [c if rng.random() < 0.5 else Series(dim, INFINITE, c.terms)
                 for c in (mixed_series(rng, dim) for _ in range(unknowns))]
             for g in rng.sample(gammas, rng.randint(1, min(2, len(gammas))))}
        prob = ProblemSpec(dim, unknowns, prob.order, prob.P, prob.operators,
                           prob.f, prob.A, H)
        degree = rng.randint(3, 6 if branch == "sparse" else 4)
        if rng.random() < 0.3:
            prob = _cut_one_input(rng, prob, rng.randint(0, degree - 1))
        got = _outcome(solve_direct, prob, degree)
        want = _outcome(_reference_direct, prob, degree)
        if isinstance(want, tuple):
            assert got == want
            outcome = "raised"
        else:
            assert _stored(got) == _stored(want)
            outcome = ("lowered" if min(s.trunc for s in got) < degree
                       else "full")
        seen[branch, outcome] = seen.get((branch, outcome), 0) + 1
    # random_dense_problem cuts most of its inputs, so its draws seldom
    # certify the full degree
    assert all(seen.get(key, 0) >= 5 for key in (
        ("sparse", "full"), ("sparse", "lowered"), ("dense", "lowered"))), seen
    assert seen.get(("dense", "full"), 0) > 0, seen


H_GUARD_DOC = """dim 1; unknowns 2; order 1
P = x1^2
L 1 : (1,) -> x1
F 1 = x1 + -1*y1 + y1^2 + x1*y1^2 + 1/2*x1^2*y1*y2 + x1*y2^2 + -1*x1^2*y1^2*y2
F 2 = x1^2 + -2*y2 + 3*y1^2 + -1*x1^2*y1^2 + 2*x1*y1*y2 + -1*y2^2 + -1/3*y1^2*y2
"""


def test_direct_splits_each_H_coefficient_once(monkeypatch):
    # x-dependent H on the sparse branch at degree 12: each H coefficient
    # is split by degree once per call, with at most degree + 1
    # homogeneous calls, and no degree's part scales a right-side row
    spec = parse_problem(H_GUARD_DOC).spec
    degree = 12
    calls = {"homogeneous": [], "scale": []}
    for name, seen in calls.items():
        def counted(self, *args, _real=getattr(Series, name), _seen=seen):
            _seen.append(self)
            return _real(self, *args)
        monkeypatch.setattr(Series, name, counted)
    y = solve_direct(spec, degree)
    coefficients = [c for vec in spec.H.values() for c in vec]
    assert len({str(c) for c in coefficients}) == len(coefficients) == 8
    assert any(sum(e) for c in coefficients for e in c.terms)
    # the oracle cuts the spec to its working degree, so compare terms
    for c in coefficients:
        split = sum(s.terms == c.terms for s in calls["homogeneous"])
        assert 0 < split <= degree + 1, (str(c), split)
    assert len(calls["homogeneous"]) <= (degree + 1) * len(coefficients)
    assert calls["scale"] == []
    assert all(s.trunc == degree for s in y)
    assert all(s.truncate(degree).is_zero for s in spec.residual(y))


def test_pipeline_equals_direct_on_non_monomial_germs():
    # P = x1^a + c x2^b, the long division by a lowest form with one or two
    # monomials, and faadibruno on a dense P, end to end against the oracle
    rng = random.Random(2021)
    D = 6
    two_monomial_lowest_forms = 0
    for _ in range(20):
        prob = random_weighted_problem(rng, trunc=D)
        omega = prob.P.order()
        two_monomial_lowest_forms += len(prob.P.homogeneous(omega).terms) == 2
        # the least order whose tail bound (order + 1) o(P) - 1 reaches D
        run = Run(prob, D, -(-(D + 1) // omega) - 1)
        assert run.certified == D
        for a, b in zip(run.summed, run.direct, strict=True):
            assert a.equal_upto(b, D)
        assert all(s.is_zero for s in run.residual)
    assert two_monomial_lowest_forms > 0


def test_pipeline_equals_direct_on_examples():
    for prob, D in ((bivariate_order2(14), 14), (univariate_order2(14), 14)):
        pexp = solve_p_expansion(prob, 7, D)
        summed = pexp.evaluate()
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
        summed = pexp.evaluate()
        cert = min(min(s.trunc for s in summed), 8)
        for a, b in zip(summed, direct):
            assert a.equal_upto(b, cert), prob


def test_uniqueness_probe():
    prob = bivariate_order2(10)
    y = solve_direct(prob, 10)
    bad = [y[0] + Series.monomial(2, y[0].trunc, (2, 2), Fraction(1, 7))]
    res = prob.residual(bad)
    assert not all(s.is_zero for s in res)


def _with_top(L2):
    prob = univariate_order2()
    return ProblemSpec(1, 1, 2, prob.P, [None, L2], prob.f, prob.A, {})


@pytest.mark.parametrize("L2", [
    None, DiffOperator(1, 2, {(2,): Series.zero(1, float("inf"))})],
    ids=["absent", "exactly-zero"])
def test_pexp_refuses_a_top_operator_known_to_vanish(L2):
    with pytest.raises(InputError) as err:
        Run(_with_top(L2), 6, 4).pexp
    assert err.value.code == "no-top-operator"


def test_pexp_calls_a_top_operator_zero_through_its_trunc_uncertified():
    L2 = DiffOperator(1, 2, {(2,): Series.zero(1, 3)})
    with pytest.raises(TruncationTooSmall, match="zero through degree 3"):
        Run(_with_top(L2), 6, 4).pexp


def test_evaluate_certified_degree_cap():
    prob = bivariate_order2(20)
    pexp = solve_p_expansion(prob, 4, 20)
    summed = pexp.evaluate()
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


def test_poincare_refuses_an_unknown_lambda():
    # c is known to no degree, so lambda_1 = L_1*(P)(0) = 2 c(0) + 2 is
    # unknown: it may not be read as 2, with or without a user bound
    P = Series(2, 8, {(1, 0): 2, (0, 1): -1})
    L1 = DiffOperator(2, 1, {(1, 0): Series.zero(2, -1),
                             (0, 1): const(2, 8, -2)})
    prob = ProblemSpec(2, 1, 1, P, [L1], [Series.variable(2, 8, 0)],
                       scalar_matrix(2, 8, -1), {})
    for bound in (None, 16):
        with pytest.raises(TruncationTooSmall):
            check_poincare(prob, user_bound=bound)


def test_star_at_zero_is_the_constant_term_of_star(monkeypatch):
    # seeded draws, each operator's coefficients and P cut to low truncs:
    # star_at_zero certifies L*(P) to the trunc that star gives it and,
    # where that is >= 0, gives its constant term with the same storage;
    # check_poincare reads it and forms no L_j*(P)
    rng = random.Random(2820)
    draws = (random_admissible_problem, random_weighted_problem,
             instances.random_dense_problem)
    seen = {"certified": 0, "uncertified": 0, "fraction": 0}
    specs = []
    for case in range(120):
        prob = draws[case % 3](rng)
        specs.append(prob)
        for cut in range(4):
            P = prob.P
            if cut:
                P = P.truncate(rng.randint(P.order(), P.order() + 3))
            for L in prob.operators:
                if L is None:
                    continue
                if cut:
                    L = DiffOperator(L.dim, L.order, {
                        a: c.truncate(rng.randint(-1, 3))
                        for a, c in L.terms.items()})
                star = L.star(P)
                value, trunc = L.star_at_zero(P)
                assert trunc == star.trunc
                if trunc < 0:
                    seen["uncertified"] += 1
                    continue
                want = star.constant_term()
                assert (type(value), value) == (type(want), want)
                seen["certified"] += 1
                seen["fraction"] += type(value) is Fraction
    assert min(seen.values()) >= 20, seen
    # a draw with an L_j*(P) certified below degree 0 has an unknown lambda
    stars = [[L and L.star(prob.P) for L in prob.operators] for prob in specs]
    want = [None if any(s and s.trunc < 0 for s in row) else
            {j + 1: s.constant_term() if s else 0 for j, s in enumerate(row)}
            for row in stars]
    assert 0 < want.count(None) < len(want) // 2
    monkeypatch.setattr(DiffOperator, "star", None)
    got = []
    for prob in specs:
        try:
            got.append(check_poincare(prob, user_bound=4).lambdas)
        except TruncationTooSmall:
            got.append(None)
    assert got == want


def test_poincare_computes_one_determinant_per_distinct_s(monkeypatch):
    # divergent route: L_1 = x d_x against P = x gives lambda_1 = 0, so
    # s(n) = 0 for n = 0..16 and det(-A(0)) is computed once; a singular
    # A(0) still fails at every n
    calls = []
    real = solver._det

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(solver, "_det", counted)
    trunc = 6
    P = Series.variable(1, trunc, 0)
    L1 = DiffOperator(1, 1, {(1,): Series.variable(1, trunc, 0)})
    one, zero = const(1, trunc, 1), Series.zero(1, trunc)
    for A, failing in (([[one, zero], [zero, one.scale(2)]], []),
                       ([[one, one], [one, one]], list(range(17)))):
        prob = ProblemSpec(1, 2, 1, P, [L1], [P, zero], SeriesMatrix(A), {})
        calls.clear()
        verdict = check_poincare(prob, user_bound=16)
        assert len(calls) == 1
        assert verdict.n_star == 16 and verdict.failing == failing
        assert verdict.determinant(5) == (0 if failing else 2)


# -- invert_series_matrix ----------------------------------------------------

def _reference_inverse(M):
    """M^-1 by the dense recurrence, apart from the kernel under test: with
    X_0 = M(0)^-1 and N_d the degree-d part of M, X_m = -X_0 sum_{d=1..m}
    N_d X_(m-d).  Every entry is certified to the least trunc T of M."""
    n, dim = M.rows, M.dim
    T = min(s.trunc for row in M.entries for s in row)
    try:
        X0 = invert_rational_matrix(M.constant_part())
    except SingularMatrix as exc:
        raise SingularLinearPart(str(exc)) from exc
    top = T
    if T == float("inf"):
        if any(sum(e) for row in M.entries for s in row for e in s.terms):
            raise ValueError("exact matrix: cut it first (truncate, with_trunc)")
        top = 0
    zero = Series.zero(dim, T)
    N = [[[Series(dim, T, s.homogeneous(d).terms) for s in row]
          for row in M.entries] for d in range(top + 1)]
    X = [[[const(dim, T, v) for v in row] for row in X0]]
    for m in range(1, top + 1):
        S = [[sum((N[d][i][l] * X[m - d][l][j] for d in range(1, m + 1)
                   for l in range(n)), zero) for j in range(n)]
             for i in range(n)]
        X.append([[sum((S[l][j].scale(-X0[i][l]) for l in range(n)), zero)
                   for j in range(n)] for i in range(n)])
    return SeriesMatrix([[Series(dim, T, {e: c for Xm in X
                                          for e, c in Xm[i][j].terms.items()})
                          for j in range(n)] for i in range(n)])


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
        inv = invert_series_matrix(M)
        assert inv == _reference_inverse(M), M.entries
        assert_inverse(M, inv)
        inverted += 1
    assert singular > 0


def test_invert_entry_certified_below_the_constants():
    # an entry known to degree -1 certifies nothing, not even M(0)
    one, x = const(1, 4, 1), Series.variable(1, 4, 0)
    M = SeriesMatrix([[one + x, Series.zero(1, -1)], [x, const(1, 4, 2)]])
    inv = invert_series_matrix(M)
    assert inv == _reference_inverse(M)
    assert all(s == Series.zero(1, -1) for row in inv.entries for s in row)


def test_invert_exact_matrices():
    inf = float("inf")
    exact = SeriesMatrix([[const(2, inf, 2), const(2, inf, 1)],
                          [Series.zero(2, inf), const(2, inf, -1)]])
    inv = invert_series_matrix(exact)
    assert inv == _reference_inverse(exact)
    half = const(2, inf, Fraction(1, 2))
    assert inv.entries == [[half, half], [Series.zero(2, inf), const(2, inf, -1)]]
    with pytest.raises(ValueError):
        invert_series_matrix(
            SeriesMatrix([[Series(1, inf, {(0,): 1, (1,): 1})]]))


def test_invert_singular():
    with pytest.raises(SingularLinearPart):
        invert_series_matrix(SeriesMatrix([[Series.variable(1, 3, 0)]]))


# -- GradedSolve ---------------------------------------------------------------

def _constant_part(rng, n, shape):
    """An invertible n x n rational matrix: diagonal, triangular or full."""
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (i == j or shape == "full"
                        or (shape == "triangular" and j > i)):
                    m[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if _det(m) != 0:
            return m


def _graded_matrix(rng, n, dim, constant):
    shape = rng.choice(["diagonal", "triangular", "full"])
    m0 = _constant_part(rng, n, shape)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            trunc = rng.randint(1, 6)
            terms = {(0,) * dim: m0[i][j]}
            if not constant and rng.random() < 0.6:
                for _ in range(rng.randint(1, 3)):
                    e = rng.choice(list(iter_exponents(dim, rng.randint(1, 3))))
                    terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if rng.random() < 0.15 and m0[i][j] == 0:
                terms = {}      # zero through its trunc
            row.append(Series(dim, trunc, terms))
        entries.append(row)
    return SeriesMatrix(entries)


def _right_side(rng, dim):
    kind = rng.choice(["zero", "low", "positive order", "plain", "exact"])
    trunc = {"zero": rng.randint(-1, 8), "low": rng.randint(0, 2),
             "exact": float("inf")}.get(kind, rng.randint(2, 8))
    if kind == "zero":
        return Series.zero(dim, trunc)
    lo = 2 if kind == "positive order" else 0
    hi = min(trunc, 7)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if lo > hi:
            break
        e = rng.choice(list(iter_exponents(dim, rng.randint(lo, hi))))
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Series(dim, trunc, terms)


def test_graded_solve_equals_the_inverse_applied(monkeypatch):
    # the kernel certifies from the orders of its own unit column solves,
    # and never forms an inverse through invert_series_matrix
    inverted = []
    monkeypatch.setattr(solver, "invert_series_matrix", inverted.append)
    rng = random.Random(14)
    settled_late = zero_sides = 0
    for draw in range(600):
        n, dim = rng.randint(1, 3), rng.randint(1, 3)
        M = _graded_matrix(rng, n, dim, constant=draw % 5 == 0)
        kernel = solver.GradedSolve(M)
        inverse = _reference_inverse(M)
        for _ in range(3):
            r = [_right_side(rng, dim) for _ in range(n)]
            assert _solve_series(kernel, r) == inverse.apply(r), (M.entries, r)
            zero_sides += bool(kernel.K) and all(s.is_zero for s in r)
        settled_late += kernel._columns is not None
    # some truncs needed the orders of inverse entries above degree 0, and
    # some all-zero right sides met a non-constant matrix
    assert settled_late > 0
    assert zero_sides > 0
    assert inverted == []


def test_graded_solve_singular_and_exact_matrices():
    with pytest.raises(SingularLinearPart):
        solver.GradedSolve(SeriesMatrix([[Series.variable(1, 3, 0)]]))
    with pytest.raises(ValueError):
        solver.GradedSolve(SeriesMatrix([[Series(1, float("inf"),
                                                 {(0,): 1, (1,): 1})]]))
    exact = SeriesMatrix([[const(2, float("inf"), 2)]])
    r = [Series(2, float("inf"), {(1, 0): 1})]
    assert _solve_series(solver.GradedSolve(exact), r) == \
        _reference_inverse(exact).apply(r)


def test_graded_solve_refuses_a_degree_a_key_field_cannot_hold():
    # a matrix with a degree-1 part certified to 2^32 would carry K u_d
    # into the degree field: refused with the packing's own message
    M = SeriesMatrix([[Series(1, 2 ** 32, {(0,): 1, (1,): 1})]])
    with pytest.raises(ValueError, match="does not fit a 32-bit key field"):
        solver.GradedSolve(M).solve(
            [(1, [(series.exp_key((1,)), 1)], 2 ** 32)])


GUARD_DOC = """dim 2; unknowns 2; order 2
P = x2^2
L 1 : (0,1) -> -2*x1*x2
L 2 : (0,2) -> x2^2
F 1 = x1*x2^2 + -1*y1 + 2*x2*y1 + -1*y2 + -3*x2*y2
F 2 = 3*x1 + -2*y1 + y2 + -1/2*x1*y2
option degree = 8
option order = 6
"""


def test_linear_solves_never_invert_at_the_working_degree(monkeypatch):
    # a linear 2x2 system whose A depends on x: each order of the lifted
    # recurrence and each implicit solve is one solve against B, and none
    # may form B^-1 through the working degree
    run = parse_problem(GUARD_DOC).run()
    truncs = []
    inverse = solver.invert_series_matrix

    def counting(M):
        truncs.append(min(s.trunc for row in M.entries for s in row))
        return inverse(M)

    monkeypatch.setattr(solver, "invert_series_matrix", counting)
    # the kernel's own unit-column solves form B^-1 through B's trunc
    monkeypatch.setattr(GradedSolve, "columns",
                        lambda self: truncs.append(self.trunc))
    pexp = run.pexp
    assert any(sum(e) for row in run.lifted.B.entries for s in row
               for e in s.terms)
    assert len(pexp.coeffs) == run.order + 1
    assert all(t < run.working for t in truncs), truncs
