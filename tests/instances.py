"""Random admissible problem instances shared by the test modules.

Instances are built so the divergent-route hypotheses hold by construction.
In ``random_admissible_problem`` P is a monomial x^a, and every operator is
Euler-type, L_j = sum over |beta| = j of b_beta(x) x^beta d_beta, whose
star against a monomial is automatically divisible by it.  In
``random_weighted_problem`` P = x1^a + c x2^b is weighted homogeneous, so
the Euler field b x1 d1 + a x2 d2 stars it to ab P, and every other
coefficient is a multiple of P.  ``random_dense_problem`` is on the
Poincare side instead: o(P) = 1 and some c_alpha(0) != 0, so ``solve_direct``
takes its dense branch unless a cut removes every c_alpha(0).
"""

import random
from fractions import Fraction

from gevreylab.diffops import DiffOperator
from gevreylab.series import (INFINITE, Series, SeriesMatrix,
                              invert_rational_matrix, iter_exponents)
from gevreylab.errors import SingularMatrix
from gevreylab.solver import ProblemSpec


def _poly(rng, dim, trunc, degree, max_terms=3, zero_const=True):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, degree) for _ in range(dim))
        if sum(e) > degree or (zero_const and sum(e) == 0):
            continue
        terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Series(dim, trunc, terms)


def random_admissible_problem(rng: random.Random, trunc: int = 10) -> ProblemSpec:
    dim = rng.randint(1, 2)
    unknowns = rng.randint(1, 2)
    k = rng.randint(1, 2)
    while True:
        a = tuple(rng.randint(0, 2) for _ in range(dim))
        if 1 <= sum(a) <= 2:
            break
    P = Series.monomial(dim, trunc, a)
    operators = []
    for j in range(1, k + 1):
        if j < k and rng.random() < 0.4:
            operators.append(None)
            continue
        terms = {}
        for beta in iter_exponents(dim, j):
            if rng.random() < 0.5:
                continue
            b = _poly(rng, dim, trunc, 1, max_terms=2, zero_const=False)
            if b.is_zero:
                continue
            terms[beta] = b * Series.monomial(dim, trunc, beta)
        if j == k and not terms:
            beta = next(iter_exponents(dim, j))
            terms[beta] = Series.monomial(dim, trunc, beta)
        operators.append(DiffOperator(dim, j, terms) if terms else None)
    return ProblemSpec(dim, unknowns, k, P, operators,
                       *_right_side(rng, dim, unknowns, trunc))


def random_weighted_problem(rng: random.Random, trunc: int = 8) -> ProblemSpec:
    """dim 2, P = x1^a + c x2^b with a, b <= 3 (a = b about a third of the
    time, so the lowest form of P can have two monomials), k = 1, 2, and
    y1^2 in H about half the time."""
    dim = 2
    unknowns = rng.randint(1, 2)
    k = rng.randint(1, 2)
    a = rng.randint(1, 3)
    b = a if rng.random() < 0.35 else rng.randint(1, 3)
    c = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2))
    P = Series(dim, trunc, {(a, 0): 1, (0, b): c})

    def p_multiple():
        return P * _poly(rng, dim, trunc, 1, max_terms=2, zero_const=False)

    euler = {(1, 0): Series.monomial(dim, trunc, (1, 0), b),
             (0, 1): Series.monomial(dim, trunc, (0, 1), a)}
    operators = [DiffOperator(dim, 1, {
        alpha: s + p_multiple() if rng.random() < 0.5 else s
        for alpha, s in euler.items()})]
    if k == 2:
        terms = {beta: p_multiple() for beta in iter_exponents(dim, 2)
                 if rng.random() < 0.6}
        if all(s.is_zero for s in terms.values()):
            terms[(1, 1)] = P
        operators.append(DiffOperator(dim, 2, terms))
    f, A, H = _right_side(rng, dim, unknowns, trunc)
    if rng.random() < 0.5:
        H.setdefault((2,) + (0,) * (unknowns - 1), [
            Series.constant(dim, trunc, 1) + _poly(rng, dim, trunc, 2)
            for _ in range(unknowns)])
    return ProblemSpec(dim, unknowns, k, P, operators, f, A, H)


def random_dense_problem(rng: random.Random, trunc: int = 12) -> ProblemSpec:
    """dim and unknowns 1..3, k = 1, 2; P of order 1 with a multi-term
    linear part (dim >= 2) and higher terms; before the cuts, every c_alpha
    has c(0) != 0 and a non-constant tail, except that about a third of the draws with
    dim >= 2 make L_1 the cancelling pair x1 d1 - x2 d2 (plus d3 in dim 3).
    P, the c_alpha, A and f are each cut to a random trunc (-1..6, P to
    1..6 so that it stays nonzero); A(0) may be singular."""
    dim = rng.randint(1, 3)
    unknowns = rng.randint(1, 3)
    pair = dim >= 2 and rng.random() < 0.35
    # in dim 2, L_1 = x1 d1 - x2 d2 keeps no c(0) != 0: L_2 must
    k = 2 if pair and dim == 2 else rng.randint(1, 2)

    def cut(s, low=-1):
        return s.truncate(rng.randint(low, 6)) if rng.random() < 0.6 else s

    linear = {e: Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 2))
              for e in iter_exponents(dim, 1) if e[0] or rng.random() < 0.7}
    higher = {e: c for e, c in _poly(rng, dim, trunc, 3).terms.items()
              if sum(e) >= 2}
    P = cut(Series(dim, trunc, {**linear, **higher}), low=1)

    def coefficient():
        c = Fraction(rng.choice([-3, -2, -1, 1, 2]), rng.randint(1, 2))
        tail = Series.variable(dim, trunc, rng.randrange(dim)).scale(
            rng.choice([-1, 1, 2]))
        return cut(Series.constant(dim, trunc, c) + tail
                   + _poly(rng, dim, trunc, 2, max_terms=2))

    operators = []
    for j in range(1, k + 1):
        if j == 1 and pair:
            x1, x2 = (Series.variable(dim, trunc, i) for i in (0, 1))
            terms = {(1, 0) + (0,) * (dim - 2): cut(x1),
                     (0, 1) + (0,) * (dim - 2): cut(-x2)}
            if dim == 3:
                terms[(0, 0, 1)] = coefficient()
        else:
            alphas = list(iter_exponents(dim, j))
            chosen = [a for a in alphas if rng.random() < 0.6]
            terms = {a: coefficient() for a in chosen or [rng.choice(alphas)]}
        operators.append(DiffOperator(dim, j, terms))
    A0 = [[rng.randint(-3, 3) for _ in range(unknowns)]
          for _ in range(unknowns)]
    A = SeriesMatrix([[cut(Series.constant(dim, trunc, A0[i][l])
                           + _poly(rng, dim, trunc, 2, max_terms=1))
                       for l in range(unknowns)] for i in range(unknowns)])
    f = [cut(_poly(rng, dim, trunc, 3)) for _ in range(unknowns)]
    if all(s.is_zero for s in f):
        f[0] = Series.variable(dim, trunc, 0)
    H = {}
    if rng.random() < 0.4:
        gamma = (2,) + (0,) * (unknowns - 1)
        H[gamma] = [_poly(rng, dim, trunc, 1, max_terms=2, zero_const=False)
                    for _ in range(unknowns)]
    return ProblemSpec(dim, unknowns, k, P, operators, f, A, H)


def _right_side(rng, dim, unknowns, trunc):
    """f, A with A(0) invertible, and H with up to two y-monomials."""
    f = [_poly(rng, dim, trunc, 3) for _ in range(unknowns)]
    if all(s.is_zero for s in f):
        f[0] = Series.variable(dim, trunc, 0)
    while True:
        A0 = [[Fraction(rng.randint(-3, 3)) for _ in range(unknowns)]
              for _ in range(unknowns)]
        try:
            invert_rational_matrix(A0)
            break
        except SingularMatrix:
            continue
    A = SeriesMatrix([
        [Series.constant(dim, trunc, A0[i][j]) + _poly(rng, dim, trunc, 2,
                                                       max_terms=1)
         for j in range(unknowns)] for i in range(unknowns)])
    H = {}
    for _ in range(rng.randint(0, 2)):
        gamma = tuple(rng.randint(0, 2) for _ in range(unknowns))
        if sum(gamma) < 2:
            continue
        vec = [_poly(rng, dim, trunc, 2, max_terms=2, zero_const=False)
               for _ in range(unknowns)]
        if any(not s.is_zero for s in vec):
            H[gamma] = vec
    return f, A, H


def mixed_series(rng: random.Random, dim: int, low: int = 0) -> Series:
    """Up to four terms of degree low..4 with int and Fraction coefficients,
    certified to a trunc in -1..8 or exact (INFINITE); a tenth of the draws
    are zero through their trunc."""
    trunc = rng.choice([*range(-1, 9), INFINITE])
    if rng.random() < 0.1:
        return Series.zero(dim, trunc)
    return Series(dim, trunc, {
        rng.choice(list(iter_exponents(dim, rng.randint(low, 4)))):
        rng.choice([rng.randint(-4, 4),
                    Fraction(rng.randint(-9, 9), rng.randint(2, 7))])
        for _ in range(rng.randint(1, 4))})
