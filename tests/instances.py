"""Random admissible problem instances shared by the test modules.

Instances are built so the divergent-route hypotheses hold by construction:
P is a monomial x^a, and every operator is Euler-type, L_j = sum over
|beta| = j of b_beta(x) x^beta d_beta, whose star against a monomial is
automatically divisible by it.
"""

import random
from fractions import Fraction

from gevreylab.diffops import DiffOperator
from gevreylab.series import (Series, SeriesMatrix, invert_rational_matrix,
                              iter_exponents)
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
    return ProblemSpec(dim, unknowns, k, P, operators, f, A, H)
