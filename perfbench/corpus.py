"""The benchmark's own copy of the random admissible problem generator.

``draw_corpus(99, 200, trunc=8)`` reproduces, problem for problem, the
200-instance draw of acceptance criterion 3.  The copy lives here so that
an edit to the test helpers cannot shift the benchmark's inputs; a
self-test pins the serialised corpus by its sha256.

Instances satisfy the divergent-route hypotheses by construction: P is a
monomial x^a and every operator is Euler-type, sum b_beta(x) x^beta d_beta.
"""

import random
from fractions import Fraction

from gevreylab.diffops import DiffOperator
from gevreylab.errors import SingularMatrix
from gevreylab.series import Series, SeriesMatrix, invert_rational_matrix
from gevreylab.solver import ProblemSpec


def _exponents(dim, total):
    if dim == 1:
        return [(total,)]
    return [(h,) + r for h in range(total, -1, -1)
            for r in _exponents(dim - 1, total - h)]


def _poly(rng, dim, trunc, degree, max_terms=3, zero_const=True):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, degree) for _ in range(dim))
        if sum(e) > degree or (zero_const and sum(e) == 0):
            continue
        terms[e] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Series(dim, trunc, terms)


def random_admissible_problem(rng: random.Random, trunc: int) -> ProblemSpec:
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
        for beta in _exponents(dim, j):
            if rng.random() < 0.5:
                continue
            b = _poly(rng, dim, trunc, 1, max_terms=2, zero_const=False)
            if b.is_zero:
                continue
            terms[beta] = b * Series.monomial(dim, trunc, beta)
        if j == k and not terms:
            beta = _exponents(dim, j)[0]
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


def draw_corpus(seed: int, count: int, trunc: int) -> list[ProblemSpec]:
    rng = random.Random(seed)
    return [random_admissible_problem(rng, trunc) for _ in range(count)]


def relabel(spec: ProblemSpec, xperm, yperm) -> ProblemSpec:
    """The same problem with x_i renamed x_{xperm[i]} and y_i renamed
    y_{yperm[i]}: an isomorphic input of identical arithmetic cost."""
    def exp(e):
        out = [0] * len(e)
        for i, p in enumerate(e):
            out[xperm[i]] = p
        return tuple(out)

    def ser(s):
        return Series(s.dim, s.trunc, {exp(e): c for e, c in s.terms.items()})

    def vec(v):
        out = [None] * len(v)
        for i, s in enumerate(v):
            out[yperm[i]] = ser(s)
        return out

    N = spec.unknowns
    ops = [None if L is None else
           DiffOperator(spec.dim, L.order,
                        {exp(a): ser(c) for a, c in L.terms.items()})
           for L in spec.operators]
    A = [[None] * N for _ in range(N)]
    for i in range(N):
        for j in range(N):
            A[yperm[i]][yperm[j]] = ser(spec.A.entry(i, j))
    H = {}
    for gamma, v in spec.H.items():
        g = [0] * N
        for i, p in enumerate(gamma):
            g[yperm[i]] = p
        H[tuple(g)] = vec(v)
    return ProblemSpec(spec.dim, N, spec.order, ser(spec.P), ops,
                       vec(spec.f), SeriesMatrix(A), H)
