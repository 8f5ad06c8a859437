"""Series solvers for systems P^k L_k(y) + ... + P L_1(y) = F(x, y).

Two independent routes are provided:

* ``solve_p_expansion`` -- the constructive pipeline: peel off the first k
  coefficients by implicit solves, lift the remaining tail to an auxiliary
  time variable t (so the tail becomes sum u_n t^n), and run the resulting
  well-founded order-by-order recurrence (``solve_lifted``).  Each implicit
  solve is that recurrence too, at k = 1, with t scaling the forcing.

* ``solve_direct`` -- a degree-graded oracle that plugs a generic truncated
  series into the equation and solves one exact linear system per total
  degree.  Its matrix is written down from the terms that reach degree n
  (P_1^j c_alpha(0) d_alpha, with P_1 the linear part of P, and A(0)), and
  each degree is certified from the truncs and orders of P^j, the
  c_alpha, A and the right side by the arithmetic of ``product_trunc``,
  without forming the products; lhs(y) - f - A y is kept by degree, each
  read once.

The oracle cross-checks the pipeline (acceptance criterion 3), so each
solver keeps its own recurrence.  They share only kernels, each tested
against plain folds of ``Series`` arithmetic: ``Series.__mul__``; the one
certified sum of products on numerator layouts,
``sum_of_layout_products``, and its integer core ``numerator_products``;
``diff_numerators``; and ``_tail_monomial_coeff``, the graded parts of
y^gamma in both gradings.  Every linear step of the pipeline is one solve
by ``GradedSolve``, which forms no inverse.

Both routes read P^j from ``ProblemSpec.power``, formed once per spec as
the reduction asks; every other run of powers is one ``Series.powers``.

``check_poincare`` covers the complementary regime where P is non-singular
at the origin and the solution is convergent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, product, repeat
from math import lcm, prod
from operator import add, mul, sub
from typing import Sequence

from .diffops import DiffOperator, check_divisibility, faadibruno, stirling_first
from .errors import (
    DivisibilityViolation,
    InconclusiveBound,
    InputError,
    PoincareViolation,
    ResidualCheckFailed,
    SingularLinearPart,
    SingularMatrix,
    TruncationTooSmall,
)
from .series import (
    INFINITE,
    Exponent,
    Rational,
    Series,
    SeriesMatrix,
    _LIMIT,
    _det,
    _graded,
    _layout,
    _over,
    _too_high,
    diff_numerators,
    exp_binomial,
    exp_key,
    exp_le,
    exp_sub,
    falling_factorial,
    gauss_jordan,
    invert_rational_matrix,
    iter_exponents,
    layout_series,
    numerator_layout,
    numerator_products,
    product_trunc,
    reduce_layout,
    sum_of_layout_products,
    sum_of_products,
    unit_exp,
)

Vector = list[Series]
PolyMap = dict[tuple[int, ...], Vector]  # y-monomial gamma -> coefficient vector


# ---------------------------------------------------------------------------
# problem datum

class ProblemSpec:
    """The full datum (d, N, k, P, L_1..L_k, F) with F split as
    f(x) + A(x) y + H(x, y), H carrying only y-degree >= 2 terms.  Each
    P^j is formed once per spec, on first use (``power``)."""

    __slots__ = ("dim", "unknowns", "order", "P", "operators", "f", "A", "H",
                 "_powers")

    def __init__(self, dim: int, unknowns: int, order: int, P: Series,
                 operators: Sequence[DiffOperator | None], f: Vector,
                 A: SeriesMatrix, H: PolyMap):
        if P.is_zero or P.constant_term() != 0:
            raise ValueError("P must be nonzero with P(0) = 0")
        if len(operators) != order:
            raise ValueError("need one operator slot per order 1..k")
        if any(fi.constant_term() != 0 for fi in f):
            raise ValueError("F(0, 0) must vanish")
        for gamma in H:
            if sum(gamma) < 2:
                raise ValueError("H may only contain y-degree >= 2 monomials")
        self.dim = dim
        self.unknowns = unknowns
        self.order = order
        self.P = P
        self.operators = list(operators)
        self.f = list(f)
        self.A = A
        self.H = {tuple(g): list(v) for g, v in H.items()}
        self._powers: list[Series] = []

    def power(self, j: int) -> Series:
        """P^j, equal to ``P.pow(j)``, formed once as P^(j-1) P and kept."""
        powers = self._powers
        if not powers:
            powers.append(Series.constant(self.dim, self.P.trunc, 1))
        while len(powers) <= j:
            powers.append(powers[-1] * self.P)
        return powers[j]

    def with_trunc(self, trunc: int) -> "ProblemSpec":
        """Each input cut to min(its trunc, trunc), so an input known only to
        a lower degree keeps it; cutting P below its order would zero it."""
        return ProblemSpec(
            self.dim, self.unknowns, self.order,
            self.P.truncate(trunc),
            [L if L is None else DiffOperator(
                self.dim, L.order,
                {a: s.truncate(trunc) for a, s in L.terms.items()})
             for L in self.operators],
            [s.truncate(trunc) for s in self.f],
            SeriesMatrix([[s.truncate(trunc) for s in row]
                          for row in self.A.entries]),
            {g: [s.truncate(trunc) for s in v] for g, v in self.H.items()},
        )

    def lhs(self, y: Vector) -> Vector:
        """sum_j P^j L_j(y), componentwise; only an absent L_j is skipped,
        since zero coefficients still bound the certified degree.  Each
        L_j(y_i) goes to the product by P^j as int numerators, so each
        output coefficient is one Fraction."""
        ops = [(self.power(pos + 1), L)
               for pos, L in enumerate(self.operators) if L is not None]
        if not ops:
            trunc = min(yi.trunc for yi in y)
            return [Series.zero(self.dim, trunc) for _ in range(self.unknowns)]
        ops = [(numerator_layout(Pj), L) for Pj, L in ops]
        return [_over(self.dim, *sum_of_layout_products(INFINITE, [
            (1, Pj, L.apply_numerators(yi)) for Pj, L in ops])) for yi in y]

    def residual(self, y: Vector) -> Vector:
        return [a - b for a, b in
                zip(self.lhs(y), eval_F(self.f, self.A, self.H, y))]


def eval_F(f: Vector, A: SeriesMatrix, H: PolyMap, y: Vector) -> Vector:
    """F(x, y) = f + A y + H(x, y)."""
    hy = eval_poly_map(H, y, A.dim, A.rows)
    return [fi + ai + hi for fi, ai, hi in zip(f, A.apply(y), hy)]


def eval_poly_map(H: PolyMap, y: Vector, dim: int, unknowns: int) -> Vector:
    """sum_gamma A_gamma(x) y^gamma, each monomial certified from its own
    factors; an empty H is the exact zero."""
    monos = [(vec, _y_power(y, gamma, dim)) for gamma, vec in H.items()]
    return [sum_of_products(dim, INFINITE, [(1, vec[i], m) for vec, m in monos])
            for i in range(unknowns)]


def _y_power(y: Vector, gamma: Sequence[int], dim: int) -> Series:
    return prod((y[i] for i in _factors(gamma)),
                start=Series.constant(dim, INFINITE, 1))


# ---------------------------------------------------------------------------
# graded linear solves against series matrices

class GradedSolve:
    """u = M^-1 r for a matrix M with invertible constant part, built once
    per M and applied per right side r without forming M^-1.

    T is the least trunc among the entries of M, X0 = M(0)^-1 and
    K_d = -X0 N_d for the degree-d part N_d of M - M(0), 0 < d <= T: one
    pass over the terms of M fills one dict per d and entry (i, j), then
    int numerators.  u = X0 r + K u is solved lowest degree first on a
    degree-bucketed remainder, the long-division scheme of
    ``Series.divide_exact``: once u_d is final, K_e u_d goes to degree
    d + e.  A constant M has no K, so its solve is the product by X0.  Row
    i is certified to min_l product_trunc(T, o((M^-1)_il), r_l.trunc,
    o(r_l)), as a product by the inverse is.  The orders of the inverse's
    entries come from the zero pattern of X0 (exactly, for a constant M)
    and, only where an order still unknown could lower that bound, from
    the inverse itself, through T (``columns``).  Raises SingularLinearPart
    when M(0) is singular and ValueError for an exact M that is not
    constant."""

    __slots__ = ("dim", "n", "trunc", "dX", "X0", "dK", "K", "_columns",
                 "_truncs_of")

    def __init__(self, M: SeriesMatrix):
        n = self.n = M.rows
        self.dim = M.dim
        trunc = self.trunc = min(s.trunc for row in M.entries for s in row)
        try:
            X0 = invert_rational_matrix(M.constant_part())
        except SingularMatrix as exc:
            raise SingularLinearPart(str(exc)) from exc
        K: dict[int, dict[tuple[int, int], dict[Exponent, Fraction]]] = {}
        for l, row in enumerate(M.entries):
            for j, s in enumerate(row):
                for e, c in s.terms.items():
                    d = sum(e)
                    if not 0 < d <= trunc:
                        continue
                    Kd = K.setdefault(d, {})
                    for i in range(n):
                        t = Kd.setdefault((i, j), {})
                        t[e] = t.get(e, 0) - X0[i][l] * c
        if K and trunc == INFINITE:
            raise ValueError("exact matrix: cut it first (truncate, with_trunc)")
        # X0 = X0n / dX and K_e = Kn_e / dK on int numerators, with
        # dK^(e-1) folded into Kn_e (see ``solve``), zero terms dropped and
        # each exponent keyed once
        self.dX = lcm(*(v.denominator for row in X0 for v in row))
        self.X0 = [[v.numerator * (self.dX // v.denominator) for v in row]
                   for row in X0]
        dK = self.dK = lcm(*(c.denominator for Kd in K.values()
                             for t in Kd.values() for c in t.values()))
        self.K = {d: [(i, j, [(exp_key(e), c.numerator * (dK // c.denominator)
                                * dK ** (d - 1)) for e, c in t.items() if c])
                      for (i, j), t in sorted(Kd.items()) if any(t.values())]
                  for d, Kd in sorted(K.items())}
        self._columns = None
        self._truncs_of = {}

    def solve(self, r: Sequence[tuple]) -> list[tuple]:
        """u = M^-1 r for right sides r_l given as int numerators over their
        denominator, (D_l, [(key, n)], trunc_l), the terms in any order and
        zeros allowed.  Each u_i comes in the numerator layout, exactly as
        ``numerator_layout`` gives it for the Series of u_i (D the lcm of
        its reduced denominators): its row is brought to one denominator
        and reduced once by the gcd of that and its numerators."""
        # each term's degree, once
        keyed = [_graded(self.dim, items) for _, items, _ in r]
        truncs = self._truncs(tuple(
            (t, min([d for d, _, _ in keys], default=INFINITE))
            for (_, _, t), keys in zip(r, keyed)))
        # the highest degree with a term of u: a row of infinite trunc is
        # zero, or M is constant and u_i has no term above those of r
        high = max((d for keys in keyed for d, _, _ in keys), default=-1)
        if high < 0:
            return [(1, [], t, INFINITE) for t in truncs]
        top = max(high if t == INFINITE else t for t in truncs)
        if self.K and top >= _LIMIT:
            # K u_d would carry a key field
            raise _too_high(top)
        n, X0, dK = self.n, self.X0, self.dK
        # w_d = dX dr dK^d u_d is integral for dr the lcm of the D_l:
        # w_d = dK^d X0n rn_d + sum_e Kn_e dK^(e-1) w_(d-e), kept only for
        # the degrees d that have terms; dK = 1 needs no powers of it
        dr = lcm(*[den for den, _, _ in r])
        scale = (None if dK == 1 else
                 list(accumulate(repeat(dK, top), mul, initial=1)))
        w: dict[int, list[dict[int, int]]] = {}
        for l, ((den, _, _), keys) in enumerate(zip(r, keyed)):
            to_dr = dr // den
            for d, k, c in keys:
                if d > top:
                    continue
                c *= to_dr if scale is None else to_dr * scale[d]
                wd = w.get(d)
                if wd is None:
                    wd = w[d] = [{} for _ in range(n)]
                for i in range(n):
                    if X0[i][l]:
                        bucket = wd[i]
                        bucket[k] = bucket.get(k, 0) + X0[i][l] * c
        # K u_d goes to the degrees above d; a constant M has no K
        for d in range(top + 1 if self.K else 0):
            wd = w.get(d)
            if wd is None:
                continue
            for shift, Kd in self.K.items():
                if d + shift > top:
                    break
                target = w.get(d + shift)
                if target is None:
                    target = w[d + shift] = [{} for _ in range(n)]
                for i, l, terms in Kd:
                    source = wd[l]
                    if not source:
                        continue
                    bucket, get = target[i], target[i].get
                    for k1, c1 in source.items():
                        for k2, c2 in terms:
                            k = k1 + k2
                            bucket[k] = get(k, 0) + c1 * c2
        degrees = sorted(w)
        out = []
        for i, t in enumerate(truncs):
            # degree d is over dX dr dK^d: bring the row to one D, reduced
            # by the gcd of D and its numerators
            last = min(t, top)
            if scale is None:
                items = [(d, k, c) for d in degrees if d <= last
                         for k, c in w[d][i].items() if c]
                den = self.dX * dr
            else:
                items = [(d, k, c * scale[last - d]) for d in degrees
                         if d <= last for k, c in w[d][i].items() if c]
                den = self.dX * dr * scale[last]
            out.append(reduce_layout((den, items, t,
                                      items[0][0] if items else INFINITE)))
        return out

    def _truncs(self, right: tuple[tuple[int, int], ...]) -> list[int]:
        """The certified degree of each row, from each r_l's (trunc,
        order); remembered per instance for each ``right``."""
        memo = self._truncs_of.get(right)
        if memo is None:
            memo = self._truncs_of[right] = self._settle(right)
        return memo

    def _settle(self, right: tuple[tuple[int, int], ...]) -> list[int]:
        T, n = self.trunc, self.n

        def bounds(o, D, t, order):
            """Least and greatest certified degree of (M^-1)_il r_l over
            the orders the entry can have: o when known, else an order in
            D+1..T or none through T."""
            if o is not None:
                v = product_trunc(T, o, t, order)
                return v, v
            vals = [product_trunc(T, INFINITE, t, order)]
            if D < T:
                vals += [product_trunc(T, D + 1, t, order),
                         product_trunc(T, T, t, order)]
            return min(vals), max(vals)

        def rows(order_of, D):
            out = []
            for i in range(n):
                pairs = [bounds(order_of(i, l), D, *right[l]) for l in range(n)]
                out.append((min(lo for lo, _ in pairs),
                            min(hi for _, hi in pairs)))
            return out

        # the orders at degree 0, from X0, and through T when M is
        # constant; where a row does not settle, the orders through T, which
        # settle every row
        truncs = rows(lambda i, l: 0 if self.X0[i][l] else None,
                      0 if self.K else T)
        if any(lo != hi for lo, hi in truncs):
            columns = self.columns()
            truncs = rows(lambda i, l: None if columns[l][i][3] == INFINITE
                          else columns[l][i][3], T)
        return [lo for lo, _ in truncs]

    def columns(self) -> list[list[tuple]]:
        """The columns of M^-1 in the numerator layout, column j the solve
        of the unit column e_j of constants certified to T, so every entry
        is certified to T; formed once.  Each row of such a solve settles
        at degree 0: the 1 of e_j caps it at T, and each zero of e_j bounds
        it below by T."""
        if self._columns is None:
            n, T = self.n, self.trunc
            self._columns = [
                self.solve([(1, [(0, 1)] if i == j and T >= 0 else [], T)
                            for i in range(n)])
                for j in range(n)]
        return self._columns


def invert_series_matrix(M: SeriesMatrix) -> SeriesMatrix:
    """Exact inverse of a matrix with invertible constant part M(0), every
    entry certified to the least trunc T among the entries of M: the unit
    column solves of ``GradedSolve.columns``.  The solvers do not form it."""
    return SeriesMatrix(list(zip(*(
        [layout_series(M.dim, u) for u in column]
        for column in GradedSolve(M).columns()))))


# ---------------------------------------------------------------------------
# Step 1: reduction

def _shift_poly_map(H: PolyMap, y0: Vector, dim: int, unknowns: int,
                    trunc: int) -> tuple[SeriesMatrix, PolyMap]:
    """Re-expand H(x, y0 + w) - H(x, y0) in w: linear part, tail."""
    terms: dict[Exponent, list] = {}  # delta -> [(vec, factor)]
    # y0[i]^p for every p that a delta != 0 leaves, each from the one before
    power = [yi.powers(max((g[i] - (sum(g) == g[i]) for g in H), default=0))
             for i, yi in enumerate(y0)]
    for gamma, vec in H.items():
        for delta in product(*(range(g + 1) for g in gamma)):
            if not any(delta):
                continue
            factor = Series.constant(dim, trunc, exp_binomial(gamma, delta))
            for i, (g, d) in enumerate(zip(gamma, delta)):
                if g - d:
                    factor = factor * power[i][g - d]
            if not factor.is_zero:
                terms.setdefault(delta, []).append((vec, factor))
    shifted = {delta: [sum_of_products(dim, trunc, [(1, vec[i], factor)
                                                    for vec, factor in pairs])
                       for i in range(unknowns)]
               for delta, pairs in terms.items()}
    zero = [Series.zero(dim, trunc)] * unknowns
    cols = [shifted.pop(unit_exp(unknowns, j), zero) for j in range(unknowns)]
    return SeriesMatrix(list(zip(*cols))), {
        g: v for g, v in shifted.items() if any(not s.is_zero for s in v)}


class ReducedProblem:
    """Outcome of peeling off y_0 .. y_{k-1}: the tail w = y - sum y_m P^m
    satisfies  sum_j P^j L_j(w) = h P^k + B w + H(x, w)."""

    __slots__ = ("problem", "head", "B", "H", "h", "phis")

    def __init__(self, problem: ProblemSpec, head: list[Vector], B: SeriesMatrix,
                 H: PolyMap, h: Vector, phis: dict[int, Series]):
        self.problem = problem
        self.head = head
        self.B = B
        self.H = H
        self.h = h
        self.phis = phis


def reduce_problem(problem: ProblemSpec, degree: int) -> ReducedProblem:
    """Peel off the first k expansion coefficients by implicit solves."""
    dim, unknowns, k = problem.dim, problem.unknowns, problem.order
    verdict = check_divisibility(problem.P, problem.operators)
    if not verdict.ok:
        j, monomial = sorted(verdict.witnesses.items())[0]
        raise DivisibilityViolation(
            monomial, f"P does not divide L_{j}*(P); witness {monomial}")
    # after y_0 .. y_{m-1}, the tail w solves sum_j P^j L_j(w) = g + B w +
    # H(x, w) with P^m | g, and y_m solves the implicit equation of that
    # right side at w = y_m P^m, divided by P^m
    g, B, H = problem.f, problem.A, problem.H
    head = []
    for m in range(k):
        Pm = problem.power(m)
        ym = solve_implicit(
            [gi.divide_exact(Pm) for gi in g], B,
            {gamma: [c * problem.power(m * (sum(gamma) - 1)) for c in vec]
             for gamma, vec in H.items()}, degree)
        head.append(ym)
        ymPm = [yi * Pm for yi in ym]
        g = [-s for s in problem.lhs(ymPm)]
        Am, H = _shift_poly_map(H, ymPm, dim, unknowns, degree)
        B = B + Am
    h = [gi.divide_exact(problem.power(k)) for gi in g]
    return ReducedProblem(problem, head, B, H, h, verdict.quotients)


# ---------------------------------------------------------------------------
# the lifted equation

class LiftedEquation:
    """B u = forcing * t^k + G(x)(t, D^m u).

    ``linear`` maps (j, b, alpha) -> scalar series coefficient of the right
    side term  g * t^(j+b) d_t^b d_alpha;  j >= 1 always, so the order-n
    recurrence only consults strictly lower orders.  ``nonlinear`` maps
    gamma -> vector coefficient of u^gamma, |gamma| >= 2.
    """

    __slots__ = ("dim", "unknowns", "k", "B", "forcing", "linear", "nonlinear")

    def __init__(self, dim: int, unknowns: int, k: int, B: SeriesMatrix,
                 forcing: Vector, linear: dict[tuple[int, int, Exponent], Series],
                 nonlinear: PolyMap):
        for (j, b, alpha) in linear:
            if j < 1:
                raise ValueError("linear terms need a strictly positive t-power")
        self.dim = dim
        self.unknowns = unknowns
        self.k = k
        self.B = B
        self.forcing = forcing
        self.linear = dict(linear)
        self.nonlinear = dict(nonlinear)


def build_lifted(reduced: ReducedProblem) -> LiftedEquation:
    """Assemble the time-lifted equation whose order-n coefficients are the
    P-expansion tail of the reduced problem."""
    problem = reduced.problem
    P = problem.P
    dim, unknowns, k = problem.dim, problem.unknowns, problem.order
    linear: dict[tuple[int, int, Exponent], Series] = {}

    def put(key, series):
        linear[key] = linear[key] + series if key in linear else series

    # the A_{beta,l}, 1 <= l <= |beta|, of each beta, formed once per call
    table = cache(lambda beta: faadibruno(P, beta))
    for pos, L in enumerate(problem.operators):
        j = pos + 1
        if L is None:
            continue
        for alpha, coef in L.terms.items():
            put((j, 0, alpha), coef)
        put((1, j, (0,) * dim), reduced.phis[j])
        # Leibniz: d_alpha(P^n u) = sum_beta C(alpha, beta) d_beta(P^n)
        # d_(alpha-beta) u, and d_beta(P^n) = sum_{1<=l<=|beta|}
        # n!/(n-l)! A_{beta,l} P^(n-l)
        for l in range(1, j):
            for alpha, coef in L.terms.items():
                for beta in product(*(range(a + 1) for a in alpha)):
                    if sum(beta) >= l:
                        put((j - l, l, exp_sub(alpha, beta)),
                            (coef * table(beta)[l]).scale(
                                exp_binomial(alpha, beta)))
    nonlinear = {gamma: [-s for s in vec] for gamma, vec in reduced.H.items()}
    forcing = [-s for s in reduced.h]
    return LiftedEquation(dim, unknowns, k, reduced.B, forcing, linear,
                          nonlinear)


def solve_lifted(eq: LiftedEquation, order: int, degree: int) -> list[Vector]:
    """Coefficients u_0..u_order of the unique solution sum u_n t^n with
    u_0 = ... = u_{k-1} = 0.  Certified degrees are carried on each series.
    Raises SingularLinearPart when B(0) is singular.

    The linear terms run on int numerators, grouped by (j, alpha): at
    order n, with l = n - j, the members g_b with b <= l form one left
    factor sum_b l!/(l-b)! g_b over the lcm of the group's denominators,
    convolved once against d_alpha u_l.  Each d_alpha u_{l,i} is taken
    once (``diff_numerators``), from the layout in which the solve by B
    returned u_{l,i}, and dropped after order l + the largest j of its
    alpha.  A row is certified to the least ``product_trunc`` over
    every member, as ``sum_of_layout_products`` certifies its triples,
    never from the combined factor, whose order rises when its terms
    cancel: so each row, forcing, linear and nonlinear terms, is one
    ``numerator_products`` call, certified here."""
    dim, unknowns, k = eq.dim, eq.unknowns, eq.k
    us: list[Vector] = [
        [Series.zero(dim, degree) for _ in range(unknowns)] for _ in range(k)
    ]
    # each u_n in the numerator layout, as GradedSolve gives it, kept while
    # a derivative may still be taken from it, and for good when the
    # nonlinear terms read it
    layouts: list = [None] * k
    if order >= k:
        solve_B = GradedSolve(eq.B).solve
    # every coefficient in the numerator layout, a left factor, and each
    # monomial's factors, once per call
    forcing = [numerator_layout(f) for f in eq.forcing]
    one = [(0, 0, 1)]
    products = {((), 0): (1, one, degree, 0)}
    nonlinear = {_factors(gamma): [numerator_layout(c) for c in vec]
                 for gamma, vec in eq.nonlinear.items()}
    groups: dict[tuple[int, Exponent], tuple] = {}
    for (j, b, alpha), g in eq.linear.items():
        groups.setdefault((j, alpha), []).append((b, g))
    last: dict[Exponent, int] = {}  # the last j that reads a d_alpha u_l
    for (j, alpha), gs in groups.items():
        gs = [(b, numerator_layout(g)) for b, g in gs]
        den = lcm(*[layout[0] for _, layout in gs])
        groups[(j, alpha)] = den, [
            (b, t, o, [(d, key, v * (den // dg)) for d, key, v in items])
            for b, (dg, items, t, o) in gs]
        last[alpha] = max(j, last.get(alpha, j))
    reach = max(last.values(), default=0)
    derivatives: dict[tuple[int, Exponent], list] = {}
    for n in range(k, order + 1):
        # each row's right side sum c left right / d over its (c, d, left,
        # right) parts, certified to its trunc
        truncs = [degree] * unknowns
        parts: list[list] = [[] for _ in range(unknowns)]
        if n == k:
            for i, (d, left, t, o) in enumerate(forcing):
                truncs[i] = min(truncs[i], product_trunc(t, o, INFINITE, 0))
                if left:
                    parts[i].append((1, d, left, one))
        for (j, alpha), (den, gs) in groups.items():
            l = n - j
            live = [m for m in gs if m[0] <= l]
            if l < k or not live:
                continue
            ds = derivatives.get((l, alpha))
            if ds is None:
                w = sum(alpha)
                for _, _, t, _ in layouts[l]:
                    if w and t - w < 0:
                        raise TruncationTooSmall(
                            f"order {n}: needs degree {w} derivative of a "
                            f"series certified only to {t}")
                ds = derivatives[(l, alpha)] = [diff_numerators(ul, alpha)
                                                for ul in layouts[l]]
            acc = {}
            for b, _, _, nums in live:
                scale = falling_factorial(l, b)
                for _, key, v in nums:
                    acc[key] = acc.get(key, 0) + scale * v
            left = _graded(dim, acc.items())
            for i, (d, right, t, o) in enumerate(ds):
                truncs[i] = min(truncs[i], *(product_trunc(gt, go, t, o)
                                             for _, gt, go, _ in live))
                if left and right:
                    parts[i].append((1, den * d, left, right))
        for factors, vec in nonlinear.items():
            conv = _tail_monomial_coeff(layouts, factors, n, k, products, dim)
            if conv is None or (not conv[1] and conv[2] >= degree):
                continue
            d, right, t, o = conv
            for i, (dc, left, ct, co) in enumerate(vec):
                truncs[i] = min(truncs[i], product_trunc(ct, co, t, o))
                if left and right:
                    parts[i].append((1, dc * d, left, right))
        for key in [key for key in derivatives if key[0] + last[key[1]] <= n]:
            del derivatives[key]
        un = solve_B([(*numerator_products(t, p), t)
                      for t, p in zip(truncs, parts)])
        layouts.append(un)
        us.append([layout_series(dim, u) for u in un])
        # u_l is read last at order l + the largest j
        if n >= reach and not nonlinear:
            layouts[n - reach] = None
    return us


def solve_implicit(f: Vector, A: SeriesMatrix, H: PolyMap, degree: int) -> Vector:
    """Unique y with f + A y + H(x, y) = 0 and y(0) = 0, exact to ``degree``.

    The lifted recurrence at k = 1: with t scaling the forcing, y is
    sum_{n>=1} u_n for the solution of A u = -f t - H(x, u).  Each u_n has
    order >= n in x, so the orders through ``degree`` give y through
    ``degree``, and without H order 1 alone does.
    """
    dim, unknowns = A.dim, A.rows
    eq = LiftedEquation(dim, unknowns, 1, A, [-s for s in f], {},
                        {gamma: [-s for s in vec] for gamma, vec in H.items()})
    us = solve_lifted(eq, max(degree, 1) if H else 1, degree)
    y = [sum(col, Series.zero(dim, degree)) for col in zip(*us)]
    res = eval_F(f, A, H, y)
    bad = min((s.trunc for s in res), default=degree)
    for s in res:
        if not s.equal_upto(Series.zero(dim, s.trunc), min(bad, degree)):
            raise ResidualCheckFailed("implicit solve failed residual check")
    return y


def _factors(gamma: Sequence[int]) -> tuple[int, ...]:
    """The unknowns of the monomial y^gamma, one per factor: (0, 0, 1) for
    y1^2 y2."""
    return tuple(i for i, g in enumerate(gamma) for _ in range(g))


def _tail_monomial_coeff(us: list, factors: tuple[int, ...], m: int, k: int,
                         products: dict, dim: int) -> tuple | None:
    """Grade-m part of prod_r (sum_{l>=k} u_{l,factors[r]}), where u_l is
    homogeneous of grade l and k is the lowest grade with a nonzero part,
    or None when no term reaches grade m: the sum over l of the head's
    grade-(m-l) part times u_{l,factors[-1]}.  The grade is the power of t
    in ``solve_lifted`` and the total degree in x, with k = 1, in
    ``solve_direct``.  Each u_{l,i} and each part is a numerator layout
    (``series``), the parts reduced by the gcd of D and their numerators
    (``reduce_layout``) and in order of degree, so a part is exactly
    ``numerator_layout`` of its Series, in ``dim`` variables.  Cached in
    ``products`` by
    (factors, m) from the empty product, 1 at ((), 0), whose trunc is the
    base trunc; with two or more factors it reads only u_l with
    l <= m - k, so it is final once those are.

    One factor is u_m itself, cut to the trunc of its product by 1.  A
    square u_i^2 takes each unordered pair of grades once, with c = 2 off
    the diagonal: both orders give the same product and trunc.  Longer
    monomials keep their prefix order, which fixes their truncs.  A part
    of two or more factors is one ``sum_of_layout_products`` call over its
    pairs; a factor zero only below the base trunc still bounds what it
    feeds."""
    key = (factors, m)
    if key in products:
        return products[key]
    head, i = factors[:-1], factors[-1]
    base = products[((), 0)][2]
    if not head:
        den, items, trunc, order = out = us[m][i]
        if not items and trunc >= base:
            out = None
        elif (cut := product_trunc(base, 0, trunc, order)) < trunc:
            items = [item for item in items if item[0] <= cut]
            out = reduce_layout(
                (den, items, cut, items[0][0] if items else INFINITE))
        products[key] = out
        return out
    square = head == (i,)
    if len(head) > 1:
        # the uncached prefixes that this part reads, found longest first
        # and formed shortest first: no call per factor on the stack
        levels, grades, pre = [], [m], factors
        while len(pre) > 2 and grades:
            pre, j = pre[:-1], pre[-1]
            grades = sorted({d for g in grades
                             for d in range(k * len(pre), g - k + 1)
                             if (us[g - d][j][1] or us[g - d][j][2] < base)
                             and (pre, d) not in products})
            levels.append((pre, grades))
        for pre, grades in reversed(levels):
            for d in grades:
                _tail_monomial_coeff(us, pre, d, k, products, dim)
    triples = []
    # the head's product starts at grade k |head|
    for d in range(k * len(head), (m // 2 if square else m - k) + 1):
        u = us[m - d][i]
        if not u[1] and u[2] >= base:
            continue
        prev = _tail_monomial_coeff(us, head, d, k, products, dim)
        if prev is not None:
            triples.append((2 if square and 2 * d < m else 1, prev, u))
    out = None
    if triples:
        out = reduce_layout(
            _layout(dim, *sum_of_layout_products(INFINITE, triples)))
    products[key] = out
    return out


# ---------------------------------------------------------------------------
# the P-expansion and the full pipeline

class PExpansion:
    """Coefficients y_0..y_N of a series sum y_n P^n, with the degree and
    order bounds up to which they are certified exact."""

    __slots__ = ("P", "coeffs", "degree", "order")

    def __init__(self, P: Series, coeffs: list[Vector], degree: int, order: int):
        self.P = P
        self.coeffs = coeffs
        self.degree = degree
        self.order = order

    def evaluate(self) -> Vector:
        """sum_n y_n P^n; certified to min over terms and the tail bound
        (order+1) * o(P) - 1."""
        cert = min(self.degree, len(self.coeffs) * self.P.order() - 1)
        powers = self.P.powers(len(self.coeffs) - 1)
        out = [sum_of_products(self.P.dim, cert, [
            (1, yi, Pn) for yi, Pn in zip(col, powers)])
            for col in zip(*self.coeffs)]
        cert = min(s.trunc for s in out)
        return [s.truncate(cert) for s in out]

    def norms(self, rho) -> list[tuple[int, Fraction, int]]:
        """Rows (n, majorant norm of y_n at radius rho, certified degree)."""
        out = []
        for n, yn in enumerate(self.coeffs):
            norm = sum((s.majorant_norm(rho) for s in yn), Fraction(0))
            out.append((n, norm, min(s.trunc for s in yn)))
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PExpansion":
        return cls(
            Series.from_json(data["P"]),
            [[Series.from_json(s) for s in yn] for yn in data["coeffs"]],
            data["degree"], data["order"],
        )


class Run:
    """The pipeline on one problem at truncation degree ``degree`` and
    expansion order ``order``.  Each stage is a cached property, computed
    at most once and only when a caller reads it."""

    def __init__(self, problem: ProblemSpec, degree: int, order: int,
                 rho: Fraction = Fraction(1, 2),
                 window: Fraction = Fraction(1, 2)):
        self.problem = problem
        self.degree = degree
        self.order = order
        self.rho = rho
        self.window = window
        # headroom for the degrees that the divisions by P^m and the
        # derivatives in the reduction cost, and never below o(P), so that
        # cutting the inputs to it keeps P
        self.working = max(degree + 2 * problem.order + 2, problem.P.order())

    @cached_property
    def spec(self) -> ProblemSpec:
        return self.problem.with_trunc(self.working)

    @cached_property
    def reduced(self) -> ReducedProblem:
        return reduce_problem(self.spec, self.working)

    @cached_property
    def lifted(self) -> LiftedEquation:
        return build_lifted(self.reduced)

    @cached_property
    def pexp(self) -> PExpansion:
        Lk = self.problem.operators[-1]
        if Lk is None or (Lk.is_zero and all(
                c.trunc == INFINITE for c in Lk.terms.values())):
            raise InputError("no-top-operator",
                             "the top operator L_k must not vanish identically")
        if Lk.is_zero:
            # zero only through the coefficients' truncs: not known to vanish
            raise TruncationTooSmall(
                f"the top operator L_k is zero through degree "
                f"{min(c.trunc for c in Lk.terms.values())} only")
        # formed outside the try: a singular A(0) that the reduction meets
        # first stays a SingularLinearPart
        lifted = self.lifted
        try:
            tail = solve_lifted(lifted, self.order, self.working)
        except SingularLinearPart as exc:
            raise PoincareViolation(lifted.k) from exc
        coeffs = (self.reduced.head + tail[self.problem.order:])[:self.order + 1]
        return PExpansion(self.spec.P, coeffs, self.degree, self.order)

    @cached_property
    def direct(self) -> Vector:
        return solve_direct(self.problem, self.degree)

    @cached_property
    def summed(self) -> Vector:
        """sum y_n P^n, every component truncated to the certified degree."""
        return self.pexp.evaluate()

    @property
    def certified(self) -> int:
        return self.summed[0].trunc

    @cached_property
    def agrees(self) -> bool:
        """Whether the P-expansion, summed, and the direct oracle agree
        through the certified degree: the cross-check of the two routes."""
        cert = self.certified
        return all(a.equal_upto(b, cert)
                   for a, b in zip(self.summed, self.direct))

    @cached_property
    def residual(self) -> Vector:
        return [s.truncate(self.certified)
                for s in self.spec.residual(self.summed)]

    @cached_property
    def theoretical(self) -> Fraction:
        from .gevrey import theoretical_order
        return theoretical_order(self.lifted)

    @cached_property
    def norms(self) -> list[tuple[int, Fraction, int]]:
        return self.pexp.norms(self.rho)

    @cached_property
    def estimate(self):
        from .gevrey import estimate_order
        return estimate_order([(n, r) for n, r, _ in self.norms],
                              float(self.window), self.rho)


def solve_p_expansion(problem: ProblemSpec, order: int, degree: int) -> PExpansion:
    """Full pipeline: reduction, lift, order recurrence, reassembly."""
    return Run(problem, degree, order).pexp


# ---------------------------------------------------------------------------
# the direct degree-graded oracle

def solve_direct(problem: ProblemSpec, degree: int) -> Vector:
    """Unique truncated solution with y(0) = 0, found degree by degree.

    At total degree n the unknown homogeneous component enters linearly.
    When every left-side term raises the degree, the degree-n system is
    just -A(0) acting monomial by monomial, solved by applying A(0)^-1
    (``SeriesMatrix.apply``); otherwise ``_DegreeSystems`` writes down its
    exact rational matrix and ``_solve_linear`` solves it by Gauss-Jordan
    elimination.  The right side's linear part is read from lhs(y) - f -
    A y kept by degree, and y is the union of its parts.  Each degree is
    certified no further than the data it is built from.  It stops after
    the first degree certified below itself, where the result is cut, so a
    singular system beyond that degree is not reached; a degree whose
    matrix is certified below it is not solved at all.
    """
    # never below o(P), so that cutting the inputs to it keeps P
    working = max(degree + problem.order, problem.P.order())
    prob = problem.with_trunc(working)
    dim, unknowns = prob.dim, prob.unknowns
    try:
        A0inv = SeriesMatrix([[Series.constant(dim, INFINITE, v) for v in row]
                              for row in invert_rational_matrix(
                                  prob.A.constant_part())])
    except SingularMatrix as exc:
        raise SingularLinearPart("D_yF(0,0) is singular") from exc
    omega = prob.P.order()
    # when every left-side term strictly raises total degree, the degree-n
    # system is just -A(0) acting monomial by monomial
    raises_degree = all(
        (pos + 1) * (omega - 1) + c.order() > 0
        for pos, L in enumerate(prob.operators) if L is not None
        for c in L.terms.values()
    )
    systems = None if raises_degree else _DegreeSystems(prob, working)
    # lhs(y) - f - A y by unknown and total degree, with one running trunc
    # per unknown: each solved part delta adds lhs(delta) - A delta, of
    # degree >= n, and degree n is read once, as the right side's linear
    # part.  [H(y)]_n = sum_gamma sum_m [c_gamma]_{n-m} [y^gamma]_m is
    # one sum_of_layout_products call per unknown over layouts[d], the
    # degree-d part of y, d < n, in the numerator layout, the products
    # cached in ``products`` as layouts and each c_gamma split by degree
    # into int numerators once
    buckets = [{} for _ in range(unknowns)]  # degree -> exponent -> coef
    truncs = [working] * unknowns

    def collect(vec: Vector, op, low: int) -> None:
        # add or subtract (op) each term of degree low + 1 .. degree
        for i, s in enumerate(vec):
            truncs[i] = min(truncs[i], s.trunc)
            bucket = buckets[i]
            for e, c in s.terms.items():
                d = sum(e)
                if low < d <= degree:
                    part = bucket.setdefault(d, {})
                    part[e] = op(part.get(e, 0), c)

    collect(prob.f, sub, 0)
    # y's terms by unknown, gathered as each degree is solved, and the least
    # trunc of its parts
    ys: list[dict[Exponent, Rational]] = [{} for _ in range(unknowns)]
    least = degree
    layouts = [None]
    products = {((), 0): (1, [(0, 0, 1)], working, 0)}
    one = (1, [(0, 0, 1)], INFINITE, 0)  # the exact 1, for r - [H(y)]_n
    H = [(_factors(gamma), [[numerator_layout(h)
                             for h in map(c.homogeneous, range(degree + 1))]
                            for c in vec]) for gamma, vec in prob.H.items()]
    for n in range(1, degree + 1):
        hy = [(split, m, ym) for factors, split in H
              for m in range(len(factors), n + 1)
              if (ym := _tail_monomial_coeff(layouts, factors, m, 1, products,
                                             dim)) is not None]
        rhs_vec = [Series._of(dim, t, b.pop(n, {}).items())
                   for t, b in zip(truncs, buckets)]
        if hy:
            rhs_vec = [_over(dim, *sum_of_layout_products(INFINITE, [
                (1, numerator_layout(r), one),
                *[(-1, split[i][n - m], ym) for split, m, ym in hy]]))
                for i, r in enumerate(rhs_vec)]
        if systems is None:
            cert = min(working, *(r.trunc for r in rhs_vec))
            delta = [s.truncate(cert) for s in A0inv.apply(rhs_vec)]
        else:
            delta = systems.solve(n, rhs_vec)
        for yi, s in zip(ys, delta):
            yi.update(s.terms)
        low = min(s.trunc for s in delta)
        least = min(least, low)
        if H:
            layouts.append([numerator_layout(s) for s in delta])
        if low < n:
            # certified below n: every later degree would be cut off
            break
        collect(prob.lhs(delta), add, n)
        collect(prob.A.apply(delta), sub, n)
    # the parts have distinct degrees: y is their union, at the least trunc
    return [Series._of(dim, least, yi.items()) for yi in ys]


class _DegreeSystems:
    """The degree-n systems of ``solve_direct`` when some left-side term
    keeps the degree.

    Column (i, x^m), |m| = n, is the degree-n part of lhs(x^m e_i) -
    A x^m e_i at the working degree.  L_j is homogeneous of order j, so
    P^j c_alpha d_alpha raises the degree by j (o(P) - 1) + o(c_alpha):
    only o(P) = 1 and c_alpha(0) reach degree n, and the column is
    sum_j P_1^j sum_alpha c_alpha(0) ff(m, alpha) x^(m - alpha) on
    component i, minus A(0) e_i x^m, with P_1 the linear part of P.  The
    column is certified to the trunc that ``lhs`` and ``A.apply`` would
    give it, found by the same ``product_trunc`` arithmetic from the
    (trunc, order) pairs of P^j, the c_alpha, A and x^m, without forming
    the products.
    """

    def __init__(self, prob: ProblemSpec, working: int):
        self.prob = prob
        self.working = working
        P1 = Series._of(prob.dim, INFINITE, prob.P.homogeneous(1).terms.items())
        P1_powers = P1.powers(prob.order)
        # per L_j, for the certs: j, L_j, the trunc and order of P^j, and
        # each alpha with the trunc and order of c_alpha
        self.certs = []
        # per L_j, for the matrix: the terms of P_1^j, and each alpha with
        # c_alpha(0) != 0
        self.leads = []
        for pos, L in enumerate(prob.operators):
            if L is None:
                continue
            j = pos + 1
            Pj = prob.power(j)
            self.certs.append((j, L, Pj.trunc, Pj.order(), [
                (alpha, c.trunc, c.order()) for alpha, c in L.terms.items()]))
            lead = [(alpha, c.constant_term())
                    for alpha, c in L.terms.items() if c.constant_term()]
            if lead:
                self.leads.append((list(P1_powers[j].terms.items()), lead))
        self.A0 = prob.A.constant_part()

    def solve(self, n: int, rhs_vec: Vector) -> Vector:
        """The degree-n part of y from the degree-n part of the right side,
        certified to the least trunc of the right side and the columns.  A
        column certified below n has lost its degree-n entries, so then
        nothing is solved and the part is zero, certified below n."""
        dim = self.prob.dim
        monos = list(iter_exponents(dim, n))
        columns = self._column_cert(n, monos)
        cert = min(columns, *(r.trunc for r in rhs_vec))
        if columns < n:
            return [Series.zero(dim, cert)] * len(rhs_vec)
        rhs_flat = [0] * (len(rhs_vec) * len(monos))
        index = {m: c for c, m in enumerate(monos)}
        for i, r in enumerate(rhs_vec):
            for e, cval in r.terms.items():
                rhs_flat[i * len(monos) + index[e]] = -cval
        try:
            sol = _solve_linear(self._matrix(monos, index), rhs_flat)
        except SingularMatrix as exc:
            raise SingularLinearPart(
                f"degree-{n} linear system is singular") from exc
        return [Series(dim, cert, {m: sol[i * len(monos) + c]
                                   for c, m in enumerate(monos)})
                for i in range(len(rhs_vec))]

    def _matrix(self, monos, index) -> list[list[Rational]]:
        """The degree-n matrix, rows and columns indexed by (i, x^m) as
        i * len(monos) + (position of m in monos)."""
        # the operator block, the same for every unknown
        block: dict[tuple[int, int], Rational] = {}
        for P1j, lead in self.leads:
            for alpha, c0 in lead:
                for col, m in enumerate(monos):
                    low = tuple(map(sub, m, alpha))
                    if min(low) < 0:
                        continue
                    v = c0 * prod(map(falling_factorial, m, alpha))
                    for q, qc in P1j:
                        key = (index[tuple(map(add, low, q))], col)
                        block[key] = block.get(key, 0) + v * qc
        width = len(monos)
        size = len(self.A0) * width
        rows: list[list[Rational]] = [[0] * size for _ in range(size)]
        for i in range(len(self.A0)):
            off = i * width
            for (r, c), v in block.items():
                rows[off + r][off + c] += v
            for i2, a_row in enumerate(self.A0):
                if a_row[i]:
                    for c in range(width):
                        rows[i2 * width + c][off + c] -= a_row[i]
        return rows

    def _column_cert(self, n: int, monos) -> int:
        """The least trunc over all columns of degree n."""
        W = self.working
        N = len(self.A0)
        # A x^m e_i: row i2 sums A[i2][l] times x^m (l = i) or 0 (l != i)
        cert = min(product_trunc(a.trunc, a.order(), W,
                                 n if l == i else INFINITE)
                   for i in range(N) for row in self.prob.A.entries
                   for l, a in enumerate(row))
        if N > 1:
            cert = min(cert, self._lhs_trunc(n, None))
        return min(cert, *(self._lhs_trunc(n, m) for m in monos))

    def _lhs_trunc(self, n: int, m: Exponent | None) -> int:
        """The trunc of lhs on a component that is x^m, or zero (m = None),
        at the working degree."""
        out = INFINITE
        for j, L, tPj, oPj, coefs in self.certs:
            Wj = max(self.working - j, -1)  # the trunc of d_alpha(x^m)
            # L_j(x^m) = sum_alpha c_alpha d_alpha(x^m): each term's trunc,
            # and each order that a term keeps below its trunc
            truncs, orders = [], []
            for alpha, tc, oc in coefs:
                od = n - j if m is not None and exp_le(alpha, m) else INFINITE
                t = product_trunc(tc, oc, Wj, od)
                truncs.append(t)
                if oc + od <= t:
                    orders.append(oc + od)
            tL = min(truncs, default=Wj)
            low = min(orders, default=INFINITE)
            t = product_trunc(tPj, oPj, tL, low)
            # c_alpha(0) ff(m, alpha) x^(m - alpha) never cancel, but two
            # higher lowest terms can (x1 d1 - x2 d2 sends x1 x2 to 0): where
            # the order then binds, take it exactly
            if (low > n - j and orders.count(low) > 1
                    and t < product_trunc(tPj, oPj, tL, INFINITE)):
                basis = Series.monomial(self.prob.dim, self.working, m)
                t = product_trunc(tPj, oPj, tL, L.apply(basis).order())
            out = min(out, t)
        return out


def _solve_linear(matrix: list[list[Rational]], rhs: list[Rational]) -> list[Rational]:
    """The x with matrix x = rhs over Q."""
    a = [row[:] + [r] for row, r in zip(matrix, rhs)]
    return [row[0] for row in gauss_jordan(a, len(matrix))]


# ---------------------------------------------------------------------------
# Poincare checker (convergent regime)

class PoincareVerdict:
    """Result of checking the non-resonance condition at every order."""

    __slots__ = ("ok", "n_star", "failing", "partial", "lambdas", "A0")

    def __init__(self, ok: bool, n_star: int, failing: list[int], partial: bool,
                 lambdas: dict[int, Fraction], A0: list[list[Fraction]]):
        self.ok = ok
        self.n_star = n_star
        self.failing = failing
        self.partial = partial
        self.lambdas = lambdas
        self.A0 = A0

    def __bool__(self):
        return self.ok

    def determinant(self, n: int) -> Fraction:
        return _shifted_det(_char_s(self.lambdas, n), self.A0)


def check_poincare(problem: ProblemSpec, user_bound: int | None = None) -> PoincareVerdict:
    """Check that [sum_j n!/(n-j)! L_j*(P)(0)] I - D_yF(0,0) is invertible
    for every n >= 0.  When the top symbol value is nonzero, a finite bound
    n* is derived beyond which diagonal dominance makes failure impossible;
    otherwise only a partial check up to ``user_bound`` is possible."""
    k = problem.order
    lambdas: dict[int, Rational] = {}
    for pos, L in enumerate(problem.operators):
        j = pos + 1
        lambdas[j], trunc = (0, 0) if L is None else L.star_at_zero(problem.P)
        if trunc < 0:
            raise TruncationTooSmall(
                f"L_{j}*(P) is certified only to degree {trunc}, so "
                f"L_{j}*(P)(0) is unknown")
    A0 = [[Fraction(v) for v in row] for row in problem.A.constant_part()]
    N = len(A0)
    row_norm = max(sum(abs(v) for v in row) for row in A0) if N else Fraction(0)
    partial = False
    if lambdas[k] == 0:
        if user_bound is None:
            raise InconclusiveBound(
                "L_k*(P)(0) = 0: no finite bound n* exists; "
                "pass a user bound for a partial check")
        n_star = user_bound
        partial = True
    else:
        # q(n) = |lam_k| ff(n,k) - sum_{j<k} |lam_j| ff(n,j) - ||A0||
        # is eventually positive; beyond the Cauchy root bound of q the
        # matrix is strictly diagonally dominant.
        coeffs = [Fraction(0)] * (k + 1)
        for j, lam in lambdas.items():
            sign = 1 if j == k else -1
            for l in range(1, j + 1):
                coeffs[l] += sign * abs(lam) * stirling_first(j, l)
        coeffs[0] -= row_norm
        top = coeffs[k]
        bound = 1 + max((abs(c / top) for c in coeffs[:k]), default=Fraction(0))
        n_star = max(k, int(bound) + 1)
    # det(s I - A(0)) depends on n only through s(n), which is the same for
    # every n under the divergent route (all lambda_j = 0)
    dets: dict[Fraction, Fraction] = {}
    failing = []
    for n in range(n_star + 1):
        s = _char_s(lambdas, n)
        if s not in dets:
            dets[s] = _shifted_det(s, A0)
        if dets[s] == 0:
            failing.append(n)
    return PoincareVerdict(not failing, n_star, failing, partial, lambdas, A0)


def _char_s(lambdas: dict[int, Fraction], n: int) -> Fraction:
    """s(n) = sum_j n!/(n-j)! lambda_j."""
    return sum((falling_factorial(n, j) * lam for j, lam in lambdas.items()),
               Fraction(0))


def _shifted_det(s: Fraction, A0: list[list[Fraction]]) -> Fraction:
    """det(s I - A(0))."""
    N = len(A0)
    return _det([[(s if i == j else Fraction(0)) - A0[i][j] for j in range(N)]
                 for i in range(N)])
