"""Series solvers for systems P^k L_k(y) + ... + P L_1(y) = F(x, y).

Two independent routes are provided:

* ``solve_p_expansion`` -- the constructive pipeline: peel off the first k
  coefficients by implicit solves, lift the remaining tail to an auxiliary
  time variable t (so the tail becomes sum u_n t^n), and run the resulting
  well-founded order-by-order recurrence.

* ``solve_direct`` -- a degree-graded oracle that plugs a generic truncated
  series into the equation and solves one exact linear system per total
  degree.  It shares no code path with the pipeline and is used to
  cross-check it.

``check_poincare`` covers the complementary regime where P is non-singular
at the origin and the solution is convergent.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

from .diffops import DiffOperator, check_divisibility, faadibruno, stirling_first
from .errors import (
    DivisibilityViolation,
    InconclusiveBound,
    InputError,
    PoincareViolation,
    SingularLinearPart,
    SingularMatrix,
    TruncationTooSmall,
)
from .series import (
    Exponent,
    Series,
    SeriesMatrix,
    _det,
    exp_binomial,
    exp_degree,
    exp_sub,
    falling_factorial,
    gauss_jordan,
    invert_rational_matrix,
    iter_exponents,
    unit_exp,
)

Vector = list[Series]
PolyMap = dict[tuple[int, ...], Vector]  # y-monomial gamma -> coefficient vector


# ---------------------------------------------------------------------------
# problem datum

class ProblemSpec:
    """The full datum (d, N, k, P, L_1..L_k, F) with F split as
    f(x) + A(x) y + H(x, y), H carrying only y-degree >= 2 terms."""

    __slots__ = ("dim", "unknowns", "order", "P", "operators", "f", "A", "H")

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

    def with_trunc(self, trunc: int) -> "ProblemSpec":
        """Re-certify all (polynomial) data to the given working degree."""
        return ProblemSpec(
            self.dim, self.unknowns, self.order,
            self.P.with_trunc(trunc),
            [L if L is None else DiffOperator(
                self.dim, L.order,
                {a: s.with_trunc(trunc) for a, s in L.terms.items()})
             for L in self.operators],
            [s.with_trunc(trunc) for s in self.f],
            SeriesMatrix([[s.with_trunc(trunc) for s in row]
                          for row in self.A.entries]),
            {g: [s.with_trunc(trunc) for s in v] for g, v in self.H.items()},
        )

    def rhs(self, y: Vector) -> Vector:
        """F(x, y) = f + A y + H(x, y)."""
        out = [fi + ai for fi, ai in zip(self.f, self.A.apply(y))]
        hy = eval_poly_map(self.H, y, self.dim, self.unknowns)
        return [oi + hi for oi, hi in zip(out, hy)]

    def lhs(self, y: Vector) -> Vector:
        """sum_j P^j L_j(y), componentwise; only an absent L_j is skipped,
        since zero coefficients still bound the certified degree."""
        out = None
        for pos, L in enumerate(self.operators):
            if L is None:
                continue
            Pj = self.P.pow(pos + 1)
            term = [Pj * L.apply(yi) for yi in y]
            out = term if out is None else [a + b for a, b in zip(out, term)]
        if out is None:
            trunc = min(yi.trunc for yi in y)
            return [Series.zero(self.dim, trunc) for _ in range(self.unknowns)]
        return out

    def residual(self, y: Vector) -> Vector:
        return [a - b for a, b in zip(self.lhs(y), self.rhs(y))]


def eval_poly_map(H: PolyMap, y: Vector, dim: int, unknowns: int) -> Vector:
    """sum_gamma A_gamma(x) y^gamma."""
    if not H:
        trunc = min(yi.trunc for yi in y) if y else 0
        return [Series.zero(dim, trunc) for _ in range(unknowns)]
    out = None
    for gamma, vec in H.items():
        mono = _y_power(y, gamma, dim)
        term = [c * mono for c in vec]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return out


def _y_power(y: Vector, gamma: Sequence[int], dim: int) -> Series:
    trunc = min(yi.trunc for yi in y)
    out = Series.constant(dim, trunc, 1)
    for yi, g in zip(y, gamma):
        for _ in range(g):
            out = out * yi
    return out


# ---------------------------------------------------------------------------
# exact inverses of series matrices

def invert_series_matrix(M: SeriesMatrix) -> SeriesMatrix:
    """Exact inverse of a matrix with invertible constant part M(0),
    solved degree by degree: X_0 = M(0)^-1 and
    X_m = sum_{d=1..m} K_d X_{m-d}, where K_d = -M(0)^-1 N_d and N_d is
    the degree-d part of M - M(0).  Every entry is certified to the
    least trunc T among the entries of M."""
    n, dim = M.rows, M.dim
    trunc = min(s.trunc for row in M.entries for s in row)
    try:
        inv0 = invert_rational_matrix(M.constant_part())
    except SingularMatrix as exc:
        raise SingularLinearPart(str(exc)) from exc
    # the terms of K_d, gathered in one pass over the terms of M
    K_terms: dict[int, list[list[dict[Exponent, Fraction]]]] = {}
    for l, row in enumerate(M.entries):
        for j, s in enumerate(row):
            for e, c in s.terms.items():
                d = sum(e)
                if not 0 < d <= trunc:
                    continue
                Kd = K_terms.setdefault(
                    d, [[{} for _ in range(n)] for _ in range(n)])
                for i in range(n):
                    Kd[i][j][e] = Kd[i][j].get(e, 0) - inv0[i][l] * c
    X = [[[Series.constant(dim, trunc, v) for v in row] for row in inv0]]
    if not K_terms:
        return SeriesMatrix(X[0])
    K = {d: [[Series(dim, trunc, t) for t in row] for row in Kd]
         for d, Kd in K_terms.items()}
    for m in range(1, trunc + 1):
        Xm = [[Series.zero(dim, trunc) for _ in range(n)] for _ in range(n)]
        for d, Kd in K.items():
            if d > m:
                continue
            prev = X[m - d]
            for i in range(n):
                for l in range(n):
                    if Kd[i][l].is_zero:
                        continue
                    for j in range(n):
                        if not prev[l][j].is_zero:
                            Xm[i][j] = Xm[i][j] + Kd[i][l] * prev[l][j]
        X.append(Xm)
    return SeriesMatrix([
        [Series(dim, trunc, {e: c for Xm in X for e, c in Xm[i][j].terms.items()})
         for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# implicit solves (Step 1 ingredients)

def solve_implicit(f: Vector, A: SeriesMatrix, H: PolyMap, degree: int) -> Vector:
    """Unique y with f + A y + H(x, y) = 0 and y(0) = 0, exact to ``degree``.

    Degree-graded fixed point y <- -A^-1 (f + H(x, y)); iteration m fixes
    all coefficients of total degree <= m.
    """
    dim = A.dim
    unknowns = A.rows
    Ainv = invert_series_matrix(A)
    y = [Series.zero(dim, degree) for _ in range(unknowns)]
    for _ in range(degree + 1):
        hy = eval_poly_map(H, y, dim, unknowns)
        rhs = [fi + hi for fi, hi in zip(f, hy)]
        new = [(-s).truncate(degree) for s in Ainv.apply(rhs)]
        if new == y:
            break
        y = new
    res = [fi + ai + hi for fi, ai, hi in zip(
        f, A.apply(y), eval_poly_map(H, y, dim, unknowns))]
    bad = min((s.trunc for s in res), default=degree)
    for s in res:
        if not s.equal_upto(Series.zero(dim, s.trunc), min(bad, degree)):
            raise ArithmeticError("implicit solve failed residual check")
    return y


def _shift_poly_map(H: PolyMap, y0: Vector, dim: int, unknowns: int,
                    trunc: int) -> tuple[SeriesMatrix, PolyMap]:
    """Re-expand H(x, y0 + w) - H(x, y0) in w: linear part, tail."""
    shifted: PolyMap = {}
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


# ---------------------------------------------------------------------------
# Step 1: reduction

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
    P = problem.P
    dim, unknowns, k = problem.dim, problem.unknowns, problem.order
    verdict = check_divisibility(P, problem.operators)
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
        Pm = P.pow(m)
        ym = solve_implicit(
            [gi.divide_exact(Pm) for gi in g], B,
            {gamma: [c * Pm.pow(sum(gamma) - 1) for c in vec]
             for gamma, vec in H.items()}, degree)
        head.append(ym)
        ymPm = [yi * Pm for yi in ym]
        g = [-s for s in problem.lhs(ymPm)]
        Am, H = _shift_poly_map(H, ymPm, dim, unknowns, degree)
        B = B + Am
    h = [gi.divide_exact(P.pow(k)) for gi in g]
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

    tables: dict[Exponent, object] = {}

    def A_coeff(beta: Exponent, l: int) -> Series:
        if beta not in tables:
            tables[beta] = faadibruno(P, beta)
        return tables[beta].coefficient(l)

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
                            (coef * A_coeff(beta, l)).scale(
                                exp_binomial(alpha, beta)))
    nonlinear = {gamma: [-s for s in vec] for gamma, vec in reduced.H.items()}
    forcing = [-s for s in reduced.h]
    return LiftedEquation(dim, unknowns, k, reduced.B, forcing, linear,
                          nonlinear)


def solve_lifted(eq: LiftedEquation, order: int, degree: int) -> list[Vector]:
    """Coefficients u_0..u_order of the unique solution sum u_n t^n with
    u_0 = ... = u_{k-1} = 0.  Certified degrees are carried on each series."""
    dim, unknowns, k = eq.dim, eq.unknowns, eq.k
    us: list[Vector] = [
        [Series.zero(dim, degree) for _ in range(unknowns)] for _ in range(k)
    ]
    products = {((), 0): Series.constant(dim, degree, 1)}
    Binv = None
    for n in range(k, order + 1):
        if Binv is None:
            try:
                Binv = invert_series_matrix(eq.B)
            except SingularLinearPart as exc:
                raise PoincareViolation(n) from exc
        rhs = [Series.zero(dim, degree) for _ in range(unknowns)]
        if n == k:
            rhs = [r + f for r, f in zip(rhs, eq.forcing)]
        for (j, b, alpha), g in eq.linear.items():
            l = n - j
            if l < k or b > l:
                continue
            w = exp_degree(alpha)
            scale = falling_factorial(l, b)
            for i in range(unknowns):
                ul = us[l][i]
                if w and ul.trunc - w < 0:
                    raise TruncationTooSmall(
                        f"order {n}: needs degree {w} derivative of a series "
                        f"certified only to {ul.trunc}")
                term = (g * ul.diff(alpha)).scale(scale)
                rhs[i] = rhs[i] + term
        for gamma, vec in eq.nonlinear.items():
            factors = tuple(i for i, g in enumerate(gamma) for _ in range(g))
            conv = _tail_monomial_coeff(us, factors, n, k, products)
            if conv is None or conv.is_zero:
                continue
            for i in range(unknowns):
                rhs[i] = rhs[i] + vec[i] * conv
        us.append(Binv.apply(rhs))
    return us


def _tail_monomial_coeff(us: list[Vector], factors: tuple[int, ...], m: int,
                         k: int, products: dict) -> Series | None:
    """Coefficient of t^m in prod_r (sum_{l>=k} u_{l,factors[r]} t^l), or
    None when no term reaches t^m: the sum over l of the head's coefficient
    of t^(m-l) times u_{l,factors[-1]}.  Cached in ``products`` by
    (factors, m) from the empty product, 1 at ((), 0); a coefficient reads
    only u_l with l <= m - k, so it is final once formed."""
    key = (factors, m)
    if key in products:
        return products[key]
    head, i = factors[:-1], factors[-1]
    out = None
    # the head's product starts at t^(k |head|); the empty one is t^0 alone
    for d in range(k * len(head), (m - k if head else 0) + 1):
        u = us[m - d][i]
        if u.is_zero:
            continue
        prev = _tail_monomial_coeff(us, head, d, k, products)
        if prev is not None:
            term = prev * u
            out = term if out is None else out + term
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
        omega = self.P.order()
        out = None
        Pn = self.P.pow(0)
        for n, yn in enumerate(self.coeffs):
            if n:
                Pn = Pn * self.P
            term = [yi * Pn for yi in yn]
            out = term if out is None else [a + b for a, b in zip(out, term)]
        cert = min(self.degree, len(self.coeffs) * omega - 1,
                   *(s.trunc for s in out))
        return [s.truncate(cert) for s in out]

    def norms(self, rho) -> list[tuple[int, Fraction, int]]:
        """Rows (n, majorant norm of y_n at radius rho, certified degree)."""
        out = []
        for n, yn in enumerate(self.coeffs):
            norm = sum((s.majorant_norm(rho) for s in yn), Fraction(0))
            out.append((n, norm, min(s.trunc for s in yn)))
        return out

    def to_json(self) -> dict:
        return {
            "P": self.P.to_json(),
            "degree": self.degree,
            "order": self.order,
            "coeffs": [[s.to_json() for s in yn] for yn in self.coeffs],
        }

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
        # re-certifying keeps P
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
        if Lk is None or Lk.is_zero:
            raise InputError("no-top-operator",
                             "the top operator L_k must not vanish identically")
        tail = solve_lifted(self.lifted, self.order, self.working)
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


def evaluate(pexp: PExpansion) -> Vector:
    return pexp.evaluate()


# ---------------------------------------------------------------------------
# the direct degree-graded oracle

def solve_direct(problem: ProblemSpec, degree: int) -> Vector:
    """Unique truncated solution with y(0) = 0, found degree by degree.

    At total degree n the unknown homogeneous component enters linearly;
    the corresponding exact rational system is built column by column and
    solved by Gaussian elimination.
    """
    # never below o(P), so that re-certifying keeps P
    working = max(degree + problem.order, problem.P.order())
    prob = problem.with_trunc(working)
    dim, unknowns = prob.dim, prob.unknowns
    try:
        A0inv = invert_rational_matrix(prob.A.constant_part())
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
    y = [Series.zero(dim, working) for _ in range(unknowns)]
    # residual R(y) = lhs(y) - f - A y - H(y), maintained incrementally in
    # its linear pieces; H is re-evaluated only when present.
    lin_acc = [Series.zero(dim, working) for _ in range(unknowns)]  # lhs(y)-A y
    for n in range(1, degree + 1):
        hy = eval_poly_map(prob.H, y, dim, unknowns)
        resid = [la - fi - hi for la, fi, hi in zip(lin_acc, prob.f, hy)]
        rhs_vec = [s.homogeneous(n) for s in resid]
        if raises_degree:
            zero = Series.zero(dim, working)
            delta = [sum((r.scale(a) for r, a in zip(rhs_vec, row)),
                         zero).with_trunc(working) for row in A0inv]
        else:
            monos = list(iter_exponents(dim, n))
            size = unknowns * len(monos)
            index = {(i, m): i * len(monos) + c
                     for i in range(unknowns) for c, m in enumerate(monos)}
            matrix = [[Fraction(0)] * size for _ in range(size)]
            for i in range(unknowns):
                for c, m in enumerate(monos):
                    basis = [Series.zero(dim, working)] * unknowns
                    basis[i] = Series.monomial(dim, working, m)
                    col_vec = [a - b for a, b in
                               zip(prob.lhs(basis), prob.A.apply(basis))]
                    col = index[(i, m)]
                    for i2 in range(unknowns):
                        for e, cval in col_vec[i2].homogeneous(n).terms.items():
                            matrix[index[(i2, e)]][col] += cval
            rhs_flat = [Fraction(0)] * size
            for i in range(unknowns):
                for e, cval in rhs_vec[i].terms.items():
                    rhs_flat[index[(i, e)]] = -cval
            try:
                sol = _solve_linear(matrix, rhs_flat)
            except SingularMatrix as exc:
                raise SingularLinearPart(
                    f"degree-{n} linear system is singular") from exc
            delta = [Series(dim, working, {m: sol[index[(i, m)]] for m in monos})
                     for i in range(unknowns)]
        y = [a + b for a, b in zip(y, delta)]
        upd = [a - b for a, b in
               zip(prob.lhs(delta), prob.A.apply(delta))]
        lin_acc = [a + b for a, b in zip(lin_acc, upd)]
    return [s.truncate(degree) for s in y]


def _solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
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
        return _char_det(self.lambdas, self.A0, n)

    def __repr__(self):
        tag = "pass" if self.ok else f"fail at n={self.failing}"
        extra = ", partial" if self.partial else ""
        return f"PoincareVerdict({tag}, n_star={self.n_star}{extra})"


def check_poincare(problem: ProblemSpec, user_bound: int | None = None) -> PoincareVerdict:
    """Check that [sum_j n!/(n-j)! L_j*(P)(0)] I - D_yF(0,0) is invertible
    for every n >= 0.  When the top symbol value is nonzero, a finite bound
    n* is derived beyond which diagonal dominance makes failure impossible;
    otherwise only a partial check up to ``user_bound`` is possible."""
    k = problem.order
    lambdas: dict[int, Fraction] = {}
    for pos, L in enumerate(problem.operators):
        j = pos + 1
        if L is None:
            lambdas[j] = Fraction(0)
        else:
            lambdas[j] = L.star(problem.P).constant_term()
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
    failing = [n for n in range(n_star + 1)
               if _char_det(lambdas, A0, n) == 0]
    return PoincareVerdict(not failing, n_star, failing, partial, lambdas, A0)


def _char_det(lambdas: dict[int, Fraction], A0: list[list[Fraction]], n: int) -> Fraction:
    s = sum((falling_factorial(n, j) * lam for j, lam in lambdas.items()),
            Fraction(0))
    N = len(A0)
    m = [[(s if i == j else Fraction(0)) - A0[i][j] for j in range(N)]
         for i in range(N)]
    return _det(m)
