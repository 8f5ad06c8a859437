"""Certified degrees survive tail perturbation.

``trunc = T`` promises that every coefficient up to total degree T is
exact, whatever the unknown terms above each input's ``trunc`` are.  So a
kernel is sound exactly when adding random terms above every input's
``trunc`` leaves its output unchanged through the output's ``trunc``.
"""

import random
from fractions import Fraction
from itertools import product

import gevreylab.solver as solver
from gevreylab.diffops import DiffOperator, check_divisibility, faadibruno
from gevreylab.errors import (DivisibilityViolation, InputError,
                              SingularLinearPart, TruncationTooSmall)
from gevreylab.series import (INFINITE, Series, SeriesMatrix, iter_exponents,
                              layout_series, numerator_layout,
                              sum_of_products)
from gevreylab.solver import (GradedSolve, LiftedEquation, ProblemSpec, Run,
                              invert_series_matrix, solve_direct,
                              solve_implicit, solve_lifted)

from instances import random_admissible_problem, random_weighted_problem

KERNEL_DRAWS = 250
SOLVER_DRAWS = 40
LIBRARY_DRAWS = 30


def _terms(rng, dim, lo, hi, count):
    """``count`` random terms of total degree lo..hi."""
    out = {}
    for _ in range(count):
        e = rng.choice(list(iter_exponents(dim, rng.randint(lo, hi))))
        out[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return out


def _series(rng, dim):
    trunc = rng.randint(0, 5)
    return Series(dim, trunc, _terms(rng, dim, 0, trunc, rng.randint(0, 5)))


def _nonzero_series(rng, dim):
    s = _series(rng, dim)
    return Series.constant(dim, s.trunc, 1) if s.is_zero else s


def _perturb(rng, s):
    """s plus random terms of degree trunc+1..trunc+3, certified to trunc+3."""
    tail = _terms(rng, s.dim, s.trunc + 1, s.trunc + 3, rng.randint(1, 4))
    return Series(s.dim, s.trunc + 3, {**s.terms, **tail})


def _alpha(rng, dim, order):
    return rng.choice(list(iter_exponents(dim, order)))


# each case draws a list of input series and the kernel on such a list,
# which returns a list of output series
def _mul(rng, dim):
    return [_series(rng, dim), _series(rng, dim)], lambda a, b: [a * b]


def _add(rng, dim):
    return [_series(rng, dim), _series(rng, dim)], lambda a, b: [a + b]


def _diff(rng, dim):
    alpha = _alpha(rng, dim, rng.randint(0, 2))
    return [_series(rng, dim)], lambda a: [a.diff(alpha)]


def _divide_exact(rng, dim):
    # a dividend that is a multiple of b through its own trunc
    b, q = _nonzero_series(rng, dim), _series(rng, dim)
    product = Series(dim, 20, b.terms) * Series(dim, 20, q.terms)
    a = Series(dim, rng.randint(0, 5), product.terms)
    return [a, b], lambda a, b: [a.divide_exact(b)]


def _unflatten(entries, n):
    return SeriesMatrix([entries[i * n:(i + 1) * n] for i in range(n)])


def _invert_series_matrix(rng, dim):
    n = rng.randint(1, 2)
    entries = [_series(rng, dim) for _ in range(n * n)]
    return entries, lambda *m: [s for row in invert_series_matrix(
        _unflatten(m, n)).entries for s in row]


def _graded_solve(rng, dim):
    n = rng.randint(1, 2)
    inputs = [_series(rng, dim) for _ in range(n * n + n)]
    return inputs, lambda *s: [
        layout_series(dim, u) for u in GradedSolve(_unflatten(s[:n * n], n))
        .solve([(den, [(k, c) for _, k, c in items], trunc)
                for den, items, trunc, _ in map(numerator_layout,
                                                s[n * n:])])]


def _matrix_apply(rng, dim):
    n = rng.randint(1, 2)
    inputs = [_series(rng, dim) for _ in range(n * n + n)]
    return inputs, lambda *s: _unflatten(s[:n * n], n).apply(s[n * n:])


def _operator(rng, dim, order=None):
    order = order or rng.randint(1, 2)
    alphas = list(iter_exponents(dim, order))
    chosen = rng.sample(alphas, rng.randint(1, len(alphas)))
    return [_series(rng, dim) for _ in chosen], lambda *c: DiffOperator(
        dim, order, dict(zip(chosen, c)))


def _operator_apply(rng, dim):
    coeffs, make = _operator(rng, dim)
    return coeffs + [_series(rng, dim)], lambda *s: [
        make(*s[:-1]).apply(s[-1])]


def _star(rng, dim):
    coeffs, make = _operator(rng, dim)
    return coeffs + [_series(rng, dim)], lambda *s: [make(*s[:-1]).star(s[-1])]


def _P(rng, dim):
    """A nonzero P with P(0) = 0."""
    trunc = rng.randint(1, 5)
    P = Series(dim, trunc, _terms(rng, dim, 1, trunc, rng.randint(1, 4)))
    return Series.variable(dim, trunc, 0) if P.is_zero else P


def _operators(rng, dim):
    """L_1..L_k, some absent, with a third of the coefficients zero through
    their trunc; returns the coefficients and the maker of the operators."""
    slots = [None if rng.random() < 0.25 else _operator(rng, dim, j)
             for j in range(1, rng.randint(1, 2) + 1)]
    coeffs = [Series.zero(dim, c.trunc) if rng.random() < 1 / 3 else c
              for slot in slots if slot for c in slot[0]]

    def make(*c):
        ops, at = [], 0
        for slot in slots:
            n = len(slot[0]) if slot else 0
            ops.append(slot and slot[1](*c[at:at + n]))
            at += n
        return ops
    return coeffs, make


def _check_divisibility(rng, dim):
    # a coefficient P * c makes L*(P) divisible by P whatever P is
    coeffs, make = _operators(rng, dim)
    by_P = [rng.random() < 0.75 for _ in coeffs]

    def kernel(P, *c):
        verdict = check_divisibility(P, make(*(
            P * ci if m else ci for ci, m in zip(c, by_P))))
        if not verdict:
            raise DivisibilityViolation(min(verdict.witnesses.values()))
        return [verdict.quotients[j] for j in sorted(verdict.quotients)]
    return [_P(rng, dim)] + coeffs, kernel


def _lhs(rng, dim):
    coeffs, make = _operators(rng, dim)
    n = rng.randint(1, 2)
    ys = [_series(rng, dim) for _ in range(n)]

    def kernel(P, *s):
        zero = Series.zero(dim, 0)
        ops = make(*s[:len(coeffs)])
        spec = ProblemSpec(dim, n, len(ops), P, ops, [zero] * n,
                           SeriesMatrix([[zero] * n] * n), {})
        return spec.lhs(list(s[len(coeffs):]))
    return [_P(rng, dim)] + coeffs + ys, kernel


def _faadibruno(rng, dim):
    alpha = _alpha(rng, dim, rng.randint(1, 3))
    return [_series(rng, dim)], lambda P: [
        faadibruno(P, alpha)[j] for j in range(1, sum(alpha) + 1)]


def _sum_of_products(rng, dim):
    cs = [rng.choice([0, 1, -1, 3]) for _ in range(rng.randint(0, 3))]
    trunc = rng.choice([rng.randint(0, 6), INFINITE])
    return [_series(rng, dim) for _ in range(2 * len(cs))], lambda *s: [
        sum_of_products(dim, trunc, list(zip(cs, s[::2], s[1::2])))]


def _solve_implicit(rng, dim):
    # f(0) = 0 and a unit diagonal in A(0), so that y(0) = 0 and A(0) is
    # mostly invertible
    n = rng.randint(1, 2)
    f = [Series(dim, s.trunc, {e: c for e, c in s.terms.items() if any(e)})
         for s in (_series(rng, dim) for _ in range(n))]
    A = [_series(rng, dim) for _ in range(n * n)]
    for i in range(n):
        A[i * n + i] = A[i * n + i] + Series.constant(dim, A[i * n + i].trunc, 1)
    gammas = [g for g in product(range(3), repeat=n) if sum(g) >= 2]
    gammas = rng.sample(gammas, rng.randint(0, min(2, len(gammas))))
    H = [_series(rng, dim) for _ in range(n * len(gammas))]
    degree = rng.randint(0, 5)

    def kernel(*s):
        h = {g: list(s[n + n * n + c * n:n + n * n + (c + 1) * n])
             for c, g in enumerate(gammas)}
        return solve_implicit(list(s[:n]), _unflatten(s[n:n + n * n], n), h,
                              degree)
    return f + A + H, kernel


def _solve_lifted(rng, _dim):
    # the lifted equation of a random admissible problem: its forcing, B and
    # the linear and nonlinear coefficients are the inputs
    run = Run(random_admissible_problem(rng), rng.randint(2, 5),
              rng.randint(2, 6))
    eq = run.lifted
    n, keys = eq.unknowns, list(eq.linear)
    gammas = list(eq.nonlinear)
    inputs = (eq.forcing + [s for row in eq.B.entries for s in row]
              + [eq.linear[key] for key in keys]
              + [s for g in gammas for s in eq.nonlinear[g]])

    def kernel(*s):
        at = n + n * n + len(keys)
        lifted = LiftedEquation(
            eq.dim, n, eq.k, _unflatten(s[n:n + n * n], n), list(s[:n]),
            dict(zip(keys, s[n + n * n:at])),
            {g: list(s[at + c * n:at + (c + 1) * n])
             for c, g in enumerate(gammas)})
        return [u for vec in solve_lifted(lifted, run.order, run.working)
                for u in vec]
    return inputs, kernel


KERNELS = {
    "Series.__mul__": _mul,
    "Series.__add__": _add,
    "Series.diff": _diff,
    "Series.divide_exact": _divide_exact,
    "invert_series_matrix": _invert_series_matrix,
    "SeriesMatrix.apply": _matrix_apply,
    "DiffOperator.apply": _operator_apply,
    "DiffOperator.star": _star,
    "faadibruno": _faadibruno,
    "check_divisibility": _check_divisibility,
    "ProblemSpec.lhs": _lhs,
    "GradedSolve.solve": _graded_solve,
    "sum_of_products": _sum_of_products,
}

SOLVERS = {
    "solve_implicit": _solve_implicit,
    "solve_lifted": _solve_lifted,
}


def _check_survives(rng, name, draw, draws):
    checked = 0
    for _ in range(draws):
        inputs, kernel = draw(rng, rng.randint(1, 2))
        try:
            out = kernel(*inputs)
            perturbed = kernel(*[_perturb(rng, s) for s in inputs])
        except (DivisibilityViolation, SingularLinearPart,
                TruncationTooSmall):
            continue
        for o, p in zip(out, perturbed):
            assert o.equal_upto(p, o.trunc), (
                f"{name} over-claims: {inputs} -> {o}, perturbed {p}")
        checked += 1
    assert checked >= draws // 3, name


def test_certified_degrees_survive_tail_perturbation():
    rng = random.Random(20211)
    for name, draw in KERNELS.items():
        _check_survives(rng, name, draw, KERNEL_DRAWS)


def test_solver_certified_degrees_survive_tail_perturbation():
    rng = random.Random(20212)
    for name, draw in SOLVERS.items():
        _check_survives(rng, name, draw, SOLVER_DRAWS)


# ---------------------------------------------------------------------------
# library problems through a whole run

def _map_inputs(spec, fn):
    """spec with each f, A, H and L coefficient s replaced by fn(s, factor),
    where factor is P for an L coefficient and 1 otherwise."""
    dim = spec.dim
    P = Series(dim, INFINITE, spec.P.terms)
    one = Series.constant(dim, INFINITE, 1)
    return ProblemSpec(
        dim, spec.unknowns, spec.order, spec.P,
        [None if L is None else DiffOperator(
            dim, L.order, {a: fn(c, P) for a, c in L.terms.items()})
         for L in spec.operators],
        [fn(s, one) for s in spec.f],
        SeriesMatrix([[fn(s, one) for s in row] for row in spec.A.entries]),
        {g: [fn(s, one) for s in v] for g, v in spec.H.items()})


def _run_outputs(spec, degree, order):
    """What a run writes or checks: the summed solution, its residual, every
    y_n of the P-expansion (norms.csv reads them) and the direct oracle."""
    run = Run(spec, degree, order)
    return (run.summed + run.residual
            + [s for yn in run.pexp.coeffs for s in yn] + run.direct)


def _assert_agree(out, perturbed):
    assert len(out) == len(perturbed)
    for o, p in zip(out, perturbed):
        assert o.equal_upto(p, min(o.trunc, p.trunc)), (
            f"a run over-claims: {o} vs perturbed {p}")


def test_library_inputs_below_the_working_degree_survive_a_run():
    # each f, A, H and L coefficient is cut to a random degree with
    # probability 1/2, then terms are added above every input's trunc; the
    # terms added to an L coefficient are a multiple of P, so that P still
    # divides L*(P).  P itself stays exact (the kernel tests perturb it).
    rng = random.Random(20213)

    def cut(s, _):
        return s.truncate(rng.randint(0, 8)) if rng.random() < 0.5 else s

    def perturb(s, factor):
        tail = factor * Series(s.dim, INFINITE, _terms(
            rng, s.dim, s.trunc + 1, s.trunc + 3, rng.randint(1, 4)))
        return Series(s.dim, s.trunc + 3, {**s.terms, **tail.terms})

    checked = lowered = 0
    for _ in range(LIBRARY_DRAWS):
        draw = rng.choice([random_admissible_problem, random_weighted_problem])
        spec = _map_inputs(draw(rng), cut)
        degree, order = rng.randint(2, 5), rng.randint(2, 5)
        try:
            out = _run_outputs(spec, degree, order)
            perturbed = _run_outputs(_map_inputs(spec, perturb), degree, order)
        except (DivisibilityViolation, InputError, SingularLinearPart,
                TruncationTooSmall):
            continue
        _assert_agree(out, perturbed)
        checked += 1
        lowered += out[0].trunc < degree
    assert checked >= LIBRARY_DRAWS // 2 and lowered >= LIBRARY_DRAWS // 6


def test_pipeline_certifies_no_more_than_f():
    # f = x1 known only to degree 2: f = x1 + 5*x1^3 agrees with it there
    def spec(f):
        return ProblemSpec(
            1, 1, 1, Series(1, 50, {(2,): 1}),
            [DiffOperator(1, 1, {(1,): Series(1, 50, {(1,): 1})})], [f],
            SeriesMatrix([[Series.constant(1, 50, -1)]]), {})

    out = _run_outputs(spec(Series(1, 2, {(1,): 1})), 8, 6)
    assert out[0] == Series(1, 2, {(1,): 1}) == out[-1]
    _assert_agree(out, _run_outputs(
        spec(Series(1, 50, {(1,): 1, (3,): 5})), 8, 6))


def _dense_spec(f):
    # L_1 = d1 + x2 d2 keeps the degree, so each degree is a dense solve
    return ProblemSpec(
        2, 1, 1, Series(2, 50, {(1, 0): 1}),
        [DiffOperator(2, 1, {(1, 0): Series.constant(2, 50, 1),
                             (0, 1): Series(2, 50, {(0, 1): 1})})],
        [f], SeriesMatrix([[Series.constant(2, 50, -1)]]),
        {(2,): [Series.constant(2, 50, 1)]})


def test_dense_direct_branch_certifies_no_more_than_its_data():
    y = solve_direct(_dense_spec(Series(2, 2, {(1, 0): 1, (0, 1): 1})), 6)
    assert y[0].trunc == 2
    _assert_agree(y, solve_direct(
        _dense_spec(Series(2, 50, {(1, 0): 1, (0, 1): 1, (3, 0): 5})), 6))

    # with the d2 coefficient known to no degree, the degree-1 system
    # lacks its diagonal in x2 but stays solvable through A(0)
    def spec2(c):
        one, zero = Series.constant(2, 50, 1), Series.zero(2, 50)
        return ProblemSpec(
            2, 2, 1, Series(2, 50, {(1, 0): 1}),
            [DiffOperator(2, 1, {(1, 0): one, (0, 1): c})],
            [Series(2, 50, {(1, 0): 1, (0, 1): 1}), zero],
            SeriesMatrix([[zero, one.scale(2)], [one, zero]]), {})

    y = solve_direct(spec2(Series.zero(2, -1)), 1)
    assert [s.trunc for s in y] == [0, 0]
    _assert_agree(y, solve_direct(spec2(Series.constant(2, 50, 3)), 1))


def test_dense_direct_branch_with_a_non_constant_c_known_to_degree_1():
    # c = 1 + x2 on d1 is known only to degree 1, so the degree-n columns
    # keep c(0) but its tail caps the cert: two tails that differ from
    # degree 2 on already differ at x1^3
    def spec(c):
        return ProblemSpec(
            2, 1, 1, Series(2, 50, {(1, 0): 1}),
            [DiffOperator(2, 1, {(1, 0): c,
                                 (0, 1): Series(2, 50, {(0, 1): 1})})],
            [Series(2, 50, {(1, 0): 1, (0, 1): 1})],
            SeriesMatrix([[Series.constant(2, 50, -1)]]),
            {(2,): [Series.constant(2, 50, 1)]})

    c = Series(2, 1, {(0, 0): 1, (0, 1): 1})
    y = solve_direct(spec(c), 6)
    assert y[0].trunc == 2
    rng = random.Random(4)
    tails = []
    for _ in range(8):
        perturbed = solve_direct(spec(_perturb(rng, c)), 6)
        _assert_agree(y, perturbed)
        assert perturbed[0].trunc >= y[0].trunc
        tails.append(perturbed[0].coeff((3, 0)))
    assert len(set(tails)) > 1


def test_dense_direct_branch_stops_after_the_first_degree_certified_below_itself(
        monkeypatch):
    # f is known to degree 2, so degree 3 is certified to 2 and degrees
    # 4..6 would be cut off: three dense solves, not six
    calls = []
    real = solver._solve_linear

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_solve_linear", counting)
    spec = _dense_spec(Series(2, 2, {(1, 0): 1, (0, 1): 1}))
    y = solve_direct(spec, 6)
    assert len(calls) == 3
    assert y == [Series(2, 2, {(1, 0): Fraction(1, 2), (0, 1): 1,
                               (2, 0): Fraction(1, 12), (0, 2): 1})]
    assert y == solve_direct(spec, 2)
