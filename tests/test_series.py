"""Tests for exact truncated series arithmetic."""

import json
import random
from fractions import Fraction
from functools import reduce
from math import lcm, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from gevreylab.errors import (DimensionMismatch, DivisibilityViolation,
                              SingularLinearPart, SingularMatrix)
from gevreylab.series import (INFINITE, Series, SeriesMatrix, _product,
                              diff_numerators, exp_key, format_rational,
                              gauss_jordan,
                              invert_rational_matrix, iter_exponents,
                              json_text, key_exp, numerator_layout,
                              sum_of_products)
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


def test_powers_are_the_products_each_from_the_one_before():
    # terms, trunc and storage of s^0 .. s^n against the fold from 1 at
    # s's trunc; pow is the last of them
    rng = random.Random(2701)
    for _ in range(60):
        dim = rng.randint(1, 2)
        s = _operand(rng, dim)
        n = rng.randint(0, 5)
        want = [Series.constant(dim, s.trunc, 1)]
        for _ in range(n):
            want.append(want[-1] * s)
        got = s.powers(n)
        assert [(p.trunc, {e: (type(c), c) for e, c in p.terms.items()})
                for p in got] == \
            [(p.trunc, {e: (type(c), c) for e, c in p.terms.items()})
             for p in want]
        assert s.pow(n) == want[n]
    with pytest.raises(ValueError):
        Series.variable(1, 3, 0).powers(-1)


def test_diff_examples():
    f = Series.monomial(2, 5, (2, 1))
    assert f.diff((1, 0)).terms == {(1, 1): Fraction(2)}
    g = Series.monomial(1, 5, (2,))
    assert g.diff((2,)).terms == {(0,): Fraction(2)}
    c = Series.constant(1, 5, 7)
    assert c.diff((1,)).is_zero


def test_diff_trunc_floor():
    # -1 certifies nothing; 0 would claim the constant term is known
    f = Series.monomial(1, 2, (2,))
    assert f.diff((3,)).trunc == -1
    g = S(1, 0, {(0,): 1, (1,): 5})
    assert g.diff((1,)) == Series.zero(1, -1)


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
    cases = [
        (2, {(0, 1): 1}, {(1, 0): 1}, (1, 0)),
        # non-monomial divisors; each witness is the grlex-least monomial
        # left over in the first degree that does not divide
        (2, {(1, 0): 1, (0, 1): 1, (2, 0): 1},
         {(2, 0): 1, (1, 1): 2, (0, 2): 1, (1, 2): 1}, (3, 0)),
        (2, {(1, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 2): -1, (3, 0): 1},
         (3, 0)),
        (3, {(1, 1, 0): 1, (0, 0, 2): 1},
         {(2, 2, 0): 1, (1, 1, 2): 1, (1, 0, 1): 3}, (1, 0, 1)),
        (2, {(1, 0): 1, (0, 1): -1, (0, 2): 1}, {(3, 0): 1, (0, 3): -1},
         (4, 0)),
    ]
    for dim, b, a, witness in cases:
        with pytest.raises(DivisibilityViolation) as err:
            S(dim, 6, a).divide_exact(S(dim, 6, b))
        assert err.value.monomial == witness
        assert str(err.value) == f"not divisible at monomial {witness}"


def test_divide_exact_below_order():
    # a.trunc < o(b): nothing of the quotient is certified
    a = Series.zero(2, 1)
    assert a.divide_exact(Series.monomial(2, 4, (1, 1))) == Series.zero(2, -1)


def test_divide_exact_below_divisor_trunc():
    # b = x1 + O(x1^2) could be x1 + x1^2, whose quotient 1 - x1 + ... of
    # x1 agrees with 1 through degree 0 only
    q = Series(1, 5, {(1,): 1}).divide_exact(Series(1, 1, {(1,): 1}))
    assert q == Series(1, 0, {(0,): 1})


def test_divide_exact_unit_quotient():
    # germ-style division where the quotient is an infinite unit series
    one = Series.constant(2, 6, 1)
    x1 = Series.variable(2, 6, 0)
    P = Series.monomial(2, 6, (1, 1))
    a = P * (one + x1.scale(2))
    b = P * (one + x1)
    q = a.divide_exact(b)
    assert (b * q).equal_upto(a, q.trunc)


def test_exact_inputs_to_a_division_or_an_inverse_are_refused():
    # the quotient or inverse of an exact polynomial is an infinite series,
    # so the caller cuts the input to the degree it needs first
    x1 = Series.variable(1, INFINITE, 0)
    with pytest.raises(ValueError, match="cut it"):
        (x1 * x1).divide_exact(x1 + x1 * x1)
    u = Series.constant(1, INFINITE, 1) - x1
    with pytest.raises(ValueError, match="cut it"):
        invert_series_matrix(SeriesMatrix([[u]]))
    assert inverse(u.truncate(3)).terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    # a constant matrix has an exact inverse
    assert inverse(Series.constant(1, INFINITE, 2)) == \
        Series.constant(1, INFINITE, Fraction(1, 2))


def test_equal_upto():
    a = S(1, 4, {(1,): 1, (2,): 3})
    b = S(1, 4, {(1,): 1, (2,): 2})
    assert a.equal_upto(b, 1)
    assert not a.equal_upto(b, 2)
    assert not a.equal_upto(S(1, 4), 1)


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


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Series(1, 2, {(1,): 0.1})
    with pytest.raises(TypeError):
        Series.constant(1, 2, 1).scale(0.5)


# -- the int-first kernels against all-Fraction reference loops -------------

def _ref_series(trunc, terms):
    """(terms, trunc) as the all-Fraction constructor stores them."""
    return {e: Fraction(c) for e, c in terms.items()
            if sum(e) <= trunc and c != 0}, trunc


def _ref_order(terms):
    return min(map(sum, terms), default=INFINITE)


def _ref_mul(a, b):
    (terms_a, trunc_a), (terms_b, trunc_b) = a, b
    # unknown tails are shifted by the partner's order
    cands = [trunc_a + _ref_order(terms_b)] if terms_b else []
    if terms_a:
        cands.append(trunc_b + _ref_order(terms_a))
    trunc = min(cands) if cands else max(trunc_a, trunc_b)
    out = {}
    for e1, c1 in terms_a.items():
        for e2, c2 in terms_b.items():
            if sum(e1) + sum(e2) <= trunc:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_series(trunc, out)


def _ref_add(a, b):
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_series(min(a[1], b[1]), out)


def _ref_diff(a, alpha):
    out = {}
    for e, c in a[0].items():
        if all(x >= y for x, y in zip(e, alpha)):
            factor = 1
            for n, j in zip(e, alpha):
                for i in range(j):
                    factor *= n - i
            out[tuple(x - y for x, y in zip(e, alpha))] = c * factor
    return _ref_series(max(a[1] - sum(alpha), -1), out)


def _ref_divide(a, b):
    """Long division, lowest degree first, by the grlex-largest monomial of
    the lowest homogeneous part of b; None where it does not divide."""
    grlex = lambda e: (sum(e), tuple(-x for x in e))
    omega = _ref_order(b[0])
    if any(sum(e) < omega for e in a[0]):
        return None
    top = a[1]
    if top < omega:
        return {}, -1
    lead = max((e for e in b[0] if sum(e) == omega), key=grlex)
    rem = [{} for _ in range(top + 1)]
    for e, c in a[0].items():
        rem[sum(e)][e] = c
    q = {}
    for d in range(omega, top + 1):
        while rem[d]:
            m = max(rem[d], key=grlex)
            c = rem[d].pop(m)
            if any(x < y for x, y in zip(m, lead)):
                return None
            qe = tuple(x - y for x, y in zip(m, lead))
            q[qe] = c / b[0][lead]
            for e, v in b[0].items():
                t = tuple(x + y for x, y in zip(qe, e))
                if e != lead and sum(t) <= top:
                    nv = rem[sum(t)].get(t, Fraction(0)) - q[qe] * v
                    rem[sum(t)][t] = nv
                    if nv == 0:
                        del rem[sum(t)][t]
    trunc = top - omega
    if q:
        trunc = min(trunc, b[1] - omega + _ref_order(q))
    return _ref_series(trunc, q)


def _draw(rng, dim, integral):
    trunc = rng.randint(0, 5)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = rng.choice(list(iter_exponents(dim, rng.randint(0, trunc))))
        num = rng.choice([rng.randint(-5, 5), rng.randint(-2**80, 2**80)])
        terms[e] = num if integral else Fraction(num, rng.randint(1, 4))
    return Series(dim, trunc, terms)


def _assert_matches(got, ref):
    assert (got.terms, got.trunc) == ref
    for c in got.terms.values():
        assert (type(c) is int and c != 0) or (
            type(c) is Fraction and c.denominator > 1), repr(c)


def test_kernels_match_fraction_reference():
    # int / int with a non-unit lead is 1/2, not 0.5
    x1 = Series.variable(1, 3, 0)
    _assert_matches(x1.divide_exact(x1.scale(2)), ({(0,): Fraction(1, 2)}, 2))
    rng = random.Random(9)
    divisions = 0
    for _ in range(400):
        dim = rng.randint(1, 2)
        a = _draw(rng, dim, rng.random() < 0.5)
        b = _draw(rng, dim, rng.random() < 0.5)
        ra = _ref_series(a.trunc, a.terms)
        rb = _ref_series(b.trunc, b.terms)
        _assert_matches(a, ra)
        _assert_matches(a * b, _ref_mul(ra, rb))
        _assert_matches(a + b, _ref_add(ra, rb))
        c = rng.choice([0, 1, -3, 2**70, Fraction(1, 3), Fraction(-4, 2)])
        _assert_matches(a.scale(c), _ref_series(
            a.trunc, {e: Fraction(c) * v for e, v in ra[0].items()}))
        alpha = rng.choice(list(iter_exponents(dim, rng.randint(0, 2))))
        _assert_matches(a.diff(alpha), _ref_diff(ra, alpha))
        n = rng.randint(0, 5)
        _assert_matches(a.homogeneous(n), _ref_series(
            a.trunc, {e: v for e, v in ra[0].items() if sum(e) == n}))
        _assert_matches(a.truncate(n), _ref_series(min(n, a.trunc), ra[0]))
        # a dividend that b divides; the lead is often not a unit
        if b.is_zero:
            continue
        lead = rng.choice([1, -2, 3, Fraction(2, 3)])
        b = b + Series.monomial(dim, b.trunc, (0,) * dim, lead) \
            if rng.random() < 0.3 else b.scale(lead)
        rb = _ref_series(b.trunc, b.terms)
        prod = Series(dim, 20, a.terms) * Series(dim, 20, b.terms)
        p = Series(dim, rng.randint(0, 5), prod.terms)
        ref = _ref_divide(_ref_series(p.trunc, p.terms), rb)
        if ref is None:
            with pytest.raises(DivisibilityViolation):
                p.divide_exact(b)
            continue
        _assert_matches(p.divide_exact(b), ref)
        divisions += 1
    assert divisions > 200


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _draw_hard(rng, dim):
    """Mixed int and Fraction terms whose denominators are powers of distinct
    primes up to about 2^90, so the lcm exceeds every single denominator; a
    quarter of the draws are exact polynomials (trunc INFINITE)."""
    trunc = INFINITE if rng.random() < 0.25 else rng.randint(0, 6)
    top = 6 if trunc is INFINITE else trunc
    primes = rng.sample(PRIMES, len(PRIMES))
    terms = {}
    for p in primes[:rng.choice([0, 1, 3, 6, 9])]:
        e = rng.choice(list(iter_exponents(dim, rng.randint(0, top))))
        num = rng.choice([rng.randint(-5, 5), rng.randint(-2**80, 2**80)])
        den = p ** rng.randint(1, 90 // p.bit_length())
        terms[e] = num if rng.random() < 0.3 else Fraction(num, den)
    return Series(dim, trunc, terms)


def test_mul_and_norm_on_large_coprime_denominators():
    x1 = Series.variable(2, INFINITE, 0)
    x2 = Series.variable(2, INFINITE, 1)
    third, fifth = x1.scale(Fraction(1, 3)), x2.scale(Fraction(1, 5))
    # the cross terms cancel and are not stored
    _assert_matches((third + fifth) * (third - fifth), (
        {(2, 0): Fraction(1, 9), (0, 2): Fraction(-1, 25)}, INFINITE))
    half = Series.monomial(1, INFINITE, (1,), Fraction(1, 2))
    got = half * Series.constant(1, INFINITE, 2)
    _assert_matches(got, ({(1,): Fraction(1)}, INFINITE))
    assert type(got.terms[(1,)]) is int
    rng = random.Random(12)
    wide = 0
    for _ in range(300):
        dim = rng.randint(1, 3)
        a, b = _draw_hard(rng, dim), _draw_hard(rng, dim)
        ra = _ref_series(a.trunc, a.terms)
        rb = _ref_series(b.trunc, b.terms)
        _assert_matches(a * b, _ref_mul(ra, rb))
        _assert_matches(b * a, _ref_mul(rb, ra))
        dens = [c.denominator for c in a.terms.values()]
        wide += len(set(dens) - {1}) > 1
        for rho in (Fraction(1, 2), 2, Fraction(3, 7), 1):
            norm = a.majorant_norm(rho)
            assert type(norm) is Fraction
            assert norm == sum((abs(c) * Fraction(rho) ** sum(e)
                                for e, c in ra[0].items()), Fraction(0))
    assert wide > 100


def _fold(dim, trunc, triples):
    """The plain left fold that ``sum_of_products`` must equal."""
    return reduce(Series.__add__, [(a * b).scale(c) for c, a, b in triples],
                  Series.zero(dim, trunc))


TRUNCS = list(range(-1, 9)) + [INFINITE]


def _operand(rng, dim):
    """A _draw_hard series recut to a trunc in -1..8 or INFINITE; a tenth
    of the draws are zero."""
    trunc = rng.choice(TRUNCS)
    if rng.random() < 0.1:
        return Series.zero(dim, trunc)
    return Series(dim, trunc, _draw_hard(rng, dim).terms)


def test_sum_of_products_equals_a_plain_fold():
    x1 = Series.variable(2, INFINITE, 0)
    assert sum_of_products(2, 5, []) == Series.zero(2, 5)
    assert sum_of_products(2, INFINITE, []) == Series.zero(2, INFINITE)
    # c = 0 and a zero factor still bound the trunc
    for triples, trunc in (([(0, x1, x1.truncate(4))], 5),
                           ([(1, Series.zero(2, 3), x1)], 4)):
        got = sum_of_products(2, 7, triples)
        assert got == _fold(2, 7, triples) == Series.zero(2, trunc)
    rng = random.Random(1931)
    wide = cancelled = 0
    for _ in range(400):
        dim = rng.randint(1, 3)
        triples, mirrored = [], []
        for _ in range(rng.randint(0, 6)):
            if triples and rng.random() < 0.3:
                # an earlier triple negated, factors swapped: it cancels
                c, a, b = rng.choice(triples)
                triples.append((-c, b, a))
                mirrored.append((c, a, b))
                continue
            c = rng.choice([0, 1, -1, 2, -3, 7, 2**70, rng.randint(-9, 9)])
            triples.append((c, _operand(rng, dim), _operand(rng, dim)))
        trunc = rng.choice(TRUNCS)
        got = sum_of_products(dim, trunc, triples)
        want = _fold(dim, trunc, triples)
        _assert_matches(got, (want.terms, want.trunc))
        dens = {v.denominator for c, a, b in triples if c
                for v in (*a.terms.values(), *b.terms.values())}
        wide += lcm(*dens) > max(dens, default=1)
        cancelled += any(c and not (a * b).truncate(got.trunc).is_zero
                         for c, a, b in mirrored)
    assert wide > 150 and cancelled > 20, (wide, cancelled)
    with pytest.raises(DimensionMismatch):
        sum_of_products(2, 3, [(1, x1, x1), (1, x1, Series.variable(1, 3, 0))])
    with pytest.raises(DimensionMismatch):
        sum_of_products(1, 3, [(1, x1, x1)])


def _stored(s):
    """A series as (trunc, {e: (storage type, coefficient)})."""
    return s.trunc, {e: (type(c), c) for e, c in s.terms.items()}


def _layout_product(a, b):
    """a * b through the numerator layout, as every product was formed
    before a one-term factor became a shift."""
    return _product(a.dim, numerator_layout(a), numerator_layout(b))


def test_a_one_term_factor_is_a_shift_equal_to_the_layout_product():
    # seeded draws in dims 1-4, the one-term factor on either side: terms,
    # trunc and int | Fraction storage equal the layout product's
    rng = random.Random(3201)
    seen = dict.fromkeys(("finite", "exact", "constant", "above", "fraction",
                          "zero partner", "cut"), 0)
    for _ in range(600):
        dim = rng.randint(1, 4)
        e = (0,) * dim if rng.random() < 0.2 else tuple(
            rng.randint(0, 4) for _ in range(dim))
        c = rng.choice([1, -1, 3, rng.randint(-2**80, 2**80),
                        Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)),
                        Fraction(2**70 + 1, 3**40)])
        trunc = rng.choice([sum(e), sum(e) + rng.randint(0, 4), INFINITE])
        one = Series(dim, trunc, {e: c})
        s = _operand(rng, dim)
        want = _stored(_layout_product(one, s))
        assert _stored(one * s) == want
        assert _stored(s * one) == want
        seen["finite" if trunc != INFINITE else "exact"] += 1
        seen["constant"] += not any(e)
        seen["above"] += sum(e) > s.trunc
        seen["fraction"] += type(c) is Fraction
        seen["zero partner"] += s.is_zero
        seen["cut"] += len((one * s).terms) < len(s.terms)
    assert min(seen.values()) >= 20, seen


def test_powers_of_a_one_term_series_equal_the_layout_chain():
    # each power the layout product of the one before and s, from 1 at s's
    # trunc: the chain that powers of a one-term series replaces
    rng = random.Random(3202)
    for _ in range(200):
        dim = rng.randint(1, 4)
        e = tuple(rng.randint(0, 3) for _ in range(dim))
        c = rng.choice([1, -2, Fraction(-3, 4), rng.randint(-2**40, 2**40)])
        s = Series(dim, rng.choice([sum(e), sum(e) + 3, INFINITE]), {e: c})
        n = rng.randint(0, 6)
        want = [Series.constant(dim, s.trunc, 1)]
        for _ in range(n):
            want.append(_layout_product(want[-1], s))
        assert [_stored(p) for p in s.powers(n)] == [_stored(p) for p in want]


def test_a_one_term_product_forms_no_key():
    # the shift packs nothing, so an exact product of one-term series whose
    # degrees sum to 2^32 or more is exact; the refusal stays where a
    # layout is formed, and the layout product still refuses
    for a, b, e in (({(2**31,): 2}, {(2**31,): 3}, (2**32,)),
                    ({(2**32, 0): 1}, {(0, 5): 3}, (2**32, 5)),
                    ({(2**31, 2**31): Fraction(1, 2)}, {(0, 0): 4},
                     (2**31, 2**31))):
        dim = len(e)
        a, b = Series(dim, INFINITE, a), Series(dim, INFINITE, b)
        (ca,), (cb,) = a.terms.values(), b.terms.values()
        product = a * b
        assert (product.terms, product.trunc) == ({e: ca * cb}, INFINITE)
        with pytest.raises(ValueError):
            numerator_layout(product)
    half = Series(1, INFINITE, {(2**31,): 1})
    with pytest.raises(ValueError):
        _layout_product(half, half)


def _reference_diff(s, alpha):
    """d_alpha s term by term: each coefficient times its falling
    factorials, with the trunc lowered by |alpha| down to -1."""
    trunc = max(s.trunc - sum(alpha), -1)
    terms = {}
    for e, c in s.terms.items():
        if all(a <= b for a, b in zip(alpha, e)) and sum(e) - sum(alpha) <= trunc:
            terms[tuple(b - a for a, b in zip(alpha, e))] = c * prod(
                perm(b, a) for a, b in zip(alpha, e))
    return terms, trunc


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.integers(0, 2 ** 28), st.integers(0, 2 ** 28)),
    min_size=dim, max_size=dim)))
def test_graded_keys_round_trip_and_add(fields):
    # in dims 1-4, with every component far above a byte: the key reads
    # back to its exponent, keeps the degree in its top field, and key sums
    # and differences are the keys of exponent sums and differences
    e, alpha = (tuple(c) for c in zip(*fields))
    dim, total = len(e), tuple(a + b for a, b in fields)
    for x in (e, alpha, total):
        assert key_exp(exp_key(x), dim) == x
        assert exp_key(x) >> (32 * dim) == sum(x)
    assert exp_key(e) + exp_key(alpha) == exp_key(total)
    assert exp_key(total) - exp_key(alpha) == exp_key(e)
    assert exp_key(total) - exp_key(e) == exp_key(alpha)


def test_graded_keys_refuse_a_degree_a_field_cannot_hold():
    # a component or a degree of 2^32 is refused when it is packed, and so
    # is an exact product whose factors' top degrees reach 2^32; one below
    # that still packs, reads back and multiplies
    top = 2 ** 32 - 1
    assert key_exp(exp_key((top,)), 1) == (top,)
    for e in ((2 ** 32,), (2 ** 31, 2 ** 31), (0, 0, 2 ** 40)):
        with pytest.raises(ValueError):
            exp_key(e)
        with pytest.raises(ValueError):
            numerator_layout(Series(len(e), INFINITE, {e: 1}))
    half = Series(2, INFINITE, {(2 ** 31, 0): 1, (0, 1): 3})
    with pytest.raises(ValueError):
        half * half
    with pytest.raises(ValueError):
        sum_of_products(2, INFINITE, [(1, half, half)])
    below = Series(2, INFINITE, {(2 ** 31 - 1, 0): 2})
    assert (below * below).terms == {(2 ** 32 - 2, 0): 4}
    # a certified degree below 2^32 bounds the product instead
    assert (half.truncate(40) * half).terms == {(0, 2): 9}


def test_diff_numerators_equals_diff():
    # terms (as numerators over the series' denominator), trunc and order
    # of the term-by-term derivative, on hard draws cut to every trunc, zero
    # series and orders that kill every term; Series.diff is their Series,
    # with each integral coefficient stored as an int
    rng = random.Random(2102)
    killed = 0
    for _ in range(400):
        dim = rng.randint(1, 3)
        s = _operand(rng, dim)
        alpha = tuple(rng.randint(0, 2) for _ in range(dim))
        terms, want_trunc = _reference_diff(s, alpha)
        want = s.diff(alpha)
        assert (want.terms, want.trunc) == (terms, want_trunc)
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in want.terms.values())
        den, items, trunc, order = diff_numerators(numerator_layout(s), alpha)
        assert den == lcm(*[c.denominator for c in s.terms.values()])
        assert all(type(n) is int and n for _, _, n in items)
        items = [(d, key_exp(k, dim), n) for d, k, n in items]
        assert [d for d, _, _ in items] == sorted(sum(e) for _, e, _ in items)
        got = {e: Fraction(n, den) for _, e, n in items}
        assert (got, trunc, order) == (want.terms, want.trunc, want.order())
        killed += want.is_zero and not s.is_zero
    assert killed > 20, killed
    x = Series(2, 5, {(3, 1): Fraction(1, 6), (0, 2): 4})
    x = numerator_layout(x)
    assert x == (6, [(2, exp_key((0, 2)), 24), (4, exp_key((3, 1)), 1)], 5, 2)
    assert diff_numerators(x, (2, 0)) == (6, [(2, exp_key((1, 1)), 6)], 3, 2)
    assert diff_numerators(x, (0, 0)) == x
    assert diff_numerators(x, (3, 3)) == (6, [], -1, INFINITE)


def test_series_attributes_cannot_be_assigned():
    s = Series.constant(1, 2, 5)
    for name, value in (("terms", {(2,): 5}), ("dim", 2), ("trunc", 9)):
        with pytest.raises(AttributeError):
            setattr(s, name, value)
    assert (s.dim, s.trunc, s.terms) == (1, 2, {(0,): 5})


def test_json_roundtrip_and_order():
    f = S(2, 4, {(0, 2): Fraction(1, 3), (1, 0): Fraction(-2), (2, 0): Fraction(5)})
    data = f.to_json()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == [(1, 0), (2, 0), (0, 2)]  # graded lex
    assert data["terms"][0]["coef"] == "-2"
    assert Series.from_json(data) == f


def test_format_rational():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-5, 2**101)) == f"-5/{2**101}"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(7) == "7"
    assert format_rational(0) == "0"
    assert format_rational(-3**90) == str(-3**90)


def _json_draw(rng, dim):
    """A series for the solution-file writer: trunc -1, finite or INFINITE;
    a sixth of the draws empty; int and Fraction coefficients, negative ones
    and numerators above 2^100."""
    trunc = rng.choice([-1, 0, 2, 5, INFINITE])
    top = 5 if trunc == INFINITE else trunc
    if top < 0 or rng.random() < 0.17:
        return Series.zero(dim, trunc)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = rng.choice(list(iter_exponents(dim, rng.randint(0, top))))
        num = rng.choice([rng.randint(-9, 9), rng.randint(-2**130, 2**130)])
        terms[e] = num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 12))
    return Series(dim, trunc, terms)


def _layout(s):
    """The terms of s as the solution files list them, spelled out here
    without grlex_key or format_rational: degree first, then the larger
    exponent of x1, x2, ... first; "p" or "p/q" in lowest terms."""
    items = sorted(s.terms.items(),
                   key=lambda item: (sum(item[0]), [-b for b in item[0]]))
    return [{"coef": str(c), "exp": list(e)} for e, c in items]


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2)


def test_json_text_equals_json_dumps():
    assert json_text(Series.zero(2, -1)) == dumps(Series.zero(2, -1).to_json())
    assert '"trunc": Infinity' in json_text(Series.constant(1, INFINITE, 3))
    rng = random.Random(2020)
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 3)
        s = _json_draw(rng, dim)
        assert json_text(s) == dumps(s.to_json())
        assert json.loads(json_text(s))["terms"] == _layout(s)
        # solution.json and solution_x.json, rows of one or more unknowns
        unknowns = rng.choice([1, 1, 2, 3])
        coeffs = [[_json_draw(rng, dim) for _ in range(unknowns)]
                  for _ in range(rng.randint(1, 4))]
        degree = rng.randint(0, 12)
        assert json_text({"P": s, "coeffs": coeffs, "degree": degree,
                          "order": len(coeffs) - 1}) == dumps({
            "P": s.to_json(),
            "coeffs": [[y.to_json() for y in yn] for yn in coeffs],
            "degree": degree, "order": len(coeffs) - 1})
        assert json_text({"degree": degree, "solution": coeffs[0]}) == dumps(
            {"degree": degree, "solution": [y.to_json() for y in coeffs[0]]})
        for y in (s, *coeffs[0]):
            seen.add(("dim", y.dim))
            seen.add(("trunc", y.trunc if y.trunc in (-1, INFINITE) else 0))
            seen.add(("empty", y.is_zero))
            for c in y.terms.values():
                seen.add(("coef", type(c), c < 0, abs(c.numerator) > 2**100))
        seen.add(("unknowns", min(unknowns, 2)))
    want = {("dim", 1), ("dim", 2), ("dim", 3), ("trunc", -1), ("trunc", 0),
            ("trunc", INFINITE), ("empty", True), ("empty", False),
            ("unknowns", 1), ("unknowns", 2)}
    want |= {("coef", t, neg, big) for t in (int, Fraction)
             for neg in (False, True) for big in (False, True)}
    assert want <= seen, want - seen


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


def _reference_gauss_jordan(a, n):
    """Gauss-Jordan over whole rows: every pivot step scales the full pivot
    row and updates every full row with a nonzero in the pivot column."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _random_augmented(rng, n, density, singular):
    """n x n plus one to three augmented columns of small Fractions, with
    about ``density`` of the entries nonzero; ``singular`` makes the last
    row of A a combination of two others."""
    def entry():
        if rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    width = n + rng.randint(1, 3)
    rows = [[entry() for _ in range(width)] for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.8:
            rows[i][i] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    if singular and n >= 3:
        a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3), 2)
        rows[-1][:n] = [a * u + b * v for u, v in zip(rows[0], rows[1])][:n]
    return rows


def test_gauss_jordan_equals_the_full_row_reference():
    rng = random.Random(918)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        rows = _random_augmented(rng, n, rng.choice([0.15, 0.4, 1.0]),
                                 rng.random() < 0.25)
        try:
            want = _reference_gauss_jordan([r[:] for r in rows], n)
        except SingularMatrix as exc:
            with pytest.raises(SingularMatrix, match=str(exc)):
                gauss_jordan([r[:] for r in rows], n)
            singular += 1
            continue
        assert gauss_jordan([r[:] for r in rows], n) == want
    assert 30 <= singular <= 200


def test_series_matrix_ops():
    one, zero = Series.constant(1, 3, 1), Series.zero(1, 3)
    I = SeriesMatrix([[one, zero], [zero, one]])
    x = Series.variable(1, 3, 0)
    M = SeriesMatrix([[x, zero], [zero, x]])
    assert (I + M).entry(0, 0) == one + x
    v = [Series.constant(1, 3, 2), Series.constant(1, 3, 3)]
    assert I.apply(v) == v
    assert M.apply(v) == [x.scale(2), x.scale(3)]
