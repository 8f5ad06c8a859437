"""Homogeneous-order differential operators and their interaction with a
distinguished series P: the star map L*(P), the coefficient tables A_{alpha,j}
appearing in the derivatives of powers of P, the divisibility check that
governs solvability, and the signed Stirling numbers the solver needs.
``falling_factorial`` is defined in ``series`` and re-exported here."""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionMismatch, DivisibilityViolation
from .series import (
    INFINITE,
    Exponent,
    Rational,
    Series,
    _layout,
    diff_numerators,
    falling_factorial,
    grlex_key,
    layout_series,
    numerator_layout,
    product_trunc,
    sum_of_layout_products,
    unit_exp,
)


def stirling_first(j: int, l: int) -> int:
    """Signed Stirling number of the first kind s(j, l), 1 <= l <= j.

    Defined so that t^j d_t^j = sum_l s(j, l) (t d_t)^l as operators.
    """
    if not 1 <= l <= j:
        raise ValueError(f"indices out of range: s({j}, {l})")
    # falling factorial x(x-1)...(x-j+1) = sum_l s(j,l) x^l
    coeffs = [0, 1]  # polynomial x
    for i in range(1, j):
        # multiply by (x - i)
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
            nxt[p] -= i * c
        coeffs = nxt
    return coeffs[l]


class DiffOperator:
    """Operator of a single order j: sum over |alpha| = j of a_alpha * d_alpha."""

    __slots__ = ("dim", "order", "terms", "_layouts")

    def __init__(self, dim: int, order: int, terms: Mapping[Exponent, Series] = ()):
        if order < 1:
            raise ValueError("operator order must be >= 1")
        self.dim = dim
        self.order = order
        clean: dict[Exponent, Series] = {}
        for alpha, coef in dict(terms).items():
            alpha = tuple(alpha)
            if len(alpha) != dim:
                raise DimensionMismatch(f"index {alpha} in dimension {dim}")
            if sum(alpha) != order:
                raise ValueError(f"|{alpha}| != operator order {order}")
            if coef.dim != dim:
                raise DimensionMismatch("coefficient dim mismatch")
            clean[alpha] = coef
        self.terms = clean
        self._layouts = None

    @property
    def is_zero(self) -> bool:
        """Every coefficient is zero; a zero coefficient stays a term, since
        its trunc still bounds what apply and star certify."""
        return all(c.is_zero for c in self.terms.values())

    def apply(self, f: Series) -> Series:
        """sum_alpha a_alpha * d_alpha(f)."""
        return layout_series(self.dim, self.apply_numerators(f))

    def apply_numerators(self, f: Series):
        """``apply(f)`` in the numerator layout of ``diff_numerators``, with
        no Fraction built; f is put in that layout once, and each
        coefficient once per operator (``_coefficients``).  One
        ``sum_of_layout_products`` of (1, c_alpha, d_alpha(f)) triples; the
        order is read after cancelled terms are dropped (x1 d1 - x2 d2
        sends x1 x2 to 0)."""
        if f.dim != self.dim:
            raise DimensionMismatch("operand dim mismatch")
        if not self.terms:
            return 1, [], max(f.trunc - self.order, -1), INFINITE
        layout = numerator_layout(f)
        return _layout(self.dim, *sum_of_layout_products(INFINITE, [
            (1, c, diff_numerators(layout, alpha))
            for alpha, c in self._coefficients()]))

    def _coefficients(self):
        """Each (alpha, c_alpha in the numerator layout), formed once."""
        if self._layouts is None:
            self._layouts = [(alpha, numerator_layout(c))
                             for alpha, c in self.terms.items()]
        return self._layouts

    def star(self, P: Series) -> Series:
        """sum_alpha a_alpha * (d_1 P)^a1 ... (d_d P)^ad, as the fold of
        ``+`` over the products: for a monomial P each is a shift."""
        if P.dim != self.dim:
            raise DimensionMismatch("operand dim mismatch")
        if not self.terms:
            return Series.zero(self.dim, max(P.trunc - 1, -1))
        out = Series.zero(self.dim, INFINITE)
        for alpha, coef in self.terms.items():
            out = out + coef * partial_star(alpha, P)
        return out

    def star_at_zero(self, P: Series) -> tuple[Rational, int]:
        """(L*(P)(0), the trunc of L*(P)) without forming L*(P): the value
        sum_alpha a_alpha(0) prod_i (d_i P(0))^alpha_i, and the trunc that
        ``star`` certifies, by the ``product_trunc`` arithmetic of its
        products.  The value is L*(P)(0) only where that trunc is >= 0."""
        if P.dim != self.dim:
            raise DimensionMismatch("operand dim mismatch")
        dt = max(P.trunc - 1, -1)        # the trunc of each d_i P
        if not self.terms:
            return 0, dt
        trunc, value = INFINITE, 0
        for alpha, coef in self.terms.items():
            # partial_star(alpha, P): 1 at P's trunc times each power of a
            # d_i P, each power formed from 1 at dt
            t, o, lead = *_one(P.trunc), coef.constant_term()
            for i, a in enumerate(alpha):
                if a:
                    od = min((sum(e) - 1 for e in P.terms if e[i]),
                             default=INFINITE)
                    pt, po = _one(dt)
                    for _ in range(a):
                        pt, po = _product_cert(pt, po, dt, od)
                    t, o = _product_cert(t, o, pt, po)
                    lead *= P.coeff(unit_exp(self.dim, i)) ** a
            trunc = min(trunc, product_trunc(coef.trunc, coef.order(), t, o))
            value += lead
        return value.numerator if value.denominator == 1 else value, trunc

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))


def _one(trunc):
    """The trunc and order of the constant 1 cut to ``trunc``."""
    return trunc, 0 if trunc >= 0 else INFINITE


def _product_cert(ta, oa, tb, ob):
    """The trunc and order of a product of series of these truncs and
    orders, as ``Series.__mul__`` gives them: the lowest parts multiply to
    a nonzero part, so the orders add, unless that lies above the trunc."""
    t = product_trunc(ta, oa, tb, ob)
    return t, oa + ob if oa + ob <= t else INFINITE


def partial_star(alpha: Sequence[int], P: Series) -> Series:
    """(d_1 P)^a1 ... (d_d P)^ad for |alpha| >= 1."""
    alpha = tuple(alpha)
    if sum(alpha) < 1:
        raise ValueError("|alpha| must be >= 1")
    out = Series.constant(P.dim, P.trunc, 1)
    for i, a in enumerate(alpha):
        if a:
            out = out * P.diff(unit_exp(P.dim, i)).pow(a)
    return out


def faadibruno(P: Series, alpha: Sequence[int]) -> dict[int, Series]:
    """The coefficients A_{alpha,j}, keyed by every j in 1..|alpha|, in the
    expansion d_alpha(P^n) = sum_j n!/(n-j)! A_{alpha,j} P^(n-j), built by
    the one-step recurrence A_{alpha+e_l,j} = d_l(A_{alpha,j}) +
    d_l(P) A_{alpha,j-1}, incrementing the coordinates from left to
    right."""
    alpha = tuple(alpha)
    if sum(alpha) < 1:
        raise ValueError("|alpha| must be >= 1")
    steps = []
    for i, a in enumerate(alpha):
        steps.extend([i] * a)
    first = steps[0]
    A: dict[int, Series] = {1: P.diff(unit_exp(P.dim, first))}
    for l in steps[1:]:
        el = unit_exp(P.dim, l)
        dP = P.diff(el)
        new: dict[int, Series] = {}
        top = max(A) + 1
        for j in range(1, top + 1):
            term = None
            if j in A:
                term = A[j].diff(el)
            if j - 1 in A:
                extra = dP * A[j - 1]
                term = extra if term is None else term + extra
            if term is not None:
                new[j] = term
        A = new
    return A


class DivisibilityVerdict:
    """Per-order result of checking that P divides L_j*(P) for every j."""

    __slots__ = ("ok", "quotients", "witnesses")

    def __init__(self, ok: bool, quotients: dict[int, Series],
                 witnesses: dict[int, Exponent]):
        self.ok = ok
        self.quotients = quotients
        self.witnesses = witnesses

    def __bool__(self):
        return self.ok


def check_divisibility(P: Series, operators: Sequence[DiffOperator | None]) -> DivisibilityVerdict:
    """For each operator L_j (j = position + 1), try the exact division
    L_j*(P) / P.  An absent operator passes trivially with quotient 0; one
    whose coefficients are zero through their trunc is divided like any
    other, since its quotient is certified only as far as they are."""
    quotients: dict[int, Series] = {}
    witnesses: dict[int, Exponent] = {}
    for pos, L in enumerate(operators):
        j = pos + 1
        if L is None:
            quotients[j] = Series.zero(P.dim, P.trunc)
            continue
        starred = L.star(P)
        try:
            quotients[j] = starred.divide_exact(P)
        except DivisibilityViolation as exc:
            witnesses[j] = exc.monomial
    return DivisibilityVerdict(not witnesses, quotients, witnesses)
