"""Homogeneous-order differential operators and their interaction with a
distinguished series P: the star map L*(P), the coefficient tables A_{alpha,j}
appearing in the derivatives of powers of P, the divisibility check that
governs solvability, and the signed Stirling numbers the solver needs.
``falling_factorial`` is defined in ``series`` and re-exported here."""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionMismatch, DivisibilityViolation
from .series import (
    Exponent,
    Series,
    exp_degree,
    falling_factorial,
    grlex_key,
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

    __slots__ = ("dim", "order", "terms")

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
            if exp_degree(alpha) != order:
                raise ValueError(f"|{alpha}| != operator order {order}")
            if coef.dim != dim:
                raise DimensionMismatch("coefficient dim mismatch")
            if not coef.is_zero:
                clean[alpha] = coef
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def apply(self, f: Series) -> Series:
        """sum_alpha a_alpha * d_alpha(f)."""
        if f.dim != self.dim:
            raise DimensionMismatch("operand dim mismatch")
        out = None
        for alpha, coef in self.terms.items():
            term = coef * f.diff(alpha)
            out = term if out is None else out + term
        if out is None:
            return Series.zero(self.dim, max(f.trunc - self.order, 0))
        return out

    def star(self, P: Series) -> Series:
        """sum_alpha a_alpha * (d_1 P)^a1 ... (d_d P)^ad."""
        if P.dim != self.dim:
            raise DimensionMismatch("operand dim mismatch")
        out = None
        for alpha, coef in self.terms.items():
            term = coef * partial_star(alpha, P)
            out = term if out is None else out + term
        if out is None:
            return Series.zero(self.dim, max(P.trunc - 1, 0))
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return (self.dim, self.order, self.terms) == (other.dim, other.order, other.terms)

    def __repr__(self):
        return f"DiffOperator(order={self.order}, terms={len(self.terms)})"


def partial_star(alpha: Sequence[int], P: Series) -> Series:
    """(d_1 P)^a1 ... (d_d P)^ad for |alpha| >= 1."""
    alpha = tuple(alpha)
    if exp_degree(alpha) < 1:
        raise ValueError("|alpha| must be >= 1")
    out = Series.constant(P.dim, P.trunc, 1)
    for i, a in enumerate(alpha):
        if a:
            out = out * P.diff(unit_exp(P.dim, i)).pow(a)
    return out


class FaaDiBrunoTable:
    """Coefficients A_{alpha,j}, 1 <= j <= |alpha|, in the expansion of
    d_alpha(P^n) into falling-factorial multiples of powers of P."""

    __slots__ = ("P", "alpha", "A")

    def __init__(self, P: Series, alpha: Exponent, A: dict[int, Series]):
        self.P = P
        self.alpha = alpha
        self.A = A

    def coefficient(self, j: int) -> Series:
        """A_{alpha,j}, the zero series when absent (j > |alpha|)."""
        if j in self.A:
            return self.A[j]
        return Series.zero(self.P.dim, self.P.trunc)

def faadibruno(P: Series, alpha: Sequence[int]) -> FaaDiBrunoTable:
    """Build the A_{alpha,j} table by the one-step recurrence
    A_{alpha+e_l,j} = d_l(A_{alpha,j}) + d_l(P) A_{alpha,j-1},
    incrementing the coordinates from left to right."""
    alpha = tuple(alpha)
    if exp_degree(alpha) < 1:
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
    return FaaDiBrunoTable(P, alpha, A)


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

    def __repr__(self):
        if self.ok:
            return f"DivisibilityVerdict(ok, orders={sorted(self.quotients)})"
        return f"DivisibilityVerdict(failed at {self.witnesses})"


def check_divisibility(P: Series, operators: Sequence[DiffOperator | None]) -> DivisibilityVerdict:
    """For each operator L_j (j = position + 1), try the exact division
    L_j*(P) / P.  Identically zero operators pass trivially with quotient 0."""
    quotients: dict[int, Series] = {}
    witnesses: dict[int, Exponent] = {}
    for pos, L in enumerate(operators):
        j = pos + 1
        if L is None or L.is_zero:
            quotients[j] = Series.zero(P.dim, P.trunc)
            continue
        starred = L.star(P)
        if starred.is_zero:
            quotients[j] = Series.zero(P.dim, starred.trunc)
            continue
        try:
            quotients[j] = starred.divide_exact(P)
        except DivisibilityViolation as exc:
            witnesses[j] = exc.monomial
    return DivisibilityVerdict(not witnesses, quotients, witnesses)
