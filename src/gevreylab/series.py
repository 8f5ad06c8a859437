"""Exact truncated multivariate formal power series over the rationals.

A series is stored as a finite map from exponent tuples to nonzero exact
coefficients, together with a total-degree bound ``trunc`` up to which the
stored data is certified exact.  An integral coefficient is stored as an
``int`` and any other as a ``Fraction`` with denominator > 1, so ``int``
arithmetic pays for no gcd; floats are refused.  Every operation propagates
``trunc`` pessimistically and none raises it (``truncate`` only lowers it),
so ``trunc`` doubles as the certified degree of the value: coefficients of
total degree <= ``trunc`` are exact, nothing is claimed beyond it.  An exact
polynomial has ``trunc = INFINITE``; cut it to a finite degree before a
division or an inverse, which expand it as a series.

Products and majorant norms run on int numerators over one common
denominator (the lcm of the denominators) and normalise once per output
coefficient, not once per pair of terms or per partial sum.  A product with
a one-term factor c x^e is a shift (``_shifted``): each term of the partner
is moved by e and scaled by c, with nothing packed.  Both factors of any
other product are read in one numerator layout ``(D, items, trunc, order)``
(``numerator_layout``): the terms as items ``(d, k, n)``, an int numerator
n over D with its total degree d and its exponent's key k, in order of
degree, with the series' trunc and order.  A factor is put in the layout
once, where it is formed, so the convolution's inner loop stops at
``trunc`` without sorting a factor or summing an exponent per pair; a
derivative (``diff_numerators``) is taken from a layout and keeps its
order, since every term drops by |alpha|.  A sum of products of layouts is
certified in one place (``sum_of_layout_products``), convolved by its
integer core (``numerator_products``), and comes out as int numerators by
key over one denominator; a caller builds a Series from that only where it
needs one (``sum_of_products`` is that Series form), and a layout formed
from it is reduced by the gcd of its D and numerators (``reduce_layout``).

The key of an exponent e in ``dim`` variables is the graded Kronecker key
``sum_i e_i 2^(W i) + |e| 2^(W dim)``, W = 32 bits per field, the top field
holding the total degree (``exp_key``, ``key_exp``).  While every field stays
below 2^W, the key of a sum of exponents is the sum of their keys, and the key
of e - alpha, for e >= alpha componentwise, is the difference: so the
convolution adds ints, not exponent tuples, and a derivative reads the
components it needs by shift and mask.  An exponent of degree >= 2^W is refused
with a ValueError when it is packed, and so is a convolution whose factors'
top degrees could sum that high (an exact one), never corrupted by a carry;
a shift packs nothing, so the refusal applies where a layout is formed.  Keys
are made where a layout is formed and read back where a Series is built from
one, so ``Series.terms`` stays tuple-keyed.

Exponent tuples ("multi-indices") are plain tuples of non-negative ints;
the helpers at the top of the module supply the arithmetic on them.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from functools import cache
from math import comb, gcd, inf, lcm, perm, prod
from operator import add, itemgetter, sub
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, DivisibilityViolation, SingularMatrix

Exponent = tuple[int, ...]
Rational = Fraction | int

_DEGREE = itemgetter(0)  # of a layout item (d, k, n)


# ---------------------------------------------------------------------------
# multi-index helpers

def exp_sub(alpha: Exponent, beta: Exponent) -> Exponent:
    """alpha - beta; requires beta <= alpha componentwise."""
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(c < 0 for c in out):
        raise ValueError(f"{beta} is not <= {alpha}")
    return out


def exp_le(beta: Exponent, alpha: Exponent) -> bool:
    return all(b <= a for b, a in zip(beta, alpha))


def exp_binomial(alpha: Exponent, beta: Exponent) -> int:
    """Product of componentwise binomial coefficients (alpha choose beta)."""
    return prod(map(comb, alpha, beta))


def unit_exp(dim: int, j: int) -> Exponent:
    """The multi-index e_j (0-based j)."""
    return tuple(1 if i == j else 0 for i in range(dim))


def grlex_key(beta: Exponent):
    """Sort key for graded lexicographic order."""
    return (sum(beta), tuple(-b for b in beta))


def iter_exponents(dim: int, total: int):
    """All exponent tuples of the given exact total degree."""
    if dim == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in iter_exponents(dim - 1, total - head):
            yield (head,) + tail


# order of the identically zero series
INFINITE = inf


# n (n-1) ... (n-j+1) for n, j >= 0: 1 for j = 0 and 0 for j > n
falling_factorial = perm


# ---------------------------------------------------------------------------
# graded Kronecker keys

# the bits of each field of a key, one struct "I" each; a degree must stay
# below _LIMIT
_W = 32
_LIMIT = 1 << _W
_MASK = _LIMIT - 1


@cache
def _keying(dim: int):
    """(pack, unpack, size) for keys in ``dim`` variables: e's key is
    from_bytes(pack(*e, |e|), "little"), with a struct.error for a field
    of 2^W or more, and e is unpack(key.to_bytes(size, "little")), the
    degree field skipped."""
    return (struct.Struct(f"<{dim + 1}I").pack,
            struct.Struct(f"<{dim}I4x").unpack, 4 * (dim + 1))


_from_bytes = int.from_bytes


def _too_high(degree) -> ValueError:
    return ValueError(f"degree {degree} does not fit a {_W}-bit key field")


def exp_key(e: Exponent) -> int:
    """The graded Kronecker key of the exponent e; a ValueError when its
    degree is 2^W or more."""
    try:
        return _from_bytes(_keying(len(e))[0](*e, sum(e)), "little")
    except struct.error:
        raise _too_high(sum(e)) from None


def key_exp(key: int, dim: int) -> Exponent:
    """The exponent in ``dim`` variables whose graded Kronecker key is key."""
    _, unpack, size = _keying(dim)
    return unpack(key.to_bytes(size, "little"))


# ---------------------------------------------------------------------------
# series

def _exact(coef) -> Rational:
    """An input coefficient as an int or a Fraction; floats are refused."""
    if type(coef) is int or type(coef) is Fraction:
        return coef
    if isinstance(coef, float):
        raise TypeError(f"float coefficient {coef!r}: use an int or a Fraction")
    return Fraction(coef)


class Series:
    """Immutable truncated power series; all coefficients exact rationals."""

    __slots__ = ("dim", "trunc", "terms")

    def __init__(self, dim: int, trunc: int, terms: Mapping[Exponent, Rational] = ()):
        if dim < 1:
            raise ValueError("dim must be positive")
        checked = []
        for exp, coef in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise DimensionMismatch(f"exponent {exp} in dimension {dim}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent {exp}")
            checked.append((exp, _exact(coef)))
        self._fill(dim, trunc, checked)

    @classmethod
    def _of(cls, dim: int, trunc: int,
            items: Iterable[tuple[Exponent, Rational]]) -> "Series":
        """A kernel result: its exponents are valid by construction, so only
        the coefficients are normalised."""
        return object.__new__(cls)._fill(dim, trunc, items)

    def _fill(self, dim, trunc, items) -> "Series":
        """Store (exponent, coefficient) pairs, dropping zeros and terms above
        trunc and keeping an integral coefficient as an int."""
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", {
            e: c.numerator if c.denominator == 1 else c
            for e, c in items if c and sum(e) <= trunc})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int) -> "Series":
        return cls(dim, trunc, {})

    @classmethod
    def constant(cls, dim: int, trunc: int, value: Rational) -> "Series":
        return cls(dim, trunc, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, trunc: int, exp: Sequence[int], coef: Rational = 1) -> "Series":
        return cls(dim, trunc, {tuple(exp): coef})

    @classmethod
    def variable(cls, dim: int, trunc: int, j: int) -> "Series":
        """The coordinate x_{j+1} (0-based j)."""
        return cls.monomial(dim, trunc, unit_exp(dim, j))

    # -- basic queries ------------------------------------------------------

    def coeff(self, exp: Sequence[int]) -> Rational:
        """The coefficient as an int or a Fraction; 0 when absent."""
        return self.terms.get(tuple(exp), 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Rational:
        """The coefficient of x^0 as an int or a Fraction; 0 when absent."""
        return self.terms.get((0,) * self.dim, 0)

    def order(self):
        """Least total degree with a nonzero coefficient, INFINITE for 0."""
        if not self.terms:
            return INFINITE
        return min(map(sum, self.terms))

    def homogeneous(self, n: int) -> "Series":
        return Series._of(self.dim, self.trunc,
                          [(e, c) for e, c in self.terms.items() if sum(e) == n])

    def truncate(self, trunc: int) -> "Series":
        if trunc >= self.trunc:
            return self
        return Series._of(self.dim, trunc, self.terms.items())

    def equal_upto(self, other: "Series", deg: int) -> bool:
        """Coefficientwise equality of all terms of total degree <= deg."""
        self._check_dim(other)
        for e in set(self.terms) | set(other.terms):
            if sum(e) <= deg and self.coeff(e) != other.coeff(e):
                return False
        return True

    def _check_dim(self, other: "Series"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check_dim(other)
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.terms)
        get = terms.get
        for e, c in other.terms.items():
            terms[e] = get(e, 0) + c
        return Series._of(self.dim, trunc, terms.items())

    def __neg__(self) -> "Series":
        return Series._of(self.dim, self.trunc,
                          [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other: "Series") -> "Series":
        return self.__add__(-other)

    def scale(self, c: Rational) -> "Series":
        c = _exact(c)
        return Series._of(self.dim, self.trunc,
                          [(e, c * v) for e, v in self.terms.items()])

    def __mul__(self, other: "Series") -> "Series":
        """The product: a shift (``_shifted``) when a factor has one term,
        which packs nothing, so no key field bounds its degree; else
        ``_product`` of the factors in the numerator layout."""
        self._check_dim(other)
        if len(other.terms) == 1:
            return _shifted(self, other)
        if len(self.terms) == 1:
            return _shifted(other, self)
        return _product(self.dim, numerator_layout(self),
                        numerator_layout(other))

    def powers(self, n: int) -> list["Series"]:
        """[s^0, ..., s^n]: 1 at s's trunc, then each power the one before
        times s, as ``*`` forms it: a shift per power when s has one term,
        with no key formed (a degree of 2^32 or more is refused only where
        a power is put in a layout); else s^1 = 1 * s is s, and each later
        power a ``_product`` with s put in the layout once."""
        if n < 0:
            raise ValueError("negative power")
        out = [Series.constant(self.dim, self.trunc, 1)]
        if len(self.terms) == 1:
            for _ in range(n):
                out.append(_shifted(out[-1], self))
        elif n:
            out.append(self)
            right = numerator_layout(self)
            for _ in range(n - 1):
                out.append(_product(self.dim, numerator_layout(out[-1]),
                                    right))
        return out

    def pow(self, n: int) -> "Series":
        return self.powers(n)[n]

    # -- calculus -----------------------------------------------------------

    def diff(self, alpha: Sequence[int]) -> "Series":
        """Iterated partial derivative; certified degree drops by |alpha|.
        One term c x^e is differentiated in place, to c ff(e, alpha)
        x^(e - alpha), dropped when 0 or above the trunc; any other series
        in the numerator layout (``diff_numerators``)."""
        alpha = tuple(alpha)
        if len(alpha) != self.dim:
            raise DimensionMismatch(f"index {alpha} in dimension {self.dim}")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return Series._of(self.dim, max(self.trunc - sum(alpha), -1),
                              [(tuple(map(sub, e, alpha)),
                                c * prod(map(perm, e, alpha)))])
        return layout_series(self.dim,
                             diff_numerators(numerator_layout(self), alpha))

    # -- division -----------------------------------------------------------

    def divide_exact(self, b: "Series") -> "Series":
        """Exact division a = b*q, certified to a.trunc - o(b) and, since
        q' - q = q (b - b') / b', to b.trunc - o(b) + o(q).

        One long division, lowest degree first, by the grlex-largest
        monomial of the lowest homogeneous part of ``b``; raises
        DivisibilityViolation with the grlex-least monomial left over in the
        first degree that does not divide.
        """
        self._check_dim(b)
        if b.is_zero:
            raise ZeroDivisionError("division by the zero series")
        omega = b.order()
        low = [e for e in self.terms if sum(e) < omega]
        if low:
            raise DivisibilityViolation(min(low, key=grlex_key))
        top = self.trunc
        if top == INFINITE:
            raise ValueError("exact dividend: cut it first (truncate)")
        if top < omega:
            return Series.zero(self.dim, -1)
        lead = max((e for e in b.terms if sum(e) == omega), key=grlex_key)
        c_lead = b.terms[lead]
        rest = [(e, sum(e) - omega, v) for e, v in b.terms.items() if e != lead]
        # the remainder, bucketed by total degree
        rem: list[dict[Exponent, Rational]] = [{} for _ in range(top + 1)]
        for e, c in self.terms.items():
            rem[sum(e)][e] = c
        q: dict[Exponent, Rational] = {}
        for d in range(omega, top + 1):
            bucket = rem[d]
            stuck = []
            while bucket:
                m = max(bucket, key=grlex_key)
                c = bucket.pop(m)
                if not exp_le(lead, m):
                    stuck.append(m)
                    continue
                qe = exp_sub(m, lead)
                # the one int / int site: without Fraction it gives a float
                qc = q[qe] = Fraction(c) / c_lead
                for e, shift, v in rest:
                    if d + shift > top:
                        continue
                    t = tuple(map(add, qe, e))
                    target = rem[d + shift]
                    nv = target.get(t, 0) - qc * v
                    if nv:
                        target[t] = nv
                    else:
                        del target[t]
            if stuck:
                raise DivisibilityViolation(min(stuck, key=grlex_key))
        trunc = top - omega
        if q:
            trunc = min(trunc, b.trunc - omega + min(map(sum, q)))
        return Series._of(self.dim, trunc, q.items())

    # -- norms --------------------------------------------------------------

    def majorant_norm(self, rho: Rational) -> Fraction:
        """Sum of |coefficient| * rho^degree over the stored terms.

        With rho = p/q, numerators n_e over the common denominator D and top
        degree T this is sum |n_e| p^|e| q^(T-|e|) / (D q^T): one Fraction.
        """
        rho = Fraction(rho)
        d, items = _numerators(self.terms)
        p, q = rho.numerator, rho.denominator
        top = max(map(sum, self.terms), default=0)
        return Fraction(sum(abs(n) * p ** sum(e) * q ** (top - sum(e))
                            for e, n in items), d * q ** top)

    # -- canonical form -----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "trunc": self.trunc,
            "terms": [
                {"exp": list(e), "coef": format_rational(c)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Series":
        terms = {tuple(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}
        return cls(data["dim"], data["trunc"], terms)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.dim == other.dim and self.trunc == other.trunc
                and self.terms == other.terms)

    def __str__(self):
        """The text form the problem documents use, e.g. -1/3 + 2*x1^2*x2."""
        return format_terms((format_monomial(e), c)
                            for e, c in self.sorted_terms())

    def __repr__(self):
        body = format_terms((format_monomial(e), c)
                            for e, c in self.sorted_terms()[:8])
        if len(self.terms) > 8:
            body += " + ..."
        return f"Series({body}; trunc={self.trunc})"


def _numerators(terms: Mapping[Exponent, Rational]):
    """(D, [(e, c * D)]): the coefficients as int numerators over D, the lcm
    of their denominators; an all-int series gives D = 1 and its own items."""
    d = lcm(*[c.denominator for c in terms.values()])
    if d == 1:
        return 1, terms.items()
    return d, [(e, c.numerator * (d // c.denominator))
               for e, c in terms.items()]


def numerator_layout(s: Series):
    """s in the one numerator layout (D, [(d, k, n)], trunc, order): its
    terms as int numerators n over D, the lcm of their denominators, each
    with its total degree d and its exponent's key k and in order of
    degree, and its trunc and order.  Both factors of a product are read in
    this layout.  A ValueError for a degree that a key cannot hold."""
    den, items = _numerators(s.terms)
    pack = _keying(s.dim)[0]
    try:
        items = [(d := sum(e), _from_bytes(pack(*e, d), "little"), n)
                 for e, n in items]
    except struct.error:
        raise _too_high(max(map(sum, s.terms))) from None
    items.sort(key=_DEGREE)
    return den, items, s.trunc, items[0][0] if items else INFINITE


def _layout(dim: int, den: int, items: Iterable[tuple[int, int]], trunc):
    """The numerator layout of the int numerators ``items`` [(key, n)] in
    ``dim`` variables over ``den``, all of degree <= trunc: the nonzero ones
    with their degrees, put in order of degree."""
    items = _graded(dim, items)
    items.sort(key=_DEGREE)
    return den, items, trunc, items[0][0] if items else INFINITE


def _graded(dim: int, items: Iterable[tuple[int, int]]) -> list:
    """The nonzero int numerators ``items`` [(key, n)] in ``dim`` variables
    as layout items (d, k, n), each degree read from its key, in the order
    they come in."""
    shift = _W * dim
    return [(k >> shift, k, n) for k, n in items if n]


def reduce_layout(layout):
    """A numerator layout divided through by g = gcd(D, *numerators), so
    that D is the lcm of the reduced denominators, as ``numerator_layout``
    gives it for the layout's Series; an empty layout gets D = 1."""
    den, items, trunc, order = layout
    g = gcd(den, *[n for _, _, n in items])
    if g == 1:
        return layout
    return den // g, [(d, k, n // g) for d, k, n in items], trunc, order


def layout_series(dim: int, layout) -> Series:
    """The Series of a numerator layout, with one Fraction per coefficient
    when D > 1."""
    den, items, trunc, _ = layout
    return _over(dim, den, [(k, n) for _, k, n in items], trunc)


def _convolve(trunc, pairs) -> dict[int, int]:
    """sum left * right over ``pairs`` of factors in the items [(d, k, n)]
    of a numerator layout, the right one in order of degree, through total
    degree ``trunc``, as int numerators by key: the one integer convolution
    loop.  A sum that cancels stays, as a 0.  A ValueError when ``trunc``
    and the factors' top degrees let a product reach 2^W."""
    acc: dict[int, int] = {}
    get = acc.get
    for left, right in pairs:
        if (trunc >= _LIMIT and left and right
                and max(map(_DEGREE, left)) + right[-1][0] >= _LIMIT):
            raise _too_high(max(map(_DEGREE, left)) + right[-1][0])
        # the right terms come in order of degree: stop at trunc
        for d1, k1, c1 in left:
            room = trunc - d1
            for d2, k2, c2 in right:
                if d2 > room:
                    break
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return acc


def _over(dim: int, den: int, items, trunc) -> Series:
    """The series of the int numerators ``items`` [(key, n)] over ``den``,
    with one Fraction per nonzero coefficient: each key of a nonzero
    numerator read back once."""
    _, unpack, size = _keying(dim)
    if den == 1:
        return Series._of(dim, trunc, [(unpack(k.to_bytes(size, "little")), c)
                                       for k, c in items if c])
    return Series._of(dim, trunc, [(unpack(k.to_bytes(size, "little")),
                                    Fraction(c, den)) for k, c in items if c])


def sum_of_products(dim: int, trunc, triples) -> Series:
    """sum c * a * b over (c, a, b) triples with int c, equal (terms and
    trunc) to the left fold of ``+`` over ``(a * b).scale(c)`` from
    ``Series.zero(dim, trunc)``: the Series of ``sum_of_layout_products``
    of the factors in the numerator layout."""
    layouts = []
    for c, a, b in triples:
        if a.dim != dim or b.dim != dim:
            raise DimensionMismatch(f"dim {dim} vs {a.dim}, {b.dim}")
        layouts.append((c, numerator_layout(a), numerator_layout(b)))
    return _over(dim, *sum_of_layout_products(trunc, layouts))


def sum_of_layout_products(trunc, triples) -> tuple:
    """sum c * a * b over (c, a, b) triples with int c and both factors in
    the numerator layout, as (D, [(key, n)], trunc): int numerators over
    one denominator, the right side that ``GradedSolve.solve`` takes.  The
    one place that certifies a sum of products: to the least of ``trunc``
    and every product's ``product_trunc``, a zero c or a zero factor
    included; only then is such a triple dropped."""
    parts = []
    for c, (da, left, ta, oa), (db, right, tb, ob) in triples:
        trunc = min(trunc, product_trunc(ta, oa, tb, ob))
        if c and left and right:
            parts.append((c, da * db, left, right))
    return (*numerator_products(trunc, parts), trunc)


def _product(dim: int, a, b) -> Series:
    """a * b of factors in the numerator layout: an integer convolution of
    the numerators, divided by the common denominator once per output
    coefficient."""
    da, left, ta, oa = a
    db, right, tb, ob = b
    trunc = product_trunc(ta, oa, tb, ob)
    return _over(dim, da * db, _convolve(trunc, ((left, right),)).items(),
                 trunc)


def _shifted(s: Series, one: Series) -> Series:
    """s * one for a one-term ``one`` = c x^e: each term of s shifted by e
    and scaled by c, certified to the same ``product_trunc`` as
    ``_product`` and cut there.  Nothing is packed, so no key field bounds
    the degrees."""
    (e, c), = one.terms.items()
    trunc = product_trunc(s.trunc, s.order(), one.trunc, sum(e))
    return Series._of(s.dim, trunc, [(tuple(map(add, e2, e)), c2 * c)
                                     for e2, c2 in s.terms.items()])


def numerator_products(trunc, parts) -> tuple:
    """sum c * left * right / d over (c, d, left, right) parts, with int c
    and d and both factors in the items of a numerator layout, through
    total degree ``trunc``, which the caller certifies, as (L, [(key, n)]):
    each product accumulated over L, the lcm of the d, and no Fraction
    built, so each output coefficient is normalised once, not per sum."""
    den = lcm(*[d for _, d, _, _ in parts])
    pairs = []
    for c, d, left, right in parts:
        c *= den // d
        pairs.append(([(d1, k, c * n) for d1, k, n in left] if c != 1
                      else left, right))
    return den, _convolve(trunc, pairs).items()


def diff_numerators(layout, alpha: Exponent):
    """d_alpha of a series in the numerator layout, in that layout: the
    same D, the falling factorials folded into each n, the trunc lowered by
    |alpha| down to -1, and the terms in the order they come in, since each
    drops by |alpha|.  No Fraction is built; ``Series.diff`` divides it
    out."""
    den, items, trunc, order = layout
    w = sum(alpha)
    trunc = max(trunc - w, -1)
    if trunc < 0:
        return den, [], trunc, INFINITE
    if not w:
        # d_0 is the identity: the same terms
        return den, items, trunc, order
    # each falling factorial reads its component by shift and mask, and a
    # term that survives has e >= alpha, so e - alpha is its key minus
    # alpha's, with no borrow; every term is of degree <= the layout's
    # trunc, so what survives is of degree <= trunc
    drop = exp_key(alpha)
    reads = [(_W * i, a) for i, a in enumerate(alpha) if a]
    terms = []
    for d, k, c in items:
        for s, a in reads:
            c *= perm(k >> s & _MASK, a)
        if c:
            terms.append((d - w, k - drop, c))
    return den, terms, trunc, terms[0][0] if terms else INFINITE


def product_trunc(ta, oa, tb, ob) -> int:
    """Certified degree of a product of factors with truncs ta, tb and
    orders oa, ob (INFINITE for a zero factor): unknown tails are shifted
    by the partner's order."""
    candidates = []
    if ob != INFINITE:
        candidates.append(ta + ob)
    if oa != INFINITE:
        candidates.append(tb + oa)
    if not candidates:
        return max(ta, tb)
    return min(candidates)


def format_rational(c: Rational) -> str:
    """Canonical "p/q" string with q > 0 and gcd(p, q) = 1, and "p" for an
    integral value; an int or a Fraction is read as it is, never converted."""
    if type(c) is int:
        return str(c)
    n, d = c.numerator, c.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def json_text(value, pad: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, where ``value`` is a
    dict with str keys, a list, a Series or a JSON scalar and each Series
    stands for its ``to_json`` dict; ``pad`` is the indent of the line the
    value starts on.  A Series is written term by term from its own data,
    without building that dict, and the scalars go through ``json.dumps``
    (an INFINITE trunc is ``Infinity``).  This is the one writer of the
    solution files of ``gevrey-lab solve``."""
    inner = pad + "  "
    if isinstance(value, Series):
        p2 = inner + "  "
        p3 = p2 + "  "
        sep = ",\n" + p3 + "  "
        # a formatted coefficient holds only digits, "-" and "/": no escapes
        terms = ",\n".join(
            f'{p2}{{\n{p3}"coef": "{format_rational(c)}",\n{p3}"exp": [\n'
            f'{p3}  {sep.join(map(str, e))}\n{p3}]\n{p2}}}'
            for e, c in value.sorted_terms())
        terms = f"[\n{terms}\n{inner}]" if terms else "[]"
        return (f'{{\n{inner}"dim": {json.dumps(value.dim)},\n'
                f'{inner}"terms": {terms},\n'
                f'{inner}"trunc": {json.dumps(value.trunc)}\n{pad}}}')
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{inner}{json.dumps(k)}: {json_text(v, inner)}"
                 for k, v in sorted(value.items())]
    elif isinstance(value, list):
        brackets = "[]"
        items = [inner + json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def format_monomial(e: Sequence[int], var: str = "x") -> str:
    """x1^2*x3 for the exponent (2, 0, 1); the empty string for 0."""
    return "*".join(f"{var}{i + 1}" + (f"^{p}" if p > 1 else "")
                    for i, p in enumerate(e) if p)


def format_terms(pairs: Iterable[tuple[str, Rational]]) -> str:
    """c1*m1 + c2*m2 + ... for (monomial text, coefficient) pairs, "0" for
    none; a constant term shows its coefficient alone."""
    return " + ".join(format_rational(c) + (f"*{m}" if m else "")
                      for m, c in pairs) or "0"


# ---------------------------------------------------------------------------
# rational matrices and series matrices

def _det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def gauss_jordan(a: list[list[Rational]], n: int) -> list[list[Rational]]:
    """Reduce the augmented rows [A | B], with A of size n x n, in place and
    return the block right of A, which then holds A^-1 B.  Raises
    SingularMatrix when A is singular over Q.

    Each pivot step touches only nonzero entries: it scales the pivot row
    where it is nonzero, and subtracts it only from the rows with a nonzero
    in the pivot column, at the pivot row's nonzero entries.  Left of the
    pivot column the pivot row is already zero."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular over the rationals")
        a[col], a[pivot] = a[pivot], a[col]
        row = a[col]
        inv = Fraction(1) / row[col]
        support = [c for c in range(col, len(row)) if row[c] != 0]
        for c in support:
            row[c] *= inv
        for r in range(n):
            other = a[r]
            f = other[col]
            if r != col and f != 0:
                for c in support:
                    other[c] -= f * row[c]
    return [row[n:] for row in a]


def invert_rational_matrix(m: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse over Q; raises SingularMatrix when not invertible."""
    n = len(m)
    return gauss_jordan(
        [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)], n)


class SeriesMatrix:
    """Dense grid of Series sharing dim and trunc."""

    __slots__ = ("rows", "cols", "entries", "_layouts")

    def __init__(self, entries: Sequence[Sequence[Series]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        dims = {s.dim for row in self.entries for s in row}
        if len(dims) > 1:
            raise DimensionMismatch("matrix entries disagree on dim")
        self._layouts = None

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim

    def entry(self, i: int, j: int) -> Series:
        return self.entries[i][j]

    def constant_part(self) -> list[list[Rational]]:
        return [[s.constant_term() for s in row] for row in self.entries]

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def apply(self, vec: Sequence[Series]) -> list[Series]:
        """M vec, as ``sum_of_products`` per row; each entry is put in the
        numerator layout once per matrix, and each component of vec once
        per call."""
        if self.cols != len(vec):
            raise DimensionMismatch("vector length does not match matrix")
        if not self.rows:
            return []
        dim = self.dim
        for v in vec:
            if v.dim != dim:
                raise DimensionMismatch(f"dim {dim} vs {v.dim}")
        if self._layouts is None:
            self._layouts = [[numerator_layout(s) for s in row]
                             for row in self.entries]
        vec = [numerator_layout(v) for v in vec]
        return [_over(dim, *sum_of_layout_products(
            INFINITE, [(1, a, v) for a, v in zip(row, vec)]))
                for row in self._layouts]

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols})"
