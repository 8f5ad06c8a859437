"""Exact truncated multivariate formal power series over the rationals.

A series is stored as a finite map from exponent tuples to nonzero
``Fraction`` coefficients, together with a total-degree bound ``trunc`` up
to which the stored data is certified exact.  Every operation propagates
``trunc`` pessimistically, so ``trunc`` doubles as the certified degree of
the value: coefficients of total degree <= ``trunc`` are exact, nothing is
claimed beyond it.

Exponent tuples ("multi-indices") are plain tuples of non-negative ints;
the helpers at the top of the module supply the arithmetic on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, DivisibilityViolation, SingularMatrix

Exponent = tuple[int, ...]
Rational = Fraction | int


# ---------------------------------------------------------------------------
# multi-index helpers

def exp_degree(alpha: Sequence[int]) -> int:
    return sum(alpha)


def exp_add(alpha: Exponent, beta: Exponent) -> Exponent:
    return tuple(a + b for a, b in zip(alpha, beta))


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
    return _prod(comb(a, b) for a, b in zip(alpha, beta))


def unit_exp(dim: int, j: int) -> Exponent:
    """The multi-index e_j (0-based j)."""
    return tuple(1 if i == j else 0 for i in range(dim))


def grlex_key(beta: Exponent):
    """Sort key for graded lexicographic order."""
    return (sum(beta), tuple(-b for b in beta))


def _prod(it: Iterable[int]) -> int:
    out = 1
    for v in it:
        out *= v
    return out


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


def falling_factorial(n: int, j: int) -> int:
    """n (n-1) ... (n-j+1); equals 1 for j=0 and 0 for j > n."""
    if j < 0:
        raise ValueError("negative j")
    out = 1
    for i in range(j):
        out *= n - i
    return out


# ---------------------------------------------------------------------------
# series

class Series:
    """Immutable truncated power series; all coefficients exact rationals."""

    __slots__ = ("dim", "trunc", "terms", "_hash")

    def __init__(self, dim: int, trunc: int, terms: Mapping[Exponent, Rational] = ()):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.trunc = trunc
        clean: dict[Exponent, Fraction] = {}
        for exp, coef in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise DimensionMismatch(f"exponent {exp} in dimension {dim}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent {exp}")
            if sum(exp) > trunc:
                continue
            coef = Fraction(coef)
            if coef != 0:
                clean[exp] = coef
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        if name in ("dim", "trunc") and hasattr(self, "terms"):
            raise AttributeError("Series is immutable")
        object.__setattr__(self, name, value)

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

    def coeff(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def order(self):
        """Least total degree with a nonzero coefficient, INFINITE for 0."""
        if not self.terms:
            return INFINITE
        return min(sum(e) for e in self.terms)

    def homogeneous(self, n: int) -> "Series":
        return Series(self.dim, self.trunc,
                      {e: c for e, c in self.terms.items() if sum(e) == n})

    def truncate(self, trunc: int) -> "Series":
        if trunc >= self.trunc:
            return self
        return Series(self.dim, trunc, self.terms)

    def with_trunc(self, trunc: int) -> "Series":
        """Re-certify to a (possibly larger) degree; caller asserts exactness."""
        return Series(self.dim, trunc, self.terms)

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

    def __add__(self, other) -> "Series":
        other = self._coerce(other)
        self._check_dim(other)
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Series(self.dim, trunc, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Series":
        return Series(self.dim, self.trunc, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Series":
        return self.__add__(-self._coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c: Rational) -> "Series":
        c = Fraction(c)
        if c == 0:
            return Series(self.dim, self.trunc, {})
        return Series(self.dim, self.trunc, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_dim(other)
        trunc = _product_trunc(self, other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > trunc:
                    continue
                e = exp_add(e1, e2)
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Series(self.dim, trunc, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def pow(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative power")
        out = Series.constant(self.dim, self.trunc, 1)
        for _ in range(n):
            out = out * self
        return out

    def _coerce(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        return Series.constant(self.dim, self.trunc, other)

    # -- calculus -----------------------------------------------------------

    def diff(self, alpha: Sequence[int]) -> "Series":
        """Iterated partial derivative; certified degree drops by |alpha|."""
        alpha = tuple(alpha)
        if len(alpha) != self.dim:
            raise DimensionMismatch(f"index {alpha} in dimension {self.dim}")
        trunc = max(self.trunc - sum(alpha), 0)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if not exp_le(alpha, e):
                continue
            factor = _prod(falling_factorial(e[i], alpha[i]) for i in range(self.dim))
            terms[exp_sub(e, alpha)] = c * factor
        return Series(self.dim, trunc, terms)

    # -- division -----------------------------------------------------------

    def divide_exact(self, b: "Series") -> "Series":
        """Graded exact division a = b*q, certified to a.trunc - o(b).

        Solved degree by degree against the lowest homogeneous part of ``b``;
        raises DivisibilityViolation with the first failing monomial.
        """
        self._check_dim(b)
        if b.is_zero:
            raise ZeroDivisionError("division by the zero series")
        omega = b.order()
        low = [e for e in self.terms if sum(e) < omega]
        if low:
            raise DivisibilityViolation(min(low, key=grlex_key))
        b_low = b.homogeneous(omega)
        trunc = self.trunc - omega
        if trunc < 0:
            return Series.zero(self.dim, 0)
        q_terms: dict[Exponent, Fraction] = {}
        q_homog: list[Series] = []
        for m in range(trunc + 1):
            rhs = self.homogeneous(omega + m)
            for i in range(1, m + 1):
                part = b.homogeneous(omega + i)
                if part.is_zero or q_homog[m - i].is_zero:
                    continue
                rhs = rhs - (part * q_homog[m - i]).homogeneous(omega + m)
            qm = _divide_homogeneous(rhs, b_low, self.trunc)
            q_homog.append(qm)
            q_terms.update(qm.terms)
        return Series(self.dim, trunc, q_terms)

    # -- norms --------------------------------------------------------------

    def majorant_norm(self, rho: Rational) -> Fraction:
        """Sum of |coefficient| * rho^degree over the stored terms."""
        rho = Fraction(rho)
        return sum((abs(c) * rho ** sum(e) for e, c in self.terms.items()),
                   Fraction(0))

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

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash",
                hash((self.dim, self.trunc, frozenset(self.terms.items()))))
        return self._hash

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            parts = []
            for e, c in self.sorted_terms()[:8]:
                mono = "*".join(
                    f"x{i + 1}^{p}" if p > 1 else f"x{i + 1}"
                    for i, p in enumerate(e) if p
                )
                parts.append(f"{c}" + (f"*{mono}" if mono else ""))
            body = " + ".join(parts)
            if len(self.terms) > 8:
                body += " + ..."
        return f"Series({body}; trunc={self.trunc})"


def _product_trunc(a: Series, b: Series) -> int:
    """Certified degree of a product: unknown tails are shifted by the
    partner's order."""
    candidates = []
    if not b.is_zero:
        candidates.append(a.trunc + b.order())
    if not a.is_zero:
        candidates.append(b.trunc + a.order())
    if not candidates:
        return max(a.trunc, b.trunc)
    return min(candidates)


def _divide_homogeneous(h: Series, g: Series, trunc: int) -> Series:
    """Single-divisor division of homogeneous h by homogeneous g; the
    remainder must vanish, otherwise its smallest monomial is the witness."""
    if h.is_zero:
        return Series(h.dim, trunc, {})
    lead_g = max(g.terms, key=grlex_key)
    cg = g.terms[lead_g]
    rem = dict(h.terms)
    q: dict[Exponent, Fraction] = {}
    stuck: dict[Exponent, Fraction] = {}
    while rem:
        m = max(rem, key=grlex_key)
        c = rem.pop(m)
        if not exp_le(lead_g, m):
            stuck[m] = c
            continue
        qe = exp_sub(m, lead_g)
        qc = c / cg
        q[qe] = q.get(qe, Fraction(0)) + qc
        for e, v in g.terms.items():
            if e == lead_g:
                continue
            t = exp_add(qe, e)
            nv = rem.get(t, Fraction(0)) - qc * v
            if nv == 0:
                rem.pop(t, None)
            else:
                rem[t] = nv
    stuck = {e: c for e, c in stuck.items() if c != 0}
    if stuck:
        witness = min(stuck, key=grlex_key)
        raise DivisibilityViolation(witness)
    return Series(h.dim, trunc, q)


def format_rational(c: Fraction) -> str:
    """Canonical "p/q" string with q > 0 and gcd(p, q) = 1."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# rational matrices and series matrices

def _det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
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


def gauss_jordan(a: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Reduce the augmented rows [A | B], with A of size n x n, in place and
    return the block right of A, which then holds A^-1 B.  Raises
    SingularMatrix when A is singular over Q."""
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


def invert_rational_matrix(m: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    """Exact inverse over Q; raises SingularMatrix when not invertible."""
    n = len(m)
    return gauss_jordan(
        [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)], n)


class SeriesMatrix:
    """Dense grid of Series sharing dim and trunc."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Series]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        dims = {s.dim for row in self.entries for s in row}
        if len(dims) > 1:
            raise DimensionMismatch("matrix entries disagree on dim")

    @property
    def dim(self) -> int:
        return self.entries[0][0].dim

    def entry(self, i: int, j: int) -> Series:
        return self.entries[i][j]

    def constant_part(self) -> list[list[Fraction]]:
        return [[s.constant_term() for s in row] for row in self.entries]

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return SeriesMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def apply(self, vec: Sequence[Series]) -> list[Series]:
        if self.cols != len(vec):
            raise DimensionMismatch("vector length does not match matrix")
        out = []
        for i in range(self.rows):
            acc = self.entries[i][0] * vec[0]
            for l in range(1, self.cols):
                acc = acc + self.entries[i][l] * vec[l]
            out.append(acc)
        return out

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols})"
