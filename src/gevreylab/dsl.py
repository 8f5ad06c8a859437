"""Problem-description language.

A document is line-oriented:

    dim 2; unknowns 1; order 2
    P = x1*x2
    L 2 : (2,0) -> x1^2; (0,2) -> x2^2; (1,1) -> 2
    F 1 = 2*y1 + 2*x1*x2
    option degree = 12

Polynomial expressions allow rational literals (p/q), the variables
x1..xd and y1..yN (the latter only in F lines), + - * ^ and parentheses;
``dim`` comes before any expression and ``unknowns`` before any F line.
Omitted L lines mean the zero operator at that order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partialmethod

from .diffops import DiffOperator
from .errors import InputError, ParseError, SemanticError
from .series import (INFINITE, Series, SeriesMatrix, format_monomial,
                     format_rational, format_terms, grlex_key, unit_exp)
from .solver import ProblemSpec, Run

_TOKEN = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<sym>[=:;,()+\-*^/])
  | (?P<ws>[ \t]+)
  | (?P<bad>.)
""", re.VERBOSE)

_KEYWORDS = {"dim", "unknowns", "order", "P", "L", "F", "option"}

_VARIABLE = re.compile(r"([xy])(\d+)")

# the deepest parentheses may nest: each level costs the parser a few stack
# frames, and a deeper one would end in a RecursionError
MAX_NESTING = 100

DEFAULT_OPTIONS = {
    "degree": 10,
    "order": 10,
    "rho": Fraction(1, 2),
    "window": Fraction(1, 2),
}


def _option_value(name: str, value) -> int | Fraction:
    """``value`` (a rational, or its p/q text) as run option ``name`` takes
    it: degree and order are non-negative integers, rho is positive and
    window lies in (0, 1].  The ValueError says what the value must be."""
    try:
        value = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError("is not a rational p/q") from None
    if name in ("degree", "order"):
        if value.denominator != 1 or value < 0:
            raise ValueError("must be a non-negative integer")
        return int(value)
    if name == "rho" and value <= 0:
        raise ValueError("must be positive")
    if name == "window" and not 0 < value <= 1:
        raise ValueError("must be in (0, 1]")
    return value


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _TOKEN.finditer(body):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "bad":
                raise ParseError(lineno, m.start() + 1,
                                 ("number", "name", "operator"),
                                 f"line {lineno}, column {m.start() + 1}: "
                                 f"unexpected character {m.group()!r}")
            out.append(_Token(kind if kind != "sym" else m.group(),
                              m.group(), lineno, m.start() + 1))
        out.append(_Token("newline", "\n", lineno, len(body) + 1))
    out.append(_Token("eof", "", len(text.splitlines()) + 1, 1))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = None
        self.unknowns = None
        self.order = None
        self.nvars = None  # of the expression being parsed
        self.nesting = 0  # of the parentheses open at the current token
        self.P: Series | None = None
        self.P_line = 0
        self.L_terms: dict[int, dict[tuple[int, ...], Series]] = {}
        self.L_lines: dict[int, int] = {}
        self.F: dict[int, Series] = {}
        self.F_lines: dict[int, int] = {}
        self.options: dict = dict(DEFAULT_OPTIONS)

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, *kinds) -> _Token:
        tok = self.peek()
        if tok.kind not in kinds:
            raise ParseError(tok.line, tok.col, kinds)
        return self.next()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    def end_statement(self):
        tok = self.peek()
        if tok.kind in ("newline", ";", "eof"):
            if tok.kind != "eof":
                self.next()
            return
        raise ParseError(tok.line, tok.col, ("newline", ";"))

    # -- statements ----------------------------------------------------------

    def parse(self) -> None:
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "name" or tok.text not in _KEYWORDS:
                raise ParseError(tok.line, tok.col, sorted(_KEYWORDS))
            getattr(self, "stmt_" + tok.text)()

    def _int(self) -> int:
        return int(self.expect("num").text)

    def _stmt_size(self, field: str, code: str):
        """``dim N``, ``unknowns N`` or ``order N``, with N >= 1."""
        self.next()
        value = self._int()
        if value < 1:
            raise SemanticError(self.tokens[self.pos - 1].line, code,
                                f"{field} must be >= 1")
        setattr(self, field, value)
        self.end_statement()

    stmt_dim = partialmethod(_stmt_size, "dim", "bad-dim")
    stmt_unknowns = partialmethod(_stmt_size, "unknowns", "bad-dim")
    stmt_order = partialmethod(_stmt_size, "order", "bad-order")

    def stmt_P(self):
        tok = self.next()
        self.expect("=")
        self.P_line = tok.line
        self.P = self.polyexpr(allow_y=False)
        self.end_statement()

    def stmt_L(self):
        tok = self.next()
        j = self._int()
        if self.order is not None and not 1 <= j <= self.order:
            raise SemanticError(tok.line, "order-range",
                                f"L {j} outside 1..{self.order}")
        self.expect(":")
        self.L_lines.setdefault(j, tok.line)
        terms = self.L_terms.setdefault(j, {})
        while True:
            alpha_tok = self.peek()
            alpha = self.alpha_tuple()
            if sum(alpha) != j:
                raise SemanticError(alpha_tok.line, "alpha-order",
                                    f"|{alpha}| = {sum(alpha)} != {j}")
            if alpha in terms:
                raise SemanticError(alpha_tok.line, "dup-alpha",
                                    f"duplicate index {alpha} for L {j}")
            self.expect("arrow")
            terms[alpha] = self.polyexpr(allow_y=False)
            if self.peek().kind == ";" and self.tokens[self.pos + 1].kind == "(":
                self.next()
                continue
            break
        self.end_statement()

    def stmt_F(self):
        tok = self.next()
        i = self._int()
        if self.unknowns is not None and not 1 <= i <= self.unknowns:
            raise SemanticError(tok.line, "component-range",
                                f"F {i} outside 1..{self.unknowns}")
        if i in self.F:
            raise SemanticError(tok.line, "dup-component",
                                f"duplicate line for F {i}")
        self.expect("=")
        self.F_lines[i] = tok.line
        self.F[i] = self.polyexpr(allow_y=True)
        self.end_statement()

    def stmt_option(self):
        self.next()
        name_tok = self.expect("name")
        self.expect("=")
        value = self.rational()
        name = name_tok.text
        if name not in DEFAULT_OPTIONS:
            raise SemanticError(name_tok.line, "unknown-option",
                                f"unknown option {name!r}")
        try:
            self.options[name] = _option_value(name, value)
        except ValueError as exc:
            raise SemanticError(name_tok.line, "bad-option",
                                f"option {name} {exc}") from None
        self.end_statement()

    # -- expressions ---------------------------------------------------------

    def alpha_tuple(self) -> tuple[int, ...]:
        self.expect("(")
        out = [self._int()]
        while self.peek().kind == ",":
            self.next()
            if self.peek().kind == ")":  # tolerate a trailing comma
                break
            out.append(self._int())
        tok = self.expect(")")
        if self.dim is not None and len(out) != self.dim:
            raise SemanticError(tok.line, "bad-dim",
                                f"index has {len(out)} entries, dim is {self.dim}")
        return tuple(out)

    def rational(self) -> Fraction:
        sign = 1
        while self.peek().kind == "-":
            self.next()
            sign = -sign
        num = int(self.expect("num").text)
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("num").text)
            if den == 0:
                tok = self.tokens[self.pos - 1]
                raise SemanticError(tok.line, "zero-denominator",
                                    "denominator must be nonzero")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def polyexpr(self, allow_y: bool) -> Series:
        """An exact polynomial: a Series in x1..xd, then y1..yN when
        ``allow_y``, certified to every degree."""
        tok = self.peek()
        if self.dim is None:
            raise SemanticError(tok.line, "bad-dim",
                                "dim must be declared before any expression")
        if allow_y and self.unknowns is None:
            raise SemanticError(tok.line, "bad-dim",
                                "unknowns must be declared before an F line")
        self.nvars = self.dim + (self.unknowns if allow_y else 0)
        return self._sum()

    def _sum(self) -> Series:
        out = self._product()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self._product()
            out = out + rhs if op == "+" else out - rhs
        return out

    def _product(self) -> Series:
        out = self._power()
        if self.peek().kind in ("num", "name", "("):
            # implicit multiplication is not in the grammar; require '*'
            tok = self.peek()
            raise ParseError(tok.line, tok.col, ("*", "+", "-", "^", "newline"))
        while self.peek().kind == "*":
            self.next()
            out = out * self._power()
            tok = self.peek()
            if tok.kind in ("num", "name", "("):
                raise ParseError(tok.line, tok.col, ("*", "+", "-", "newline"))
        return out

    def _power(self) -> Series:
        """[-]... atom [^n]: a run of signs read in a loop, not a call per
        sign; each sign negates the power after it and lets one more "^"
        follow (-x1^2^3 is (-(x1^2))^3)."""
        signs = 0
        while self.peek().kind == "-":
            self.next()
            signs += 1
        out = self._atom()
        for level in range(signs, -1, -1):
            if self.peek().kind == "^":
                self.next()
                out = out.pow(self._int())
            if level:
                out = -out
        return out

    def _atom(self) -> Series:
        tok = self.peek()
        if tok.kind == "num":
            # a literal is an int or a Fraction: no constructor checks
            return Series._of(self.nvars, INFINITE,
                              (((0,) * self.nvars, self.rational()),))
        if tok.kind == "name":
            self.next()
            return self._variable(tok)
        if tok.kind == "(":
            if self.nesting == MAX_NESTING:
                raise SemanticError(tok.line, "nesting",
                                    f"column {tok.col}: parentheses nest "
                                    f"deeper than {MAX_NESTING}")
            self.next()
            self.nesting += 1
            inner = self._sum()
            self.expect(")")
            self.nesting -= 1
            return inner
        raise ParseError(tok.line, tok.col, ("number", "variable", "("))

    def _variable(self, tok: _Token) -> Series:
        m = _VARIABLE.fullmatch(tok.text)
        if not m:
            raise ParseError(tok.line, tok.col, ("x<i>", "y<i>"))
        kind, idx = m.group(1), int(m.group(2))
        d = self.dim
        if kind == "x":
            if not 1 <= idx <= d:
                raise SemanticError(tok.line, "unknown-var",
                                    f"x{idx} outside x1..x{d}")
            return self._unit(idx - 1)
        if self.nvars == d:
            raise SemanticError(tok.line, "y-in-coefficient",
                                "y variables are only allowed in F lines")
        N = self.unknowns
        if not 1 <= idx <= N:
            raise SemanticError(tok.line, "unknown-var",
                                f"y{idx} outside y1..y{N}")
        return self._unit(d + idx - 1)

    def _unit(self, j: int) -> Series:
        """The exact variable of 0-based index j among the nvars."""
        return Series._of(self.nvars, INFINITE,
                          ((unit_exp(self.nvars, j), 1),))


class ProblemDocument:
    """A parsed problem file: the ProblemSpec plus run options."""

    __slots__ = ("raw", "spec", "options")

    def __init__(self, raw: str, spec: ProblemSpec, options: dict):
        self.raw = raw
        self.spec = spec
        self.options = options

    def run(self, degree=None, order=None, rho=None) -> Run:
        """The pipeline run at this document's degree, order, rho and window,
        each of the first three overridden when given.  An override obeys
        the rule of an ``option`` line and raises InputError "bad-option"
        when it breaks it; the document's options stay as they are."""
        o = dict(self.options)
        for name, value in (("degree", degree), ("order", order), ("rho", rho)):
            if value is None:
                continue
            try:
                o[name] = _option_value(name, value)
            except ValueError as exc:
                shown = f" {value!r}" if isinstance(value, str) else ""
                raise InputError("bad-option",
                                 f"--{name}{shown} {exc}") from None
        return Run(self.spec, o["degree"], o["order"], o["rho"], o["window"])

    def serialize(self) -> str:
        """Canonical text form; re-parsing yields an identical ProblemSpec."""
        spec = self.spec
        d, N = spec.dim, spec.unknowns
        lines = [f"dim {d}; unknowns {N}; order {spec.order}"]
        lines.append(f"P = {spec.P}")
        for pos, L in enumerate(spec.operators):
            if L is None or L.is_zero:
                continue
            parts = [f"({','.join(map(str, a))}) -> {c}"
                     for a, c in L.sorted_terms()]
            lines.append(f"L {pos + 1} : " + "; ".join(parts))
        for i in range(N):
            lines.append(f"F {i + 1} = {_format_F(spec, i)}")
        for name in ("degree", "order", "rho", "window"):
            value = self.options[name]
            if value != DEFAULT_OPTIONS[name]:
                lines.append(f"option {name} = {format_rational(value)}")
        return "\n".join(lines) + "\n"


def _format_F(spec: ProblemSpec, i: int) -> str:
    # f, the columns of A and H hold distinct y-monomials and no zeros
    N = spec.unknowns
    parts = [((0,) * N, spec.f[i])]
    parts += [(unit_exp(N, col), spec.A.entry(i, col)) for col in range(N)]
    parts += [(gamma, vec[i]) for gamma, vec in spec.H.items()]
    ordered = sorted(((xe, ye, c) for ye, s in parts for xe, c in s.terms.items()),
                     key=lambda t: (grlex_key(t[1]), grlex_key(t[0])))
    return format_terms(
        ("*".join(filter(None, (format_monomial(xe), format_monomial(ye, "y")))),
         c) for xe, ye, c in ordered)


def parse_problem(text: str) -> ProblemDocument:
    """Parse a problem document into a ProblemSpec plus options."""
    parser = _Parser(text)
    parser.parse()
    for field in ("dim", "unknowns", "order"):
        if getattr(parser, field) is None:
            tok = parser.peek()
            raise SemanticError(tok.line, "missing",
                                f"document never declares {field}")
    d, N, k = parser.dim, parser.unknowns, parser.order
    if parser.P is None:
        raise SemanticError(parser.peek().line, "missing", "no P line")
    # every expression with its line and its number of variables
    exprs = [(parser.P, parser.P_line, d)]
    exprs += [(c, parser.L_lines[j], d)
              for j, terms in parser.L_terms.items() for c in terms.values()]
    exprs += [(s, parser.F_lines[i], d + N) for i, s in parser.F.items()]
    for s, line, nvars in exprs:
        if s.dim != nvars:
            raise SemanticError(line, "bad-dim", "wrong arity")
    # exact polynomials (trunc INFINITE), whatever option degree says
    P = parser.P
    if P.is_zero:
        raise SemanticError(parser.P_line, "P-zero", "P must be nonzero")
    if P.constant_term() != 0:
        raise SemanticError(parser.P_line, "P-constant",
                            "P(0) must vanish")
    operators: list[DiffOperator | None] = []
    for j in range(1, k + 1):
        # a document's coefficients are exact polynomials, so a zero one is
        # absent and an operator without a nonzero one is exactly zero
        coeffs = {a: c for a, c in parser.L_terms.get(j, {}).items()
                  if not c.is_zero}
        operators.append(DiffOperator(d, j, coeffs) if coeffs else None)
    for j in parser.L_terms:
        if j > k:
            raise SemanticError(parser.L_lines[j], "order-range",
                                f"L {j} outside 1..{k}")
    # F i by the y-part of each exponent
    zero = Series.zero(d, INFINITE)
    f = [zero] * N
    A_entries = [[zero] * N for _ in range(N)]
    H: dict[tuple[int, ...], list[Series]] = {}
    for i, Fi in sorted(parser.F.items()):
        if Fi.constant_term() != 0:
            raise SemanticError(parser.F_lines[i], "F-constant",
                                f"F {i} has a constant term: F(0,0) != 0")
        parts: dict[tuple[int, ...], dict] = {}
        for e, c in Fi.terms.items():
            parts.setdefault(e[d:], {})[e[:d]] = c
        for ye, terms in parts.items():
            s = Series(d, INFINITE, terms)
            if sum(ye) == 0:
                f[i - 1] = s
            elif sum(ye) == 1:
                A_entries[i - 1][ye.index(1)] = s
            else:
                H.setdefault(ye, [zero] * N)[i - 1] = s
    spec = ProblemSpec(d, N, k, P, operators, f, SeriesMatrix(A_entries), H)
    return ProblemDocument(text, spec, parser.options)
