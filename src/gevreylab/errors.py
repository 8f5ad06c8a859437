"""Exception hierarchy shared by all gevreylab modules."""


class GevreyLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GevreyLabError):
    """Two values live in different ambient dimensions."""


class DivisibilityViolation(GevreyLabError):
    """Exact division failed; carries the lowest-degree failing monomial."""

    def __init__(self, monomial, message=None):
        self.monomial = tuple(monomial)
        super().__init__(message or f"not divisible at monomial {self.monomial}")


class SingularMatrix(GevreyLabError):
    """A rational matrix expected to be invertible is singular."""


class SingularLinearPart(GevreyLabError):
    """The constant linear part of a system is singular over the rationals."""


class PoincareViolation(GevreyLabError):
    """The order-n characteristic matrix is singular."""

    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"characteristic matrix singular at order n={n}")


class TruncationTooSmall(GevreyLabError):
    """A recursion step would need data beyond the certified degree."""


class ResidualCheckFailed(GevreyLabError, ArithmeticError):
    """A solution failed its own residual check: an internal fault."""


class EmptyTermSet(GevreyLabError):
    """A lifted equation has no linear term to take a maximum over."""


class InsufficientData(GevreyLabError):
    """Not enough norm data points for the requested estimation window."""


class NonPositiveNorm(GevreyLabError):
    """A norm expected to be strictly positive vanishes on the window."""


class InconclusiveBound(GevreyLabError):
    """No finite bound n* can be derived; only a partial check is possible."""


class ParseError(GevreyLabError):
    """Syntax error in a problem document."""

    def __init__(self, line, column, expected, message=None):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.code = "parse"
        super().__init__(
            message
            or f"line {line}, column {column}: expected one of {', '.join(self.expected)}"
        )


class SemanticError(GevreyLabError):
    """Well-formed but meaningless problem document."""

    def __init__(self, line, code, message):
        self.line = line
        self.code = code
        super().__init__(f"line {line}: {message}")


class InputError(GevreyLabError):
    """A command-line input other than the problem text is unusable (an
    unreadable file, a malformed norms table, an unknown example, a bad
    parameter), or the problem lacks what the requested stage needs."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class RegressionMismatch(GevreyLabError):
    """A registry run differs from its stored expected values."""

    def __init__(self, name, detail):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}")
