"""Exception types shared across the package."""


class CarlemanError(Exception):
    """Base class for structured errors raised by this package."""


class ArityError(CarlemanError):
    """Operands disagree on variable count or dimension."""


class ZeroPolynomialError(CarlemanError):
    """An operation that needs a nonzero polynomial received the zero one."""


class SourceSpan:
    """Byte range inside the parsed text, with 1-based line/column."""

    __slots__ = ("start", "end", "line", "column")

    def __init__(self, start: int, end: int, line: int, column: int):
        self.start = start
        self.end = end
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"SourceSpan({self.start}:{self.end}, line {self.line}, col {self.column})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return (self.start, self.end, self.line, self.column) == (
            other.start, other.end, other.line, other.column)


class ParseError(CarlemanError):
    """Syntax or validation error in DSL input; always carries a SourceSpan."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        base = super().__str__()
        return f"line {self.span.line}, column {self.span.column}: {base}"


class NonPolynomialError(ParseError):
    """The input uses a construct outside polynomial arithmetic (division)."""


class NotShiftedError(CarlemanError):
    """The system still has a nonzero constant term where none is allowed."""


class ShiftNotFoundError(CarlemanError):
    """No usable fixed point could be found or verified; trail holds the
    candidates tried, each with its admissibility outcome."""

    def __init__(self, message: str, trail=()):
        super().__init__(message)
        self.trail = tuple(trail)


class TriangularizationError(CarlemanError):
    """The linear part could not be brought to upper-triangular form."""


class RepeatedEigenvalueError(CarlemanError):
    """Eigenvalue products collide; the truncated matrix is not diagonalizable."""

    def __init__(self, message: str, collisions=()):
        super().__init__(message)
        self.collisions = tuple(collisions)


class SingularMatrixError(CarlemanError):
    """A matrix that must be invertible is singular."""


class SizeLimitError(CarlemanError):
    """A requested computation exceeds the configured size guard."""
