"""Exception types shared across the package."""


class TrireduceError(Exception):
    """Base class for all package-specific errors."""


class DegenerateShape(TrireduceError):
    """Shape is degenerate (|s1| = 0 or r2 = 0): the body frame or the
    angle phi is undefined."""

    @classmethod
    def from_r1(cls, r1):
        """The error of a degenerate state of measured r1: r1 = 0, else r2 = 0."""
        return cls("|s1| = 0: body frame undefined" if r1 == 0.0 else "r2 = 0: phi undefined")


class SingularInertia(TrireduceError):
    """The inertia tensor is singular, at r2 = 0 (where the horizontal metric
    is too), at |sin phi| at or below threshold, or where a divisor of the
    inverse underflows to 0; no inverse exists."""


class NumericalBlowup(TrireduceError):
    """A computed quantity overflowed: coordinates beyond the overflow guard
    during integration, or a Jacobi vector, H or an energy that is not
    finite.  The message names the quantity."""


class PotentialSyntaxError(TrireduceError):
    """Malformed potential expression."""

    def __init__(self, position, expected):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at offset {position}: expected {expected}")


class UnknownIdentifier(TrireduceError):
    """Identifier in a potential expression is not a known variable,
    constant or function."""

    def __init__(self, name, position):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier '{name}' at offset {position}")


class DomainError(TrireduceError):
    """Potential evaluation left the domain of an operation (division by
    zero, log/sqrt of a negative number, ...)."""

    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"domain error in '{node}' at value {value!r}")


class ConfigError(TrireduceError):
    """Invalid run configuration.  ``field`` is the offending field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
