"""Exception types shared across the package.

Every error raised by the public API is a subclass of HypocertError, so
callers can catch one type at the boundary.  The CLI maps these to exit
code 1 (mathematical failure) while argparse/config problems map to 2.
"""


class HypocertError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(HypocertError, SyntaxError):
    """Raised when an expression string cannot be parsed.

    Subclasses the builtin SyntaxError so generic handlers work.

    Attributes
    ----------
    position : int
        0-based offset into the source string where parsing failed.
    column : int
        1-based column, position + 1 (expressions are single-line).
    expected : tuple of str
        Token categories that would have been accepted at that position.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position
        self.column = position + 1
        self.expected = tuple(sorted(expected))


class ExprDomainError(HypocertError):
    """Raised when expression evaluation leaves the real domain
    (division by zero, log of a nonpositive value, sqrt of a negative,
    fractional power of a negative base, or an unbound theta)."""


class UnknownIdentifier(HypocertError):
    """Raised when an expression references a name that is not a
    coordinate, 'theta', or a known function."""

    def __init__(self, name, position=None):
        super().__init__(f"unknown identifier {name!r}")
        self.name = name
        self.position = position


class ModelFileError(HypocertError):
    """Raised when a model definition file is missing sections or keys,
    or holds values that do not parse.  The CLI maps this to a usage
    error exit code."""


class MetricError(HypocertError):
    """Raised when a metric evaluation is not symmetric positive
    definite at a requested point."""


class NonpositiveWeight(HypocertError):
    """Raised when the equilibrium weight u = e^-E / sqrt(det g) fails
    to be positive, typically because det g <= 0 upstream."""


class DegenerateA(HypocertError):
    """Raised when the velocity-gradient form A is numerically singular
    at a scan point, making dominance ratios meaningless."""


class FDOrderError(HypocertError):
    """Raised when a finite-difference fallback is asked for a
    derivative order beyond what the stencils support."""


class InfeasibleRegion(HypocertError):
    """Raised by the certificate chooser when no valid coefficient
    region exists (negative curvature lower bound)."""


class InvalidCertificate(HypocertError):
    """Raised by the certificate validator; names the violated
    condition."""

    def __init__(self, condition, detail=""):
        msg = f"certificate condition violated: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.condition = condition


class CFLViolation(HypocertError):
    """Raised when the requested time step exceeds the MUSCL transport
    CFL limit dx / max|v|; the default step, exact in x, has none."""


class LinearSolveFailure(HypocertError):
    """Raised when the implicit diffusion factorization or solve fails."""


class InsufficientData(HypocertError):
    """Raised by rate fitting when too few usable samples remain in the
    fit window for a meaningful slope."""


class NonpositiveValues(HypocertError):
    """Raised by rate fitting when the series contains nonpositive
    values inside the fit window (log undefined), and by a solver run
    when a sampled density falls below zero."""
