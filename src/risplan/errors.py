"""Exception types shared across the package."""


class RisPlanError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RisPlanError):
    """A configuration or type invariant was violated."""


class ParseError(RisPlanError):
    """A config document could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateGeometry(RisPlanError):
    """A distance needed for link angles collapsed to zero."""


class SingularChannel(RisPlanError):
    """The effective channel Gram matrix is numerically singular."""


class DimensionMismatch(RisPlanError):
    """An array argument has an incompatible shape."""


class IndexOutOfRange(RisPlanError, IndexError):
    """A subcarrier index fell outside the configured subcarriers."""


class ObjectiveBoundExceeded(RisPlanError):
    """A placement objective exceeded its boundedness certificate."""


class IoError(RisPlanError):
    """A result file could not be written."""


class NumericalFault(RisPlanError):
    """A floating-point overflow, invalid operation or division by zero."""

