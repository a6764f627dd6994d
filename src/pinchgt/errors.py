"""Exception types shared across the library."""


class PinchError(Exception):
    """Base class for every error raised by this library."""


class NotSquare(PinchError):
    """Input grid is not a square matrix."""


class NotHermitian(PinchError):
    """Asymmetry of the input exceeds the Hermiticity tolerance."""


class NotFinite(PinchError):
    """Input contains NaN or infinite entries."""


class DimensionMismatch(PinchError):
    """Operands have incompatible dimensions."""


class ConvergenceFailure(PinchError):
    """The eigensolver failed or missed its residual contract."""


class DomainError(PinchError):
    """A function is not finite at an eigenvalue of the operand."""


class NotPositiveDefinite(PinchError):
    """Operand must be positive definite for this operation."""


class NotPSD(PinchError):
    """Operand must be positive semidefinite for this operation."""


class SizeOverflow(PinchError):
    """Requested object exceeds a size cap: a tensor-power dimension or the enumeration's terms."""


class MatrixFileError(PinchError):
    """A matrix document is unreadable or ill-formed; the message names the field."""
