"""Exception types shared across the package."""


class SubquantError(Exception):
    """Base class for all package-specific errors."""


class NonSquareError(SubquantError, ValueError):
    pass


class NotSymmetricError(SubquantError, ValueError):
    pass


class NoConvergenceError(SubquantError, ArithmeticError):
    """The eigensolver failed to converge."""


class ScaleRangeError(SubquantError, ArithmeticError):
    """A quantization group's range over- or underflows float64, so its
    scale is not a finite positive number."""


class NoSignalError(SubquantError, ValueError):
    """The combined covariance matrix is identically zero."""


class DimensionMismatchError(SubquantError, ValueError):
    pass


class FormatError(SubquantError, ValueError):
    """Base class for file-format violations."""


class BadMagicError(FormatError):
    pass


class HeaderMismatchError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class UnsupportedDtypeError(FormatError):
    pass
