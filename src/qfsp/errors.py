"""Exception hierarchy for qfsp."""


class QfspError(Exception):
    """Base class for all qfsp errors."""


class InvalidArgumentError(QfspError, ValueError):
    """Caller passed an argument outside the documented domain."""


class ParseError(QfspError, ValueError):
    """Malformed input file or JSON payload."""


class DegenerateFormError(QfspError):
    """A Gram matrix or hermitian form that must be definite is singular."""


class DegenerateInputError(QfspError):
    """Pivot selection failed; the offending vector is attached."""

    def __init__(self, message, vector=None):
        super().__init__(message)
        self.vector = vector


class SpectralSingularityError(QfspError):
    """An operator function was requested at a forbidden spectral point."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class GeometryError(QfspError):
    """Inputs do not form a valid projection pair, or rounding hides whether they do."""


class BoundaryError(QfspError):
    """Spectrum touches {0, 1} where an interior point is required."""


class NotAProjectionError(QfspError):
    """A basis projection was required; caller must purify (double) first."""


class TruncationError(QfspError):
    """The configured particle cutoff is too small for the request."""


class InconclusiveError(QfspError):
    """A numerical estimate is too ill-conditioned to certify."""


class InternalConsistencyError(QfspError):
    """A relation that holds in exact arithmetic failed numerically."""
