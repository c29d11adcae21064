"""Exception types raised across the package."""


class AdvspanError(Exception):
    """Base class for all package errors."""


class NonHermitianError(AdvspanError):
    """Matrix violates the Hermitian symmetry tolerance."""


class DimensionMismatchError(AdvspanError):
    """Operands have incompatible shapes."""


class NotPSDError(AdvspanError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class BadSpecError(AdvspanError):
    """Unparseable boolean-function specification, a bad verify parameter, or an
    export path that cannot be written."""


class IndexOutOfRangeError(AdvspanError):
    """Coordinate index outside 1..n."""


class ArityTooLargeError(AdvspanError):
    """Function arity exceeds what exhaustive search supports."""


class FormulaMismatchError(AdvspanError):
    """Formula does not compute the given function."""


class ConstantFunctionError(AdvspanError):
    """Adversary quantities are undefined for constant functions."""


class NoConvergenceError(AdvspanError):
    """SDP solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals


class DegenerateDualError(AdvspanError):
    """A dual multiplier needed for the certificate substitution vanished."""


class ZeroMatrixError(AdvspanError):
    """Adversary ratio is undefined for the zero matrix."""


class PatternViolationError(AdvspanError):
    """Matrix has support on a pair of inputs with equal function value."""


class GramFailureError(AdvspanError):
    """Gram factorization failed to reproduce the solution matrix."""


class WitnessViolationError(AdvspanError):
    """Constructed kernel witness misses its residual tolerance."""


class WrongBranchError(AdvspanError):
    """Spectral-gap profile requested on the wrong branch of f."""


class NoNullWitnessError(AdvspanError):
    """Null space carries no component of the anchor vector."""


class NotNormalizedError(AdvspanError):
    """Spectral overlaps do not sum to one."""


class AlgorithmTooWeakError(AdvspanError):
    """Query algorithm errs with probability above 1/3 on some input."""
