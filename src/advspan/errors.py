"""Exception types raised across the package: one per `advspan verify`
outcome other than a pass, each a subclass of AdvspanError."""


class AdvspanError(Exception):
    """Base class for all package errors."""


class BadSpecError(AdvspanError):
    """Bad input (exit 2): an unparseable or constant boolean function, a
    coordinate or arity out of range, a bad parameter, or an export path
    that cannot be written."""


class NoConvergenceError(AdvspanError):
    """The SDP solver stopped before reaching tolerance (exit 3)."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(message)
        self.residuals = residuals


class CheckError(AdvspanError):
    """A check failed hard (exit 1): a matrix, factorization, witness or
    spectral resolution misses the condition the next step relies on."""
