"""Exception types shared across the package."""


class KKTSpectraError(Exception):
    """Base class for all package errors."""


class InputDataError(KKTSpectraError):
    """Raised when user-supplied data fails validation.

    Examples: non-symmetric matrix payloads, dimension mismatches,
    points that do not certify as KKT points within tolerance.
    """


class NumericError(KKTSpectraError):
    """Raised when a numeric kernel cannot certify its result.

    Examples: eigen-iteration not converged within the sweep budget,
    inconsistent LP feasibility diagnostics.
    """


class ConvergenceError(KKTSpectraError):
    """Raised when an iterative solver stagnates.

    Carries the best iterate found so the caller can inspect or
    report it instead of losing the work.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual

