"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates its documented domain (e.g. capacity exponent <= 1)."""


class SolverError(RuntimeError):
    """Base class for numerical-solver failures."""


class NonConvergenceError(SolverError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateDenominatorError(SolverError):
    """The closed-form error denominator is non-positive (parameters outside validity)."""


class NegativeExcessError(SolverError):
    """A fixed-point solution produced a meaningfully negative excess error."""


class SingularSystemError(SolverError):
    """A linear system stayed singular beyond the configured jitter."""


class DegenerateWindowError(ValueError):
    """A slope-fit window has too few usable points."""


class DegenerateRangeError(ValueError):
    """A tail-fit index range has too few usable points."""


class IndefiniteMatrixError(ValueError):
    """A matrix required to be positive semi-definite has significantly negative eigenvalues."""


class SchemaError(ValueError):
    """An input file does not match the expected schema."""
