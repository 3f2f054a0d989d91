"""Exception hierarchy shared across the package."""


class KoopstabError(Exception):
    """Base class for all package errors."""


class DimensionError(KoopstabError, ValueError):
    """Array shapes are incompatible with the requested operation."""


class ContractError(KoopstabError, ValueError):
    """A documented precondition was violated by the caller."""


class SingularMatrixError(KoopstabError):
    """Matrix inversion refused: singular or too ill-conditioned.

    Carries the infinity-norm condition estimate (``inf`` when the
    factorization failed outright).
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class NumericError(KoopstabError):
    """A numeric computation produced NaN/Inf or failed to converge."""


class DataError(KoopstabError):
    """Input data violates the documented schema or invariants."""


class ParseError(DataError):
    """Malformed input file; records file and line (None: the whole file)."""

    def __init__(self, message: str, path: str = "", line: int | None = None):
        if path and line is not None:
            message = f"{path}:{line}: {message}"
        elif path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class DegenerateDataError(DataError):
    """Data is formally valid but degenerate for the requested computation."""


class ConfigError(KoopstabError):
    """Invalid run configuration (unknown key, bad value, missing field)."""
