"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError and DomainError -> 2,
DataError -> 3, NumericalError (including SeparationError) and any other
CrissCrossError -> 4.
"""


class CrissCrossError(Exception):
    """Base class for all package errors."""


class ConfigError(CrissCrossError):
    """Invalid configuration (bad JSON, unknown method, bad sweep spec)."""


class DomainError(CrissCrossError):
    """Parameter or argument outside its mathematical domain."""


class DataError(CrissCrossError):
    """Malformed or inconsistent data (CSV violations, empty datasets)."""


class NumericalError(CrissCrossError):
    """Numerical failure: non-convergence, singular system, quadrature failure."""


class SeparationError(NumericalError):
    """Logistic-type fit has no finite maximizer.

    ``direction`` is +1 when the estimate diverges to +inf, -1 for -inf,
    and 0 when the direction is not meaningful (e.g. degenerate stratum).
    """

    def __init__(self, message: str, direction: int = 0):
        super().__init__(message)
        self.direction = direction
