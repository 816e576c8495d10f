"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""


class PegicaError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientDataError(PegicaError, ValueError):
    """Too few samples to run an estimator (e.g. fewer than 2 rows)."""


class DimensionMismatchError(PegicaError, ValueError):
    """Shapes of the supplied operands are inconsistent."""


class NumericalConsistencyError(PegicaError):
    """A quantity that must be real (or otherwise structured) is not,
    beyond what floating-point noise can explain."""


class ModelConstructionError(PegicaError, ValueError):
    """A ground-truth model violates its own constraints (e.g. the noise
    covariance is not positive semidefinite)."""


class DegenerateDirectionError(PegicaError):
    """The fixed-point update hit a direction with (numerically) zero
    gradient; the caller should restart from a fresh random direction."""


class IllConditionedRowError(PegicaError):
    """The normalizing denominator in the pseudoinverse-row formula is too
    close to zero for the row estimate to be trusted."""


class ConvergenceError(PegicaError):
    """The fixed-point iteration exhausted its iteration budget or locked
    into a period-2 cycle.

    Carries the :class:`~pegica.recovery.ConvergenceTrace` accumulated so
    far in ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class PartialRecoveryError(PegicaError):
    """Full-matrix recovery gave up after the restart budget.

    ``estimate`` holds the columns recovered before the failure.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class MatrixFormatError(PegicaError, ValueError):
    """A matrix/table file does not follow the documented CSV format."""

