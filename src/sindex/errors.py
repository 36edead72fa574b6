"""Exception types shared across the package.

ConfigError and its subclasses signal bad caller input (CLI exit code 2);
NumericalError and its subclasses signal estimation failures (exit code 3).
"""


class SindexError(Exception):
    """Base class for all package errors."""


class ConfigError(SindexError):
    """Invalid configuration, scheme, or option value."""


class DataError(ConfigError):
    """Malformed input data (CSV schema or parse failure)."""


class InvalidDesignError(ConfigError):
    """Covariance matrix is not symmetric positive definite."""


class SplitError(ConfigError):
    """Data split would leave an empty part."""


class NumericalError(SindexError):
    """Numerical failure during estimation."""


class GenerationError(NumericalError):
    """Response generation produced non-finite values."""


class SolverError(NumericalError):
    """A linear or Newton solve failed."""


class NonIdentifiableError(NumericalError):
    """Least-squares system is rank deficient or has p >= n."""


class RankError(NumericalError):
    """Weighted Gram matrix is singular at lambda = 0."""


class NonexistenceError(NumericalError):
    """MLE does not exist (e.g. separated logistic data)."""


class DegenerateError(NumericalError):
    """An observable adjustment or inferential scale degenerated to zero."""


class KernelOverflowError(NumericalError):
    """Deconvolution kernel integrand overflows (noise scale too large for h)."""


class BandwidthConstraintError(NumericalError):
    """Theory bandwidth constant violates the stability constraint."""


class EmptyEstimateError(NumericalError):
    """Every grid point of the link estimate was masked invalid."""


class ObjectiveOverflowError(NumericalError):
    """Surrogate objective evaluated to a non-finite value."""


class NonConvergenceError(NumericalError):
    """Newton iterations exhausted without meeting the gradient tolerance.

    Carries solver diagnostics so callers can inspect the partial fit.
    """

    def __init__(self, message, iterations=None, grad_norm=None, beta=None):
        super().__init__(message)
        self.iterations = iterations
        self.grad_norm = grad_norm
        self.beta = beta


class PipelineError(SindexError):
    """Wraps a component error with the pipeline stage that raised it."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # The default reduction passes only the message to __init__.
        return (type(self), (self.stage, self.cause))
