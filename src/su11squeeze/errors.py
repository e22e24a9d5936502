"""Exception types shared across the package."""


class ProfileDomainError(ValueError):
    """A frequency sample is non-positive, so the log-frequency ratio is undefined."""

    def __init__(self, message, step=None, omega=None):
        super().__init__(message)
        self.step = step
        self.omega = omega


class TableRangeError(ValueError):
    """Evaluation time falls outside the tabulated range."""


class SingularCompositionError(ArithmeticError):
    """The composition denominator 1 - alpha*lam_minus is numerically degenerate."""

    def __init__(self, message, step=None, omega=None):
        super().__init__(message)
        self.step = step
        self.omega = omega


class ContinuedFractionError(ArithmeticError):
    """The nested-fraction form hit a vanishing term; fall back to the recurrence."""


class InvalidAccumulatorError(ValueError):
    """The fold overflowed double precision."""


class LeakageError(RuntimeError):
    """Too much population reached the truncation boundary; enlarge the basis."""

    def __init__(self, message, leakage):
        super().__init__(message)
        self.leakage = leakage


class ConfigError(ValueError):
    """Invalid experiment configuration."""
