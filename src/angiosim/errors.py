"""Exception hierarchy shared across the package.

Two branches: configuration problems (bad user input, exit code 2 in the
CLI) and solver problems (numerical failure at runtime, exit code 1).
"""


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending key."""


class DomainConfigError(ConfigError):
    """Domain geometry rejected (non-positive length, too few nodes)."""


class SolverError(RuntimeError):
    """Base class for numerical failures."""


class SpectralShiftError(SolverError):
    """A matrix that must be positive definite is not: a time-step block
    that dpttrf refuses, or the v block of an auto-dt step (dynamics)."""


class PositivityError(SolverError):
    """A density went negative beyond tolerance after a time step;
    the step size is too large for the current state."""

    def __init__(self, message: str, t: float | None = None,
                 min_value: float | None = None):
        super().__init__(message)
        self.t = t
        self.min_value = min_value


class BelowThresholdError(SolverError):
    """No positive steady profile exists for the requested flux strength
    (it is at or below the threshold); distinct from a solver failure."""


class SensitivityHypothesisError(SolverError):
    """Sensitivity function violates the basic positivity hypothesis
    on the sampled range."""


class CannotFitError(SolverError):
    """Decay-rate fit impossible: too few usable samples in the window
    (typically the quantity already converged below the floor)."""
