"""Exception hierarchy for sirspa."""


class SirspaError(Exception):
    """Base class for all sirspa errors."""


class StripViolation(SirspaError):
    """Evaluation point lies outside the open convergence strip of an MGF."""


class InvalidScenario(SirspaError):
    """Scenario fails validation (empty interferer list, nonpositive threshold, ...)."""


class NoSaddleInStrip(SirspaError):
    """K'(t) = x has no solution inside the convergence strip."""


class DivergedSolver(SirspaError):
    """Newton iteration hit the iteration budget without meeting tolerance."""


class QuadratureNotConverged(SirspaError):
    """Adaptive quadrature exceeded its panel budget with the error estimate above tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class UnsupportedScenario(SirspaError):
    """Closed-form evaluation requested for a family combination it does not cover."""


class ConfigError(SirspaError):
    """Run configuration is invalid; message names the offending field."""
