"""Shared exception types."""


class DimensionError(ValueError):
    """Structural mismatch between array shapes (state vs gradient, grids, ...)."""


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation."""


class FlowAbort(DomainError, RuntimeError):
    """Integration aborted: the second moment crossed zero, leaving the flow's domain v > 0.

    Carries the abort time so callers can diagnose which signal violated the
    positive-gradient-floor assumption.
    """

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(message)

