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


class SweepAbort(DomainError):
    """No row of a sweep's omega grids can be scored.

    Carries the sweep's traces by ``(beta1, beta2, seed)`` cell, so callers
    can still report which cells diverged and at which step.
    """

    def __init__(self, traces: dict, message: str):
        self.traces = traces
        super().__init__(message)
