"""Shared exception types, and the checks that refuse an unindexable size or a repeated value."""

import numpy as np


class DomainError(ValueError):
    """Inputs outside the mathematical domain of an operation, or shapes that do not fit."""


class FlowAbort(DomainError):
    """Integration aborted: m or v stopped being finite, or v crossed zero (the domain is v > 0).

    Carries the abort time so callers can diagnose which signal violated the
    positive-gradient-floor assumption.
    """

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(message)


def require_indexable(count, item_bytes: int, what: str) -> None:
    """A ``DomainError`` saying ``what`` unless ``count`` items of ``item_bytes`` bytes each stay
    below numpy's index limit, checked where an array is sized so that nothing is allocated
    first; a NaN or infinite count is refused too."""
    if not count < np.iinfo(np.intp).max // item_bytes:
        raise DomainError(f"{what}, more than numpy can index")


def require_distinct(values: list, what: str) -> None:
    """A ``DomainError`` naming the first of ``values`` that repeats: a repeated seed or beta
    would count one run as two."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise DomainError(f"{what} repeats {value!r}")
