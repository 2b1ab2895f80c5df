"""Shared exception types."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A request would exceed an explicit size cap (grid cells, index count, ...).

    Raised instead of silently attempting huge allocations; the message names
    the requested size and the cap so callers can raise the cap deliberately.
    """


class ReductionError(RuntimeError):
    """A reduction run could not certify the requested error bound.

    Carries structured diagnostics: the failing step (if any) and the achieved
    versus required tolerances, so callers can report or retry deliberately.
    """

    def __init__(self, message: str, *, step=None, achieved=None, required=None):
        super().__init__(message)
        self.step = step
        self.achieved = achieved
        self.required = required
