"""Exception types shared across the toolkit, and the reason codes with
which grid evaluation records why it masks or skips a point."""
from __future__ import annotations

SINGULAR, BELOW_THRESHOLD, OVERFLOW = 1, 2, 3
MASK_REASONS = {SINGULAR: "singular", BELOW_THRESHOLD: "norm_sq below threshold", OVERFLOW: "overflow"}


class ParseError(ValueError):
    """Raised on malformed expression text.

    Carries the character position (0-based) where parsing failed.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SingularPointError(ArithmeticError):
    """Raised when an evaluation lands on (or too close to) an excluded point.

    Grid drivers catch this and record the point as masked instead of
    letting inf/nan leak into reports.
    """


class InconclusiveError(RuntimeError):
    """Raised when too few sample points survive masking to support a verdict."""
