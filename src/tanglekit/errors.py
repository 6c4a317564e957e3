"""Shared exception types.

Input-side problems (bad syntax, out-of-range slots, violated word
conditions) raise ValueError subclasses and map to exit code 1 in the CLI.
InternalInvariantError marks states the library promises can never be
reached (a rewrite breaking validity, method disagreement); the CLI maps it
to exit code 2.  ResourceLimitError marks a work or table limit that
valid input can reach (the rewrite watchdog, a prime index past the
prime table); the CLI maps it to exit code 3.
"""


class InternalInvariantError(RuntimeError):
    """A guaranteed-impossible condition was observed; this is a bug."""


class ParseError(ValueError):
    """Bad word text.  `position` is the 1-based token position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ResourceLimitError(RuntimeError):
    """A work or table limit (the rewrite watchdog, the prime table's
    MAX_INDEX) was reached before the answer; the input may be fine, it
    needs a larger limit."""
