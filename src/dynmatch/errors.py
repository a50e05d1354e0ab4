"""Exception types shared across the package."""

from __future__ import annotations


class AbsentEdgeError(LookupError):
    """Raised when an edge required to be present is not in the graph."""


class MatchingCorruptionError(RuntimeError):
    """Raised by audit checks when a matching violates its invariants.

    Seeing this exception means internal state went bad; it is never the
    caller's fault and never recoverable within a run.
    """


class OracleLimitError(ValueError):
    """Raised when an instance is too large for exhaustive search."""


class StreamParseError(ValueError):
    """Raised on malformed input files; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ReplayError(RuntimeError):
    """Raised when an update stream cannot be applied to the graph, or
    when its replay could never finish."""
