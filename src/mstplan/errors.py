"""Exception types shared across the package."""

from __future__ import annotations


class Error(ValueError):
    """Base class for all mstplan errors."""


class SelfLoopError(Error):
    """An edge connects a vertex to itself."""


class VertexOutOfRangeError(Error):
    """An edge endpoint is negative or >= the vertex count."""


class NonFiniteWeightError(Error):
    """A weight is NaN or infinite where a finite value is required.

    Also raised when a spanning tree's total weight overflows the float range.
    """


class DisconnectedGraphError(Error):
    """The full edge set does not connect all vertices."""


class UnknownEdgeError(Error):
    """An edge id does not exist in the graph."""


class NotUnstableError(Error):
    """The operation needs an unstable edge but got a stable one."""


class InvalidConstraintsError(Error):
    """Mandatory and forbidden sets overlap, or a precondition on them fails."""


class FrozenIncompleteError(Error):
    """The frozen-value map does not cover exactly the other unstable edges."""


class StalePlanSetError(Error):
    """A plan set was built on another graph or at other unstable values."""


class TooLargeError(Error):
    """The instance exceeds the exhaustive-enumeration size cap."""


class FormatError(Error):
    """A text input does not follow its format. Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphSyntaxError(FormatError):
    """Malformed graph file."""


class EventSyntaxError(FormatError):
    """Malformed weight-change event file."""


class PlanFormatError(FormatError):
    """Malformed or internally inconsistent plan file."""


class FingerprintMismatchError(Error):
    """A plan file was loaded against a graph it was not computed from."""
