"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class VineboundError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(VineboundError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PathValidationError(VineboundError):
    """Vertex sequence is not a path of the host graph."""


class CycleValidationError(VineboundError):
    """Vertex sequence is not a cycle of the host graph."""


class PreconditionError(VineboundError):
    """Operation invoked outside its contract."""


class NotTwoConnectedError(PreconditionError):
    """Input graph is not 2-connected; names a cut vertex when one exists."""

    def __init__(self, message: str, articulation_vertex: int | None = None):
        super().__init__(message)
        self.articulation_vertex = articulation_vertex


class ResourceLimitError(VineboundError):
    """A configured search budget was exhausted."""


class SolveBudgetError(ResourceLimitError):
    """Solver budget exhausted; carries the best (non-optimal) witness found."""

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


class EarCapError(ResourceLimitError):
    """Ear enumeration exceeded its cap; carries the partial count."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"ear cap {cap} exceeded ({partial_count} ears found before stopping)")
        self.partial_count = partial_count


class VineSearchCapError(ResourceLimitError):
    """Vine search generated more partial chains than allowed."""

    def __init__(self, cap: int):
        super().__init__(f"vine search state cap {cap} exceeded")


class InternalInvariantError(VineboundError):
    """A guaranteed invariant failed; indicates a bug, not bad input."""
