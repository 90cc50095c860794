"""Exception types shared across the package."""

__all__ = [
    "CleccError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "UnknownNodeError",
    "UnknownLayerError",
    "AlphaOutOfRangeError",
    "NotAdjacentError",
    "InconsistentTableError",
    "TooManyNodesError",
    "EmptyTableError",
    "EmptyNetworkError",
    "InvalidParamsError",
    "MalformedLineError",
    "MalformedPartitionError",
    "DomainMismatchError",
    "OracleMismatchError",
]


class CleccError(Exception):
    """Base class for every error raised by this library."""


class _LineError(CleccError):
    """An error an edge-list line can cause; ``line`` is its number, if known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class SelfLoopError(_LineError):
    """An edge would connect a node to itself."""


class DuplicateEdgeError(_LineError):
    """The ordered (source, target, layer) triple is already present."""


class UnknownNodeError(CleccError):
    """A node label is not registered in the network."""


class UnknownLayerError(CleccError):
    """A layer label is not registered in the network."""


class AlphaOutOfRangeError(CleccError):
    """Alpha lies outside [1, number of layers]."""


class NotAdjacentError(CleccError):
    """The measure requires an edge between the two nodes."""


class InconsistentTableError(CleccError):
    """An incremental table update was asked for a pair with no entry."""


class TooManyNodesError(CleccError, ValueError):
    """A table would hold more nodes than its float values keep exact."""


class EmptyTableError(CleccError):
    """A minimum was requested from a table with no entries."""


class EmptyNetworkError(CleccError):
    """Detection needs a network with at least one node."""


class InvalidParamsError(CleccError):
    """A parameter (of a generator, condition or parser) violates its constraints.

    The command line reports it as a usage error (exit code 1).
    """


class MalformedLineError(_LineError):
    """An edge-list line does not have exactly three non-empty fields."""


class MalformedPartitionError(CleccError, ValueError):
    """Partition JSON is not valid JSON or not in the groups + singletons shape."""


class DomainMismatchError(CleccError):
    """Two partitions do not cover the same node set.

    ``node`` is the smallest node that only one side has, ``side`` is
    that side ("first" or "second") and ``sizes`` the two node counts.
    """

    def __init__(
        self,
        message: str,
        node: str | None = None,
        side: str | None = None,
        sizes: tuple[int, int] | None = None,
    ):
        super().__init__(message)
        self.node = node
        self.side = side
        self.sizes = sizes


class OracleMismatchError(CleccError):
    """The optimized path and the brute-force reference disagreed."""
