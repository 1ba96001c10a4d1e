"""Exception types shared across the package."""


class DegreeSequenceError(ValueError):
    """Malformed or out-of-range daughter degree sequence."""


class CapacityError(OverflowError):
    """A derived count would exceed the unsigned 64-bit budget."""


class InvalidVertexError(ValueError):
    """Vertex identifier is not valid for the given tree shape."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class LabelRangeError(ValueError):
    """Label outside the valid range [0, edge_count]."""


class LabellingStreamError(ValueError):
    """A labelling stream or assignment does not fit the tree's vertex counts and ids."""


class SearchCapError(ValueError):
    """Shape too large for the exhaustive search oracle."""


class ConsistencyError(RuntimeError):
    """Internal invariant breached; always a bug, never absorbed silently."""
